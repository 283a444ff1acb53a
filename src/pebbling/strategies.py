"""Weight-function certificates and the named constructions.

A weight function assigns a nonnegative rational to every vertex with 0
at the root. It is *valid* when the root is its only zero and every
unsolvable configuration p satisfies w(p) <= w(1_G); a valid function
caps the pebbling number at floor(w(1_G)/m) + 1 where m is the minimum
weight. Three verification routes produce certificates:

* tree check: the positive support plus the root induces a tree and
  every supported vertex not adjacent to the root weighs at most half
  its parent; this is the classic sufficient condition,
* exhaustive oracle: maximize w over all unsolvable configurations and
  compare against w(1_G), reading the graph's one down-set of
  unsolvable configurations, kept as orbit representatives of its
  symmetry (twins or the root-fixing group) whatever the weights,
* combination: conic combinations of already certified functions on
  embedded subgraphs; a decomposition is the combination with every
  coefficient 1, checked to equal w.

Every certificate status names a check made in this process; no
validity is taken on record.

All arithmetic is exact: weights are Fractions, summed and compared as
integers over their common denominator, as validity hinges on
comparisons like 46/3 vs 15 that floats get wrong. A WeightFunction
scales itself once, when it is built (``integers``), and the total, the
tree check, the oracle and the strategy LP all read that scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .configurations import Configuration, _integers
from .errors import BadParameterError, InternalError, NotATreeError, UncertifiedWeightError, WeightNotPositiveError
from .graphs import Graph, cycle_graph, distances_from, diameter, hypercube, lollipop, path_graph, rooted_cube
from .graphs import _check_vertex
from .pebbling_number import max_unsolvable_weight
from .solver import SearchLimits

TREE_CHECKED = "tree-checked"
ORACLE_CHECKED = "oracle-checked"
COMPOSED = "composed"
_CERTIFIED = {TREE_CHECKED, ORACLE_CHECKED, COMPOSED}


@dataclass(frozen=True, eq=False)
class WeightFunction:
    graph: Graph
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.weights) != self.graph.vertex_count:
            raise BadParameterError("weights length does not match the graph")
        if not all(isinstance(x, (int, Fraction)) for x in self.weights):
            raise BadParameterError("weights must be nonnegative integers or fractions")
        object.__setattr__(self, "integers", _integers(self.weights))
        ints = self.integers[0]
        if any(x < 0 for x in ints):
            raise BadParameterError("weights must be nonnegative integers or fractions")
        if ints[self.graph.root] != 0:
            raise BadParameterError("root weight must be 0")

    @property
    def total(self) -> Fraction:
        """w(1_G): the weight of the all-ones configuration."""
        ints, scale = self.integers
        return Fraction(sum(ints), scale)

    @property
    def min_positive(self) -> Fraction:
        positives = [x for x in self.weights if x > 0]
        if not positives:
            raise WeightNotPositiveError("weight function has empty support")
        return min(positives)


def weight_function(g: Graph, values) -> WeightFunction:
    """Build from a sequence or a {vertex: weight} mapping (others 0)."""
    if isinstance(values, dict):
        arr = [0] * g.vertex_count
        for v, x in values.items():
            _check_vertex(g, v)
            arr[v] = x
        values = arr
    try:  # ints, strings and finite floats are read exactly; NaN, infinities and "1/0" are refused
        exact = tuple(Fraction(x) for x in values)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise BadParameterError(f"weight is not an exact rational: {exc}") from exc
    return WeightFunction(g, exact)


@dataclass(frozen=True)
class Certificate:
    """A weight function together with the check, made in this process, that found it valid."""

    weight_function: WeightFunction
    status: str
    components: tuple["Certificate", ...] = ()
    notes: str = ""

    def __post_init__(self):
        if self.status not in _CERTIFIED:
            raise UncertifiedWeightError(f"certificate status {self.status!r} is not certified")

    @property
    def graph(self) -> Graph:
        return self.weight_function.graph


# ---------------------------------------------------------------------------
# verification routes
# ---------------------------------------------------------------------------


def check_tree_strategy(g: Graph, w: WeightFunction) -> bool:
    """Sufficient tree condition: parent weight at least twice the child's.

    The positive support plus the root must induce a tree rooted at r
    (NotATreeError otherwise). Vertices adjacent to the root in that
    tree are unconstrained.
    """
    if w.graph is not g:
        raise BadParameterError("weights belong to a different graph")
    wi = w.integers[0]
    support = [v for v in range(g.vertex_count) if wi[v] > 0]
    nodes = set(support) | {g.root}
    edges = [(u, v) for u, v in g.edges if u in nodes and v in nodes]
    if len(edges) != len(nodes) - 1:
        raise NotATreeError("support plus root does not induce a tree")
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = {g.root: None}
    frontier = [g.root]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
        frontier = nxt
    if len(parent) != len(nodes):
        raise NotATreeError("support plus root is not connected to the root")
    for v in support:
        up = parent[v]
        if up == g.root:
            continue
        if wi[up] < 2 * wi[v]:
            return False
    return True


def certify_tree(g: Graph, w: WeightFunction) -> Certificate:
    if not check_tree_strategy(g, w):
        raise UncertifiedWeightError("tree condition failed")
    return Certificate(w, TREE_CHECKED)


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    counterexample: Configuration | None
    max_unsolvable: Fraction
    cap: Fraction


def verify_validity_oracle(
    g: Graph,
    w: WeightFunction,
    *,
    limits: SearchLimits | None = None,
    threads: int = 1,
) -> ValidityResult:
    """Exhaustive validity decision.

    Requires strictly positive weights off the root. Maximizes w over
    every unsolvable configuration, read from the one down-set cached on
    the graph, whose witness check runs when it is built.
    ``threads`` is accepted for compatibility and selects nothing.
    """
    if w.graph is not g:
        raise BadParameterError("weights belong to a different graph")
    if any(x <= 0 for v, x in enumerate(w.integers[0]) if v != g.root):
        raise WeightNotPositiveError("every non-root vertex needs positive weight")
    worst, achiever = max_unsolvable_weight(g, w, limits=limits)
    cap = w.total
    if worst <= cap:
        return ValidityResult(True, None, worst, cap)
    return ValidityResult(False, achiever, worst, cap)


def certify_by_oracle(g: Graph, w: WeightFunction, **kwargs) -> Certificate:
    result = verify_validity_oracle(g, w, **kwargs)
    if not result.valid:
        raise UncertifiedWeightError(
            f"oracle found an unsolvable configuration of weight {result.max_unsolvable} > {result.cap}"
        )
    return Certificate(w, ORACLE_CHECKED, notes=f"max unsolvable weight {result.max_unsolvable}")


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


def _check_subgraph_embedding(g: Graph, sub: Graph, embedding) -> tuple[int, ...]:
    emb = tuple(embedding)
    if len(emb) != sub.vertex_count:
        raise BadParameterError("embedding length does not match the subgraph")
    if len(set(emb)) != len(emb) or any(not 0 <= x < g.vertex_count for x in emb):
        raise BadParameterError("embedding must be injective into the host graph")
    if emb[sub.root] != g.root:
        raise BadParameterError("embedding must send root to root")
    for u, v in sub.edges:
        if not g.has_edge(emb[u], emb[v]):
            raise BadParameterError(f"edge ({u},{v}) has no image edge")
    return emb


def _check_induced_embedding(g: Graph, sub: Graph, embedding) -> tuple[int, ...]:
    emb = _check_subgraph_embedding(g, sub, embedding)
    for i in range(sub.vertex_count):
        for j in range(i + 1, sub.vertex_count):
            if g.has_edge(emb[i], emb[j]) and not sub.has_edge(i, j):
                raise BadParameterError("embedding is not induced: image has an extra edge")
    return emb


def _zero_extended(g: Graph, cert: Certificate, embedding) -> tuple[Fraction, ...]:
    """A subgraph certificate's weights carried onto g, zero elsewhere.

    The weight cap inequality survives extension: an unsolvable
    configuration on g restricts to an unsolvable one on the embedded
    subgraph and the extension carries weight only there.
    """
    if embedding is None:
        if cert.graph is not g:
            raise BadParameterError("no embedding given and the graphs differ")
        return cert.weight_function.weights
    emb = _check_subgraph_embedding(g, cert.graph, embedding)
    arr = [Fraction(0)] * g.vertex_count
    for v, x in zip(emb, cert.weight_function.weights):
        arr[v] = x
    return tuple(arr)


def conic_combine(g: Graph, components) -> Certificate:
    """Nonnegative combination of certified functions on embedded subgraphs.

    components: iterable of (coefficient, certificate, embedding); pass
    embedding None for a component already on g. Every non-root vertex
    must end up with positive weight, matching the hypothesis under
    which combinations stay valid.
    """
    total = [Fraction(0)] * g.vertex_count
    certs = []
    for coef, cert, embedding in components:
        coef = Fraction(coef)
        if coef < 0:
            raise BadParameterError(f"coefficient {coef} is negative")
        if not isinstance(cert, Certificate):
            raise UncertifiedWeightError("every component must carry a certificate")
        for v, x in enumerate(_zero_extended(g, cert, embedding)):
            total[v] += coef * x
        certs.append(cert)
    for v in range(g.vertex_count):
        if v != g.root and total[v] == 0:
            raise WeightNotPositiveError(f"vertex {v} received zero total weight")
    wf = WeightFunction(g, tuple(total))
    return Certificate(wf, COMPOSED, components=tuple(certs))


def verify_decomposition(g: Graph, w: WeightFunction, copies) -> bool:
    """Check that base weights on induced embedded copies sum to w exactly.

    copies: iterable of (embedding, base WeightFunction). Embeddings
    must be induced and root-preserving (BadParameterError otherwise);
    an exact per-vertex sum mismatch returns False.
    """
    if w.graph is not g:
        raise BadParameterError("weights belong to a different graph")
    total = [Fraction(0)] * g.vertex_count
    for embedding, base in copies:
        emb = _check_induced_embedding(g, base.graph, embedding)
        for v in range(base.graph.vertex_count):
            total[emb[v]] += base.weights[v]
    return tuple(total) == w.weights


def certify_by_decomposition(g: Graph, w: WeightFunction, copies) -> Certificate:
    """Certificate for w as the sum of certified copies on induced embeddings.

    copies: iterable of (embedding, base Certificate). The copies must
    sum to w exactly (UncertifiedWeightError otherwise); the result is
    their conic combination with every coefficient 1, status composed.
    """
    copies = list(copies)
    if not all(isinstance(cert, Certificate) for _, cert in copies):
        raise UncertifiedWeightError("every copy must carry a certificate")
    if not verify_decomposition(g, w, [(emb, cert.weight_function) for emb, cert in copies]):
        raise UncertifiedWeightError("copies do not sum to the target weight function")
    return conic_combine(g, [(1, cert, emb) for emb, cert in copies])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def weight_function_bound(cert: Certificate) -> int:
    """Upper bound floor(w(1_G)/m) + 1 from a certified weight function.

    Needs strictly positive weights off the root: any size above the
    bound then forces w(p) > w(1_G), hence solvability.
    """
    if not isinstance(cert, Certificate):
        raise UncertifiedWeightError("the bound needs a certificate")
    w = cert.weight_function
    g = w.graph
    if any(x <= 0 for v, x in enumerate(w.integers[0]) if v != g.root):
        raise WeightNotPositiveError("bound requires positive weight on every non-root vertex")
    return math.floor(w.total / w.min_positive) + 1


def diameter_lower_bound(g: Graph) -> int:
    """2^diameter: a stuck stack one short of it certifies the bound."""
    return 1 << diameter(g)


# ---------------------------------------------------------------------------
# the construction library
# ---------------------------------------------------------------------------


def _weights_by_distance(g: Graph, table) -> tuple[Graph, WeightFunction]:
    dist = distances_from(g, g.root)
    return g, WeightFunction(
        g, tuple(Fraction(0) if v == g.root else Fraction(table[dist[v]]) for v in range(g.vertex_count))
    )


def _path_weights(k: int) -> tuple[Graph, WeightFunction]:
    return _weights_by_distance(path_graph(k), {d: 1 << (k - d) for d in range(1, k + 1)})


def _cycle_combined(k: int) -> tuple[Graph, WeightFunction]:
    # mirror-symmetric sum of the two path strategies around the cycle:
    # 2^k, ..., 2^2 down each side, 3 on both farthest vertices
    if k < 1:
        raise BadParameterError("need an odd cycle of length at least 3")
    return _weights_by_distance(cycle_graph(2 * k + 1), {d: 1 << (k + 1 - d) for d in range(1, k)} | {k: 3})


def cycle_strategy_pair(k: int) -> tuple[Certificate, Certificate]:
    """The two mirrored path strategies on C_{2k+1}, tree-certified.

    Each is the 2^i path weighting on a path through k+2 of the cycle's
    vertices, zero elsewhere; their sum is the combined cycle function.
    """
    if k < 1:
        raise BadParameterError("need an odd cycle of length at least 3")
    cycle = cycle_graph(2 * k + 1)
    path, wf = _path_weights(k + 1)
    cert = certify_tree(path, wf)
    length = 2 * k + 1
    emb_a = tuple((k + 1 - j) % length for j in range(k + 2))
    emb_b = tuple((k + j) % length for j in range(k + 2))
    a, b = (WeightFunction(cycle, _zero_extended(cycle, cert, emb)) for emb in (emb_a, emb_b))
    return Certificate(a, TREE_CHECKED), Certificate(b, TREE_CHECKED)


def _lollipop_weights(n: int, m: int | None = None) -> tuple[Graph, WeightFunction]:
    # 2^n, ..., 2 along the path from the root, 1 on the bundle
    table = {d: 1 << (n + 1 - d) for d in range(1, n + 1)}
    return _weights_by_distance(lollipop(n, m), table | {n + 1: 1, n + 2: 1})


def _conjecture_weights(n: int) -> tuple[Graph, WeightFunction]:
    if n < 3:
        raise BadParameterError("reciprocal-distance weights start at dimension 3")
    return _weights_by_distance(rooted_cube(n), {d: Fraction(1, d) for d in range(1, n + 1)})


def _lollipop_general_weights(n: int, m: int) -> tuple[Graph, WeightFunction]:
    if m < (1 << (n + 1)) + 1:
        raise BadParameterError(f"generalized form needs at least {(1 << (n + 1)) + 1} parallel paths")
    return _lollipop_weights(n, m)


# name -> (builder of the graph and its weights, number of parameters)
_CONSTRUCTIONS = {
    "fig2": (lambda: _weights_by_distance(rooted_cube(3), {1: 2, 2: Fraction(2, 3), 3: Fraction(1, 3)}), 0),
    "q3prime": (lambda: _weights_by_distance(hypercube(3), {1: 2, 2: Fraction(4, 3), 3: 1}), 0),
    "lemma5": (lambda: _weights_by_distance(rooted_cube(4), {1: 4, 2: 2, 3: Fraction(4, 3), 4: 1}), 0),
    "q4star": (lambda: _weights_by_distance(hypercube(4), dict.fromkeys(range(1, 5), 4)), 0),
    "conjecture": (_conjecture_weights, 1),
    "lollipop": (_lollipop_weights, 1),
    "lollipop_general": (_lollipop_general_weights, 2),
    "cycle_combined": (_cycle_combined, 1),
    "path": (_path_weights, 1),
}


def construction(name: str, *params: int) -> tuple[Graph, WeightFunction]:
    """Named (graph, weights) pairs bundled with the library.

    Names: fig2, q3prime, lemma5, q4star, conjecture(n), lollipop(n),
    lollipop_general(n, m), cycle_combined(k), path(k).
    """
    if name not in _CONSTRUCTIONS:
        raise BadParameterError(f"unknown construction {name!r}")
    build, arity = _CONSTRUCTIONS[name]
    bad = BadParameterError(f"bad parameters {params} for {name!r}")
    if len(params) != arity:
        raise bad
    try:
        return build(*params)
    except BadParameterError:
        raise
    except ValueError as exc:  # e.g. a negative shift count
        raise bad from exc


def certify(
    g: Graph,
    w: WeightFunction,
    method: str = "auto",
    *,
    limits: SearchLimits | None = None,
) -> Certificate:
    """Certificate for w on g, checked in this process.

    method "tree" runs the tree check, "oracle" the exhaustive oracle
    under ``limits``, and "auto" the tree check, falling back to the
    oracle when it cannot certify w.
    """
    if method not in ("auto", "tree", "oracle"):
        raise BadParameterError(f"unknown certification method {method!r}")
    if method != "oracle":
        try:
            return certify_tree(g, w)
        except (NotATreeError, UncertifiedWeightError):
            if method == "tree":
                raise
    return certify_by_oracle(g, w, limits=limits)


def construction_certificate(name: str, *params: int, limits: SearchLimits | None = None) -> Certificate:
    """Certificate for a named construction, checked in this process.

    Each is certified as ``certify`` does by default (tree check, else
    the oracle under ``limits``), except that cycle_combined is the conic
    combination of its two path strategies, which must equal the table's
    weights (InternalError otherwise), and q4star the four-copy
    decomposition of lemma5, whose base certificate takes the same limits.
    """
    g, w = construction(name, *params)
    if name == "cycle_combined":
        a, b = cycle_strategy_pair(*params)
        cert = conic_combine(g, [(1, a, None), (1, b, None)])
        if cert.weight_function.weights != w.weights:
            raise InternalError("internal error: cycle_combined weights differ from its two path strategies")
        return cert
    if name == "q4star":
        base = construction_certificate("lemma5", limits=limits)
        return certify_by_decomposition(g, w, [(emb, base) for emb in cube_copy_embeddings(4)])
    return certify(g, w, limits=limits)


def cube_copy_embeddings(n: int) -> tuple[tuple[int, ...], ...]:
    """The n induced pendant-rooted (n-1)-cube copies inside Q_n.

    Copy i covers the root plus every vertex whose coordinate i is set;
    dropping that coordinate identifies the rest with the smaller cube,
    and the root's pendant edge lands on the unit vector e_i.
    """
    if n < 3:
        raise BadParameterError("needs dimension at least 3")
    embs = []
    for i in range(n):
        others = [b for b in range(n) if b != i]
        emb = [0] * ((1 << (n - 1)) + 1)
        for c in range(1 << (n - 1)):
            image = 1 << i
            for pos, b in enumerate(others):
                if (c >> pos) & 1:
                    image |= 1 << b
            emb[1 + c] = image
        embs.append(tuple(emb))
    return tuple(embs)
