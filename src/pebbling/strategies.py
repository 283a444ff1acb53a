"""Weight-function certificates and the named constructions.

A weight function assigns a nonnegative rational to every vertex with 0
at the root. It is *valid* when every unsolvable configuration p
satisfies w(p) <= w(1_G): that cap inequality is what a certificate
proves, whatever the support. A valid function positive off the root
caps the pebbling number at floor(w(1_G)/m) + 1 where m is the minimum
weight; one with zeros, such as a path strategy carried onto a cycle,
bounds it only as a row of the strategy LP. The tree check, the oracle
and conic_combine accept any nonnegative support; the bound alone
refuses a zero off the root, and the LP a vertex that no row covers.
Three verification routes produce certificates, and nothing else can
build one; certify is the one public router to the first two:

* tree check: the positive support plus the root induces a tree and
  every supported vertex not adjacent to the root weighs at most half
  its parent; this is the classic sufficient condition,
* exhaustive oracle: maximize w over all unsolvable configurations and
  compare against w(1_G), reading the graph's one down-set of
  unsolvable configurations, kept as orbit representatives of its
  symmetry (twins or the root-fixing group) whatever the weights,
* combination: conic combinations of already certified functions on
  embedded subgraphs (conic_combine, the one builder of a composed
  certificate); a decomposition is the combination with every
  coefficient 1 on induced embeddings, checked to equal w.

Every certificate status names a check made in this process; no
validity is taken on record. A Certificate built by hand, or copied
with dataclasses.replace, raises UncertifiedWeightError.

All arithmetic is exact: weights are Fractions, summed and compared as
integers over their common denominator, as validity hinges on
comparisons like 46/3 vs 15 that floats get wrong. A WeightFunction
scales itself once, when it is built (``integers``), and the total, the
tree check, the oracle, the bound and the strategy LP all read that
scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .configurations import Configuration, _exact, _integers, _per_vertex, _sequence
from .errors import BadParameterError, InternalError, NotATreeError, UncertifiedWeightError, WeightNotPositiveError
from .graphs import Graph, cycle_graph, distances_from, diameter, hypercube, lollipop, path_graph, rooted_cube
from .graphs import _check_int, _named
from .pebbling_number import max_unsolvable_weight
from .solver import SearchLimits

TREE_CHECKED = "tree-checked"
ORACLE_CHECKED = "oracle-checked"
COMPOSED = "composed"
_CHECKED = object()  # the token a check hands Certificate; see its docstring


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


def weight_function(g: Graph, values) -> WeightFunction:
    """Build from a sequence or a {vertex: weight} mapping (others 0)."""
    return WeightFunction(g, tuple(_exact(x, BadParameterError, "weight") for x in _per_vertex(g, values, "weights")))


@dataclass(frozen=True)
class Certificate:
    """A weight function together with the check, made in this process,
    that found it valid.

    Only the checks build one: certify_tree, certify's oracle branch and
    conic_combine pass the module's private token, which is cleared once
    it is read, so a certificate made by hand, or by dataclasses.replace
    from a checked one, raises UncertifiedWeightError.
    """

    weight_function: WeightFunction
    status: str
    components: tuple["Certificate", ...] = ()
    notes: str = ""
    _token: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._token is not _CHECKED:
            raise UncertifiedWeightError("certificates come only from certify, certify_tree or conic_combine")
        object.__setattr__(self, "_token", None)

    @property
    def graph(self) -> Graph:
        return self.weight_function.graph


# ---------------------------------------------------------------------------
# verification routes
# ---------------------------------------------------------------------------


def check_tree_strategy(g: Graph, w: WeightFunction) -> bool:
    """Sufficient tree condition: parent weight at least twice the child's.

    The positive support plus the root must induce a tree rooted at r
    (NotATreeError otherwise): it has one induced edge fewer than
    vertices, counted on g's adjacency, and a walk from the root along
    g.neighbors, kept inside the set, reaches all of it. Vertices
    adjacent to the root in that tree are unconstrained.
    """
    if w.graph is not g:
        raise BadParameterError("weights belong to a different graph")
    wi = w.integers[0]
    nodes = {v for v in range(g.vertex_count) if wi[v] > 0} | {g.root}
    if sum(y in nodes for x in nodes for y in g.neighbors[x]) != 2 * (len(nodes) - 1):
        raise NotATreeError("support plus root does not induce a tree")
    parent = {g.root: g.root}
    order = [g.root]
    for x in order:
        for y in g.neighbors[x]:
            if y in nodes and y not in parent:
                parent[y] = x
                order.append(y)
    if len(order) != len(nodes):
        raise NotATreeError("support plus root is not connected to the root")
    return all(up == g.root or wi[up] >= 2 * wi[v] for v, up in parent.items())


def certify_tree(g: Graph, w: WeightFunction) -> Certificate:
    if not check_tree_strategy(g, w):
        raise UncertifiedWeightError("tree condition failed")
    return Certificate(w, TREE_CHECKED, _token=_CHECKED)


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
    """Exhaustive validity decision for any nonnegative support.

    Maximizes w over every unsolvable configuration, read from the one
    down-set cached on the graph, whose witness check runs when it is
    built; max_unsolvable_weight refuses weights from another graph.
    ``threads`` is accepted for compatibility and selects nothing.
    """
    worst, achiever = max_unsolvable_weight(g, w, limits=limits)
    cap = w.total
    if worst <= cap:
        return ValidityResult(True, None, worst, cap)
    return ValidityResult(False, achiever, worst, cap)


def certify(
    g: Graph,
    w: WeightFunction,
    method: str = "auto",
    *,
    limits: SearchLimits | None = None,
) -> Certificate:
    """The one router to a certificate for w on g, checked in this process.

    method "tree" runs the tree check (certify_tree), "oracle" the
    exhaustive oracle (verify_validity_oracle) under ``limits``, and
    "auto" the tree check, falling back to the oracle when it cannot
    certify w. A refusal raises NotATreeError (tree only) or
    UncertifiedWeightError.
    """
    if method not in ("auto", "tree", "oracle"):
        raise BadParameterError(f"unknown certification method {method!r}")
    if method != "oracle":
        try:
            return certify_tree(g, w)
        except (NotATreeError, UncertifiedWeightError):
            if method == "tree":
                raise
    result = verify_validity_oracle(g, w, limits=limits)
    if not result.valid:
        raise UncertifiedWeightError(
            f"oracle found an unsolvable configuration of weight {result.max_unsolvable} > {result.cap}"
        )
    return Certificate(w, ORACLE_CHECKED, notes=f"max unsolvable weight {result.max_unsolvable}", _token=_CHECKED)


# ---------------------------------------------------------------------------
# combinations
# ---------------------------------------------------------------------------


def _check_subgraph_embedding(g: Graph, sub: Graph, embedding) -> tuple[int, ...]:
    emb = _sequence(embedding, BadParameterError, "embedding")
    for x in emb:  # True would embed as vertex 1
        _check_int("embedding entry", x)
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


def _check_induced(g: Graph, sub: Graph, emb: tuple[int, ...]) -> None:
    """Refuse an extra edge among the images of a checked embedding."""
    for i in range(sub.vertex_count):
        for j in range(i + 1, sub.vertex_count):
            if g.has_edge(emb[i], emb[j]) and not sub.has_edge(i, j):
                raise BadParameterError("embedding is not induced: image has an extra edge")


def conic_combine(g: Graph, components) -> Certificate:
    """Nonnegative combination of certified functions on embedded
    subgraphs: the one builder of a composed certificate.

    components: iterable of (coefficient, certificate, embedding); pass
    embedding None for a component already on g. Each component is
    carried onto g with weight 0 off its embedding. The cap inequality
    survives that, since an unsolvable configuration on g restricts to
    an unsolvable one on the embedded subgraph, and it survives
    nonnegative sums. So vertices may end at weight 0; a bound from the
    result checks positivity itself. Coefficients are read exactly, as
    weight_function reads weights.
    """
    total = [Fraction(0)] * g.vertex_count
    certs = []
    for coef, cert, embedding in components:
        coef = _exact(coef, BadParameterError, "coefficient")
        if coef < 0:
            raise BadParameterError(f"coefficient {coef} is negative")
        if not isinstance(cert, Certificate):
            raise UncertifiedWeightError("every component must carry a certificate")
        if embedding is None and cert.graph is not g:
            raise BadParameterError("no embedding given and the graphs differ")
        emb = range(g.vertex_count) if embedding is None else _check_subgraph_embedding(g, cert.graph, embedding)
        for v, x in zip(emb, cert.weight_function.weights):
            total[v] += coef * x
        certs.append(cert)
    return Certificate(WeightFunction(g, tuple(total)), COMPOSED, components=tuple(certs), _token=_CHECKED)


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
        emb = _check_subgraph_embedding(g, base.graph, embedding)
        _check_induced(g, base.graph, emb)
        for v in range(base.graph.vertex_count):
            total[emb[v]] += base.weights[v]
    return tuple(total) == w.weights


def certify_by_decomposition(g: Graph, w: WeightFunction, copies) -> Certificate:
    """Certificate for w as the sum of certified copies on induced embeddings.

    copies: iterable of (embedding, base Certificate). The result is
    their conic combination with every coefficient 1, status composed;
    each embedding must also be induced (BadParameterError otherwise)
    and the sum must equal w exactly (UncertifiedWeightError otherwise).
    """
    if w.graph is not g:
        raise BadParameterError("weights belong to a different graph")
    copies = [(_sequence(emb, BadParameterError, "embedding"), cert) for emb, cert in copies]
    cert = conic_combine(g, [(1, base, emb) for emb, base in copies])
    for emb, base in copies:
        _check_induced(g, base.graph, emb)
    if cert.weight_function.weights != w.weights:
        raise UncertifiedWeightError("copies do not sum to the target weight function")
    return cert


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def weight_function_bound(cert: Certificate) -> int:
    """Upper bound floor(w(1_G)/m) + 1 from a certified weight function,
    m its least weight off the root.

    The one check that needs strictly positive weights off the root
    (WeightNotPositiveError otherwise): any size above the bound then
    forces w(p) > w(1_G), hence solvability. The scale cancels in
    w(1_G)/m, so the quotient is taken on w's integers.
    """
    if not isinstance(cert, Certificate):
        raise UncertifiedWeightError("the bound needs a certificate")
    w = cert.weight_function
    ints = w.integers[0]
    least = min((x for v, x in enumerate(ints) if v != w.graph.root), default=0)
    if least <= 0:
        raise WeightNotPositiveError("bound requires positive weight on every non-root vertex")
    return sum(ints) // least + 1


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
    return _weights_by_distance(cycle_graph(2 * k + 1), {d: 1 << (k + 1 - d) for d in range(1, k)} | {k: 3})


def cycle_strategy_pair(k: int) -> tuple[Certificate, Certificate]:
    """The two mirrored path strategies on C_{2k+1}, each the conic
    combination of the tree-checked 2^i weighting of path(k + 1) alone,
    carried onto a path through k+2 of the cycle's vertices, zero
    elsewhere; their sum is the combined cycle function; cycle_graph
    refuses a k below 1 as a cycle length below 3.
    """
    _check_int("k", k)
    length = 2 * k + 1
    cycle = cycle_graph(length)
    cert = certify_tree(*_path_weights(k + 1))
    emb_a = [(k + 1 - j) % length for j in range(k + 2)]
    emb_b = [(k + j) % length for j in range(k + 2)]
    return conic_combine(cycle, [(1, cert, emb_a)]), conic_combine(cycle, [(1, cert, emb_b)])


def _lollipop_weights(n: int, m: int | None = None) -> tuple[Graph, WeightFunction]:
    # 2^n, ..., 2 along the path from the root, 1 on the bundle
    table = {d: 1 << (n + 1 - d) for d in range(1, n + 1)}
    return _weights_by_distance(lollipop(n, m), table | {n + 1: 1, n + 2: 1})


def _conjecture_weights(n: int) -> tuple[Graph, WeightFunction]:
    if n < 3:
        raise BadParameterError("reciprocal-distance weights start at dimension 3")
    return _weights_by_distance(rooted_cube(n), {d: Fraction(1, d) for d in range(1, n + 1)})


def _lollipop_general_weights(n: int, m: int) -> tuple[Graph, WeightFunction]:
    g, w = _lollipop_weights(n, m)  # lollipop refuses n < 1 before the shift below
    if m < (1 << (n + 1)) + 1:
        raise BadParameterError(f"generalized form needs at least {(1 << (n + 1)) + 1} parallel paths")
    return g, w


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
    lollipop_general(n, m), cycle_combined(k), path(k); graphs._named
    checks the name, the parameter count and each parameter.
    """
    return _named(_CONSTRUCTIONS, "construction", name, params)


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
    _check_int("dimension", n)
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
