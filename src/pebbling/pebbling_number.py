"""Exact pebbling numbers from the down-set of unsolvable configurations.

pi_rooted(G, r) is the least k such that every size-k configuration with
no pebble on r is solvable. Solvability is monotone under adding
pebbles, so the unsolvable root-free configurations form a down-set:
removing a pebble from an unsolvable configuration of size s+1 leaves an
unsolvable configuration of size s. The down-set is built level by level
from the empty configuration; level s+1 is every unsolvable
configuration that is a member of level s plus one pebble.

Stop rule: the first empty level ends the down-set. This is structural,
not a search heuristic: an unsolvable configuration of any larger size
would contain one of this size. Every level below it is non-empty (the
empty configuration is unsolvable), so pi_rooted is the number of levels.

Levels only hold configurations with p(v) < 2^d(v,r) for every v: a
larger stack is solvable outright. With symmetry each level keeps one
representative per orbit of the stored generators: the lexicographic
maximum, which under block symmetry (transpositions only) is the tuple
sorted descending within each block.

Each candidate is decided by one step on level s, with no search. A
candidate q of size s+1 is unsolvable exactly when every legal move
u -> v (q(u) >= 2) leaves a child that, canonicalized under symmetry,
is in level s. A solving sequence starts with one move, and its child
either holds a pebble on the root, or holds a stack of 2^d(v,r) on v,
or is a root-free configuration of size s below the caps. The first two
are solvable and in no level (the stored symmetries fix the root, so
they keep distances); the third is unsolvable exactly when level s
holds it, one representative per orbit, by induction on s. So one set
lookup decides each move. Moves are tried in the solver's order, toward
the root first, so a solvable candidate stops early.

Candidates are generated in order (orderly generation, McKay 1998): a
representative p of level s is extended only at root-free vertices
v >= last(p), its last nonzero vertex, and under block symmetry only
where p(prev(v)) > p(v), prev(v) being the vertex before v in its
block, so that the extension stays block-sorted. This misses nothing.
If q is the maximum of its orbit under a group of vertex permutations
and L = last(q), then q - e_L is the maximum of its own orbit: an image
beating it at a first index i < L would beat q there too, and one
beating it at i >= L would hold more pebbles than it. Solvability is
monotone, so q - e_L is unsolvable when q is, and q is its extension at
L >= last(q - e_L). Without symmetry and under block symmetry every
candidate is a representative and is generated, and decided, once.

How a child is looked up depends on the symmetry. Without it the child
is looked up as it is. Under block symmetry it is canonicalized first.
Under a stored closure group, which is small, the builder keeps beside
each level of representatives the set of all their orbit members, so a
child is looked up as it is, with no canonicalization; an extension
need not be a representative there, and one whose orbit is already
known unsolvable is skipped. An orbit is expanded once, when a
candidate of it is found unsolvable. Each candidate decision counts as
one search node against the solver's limits. A limit hit part-way
reports the number of complete levels, a proven lower bound on
pi_rooted.

The levels also answer every weight-function question on the graph: the
largest weight of an unsolvable configuration is a maximum over them.
They are cached on the graph, so repeated certificate checks on one
graph reuse one enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Iterator

from .configurations import Configuration, _symmetry_mode, canonical_counts
from .errors import BadParameterError, GraphMismatchError, InternalError, ResourceLimitError
from .graphs import Graph, _is_automorphism, build_graph, distances_from
from .solver import SearchLimits, Solver, shared_solver


@dataclass(frozen=True)
class ScanRecord:
    """Which sizes were enumerated and whether orbits were reduced.

    ``sizes`` runs from 0 to the pebbling number: every level of the
    down-set, then the empty level that ends it.
    """

    sizes: tuple[int, ...]
    symmetry_used: bool


@dataclass(frozen=True)
class PiResult:
    value: int
    witness_unsolvable: Configuration
    exhaustiveness: ScanRecord


def _unsolvable_levels(g: Graph, solver: Solver, use_symmetry: bool) -> tuple[set, ...]:
    """The unsolvable root-free configurations of g, one set per size,
    each level decided from the one below (see the module docstring).

    Cached on the graph, keyed by ``use_symmetry``, only once complete:
    a resource limit hit part-way leaves nothing behind, and the error
    carries the number of levels completed as ``pi_lower``.
    """
    use_symmetry = use_symmetry and bool(g.symmetry)
    key = ("unsolvable_levels", use_symmetry)
    cache = g._cache
    if key in cache:
        return cache[key]
    levels = []
    try:
        for level in _levels(g, solver, use_symmetry):
            levels.append(level)
    except ResourceLimitError as exc:
        # levels 0..len(levels)-1 are complete and non-empty
        exc.pi_lower = len(levels)
        raise
    cache[key] = levels = tuple(levels)
    return levels


def _levels(g: Graph, solver: Solver, use_symmetry: bool) -> Iterator[set]:
    """Yield the levels as orbit representatives, generated in order
    (see the module docstring).

    Under a stored closure group each orbit found unsolvable is
    expanded, with one ``itemgetter`` per closure permutation, into the
    member set that answers the lookups of the next level.
    """
    kind, data = _symmetry_mode(g) if use_symmetry else ("none", None)
    group = data if kind == "group" else None
    blocks = data if kind == "blocks" else ()
    prev = {v: u for block in blocks for u, v in zip(block, block[1:])}
    dist = distances_from(g, g.root)
    # descending, so that the walk over p can stop at last(p)
    top = [(v, (1 << dist[v]) - 1, prev.get(v)) for v in reversed(range(g.vertex_count)) if v != g.root]
    moves = solver._moves

    def unsolvable(q):
        # one lookup per legal move in the level below
        solver.count_node()
        for a, t in moves:
            if q[a] >= 2:
                child = list(q)
                child[a] -= 2
                child[t] += 1
                child = tuple(child)
                if blocks:
                    child = canonical_counts(g, child)
                if child not in members:
                    return False
        return True

    reps = members = {(0,) * g.vertex_count}
    while reps:
        yield reps
        nxt: set[tuple[int, ...]] = set()
        nxt_members: set[tuple[int, ...]] = set()
        for p in reps:
            solver.check_deadline()
            for v, cap, u in top:
                c = p[v]
                if c < cap and (u is None or p[u] > c):
                    q = p[:v] + (c + 1,) + p[v + 1 :]
                    if q not in nxt_members and unsolvable(q):
                        if group is None:
                            nxt.add(q)
                        else:
                            images = {perm(q) for perm in group}
                            nxt_members |= images
                            nxt.add(max(images))
                if c:
                    break
        reps = nxt
        members = nxt if group is None else nxt_members


def pi_rooted(
    g: Graph,
    *,
    use_symmetry: bool = True,
    limits: SearchLimits | None = None,
    threads: int = 1,
) -> PiResult:
    """Exact rooted pebbling number with a maximal unsolvable witness.

    The witness is the lexicographically greatest configuration of the
    last level. It is re-verified by a new solver, so the check does not
    lean on the memo that admitted it. ``threads`` is accepted for
    compatibility and selects nothing: the levels are built in this
    process.
    """
    solver = shared_solver(g, 1, limits)
    solver.restart_clock()
    levels = _unsolvable_levels(g, solver, use_symmetry)
    witness = max(levels[-1])
    if Solver(g, 1, solver.limits).decide(witness):
        raise InternalError("internal error: witness re-verification failed")
    value = len(levels)
    return PiResult(value, Configuration(g, witness), ScanRecord(tuple(range(value + 1)), use_symmetry))


def _reroot(g: Graph, r: int) -> Graph:
    kept = tuple(p for p in g.symmetry if p[r] == r)
    return build_graph(g.vertex_count, g.edges, root=r, labels=g.labels, symmetry=kept)


def _verified_transitive(g: Graph) -> bool:
    maps = g.transitive_maps
    if maps is None or len(maps) != g.vertex_count:
        return False
    return all(
        _is_automorphism(g.vertex_count, g.edge_set, p) and p[g.root] == target
        for target, p in enumerate(maps)
    )


def pi_global(
    g: Graph,
    *,
    use_symmetry: bool = True,
    limits: SearchLimits | None = None,
) -> int:
    """max over roots of pi_rooted; vertex-transitive graphs need one root.

    Transitivity is certified by directly checking the stored per-vertex
    automorphisms, never assumed from the family name.
    """
    if _verified_transitive(g):
        return pi_rooted(g, use_symmetry=use_symmetry, limits=limits).value
    best = 0
    for r in range(g.vertex_count):
        h = g if r == g.root else _reroot(g, r)
        best = max(best, pi_rooted(h, use_symmetry=use_symmetry, limits=limits).value)
    return best


def is_class0(g: Graph, *, limits: SearchLimits | None = None) -> bool:
    """Whether the pebbling number equals the number of vertices."""
    return pi_global(g, limits=limits) == g.vertex_count


def _weight_respects_symmetry(g: Graph, weights) -> bool:
    return all(all(weights[p[v]] == weights[v] for v in range(g.vertex_count)) for p in g.symmetry)


def max_unsolvable_weight(
    g: Graph,
    w,
    size_bound: int,
    *,
    use_symmetry: bool = True,
    limits: SearchLimits | None = None,
) -> tuple[Fraction, Configuration]:
    """Maximum of w(p) over unsolvable configurations of size <= size_bound.

    A maximum of the integer-scaled w(p) over levels 0..size_bound of the
    down-set; ties go to the lexicographically greatest configuration.
    Callers must pass size_bound >= pi_rooted - 1 to cover every
    unsolvable configuration. The orbit-reduced levels are read only
    when the weight function is constant on the stored orbits, so that
    each representative weighs what its whole orbit does.
    """
    if w.graph is not g:
        raise GraphMismatchError("weight function belongs to a different graph")
    if size_bound < 0:
        raise BadParameterError("size_bound must be nonnegative")
    weights = w.weights
    solver = shared_solver(g, 1, limits)
    solver.restart_clock()
    symmetric = use_symmetry and _weight_respects_symmetry(g, weights)
    levels = _unsolvable_levels(g, solver, symmetric)

    den = lcm(*(f.denominator for f in weights))
    wi = [int(f * den) for f in weights]
    best = max(
        chain.from_iterable(levels[: size_bound + 1]),
        key=lambda counts: (sum(map(mul, wi, counts)), counts),
    )
    return Fraction(sum(map(mul, wi, best)), den), Configuration(g, best)
