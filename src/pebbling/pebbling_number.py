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
sorted descending within each block. This module is the only one that
reduces orbits: _symmetry_mode resolves the stored generators into a
regime, and the solver memoizes configurations as they are.

While a level is built, each configuration is a packed integer key:
vertex v owns a field of d(v,r)+1 bits, vertex 0 the most significant.
A field holds every count a level or a child can reach (at most
2^d(v,r)), so no field carries into the next, integer order is
lexicographic order, and the orbit maxima stay the representatives.
The cached levels are sets of counts tuples.

Each candidate is decided by one step on level s, with no search. A
candidate q of size s+1 is unsolvable exactly when every legal move
u -> v (q(u) >= 2) leaves a child whose orbit is in level s (under
block symmetry, every move that does not stay inside a block and
enters a block only at its first vertex; see below). A solving sequence
starts with one move (under block symmetry, one of those), and its child
either holds a pebble on the root, or holds a stack of 2^d(v,r) on v,
or is a root-free configuration of size s below the caps. The first two
are solvable and in no level (the stored symmetries fix the root, so
they keep distances); the third is unsolvable exactly when level s
holds it, one representative per orbit, by induction on s. So one set
lookup decides each move. A child is one subtraction, q - delta(u, v)
with delta(u, v) = 2^(off(u)+1) - 2^off(v), and a representative
carries the deltas of its legal moves: its parent's, plus the new
vertex's once it holds 2.

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
L >= last(q - e_L). It is its only one: an extension at v < L would
need v >= last(q - e_v) = L. So the builder decides an extension only
when it is the maximum of its orbit (under block symmetry, every
extension it generates is), and in every mode each candidate decided
is a representative and is decided once.

How a child is looked up depends on the symmetry. Without it the child
is looked up as it is. Under a stored closure group, which is small, the
builder keeps beside each level of representatives the set of all their
orbit members, so a child is looked up as it is, with no
canonicalization. A representative carries its |G| images, image k
holding p(v) pebbles on perm_k(v); those of p + e_v add the unit of
perm_k(v) to image k, so they cost |G| additions. They are computed
before a candidate is decided, to tell whether it is its orbit's
maximum, and become members of the next level when it is unsolvable.
Under block symmetry a move out of a block yields the block-sorted
child directly: the two source pebbles come off the last vertex of their
run of equal counts (one of them off the last vertex of the next run
down when that run holds one pebble fewer), so the moves from one run to
one target give one child. A move into a block lands on the block's
first vertex, which holds its most pebbles, so that child is sorted too
and a move from outside the blocks is one fixed delta, taken once
whichever twin it names. No move inside a block, or onto a twin below
its block's most, is looked up, and this misses no solvable q.

Proof. A multiset M of moves solves q when every balance
b(z) = q(z) + in(z) - 2 out(z) is nonnegative and b(r) >= 1. One with
the fewest moves has no cycle (dropping one leaves a smaller solution),
so its moves can be made in some order (the No-Cycle Lemma, Milans and
Clark 2006): a source a, a vertex with no incoming move, can make its
moves first, and M less a -> v solves q - 2e_a + e_v. Nor has it a move
inside a block: k moves a -> b between adjacent twins (N[a] = N[b]) can
be dropped, with ceil(k/2) of b's moves, or all if fewer, sent from a
instead (b's other targets are a's neighbours). Twins share their
outside neighbours, so moving an end of a move to another twin of its
block keeps it legal, and if no balance turns negative the result again
solves q with the fewest moves. Suppose no such solution has a source
move a -> v with v outside the blocks or q(v) = max_B q, B being v's
block; take one with a -> v entering B below its most, held by t. A move
u -> t could trade targets with a -> v, giving a -> t, so in(t) = 0.
Sending a's pebble to t instead of v also gives a -> t, and keeps every
balance nonnegative if b(v) > 0. Otherwise v has a move
(2 out(v) = q(v) + in(v) > 0), and sending it from t as well does so if
b(t) > 0, as does sending one more of v's incoming moves to t besides if
in(v) > 1. So b(v) = b(t) = 0, in(v) = 1, and t is a source with
out(t) = q(t)/2 >= 1 (q(t) > q(v) and b(t) = 0). Any move z -> w leaving
B can trade targets with one of t's moves, making t the source of a move
to w; trades change no balance or in-count. By induction along the order
of M, every move of M enters a block below its most, held by a source: a
source's moves do by the argument above; any other sender z receives a
move, so it is such a twin, and its moves trade targets with that
source. So nothing reaches the root, which is in no block: a
contradiction. The source move found has a child in the orbit of one
looked up (transpose v with its block's first vertex and a with the end
of its run), so that lookup finds q solvable.

Each candidate decision counts as one search node against the solver's
limits. A limit hit part-way reports the number of complete levels, a
proven lower bound on pi_rooted.

The stored symmetry is a property of the graph, so each graph has one
down-set. It answers every weight-function question on the graph: the
largest weight of an unsolvable configuration is a maximum over the
orbits of the representatives, whatever the weights (see
max_unsolvable_weight). The levels are cached on the graph, so repeated
certificate checks on one graph reuse one enumeration. A graph built
without symmetry (a graph file, or build_graph with no generators) is
scanned in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, groupby
from math import lcm
from operator import add, itemgetter, mul
from typing import Iterator

from .configurations import Configuration
from .errors import GraphMismatchError, InternalError, ResourceLimitError
from .graphs import Graph, _is_automorphism, build_graph, distances_from
from .solver import SearchLimits, Solver, shared_solver


@dataclass(frozen=True)
class ScanRecord:
    """Which sizes were enumerated.

    ``sizes`` runs from 0 to the pebbling number: every level of the
    down-set, then the empty level that ends it.
    """

    sizes: tuple[int, ...]


@dataclass(frozen=True)
class PiResult:
    value: int
    witness_unsolvable: Configuration
    exhaustiveness: ScanRecord


# Closure groups larger than this are not enumerated; the down-set is
# then built in full, without symmetry (soundness over speed).
GROUP_SIZE_CAP = 10_000


def _compose(p, q):
    # (p . q)[v] = p[q[v]]
    return tuple(p[x] for x in q)


def _symmetry_mode(g: Graph):
    """Resolve the stored generators into one of three regimes.

    Returns ("none", None), ("blocks", blocks) with each block a sorted
    tuple of interchangeable vertices, or
    ("group", getters) with one ``itemgetter`` per permutation of the
    full closure, so applying a permutation is one C call. Cached per
    graph.
    """
    cache = g._cache
    if "symmetry_mode" in cache:
        return cache["symmetry_mode"]

    gens = g.symmetry
    n = g.vertex_count
    mode = ("none", None)
    if gens:
        swaps = []
        for p in gens:
            moved = [v for v in range(n) if p[v] != v]
            if len(moved) != 2:
                swaps = None
                break
            swaps.append(tuple(moved))
        if swaps is not None:
            # union the swapped pairs into interchangeable blocks
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in swaps:
                parent[find(a)] = find(b)
            groups: dict[int, list[int]] = {}
            for v in range(n):
                groups.setdefault(find(v), []).append(v)
            mode = ("blocks", tuple(tuple(sorted(b)) for b in sorted(groups.values()) if len(b) > 1))
        else:
            identity = tuple(range(n))
            group = {identity}
            frontier = [identity]
            overflow = False
            while frontier and not overflow:
                nxt = []
                for p in frontier:
                    for gperm in gens:
                        q = _compose(gperm, p)
                        if q not in group:
                            group.add(q)
                            nxt.append(q)
                            if len(group) > GROUP_SIZE_CAP:
                                overflow = True
                                break
                    if overflow:
                        break
                frontier = nxt
            if not overflow:
                mode = ("group", tuple(itemgetter(*p) for p in sorted(group)))

    cache["symmetry_mode"] = mode
    return mode


def _unsolvable_levels(g: Graph, solver: Solver) -> tuple[set, ...]:
    """The unsolvable root-free configurations of g, one set per size,
    one representative per orbit of the stored symmetry, each level
    decided from the one below (see the module docstring).

    The greatest member of the last level, pi's witness, is then
    re-verified by a new solver under the same limits, so the check
    does not lean on the builder or on a shared memo; it runs once per
    build, for every reader of the down-set. Cached on the graph only
    once complete and checked: a resource limit hit part-way leaves
    nothing behind, and the error carries the number of levels
    completed as ``pi_lower``.
    """
    cache = g._cache
    if "unsolvable_levels" in cache:
        return cache["unsolvable_levels"]
    levels = []
    try:
        for level in _levels(g, solver):
            levels.append(level)
        if Solver(g, 1, solver.limits).decide(max(levels[-1])):
            raise InternalError("internal error: witness re-verification failed")
    except ResourceLimitError as exc:
        # levels 0..len(levels)-1 are complete and non-empty
        exc.pi_lower = len(levels)
        raise
    cache["unsolvable_levels"] = levels = tuple(levels)
    return levels


def _levels(g: Graph, solver: Solver) -> Iterator[set]:
    """Yield the levels as orbit representatives, generated in order
    and looked up as packed integer keys (see the module docstring).

    Each representative carries its counts, the deltas of its legal
    moves and, under a stored closure group, its images, so a child is
    one subtraction and an extension's images cost |G| additions: they
    tell whether it is its orbit's maximum, the only extension decided,
    and when it is unsolvable they join the member set that answers the
    next level's lookups.
    """
    kind, data = _symmetry_mode(g)
    n = g.vertex_count
    dist = distances_from(g, g.root)
    # vertex v owns d(v,r)+1 bits, vertex 0 the most significant
    off = [0] * n
    for v in reversed(range(n - 1)):
        off[v] = off[v + 1] + dist[v + 1] + 1
    unit = [1 << o for o in off]
    targets: list[list[int]] = [[] for _ in range(n)]
    for a, t in solver._moves:
        targets[a].append(t)
    blocks = data if kind == "blocks" else ()
    # a move into a block lands on its first vertex; none stays inside one
    head = {v: block[0] for block in blocks for v in block}
    lands = [
        tuple(dict.fromkeys(unit[head.get(t, t)] for t in targets[a] if head.get(t, t) != head.get(a, a)))
        for a in range(n)
    ]
    # the moves from outside the blocks; _block_deltas derives the others
    delta = [() if a in head else tuple(2 * unit[a] - t for t in lands[a]) for a in range(n)]
    block_deltas = _block_deltas(blocks, [lands[block[0]] for block in blocks], unit) if blocks else None
    prev = {v: u for block in blocks for u, v in zip(block, block[1:])}
    # descending, so that the walk over p can stop at last(p)
    top = [(v, (1 << dist[v]) - 1, prev.get(v)) for v in reversed(range(n)) if v != g.root]

    group = data if kind == "group" else ()
    # the images of p are sum over v of p(v) unit[perm_k(v)], one per k,
    # so those of p + e_v add unit[perm_k(v)] to each
    perms = [perm(tuple(range(n))) for perm in group]
    lift = [tuple(unit[perm[v]] for perm in perms) for v in range(n)]

    count_node = solver.count_node
    reps = {0: ((0,) * n, (), (0,) * len(perms))}
    members = reps if not group else {0}
    while reps:
        yield {counts for counts, _, _ in reps.values()}
        nxt: dict[int, tuple] = {}
        nxt_members = nxt if not group else set()
        for p, (pc, legal, images) in reps.items():
            solver.check_deadline()
            for v, cap, u in top:
                c = pc[v]
                if c < cap and (u is None or pc[u] > c):
                    q = p + unit[v]
                    q_images = tuple(map(add, images, lift[v])) if group else ()
                    # an orbit's maximum is generated once, so skip the rest
                    if not q_images or max(q_images) == q:
                        q_legal = legal + delta[v] if c == 1 else legal
                        deltas = chain(q_legal, block_deltas(pc, v)) if blocks else q_legal
                        # one lookup per legal move in the level below
                        count_node()
                        if all(map(members.__contains__, map(q.__sub__, deltas))):
                            nxt[q] = (pc[:v] + (c + 1,) + pc[v + 1 :], q_legal, q_images)
                            if group:
                                nxt_members.update(q_images)
                if c:
                    break
        reps = nxt
        members = nxt_members


def _block_deltas(blocks, lands, unit):
    """Return block_deltas(pc, v), which gives, for the block-sorted
    q = p + e_v with pc the counts of p, the deltas q - child of q's
    moves out of a block: one source per run of equal counts of at least
    2, paired with each landing unit of the block in ``lands`` (see the
    module docstring)."""

    def block_deltas(pc, v):
        counts = list(pc)
        counts[v] += 1
        out = []
        for block, landing in zip(blocks, lands):
            runs = [list(run) for _, run in groupby(block, counts.__getitem__)]
            for run, lower in zip(runs, runs[1:] + [None]):
                x = counts[run[0]]
                if x < 2:
                    break
                # the source pebbles come off the end of the run, one of
                # them off the end of the next run down if it holds x-1
                j = run[-1]
                sub = unit[j] + unit[lower[-1] if lower and counts[lower[0]] == x - 1 else j]
                out += [sub - t for t in landing]
        return out

    return block_deltas


def pi_rooted(g: Graph, *, limits: SearchLimits | None = None, threads: int = 1) -> PiResult:
    """Exact rooted pebbling number with a maximal unsolvable witness.

    The witness is the lexicographically greatest configuration of the
    last level, re-verified by a new solver when the down-set is built
    (see _unsolvable_levels); the build and that check each get the
    full ``limits``. ``threads`` is accepted for compatibility and
    selects nothing: the levels are built in this process.
    """
    levels = _unsolvable_levels(g, shared_solver(g).begin(limits))
    value = len(levels)
    return PiResult(value, Configuration(g, max(levels[-1])), ScanRecord(tuple(range(value + 1))))


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


def pi_global(g: Graph, *, limits: SearchLimits | None = None) -> int:
    """max over roots of pi_rooted; vertex-transitive graphs need one root.

    Transitivity is certified by directly checking the stored per-vertex
    automorphisms, never assumed from the family name.
    """
    if _verified_transitive(g):
        return pi_rooted(g, limits=limits).value
    best = 0
    for r in range(g.vertex_count):
        h = g if r == g.root else _reroot(g, r)
        best = max(best, pi_rooted(h, limits=limits).value)
    return best


def is_class0(g: Graph, *, limits: SearchLimits | None = None) -> bool:
    """Whether the pebbling number equals the number of vertices."""
    return pi_global(g, limits=limits) == g.vertex_count


def _weight_respects_symmetry(g: Graph, weights) -> bool:
    return all(all(weights[p[v]] == weights[v] for v in range(g.vertex_count)) for p in g.symmetry)


def max_unsolvable_weight(g: Graph, w, *, limits: SearchLimits | None = None) -> tuple[Fraction, Configuration]:
    """Maximum of w(p) over the unsolvable root-free configurations p.

    A maximum of the integer-scaled w(p) over the down-set; ties go to
    the lexicographically greatest configuration. Each representative
    stands for its orbit's heaviest member under that order: itself when
    w is constant on the stored orbits; otherwise, under a closure
    group, its best image, and under block symmetry the block's counts
    sorted descending onto the block's vertices ordered by (-w(v), v),
    which is the heaviest arrangement (rearrangement inequality) and the
    greatest among the heaviest, block by block. The stored symmetries
    preserve solvability, so every orbit is unsolvable whole, and the
    maximum over the orbits is the (value, achiever) pair that the full
    down-set gives.
    """
    if w.graph is not g:
        raise GraphMismatchError("weight function belongs to a different graph")
    weights = w.weights
    levels = _unsolvable_levels(g, shared_solver(g).begin(limits))

    den = lcm(*(f.denominator for f in weights))
    wi = [int(f * den) for f in weights]

    def score(counts):
        return sum(map(mul, wi, counts)), counts

    members = chain.from_iterable(levels)
    # a representative weighs what its orbit does when w is constant on it
    kind, data = ("none", None) if _weight_respects_symmetry(g, weights) else _symmetry_mode(g)
    if kind == "group":
        members = (max((perm(c) for perm in data), key=score) for c in members)
    elif kind == "blocks":
        orders = [sorted(block, key=lambda v: (-wi[v], v)) for block in data]

        def heaviest(c):
            out = list(c)
            for block, order in zip(data, orders):
                for v, x in zip(order, sorted(map(c.__getitem__, block), reverse=True)):
                    out[v] = x
            return tuple(out)

        members = map(heaviest, members)
    best = max(members, key=score)
    return Fraction(score(best)[0], den), Configuration(g, best)
