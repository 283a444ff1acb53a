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
larger stack is solvable outright. With symmetry, found from the edges
(_symmetry_mode), each level keeps one representative per orbit: its
maximum in the builder's vertex order (below), which for twins is the
tuple sorted descending within each block. Only this module reduces
orbits; the solver memoizes configurations as they are.

While a level is built, each configuration is a packed integer key:
vertex v owns a field of d(v,r)+1 bits (solver.packed_units at target
1), most significant first in the builder's order under a group and in
the ids' otherwise. No field carries into the next (none holds
more than 2^d(v,r)), so integer order is lexicographic order in that
order. The builder yields each level as a list of counts tuples.

Each candidate is decided by one step on level s, with no search. A
candidate whose distance potential sum q(v) 2^-d(v,r) is below 1 is
admitted outright, with no lookup: a move u -> v changes the potential
by 2^-d(v,r) - 2^(1-d(u,r)) <= 0, as d(v,r) >= d(u,r) - 1, and a pebble
on r alone is worth 1. The symmetries keep distances, so the whole
orbit is unsolvable. Any other candidate q of size s+1 is unsolvable
exactly when every legal move u -> v (q(u) >= 2) leaves a child whose
orbit is in level s (under block symmetry, every move that does not
stay inside a block and enters a block only at its first vertex; see
below). A solving sequence starts with one move (under block symmetry,
one of those), and its child either holds a pebble on the root, or
holds a stack of 2^d(v,r) on v, or is a root-free configuration of
size s below the caps. The first two are solvable and in no level (the
symmetries fix the root, so they keep distances); the third is
unsolvable exactly when level s holds it, one representative per
orbit, by induction on s. So one set lookup decides each move. A child is one subtraction, q - delta(u, v)
with delta(u, v) = 2^(off(u)+1) - 2^off(v), and a representative
carries the deltas of its legal moves: its parent's, plus the new
vertex's once it holds 2.

Candidates are generated in order (orderly generation, McKay 1998): a
representative p of level s is extended only at root-free vertices v >=
last(p), its last nonzero vertex in the builder's order, and under block
symmetry only where p(prev(v)) > p(v), prev(v) being the vertex before v
in its block, so that the extension stays block-sorted. This misses
nothing. If q is the maximum of its orbit under a group of vertex
permutations and L = last(q), then q - e_L is the maximum of its own
orbit: an image beating it at a first index i < L would beat q there
too, and one beating it at i >= L would hold more pebbles than it.
Solvability is monotone, so q - e_L is unsolvable when q is, and q is
its extension at L >= last(q - e_L). It is its only one: an extension at
v < L would need v >= last(q - e_v) = L. So the builder decides an
extension only when it is the maximum of its orbit (under block
symmetry, every extension it generates is), and in every mode each
candidate decided is a representative and is decided once. That holds
in any order in which the packed maxima are the orbit maxima. The
builder's is nearest the root first, ties to the smaller id: last(p)
is p's farthest pebble, worth least, so fewer solvable candidates are
made. On twins it is the ids, as nearest-first measured worse
(lollipop(3): 55,177 candidates, not 47,836).

How a child is looked up depends on the symmetry. Without it the child
is looked up as it is. Under a group of at most GROUP_SIZE_CAP
permutations, the builder keeps beside each level of representatives
the set of all their orbit members, so a child is looked up as it is,
with no canonicalization. A representative carries its |G| images, image k
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

Each candidate decided counts as one search node against the solver's
limits, whose deadline is also read once per level. A limit hit
part-way reports the complete levels, a proven lower bound on pi.

The symmetry is a property of the graph, so each graph has one
down-set. It answers every weight-function question on the graph, and
the graph keeps only what its readers need (DownSet): the number of
levels, which is pi_rooted; the greatest member of the last level in
the ids' order, pi's witness (under a group, an image of a
representative); and the maximal representatives, those p with no
unsolvable p + e_v. Weights are nonnegative, so when p + e_v is
unsolvable it weighs at least as much as p and is lexicographically
greater: the heaviest unsolvable configuration, ties to the greatest,
is maximal. Maximality holds for a whole orbit, so the largest weight
of an unsolvable configuration is a maximum over the orbits of the
maximal representatives, whatever the weights (see
max_unsolvable_weight). The levels themselves are streamed: the builder
holds two at a time, and nothing else keeps them. Repeated certificate
checks on one graph reuse one enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter, mul
from typing import Iterator, NamedTuple

from .configurations import Configuration
from .errors import BadParameterError, InternalError, ResourceLimitError
from .graphs import Graph, distances_from, root_automorphisms, twin_classes
from .solver import SearchLimits, Solver, packed_units, shared_solver


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


def _symmetry_mode(g: Graph, solver: Solver | None = None):
    """The graph's symmetry, found from its edges, as a regime:
    ("blocks", graphs.twin_classes) when it has twins; else ("group",
    getters), one ``itemgetter`` per element of graphs.root_automorphisms
    (applying one is a C call), when that group is nontrivial and within
    the cap; else ("none", None). The group search reads the deadline of
    ``solver``, if given. Cached per graph.
    """
    cache = g._cache
    if "symmetry_mode" not in cache:
        mode = ("blocks", twin_classes(g)) if twin_classes(g) else ("none", None)
        group = () if twin_classes(g) else root_automorphisms(g, solver and solver.check_deadline) or ()
        if len(group) > 1:
            mode = ("group", tuple(itemgetter(*p) for p in group))
        cache["symmetry_mode"] = mode
    return cache["symmetry_mode"]


class DownSet(NamedTuple):
    """What a graph keeps of its down-set (see the module docstring):
    the number of levels (pi), of representatives built, the greatest
    member of the last level (pi's witness) and the maximal
    representatives."""

    levels: int
    representatives: int
    witness: tuple[int, ...]
    maximal: tuple[tuple[int, ...], ...]


def _down_set(g: Graph, solver: Solver) -> DownSet:
    """The down-set of g's unsolvable root-free configurations, one
    representative per orbit of its symmetry, each level decided from
    the one below (see the module docstring) and streamed: only its
    DownSet summary is kept.

    The greatest member of the last level, pi's witness, is re-verified
    once per build by a new solver with a fresh memo under the same
    limits, so the check leans on neither the builder nor a shared memo;
    its stats are kept for search_nodes. Once it passes, its memo joins
    that of ``solver``, the graph's shared solver (both key exact
    verdicts at target 1), to serve later queries. Cached on the graph
    only once complete and checked: a resource limit hit part-way
    (running out of memory is one) leaves neither a summary nor memo
    entries behind, and its error carries the levels completed as
    ``pi_lower``.
    """
    cache = g._cache
    if "down_set" in cache:
        return cache["down_set"]
    kind, data = _symmetry_mode(g, solver)
    levels = representatives = 0
    maximal: list[tuple[int, ...]] = []
    try:
        for level in _levels(g, solver, maximal):
            levels += 1
            representatives += len(level)
            last = level
        # a group's representatives are maxima in the builder's order only
        witness = max(perm(c) for c in last for perm in data) if kind == "group" else max(last)
        check = Solver(g, 1, solver.limits)
        if check.decide(witness):
            raise InternalError("internal error: witness re-verification failed")
    except ResourceLimitError as exc:
        # levels 0..levels-1 are complete and non-empty
        exc.pi_lower = levels
        raise
    except MemoryError:
        # raised after the handler, whose traceback holds the half-built level
        maximal = last = level = None
    else:
        check.memo.update(solver.memo)
        solver.memo = check.memo
        cache["witness_check"] = check.stats
        cache["down_set"] = down = DownSet(levels, representatives, witness, tuple(maximal))
        return down
    exc = ResourceLimitError("out of memory building the down-set")
    exc.pi_lower = levels
    raise exc


def search_nodes(g: Graph) -> int:
    """The search nodes counted on g so far: by its shared solver and
    by the witness re-check of its down-set."""
    check = g._cache.get("witness_check")
    return shared_solver(g).stats.nodes + (check.nodes if check else 0)


def down_set_sizes(g: Graph) -> tuple[int, int, int]:
    """The levels, representatives and maximal representatives of the
    down-set cached on g."""
    down = g._cache["down_set"]
    return down.levels, down.representatives, len(down.maximal)


def _levels(g: Graph, solver: Solver, maximal: list) -> Iterator[list]:
    """Yield the levels, each a list of the counts of its orbit
    representatives, generated in order and looked up as packed integer
    keys (see the module docstring); once level s+1 is built, append the
    counts of level s's maximal representatives to ``maximal``.

    Each representative carries its counts, its legal moves' deltas, its
    potential scaled by 2^max(dist) and, under a group, its images, so
    an extension costs additions and a child one subtraction.

    A representative p is maximal when no p + e_v is unsolvable. One
    with an admitted extension is not, and needs no lookup. Any other
    is looked up once level s+1 is built: each p + e_v below the caps
    that stays block-sorted (the first vertex of a run of equal counts
    stands for its twins in the run) among the next level's members,
    all their images under a group. It is maximal when every lookup
    misses.
    """
    kind, data = _symmetry_mode(g, solver)
    n = g.vertex_count
    dist = distances_from(g, g.root)
    # nearest the root first, ties to the smaller id, but for twins; the
    # fields are laid out in it only under a group (any layout is exact
    # else, and the ids' keeps near vertices' units small on a long path)
    order = range(n) if kind == "blocks" else sorted(range(n), key=lambda v: (dist[v], v))
    unit = packed_units(dist, order=order if kind == "group" else None)
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
    # descending in the builder's order, so the walk over p can stop at last(p)
    top = [(v, (1 << dist[v]) - 1, prev.get(v)) for v in reversed(order) if v != g.root]
    # maximality lookups go farthest vertex first, where an extension of
    # an unsolvable configuration most often stays unsolvable
    far = sorted(top, key=lambda t: -dist[t[0]])

    group = data if kind == "group" else ()
    # the images of p are sum over v of p(v) unit[perm_k(v)], one per k,
    # so those of p + e_v add unit[perm_k(v)] to each
    perms = [perm(tuple(range(n))) for perm in group]
    lift = [tuple(unit[perm[v]] for perm in perms) for v in range(n)]

    # the solver's potential, scaled by 2^max(dist); the root's weight is
    # the target-1 floor, below which a configuration is unsolvable
    pw = solver._pot
    floor = pw[g.root]

    stats, node_cap = solver.stats, solver._node_cap
    reps = {0: ((0,) * n, (), (0,) * len(perms), 0)}
    members = reps if not group else {0}
    while reps:
        yield list(map(itemgetter(0), reps.values()))
        solver.check_deadline()
        nxt: dict[int, tuple] = {}
        nxt_members = nxt if not group else set()
        # the representatives with no admitted extension
        pending = []
        for p, (pc, legal, images, pot) in reps.items():
            extended = False
            for v, cap, u in top:
                c = pc[v]
                if c < cap and (u is None or pc[u] > c):
                    q = p + unit[v]
                    q_images = tuple(map(add, images, lift[v])) if group else ()
                    # an orbit's maximum is generated once, so skip the rest
                    if not q_images or max(q_images) == q:
                        q_legal = legal + delta[v] if c == 1 else legal
                        q_pot = pot + pw[v]
                        stats.nodes = nodes = stats.nodes + 1
                        if nodes > node_cap or not nodes & 4095:
                            solver._check_limits()
                        # below the floor q is unsolvable outright, else
                        # one lookup per legal move in the level below;
                        # a child missing from it makes q solvable
                        if q_pot < floor:
                            moves = ()
                        elif blocks:
                            moves = chain(q_legal, block_deltas(pc, v))
                        else:
                            moves = q_legal
                        for d in moves:
                            if q - d not in members:
                                break
                        else:
                            nxt[q] = (pc[:v] + (c + 1,) + pc[v + 1 :], q_legal, q_images, q_pot)
                            extended = True
                            if group:
                                nxt_members.update(q_images)
                if c:
                    break
            if not extended:
                pending.append((p, pc))
        for p, pc in pending:
            for v, cap, u in far:
                c = pc[v]
                if c < cap and (u is None or pc[u] > c) and p + unit[v] in nxt_members:
                    break
            else:
                maximal.append(pc)
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
            # a sorted block holds each count in one run, largest first,
            # so last maps the runs' counts, in order, to their ends
            last = {counts[j]: j for j in block}
            for x, j in last.items():
                if x < 2:
                    break
                # the source pebbles come off the end of the run, one of
                # them off the end of the run of x-1 if there is one
                sub = unit[j] + unit[last.get(x - 1, j)]
                out += [sub - t for t in landing]
        return out

    return block_deltas


def pi_rooted(g: Graph, *, limits: SearchLimits | None = None, threads: int = 1) -> PiResult:
    """Exact rooted pebbling number with a maximal unsolvable witness,
    the greatest configuration of the last level (see _down_set, whose
    build and witness check each get the full ``limits``). ``threads``
    is accepted for compatibility and selects nothing."""
    down = _down_set(g, shared_solver(g).begin(limits))
    return PiResult(down.levels, Configuration(g, down.witness), ScanRecord(tuple(range(down.levels + 1))))


def max_unsolvable_weight(g: Graph, w, *, limits: SearchLimits | None = None) -> tuple[Fraction, Configuration]:
    """Maximum of w(p) over the unsolvable root-free configurations p.

    A maximum of the integer-scaled w(p) over the down-set; ties go to
    the lexicographically greatest configuration. w is nonnegative, so
    that maximum is maximal in the down-set (see the module docstring),
    and only the maximal representatives are scored, each at its
    orbit's heaviest member under that order. Under a group that is its
    best image, as a representative is the maximum in the builder's
    order, not the ids' (when w is constant on the orbits, only the
    heaviest are imaged). Under block symmetry it is the block's counts
    sorted descending onto its vertices ordered by (-w(v), v): the
    heaviest arrangement (rearrangement inequality), and the greatest
    among them. Symmetries preserve solvability and maximality, so this
    is the (value, achiever) pair the full down-set gives.
    """
    if w.graph is not g:
        raise BadParameterError("weight function belongs to a different graph")
    members = _down_set(g, shared_solver(g).begin(limits)).maximal
    wi, den = w.integers

    def score(counts):
        return sum(map(mul, wi, counts)), counts

    kind, data = _symmetry_mode(g)
    if kind == "group":
        if all(perm(wi) == wi for perm in data):
            # w is constant on the orbits: only the heaviest reach the tie-break
            top = max(map(score, members))[0]
            members = [c for c in members if score(c)[0] == top]
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
