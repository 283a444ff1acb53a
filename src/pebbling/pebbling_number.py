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

The builder stores each configuration as a packed integer key and
nothing else: vertex v owns a field of d(v,r)+1 bits
(solver.packed_units at target 1), most significant first in the
builder's order under a group and in the ids' otherwise. No field
carries into the next (none holds more than 2^d(v,r)), so integer order
is lexicographic order in that order, and a count is read off its field
with a shift and a mask. The builder yields each level as its keys and
its runs' (below); only what leaves it is decoded into counts tuples:
the last level, for the witness, and the maximal representatives, when
first read.

Each candidate is decided by one step on level s, with no search. A
candidate below the solver's floor is admitted outright, with no
lookup: Phi_a(q) = sum q(v) 2^-d'(v,a) < 2 for every root neighbour a,
d'(v,a) being the distance in G - r (weight 0 where a cannot reach v).
The first pebble on r comes by a move a -> r while a holds 2, so
Phi_a >= 2, and each move before it, u -> v in G - r, changes Phi_a by
2^-d'(v,a) - 2^(1-d'(u,a)) <= 0, as d'(v,a) >= d'(u,a) - 1. The
symmetries fix r, so the whole orbit is unsolvable. As d(v,r) <=
d'(v,a) + 1, Phi_a <= 2 sum q(v) 2^-d(v,r): the floor prunes all the
distance potential < 1 does, and is that test when r has one
neighbour. On a cycle it is exact (G - r is a path ending at both root
neighbours). Any other candidate q of size s+1 is unsolvable exactly
when every legal move u -> v (q(u) >= 2) leaves a child whose orbit is
in level s (under block symmetry, every move that does not
stay inside a block and enters a block only at its first vertex; see
below). A solving sequence starts with one move (under block symmetry,
one of those), and its child either holds a pebble on the root, or
holds a stack of 2^d(v,r) on v, or is a root-free configuration of
size s below the caps. The first two are solvable and in no level (the
symmetries fix the root, so they keep distances); the third is
unsolvable exactly when level s holds it, one representative per
orbit, by induction on s. So one rule decides each move (below). A
child is one subtraction, q - delta(u, v) with delta(u, v) =
2^(off(u)+1) - 2^off(v), and its floor lanes are q's less the move's
change, which each move carries beside its delta. A level maps each key
to its legal moves from outside the blocks, as these pairs: its
parent's, plus the new vertex's once it holds 2. The moves out of a
block depend on the block's counts alone, so they are cached on the
bits of the key that span the block's fields.

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
builder's is nearest the root first, ties to the smaller id, in every
regime: last(p) is p's farthest pebble, worth least, so fewer solvable
candidates are made. Twins share their distance, so each block keeps
its id order and the block-sorted tuples are the orbit maxima in it.

One rule decides a child in every regime: it is unsolvable exactly
when it is below the floor or among level s's members. A child below
the floor is unsolvable, root-free and below the caps (a root pebble or
a stack is above the floor), so its orbit is in level s, and the floor
holds on whole orbits (the symmetries fix r, so they permute its
neighbours a and keep d'). So a level's members need only cover its
orbits above the floor, and a child is looked up as it is, with no
canonicalization. With no symmetry or under blocks they are the level
dict's keys (a run's members, below, are in none of them). Under a
group of at most GROUP_SIZE_CAP permutations the builder keeps beside
each level of representatives the set of their orbit members above the
floor. A representative
carries its images under the group but the identity, packed as one
integer: the key of image k, holding p(v) pebbles on perm_k(v), sits in
lane k, one guard bit wider than a key. Those of p + e_v are one
addition away, of the units of every perm_k(v) in their lanes. They are
computed before a candidate q is decided, to tell whether it is its
orbit's maximum: q copied into every lane with the guard bits set, less
the images, keeps every guard bit exactly when q is at least each
image, and no borrow crosses a lane (_ImageLanes). When q is
unsolvable and above the floor, it and its images become members of
the next level, unpacked from their lanes once.
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

Runs. Let v0 be the last vertex of the builder's order, the farthest,
ties to the larger id (u_0 on a lollipop, no twin). A candidate q at v0
has one extension, q + e_v0, so q, q + e_v0, ..., q + k e_v0 is a path
of the generation tree. When q is admitted below the floor and q + e_v0
would be too, the builder admits this run in one step. No key field or
floor lane carries while each count stays under its cap, and no image
lane borrows, so each admission test of q + j e_v0 is linear in j and k
is the least of their bounds, with no search: v0's cap and the count of
the twin before v0; (limit - lane) // w for each floor lane where v0
weighs w > 0 (Solver.floor_lanes); and (q - image k) // (unit of
perm_k(v0) - u0) for each image k with perm_k(v0) != v0, as v0, last in
the group layout, has the least unit u0. A run is one record until its
last level, its members in no level dict or member set; its last member
is decided on with its level's keys, each other has the next as its
extension. Run members are below the floor, so the one rule decides a
child that is one.

Where a level holds no member above the floor (on a cycle, and on a
path or spider rooted at an end or its centre, none does), the floor
decides alone. Suppose level s holds none. A candidate q of size s+1
above the floor is then solvable exactly when some vertex holds two
pebbles: one AND of its key with the bits of each field above its
lowest, and no lookup. Take a root neighbour a with
Phi_a(q) >= 2 and a vertex u with q(u) >= 2. If u is adjacent to r, the
move u -> r lands a root pebble. If u is in a's component of G - r, the
move one vertex nearer a keeps Phi_a; otherwise every move from u does.
So the child holds a root pebble, or a stack, or is a root-free
configuration of size s above the floor, which level s does not hold:
it is solvable. A q with no two pebbles on a vertex has no move, so it
is unsolvable. Likewise, when level s+1 holds no member above the
floor, p + e_v is unsolvable exactly when it is below the floor, and
the maximality pass makes no lookup. With one floor lane (r has one
neighbour) weight falls with distance and the pass walks the farthest
vertex first, so the first p + e_v it tests is the lightest and decides
alone. Each level counts the members it admits above the floor.

Each candidate decided counts as one search node against the solver's
limits (a run's members at once: a cap may trip a run early), whose
deadline is also read once per level. A limit hit part-way reports the
complete levels, a proven lower bound on pi.

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
from functools import cached_property
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul
from typing import Iterator

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


class DownSet:
    """What a graph keeps of its down-set (see the module docstring): the
    number of levels (pi), of representatives built and of those below the
    floor, the greatest member of the last level (pi's witness) and the
    maximal representatives, packed ``keys`` decoded on the first read."""

    def __init__(self, levels: int, representatives: int, below_floor: int, witness: tuple[int, ...], keys: tuple[int, ...], unpack):
        self.levels, self.representatives, self.below_floor, self.witness = levels, representatives, below_floor, witness
        self.keys, self.unpack = keys, unpack

    @cached_property
    def maximal(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self.unpack, self.keys))


def _down_set(g: Graph, solver: Solver) -> DownSet:
    """The down-set of g's unsolvable root-free configurations, one
    representative per orbit of its symmetry, each level decided from
    the one below (see the module docstring) and streamed: only its
    DownSet summary is kept.

    The greatest member of the last level, pi's witness, is re-verified
    once per build: the floor verdict the build leans on, derived again
    from its definition, must match the solver's lanes, and it is
    decided on ``solver``, the graph's shared solver, from an empty memo
    under a fresh budget of the same limits; the builder writes no memo
    entries, so the check leans on neither it nor earlier queries, and
    its nodes count in ``solver.stats``. The check's memo is then
    dropped: ``solver.memo`` is left as it was, whatever the outcome.
    Cached on the graph only once complete and checked: a resource limit
    hit part-way (running out of memory or an interrupt is one) or a
    failed check leaves no summary, and a limit's error carries the
    levels done as ``pi_lower``.
    """
    cache = g._cache
    if "down_set" in cache:
        return cache["down_set"]
    kind, data = _symmetry_mode(g, solver)
    levels = representatives = 0
    nodes, above = solver.stats.nodes, solver.stats.above_floor
    maximal: list[int] = []
    kept = solver.memo
    try:
        for level in _levels(g, solver, maximal):
            levels += 1
            representatives += len(level)
            last = level
        # a candidate is admitted below the floor or looked up; the empty one is below it
        below = 1 + solver.stats.nodes - nodes - solver.stats.above_floor + above
        # a group's representatives are maxima in the builder's order
        # only; else the key's fields are in the ids' order
        unpack = _layout(g, kind)[2]
        witness = max(perm(c) for c in map(unpack, last) for perm in data) if kind == "group" else unpack(max(last))
        above = False  # the floor from its definition: Phi_a >= 2 for a root neighbour a
        for a in g.neighbors[g.root]:
            seen, ring, phi, d = {g.root, a}, {a}, Fraction(0), 0
            while ring:  # the vertices at distance d from a in G - r
                phi, d = phi + Fraction(sum(map(witness.__getitem__, ring)), 1 << d), d + 1
                ring = {y for x in ring for y in g.neighbors[x]} - seen
                seen |= ring
            above = above or phi >= 2
        if above != bool(solver._base + sum(map(mul, witness, solver._lanes)) & solver._high):
            raise InternalError("internal error: the solver's floor disagrees with its definition on the witness")
        solver.memo = {}
        if solver.begin(solver.limits).decide(witness):
            raise InternalError("internal error: witness re-verification failed")
    except ResourceLimitError as exc:
        # levels 0..levels-1 are complete and non-empty
        exc.pi_lower = levels
        raise
    except (MemoryError, KeyboardInterrupt) as caught:
        # raised after the handler, whose traceback holds the half-built level
        maximal = last = level = None
        reason = "interrupted" if isinstance(caught, KeyboardInterrupt) else "out of memory building the down-set"
    else:
        cache["down_set"] = down = DownSet(levels, representatives, below, witness, tuple(maximal), unpack)
        return down
    finally:
        solver.memo = kept
    exc = ResourceLimitError(reason)
    exc.pi_lower = levels
    raise exc


def down_set_sizes(g: Graph) -> tuple[int, int, int, int]:
    """The levels, representatives, maximal representatives and
    representatives below the floor of the down-set cached on g."""
    down = g._cache["down_set"]
    return down.levels, down.representatives, len(down.keys), down.below_floor


def _layout(g: Graph, kind: str):
    """The builder's vertex order, the unit of each vertex's field in a
    packed key under ``kind`` (see the module docstring) and the
    function that decodes a key into its counts tuple."""
    n, dist = g.vertex_count, distances_from(g, g.root)
    # nearest the root first, ties to the smaller id (twins keep id order);
    # the fields are laid out in it only under a group (any layout is exact
    # else, and the ids' keeps near vertices' units small on a long path)
    order = sorted(range(n), key=lambda v: (dist[v], v))
    unit = packed_units(dist, order=order if kind == "group" else None)
    fields = [(u.bit_length() - 1, (2 << d) - 1) for u, d in zip(unit, dist)]
    return order, unit, lambda key: tuple(key >> s & m for s, m in fields)


def _levels(g: Graph, solver: Solver, maximal: list) -> Iterator:
    """Yield the levels, each the packed keys of its orbit
    representatives, generated in order and looked up as keys (see the
    module docstring): a _Level, a level dict's keys and its runs'
    members; once level s+1 is built, append the keys of level s's
    maximal representatives to ``maximal``.

    A level dict maps each key to its legal moves, each as its change of
    the key and of the solver's floor lanes, the key's floor lanes and,
    under a group, its images packed in the lanes of one integer
    (_ImageLanes), so an extension costs additions and its
    orbit-maximum test and a child one subtraction each. A count is read
    off its field of the key with a shift and a mask. The candidates
    above the floor count in ``solver.stats.above_floor``, those of them
    decided by lookups in ``solver.stats.lookups`` and the members
    admitted in runs in ``solver.stats.in_runs``.

    A representative p is maximal when no p + e_v is unsolvable. One
    with an admitted extension is not, and needs no lookup. Any other
    is tested once level s+1 is built: each p + e_v below the caps
    that stays block-sorted (the first vertex of a run of equal counts
    stands for its twins in the run) is unsolvable when it is below the
    floor or among the next level's members. It is maximal when no p + e_v
    is. Where a level holds no member above the floor (each level counts
    those it admits), the floor decides with no lookup: a candidate above
    it by whether a vertex holds two pebbles, and p + e_v by the floor
    alone, its first test deciding p when the floor has one lane (see the
    module docstring).
    """
    kind, data = _symmetry_mode(g, solver)
    n = g.vertex_count
    dist = distances_from(g, g.root)
    order, unit, _ = _layout(g, kind)
    targets: list[list[int]] = [[] for _ in range(n)]
    for a, t in solver._moves:
        targets[a].append(t)
    blocks = data if kind == "blocks" else ()
    # a move into a block lands on its first vertex; none stays inside one
    head = {v: block[0] for block in blocks for v in block}
    lands = [tuple(dict.fromkeys(head.get(t, t) for t in targets[a] if head.get(t, t) != head.get(a, a))) for a in range(n)]
    # the solver's floor: a configuration whose lanes (the sum of its counts
    # times weight) set no bit of high is unsolvable
    weight, high = solver._lanes, solver._high
    # each move from outside the blocks as its change of the key and of the
    # lanes; _block_deltas derives the others
    delta = [() if a in head else tuple((2 * unit[a] - unit[t], 2 * weight[a] - weight[t]) for t in lands[a]) for a in range(n)]
    shift = [u.bit_length() - 1 for u in unit]
    block_deltas = _block_deltas(blocks, [lands[block[0]] for block in blocks], unit, shift, dist, weight) if blocks else None
    prev = {v: shift[u] for block in blocks for u, v in zip(block, block[1:])}
    # descending in the builder's order, so the walk over p can stop at
    # last(p): each vertex with its field's shift and mask, its cap and
    # the shift of the twin before it (twins share the mask); farthest
    # first, it is also where the maximality pass finds an unsolvable
    # extension soonest
    top = [(v, shift[v], (2 << dist[v]) - 1, (1 << dist[v]) - 1, prev.get(v)) for v in reversed(order) if v != g.root]
    # the bits of each field above its lowest: a key sets one exactly when
    # some vertex holds two pebbles
    twos = sum(unit[v] * ((2 << dist[v]) - 2) for v in range(n) if v != g.root)
    # runs go along the last vertex v0 (module docstring); one vertex has none
    v0 = top[0][0] if top else g.root
    u0, w0 = unit[v0], weight[v0]
    # the floor lanes where v0 weighs w > 0, as (shift, mask, limit, w)
    floor0 = [(sh, mask, limit, w0 >> sh & mask) for sh, mask, limit in solver.floor_lanes if w0 >> sh & mask]

    group = data if kind == "group" else ()
    lift0, image0 = 0, ()
    if group:
        lanes = _ImageLanes(group, unit, dist)
        lift, spread, guards, unpack_lanes, lane_mask = lanes.lift, lanes.spread, lanes.guards, lanes.unpack, lanes.mask
        lift0 = lift[v0]
        # the image lanes k where perm_k(v0) != v0, as (shift, unit[perm_k(v0)] - u0);
        # v0 is last in the layout, so u0 = 1 is the least unit
        image0 = [(s, (lift0 >> s & lane_mask) - u0) for s in lanes.shifts if lift0 >> s & lane_mask != u0]

    stats, node_cap = solver.stats, solver._node_cap
    nodes, above, lookups, in_runs = stats.nodes, stats.above_floor, stats.lookups, stats.in_runs
    reps = {0: ((), 0, 0)}
    members = reps if not group else set()
    # how many of the level's members were admitted above the floor
    up = 0
    # each run as (first member, its size, legal moves, images, lanes, its
    # count on v0, the last member's), by the size of its last member
    runs: dict[int, list[tuple]] = {}
    size = alive = 0
    while reps or alive:
        ending = runs.pop(size, [])
        yield _Level(reps.keys(), [ending, *runs.values()], size, u0, len(reps) + alive)
        solver.check_deadline()
        nxt: dict[int, tuple] = {}
        nxt_members = nxt if not group else set()
        nxt_up = 0
        # the representatives with no admitted extension, with their lanes
        pending = []
        # a run's last member is decided on with the level's keys
        ends = ((first + (k - c) * u0, (legal + delta[v0] if c == 1 else legal, images + (k - c) * lift0, phi + (k - c) * w0))
                for first, _, legal, images, phi, c, k in ending)
        for p, (legal, images, phi) in chain(reps.items(), ends):
            extended = False
            for v, sh, mask, cap, prev_sh in top:
                c = p >> sh & mask
                if c < cap and (prev_sh is None or p >> prev_sh & mask > c):
                    q = p + unit[v]
                    q_images = images + lift[v] if group else 0
                    # an orbit's maximum is generated once, so skip the
                    # rest (_ImageLanes.is_max, inline: q is one when
                    # every lane keeps its guard bit)
                    if not group or (q * spread | guards) - q_images & guards == guards:
                        q_legal = legal + delta[v] if c == 1 else legal
                        q_phi = phi + weight[v]
                        nodes += 1
                        if nodes > node_cap or not nodes & 4095:
                            stats.nodes = nodes
                            solver._check_limits()
                        if q_phi & high:
                            above += 1
                            # one lookup per legal move in the level below: a child
                            # missing from its members makes q solvable when above the
                            # floor. With no member above it, every child is, so q is
                            # solvable exactly when it has a move, and none is looked up
                            if up or not q & twos:
                                lookups += 1
                                for d, change in chain(q_legal, *block_deltas(q)) if blocks else q_legal:
                                    if q_phi - change & high and q - d not in members:
                                        break
                                else:
                                    nxt[q] = (q_legal, q_images, q_phi)
                                    nxt_up += 1
                                    extended = True
                                    if group:
                                        nxt_members.add(q)
                                        nxt_members.update(unpack_lanes(q_images))
                        else:
                            # below the floor q is unsolvable outright; at v0 so is each q + j e_v0
                            # up to the least bound of the caps, floor and orbit test, all linear in j
                            extended = True
                            lo = (cap if prev_sh is None else min(cap, p >> prev_sh & mask)) - c - 1 if v == v0 else 0
                            if lo > 0:
                                for sl, ml, limit, w in floor0:
                                    j = (limit - (q_phi >> sl & ml)) // w
                                    if j < lo:
                                        lo = j
                                for sk, step in image0:
                                    j = (q - (q_images >> sk & lane_mask)) // step
                                    if j < lo:
                                        lo = j
                            if lo > 0:
                                nodes += lo
                                if nodes > node_cap or nodes >> 12 != nodes - lo >> 12:
                                    stats.nodes = nodes
                                    solver._check_limits()
                                runs.setdefault(size + 1 + lo, []).append((q, size + 1, q_legal, q_images, q_phi, c + 1, c + 1 + lo))
                                alive += 1
                                in_runs += lo + 1
                            else:
                                nxt[q] = (q_legal, q_images, q_phi)
                if c:
                    break
            if not extended:
                pending.append((p, phi))
        stats.nodes, stats.above_floor, stats.lookups, stats.in_runs = nodes, above, lookups, in_runs
        # with no member above the floor in level s+1, p + e_v is unsolvable
        # exactly when it is below the floor; with one floor lane weight falls
        # with distance, so the first p + e_v tested, the lightest, decides
        first = len(solver.floor_lanes) == 1 and not nxt_up
        for p, phi in pending:
            for v, sh, mask, cap, prev_sh in top:
                c = p >> sh & mask
                if c < cap and (prev_sh is None or p >> prev_sh & mask > c):
                    if not phi + weight[v] & high or nxt_up and p + unit[v] in nxt_members:
                        break
                    if first:
                        maximal.append(p)
                        break
            else:
                maximal.append(p)
        reps, members, up, size, alive = nxt, nxt_members, nxt_up, size + 1, alive - len(ending)


class _Level:
    """A level as _levels yields it: its explicit keys, then the member of
    each run alive in it (in the buckets of ``runs``); ``count`` is its length."""

    def __init__(self, keys, runs, size, step, count):
        self.keys, self.runs, self.size, self.step, self.count = keys, runs, size, step, count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[int]:
        at = self.size
        return chain(self.keys, (first + (at - start) * self.step for bucket in self.runs for first, start, *_ in bucket if start <= at))


class _ImageLanes:
    """A packed key's images under a group but its identity, its first
    element, as one integer: image k in lane k, of ``width`` + 1 bits,
    the key's ``width`` bits and a guard bit above them (see the module
    docstring). ``group`` holds one getter per permutation, as
    _symmetry_mode gives it."""

    def __init__(self, group, unit, dist):
        n = len(unit)
        perms = [perm(tuple(range(n))) for perm in group]
        if perms[0] != tuple(range(n)):
            raise InternalError("internal error: a symmetry group does not start with the identity")
        self.width = width = max(u.bit_length() + d for u, d in zip(unit, dist))
        self.mask = (1 << width) - 1
        self.shifts = range(0, (len(perms) - 1) * (width + 1), width + 1)
        # q copied into every lane is q * spread
        self.spread = sum(1 << s for s in self.shifts)
        self.guards = self.spread << width
        # image k holds p(v) pebbles on perm_k(v), so p + e_v adds lift[v]
        self.lift = [sum(unit[perm[v]] << s for perm, s in zip(perms[1:], self.shifts)) for v in range(n)]

    def unpack(self, images: int) -> list[int]:
        mask = self.mask
        return [images >> s & mask for s in self.shifts]

    def is_max(self, q: int, images: int) -> bool:
        """Whether key q is at least each image. Lane k of
        (q * spread | guards) - images holds 2^width + q - image k, in
        [1, 2^(width+1)) as both are below 2^width, so no borrow crosses
        a lane and its guard bit survives exactly when q >= image k.
        _levels runs this test inline."""
        return (q * self.spread | self.guards) - images & self.guards == self.guards


def _block_deltas(blocks, lands, unit, shift, dist, weight):
    """Return block_deltas(q), which gives, for a block-sorted packed
    key q, one list per block of q's moves out of it, each as its change
    q - child of the key and its change of the floor lanes (``weight``):
    one source per run of equal counts of at least 2, paired with each
    landing vertex of the block in ``lands`` (see the module docstring).
    A list is cached on the bits of q that span its block's fields, which
    hold its counts; the pairs from one source (j, i), built once, are
    shared by every list that holds them."""
    spans, moves = [], {}
    for block, landing in zip(blocks, lands):
        # twins share a distance, so their fields share a width
        low, width = min(map(shift.__getitem__, block)), dist[block[0]] + 1
        span = (1 << (max(map(shift.__getitem__, block)) + width - low)) - 1
        spans.append((low, span, (1 << width) - 1, block, landing, {}))

    def block_deltas(q):
        out = []
        for low, span, mask, block, landing, cache in spans:
            bits = q >> low & span
            deltas = cache.get(bits)
            if deltas is None:
                # a sorted block holds each count in one run, largest
                # first, so last maps the runs' counts, in order, to their ends
                last = {q >> shift[j] & mask: j for j in block}
                deltas = cache[bits] = []
                for x, j in last.items():
                    if x < 2:
                        break
                    # the source pebbles come off the end of the run, one
                    # of them off the end of the run of x-1 if there is one
                    i = last.get(x - 1, j)
                    if (j, i) not in moves:
                        moves[j, i] = tuple((unit[j] + unit[i] - unit[t], weight[j] + weight[i] - weight[t]) for t in landing)
                    deltas += moves[j, i]
            out.append(deltas)
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
