"""Exact root-solvability decisions.

Depth-first search over pebbling moves with memoization on the
configurations as they are; the solver ignores the graph's symmetry
(its twins and root-fixing automorphisms), which only the down-set
builder uses.
Every move shrinks the configuration by one pebble, so the search graph
is acyclic and a memo of final verdicts is sound. Exactly three
shortcuts are used, all of them exact:

* a configuration below the floor can never reach the root. At t = 1
  the floor is Phi_a(p) = sum(p(v) * 2^-d'(v,a)) >= 2 for some root
  neighbour a, d'(v,a) the distance in G - r (weight 0 where a cannot
  reach v): the first pebble on r comes from an a holding 2, and no move
  before it, all in G - r, raises Phi_a. It prunes all the distance
  potential sum(p(v) * 2^-d(v,r)) < 1 does, and is exact on cycles
  (proofs in the pebbling_number docstring). At t >= 2 it is that
  potential at least t, as no move raises it;
* a vertex holding t * 2^d(v,r) pebbles alone suffices;
* a query to ``solve`` is settled, in one node, when the pebbles on
  one shortest path carry the target. Let up(x) be x's lowest-id
  neighbour one nearer the root, and need(x) the moves x -> up(x) that
  path asks for, nearest vertices first: max(0, t - p(r)) on the root's
  neighbours, else max(0, 2 * need(up(x)) - p(up(x))). The root if it
  holds t, else the first v in id order with 0 < 2 * need(v) <= p(v),
  settles the query: need(x) moves from each x on v's path, farthest
  first, bring each up(x) to the 2 * need(up(x)) it moves on, and the
  root to t. As need at most doubles per step, a stack always settles.

No dominance tables or other heuristics take part in the verdict, which
keeps the oracle auditable. Move ordering prefers moves toward the root;
it only affects how fast a verdict comes and which witness is recorded.

The memo is keyed on packed integers (packed_units): vertex v owns
d(v,r) + bitlen(t) bits, vertex 0 the most significant. A memoized
configuration has passed the stack test, so p(v) < t * 2^d(v,r) <
2^(d(v,r) + bitlen(t)) fits its field, no field carries into the next,
and the key is injective. The floor is packed in lanes of one integer:
at t = 1 with two root neighbours or more, Phi_a * 2^D in one lane per
root neighbour a, D the largest d', D + 1 + bitlen(n) bits wide (no
count past the stack test exceeds 2^d(v,r) <= 2^(d'(v,a)+1)), and a root
pebble worth 2^(D+1) in lane 0; else the potential * 2^D plus
2^K - t * 2^D in one lane, 2^K the least power of two from t * 2^D (with
one root neighbour a, Phi_a is twice the potential). So the test is one
AND with the bits of each lane from its threshold up. ``decide`` packs
the query once; below it, one counts list is moved in place and restored
after each child. A child differs from its parent only at the move's
ends u -> v, and the parent held no stack, so its checks are O(1): a
stack test on v, then its floor lanes and key, each the parent's plus a
constant of the move. The child's key is looked up in the memo before
the search descends, so a memo hit costs no descent; it counts one node
and one hit, as a descent that found the key would. The search keeps its
own stack of frames, so its depth, one frame per move, is not bounded by
the interpreter's.

A query the path rule settles takes the rule's moves as its witness.
Any other is read off the memo: a solvable configuration's entry is its
first move, in move order, whose child holds a stack or is solvable.
After ``decide``, follow those moves until one lands a stack (on the
root, t pebbles); the path rule then finishes from that child, and the
read counts no node. Every witness is then replayed through
``apply_moves``; a replay that does not reach the target raises
InternalError.
"""

from __future__ import annotations

import numbers
import os
import time
from dataclasses import dataclass, field
from operator import mul

from .configurations import Configuration, apply_moves
from .errors import BadParameterError, InternalError, MoveError, ResourceLimitError
from .graphs import Graph, _check_int, distances_from

Move = tuple[int, int]


def _env_number(name: str, parse, default):
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise BadParameterError(f"{name}={raw!r} is not a number") from None


@dataclass
class SearchLimits:
    """A node cap (PEBBLE_MAX_NODES when set, else 10^8) and a wall-clock
    cap in seconds (PEBBLE_MAX_SECONDS when set, else none)."""

    max_nodes: int = field(default_factory=lambda: _env_number("PEBBLE_MAX_NODES", int, 10**8))
    max_seconds: float | None = field(default_factory=lambda: _env_number("PEBBLE_MAX_SECONDS", float, None))

    def __post_init__(self):
        _check_int("max_nodes", self.max_nodes)
        seconds = self.max_seconds
        if seconds is not None and (isinstance(seconds, bool) or not isinstance(seconds, numbers.Real)):
            raise BadParameterError(f"max_seconds must be a number, not {seconds!r}")
        # NaN fails every comparison, so a NaN cap would never be hit
        for name, value in (("max_nodes", self.max_nodes), ("max_seconds", seconds)):
            if value is not None and not value >= 0:
                raise BadParameterError(f"{name} must be a nonnegative number, not {value!r}")

    def deadline(self) -> float | None:
        return None if self.max_seconds is None else time.monotonic() + self.max_seconds


@dataclass
class SolveStats:
    nodes: int = 0
    memo_hits: int = 0
    above_floor: int = 0  # candidates above the floor in the down-set builder
    lookups: int = 0  # of those, the ones it decided by member lookups
    in_runs: int = 0  # members the down-set builder admitted in runs


@dataclass(frozen=True)
class SolveOutcome:
    solvable: bool
    witness: tuple[Move, ...] | None
    stats: SolveStats


def packed_units(dist: tuple[int, ...], target: int = 1, order=None) -> tuple[int, ...]:
    """The unit of each vertex's field when a configuration is packed
    into one integer: vertex v owns d(v,r) + target.bit_length() bits,
    the first of ``order`` (by default the ids) the most significant.
    The solver's memo and, at target 1, the down-set builder pack so."""
    width, off, units = target.bit_length(), 0, [0] * len(dist)
    for v in reversed(order or range(len(dist))):
        units[v] = 1 << off
        off += dist[v] + width
    return tuple(units)


class Solver:
    """Reusable decision engine for one graph and one target count.

    The memo is keyed on packed counts and each move is one precomputed
    step (u, v, floor lanes' change, key change). Neither reads the graph's
    symmetry, so a solver on a graph with it searches exactly as one on
    the same graph without: same verdicts, witnesses, node counts and
    memo. The memo table and ``stats`` persist across calls on the same
    solver; limits do not: ``begin(limits)`` gives the operation that
    follows its own node and time budget (a new solver has the default
    one). The memo maps a key to False or to a record, a legal move
    (u, v) of the configuration the key packs whose child holds a stack
    or has a record too. A query the path rule settles, as is every
    query holding a stack or t on the root, counts one node and leaves
    the memo as it was; any other counts the nodes of its ``decide``.
    ``floor_lanes`` holds a (shift, mask, limit) per floor lane: p is
    below the floor exactly when each lane of x = sum(p(v) * _lanes[v]),
    x >> shift & mask, is at most limit (one lane has mask -1).
    """

    def __init__(self, graph: Graph, target: int = 1):
        _check_int("target", target)
        if target < 1:
            raise BadParameterError("target pebble count must be at least 1")
        self.graph = graph
        self.target = target
        root, n = graph.root, graph.vertex_count
        dist = distances_from(graph, root)
        if target == 1 and len(graph.neighbors[root]) > 1:
            # Phi_a * 2^depth in lane k for the k-th root neighbour a; in G - r,
            # where r is isolated, distances_from gives -1 where a cannot reach
            rest = Graph(n, tuple(e for e in graph.edges if root not in e), root)
            far = [distances_from(rest, a) for a in graph.neighbors[root]]
            depth = max(map(max, far))
            width = depth + 1 + n.bit_length()
            lanes = [sum(1 << depth - f[v] + k * width for k, f in enumerate(far) if f[v] >= 0) for v in range(n)]
            lanes[root] = 2 << depth
            self._lanes, self._base, self._high = lanes, 0, sum((1 << width) - (2 << depth) << k * width for k in range(len(far)))
            self.floor_lanes = tuple((k * width, (1 << width) - 1, (2 << depth) - 1) for k in range(len(far)))
        else:
            # the distance potential * 2^depth, its threshold t * 2^depth
            # offset to a power of two; with one root neighbour a, Phi_a is
            # twice it (d'(v,a) = d(v,r) - 1), so at t = 1 it is the floor
            depth = max(dist)
            lanes, top = [1 << depth - d for d in dist], ((target << depth) - 1).bit_length()
            self._lanes, self._base, self._high = lanes, (1 << top) - (target << depth), -1 << top
            self.floor_lanes = ((0, -1, (target << depth) - 1),)
        self.stack_threshold = tuple(target << d for d in dist)
        # each vertex's lowest-id neighbour one nearer the root (neighbours are sorted)
        self._up = tuple(next((u for u in graph.neighbors[v] if dist[u] < dist[v]), v) for v in range(graph.vertex_count))
        self._outward = tuple(sorted((v for v in range(graph.vertex_count) if v != graph.root), key=dist.__getitem__))
        moves = [(u, v) for u in range(graph.vertex_count) for v in graph.neighbors[u]]
        moves.sort(key=lambda m: (0 if dist[m[1]] < dist[m[0]] else 1, dist[m[0]], m))
        self._moves = tuple(moves)
        unit = packed_units(dist, target)
        self._unit, self._steps = unit, tuple((u, v, lanes[v] - 2 * lanes[u], unit[v] - 2 * unit[u]) for u, v in moves)
        self._record = [{v: (u, v) for v in graph.neighbors[u]} for u in range(n)]  # the memo's records, one per move
        self.memo: dict[int, Move | bool] = {}  # False or a record
        self.stats = SolveStats()
        self.begin(None)

    def begin(self, limits: SearchLimits | None) -> Solver:
        """Start an operation: it may count ``limits.max_nodes`` more
        nodes and run ``limits.max_seconds`` from now. Returns self."""
        self.limits = limits or SearchLimits()
        self._node_cap = self.stats.nodes + self.limits.max_nodes
        self._deadline = self.limits.deadline()
        return self

    def check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise ResourceLimitError(f"search exceeded {self.limits.max_seconds} seconds")

    def count_node(self) -> None:
        """Count one search node against the node cap and, every 4096
        nodes, the deadline."""
        stats = self.stats
        stats.nodes += 1
        if stats.nodes > self._node_cap or not stats.nodes & 4095:
            self._check_limits()

    def _check_limits(self) -> None:
        if self.stats.nodes > self._node_cap:
            raise ResourceLimitError(f"search exceeded {self.limits.max_nodes} nodes")
        self.check_deadline()

    # -- decision without witness -------------------------------------

    def decide(self, counts: tuple[int, ...]) -> bool:
        self.count_node()
        thr = self.stack_threshold
        lanes = self._base
        lw = self._lanes
        for v, c in enumerate(counts):
            if c:
                if c >= thr[v]:
                    return True
                lanes += c * lw[v]
        if not lanes & self._high:
            return False
        key = sum(map(mul, counts, self._unit))
        cached = self.memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return bool(cached)
        return self._search(list(counts), key, lanes)

    def _search(self, cnt: list[int], key: int, lanes: int) -> bool:
        """Whether ``cnt``, counted as a node, holding no stack, with
        ``lanes`` above the floor, packed as ``key`` and not in the memo,
        is solvable; it is memoized as False or its record. Each child is
        one step on ``cnt``, undone when its frame is left; a child in the
        memo is a hit, with no descent. A frame is (key, lanes, step
        iterator, move), and ``cnt`` is as it was on return."""
        stats, cap, thr, high, memo, steps, record = self.stats, self._node_cap, self.stack_threshold, self._high, self.memo, self._steps, self._record
        nodes, hits = stats.nodes, stats.memo_hits
        frames: list[tuple] = []
        it = iter(steps)
        try:
            while True:
                for u, v, dlanes, dkey in it:
                    if cnt[u] >= 2:
                        # count_node, inlined
                        nodes += 1
                        if nodes > cap or not nodes & 4095:
                            stats.nodes, stats.memo_hits = nodes, hits
                            self._check_limits()
                        c = cnt[v] + 1
                        if c >= thr[v]:
                            result = record[u][v]
                            break
                        if not lanes + dlanes & high:
                            continue
                        child = key + dkey
                        found = memo.get(child)
                        if found is None:
                            frames.append((key, lanes, it, u, v))
                            cnt[u] -= 2
                            cnt[v] = c
                            key, lanes, it = child, lanes + dlanes, iter(steps)
                            result = None
                            break
                        hits += 1
                        if found:
                            result = record[u][v]
                            break
                else:
                    result = False
                if result is None:  # descend into the child
                    continue
                memo[key] = result
                # leave the frame; a solvable child makes every frame below it solvable, by the move to it
                while frames:
                    key, lanes, it, u, v = frames.pop()
                    cnt[u] += 2
                    cnt[v] -= 1
                    if not result:
                        break
                    memo[key] = result = record[u][v]
                else:
                    return bool(result)
        finally:
            stats.nodes, stats.memo_hits = nodes, hits

    # -- witness construction ------------------------------------------

    def _moves_up(self, v: int, runs) -> list[Move]:
        """runs[x] moves x -> up(x) from each x on v's shortest path, the
        one that steps to the lowest-id neighbour nearer the root, farthest
        first."""
        up, moves = self._up, []
        while v != self.graph.root:
            moves += [(v, up[v])] * runs[v]
            v = up[v]
        return moves

    def _path_need(self, counts) -> tuple[int, list[int]] | None:
        """The path rule (module docstring): the vertex that settles
        ``counts``, the root if it holds t, and every need; or None."""
        root, up = self.graph.root, self._up
        need = [0] * len(counts)
        short = self.target - counts[root]
        if short <= 0:
            return root, need
        for x in self._outward:
            u = up[x]
            need[x] = short if u == root else max(0, 2 * need[u] - counts[u])
        v = next((x for x, c in enumerate(counts) if 0 < 2 * need[x] <= c), None)
        return None if v is None else (v, need)

    def _witness(self, counts: tuple[int, ...]) -> list[Move]:
        """The witness of ``counts``, just decided solvable, read off the memo
        (see the module docstring)."""
        memo, thr, unit = self.memo, self.stack_threshold, self._unit
        cnt, moves = list(counts), []
        key = sum(map(mul, counts, unit))
        while True:
            move = memo.get(key)
            if not move:
                raise InternalError("internal error: a solvable configuration has no record in the memo")
            u, v = move
            moves.append(move)
            cnt[u] -= 2
            cnt[v] += 1
            if cnt[v] >= thr[v]:  # v holds a stack: the path rule finishes from the child
                return moves + self._moves_up(*self._path_need(cnt))
            key += unit[v] - 2 * unit[u]

    def _replay(self, p: Configuration, moves: list[Move]) -> None:
        """Check a witness through ``apply_moves``, independently of the search."""
        try:
            p = apply_moves(self.graph, p, moves)
        except MoveError as exc:
            raise InternalError(f"internal error: witness replay failed at move {exc.index}: {exc}") from None
        if p.counts[self.graph.root] < self.target:
            raise InternalError("internal error: witness replay falls short of the target")

    def solve(self, p: Configuration, want_witness: bool = False) -> SolveOutcome:
        if p.graph is not self.graph:
            raise BadParameterError("configuration belongs to a different graph")
        nodes0, hits0 = self.stats.nodes, self.stats.memo_hits
        path = self._path_need(p.counts)
        if path is not None:
            self.count_node()
            solvable, moves = True, self._moves_up(*path) if want_witness else None
        else:
            solvable = self.decide(p.counts)
            moves = self._witness(p.counts) if solvable and want_witness else None
        if moves is not None:
            self._replay(p, moves)
        stats = SolveStats(self.stats.nodes - nodes0, self.stats.memo_hits - hits0)
        return SolveOutcome(solvable, None if moves is None else tuple(moves), stats)


def shared_solver(g: Graph, target: int = 1) -> Solver:
    """The graph's one cached solver for ``target``: every query reuses
    its memo, whatever its limits, after ``begin(limits)``."""
    _check_int("target", target)  # 1.0 and True would find the solver for 1
    cache = g._cache
    if ("solver", target) not in cache:
        cache["solver", target] = Solver(g, target)
    return cache["solver", target]


def is_solvable(
    g: Graph,
    p: Configuration,
    t: int = 1,
    want_witness: bool = False,
    limits: SearchLimits | None = None,
) -> SolveOutcome:
    """Decide whether some move sequence puts at least t pebbles on the root."""
    return shared_solver(g, t).begin(limits).solve(p, want_witness=want_witness)
