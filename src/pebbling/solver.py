"""Exact root-solvability decisions.

Depth-first search over pebbling moves with memoization on the
configurations as they are; the solver ignores the graph's symmetry
(its twins and root-fixing automorphisms), which only the down-set
builder uses.
Every move shrinks the configuration by one pebble, so the search graph
is acyclic and a plain two-valued memo is sound. Exactly two shortcuts are used, both of which are exact:

* a configuration whose distance potential sum(p(v) * 2^-d(v,r)) is
  below the target can never reach the root (moves never increase the
  potential);
* a vertex holding t * 2^d(v,r) pebbles alone suffices.

No dominance tables or other heuristics take part in the verdict, which
keeps the oracle auditable. Move ordering prefers moves toward the root;
it only affects how fast witnesses are found.

The memo is keyed on packed integers (packed_units): vertex v owns
d(v,r) + bitlen(t) bits, vertex 0 the most significant. A memoized
configuration has passed the stack test, so p(v) < t * 2^d(v,r) <
2^(d(v,r) + bitlen(t)) fits its field, no field carries into the next,
and the key is injective. ``decide`` packs the query once; below it, one
counts list is moved in place and restored after each child. A child
differs from its parent only at the move's ends u -> v, and the parent
held no stack, so its checks are O(1): a stack test on v, then its
potential and key, each the parent's plus a constant of the move. The
child's key is looked up in the memo before the search descends, so a
memo hit costs no call; it counts one node and one hit, as a descent
that found the key would.

A witness is read off ``decide`` rather than searched for again: from
the queried configuration, until the root holds the target, take the
first stack that suffices (in vertex order), else the first move whose
child ``decide`` accepts, mostly a memo hit; a stack moves only its
t * 2^d(v,r) pebbles, in t * (2^d(v,r) - 1) moves. Every witness is then
replayed through ``apply_move``; a replay that does not reach the
target raises InternalError.
"""

from __future__ import annotations

import numbers
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .configurations import Configuration, apply_move
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


@dataclass(frozen=True)
class SolveOutcome:
    solvable: bool
    witness: tuple[Move, ...] | None
    stats: SolveStats


def potential(g: Graph, p: Configuration) -> Fraction:
    """sum over vertices of p(v) * 2^-d(v, root), exactly."""
    if p.graph is not g:
        raise BadParameterError("configuration belongs to a different graph")
    dist = distances_from(g, g.root)
    return sum(
        (Fraction(c, 1 << dist[v]) for v, c in enumerate(p.counts) if c),
        start=Fraction(0),
    )


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
    step (u, v, potential change, key change). Neither reads the graph's
    symmetry, so a solver on a graph with it searches exactly as one on
    the same graph without: same verdicts, witnesses, node counts and
    memo. The memo table and ``stats`` persist across calls on the same
    solver; limits do not: ``begin(limits)`` gives the operation that
    follows its own node and time budget. Witness queries leave solvable
    (True) entries in the memo as well as unsolvable ones, and count a
    node for every ``decide`` call along the walk.
    """

    def __init__(self, graph: Graph, target: int = 1, limits: SearchLimits | None = None):
        _check_int("target", target)
        if target < 1:
            raise BadParameterError("target pebble count must be at least 1")
        self.graph = graph
        self.target = target
        self.dist = dist = distances_from(graph, graph.root)
        depth = max(dist)
        # integer-scaled potential: weight 2^(depth - d), target t * 2^depth
        self._pot = tuple(1 << (depth - d) for d in dist)
        self._pot_target = target << depth
        self.stack_threshold = tuple(target << d for d in dist)
        moves = [(u, v) for u in range(graph.vertex_count) for v in graph.neighbors[u]]
        moves.sort(key=lambda m: (0 if dist[m[1]] < dist[m[0]] else 1, dist[m[0]], m))
        self._moves = tuple(moves)
        pot, unit = self._pot, packed_units(dist, target)
        self._unit, self._steps = unit, tuple((u, v, pot[v] - 2 * pot[u], unit[v] - 2 * unit[u]) for u, v in moves)
        self.memo: dict[int, bool] = {}
        self.stats = SolveStats()
        self.begin(limits)

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
        pot = 0
        pw = self._pot
        for v, c in enumerate(counts):
            if c:
                if c >= thr[v]:
                    return True
                pot += c * pw[v]
        if pot < self._pot_target:
            return False
        key = sum(map(mul, counts, self._unit))
        cached = self.memo.get(key)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        return self._search(list(counts), key, pot)

    def _search(self, cnt: list[int], key: int, pot: int) -> bool:
        """Whether ``cnt``, counted as a node, holding no stack, of
        potential ``pot`` at least the target, packed as ``key`` and not
        in the memo, is solvable. Each child is one step on ``cnt``,
        undone after it; a child in the memo is a hit, with no call."""
        stats, cap, thr, floor, memo = self.stats, self._node_cap, self.stack_threshold, self._pot_target, self.memo
        result = False
        for u, v, dpot, dkey in self._steps:
            if cnt[u] >= 2:
                # count_node, inlined
                stats.nodes = nodes = stats.nodes + 1
                if nodes > cap or not nodes & 4095:
                    self._check_limits()
                c = cnt[v] + 1
                if c >= thr[v]:
                    result = True
                    break
                if pot + dpot < floor:
                    continue
                child = key + dkey
                found = memo.get(child)
                if found is None:
                    cnt[u] -= 2
                    cnt[v] = c
                    found = self._search(cnt, child, pot + dpot)
                    cnt[u] += 2
                    cnt[v] = c - 1
                else:
                    stats.memo_hits += 1
                if found:
                    result = True
                    break
        memo[key] = result
        return result

    # -- witness construction ------------------------------------------

    def _stack_witness(self, v: int) -> list[Move]:
        """The moves that carry a stack of t * 2^d(v,r) from v to the
        root along a shortest path, each step to the lowest-id neighbour
        one nearer the root; pebbles beyond it stay on v."""
        dist, moves, carry = self.dist, [], self.stack_threshold[v]
        while v != self.graph.root:
            up = next(u for u in self.graph.neighbors[v] if dist[u] < dist[v])  # neighbours are sorted
            carry //= 2
            moves += [(v, up)] * carry
            v = up
        return moves

    def _witness(self, counts: tuple[int, ...]) -> list[Move] | None:
        """The witness read off ``decide`` (see the module docstring), or None."""
        if not self.decide(counts):
            return None
        root, target, thr = self.graph.root, self.target, self.stack_threshold
        moves: list[Move] = []
        while counts[root] < target:
            stack = next((v for v, c in enumerate(counts) if c >= thr[v]), None)
            if stack is not None:
                moves += self._stack_witness(stack)
                break
            for u, v in self._moves:
                if counts[u] >= 2:
                    child = list(counts)
                    child[u] -= 2
                    child[v] += 1
                    child = tuple(child)
                    if self.decide(child):
                        moves.append((u, v))
                        counts = child
                        break
            else:
                raise InternalError("internal error: a solvable configuration has no solvable child")
        return moves

    def _replay(self, p: Configuration, moves: list[Move]) -> None:
        """Check a witness through ``apply_move``, independently of the search."""
        try:
            for u, v in moves:
                p = apply_move(self.graph, p, u, v)
        except MoveError as exc:
            raise InternalError(f"internal error: witness replay failed: {exc}") from None
        if p.counts[self.graph.root] < self.target:
            raise InternalError("internal error: witness replay falls short of the target")

    def solve(self, p: Configuration, want_witness: bool = False) -> SolveOutcome:
        if p.graph is not self.graph:
            raise BadParameterError("configuration belongs to a different graph")
        nodes0, hits0 = self.stats.nodes, self.stats.memo_hits
        if want_witness:
            moves = self._witness(p.counts)
            solvable = moves is not None
            if solvable:
                self._replay(p, moves)
            witness = tuple(moves) if solvable else None
        else:
            solvable = self.decide(p.counts)
            witness = None
        stats = SolveStats(self.stats.nodes - nodes0, self.stats.memo_hits - hits0)
        return SolveOutcome(solvable, witness, stats)


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
