"""Pebble configurations, moves, exhaustive enumeration and canonical forms.

Configurations are immutable value objects bound to one graph, so they
can serve as memo keys. Enumeration produces every configuration of a
size, with no symmetry reduction, in one deterministic order:
lexicographic in vertex index with counts descending, which makes runs
reproducible.

Canonical forms use only the generators stored on the graph. Two
regimes are handled exactly: when every generator is a transposition the
closure is a product of symmetric groups over "blocks" of
interchangeable vertices and the canonical form sorts each block's
counts descending; otherwise the whole closure group is enumerated, up
to a fixed size cap (GROUP_SIZE_CAP) beyond which symmetry is ignored
rather than risk unsound deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .errors import (
    BadParameterError,
    GraphMismatchError,
    InsufficientPebblesError,
    NotAdjacentError,
)
from .graphs import Graph

# Closure groups larger than this are not enumerated; symmetry is then
# ignored for canonicalization (soundness over speed).
GROUP_SIZE_CAP = 10_000


@dataclass(frozen=True)
class Configuration:
    """Pebble counts per vertex of one specific graph."""

    graph: Graph
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.graph.vertex_count:
            raise BadParameterError("counts length does not match the graph")
        if any(c < 0 for c in self.counts):
            raise BadParameterError("pebble counts must be nonnegative")

    @property
    def size(self) -> int:
        return sum(self.counts)

    def on(self, v: int) -> int:
        return self.counts[v]


def configuration(g: Graph, counts) -> Configuration:
    """Build a configuration from a sequence or a {vertex: count} mapping."""
    if isinstance(counts, dict):
        arr = [0] * g.vertex_count
        for v, c in counts.items():
            arr[v] = c
        counts = arr
    return Configuration(g, tuple(counts))


def empty_configuration(g: Graph) -> Configuration:
    return Configuration(g, (0,) * g.vertex_count)


def uniform_configuration(g: Graph) -> Configuration:
    """One pebble on every vertex."""
    return Configuration(g, (1,) * g.vertex_count)


def apply_move(g: Graph, p: Configuration, frm: int, to: int) -> Configuration:
    """Remove two pebbles from ``frm`` and place one on the adjacent ``to``."""
    if p.graph is not g:
        raise GraphMismatchError("configuration belongs to a different graph")
    if not g.has_edge(frm, to):
        raise NotAdjacentError(f"{frm} and {to} are not adjacent")
    if p.counts[frm] < 2:
        raise InsufficientPebblesError(f"vertex {frm} holds {p.counts[frm]} < 2 pebbles")
    arr = list(p.counts)
    arr[frm] -= 2
    arr[to] += 1
    return Configuration(g, tuple(arr))


# ---------------------------------------------------------------------------
# symmetry machinery
# ---------------------------------------------------------------------------


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


def canonical_counts(g: Graph, counts: tuple[int, ...]) -> tuple[int, ...]:
    """Deterministic orbit representative of a raw counts tuple.

    The representative is the lexicographically greatest tuple in the
    orbit, i.e. the first member the enumeration order would emit; for
    transposition blocks this is a descending sort within each block.
    """
    kind, data = _symmetry_mode(g)
    if kind == "none":
        return counts
    if kind == "blocks":
        out = list(counts)
        for block in data:
            vals = sorted((counts[v] for v in block), reverse=True)
            for v, val in zip(block, vals):
                out[v] = val
        return tuple(out)
    # the closure holds the identity, so counts itself is a candidate
    return max(perm(counts) for perm in data)


def canonical_form(g: Graph, p: Configuration) -> Configuration:
    if p.graph is not g:
        raise GraphMismatchError("configuration belongs to a different graph")
    c = canonical_counts(g, p.counts)
    return p if c == p.counts else Configuration(g, c)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def enumerate_configurations(g: Graph, size: int, exclude_root: bool = False) -> Iterator[Configuration]:
    """Stream every configuration of exactly ``size`` pebbles, each once,
    in descending lexicographic order. With ``exclude_root`` the root is
    forced to 0."""
    if size < 0:
        raise BadParameterError("size must be nonnegative")
    n = g.vertex_count
    limit = [size] * n
    if exclude_root:
        limit[g.root] = 0
    # suffix_caps[i]: the most pebbles vertices i.. can hold, for pruning
    suffix_caps = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_caps[i] = suffix_caps[i + 1] + limit[i]
    acc = [0] * n

    def rec(i: int, remaining: int) -> Iterator[Configuration]:
        if i == n:
            # the pruning below leaves no pebble over at the last vertex
            yield Configuration(g, tuple(acc))
            return
        for c in range(min(limit[i], remaining), -1, -1):
            if remaining - c > suffix_caps[i + 1]:
                break
            acc[i] = c
            yield from rec(i + 1, remaining - c)
        acc[i] = 0

    yield from rec(0, size)
