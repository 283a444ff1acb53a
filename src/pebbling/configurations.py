"""Pebble configurations, moves, and exhaustive enumeration.

Configurations are immutable value objects bound to one graph, so they
can serve as memo keys. Enumeration streams are deterministic:
lexicographic in vertex index with counts descending, which makes runs
reproducible.

Symmetry reduction uses only the generators stored on the graph. Two
regimes are handled exactly: when every generator is a transposition the
closure is a product of symmetric groups over "blocks" of
interchangeable vertices and the canonical form sorts each block's
counts descending; otherwise the whole closure group is enumerated, up
to a configurable size cap beyond which symmetry is ignored rather than
risk unsound deduplication.
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

    Returns ("none", None), ("blocks", (blocks, prev_in_block)), or
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
            blocks = tuple(tuple(sorted(b)) for b in sorted(groups.values()) if len(b) > 1)
            prev = {}
            for block in blocks:
                for a, b in zip(block, block[1:]):
                    prev[b] = a
            mode = ("blocks", (blocks, prev))
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
        blocks, _ = data
        out = list(counts)
        for block in blocks:
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


def _iter_counts(
    g: Graph,
    size: int,
    exclude_root: bool = False,
    use_symmetry: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Raw counts tuples of total ``size``.

    With symmetry, only canonical representatives are produced: natively
    for block symmetry (counts within a block are forced descending),
    by filtering against ``canonical_counts`` for closure groups.
    """
    n = g.vertex_count
    limit = [size] * n
    if exclude_root:
        limit[g.root] = 0

    prev: dict[int, int] = {}
    group_filter = False
    if use_symmetry:
        kind, data = _symmetry_mode(g)
        if kind == "blocks":
            prev = data[1]
        elif kind == "group":
            group_filter = True

    block_of: dict[int, int] = {}
    if prev:
        for b, a in prev.items():
            root_id = block_of.get(a, a)
            block_of[a] = root_id
            block_of[b] = root_id

    # Capacity bookkeeping for pruning: once vertex i takes value c, its
    # later block mates can hold at most c each, other vertices their cap.
    suffix_caps = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_caps[i] = suffix_caps[i + 1] + limit[i]
    mates_after = [0] * n
    mate_caps_after = [0] * n
    for i in range(n):
        if i in block_of:
            mates = [j for j in range(i + 1, n) if block_of.get(j) == block_of[i]]
            mates_after[i] = len(mates)
            mate_caps_after[i] = sum(limit[j] for j in mates)

    acc = [0] * n

    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if remaining == 0:
                c = tuple(acc)
                if not group_filter or canonical_counts(g, c) == c:
                    yield c
            return
        hi = min(limit[i], remaining)
        if i in prev:
            hi = min(hi, acc[prev[i]])
        for c in range(hi, -1, -1):
            cap_after = suffix_caps[i + 1] - mate_caps_after[i] + mates_after[i] * c
            if remaining - c > cap_after:
                break
            acc[i] = c
            yield from rec(i + 1, remaining - c)
        acc[i] = 0

    yield from rec(0, size)


def enumerate_configurations(
    g: Graph,
    size: int,
    exclude_root: bool = False,
    use_symmetry: bool = False,
) -> Iterator[Configuration]:
    """Stream every configuration of exactly ``size`` pebbles, each once.

    With ``exclude_root`` the root is forced to 0. With ``use_symmetry``
    exactly one representative per orbit of the stored generators is
    produced, and every configuration of that size is reachable from
    some yielded representative by a composition of generators.
    """
    if size < 0:
        raise BadParameterError("size must be nonnegative")
    for counts in _iter_counts(g, size, exclude_root=exclude_root, use_symmetry=use_symmetry):
        yield Configuration(g, counts)
