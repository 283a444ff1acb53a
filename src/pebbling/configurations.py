"""Pebble configurations, moves and exhaustive enumeration.

Configurations are immutable value objects bound to one graph.
Enumeration produces every configuration of a size, with no symmetry
reduction, in one deterministic order: lexicographic in vertex index
with counts descending, which makes runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterator

from .errors import BadParameterError, MoveError
from .graphs import Graph, _check_vertex


@dataclass(frozen=True)
class Configuration:
    """Pebble counts per vertex of one specific graph."""

    graph: Graph
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.graph.vertex_count:
            raise BadParameterError("counts length does not match the graph")
        if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in self.counts):
            raise BadParameterError("pebble counts must be nonnegative integers")

    @property
    def size(self) -> int:
        return sum(self.counts)


def _integers(values) -> tuple[tuple[int, ...], int]:
    """Exact rationals (ints or Fractions) times the lcm of their denominators, and that lcm."""
    denominators = [v.denominator for v in values]
    scale = lcm(*denominators)
    return tuple([v.numerator * (scale // d) for v, d in zip(values, denominators)]), scale


def configuration(g: Graph, counts) -> Configuration:
    """Build a configuration from a sequence or a {vertex: count} mapping."""
    if isinstance(counts, dict):
        arr = [0] * g.vertex_count
        for v, c in counts.items():
            _check_vertex(g, v)
            arr[v] = c
        counts = arr
    return Configuration(g, tuple(counts))


def apply_move(g: Graph, p: Configuration, frm: int, to: int) -> Configuration:
    """Remove two pebbles from ``frm`` and place one on the adjacent ``to``."""
    if p.graph is not g:
        raise BadParameterError("configuration belongs to a different graph")
    if not g.has_edge(frm, to):
        raise MoveError(f"{frm} and {to} are not adjacent")
    if p.counts[frm] < 2:
        raise MoveError(f"vertex {frm} holds {p.counts[frm]} < 2 pebbles")
    arr = list(p.counts)
    arr[frm] -= 2
    arr[to] += 1
    return Configuration(g, tuple(arr))


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
