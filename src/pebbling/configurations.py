"""Pebble configurations, moves and exhaustive enumeration.

Configurations are immutable value objects bound to one graph.
Enumeration produces every configuration of a size, with no symmetry
reduction, in one deterministic order: lexicographic in vertex index
with counts descending, which makes runs reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
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


def _exact(x, error: type[Exception], what: str) -> Fraction:
    """x read as an exact rational, else ``error`` naming ``what``."""
    try:  # ints, strings and finite floats are read exactly; NaN, infinities, "1/0" and non-numbers are refused
        return Fraction(x)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise error(f"{what} is not an exact rational: {exc}") from exc


def _sequence(values, error: type[Exception], what: str) -> tuple:
    """values as a tuple, else ``error`` naming ``what``."""
    try:
        return tuple(values)
    except TypeError as exc:
        raise error(f"{what} is not a sequence: {exc}") from exc


def _per_vertex(g: Graph, values, what: str) -> tuple:
    """A sequence, or a {vertex: value} mapping spread over g's vertices (others 0), as a tuple."""
    if not isinstance(values, dict):
        return _sequence(values, BadParameterError, what)
    for v in values:
        _check_vertex(g, v)
    return tuple(values.get(v, 0) for v in range(g.vertex_count))


def configuration(g: Graph, counts) -> Configuration:
    """Build a configuration from a sequence or a {vertex: count} mapping."""
    return Configuration(g, _per_vertex(g, counts, "counts"))


def apply_move(g: Graph, p: Configuration, frm: int, to: int) -> Configuration:
    """Remove two pebbles from ``frm`` and place one on the adjacent ``to``."""
    return apply_moves(g, p, ((frm, to),))


def apply_moves(g: Graph, p: Configuration, moves) -> Configuration:
    """Apply ``moves``, (from, to) pairs, in order. A run of k equal moves
    u -> v is checked at once: u and v are adjacent and u holds 2k
    pebbles. An illegal move raises the MoveError that applying the
    moves one at a time would, with its place in ``moves`` as ``index``."""
    if p.graph is not g:
        raise BadParameterError("configuration belongs to a different graph")
    arr, done = list(p.counts), 0
    for (frm, to), run in groupby(moves):
        k = sum(1 for _ in run)
        if not g.has_edge(frm, to):
            raise MoveError(f"{frm} and {to} are not adjacent", done)
        if arr[frm] < 2 * k:
            raise MoveError(f"vertex {frm} holds {arr[frm] % 2} < 2 pebbles", done + arr[frm] // 2)
        arr[frm] -= 2 * k
        arr[to] += k
        done += k
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
