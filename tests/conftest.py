"""Shared fixtures and independent reference oracles.

The reference solver here is a plain breadth-first walk over the move
graph with none of the package's pruning, canonicalization or
memoization; agreement between the two is the backbone of the solver
tests. naive_pi_rooted likewise scans sizes with raw stars-and-bars
enumeration and double-checks two sizes past the stopping point.
"""

from collections import deque
from itertools import combinations

import pytest

import pebbling as pb

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def naive_solvable(g, counts, t=1):
    """Reference decision: exhaustive BFS over all move sequences."""
    start = tuple(counts)
    seen = set()
    queue = deque([start])
    while queue:
        p = queue.popleft()
        if p[g.root] >= t:
            return True
        if p in seen:
            continue
        seen.add(p)
        for u in range(g.vertex_count):
            if p[u] >= 2:
                for v in g.neighbors[u]:
                    child = list(p)
                    child[u] -= 2
                    child[v] += 1
                    queue.append(tuple(child))
    return False


def all_counts(n, size):
    """All length-n tuples of nonnegative ints summing to size (stars and bars)."""
    out = []
    for bars in combinations(range(size + n - 1), n - 1):
        prev = -1
        counts = []
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(size + n - 2 - prev)
        out.append(tuple(counts))
    return out


def root_zero_counts(g, size):
    free = [v for v in range(g.vertex_count) if v != g.root]
    for c in all_counts(len(free), size):
        arr = [0] * g.vertex_count
        for v, x in zip(free, c):
            arr[v] = x
        yield tuple(arr)


def naive_pi_rooted(g, extra=2, size_cap=40):
    """Reference rooted pebbling number for small graphs.

    Finds the first size with zero unsolvable root-free configurations
    and verifies ``extra`` further sizes are also clean, exercising the
    stop rule independently.
    """
    size = 1
    last_bad = 0
    while size <= size_cap:
        bad = [c for c in root_zero_counts(g, size) if not naive_solvable(g, c)]
        if not bad:
            for s in range(size + 1, size + 1 + extra):
                assert not any(
                    not naive_solvable(g, c) for c in root_zero_counts(g, s)
                ), f"stop rule violated at size {s}"
            return size
        last_bad = size
        size += 1
    raise AssertionError(f"no clean size found up to {size_cap} (last unsolvable at {last_bad})")


def naive_unsolvable_levels(g):
    """Reference down-set: the root-free configurations naive_solvable
    rejects, one set per size, up to and including the first empty size."""
    levels = []
    while True:
        level = {c for c in root_zero_counts(g, len(levels)) if not naive_solvable(g, c)}
        levels.append(level)
        if not level:
            return levels


def symmetry_closure(g):
    """Every permutation generated by the graph's stored symmetry, by BFS."""
    identity = tuple(range(g.vertex_count))
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for gen in g.symmetry:
                q = tuple(gen[p[v]] for v in identity)
                if q not in group:
                    group.add(q)
                    nxt.append(q)
        frontier = nxt
    return group


def orbit(group, counts):
    """All images of a counts tuple under a permutation group."""
    images = set()
    for perm in group:
        moved = [0] * len(counts)
        for v, c in enumerate(counts):
            moved[perm[v]] = c
        images.add(tuple(moved))
    return images


def random_connected_graph(rng, n_min=2, n_max=8, max_extra=3):
    n = rng.randint(n_min, n_max)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, max_extra)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return pb.build_graph(n, sorted(edges), root=rng.randrange(n))


def random_tree(rng, n_min=2, n_max=7):
    n = rng.randint(n_min, n_max)
    edges = sorted((rng.randrange(v), v) for v in range(1, n))
    return pb.build_graph(n, edges, root=rng.randrange(n))


def random_counts(rng, g, max_total=10):
    total = rng.randint(0, max_total)
    arr = [0] * g.vertex_count
    for _ in range(total):
        arr[rng.randrange(g.vertex_count)] += 1
    return tuple(arr)


@pytest.fixture
def p2():
    return pb.path_graph(1)


@pytest.fixture
def p3():
    return pb.path_graph(2)


@pytest.fixture
def c4():
    return pb.cycle_graph(4)


@pytest.fixture
def c5():
    return pb.cycle_graph(5)


@pytest.fixture
def q3():
    return pb.hypercube(3)


@pytest.fixture
def fig2():
    return pb.named_graph("fig2")


@pytest.fixture
def lemma5_graph():
    return pb.named_graph("lemma5")
