"""Shared fixtures and independent reference oracles.

The reference solver here is a plain breadth-first walk over the move
graph with none of the package's pruning, canonicalization or
memoization; agreement between the two is the backbone of the solver
tests. naive_pi_rooted likewise scans sizes with raw stars-and-bars
enumeration and double-checks two sizes past the stopping point.
reference_solve_lp is the earlier Fraction tableau simplex, whose
results the integer-pivot solve_lp must reproduce exactly.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations

import pytest

import pebbling as pb
from pebbling.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpSolution

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


# ---------------------------------------------------------------------------
# reference exact simplex
# ---------------------------------------------------------------------------


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            factor = r[col]
            tab[i] = [a - factor * b for a, b in zip(r, tab[row])]
    basis[row] = col


def _run_simplex(tab, basis, cost, n_cols):
    """Bland's rule on [rows | rhs] with a separate reduced-cost row.

    cost is mutated in place; entry cost[-1] accumulates -objective.
    Returns "optimal" or "unbounded".
    """
    while True:
        enter = -1
        for j in range(n_cols):
            if cost[j] > 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                key = (ratio, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, basis, leave, enter)
        factor = cost[enter]
        cost[:] = [a - factor * b for a, b in zip(cost, tab[leave])]


def reference_solve_lp(lp):
    """The earlier Fraction tableau simplex, kept as a reference for solve_lp.

    Same two phases and Bland pivots, but every entry is a Fraction and
    the dual comes from a separate elimination on the optimal basis.
    """
    m, n = len(lp.rows), len(lp.objective)
    zero = Fraction(0)

    # columns: n structural, m slacks, then artificials as needed, rhs last
    need_artificial = [b < 0 for b in lp.rhs]
    n_art = sum(need_artificial)
    n_cols = n + m + n_art
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    art_col = n + m
    for i in range(m):
        row = [zero] * (n_cols + 1)
        sign = -1 if need_artificial[i] else 1
        for j, a in enumerate(lp.rows[i]):
            row[j] = sign * a
        row[n + i] = Fraction(sign)
        row[-1] = sign * lp.rhs[i]
        if need_artificial[i]:
            row[art_col] = Fraction(1)
            basis.append(art_col)
            art_col += 1
        else:
            basis.append(n + i)
        tab.append(row)

    kept_rows = list(range(m))
    if n_art:
        # phase one: maximize minus the artificial sum
        cost = [zero] * (n_cols + 1)
        for j in range(n + m, n_cols):
            cost[j] = Fraction(-1)
        for i, b in enumerate(basis):
            if cost[b] != 0:
                factor = cost[b]
                cost = [a - factor * x for a, x in zip(cost, tab[i])]
        _run_simplex(tab, basis, cost, n_cols)
        if -cost[-1] < 0:
            return LpSolution(INFEASIBLE, None, None, None)
        # pivot any leftover artificial out on a real column; an all-zero
        # row is a redundant constraint and is dropped
        drop = []
        for i in range(len(tab)):
            if basis[i] >= n + m:
                for j in range(n + m):
                    if tab[i][j] != 0:
                        _pivot(tab, basis, i, j)
                        break
                else:
                    drop.append(i)
        for i in reversed(drop):
            del tab[i], basis[i], kept_rows[i]
        for i in range(len(tab)):
            tab[i] = tab[i][: n + m] + [tab[i][-1]]
        n_cols = n + m

    cost = [zero] * (n_cols + 1)
    for j in range(n):
        cost[j] = lp.objective[j]
    for i, b in enumerate(basis):
        if cost[b] != 0:
            factor = cost[b]
            cost = [a - factor * x for a, x in zip(cost, tab[i])]
    status = _run_simplex(tab, basis, cost, n_cols)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None)

    point = [zero] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = tab[i][-1]
    optimum = -cost[-1]
    try:
        dual = _dual_values(lp, basis, kept_rows)
    except (ValueError, StopIteration):
        # degenerate bases involving dropped redundant rows
        dual = None
    return LpSolution(OPTIMAL, optimum, tuple(point), dual)


def _dual_values(lp, basis, kept_rows):
    """Solve y . B = c_B exactly for the optimal basis; dropped rows get 0."""
    n = len(lp.objective)
    m = len(kept_rows)
    zero = Fraction(0)
    cols = []
    cb = []
    for b in basis:
        if b < n:
            cols.append([lp.rows[r][b] for r in kept_rows])
            cb.append(lp.objective[b])
        else:
            col = [zero] * m
            col[kept_rows.index(b - n)] = Fraction(1)
            cols.append(col)
            cb.append(zero)
    # equations: sum_i y_i * cols[j][i] = cb[j]
    aug = [[cols[j][i] for i in range(m)] + [cb[j]] for j in range(m)]
    for c in range(m):
        pivot_row = next(r for r in range(c, m) if aug[r][c] != 0)
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        piv = aug[c][c]
        aug[c] = [x / piv for x in aug[c]]
        for r in range(m):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    partial = [aug[i][-1] for i in range(m)]
    dual = [zero] * len(lp.rows)
    for pos, r in enumerate(kept_rows):
        dual[r] = partial[pos]
    return tuple(dual)


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
