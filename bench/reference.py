"""Independent checks the benchmark applies to the package's answers.

Nothing here shares code paths with the package's search: the move
search below has no potential cut, no stack shortcut, no
canonicalization and no shared memo, and LP answers are checked against
the program itself rather than re-solved. The checks run outside the
timed region of a pass.
"""

from __future__ import annotations

from fractions import Fraction


def pi_odd_cycle(k: int) -> int:
    """pi(C_{2k+1}, r) = 2 floor(2^{k+1} / 3) + 1 (Pachter, Snevily, Voxman)."""
    return 2 * ((1 << (k + 1)) // 3) + 1


def pi_path(k: int) -> int:
    """pi(P, end) = 2^k for a path with k edges rooted at one end."""
    return 1 << k


def pi_rooted_cube(n: int) -> int:
    """A pendant root on Q_{n-1} has pi = 2^n, the same as Q_n."""
    return 1 << n


def plain_solvable(g, counts) -> bool:
    """Whether some move sequence puts a pebble on the root.

    Depth-first over every reachable configuration, with only a visited
    set of its own.
    """
    start = tuple(counts)
    seen = {start}
    stack = [start]
    root = g.root
    while stack:
        p = stack.pop()
        if p[root] >= 1:
            return True
        for u in range(g.vertex_count):
            if p[u] >= 2:
                for v in g.neighbors[u]:
                    child = list(p)
                    child[u] -= 2
                    child[v] += 1
                    child = tuple(child)
                    if child not in seen:
                        seen.add(child)
                        stack.append(child)
    return False


def replay_reaches_root(pb, g, counts, moves) -> bool:
    """Replay a witness through ``apply_move``; True when the root gets a pebble."""
    p = pb.configuration(g, counts)
    for u, v in moves:
        p = pb.apply_move(g, p, u, v)
    return p.counts[g.root] >= 1


def weight_of(weights, counts) -> Fraction:
    return sum((Fraction(w) * c for w, c in zip(weights, counts)), start=Fraction(0))


def lp_problems(lp, sol) -> list[str]:
    """Exact primal and dual checks of a solved ``maximize c.x, Ax <= b, x >= 0``.

    The point must be feasible and reach the optimum. When a dual is
    returned it must satisfy y >= 0, yA >= c and y.b = optimum, which
    proves the optimum. A missing dual is not a problem here; the trace
    counts it.
    """
    problems = []
    x, opt = sol.point, sol.optimum
    if any(v < 0 for v in x):
        problems.append("negative primal entry")
    for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        if sum(a * v for a, v in zip(row, x)) > b:
            problems.append(f"primal row {i} violated")
    if sum(c * v for c, v in zip(lp.objective, x)) != opt:
        problems.append("primal objective differs from the optimum")
    y = sol.dual
    if y is not None:
        if any(v < 0 for v in y):
            problems.append("negative dual entry")
        for j, c in enumerate(lp.objective):
            if sum(y[i] * lp.rows[i][j] for i in range(len(y))) < c:
                problems.append(f"dual column {j} violated")
        if sum(a * b for a, b in zip(y, lp.rhs)) != opt:
            problems.append("dual objective differs from the optimum")
    return problems
