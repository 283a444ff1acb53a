"""Exact-rational linear programming over strategy sets.

A dense two-phase simplex on an integer-preserving tableau (Edmonds'
fraction-free pivots, Bareiss 1968) with Bland's least-index rule,
which cannot cycle. Each row and the objective are scaled to integers
once; every pivot then divides exactly by the previous pivot, so the
loop runs on plain ints with no gcd. The dual is read from the final
reduced costs of the slack columns, giving an independently checkable
optimality certificate. Instances here stay tiny (one variable per
non-root vertex, one row per certificate), so no sparse machinery is
warranted.

The pebbling application: every unsolvable configuration is a feasible
integer point of { p >= 0 : w_i . p <= w_i(1) for every certificate },
so floor(LP optimum) + 1 bounds the rooted pebbling number from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    EmptyStrategySetError,
    LpError,
    UnboundedCoverageError,
)
from .graphs import Graph

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to rows . x <= rhs, x >= 0."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise DimensionMismatchError("row and right-hand-side counts differ")
        for row in self.rows:
            if len(row) != n:
                raise DimensionMismatchError("row length does not match the objective")


def linear_program(objective, rows, rhs) -> LinearProgram:
    return LinearProgram(
        tuple(Fraction(x) for x in objective),
        tuple(tuple(Fraction(x) for x in row) for row in rows),
        tuple(Fraction(x) for x in rhs),
    )


@dataclass(frozen=True)
class LpSolution:
    """point, optimum and dual are all set exactly when status is OPTIMAL."""

    status: str
    optimum: Fraction | None
    point: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None


def _integers(values) -> tuple[list[int], int]:
    """values times the lcm of their denominators, and that lcm."""
    values = [Fraction(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _pivot(tab, row, col, det):
    """Edmonds' integer-preserving pivot on tab[row][col]; returns the new det.

    Every row holds det times its rational counterpart, so the exact
    quotient by the previous pivot ``det`` keeps all entries integral.
    The pivot row itself is unchanged.
    """
    prow = tab[row]
    p = prow[col]
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            tab[i] = [(a * p - f * b) // det for a, b in zip(r, prow)]
        elif p != det:
            tab[i] = [a * p // det for a in r]
    return p


def _run_simplex(tab, basis, n_cols, det):
    """Bland's rule on [rows | rhs]; the last row of tab is the cost row.

    det > 0, so signs and ratio orders read off the integers match the
    rational tableau. Returns the status and the final det.
    """
    m = len(basis)
    while True:
        cost = tab[m]
        enter = next((j for j in range(n_cols) if cost[j] > 0), -1)
        if enter < 0:
            return OPTIMAL, det
        leave = -1
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = i, tab[i][-1], a
                    continue
                # least ratio rhs / a, ties to the smaller basis index
                lhs, rhs = tab[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, tab[i][-1], a
        if leave < 0:
            return UNBOUNDED, det
        det = _pivot(tab, leave, enter, det)
        basis[leave] = enter


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact simplex; deterministic by least-index pivoting."""
    m, n = len(lp.rows), len(lp.objective)

    # columns: n structural, m slacks, then artificials as needed, rhs last;
    # row i is scaled to integers by scales[i] and its slack by 1/scales[i]
    need_artificial = [b < 0 for b in lp.rhs]
    n_art = sum(need_artificial)
    n_cols = n + m + n_art
    tab: list[list[int]] = []
    basis: list[int] = []
    scales: list[int] = []
    art_col = n + m
    for i in range(m):
        values, scale = _integers((*lp.rows[i], lp.rhs[i]))
        sign = -1 if need_artificial[i] else 1
        row = [0] * (n_cols + 1)
        row[:n] = [sign * a for a in values[:n]]
        row[n + i] = sign
        row[-1] = sign * values[-1]
        if need_artificial[i]:
            row[art_col] = 1
            basis.append(art_col)
            art_col += 1
        else:
            basis.append(n + i)
        tab.append(row)
        scales.append(scale)

    det = 1
    if n_art:
        # phase one: maximize minus the artificial sum
        cost = [0] * (n_cols + 1)
        for j in range(n + m, n_cols):
            cost[j] = -1
        for i, b in enumerate(basis):
            if b >= n + m:
                cost = [a + x for a, x in zip(cost, tab[i])]
        tab.append(cost)
        _, det = _run_simplex(tab, basis, n_cols, det)
        if tab.pop()[-1] > 0:
            return LpSolution(INFEASIBLE, None, None, None)
        # pivot any leftover artificial out on a real column; B^-1 [A | ±I]
        # has full row rank, so every row has one
        for i in range(m):
            if basis[i] >= n + m:
                j = next(j for j in range(n + m) if tab[i][j])
                det = _pivot(tab, i, j, det)
                basis[i] = j
                if det < 0:
                    tab = [[-a for a in row] for row in tab]
                    det = -det
        tab = [row[: n + m] + row[-1:] for row in tab]
        n_cols = n + m

    objective, obj_scale = _integers(lp.objective)
    cost = [det * c for c in objective] + [0] * (n_cols + 1 - n)
    for i, b in enumerate(basis):
        if b < n and objective[b]:
            factor = objective[b]
            cost = [a - factor * x for a, x in zip(cost, tab[i])]
    tab.append(cost)
    status, det = _run_simplex(tab, basis, n_cols, det)
    cost = tab.pop()
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, None, None)

    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(tab[i][-1], det)
    denominator = det * obj_scale
    optimum = Fraction(-cost[-1], denominator)
    # y_i is minus the reduced cost of slack i, undone for both scalings
    dual = tuple(Fraction(-cost[n + i] * scales[i], denominator) for i in range(m))
    return LpSolution(OPTIMAL, optimum, tuple(point), dual)


def _dual_problem(lp: LinearProgram, sol: LpSolution) -> str | None:
    """Why sol.dual fails to prove sol.optimum, or None when it does.

    Weak duality: y >= 0 and yA >= c bound every feasible c.x by y.b,
    so y.b = optimum proves that no feasible point exceeds the optimum,
    the direction the pebbling bound rests on.
    """
    y = sol.dual
    if y is None or len(y) != len(lp.rows):
        return "the optimal solution carries no dual of the right length"
    if any(v < 0 for v in y):
        return "negative dual value"
    for j, c in enumerate(lp.objective):
        if sum(v * row[j] for v, row in zip(y, lp.rows)) < c:
            return f"dual violates column {j}"
    if sum(v * b for v, b in zip(y, lp.rhs)) != sol.optimum:
        return "dual objective differs from the optimum"
    return None


def lp_pebbling_bound(g: Graph, certs, *, return_lp: bool = False):
    """LP upper bound on the rooted pebbling number from a strategy set.

    One nonnegative variable per non-root vertex, objective the total
    size, one row per certificate capping its weighted sum at the
    certificate's all-ones weight. Every non-root vertex must carry
    positive weight in some certificate, otherwise stacking pebbles
    there is unconstrained and the program is unbounded. The optimum is
    re-proved from its dual before it is returned.
    """
    certs = list(certs)
    if not certs:
        raise EmptyStrategySetError("need at least one certificate")
    variables = [v for v in range(g.vertex_count) if v != g.root]
    for v in variables:
        if all(c.weight_function.weights[v] == 0 for c in certs):
            raise UnboundedCoverageError(f"vertex {v} has zero weight in every certificate")
    rows = []
    rhs = []
    for c in certs:
        wf = c.weight_function
        if wf.graph is not g:
            raise DimensionMismatchError("certificate lives on a different graph")
        rows.append([wf.weights[v] for v in variables])
        rhs.append(wf.total)
    lp = linear_program([1] * len(variables), rows, rhs)
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise UnboundedCoverageError(f"strategy LP ended {sol.status}")
    problem = _dual_problem(lp, sol)
    if problem:
        raise LpError(f"internal error: {problem}")
    bound = math.floor(sol.optimum) + 1
    if return_lp:
        return sol.optimum, bound, lp, sol
    return sol.optimum, bound
