"""Exact-rational linear programming over strategy sets.

A dense one-phase simplex from the slack basis on an integer-preserving
tableau (Edmonds' fraction-free pivots, Bareiss 1968). The column of
largest objective improvement enters, ties to the least index, so it
cannot cycle: in a cycle every pivot is degenerate, every gain 0, and
the tie takes Bland's column, which never cycles. No phase one is needed:
``LinearProgram`` refuses a negative right-hand side, so x = 0 is
always feasible. Each row with its right-hand side, and the objective,
is scaled to integers once, when the LinearProgram is built; every pivot
then divides exactly by the previous pivot, so the loop runs on plain
ints with no gcd. The dual is read from the final reduced costs of the
slack columns, an optimality certificate that _dual_problem re-checks on
that scaling and the dual's own, never on the tableau. Fractions are
built only for what is returned: the optimum, the point and the dual.
Instances stay small (one variable per non-root vertex, one row per
certificate), so no sparse machinery is warranted.

The pebbling application: every unsolvable configuration is a feasible
integer point of { p >= 0 : w_i . p <= w_i(1) for every certificate },
so floor(LP optimum) + 1 bounds the rooted pebbling number from above.
Each row is a weight function, which has no negative weight, and each
cap is its total, so every strategy program starts at x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .configurations import _exact, _integers
from .errors import InternalError, LpError, UncertifiedWeightError
from .graphs import Graph
from .strategies import Certificate


OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to rows . x <= rhs, x >= 0, rhs >= 0."""

    objective: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.objective)
        if not all(isinstance(x, (int, Fraction)) for part in (self.objective, self.rhs, *self.rows) for x in part):
            raise LpError("entries must be integers or fractions; linear_program converts other numbers")
        if len(self.rows) != len(self.rhs):
            raise LpError("row and right-hand-side counts differ")
        for row in self.rows:
            if len(row) != n:
                raise LpError("row length does not match the objective")
        for i, b in enumerate(self.rhs):
            if b < 0:
                raise LpError(f"right-hand side {i} is {b}; solve_lp needs a nonnegative right-hand side")
        # each [row | rhs] and the objective as (ints, scale), read by solve_lp and _dual_problem
        object.__setattr__(self, "integer_rows", tuple(_integers((*row, b)) for row, b in zip(self.rows, self.rhs)))
        object.__setattr__(self, "integer_objective", _integers(self.objective))


def linear_program(objective, rows, rhs) -> LinearProgram:
    exact = [tuple(_exact(x, LpError, "entry") for x in v) for v in (objective, rhs, *rows)]
    return LinearProgram(exact[0], tuple(exact[2:]), exact[1])


@dataclass(frozen=True)
class LpSolution:
    """point, optimum and dual are all set exactly when status is OPTIMAL."""

    status: str
    optimum: Fraction | None
    point: tuple[Fraction, ...] | None
    dual: tuple[Fraction, ...] | None


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


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact simplex from the slack basis; deterministic largest-improvement pivots.

    The column whose reduced cost times least ratio rhs / entry is largest
    enters, ties to the least column; that row leaves, ties to the smaller
    basis index. A positive reduced cost over no positive entry is unbounded.
    Every pivot entry is positive, so det stays positive and signs, ratio
    and gain orders read off the integers match the rational tableau.
    """
    m, n = len(lp.rows), len(lp.objective)

    # columns: n structural, m slacks, rhs last; row i is scaled to
    # integers by its scale and its slack by 1/scale; the cost row is last
    tab: list[list[int]] = []
    for i, (values, _) in enumerate(lp.integer_rows):
        row = [*values[:n], *[0] * m, values[-1]]
        row[n + i] = 1
        tab.append(row)
    basis = list(range(n, n + m))
    objective, obj_scale = lp.integer_objective
    tab.append([*objective, *[0] * (m + 1)])

    det = 1
    while True:
        cost = tab[m]
        enter = -1
        for j in range(n + m):
            if cost[j] <= 0:
                continue
            row = -1
            for i in range(m):
                a = tab[i][j]
                if a > 0 and (row < 0 or (tab[i][-1] * den, basis[i]) < (num * a, basis[row])):
                    row, num, den = i, tab[i][-1], a
            if row < 0:
                return LpSolution(UNBOUNDED, None, None, None)
            # gain cost * num / den, det * obj_scale times the rational one
            if enter < 0 or cost[j] * num * best_den > best_num * den:
                enter, leave, best_num, best_den = j, row, cost[j] * num, den
        if enter < 0:
            break
        det = _pivot(tab, leave, enter, det)
        basis[leave] = enter

    point = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(tab[i][-1], det)
    denominator = det * obj_scale
    optimum = Fraction(-cost[-1], denominator)
    # y_i is minus the reduced cost of slack i, undone for both scalings
    dual = tuple(Fraction(-cost[n + i] * scale, denominator) for i, (_, scale) in enumerate(lp.integer_rows))
    return LpSolution(OPTIMAL, optimum, tuple(point), dual)


def _dual_problem(lp: LinearProgram, sol: LpSolution) -> str | None:
    """Why sol.dual fails to prove sol.optimum, or None when it does.

    Weak duality: y >= 0 and yA >= c bound every feasible c.x by y.b,
    so y.b = optimum proves that no feasible point exceeds the optimum,
    the direction the pebbling bound rests on. Checked cross-multiplied on
    integers scaled from lp and sol alone, never from the solver's tableau.
    """
    y = sol.dual
    if y is None or len(y) != len(lp.rows):
        return "the optimal solution carries no dual of the right length"
    u, dual_scale = _integers(y)
    if any(v < 0 for v in u):
        return "negative dual value"
    rows = lp.integer_rows
    row_scale = math.lcm(*(s for _, s in rows))
    weights = [v * (row_scale // s) for v, (_, s) in zip(u, rows)]
    # y.[A | b] times dual_scale * row_scale, column by column
    sums = [sum(map(mul, weights, col)) for col in zip(*(r for r, _ in rows))] or [0] * (len(lp.objective) + 1)
    objective, obj_scale = lp.integer_objective
    scale = dual_scale * row_scale
    for j, (total, c) in enumerate(zip(sums, objective)):
        if total * obj_scale < c * scale:
            return f"dual violates column {j}"
    if sums[-1] * sol.optimum.denominator != sol.optimum.numerator * scale:
        return "dual objective differs from the optimum"
    return None


def lp_pebbling_bound(g: Graph, certs, *, return_lp: bool = False):
    """LP upper bound on the rooted pebbling number from a strategy set.

    One nonnegative variable per non-root vertex, objective the total
    size, one row per certificate capping its weighted sum at the
    certificate's all-ones weight. Every row must be a Certificate
    (UncertifiedWeightError otherwise). Every non-root vertex must carry
    positive weight in some certificate, otherwise stacking pebbles
    there is unconstrained and the program is unbounded. Weights and caps
    are nonnegative, so the simplex starts at x = 0 with no phase one.
    The optimum is re-proved from its dual before it is returned.
    """
    certs = list(certs)
    if not certs:
        raise LpError("need at least one certificate")
    if not all(isinstance(c, Certificate) for c in certs):
        raise UncertifiedWeightError("every row must carry a certificate")
    if any(c.graph is not g for c in certs):
        raise LpError("certificate lives on a different graph")
    variables = [v for v in range(g.vertex_count) if v != g.root]
    scaled = [c.weight_function.integers[0] for c in certs]
    for v in variables:
        if not any(ints[v] for ints in scaled):
            raise LpError(f"vertex {v} has zero weight in every certificate")
    rows = tuple(tuple(c.weight_function.weights[v] for v in variables) for c in certs)
    lp = LinearProgram((1,) * len(variables), rows, tuple(c.weight_function.total for c in certs))
    sol = solve_lp(lp)
    if sol.status != OPTIMAL:
        raise LpError(f"strategy LP ended {sol.status}")
    problem = _dual_problem(lp, sol)
    if problem:
        raise InternalError(f"internal error: {problem}")
    bound = math.floor(sol.optimum) + 1
    if return_lp:
        return sol.optimum, bound, lp, sol
    return sol.optimum, bound
