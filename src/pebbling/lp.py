"""Exact-rational linear programming over strategy sets.

A dense one-phase simplex from the slack basis on a condensed
integer-preserving tableau (Edmonds' fraction-free pivots, Bareiss 1968)
of the nonbasic columns and the right-hand side: a basic column is det
times a unit vector, so a pivot only swaps the entering variable's column
for the leaving one's. The largest objective improvement enters, ties to
the least variable, so it cannot cycle: in a cycle every gain is 0 and
the tie takes Bland's column. ``LinearProgram`` refuses a negative
right-hand side, so x = 0 is feasible and no phase one is needed. Rows
and objective are scaled to integers once, when the LinearProgram is
built, and each pivot divides exactly by the last, so the loop runs on
plain ints. y_i is minus the final reduced cost of slack i, or 0 while
it is basic; _dual_problem re-checks that certificate without the
tableau. Instances stay small, so no sparse machinery is warranted.

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

from .configurations import _exact, _integers, _sequence
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
        if any(len(row) != n for row in self.rows):
            raise LpError("row length does not match the objective")
        for i, b in enumerate(self.rhs):
            if b < 0:
                raise LpError(f"right-hand side {i} is {b}; solve_lp needs a nonnegative right-hand side")
        # each [row | rhs] and the objective as (ints, scale), read by solve_lp and _dual_problem
        object.__setattr__(self, "integer_rows", tuple(_integers((*row, b)) for row, b in zip(self.rows, self.rhs)))
        object.__setattr__(self, "integer_objective", _integers(self.objective))


def linear_program(objective, rows, rhs) -> LinearProgram:
    vectors = [_sequence(objective, LpError, "objective"), _sequence(rhs, LpError, "right-hand side")]
    vectors += [_sequence(row, LpError, "row") for row in _sequence(rows, LpError, "rows")]
    exact = [tuple(_exact(x, LpError, "entry") for x in v) for v in vectors]
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
    Column col then holds the leaving variable's full-tableau column:
    -t_i,col off the pivot row, det in it; the rest of that row is kept.
    """
    prow = tab[row]
    p = prow[col]
    for i, r in enumerate(tab):
        if i == row:
            continue
        f = r[col]
        if f:
            r = tab[i] = [(a * p - f * b) // det for a, b in zip(r, prow)]
            r[col] = -f
        elif p != det:
            tab[i] = [a * p // det for a in r]
    prow[col] = det
    return p


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Exact simplex from the slack basis; deterministic largest-improvement pivots.

    The column whose reduced cost times least ratio rhs / entry is largest
    enters, ties to the least variable; that row leaves, ties to the least
    basic variable. A positive reduced cost over no positive entry is
    unbounded. Every pivot entry is positive, so det stays positive and the
    orders read off the integers match the rational tableau's.
    """
    m, n = len(lp.rows), len(lp.objective)

    # columns: the nonbasic variables (structural j < n, slack i as n + i)
    # and the rhs; row i is [row | rhs] scaled to integers, the cost row last
    tab = [list(values) for values, _ in lp.integer_rows]
    tab.append([*lp.integer_objective[0], 0])
    nonbasic, basis, det = list(range(n)), list(range(n, n + m)), 1
    while True:
        *columns, rhs = zip(*tab)
        enter = -1
        for j, column in enumerate(columns):
            c = column[m]
            if c <= 0:
                continue
            row = -1
            for i in range(m):
                a = column[i]
                if a > 0 and (row < 0 or (x := rhs[i] * den) < (y := num * a) or x == y and basis[i] < basis[row]):
                    row, num, den = i, rhs[i], a
            if row < 0:
                return LpSolution(UNBOUNDED, None, None, None)
            # gain c * num / den, det * (objective scale) times the rational one
            if enter < 0 or (c * num * best_den, nonbasic[enter]) > (best_num * den, nonbasic[j]):
                enter, leave, best_num, best_den = j, row, c * num, den
        if enter < 0:
            break
        det = _pivot(tab, leave, enter, det)
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    values, cost = dict(zip(basis, rhs)), dict(zip(nonbasic, tab[m]))
    point = tuple(Fraction(values.get(j, 0), det) for j in range(n))
    # y_i is minus the reduced cost of slack i (0 while basic), undone for both scalings
    denominator = det * lp.integer_objective[1]
    dual = tuple(Fraction(-cost.get(n + i, 0) * s, denominator) for i, (_, s) in enumerate(lp.integer_rows))
    return LpSolution(OPTIMAL, Fraction(-rhs[m], denominator), point, dual)


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
    size, one row per certificate: its weights scaled to integers
    (``integers``) capped at their sum, so sol.dual is per scaled row.
    Every row must be a Certificate (UncertifiedWeightError otherwise).
    Every non-root vertex must carry positive weight in some certificate,
    otherwise stacking pebbles there is unconstrained and the program is
    unbounded. Weights and caps are nonnegative, so the simplex starts at
    x = 0 with no phase one. The optimum is re-proved from its dual
    before it is returned.
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
    rows = tuple(tuple(ints[v] for v in variables) for ints in scaled)
    lp = LinearProgram((1,) * len(variables), rows, tuple(sum(ints) for ints in scaled))
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
