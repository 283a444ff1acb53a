import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import reference_solve_lp
from scipy.optimize import linprog

import pebbling as pb
import pebbling.lp as lp_module
from pebbling.errors import (
    DimensionMismatchError,
    EmptyStrategySetError,
    LpError,
    UnboundedCoverageError,
)
from pebbling.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, linear_program, solve_lp


def two_var_vertex_optimum(rows, rhs):
    """Independent 2-variable reference: enumerate constraint intersections."""
    lines = [(a, b, c) for (a, b), c in zip(rows, rhs)] + [(1, 0, None), (0, 1, None)]
    candidates = [(Fraction(0), Fraction(0))]
    for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
        if c1 is None and c2 is None:
            continue
        # axis lines mean "that variable is 0"
        rows2 = []
        rhs2 = []
        for a, b, c in ((a1, b1, c1), (a2, b2, c2)):
            if c is None:
                rows2.append((a, b))
                rhs2.append(Fraction(0))
            else:
                rows2.append((a, b))
                rhs2.append(Fraction(c))
        det = rows2[0][0] * rows2[1][1] - rows2[0][1] * rows2[1][0]
        if det == 0:
            continue
        x = (rhs2[0] * rows2[1][1] - rows2[0][1] * rhs2[1]) / det
        y = (rows2[0][0] * rhs2[1] - rhs2[0] * rows2[1][0]) / det
        candidates.append((x, y))
    feasible = [
        (x, y)
        for x, y in candidates
        if x >= 0 and y >= 0 and all(a * x + b * y <= c for (a, b), c in zip(rows, rhs))
    ]
    return max(x + y for x, y in feasible)


class TestSolveLp:
    def test_hand_checked_two_variable(self):
        rows = [(2, 1), (1, 2)]
        rhs = [7, 7]
        assert two_var_vertex_optimum(rows, rhs) == Fraction(14, 3)
        sol = solve_lp(linear_program([1, 1], rows, rhs))
        assert sol.status == OPTIMAL
        assert sol.optimum == Fraction(14, 3)
        assert sol.point == (Fraction(7, 3), Fraction(7, 3))

    def test_single_bound(self):
        sol = solve_lp(linear_program([1], [[1]], [3]))
        assert sol.status == OPTIMAL and sol.optimum == 3

    def test_unbounded(self):
        sol = solve_lp(linear_program([1], [], []))
        assert sol.status == UNBOUNDED

    def test_lower_bounded_only_is_unbounded(self):
        # max x subject to x >= 1 (written -x <= -1)
        sol = solve_lp(linear_program([1], [[-1]], [-1]))
        assert sol.status == UNBOUNDED

    def test_infeasible(self):
        # x <= 1 and x >= 3 cannot both hold
        sol = solve_lp(linear_program([1], [[1], [-1]], [1, -3]))
        assert sol.status == INFEASIBLE

    def test_negative_rhs_phase_one(self):
        # x >= 2 (as -x <= -2), x <= 5
        sol = solve_lp(linear_program([1], [[-1], [1]], [-2, 5]))
        assert sol.status == OPTIMAL and sol.optimum == 5

    def test_minimize_direction_via_negation(self):
        sol = solve_lp(linear_program([-1], [[-1], [1]], [-2, 5]))
        assert sol.status == OPTIMAL and sol.optimum == -2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_program([1, 1], [[1]], [1])

    def test_row_order_independence(self):
        rows = [(2, 1), (1, 2), (1, 1)]
        rhs = [7, 7, 5]
        base = solve_lp(linear_program([1, 1], rows, rhs)).optimum
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            shuffled = solve_lp(
                linear_program([1, 1], [rows[i] for i in perm], [rhs[i] for i in perm])
            ).optimum
            assert shuffled == base

    def test_duality_certificate(self):
        lp = linear_program([1, 1], [(2, 1), (1, 2)], [7, 7])
        sol = solve_lp(lp)
        assert sol.dual is not None
        assert all(y >= 0 for y in sol.dual)
        assert sum(y * b for y, b in zip(sol.dual, lp.rhs)) == sol.optimum
        for j in range(2):
            assert sum(sol.dual[i] * lp.rows[i][j] for i in range(2)) >= lp.objective[j]

    def test_random_against_scipy(self):
        rng = random.Random(31337)
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(1, 5)
            rows = [[Fraction(rng.randint(0, 5)) for _ in range(n)] for _ in range(m)]
            rhs = [Fraction(rng.randint(0, 12)) for _ in range(m)]
            obj = [Fraction(rng.randint(0, 5)) for _ in range(n)]
            # guarantee boundedness: every variable in some positive row
            for j in range(n):
                if all(rows[i][j] == 0 for i in range(m)):
                    rows[rng.randrange(m)][j] = Fraction(rng.randint(1, 5))
            sol = solve_lp(linear_program(obj, rows, rhs))
            assert sol.status == OPTIMAL
            ref = linprog(
                [-float(c) for c in obj],
                A_ub=[[float(x) for x in row] for row in rows],
                b_ub=[float(b) for b in rhs],
                method="highs",
            )
            assert ref.status == 0
            assert abs(float(sol.optimum) + ref.fun) < 1e-7
            # exact feasibility and duality of our certificate
            for row, b in zip(rows, rhs):
                assert sum(a * x for a, x in zip(row, sol.point)) <= b
            assert sol.dual is not None
            assert all(y >= 0 for y in sol.dual)
            assert sum(y * b for y, b in zip(sol.dual, rhs)) == sol.optimum
            for j, c in enumerate(obj):
                assert sum(y * row[j] for y, row in zip(sol.dual, rows)) >= c


def random_program(rng, equalities=False):
    """Small LP with signed fractional data; equalities add -a.x <= -b twins."""
    n, m = rng.randint(1, 5), rng.randint(0 if not equalities else 1, 5)

    def q():
        return Fraction(rng.randint(-5, 8), rng.choice((1, 1, 2, 3, 4)))

    rows, rhs = [], []
    for _ in range(m):
        row = [q() if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
        b = q() if rng.random() < 0.85 else Fraction(0)
        rows.append(row)
        rhs.append(b)
        if equalities and rng.random() < 0.6:
            rows.append([-a for a in row])
            rhs.append(-b)
        if equalities and rng.random() < 0.3:
            c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            rows.append([c * a for a in row])
            rhs.append(c * b)
    return linear_program([q() for _ in range(n)], rows, rhs)


def induced_tree_weights(g, rng, size):
    """Seeded induced tree at the root; parents weigh twice their children."""
    depth = {g.root: 0}
    while len(depth) <= size:
        frontier = [
            v
            for v in range(g.vertex_count)
            if v not in depth and sum(u in depth for u in g.neighbors[v]) == 1
        ]
        if not frontier:
            break
        v = rng.choice(frontier)
        depth[v] = 1 + next(depth[u] for u in g.neighbors[v] if u in depth)
    top = max(depth.values())
    return [0 if v == g.root or v not in depth else 1 << (top - depth[v]) for v in range(g.vertex_count)]


class TestAgainstReference:
    """solve_lp must reproduce the Fraction tableau simplex exactly."""

    def test_random_programs(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(400):
            lp = random_program(rng)
            sol = solve_lp(lp)
            assert sol == reference_solve_lp(lp)
            seen.add((sol.status, any(b < 0 for b in lp.rhs)))
        # every status, and optima reached both with and without phase one
        assert {(OPTIMAL, False), (OPTIMAL, True), (INFEASIBLE, True), (UNBOUNDED, False)} <= seen

    def test_degenerate_programs(self, monkeypatch):
        # equality twins leave artificials basic at zero after phase one,
        # so the clean-up pivots run, some of them on negative entries
        negative = []
        pivot = lp_module._pivot

        def watched(tab, row, col, det):
            negative.append(tab[row][col] < 0)
            return pivot(tab, row, col, det)

        monkeypatch.setattr(lp_module, "_pivot", watched)
        rng = random.Random(77)
        optimal = 0
        for _ in range(300):
            lp = random_program(rng, equalities=True)
            sol = solve_lp(lp)
            assert sol == reference_solve_lp(lp)
            optimal += sol.status == OPTIMAL
        assert optimal >= 30 and any(negative)

    def test_strategy_programs_on_q4(self):
        q4 = pb.hypercube(4)
        variables = [v for v in range(q4.vertex_count) if v != q4.root]
        for seed in range(3):
            rng = random.Random(seed)
            rows = []
            # at least 12 strategies, and every variable in one, so the LP is bounded
            while len(rows) < 12 or any(all(row[v] == 0 for row in rows) for v in variables):
                rows.append(induced_tree_weights(q4, rng, 7))
            lp = linear_program(
                [1] * len(variables),
                [[row[v] for v in variables] for row in rows],
                [sum(row) for row in rows],
            )
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            assert sol == reference_solve_lp(lp)


class TestPebblingBound:
    def test_c5_pair(self, c5):
        a, b = pb.cycle_strategy_pair(2)
        optimum, bound = pb.lp_pebbling_bound(c5, [a, b])
        assert optimum == Fraction(14, 3)
        assert bound == 5

    def test_p3_single_path_strategy(self, p3):
        cert = pb.construction_certificate("path", 2)
        optimum, bound = pb.lp_pebbling_bound(p3, [cert])
        assert optimum == 3 and bound == 4

    def test_q4_uniform(self):
        q4 = pb.hypercube(4)
        cert = pb.construction_certificate("q4star")
        optimum, bound = pb.lp_pebbling_bound(q4, [cert])
        assert optimum == 15 and bound == 16

    def test_odd_cycle_bounds_match_formula(self):
        for k in (1, 2, 3, 4):
            g = pb.cycle_graph(2 * k + 1)
            _, bound = pb.lp_pebbling_bound(g, list(pb.cycle_strategy_pair(k)))
            assert bound == 2 * (2 ** (k + 1) // 3) + 1

    def test_bound_is_sound_for_exhaustive_pi(self):
        for k in (1, 2, 3):
            g = pb.cycle_graph(2 * k + 1)
            _, bound = pb.lp_pebbling_bound(g, list(pb.cycle_strategy_pair(k)))
            assert bound >= pb.pi_rooted(g).value

    def test_optimum_dominates_concrete_unsolvable_sizes(self, c5):
        certs = list(pb.cycle_strategy_pair(2))
        optimum, _ = pb.lp_pebbling_bound(c5, certs)
        witness = pb.pi_rooted(c5).witness_unsolvable
        assert optimum >= witness.size

    def test_wrong_dual_is_an_internal_error(self, c5, monkeypatch):
        solve = lp_module.solve_lp

        def off_by_one(lp):
            sol = solve(lp)
            return replace(sol, dual=(sol.dual[0] + 1,) + sol.dual[1:])

        monkeypatch.setattr(lp_module, "solve_lp", off_by_one)
        with pytest.raises(LpError, match="internal error"):
            pb.lp_pebbling_bound(c5, list(pb.cycle_strategy_pair(2)))

    def test_empty_set(self, c5):
        with pytest.raises(EmptyStrategySetError):
            pb.lp_pebbling_bound(c5, [])

    def test_uncovered_vertex(self, c5):
        a, _ = pb.cycle_strategy_pair(2)
        with pytest.raises(UnboundedCoverageError):
            pb.lp_pebbling_bound(c5, [a])
