import math
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest
from conftest import reference_dual_problem, reference_solve_lp
from scipy.optimize import linprog

import pebbling as pb
import pebbling.lp as lp_module
from pebbling import configurations, pebbling_number, strategies
from pebbling.configurations import _integers
from pebbling.errors import InternalError, LpError, UncertifiedWeightError
from pebbling.lp import OPTIMAL, UNBOUNDED, LinearProgram, _dual_problem, linear_program, solve_lp


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
        # max x subject to -x <= 0, a row that does not bound x
        sol = solve_lp(linear_program([1], [[-1]], [0]))
        assert sol.status == UNBOUNDED

    def test_negative_rhs_is_refused(self):
        # x >= 3 (written -x <= -3) leaves x = 0 infeasible, so the
        # program is refused before any simplex could start from it
        with pytest.raises(LpError, match="nonnegative right-hand side"):
            linear_program([1], [[1], [-1]], [1, -3])

    def test_optimum_needs_pivots(self, monkeypatch):
        # max x + 2y subject to x + y <= 4 and y - x <= 2: x enters, then y
        pivots = count_pivots(monkeypatch)
        lp = linear_program([1, 2], [[1, 1], [-1, 1]], [4, 2])
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.optimum == 7
        assert sol.point == (1, 3) and sol.dual == (Fraction(3, 2), Fraction(1, 2))
        assert len(pivots) == 2 and all(entry > 0 for entry, _ in pivots)

    def test_minimize_direction_via_negation(self, monkeypatch):
        # min y - 3x subject to x - y <= 1 and x + y <= 5 is -7, as max 3x - y is 7
        pivots = count_pivots(monkeypatch)
        sol = solve_lp(linear_program([3, -1], [[1, -1], [1, 1]], [1, 5]))
        assert sol.status == OPTIMAL and sol.optimum == 7
        assert sol.point == (3, 2)
        assert len(pivots) == 2

    def test_beale_cycling_program(self, monkeypatch):
        # Beale (1955): the largest-coefficient rule cycles on it forever;
        # at x = 0 only x3 has a positive gain, so no pivot is degenerate
        pivots = count_pivots(monkeypatch)
        lp = beale_program(1)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.optimum == Fraction(5, 4)
        assert sol.point == (1, 0, 1, 0)
        assert sol == reference_solve_lp(lp) and _dual_problem(lp, sol) is None
        assert len(pivots) == 2 and all(b > 0 for _, b in pivots)

    def test_beale_fully_degenerate(self, monkeypatch):
        # with x3 <= 0 every pivot stays at x = 0, so every gain is 0 and
        # the least-index tie makes each pivot Bland's
        pivots = count_pivots(monkeypatch)
        lp = beale_program(0)
        sol = solve_lp(lp)
        assert sol.status == OPTIMAL and sol.optimum == 0
        assert sol.point == (0, 0, 0, 0)
        assert sol == reference_solve_lp(lp) and _dual_problem(lp, sol) is None
        assert pivots and all(b == 0 for _, b in pivots)

    def test_dimension_mismatch(self):
        with pytest.raises(LpError, match="row length does not match the objective"):
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


def beale_program(x3_cap):
    """Beale's cycling example, with x3 capped at x3_cap."""
    return linear_program(
        [Fraction(3, 4), -20, Fraction(1, 2), -6],
        [[Fraction(1, 4), -8, -1, 9], [Fraction(1, 2), -12, Fraction(-1, 2), 3], [0, 0, 1, 0]],
        [0, 0, x3_cap],
    )


def count_pivots(monkeypatch):
    """Record (pivot entry, right-hand side of the leaving row) per pivot."""
    pivots = []
    pivot = lp_module._pivot

    def watched(tab, row, col, det):
        pivots.append((tab[row][col], tab[row][-1]))
        return pivot(tab, row, col, det)

    monkeypatch.setattr(lp_module, "_pivot", watched)
    return pivots


def random_program(rng, degenerate=False, shape=None):
    """Objective, rows and rhs of a small LP with signed fractional data.

    degenerate: every right-hand side is nonnegative and many are 0, and
    rows get scaled duplicates, so ratio ties and pivots at 0 are common.
    shape: (n, m) variables and rows before duplicates, else drawn at random.
    """
    n, m = shape or (rng.randint(1, 5), rng.randint(0 if not degenerate else 1, 5))

    def q():
        return Fraction(rng.randint(-5, 8), rng.choice((1, 1, 2, 3, 4)))

    rows, rhs = [], []
    for _ in range(m):
        row = [q() if rng.random() < 0.8 else Fraction(0) for _ in range(n)]
        b = q() if rng.random() < 0.85 else Fraction(0)
        if degenerate and (b < 0 or rng.random() < 0.4):
            b = Fraction(0)
        rows.append(row)
        rhs.append(b)
        if degenerate and rng.random() < 0.6:
            c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            rows.append([c * a for a in row])
            rhs.append(c * b)
    return [q() for _ in range(n)], rows, rhs


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


def strategy_program(g, rng, min_rows, size):
    """The strategy LP of at least min_rows seeded induced trees of the
    given size, with every variable in one, so the LP is bounded."""
    variables = [v for v in range(g.vertex_count) if v != g.root]
    rows = []
    while len(rows) < min_rows or any(all(row[v] == 0 for row in rows) for v in variables):
        rows.append(induced_tree_weights(g, rng, size))
    return linear_program(
        [1] * len(variables),
        [[row[v] for v in variables] for row in rows],
        [sum(row) for row in rows],
    )


class TestAgainstReference:
    """solve_lp must reproduce the Fraction tableau simplex exactly."""

    def test_random_programs(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(400):
            objective, rows, rhs = random_program(rng)
            if any(b < 0 for b in rhs):
                with pytest.raises(LpError, match="nonnegative right-hand side"):
                    linear_program(objective, rows, rhs)
                seen.add("refused")
                continue
            lp = linear_program(objective, rows, rhs)
            sol = solve_lp(lp)
            assert sol == reference_solve_lp(lp)
            seen.add(sol.status)
        assert {OPTIMAL, UNBOUNDED, "refused"} <= seen

    def test_degenerate_programs(self, monkeypatch):
        # zero right-hand sides and scaled duplicate rows make pivots
        # that leave the point where it is; each pivot entry stays positive
        pivots = count_pivots(monkeypatch)
        rng = random.Random(77)
        optimal = 0
        for _ in range(300):
            lp = linear_program(*random_program(rng, degenerate=True))
            sol = solve_lp(lp)
            assert sol == reference_solve_lp(lp)
            optimal += sol.status == OPTIMAL
        assert optimal >= 30
        assert all(entry > 0 for entry, _ in pivots)
        assert any(b == 0 for _, b in pivots)

    def test_strategy_programs_on_q4(self):
        for seed in range(3):
            lp = strategy_program(pb.hypercube(4), random.Random(seed), 12, 7)
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL
            assert sol == reference_solve_lp(lp)

    def test_tall_programs(self, monkeypatch):
        # 40 rows over 3 columns: most slacks stay basic, so most of the
        # dual is read as 0 and the few stored columns carry every pivot
        pivots = count_pivots(monkeypatch)
        rng = random.Random(3401)
        optimal = 0
        for degenerate in (False, True):
            for _ in range(25):
                objective, rows, rhs = random_program(rng, degenerate, shape=(3, 40))
                lp = linear_program(objective, rows, [abs(b) for b in rhs])
                sol = solve_lp(lp)
                assert sol == reference_solve_lp(lp)
                optimal += sol.status == OPTIMAL
        assert optimal >= 25
        assert any(b == 0 for _, b in pivots)
        assert all(entry > 0 for entry, _ in pivots)

    def test_tall_strategy_programs_on_q4(self):
        # strategy programs of 100+ rows, the shape of a large strategy set
        for seed, rows in ((0, 100), (1, 150)):
            lp = strategy_program(pb.hypercube(4), random.Random(seed), rows, 7)
            sol = solve_lp(lp)
            assert len(lp.rows) >= rows and sol.status == OPTIMAL
            assert sol == reference_solve_lp(lp)

    def test_no_rows_or_no_columns(self):
        # m = 0 leaves only the cost row in the tableau, n = 0 only the rhs column
        cases = [
            ([1], [], []),
            ([0, "-1/2"], [], []),
            ([-1, 2, 0], [], []),
            ([], [], []),
            ([], [[], []], [0, 3]),
            ([], [[]], ["5/2"]),
        ]
        expected = [UNBOUNDED, OPTIMAL, UNBOUNDED, OPTIMAL, OPTIMAL, OPTIMAL]
        for (objective, rows, rhs), status in zip(cases, expected):
            lp = linear_program(objective, rows, rhs)
            sol = solve_lp(lp)
            assert sol.status == status and sol == reference_solve_lp(lp)
            if status == OPTIMAL:
                assert sol.optimum == 0 and sol.point == (0,) * len(objective) and sol.dual == (0,) * len(rows)

    def test_strategy_programs_on_q5_take_few_pivots(self, monkeypatch):
        # 25 induced trees of 10 vertices, as in the certify benchmark;
        # largest-improvement entry takes 11-14 pivots here, Bland's 115-168
        pivots = count_pivots(monkeypatch)
        for seed in range(3):
            lp = strategy_program(pb.hypercube(5), random.Random(seed), 25, 10)
            pivots.clear()
            sol = solve_lp(lp)
            assert sol.status == OPTIMAL and len(pivots) < 40
            assert sol == reference_solve_lp(lp)


class TestEntries:
    """LinearProgram holds exact rationals only; linear_program reads the rest."""

    def test_non_rational_entries_refused(self):
        cases = [
            ((1.0,), ((1,),), (1,)),
            ((1,), ((0.5,),), (1,)),
            ((1,), ((1,),), (1.5,)),
            ((1,), (("1",),), (1,)),
            ((None,), ((1,),), (1,)),
        ]
        for objective, rows, rhs in cases:
            with pytest.raises(LpError, match="integers or fractions"):
                LinearProgram(objective, rows, rhs)
        # ints and Fractions mix freely: max x + y/2 with 2x + y/3 <= 3/2 takes y = 9/2
        lp = LinearProgram((1, Fraction(1, 2)), ((2, Fraction(1, 3)),), (Fraction(3, 2),))
        assert solve_lp(lp).optimum == Fraction(9, 4)

    def test_linear_program_reads_exact_values(self):
        lp = linear_program([1, "2/3"], [[0.5, "1/7"]], ["3"])
        assert lp == LinearProgram((1, Fraction(2, 3)), ((Fraction(1, 2), Fraction(1, 7)),), (3,))
        assert all(type(x) is Fraction for x in (*lp.objective, *lp.rows[0], *lp.rhs))

    def test_nan_infinities_and_unreadable_strings_are_lp_errors(self):
        for bad in (float("nan"), float("inf"), float("-inf"), "one third", "1/0", None, [1], object()):
            for objective, rows, rhs in (([bad], [[1]], [1]), ([1], [[bad]], [1]), ([1], [[1]], [bad])):
                with pytest.raises(LpError, match="not an exact rational"):
                    linear_program(objective, rows, rhs)

    def test_non_sequences_are_lp_errors(self):
        cases = [
            (([1], None, [1]), "rows is not a sequence"),
            (([1], [1], [1]), "row is not a sequence"),
            ((None, [[1]], [1]), "objective is not a sequence"),
            (([1], [[1]], 1), "right-hand side is not a sequence"),
        ]
        for args, message in cases:
            with pytest.raises(LpError, match=message):
                linear_program(*args)

    def test_shape_and_sign_errors_keep_their_messages(self):
        # the conversion guard must not swallow LinearProgram's own errors
        with pytest.raises(LpError, match="row and right-hand-side counts differ"):
            linear_program([1, 1], [[1, "1/2"]], [1, 2])
        with pytest.raises(LpError, match="nonnegative right-hand side"):
            linear_program([1], [[1]], ["-1/3"])


def perturbed_duals(rng, dual):
    """The true dual, then duals nudged by a random unit fraction: one
    entry made negative, all shrunk or grown, one raised or lowered."""
    yield dual
    if not dual:
        return
    i = rng.randrange(len(dual))
    nudge = Fraction(1, rng.choice((2, 3, 5, 7, 97)))
    yield dual[:i] + (-nudge,) + dual[i + 1 :]
    yield tuple(v * (1 - nudge) for v in dual)
    yield tuple(v * (1 + nudge) for v in dual)
    yield dual[:i] + (dual[i] + nudge,) + dual[i + 1 :]
    yield dual[:i] + (max(dual[i] - nudge, Fraction(0)),) + dual[i + 1 :]


def mixed_denominator_programs(rng):
    """Seeded bounded and unbounded programs whose rows have different
    denominators: random signed programs, and Q4 strategy programs with
    each row scaled by its own fraction, as a weight function may be."""
    for _ in range(150):
        objective, rows, rhs = random_program(rng)
        if all(b >= 0 for b in rhs):
            yield linear_program(objective, rows, rhs)
    for seed in range(4):
        lp = strategy_program(pb.hypercube(4), random.Random(seed), 10, 6)
        factors = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 7, 12))) for _ in lp.rows]
        yield linear_program(
            lp.objective,
            [[a * f for a in row] for row, f in zip(lp.rows, factors)],
            [b * f for b, f in zip(lp.rhs, factors)],
        )


class TestDualCheck:
    """_dual_problem re-checks on integers; the Fraction reference must agree."""

    def test_agrees_with_the_fraction_reference(self):
        rng = random.Random(2801)
        seen = set()
        for lp in mixed_denominator_programs(rng):
            sol = solve_lp(lp)
            if sol.status != OPTIMAL:
                continue
            assert _dual_problem(lp, sol) is None
            for dual in perturbed_duals(rng, sol.dual):
                wrong = replace(sol, dual=dual)
                problem = _dual_problem(lp, wrong)
                assert problem == reference_dual_problem(lp, wrong)
                seen.add(problem if problem is None or not problem.startswith("dual violates column") else "column")
        assert seen == {None, "negative dual value", "column", "dual objective differs from the optimum"}

    def test_missing_or_short_dual(self):
        lp = linear_program([1, 1], [(2, "1/3"), ("1/2", 2)], [7, "7/5"])
        sol = solve_lp(lp)
        for dual in (None, sol.dual[:1], sol.dual + (Fraction(0),)):
            wrong = replace(sol, dual=dual)
            assert _dual_problem(lp, wrong) == reference_dual_problem(lp, wrong)
            assert "no dual of the right length" in _dual_problem(lp, wrong)


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
        with pytest.raises(InternalError, match="internal error"):
            pb.lp_pebbling_bound(c5, list(pb.cycle_strategy_pair(2)))

    def test_rows_are_the_certificates_integers(self):
        # each row is its certificate's integers without the root, capped at
        # their sum: the same optimum as the Fraction rows, and a dual per
        # scaled row that both dual checks accept
        rng = random.Random(3402)
        q4 = pb.hypercube(4)
        cases = [(pb.cycle_graph(5), list(pb.cycle_strategy_pair(2))), (q4, [pb.construction_certificate("q4star")])]
        program = strategy_program(q4, rng, 10, 6)
        factors = [Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 7))) for _ in program.rows]
        weights = [[0, *(x * f for x in row)] for row, f in zip(program.rows, factors)]
        cases.append((q4, [pb.certify_tree(q4, pb.weight_function(q4, w)) for w in weights]))
        for g, certs in cases:
            optimum, _, lp, sol = pb.lp_pebbling_bound(g, certs, return_lp=True)
            ints = [c.weight_function.integers[0] for c in certs]
            assert lp.rows == tuple(tuple(x for v, x in enumerate(row) if v != g.root) for row in ints)
            assert lp.rhs == tuple(sum(row) for row in ints)
            fractions = linear_program(
                lp.objective,
                [[x for v, x in enumerate(c.weight_function.weights) if v != g.root] for c in certs],
                [c.weight_function.total for c in certs],
            )
            assert optimum == sol.optimum == solve_lp(fractions).optimum
            assert _dual_problem(lp, sol) is None and reference_dual_problem(lp, sol) is None
        assert any(scale > 1 for _, scale in (c.weight_function.integers for c in cases[-1][1]))

    def test_empty_set(self, c5):
        with pytest.raises(LpError, match="need at least one certificate"):
            pb.lp_pebbling_bound(c5, [])

    def test_certificate_from_another_graph(self, c5):
        # checked before any weight is read: a bigger graph would index
        # past the weights, and a smaller one report a vertex uncovered
        path_cert = pb.construction_certificate("path", 2)
        cases = [
            (pb.hypercube(3), list(pb.cycle_strategy_pair(2))),
            (pb.path_graph(3), [path_cert]),
            (c5, [*pb.cycle_strategy_pair(2), path_cert]),
        ]
        for g, certs in cases:
            with pytest.raises(LpError, match="certificate lives on a different graph"):
                pb.lp_pebbling_bound(g, certs)

    def test_uncertified_certificate_refused(self):
        # the weights (1, 1) on P2 are invalid: (3, 0) is unsolvable and
        # weighs 3 > 2, so the LP's pi <= 3 would be wrong (pi is 4);
        # no certificate with a made-up status can be built to feed it
        g = pb.path_graph(2)
        w = pb.weight_function(g, [1, 1, 0])
        with pytest.raises(UncertifiedWeightError):
            pb.Certificate(w, "made-up")
        assert pb.pi_rooted(g).value == 4

    def test_bare_weight_function_refused(self):
        g = pb.path_graph(2)
        with pytest.raises(UncertifiedWeightError, match="every row must carry a certificate"):
            pb.lp_pebbling_bound(g, [pb.weight_function(g, [1, 1, 0])])

    def test_uncovered_vertex(self, c5):
        a, _ = pb.cycle_strategy_pair(2)
        with pytest.raises(LpError, match="vertex 4 has zero weight in every certificate"):
            pb.lp_pebbling_bound(c5, [a])


def count_scalings(monkeypatch):
    """Record the length of every vector scaled by _integers, in each module
    that uses it or might (pebbling_number reads WeightFunction.integers)."""
    calls = []

    def counted(values):
        calls.append(len(values))
        return _integers(values)

    for module in (configurations, strategies, lp_module, pebbling_number):
        monkeypatch.setattr(module, "_integers", counted, raising=False)
    return calls


def mixed_weights(g, rng):
    """Seeded weights, positive off the root, with mixed denominators."""
    return [
        0 if v == g.root else Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 5, 12))) for v in range(g.vertex_count)
    ]


class TestScaledOnce:
    """Each vector is scaled to integers where it is built, and read from there."""

    def test_strategy_lp_scales_each_row_once(self, monkeypatch):
        # as in the certify benchmark: weight functions built first, then
        # tree checks and the LP; at most one scaling per LP row, one for
        # the objective and one for the dual
        q5 = pb.hypercube(5)
        calls = count_scalings(monkeypatch)
        for seed in range(3):
            program = strategy_program(q5, random.Random(seed), 25, 10)
            # vertex 0 is the root, which the program has no variable for
            functions = [pb.weight_function(q5, [0, *row]) for row in program.rows]
            calls.clear()
            certs = [pb.certify_tree(q5, w) for w in functions]
            optimum, _ = pb.lp_pebbling_bound(q5, certs)
            assert len(certs) >= 25 and len(calls) <= len(certs) + 2
            assert optimum == solve_lp(program).optimum

    def test_oracle_scales_nothing(self, monkeypatch, c5, q3, fig2):
        # cycle (group), hypercube (group) and rooted cube (twin blocks)
        calls = count_scalings(monkeypatch)
        rng = random.Random(3001)
        for g in (c5, q3, fig2):
            for _ in range(3):
                w = pb.weight_function(g, mixed_weights(g, rng))
                calls.clear()
                pb.verify_validity_oracle(g, w)
                assert calls == []

    def test_cached_scaling_matches_a_fresh_one(self):
        rng = random.Random(3002)
        g = pb.rooted_cube(4)
        for _ in range(100):
            weights = [x if rng.random() < 0.7 else 0 for x in mixed_weights(g, rng)]
            w = pb.WeightFunction(g, tuple(weights))
            ints, scale = w.integers
            assert w.integers == _integers(w.weights)
            assert [Fraction(x, scale) for x in ints] == weights and w.total == sum(weights, start=Fraction(0))
        empty = linear_program([1, "1/2"], [], [])
        assert empty.integer_rows == () and empty.integer_objective == ((2, 1), 2)
        assert solve_lp(empty).status == UNBOUNDED
        for lp in (*mixed_denominator_programs(rng), empty):
            assert lp.integer_rows == tuple(_integers((*row, b)) for row, b in zip(lp.rows, lp.rhs))
            assert lp.integer_objective == _integers(lp.objective)
            for (ints, scale), row, b in zip(lp.integer_rows, lp.rows, lp.rhs):
                assert scale == math.lcm(*(x.denominator for x in (*row, b)))
                assert [Fraction(x, scale) for x in ints] == [*row, b]
