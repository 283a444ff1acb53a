import random
from fractions import Fraction
from itertools import chain, combinations
from math import factorial, lcm, prod
from operator import mul

import pytest

import pebbling as pb
from conftest import (
    build_nodes,
    builder_levels,
    builder_order,
    chung_tree_pi,
    greatest,
    maximal_elements,
    naive_pi_rooted,
    naive_solvable,
    naive_unsolvable_levels,
    orbit,
    random_connected_graph,
    random_counts,
    random_tree,
    reference_floor,
    reference_unsolvable_levels,
    root_zero_counts,
    stripped,
    symmetry_closure,
    symmetry_orbit,
    twin_blocks,
)
from pebbling import pebbling_number as engine
from pebbling.errors import InternalError, ResourceLimitError
from pebbling.fileformats import parse_graph, serialize_graph
from pebbling.graphs import distances_from
from pebbling.strategies import construction


def fresh(builder, g, **kwargs):
    """Drop the graph's cached down-set so the computation really runs."""
    g._cache.clear()
    return builder(g, **kwargs)


class TestPiRooted:
    def test_p3_end(self, p3):
        assert pb.pi_rooted(p3).value == 4

    def test_q3(self, q3):
        assert pb.pi_rooted(q3).value == 8

    def test_c5(self, c5):
        assert pb.pi_rooted(c5).value == 5

    def test_agrees_with_reference(self):
        cases = [
            pb.path_graph(1),
            pb.path_graph(2),
            pb.path_graph(3),
            pb.cycle_graph(3),
            pb.cycle_graph(4),
            pb.cycle_graph(5),
            pb.cycle_graph(6),
            pb.rooted_cube(3),
            pb.build_graph(4, [(0, 1), (0, 2), (0, 3)], root=1),  # star rooted at a leaf
            pb.build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)], root=0),
        ]
        for g in cases:
            assert fresh(pb.pi_rooted, g).value == naive_pi_rooted(g), g.edges

    def test_symmetry_off_matches(self, c5, q3):
        for g in (c5, q3):
            assert pb.pi_rooted(stripped(g)).value == fresh(pb.pi_rooted, g).value

    def test_witness_properties(self, c5, q3, p3):
        for g in (p3, c5, q3):
            res = pb.pi_rooted(g)
            w = res.witness_unsolvable
            assert w.size == res.value - 1
            assert w.counts[g.root] == 0
            assert not pb.is_solvable(g, w).solvable
            assert not naive_solvable(g, w.counts)

    def test_scan_record(self, c5):
        # every level of the down-set, then the empty level that ends it
        res = pb.pi_rooted(c5)
        assert res.exhaustiveness.sizes == tuple(range(res.value + 1))

    def test_diameter_lower_bound_invariant(self):
        for g in [pb.path_graph(3), pb.cycle_graph(5), pb.cycle_graph(7), pb.hypercube(3), pb.lollipop(1, 4)]:
            assert pb.pi_rooted(g).value >= 2 ** pb.diameter(g)

    def test_path_powers(self):
        for k in range(1, 6):
            assert pb.pi_rooted(pb.path_graph(k)).value == 2**k

    def test_odd_cycle_formula_small(self):
        for k in (1, 2, 3):
            assert pb.pi_rooted(pb.cycle_graph(2 * k + 1)).value == 2 * (2 ** (k + 1) // 3) + 1

    def test_stop_rule_documented_sizes_are_clean_beyond(self, c4):
        # levels past the first clean one stay clean
        value = pb.pi_rooted(c4).value
        for s in (value, value + 1, value + 2):
            assert all(naive_solvable(c4, c) for c in root_zero_counts(c4, s))

    def test_threads_give_identical_results(self):
        g = pb.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], root=0)
        sequential = fresh(pb.pi_rooted, g, threads=1)
        parallel = fresh(pb.pi_rooted, g, threads=2)
        assert sequential.value == parallel.value == 5
        assert sequential.witness_unsolvable.counts == parallel.witness_unsolvable.counts

    def test_wall_clock_cap_raises(self):
        q4 = pb.hypercube(4)
        q4._cache.clear()
        # the symmetric Q4 down-set takes about 0.3 s, six times the cap
        with pytest.raises(ResourceLimitError):
            pb.pi_rooted(q4, limits=pb.SearchLimits(max_seconds=0.05))
        # a run cut short leaves no partial down-set behind
        assert "down_set" not in q4._cache

    def test_node_cap_stops_the_scan(self):
        # each candidate the down-set builder decides is one search node
        c7 = pb.cycle_graph(7)
        c7._cache.clear()
        with pytest.raises(ResourceLimitError):
            pb.pi_rooted(c7, limits=pb.SearchLimits(max_nodes=50))
        assert "down_set" not in c7._cache

    def test_cap_reports_complete_levels(self):
        # the levels finished before the cap are a proven lower bound on pi
        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        for g in (c9, stripped(c9)):
            with pytest.raises(ResourceLimitError) as caught:
                pb.pi_rooted(g, limits=pb.SearchLimits(max_nodes=2_000))
            assert 1 <= caught.value.pi_lower < 21, engine._symmetry_mode(g)
        assert ResourceLimitError("plain cap").pi_lower is None

    def test_cap_inside_a_run(self):
        # on P6 a run's members are counted at once, so the cap trips part
        # way through one, past its first excess node; the complete levels
        # still bound pi from below and nothing is cached
        p6 = pb.path_graph(6)
        p6._cache.clear()
        solver = engine.shared_solver(p6)
        start = solver.stats.nodes
        with pytest.raises(ResourceLimitError) as caught:
            pb.pi_rooted(p6, limits=pb.SearchLimits(max_nodes=10_000))
        assert 1 <= caught.value.pi_lower < 64
        assert solver.stats.nodes - start > 10_001
        assert "down_set" not in p6._cache

    def test_cap_in_the_witness_check_reports_every_level(self):
        # the re-check of pi's witness from an empty memo outgrows the
        # build on the Theorem 3 lollipop (n = 1, m = 6), so a cap between
        # the two trips with the down-set complete
        g = _lollipop_1_6()
        witness = pb.pi_rooted(g).witness_unsolvable
        build = build_nodes(g)
        recheck = pb.Solver(g).solve(witness).stats.nodes
        assert build < recheck
        g._cache.clear()
        with pytest.raises(ResourceLimitError) as caught:
            pb.pi_rooted(g, limits=pb.SearchLimits(max_nodes=build))
        assert caught.value.pi_lower == 10
        assert "down_set" not in g._cache


def _lollipop_1_6():
    """Theorem 3's lollipop at n = 1, m = 6, its down-set dropped: its
    root is pendant, and pi's witness, 3 on u_0 and one on every middle,
    is above the floor, so the re-check searches from an empty memo."""
    g = construction("lollipop_general", 1, 6)[0]
    g._cache.clear()
    return g


class TestWitnessCheckMemo:
    """The witness re-check runs on the graph's shared solver from an
    empty memo and then drops it, so it leaves the solver's memo as it
    was, whether it passes, fails or hits a cap."""

    def test_the_shared_solver_counts_the_build_and_the_check(self):
        # every member of C9's down-set is below the floor, pi's witness
        # among them, so its re-check is one node; not so on the lollipop
        for g, counts in ((pb.cycle_graph(9), (9_394, 1, 0)), (_lollipop_1_6(), (103, 115, 35))):
            g._cache.clear()
            witness = pb.pi_rooted(g).witness_unsolvable
            check = pb.Solver(g).solve(witness).stats
            assert (build_nodes(g), check.nodes, check.memo_hits) == counts
            assert engine.shared_solver(g).stats.nodes == counts[0] + counts[1]

    def test_witness_query_is_one_floor_verdict(self):
        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        for g in (c9, stripped(c9)):
            witness = pb.pi_rooted(g).witness_unsolvable
            memo = dict(engine.shared_solver(g).memo)
            out = pb.is_solvable(g, witness)
            assert not out.solvable, engine._symmetry_mode(g)
            assert (out.stats.nodes, out.stats.memo_hits) == (1, 0), engine._symmetry_mode(g)
            assert engine.shared_solver(g).memo == memo

    def test_later_queries_match_the_reference(self, c5, fig2):
        rng = random.Random(9_173)
        for g in (c5, pb.cycle_graph(7), pb.path_graph(3), fig2):
            g._cache.clear()
            pi = pb.pi_rooted(g).value
            for i in range(40):
                counts = random_counts(rng, g, max_total=pi + 1)
                out = pb.is_solvable(g, pb.Configuration(g, counts), want_witness=i % 2 == 1)
                assert out.solvable == naive_solvable(g, counts), (g.edges, counts)

    def test_a_capped_check_hands_nothing_over(self):
        # the cap lets the build finish and stops the re-check, which
        # outgrows it (test_cap_in_the_witness_check_reports_every_level)
        g = _lollipop_1_6()
        build = build_nodes(g)
        g._cache.clear()
        solver = engine.shared_solver(g)
        pb.is_solvable(g, pb.Configuration(g, (0, 0, 1, 3, 1, 1, 1, 0, 0)))
        memo, before = solver.memo, dict(solver.memo)
        assert before
        with pytest.raises(ResourceLimitError):
            pb.pi_rooted(g, limits=pb.SearchLimits(max_nodes=build))
        assert engine.shared_solver(g) is solver
        assert solver.memo is memo and memo == before

    def test_a_passed_check_hands_nothing_over(self):
        # the re-check searches from an empty memo and fills it, then the
        # memo set aside for it is put back as it was
        g = _lollipop_1_6()
        solver = engine.shared_solver(g)
        pb.is_solvable(g, pb.Configuration(g, (0, 0, 1, 3, 1, 1, 1, 0, 0)))
        memo, before = solver.memo, dict(solver.memo)
        witness = pb.pi_rooted(g).witness_unsolvable
        check = pb.Solver(g)
        assert not check.solve(witness).solvable
        assert before and not check.memo.keys() <= before.keys()
        assert solver.memo is memo and memo == before

    def test_the_check_reads_no_earlier_entry(self):
        # a wrong verdict left in the shared memo cannot pass the witness
        g = _lollipop_1_6()
        witness = pb.pi_rooted(g).witness_unsolvable.counts
        g._cache.clear()
        solver = engine.shared_solver(g)
        solver.memo[sum(map(mul, witness, solver._unit))] = True
        assert pb.pi_rooted(g).witness_unsolvable.counts == witness

    def test_a_failed_check_hands_nothing_over(self, monkeypatch):
        g = _lollipop_1_6()
        solver = engine.shared_solver(g)
        pb.is_solvable(g, pb.Configuration(g, (0, 0, 1, 3, 1, 1, 1, 0, 0)))
        memo, before = solver.memo, dict(solver.memo)
        assert before
        # the builder decides by lookups, so only the re-check calls decide
        monkeypatch.setattr(pb.Solver, "decide", lambda self, counts: True)
        with pytest.raises(InternalError, match="witness re-verification failed"):
            pb.pi_rooted(g)
        assert solver.memo is memo and memo == before
        assert "down_set" not in g._cache

    def test_a_loosened_floor_fails_the_check(self):
        # a planted fault: the floor's threshold doubled, in each symmetry
        # regime (C5 under a group, P5 rooted at an end under none and
        # lollipop(1, 3) under blocks). The build then admits solvable
        # configurations below it and ends at a wrong pi, and the witness's
        # decide reads the same floor, so only the floor derived again
        # from its definition catches it (on a copy: the family's graph,
        # and so its solver, is shared)
        # (pi is 5, 32 and 8)
        for base, kind, levels in ((pb.cycle_graph(5), "group", 9), (pb.path_graph(5), "none", 47), (pb.lollipop(1, 3), "blocks", 12)):
            g = pb.build_graph(base.vertex_count, base.edges, base.root)
            assert engine._symmetry_mode(g)[0] == kind
            solver = engine.shared_solver(g)
            solver._high &= solver._high << 1
            loose = builder_levels(g, solver)
            assert len(loose) == levels and any(naive_solvable(g, c) for c in loose[-1]), kind
            with pytest.raises(InternalError, match="floor disagrees with its definition"):
                pb.pi_rooted(g)
            assert "down_set" not in g._cache


def _adjacent_twin_graphs():
    """Graphs with adjacent twins, so a move can stay inside one block,
    the one move the block-mode builder does not look up."""
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    clique = [(u, v) for u in range(2, 6) for v in range(u + 1, 6)]
    return [
        # K4 rooted at 0
        pb.build_graph(4, k4, root=0),
        # a triangle on a tail of two edges: 3 and 4 hold up to 7 pebbles
        pb.build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)], root=0),
        # a triangle with one more tail beyond it
        pb.build_graph(6, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)], root=0),
        # K4 hanging off the root's neighbour
        pb.build_graph(6, [(0, 1)] + [(1, v) for v in range(2, 6)] + clique, root=0),
    ]


def _down_set_cases():
    named = [pb.path_graph(k) for k in range(1, 5)]
    named += [pb.cycle_graph(n) for n in range(3, 7)]
    named += [pb.rooted_cube(3), pb.hypercube(3), pb.lollipop(1, 3)]
    named += _adjacent_twin_graphs()
    rng = random.Random(40_321)  # the random graphs of test_properties
    return named + [random_connected_graph(rng, n_min=2, n_max=5) for _ in range(30)]


class TestUnsolvableDownSet:
    def test_levels_match_reference_oracles(self):
        for g in _down_set_cases():
            reference = naive_unsolvable_levels(g)
            g._cache.clear()
            for h in (stripped(g), g):
                # the twins' orbits, else the root-fixing group's
                orbit_of, representative = symmetry_orbit(h), greatest(h)
                levels = builder_levels(h)
                # the engine stops at the first empty level; the reference keeps it
                assert len(levels) == len(reference) - 1, (g.edges, g.root, h)
                for size, level in enumerate(levels):
                    orbits = [orbit_of(c) for c in level]
                    expanded = set().union(*orbits)
                    # one representative per orbit, its greatest member in the builder's order
                    assert len(expanded) == sum(map(len, orbits)), (g.edges, size)
                    assert all(c == representative(o) for c, o in zip(level, orbits)), (g.edges, size)
                    assert expanded == reference[size], (g.edges, g.root, h, size)
                res = pb.pi_rooted(h)
                assert res.value == len(levels)
                # pi's witness is the greatest member of the last level in the ids' order
                assert res.witness_unsolvable.counts == max(expanded)
                assert res.witness_unsolvable.counts == max(reference[-2])


class TestMaximalRepresentatives:
    """The graph keeps only a summary of its down-set: the level count,
    the representative count, pi's witness and the maximal
    representatives, which max_unsolvable_weight scores."""

    def test_expand_to_the_maximal_unsolvable_configurations(self):
        kinds = set()
        for g in _down_set_cases():
            reference = naive_unsolvable_levels(g)
            expected = maximal_elements(reference)
            g._cache.clear()
            for h in (stripped(g), g):
                kinds.add(engine._symmetry_mode(h)[0])
                orbit_of, representative = symmetry_orbit(h), greatest(h)
                down = engine._down_set(h, pb.Solver(h))
                orbits = [orbit_of(c) for c in down.maximal]
                expanded = set().union(*orbits)
                # one representative per orbit, its greatest member in the builder's order
                assert len(expanded) == sum(map(len, orbits)), (g.edges, h)
                assert all(c == representative(o) for c, o in zip(down.maximal, orbits)), (g.edges, h)
                assert expanded == expected, (g.edges, g.root, h)
                # the last level is maximal whole, so it holds the witness
                assert max(reference[-2]) in expanded and down.witness == max(reference[-2])
                assert down.levels == len(reference) - 1
                assert down.representatives == sum(len({max(orbit_of(c)) for c in level}) for level in reference)
        assert kinds == {"none", "group", "blocks"}

    def test_c9_keeps_612_of_7572(self):
        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        down = engine._down_set(c9, pb.Solver(c9))
        # the maximal representatives stay packed keys until first read
        assert engine.down_set_sizes(c9) == (21, 7_572, 612, 7_572) and "maximal" not in vars(down)
        assert (down.levels, down.representatives, len(down.maximal)) == (21, 7_572, 612)
        assert down.maximal is down.maximal
        levels = builder_levels(c9)
        assert (len(levels), sum(map(len, levels))) == (21, 7_572)
        assert down.witness == max(set().union(*map(symmetry_orbit(c9), levels[-1])))

    def test_the_same_work_in_every_mode(self):
        # one graph per symmetry regime: the candidates its build decides,
        # its representatives and its maximal representatives
        cases = (
            (pb.path_graph(6), "none", (27_330, 25_510, 1_626)),
            # one image lane: the reflection is the only other element
            (pb.cycle_graph(9), "group", (9_394, 7_572, 612)),
            (pb.rooted_cube(4), "group", (1_101, 779, 88)),
            (pb.lollipop(2), "blocks", (1_205, 920, 51)),
        )
        for g, kind, sizes in cases:
            g._cache.clear()
            mode, data = engine._symmetry_mode(g)
            assert mode == kind
            if kind == "group":
                # the builder drops the first element as the identity
                assert data[0](tuple(range(g.vertex_count))) == tuple(range(g.vertex_count))
            down = engine._down_set(g, pb.Solver(g))
            assert (build_nodes(g), down.representatives, len(down.maximal)) == sizes, kind


def _spider(*legs):
    """The spider rooted at its centre 0, with a leg of each length."""
    edges, n = [], 1
    for length in legs:
        for k in range(length):
            edges.append((n - 1 if k else 0, n))
            n += 1
    return pb.build_graph(n, edges, root=0)


def _relabeled_from_file(g, seed):
    """A seeded relabeling of g, read back through the file format: its
    symmetry is found from its edges, as a generated graph's is."""
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    moved = pb.build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges], root=perm[g.root])
    return parse_graph(serialize_graph(moved))


def _relabeled_path_from_file(k, seed):
    return _relabeled_from_file(pb.path_graph(k), seed)


class TestRuns:
    """The members below the floor that follow one another along the
    builder's last vertex are admitted as one run each and kept in no
    level dict (see the module docstring); they must come out as the
    members one at a time did."""

    def test_members_admitted_in_runs(self):
        # a change that stops making runs changes these counts
        cases = (
            (pb.path_graph(6), "none", 23_718),
            (pb.cycle_graph(9), "group", 5_749),
            (pb.rooted_cube(4), "group", 353),
            # the last vertex is u_0, the farthest, not a twin
            (pb.lollipop(3), "blocks", 10_056),
        )
        for g, kind, in_runs in cases:
            assert engine._symmetry_mode(g)[0] == kind
            solver = pb.Solver(g)
            builder_levels(g, solver)
            assert solver.stats.in_runs == in_runs, kind

    def test_levels_match_the_full_reference_in_every_mode(self):
        cases = (
            # twin root neighbours 1 and 2, so the floor lanes differ across the block
            (_spider(1, 1, 3), "blocks", 54),
            # the last vertex, 5, is a twin of 4
            (pb.build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)], root=0), "blocks", 242),
            # runs along u_0, past the twin middles
            (pb.lollipop(2, 3), "blocks", 254),
            (_spider(3, 3), "group", 267),
            (_relabeled_path_from_file(6, 104_729), "none", 23_718),
        )
        for g, kind, in_runs in cases:
            g._cache.clear()
            assert engine._symmetry_mode(g)[0] == kind
            full = reference_unsolvable_levels(g, pb.Solver(g), full=True)
            solver = pb.Solver(g)
            unpack = engine._layout(g, kind)[2]
            orbit_of = symmetry_orbit(g)
            levels = []
            for level in engine._levels(g, solver, []):
                keys = list(level)
                # a level's length counts its run members without building them
                assert len(level) == len(set(keys)) == len(keys), (g.edges, len(levels))
                levels.append(set().union(*(orbit_of(unpack(key)) for key in keys)))
            assert solver.stats.in_runs == in_runs, g.edges
            assert tuple(levels) == full, g.edges
            down = engine._down_set(g, pb.Solver(g))
            assert set().union(*map(orbit_of, down.maximal)) == maximal_elements(full), g.edges
            assert down.witness == max(full[-1]), g.edges


class TestTheFloorDecidesWholeLevels:
    """Where level s holds no member above the floor, the builder decides
    each candidate of size s+1 above it by whether some vertex holds two
    pebbles, with no lookup (see the module docstring). These tests check
    that rule on full down-sets that the solver decides candidate by
    candidate, and on reference_floor, none of it the builder's."""

    def test_no_stack_above_the_floor_after_a_level_with_none(self):
        rng = random.Random(45_045)
        graphs = [pb.cycle_graph(5), pb.path_graph(4), pb.rooted_cube(3)]
        graphs += [random_connected_graph(rng, n_min=2, n_max=6) for _ in range(30)]
        applied = admitted = 0
        for g in graphs:
            full = reference_unsolvable_levels(g, pb.Solver(g), full=True)
            above = [{p for p in level if not reference_floor(g, p)} for level in full]
            free = [v for v in range(g.vertex_count) if v != g.root]
            for s, nxt in enumerate(above[1:]):
                if not above[s]:
                    applied += 1
                    admitted += len(nxt)
                    assert all(max(p) < 2 for p in nxt), (g.edges, g.root, s)
                    # and each with no two on a vertex has no move, so it is a member
                    ones = (tuple(int(v in vs) for v in range(g.vertex_count)) for vs in combinations(free, s + 1))
                    assert {p for p in ones if not reference_floor(g, p)} <= nxt, (g.edges, g.root, s)
        assert applied > 100 and admitted > 10

    def test_a_member_with_no_stack_is_admitted(self):
        # root 0 - a 1 - {b 2, c 3}: (a, b, c) = (1, 1, 1) has Phi_a = 2, the
        # first member above the floor, and no move
        g = pb.build_graph(4, [(0, 1), (1, 2), (1, 3)], root=0)
        assert engine._symmetry_mode(g)[0] == "blocks"
        levels = builder_levels(g)
        above = [{p for p in level if not reference_floor(g, p)} for level in levels]
        assert above == [set(), set(), set(), {(0, 1, 1, 1)}, {(0, 0, 3, 1)}]
        # level 3 holds one, so the rule does not decide level 4: (0, 0, 3, 1)
        # holds a stack of 3, and b -> a leaves one pebble on each of a, b, c
        orbit_of = symmetry_orbit(g)
        assert [set().union(*map(orbit_of, level)) for level in levels] == naive_unsolvable_levels(g)[:-1]
        assert pb.pi_rooted(g).value == chung_tree_pi(g) == 5


    def test_lookups_are_counted(self):
        # on paths, cycles and spiders no level holds a member above the
        # floor, so the floor decides every candidate and none is looked
        # up; a `twos` mask that misses a stack sends candidates back to
        # the lookups and changes these counts
        cases = [(pb.path_graph(6), 0), (pb.cycle_graph(5), 0), (pb.cycle_graph(9), 0)]
        cases += [(_spider(1, 1, 3), 0), (_spider(3, 3), 0), (_spider(5, 5), 0)]
        cases += [(pb.rooted_cube(3), 14), (pb.hypercube(3), 65), (pb.rooted_cube(4), 582)]
        cases += [(pb.lollipop(2), 806), (pb.lollipop(3), 42_605)]
        for g, lookups in cases:
            solver = pb.Solver(g)
            for _ in engine._levels(g, solver, []):
                pass
            assert solver.stats.lookups == lookups, g.edges


class TestChungTrees:
    """pi_rooted on trees against Chung's formula (conftest.chung_tree_pi).
    On paths and spiders no level holds a member above the floor, so the
    floor and the two-pebble test decide every candidate; a tree that
    branches away from the root has members above it."""

    def test_trees_match_the_formula(self):
        for legs, pi in (((1, 1, 3), 10), ((3, 3), 15), ((2, 2, 1), 8)):
            g = _spider(*legs)
            assert chung_tree_pi(g) == pb.pi_rooted(g).value == pi, legs
        # seeded random trees, bounds fixed up front: 2 to 9 vertices, and
        # those whose formula gives more than 40 skipped (a long path takes seconds)
        rng = random.Random(1_989)
        checked = branching = mixed = 0
        for n in range(2, 10):
            for _ in range(8):
                g = random_tree(rng, n, n)
                expected = chung_tree_pi(g)
                if expected > 40:
                    continue
                assert pb.pi_rooted(g).value == expected, (g.edges, g.root)
                _, reps, _, below = engine.down_set_sizes(g)
                checked += 1
                branching += any(len(g.neighbors[v]) > 2 for v in range(n) if v != g.root)
                mixed += below < reps
        # members above the floor occur, on trees whose non-root vertices branch
        assert checked >= 60 and branching >= 20 and mixed >= 20


class TestAgainstReferenceBuilder:
    def test_levels_match_the_solver_driven_builder(self):
        # graphs too large for naive_unsolvable_levels
        graphs = [
            pb.cycle_graph(7),
            pb.cycle_graph(9),
            pb.rooted_cube(4),
            pb.lollipop(2, 3),
            _relabeled_path_from_file(6, 7_919),
            # ties in distance, which the nearest-first order breaks by id
            _relabeled_from_file(pb.cycle_graph(9), 3),
        ]
        for g in graphs:
            g._cache.clear()
            full = reference_unsolvable_levels(g, pb.Solver(g), full=True)
            reduced = reference_unsolvable_levels(g, pb.Solver(g))
            for h in (stripped(g), g):
                levels = builder_levels(h)
                # each representative is the greatest of its orbit in the
                # builder's order, and the orbits make up the full scan
                orbit_of, representative = symmetry_orbit(h), greatest(h)
                orbits = [[orbit_of(c) for c in level] for level in levels]
                assert all(
                    c == representative(o) for level, os in zip(levels, orbits) for c, o in zip(level, os)
                ), g.edges
                assert tuple(set().union(*os) for os in orbits) == full, (g.edges, g.root, h)
                # and the graph keeps the orbits of the maximal ones and
                # the greatest member of the last level
                down = engine._down_set(h, pb.Solver(h))
                assert set().union(*map(orbit_of, down.maximal)) == maximal_elements(full), (g.edges, h)
                assert down.witness == max(full[-1]), (g.edges, h)
            assert levels == reduced, (g.edges, g.root)

    def test_mixed_floors_under_a_group(self):
        # under a group the level sets keep only the members above the
        # floor; on these graphs the root has several neighbours, so the
        # floor has several lanes, and representatives fall on both sides
        # of it: Q3 (57 of 85 below) and seeded random graphs
        def mixed(g):
            if engine._symmetry_mode(g)[0] != "group" or len(g.neighbors[g.root]) < 2:
                return False
            engine._down_set(g, pb.Solver(g))
            _, reps, _, below = engine.down_set_sizes(g)
            return 0 < below < reps

        q3 = pb.hypercube(3)
        rng = random.Random(41_041)
        graphs = [pb.build_graph(q3.vertex_count, q3.edges, q3.root)]
        # 126 draws find the five; a bound, so a builder that admits no
        # member above the floor fails here instead of drawing forever
        for _ in range(1_000):
            if len(graphs) == 6:
                break
            g = random_connected_graph(rng, n_min=5, n_max=8)
            if mixed(g):
                graphs.append(g)
        assert len(graphs) == 6
        for g in graphs:
            assert mixed(g), (g.edges, g.root)
            down = g._cache["down_set"]
            full = reference_unsolvable_levels(g, pb.Solver(g), full=True)
            orbit_of = symmetry_orbit(g)
            orbits = tuple(set().union(*map(orbit_of, level)) for level in builder_levels(g))
            assert orbits == full, (g.edges, g.root)
            assert set().union(*map(orbit_of, down.maximal)) == maximal_elements(full), (g.edges, g.root)
            assert down.witness == max(full[-1]), (g.edges, g.root)


def _image_lanes(g):
    """The builder's image lanes for g's group, and pack(counts): the
    packed key of a counts tuple and its packed images."""
    kind, group = engine._symmetry_mode(g)
    assert kind == "group"
    unit = engine._layout(g, kind)[1]
    lanes = engine._ImageLanes(group, unit, distances_from(g, g.root))

    def pack(counts):
        return sum(map(mul, counts, unit)), sum(map(mul, counts, lanes.lift))

    return lanes, pack


class TestImageLanes:
    """A key's images under the group, but the identity, packed as lanes
    of one integer: the lifts build them, unpacking gives them back and
    the guard bits compare the key with each, checked against the
    reference group (symmetry_closure) and orbits."""

    CASES = (
        (pb.cycle_graph, 9, 1, 29),
        (pb.rooted_cube, 4, 5, 29),
        (pb.rooted_cube, 5, 23, 65),
    )

    @pytest.mark.parametrize("family, size, lanes_count, width", CASES)
    def test_lanes_hold_the_orbit(self, family, size, lanes_count, width):
        g = family(size)
        lanes, pack = _image_lanes(g)
        closure = symmetry_closure(g)
        assert (len(lanes.shifts), lanes.width) == (lanes_count, width) and len(closure) == lanes_count + 1
        dist = distances_from(g, g.root)
        rng = random.Random(3_701 + size)
        # any count that fits its field, the root's too, so a key's top
        # bit is set (the builder's keys leave the root's field empty)
        configs = [tuple(0 for _ in dist), tuple((2 << d) - 1 for d in dist)]
        configs += [tuple(rng.randrange(2 << d) for d in dist) for _ in range(150)]
        for counts in configs:
            key, images = pack(counts)
            images_of = orbit(closure, counts)
            members = {pack(c)[0] for c in images_of}
            unpacked = lanes.unpack(images)
            assert len(unpacked) == lanes_count and {key, *unpacked} == members, counts
            assert lanes.is_max(key, images) == (key == max(members)), counts
            best = max(images_of, key=lambda c: pack(c)[0])
            assert lanes.is_max(*pack(best)), best

    @pytest.mark.parametrize("family, size", [case[:2] for case in CASES])
    def test_a_fixed_key_equals_its_image(self, family, size):
        # a configuration constant on the cycles of a non-identity
        # automorphism is its own image there, so the test must pass on
        # equality at the orbit's maximum
        g = family(size)
        lanes, pack = _image_lanes(g)
        closure = sorted(symmetry_closure(g))
        n, dist = g.vertex_count, distances_from(g, g.root)
        rng = random.Random(3_709 + size)
        for _ in range(60):
            perm = rng.choice(closure[1:])
            counts = [0] * n
            for v in range(n):
                if counts[v] == 0:
                    c, u = rng.randrange(1, 2 << dist[v]), v
                    while True:
                        counts[u], u = c, perm[u]
                        if u == v:
                            break
            best = max(orbit(closure, counts), key=lambda c: pack(c)[0])
            key, images = pack(best)
            assert key in lanes.unpack(images) and lanes.is_max(key, images), best
            for c in orbit(closure, counts):
                if pack(c)[0] != key:
                    assert not lanes.is_max(*pack(c)), c

    def test_the_identity_comes_first(self):
        g = pb.rooted_cube(4)
        group, unit = engine._symmetry_mode(g)[1], engine._layout(g, "group")[1]
        with pytest.raises(InternalError):
            engine._ImageLanes(group[::-1], unit, distances_from(g, g.root))


class TestOrbitBuilder:
    """The group-mode builder: levels of representatives, looked up
    among every orbit member of the level below. Block mode looks a
    child up at the run ends of its blocks instead."""

    def test_q4_levels_expand_to_the_full_down_set(self):
        q4 = pb.hypercube(4)
        group = symmetry_closure(q4)
        assert len(group) == 24
        q4._cache.clear()
        plain = stripped(q4)
        full = builder_levels(plain)
        reduced = builder_levels(q4)
        assert len(reduced) == len(full) == 16
        representative = greatest(q4)
        for size, (level, reference) in enumerate(zip(reduced, full)):
            orbits = [orbit(group, c) for c in level]
            expanded = set().union(*orbits)
            assert len(expanded) == sum(map(len, orbits)), size
            assert all(c == representative(o) for c, o in zip(level, orbits)), size
            assert expanded == reference, size


def _last(order, counts):
    """The position in ``order`` of the last vertex holding a pebble (0
    for the empty configuration)."""
    return max((i for i, v in enumerate(order) if counts[v]), default=0)


def _admitted(g, levels):
    """The number of extensions p + e_v (v at or after last(p) in the
    builder's order, below the cap) of the representatives p that are
    the maximum of their orbit in that order."""
    orbit_of, representative = symmetry_orbit(g), greatest(g)
    dist = pb.distances_from(g, g.root)
    order = builder_order(g)
    admitted = 0
    for level in levels:
        for p in level:
            for v in order[_last(order, p) :]:
                if v != g.root and p[v] + 1 < 1 << dist[v]:
                    q = p[:v] + (p[v] + 1,) + p[v + 1 :]
                    admitted += q == representative(orbit_of(q))
    return admitted


class TestOrderlyGeneration:
    """The builder extends a representative p only at vertices at or
    after last(p) in its order (nearest-first, ties to the smaller id, in
    every regime) and only to the maximum of an orbit in that order
    (under block symmetry, a block-sorted tuple)."""

    def test_last_pebble_parent_is_a_representative(self):
        graphs = (
            pb.cycle_graph(9),
            pb.rooted_cube(4),
            pb.hypercube(3),
            pb.lollipop(2, 3),
            _relabeled_from_file(pb.rooted_cube(4), 5),
        )
        for g in graphs:
            orbit_of, representative = symmetry_orbit(g), greatest(g)
            order = builder_order(g)
            g._cache.clear()
            levels = builder_levels(g)
            for size in range(1, len(levels)):
                for q in levels[size]:
                    assert q == representative(orbit_of(q)), (g.edges, q)
                    last = order[_last(order, q)]
                    parent = q[:last] + (q[last] - 1,) + q[last + 1 :]
                    assert parent in levels[size - 1], (g.edges, q)

    def test_each_candidate_is_decided_once(self):
        # one search node per extension the rule admits: none is decided
        # twice, and under a group no non-maximum is decided
        graphs = (
            _relabeled_from_file(pb.cycle_graph(9), 11),
            # every unsolvable candidate here is below the potential floor
            _relabeled_path_from_file(6, 7_919),
            pb.lollipop(2, 3),
            pb.cycle_graph(9),
            pb.rooted_cube(4),
            pb.hypercube(3),
        )
        for g in graphs:
            g._cache.clear()
            solver = pb.Solver(g)
            levels = builder_levels(g, solver)
            assert solver.stats.nodes == _admitted(g, levels), g.edges


class TestNearestFirstOrder:
    """With no symmetry the builder walks the vertices nearest-first, so
    what it decides depends on the graph, not on its numbering, and
    every order gives the same down-set."""

    def _relabeled_copies_agree(self, g, copies, full):
        # on a path every vertex has its own distance, which names it
        dist = pb.distances_from(g, g.root)
        expected = maximal_elements(full)
        nodes = set()
        for h in (g, *copies):
            h._cache.clear()
            assert engine._symmetry_mode(h) == ("none", None)
            to_h = [pb.distances_from(h, h.root).index(d) for d in dist]

            def moved(counts):
                out = [0] * h.vertex_count
                for v, c in enumerate(counts):
                    out[to_h[v]] = c
                return tuple(out)

            res = pb.pi_rooted(h)
            # the build and the witness re-check, both on the shared solver
            nodes.add(engine.shared_solver(h).stats.nodes)
            assert res.value == len(full), h.edges
            assert res.witness_unsolvable.counts == max(map(moved, full[-1])), h.edges
            assert set(h._cache["down_set"].maximal) == set(map(moved, expected)), h.edges
        return nodes

    def test_relabeled_paths_decide_alike(self):
        g = pb.path_graph(6)
        copies = [_relabeled_path_from_file(6, seed) for seed in (1, 2, 3)]
        full = reference_unsolvable_levels(g, pb.Solver(g), full=True)
        # the build's 27,330 candidates and the witness re-check's one
        # node; in vertex-id order path_graph(6) took 71,335
        assert self._relabeled_copies_agree(g, copies, full) == {27_331}

    def test_relabeled_short_paths_match_the_naive_oracle(self):
        g = pb.path_graph(4)
        copies = [_relabeled_path_from_file(4, seed) for seed in (1, 2, 3)]
        full = naive_unsolvable_levels(g)[:-1]
        assert len(self._relabeled_copies_agree(g, copies, full)) == 1

    def test_wall_clock_cap_stops_the_build(self):
        # the deadline is checked once per level and every 4,096 nodes
        g = stripped(pb.hypercube(4))
        assert engine._symmetry_mode(g) == ("none", None)
        # a zero cap trips at the first level's check, before any candidate
        solver = pb.Solver(g)
        with pytest.raises(ResourceLimitError) as caught:
            engine._down_set(g, solver.begin(pb.SearchLimits(max_seconds=0)))
        assert (caught.value.pi_lower, solver.stats.nodes) == (1, 0)
        # the full build takes about 0.5 s, ten times the cap
        with pytest.raises(ResourceLimitError) as caught:
            pb.pi_rooted(g, limits=pb.SearchLimits(max_seconds=0.05))
        assert 1 <= caught.value.pi_lower < 16
        assert "down_set" not in g._cache


class TestPotentialFloor:
    """A candidate below the floor, Phi_a < 2 for every root neighbour a,
    is admitted without a lookup. One on it or above is decided by the
    lookup branch, unless the floor decides its whole level: a member
    when none of its moves leads out of the level below, so a candidate
    with no move at all is one."""

    def test_potential_one_is_not_below_the_floor(self, p3):
        p3._cache.clear()
        levels = builder_levels(p3)
        # (2, 1, 0) has potential 2/4 + 1/2 = 1 and is solvable: 0 -> 1, 1 -> r
        assert (2, 1, 0) not in levels[3]
        # (3, 0, 0) has potential 3/4
        assert (3, 0, 0) in levels[3]

    def test_no_legal_move_is_admitted(self):
        # root 0 - a 1 - {b 2, c 3}: one pebble on each of a, b and c has
        # Phi_a = 1 + 1/2 + 1/2 = 2 and no move, so the lookup branch
        # admits it with nothing to look up. b - d 4 leaves no symmetry,
        # and c - e 5 then brings back b <-> c, d <-> e, not as twins
        base = [(0, 1), (1, 2), (1, 3)]
        for extra, kind, lookups in (([], "blocks", 4), ([(2, 4)], "none", 33), ([(2, 4), (3, 5)], "group", 91)):
            g = pb.build_graph(4 + len(extra), base + extra, root=0)
            assert engine._symmetry_mode(g)[0] == kind
            q = (0, 1, 1, 1) + (0,) * len(extra)
            assert not reference_floor(g, q)
            solver = pb.Solver(g)
            levels = builder_levels(g, solver)
            assert q in levels[3] and solver.stats.lookups == lookups, kind
            orbit_of = symmetry_orbit(g)
            reference = naive_unsolvable_levels(g)
            assert [set().union(*map(orbit_of, level)) for level in levels] == reference[:-1], kind


class TestMaxUnsolvableWeight:
    def test_p3_doubling_weights(self, p3):
        w = pb.weight_function(p3, (1, 2, 0))
        worst, achiever = pb.max_unsolvable_weight(p3, w)
        assert worst == 3
        assert achiever.counts == (3, 0, 0)

    def test_p2(self, p2):
        w = pb.weight_function(p2, (1, 0))
        worst, achiever = pb.max_unsolvable_weight(p2, w)
        assert worst == 1 and achiever.counts == (1, 0)

    def test_fig2_is_tight(self, fig2):
        _, w = pb.construction("fig2")
        bound = pb.pi_rooted(fig2).value - 1
        worst, achiever = pb.max_unsolvable_weight(fig2, w)
        # independent recomputation over every unsolvable configuration
        best = Fraction(0)
        for size in range(0, bound + 1):
            for counts in root_zero_counts(fig2, size):
                if not naive_solvable(fig2, counts):
                    value = sum(c * w.weights[v] for v, c in enumerate(counts))
                    best = max(best, value)
        assert worst == best == Fraction(11, 3)
        assert not naive_solvable(fig2, achiever.counts)
        assert sum(c * w.weights[v] for v, c in enumerate(achiever.counts)) == worst

    def test_achiever_is_unsolvable(self, c5):
        _, w = pb.construction("cycle_combined", 2)
        worst, achiever = pb.max_unsolvable_weight(c5, w)
        assert not pb.is_solvable(c5, achiever).solvable
        assert worst <= w.total

    def test_asymmetric_weights_stay_exact(self, q3):
        # a weight function not constant on the orbits reads the same down-set
        w = pb.weight_function(q3, (0, 8, 4, 2, 2, 1, 1, 1))
        worst, achiever = pb.max_unsolvable_weight(q3, w)
        best = Fraction(0)
        for size in range(0, 8):
            for counts in root_zero_counts(q3, size):
                if not naive_solvable(q3, counts):
                    best = max(best, sum(c * w.weights[v] for v, c in enumerate(counts)))
        assert worst == best
        assert not naive_solvable(q3, achiever.counts)


class TestTwinsFromTheEdges:
    """A graph file's twins are found from its edges, and weights that
    differ between them must still be scored at each orbit's heaviest
    arrangement, not at the block-sorted representative."""

    def test_differing_twin_weights(self):
        g = parse_graph(serialize_graph(pb.lollipop(1, 4)))
        assert engine._symmetry_mode(g) == ("blocks", ((3, 4, 5, 6),))
        # four different weights on the four middles u_1 .. u_4
        w = pb.weight_function(g, (0, 2, Fraction(1, 2), Fraction(1, 2), Fraction(3, 4), 1, Fraction(5, 4)))
        assert len({w.weights[v] for v in (3, 4, 5, 6)}) == 4
        worst, achiever = pb.max_unsolvable_weight(g, w)
        reference = naive_unsolvable_levels(g)
        best = max((sum(map(mul, w.weights, c)), c) for level in reference for c in level)
        assert (worst, achiever.counts) == best
        assert not naive_solvable(g, achiever.counts)
        # the block-sorted representatives alone top out at w(1_G) = 6
        assert worst == Fraction(13, 2) > w.total
        res = pb.verify_validity_oracle(g, w)
        assert not res.valid and res.max_unsolvable == worst


class TestScatteredTwins:
    """The builder caches a block's move deltas on the bits of the
    packed key that span the block's fields. In a relabeled file the
    twins' ids, and so their fields, are scattered among other
    vertices', whose counts then take part in the cache key."""

    def _scattered(self, g, seed):
        h = _relabeled_from_file(g, seed)
        kind, (block,) = engine._symmetry_mode(h)
        assert kind == "blocks" and max(block) - min(block) >= len(block), block
        return h

    def test_levels_match_the_naive_oracle(self):
        h = self._scattered(pb.lollipop(1, 4), 2)
        reference = naive_unsolvable_levels(h)
        orbit_of = symmetry_orbit(h)
        levels = builder_levels(h)
        assert [set().union(*map(orbit_of, level)) for level in levels] == reference[:-1]

    def test_eight_scattered_twins_match_a_scan_without_symmetry(self):
        # too large for the naive oracle: the no-symmetry scan of the same
        # graph decides 154,458 configurations and derives no block deltas
        h = self._scattered(pb.lollipop(2), 1)
        plain = pb.build_graph(h.vertex_count, h.edges, h.root)
        plain._cache["symmetry_mode"] = ("none", None)
        full = builder_levels(plain)
        orbit_of = symmetry_orbit(h)
        assert tuple(set().union(*map(orbit_of, level)) for level in builder_levels(h)) == full
        res = pb.pi_rooted(h)
        assert res.value == len(full) == 16
        assert res.witness_unsolvable.counts == max(full[-1])


def _heaviest(g, weights):
    worst, achiever = pb.max_unsolvable_weight(g, pb.weight_function(g, weights))
    return worst, achiever.counts


def _random_weights(rng, g):
    # few distinct values, so that ties reach the lexicographic tie-break
    weights = [Fraction(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(g.vertex_count)]
    weights[g.root] = Fraction(0)
    return weights


def _planted_twin_graph(rng):
    """A random connected graph on 2-4 vertices with 1-3 planted twins,
    relabeled at random. A twin copies a non-root vertex's neighbours:
    open twins are not adjacent, adjacent twins are, and each class of
    twins is of one kind."""
    n = rng.randint(2, 4)
    base = random_connected_graph(rng, n_min=n, n_max=n, max_extra=1)
    classes = [[v] for v in range(n)]
    adjacent = {}
    for _ in range(rng.randint(1, 3)):
        v = rng.choice([u for u in range(n) if u != base.root])
        adjacent.setdefault(v, rng.random() < 0.5)
        classes[v].append(sum(map(len, classes)))
    return _with_twins(rng, base, classes, adjacent)


def _multi_block_graph(rng):
    """A random connected graph on 3-6 vertices in which 2-3 non-root
    vertices within distance 2 of the root each become a class of 2-4
    open or adjacent twins (no two of them twins already, which would
    merge their classes), relabeled at random. Half the time two of
    the classes come from the ends of one edge, so that moves run from
    one block into another. The largest classes shrink until the graph
    has at most 8 vertices and the twins' group at most 48 elements,
    which keeps the plain down-set and the reference orbits small."""
    n = rng.randint(3, 6)
    base = random_connected_graph(rng, n_min=n, n_max=n, max_extra=1)
    dist = pb.distances_from(base, base.root)
    near = [v for v in range(n) if 0 < dist[v] <= 2]
    if len(near) < 2:
        return _multi_block_graph(rng)
    between = [e for e in base.edges if set(e) <= set(near)]
    chosen = list(rng.choice(between)) if between and rng.random() < 0.5 else rng.sample(near, 2)
    if n < 6 and len(near) > 2 and rng.random() < 0.3:
        chosen.append(rng.choice([v for v in near if v not in chosen]))
    if any(set(base.neighbors[u]) - {v} == set(base.neighbors[v]) - {u} for u, v in combinations(chosen, 2)):
        # twins in the base would grow into one class, not two
        return _multi_block_graph(rng)
    sizes = {v: rng.randint(2, 4) for v in chosen}
    while n + sum(sizes.values()) - len(sizes) > 8 or prod(map(factorial, sizes.values())) > 48:
        sizes[max(sizes, key=sizes.get)] -= 1
    classes = [[v] for v in range(n)]
    adjacent = {}
    for v in chosen:
        adjacent[v] = rng.random() < 0.5
        classes[v] += [sum(map(len, classes)) + i for i in range(sizes[v] - 1)]
    return _with_twins(rng, base, classes, adjacent)


def _with_twins(rng, base, classes, adjacent):
    """base with each vertex v replaced by the twins classes[v] (adjacent
    to each other when adjacent.get(v)), relabeled at random. Block mode
    finds the classes from the edges, merged with any twins the base
    already had."""
    edges = [(a, b) for u, v in base.edges for a in classes[u] for b in classes[v]]
    edges += [(a, b) for v, twin in adjacent.items() if twin for a, b in combinations(classes[v], 2)]
    total = sum(map(len, classes))
    label = list(range(total))
    rng.shuffle(label)
    moved = [(label[a], label[b]) for a, b in edges]
    return pb.build_graph(total, moved, root=label[base.root])


def _planted_rotation_graph(rng):
    """k = 2 or 3 copies of a random rooted graph on 2-3 vertices, glued
    at the root, with 0-2 orbits of cross edges between the copies,
    relabeled at random. The rotation of the copies is a root-fixing
    automorphism, so the graph has a group of order at least k, found
    from its edges. Two copies take three vertices, because two
    one-vertex copies are twins (block mode)."""
    k = rng.randint(2, 3)
    n = 3 if k == 2 else rng.randint(2, 3)
    base = random_connected_graph(rng, n_min=n, n_max=n, max_extra=1)
    free = [v for v in range(n) if v != base.root]
    # vertex 0 is the root; copy i of free[j] is 1 + j*k + i
    at = {(v, i): 1 + j * k + i for j, v in enumerate(free) for i in range(k)}
    at.update({(base.root, i): 0 for i in range(k)})
    pairs = {(at[u, i], at[v, i]) for u, v in base.edges for i in range(k)}
    for _ in range(rng.randint(0, 2)):
        a, b, shift = rng.choice(free), rng.choice(free), rng.randrange(1, k)
        pairs |= {(at[a, i], at[b, (i + shift) % k]) for i in range(k)}
    total = 1 + len(free) * k
    label = list(range(total))
    rng.shuffle(label)
    edges = {(min(label[a], label[b]), max(label[a], label[b])) for a, b in pairs}
    return pb.build_graph(total, sorted(edges), root=label[0])


def _full_heaviest(full, weights):
    """The heaviest configuration of a full down-set under ``weights``,
    ties to the lexicographically greatest, as max_unsolvable_weight
    reports it."""
    den = lcm(*(w.denominator for w in weights))
    scaled = [int(w * den) for w in weights]
    best = max(chain.from_iterable(full), key=lambda c: (sum(map(mul, scaled, c)), c))
    return Fraction(sum(map(mul, scaled, best)), den), best


def _assert_matches_stripped(g, rng):
    """The levels of g, expanded into orbits, are the full scan's (the
    solver-driven reference on stripped(g), with no orbit reduction);
    every representative is its orbit's maximum in the builder's order,
    each decided once; and random weights give the full scan's maximum
    and achiever."""
    plain = stripped(g)
    orbit_of, representative = symmetry_orbit(g), greatest(g)
    solver = pb.Solver(g)
    levels = builder_levels(g, solver)
    full = reference_unsolvable_levels(plain, pb.Solver(plain), full=True)
    assert len(levels) == len(full), (g.edges, g.root)
    for level, reference in zip(levels, full):
        orbits = [orbit_of(c) for c in level]
        assert all(c == representative(o) for c, o in zip(level, orbits)), g.edges
        assert set().union(*orbits) == reference, (g.edges, g.root)
    assert solver.stats.nodes == _admitted(g, levels), g.edges
    for _ in range(3):
        weights = _random_weights(rng, g)
        assert _heaviest(g, weights) == _full_heaviest(full, weights), (g.edges, g.root, weights)


class TestOneDownSet:
    """Each graph holds one down-set, one representative per orbit of
    its symmetry, and every weight function is read from it."""

    def test_asymmetric_weights_build_no_second_down_set(self):
        g = pb.rooted_cube(4)
        g._cache.clear()
        weights = [Fraction(0) if v == g.root else Fraction(v) for v in range(g.vertex_count)]
        w = pb.weight_function(g, weights)
        # not constant on the orbits of the root-fixing group
        assert any(weights[p[v]] != weights[v] for p in symmetry_closure(g) for v in range(g.vertex_count))
        pb.verify_validity_oracle(g, w)
        held = [k for k in g._cache if "down_set" in (k if isinstance(k, tuple) else (k,))]
        assert held == ["down_set"]

    def test_asymmetric_weights_match_the_stripped_graph(self):
        # group mode on the first three, block mode on the lollipop (and on
        # its stripped copy, whose twins are found from the edges)
        rng = random.Random(8_191)
        for g in (pb.rooted_cube(4), pb.cycle_graph(9), pb.hypercube(3), pb.lollipop(2, 3)):
            plain = stripped(g)
            # the full down-set: g's representatives expanded into their orbits
            orbit_of = symmetry_orbit(g)
            full = [set().union(*map(orbit_of, level)) for level in builder_levels(g)]
            for _ in range(4):
                weights = _random_weights(rng, g)
                expected = _full_heaviest(full, weights)
                assert _heaviest(g, weights) == _heaviest(plain, weights) == expected, (g.edges, weights)

    def test_planted_twins(self):
        # block mode against the plain builder: levels and weight maxima
        rng = random.Random(60_013)
        for _ in range(40):
            _assert_matches_stripped(_planted_twin_graph(rng), rng)

    def test_moves_between_blocks(self):
        # block mode with two or more blocks, often adjacent, so that a
        # move leaves one block and lands on the first vertex of another
        rng = random.Random(80_021)
        adjacent = 0
        for _ in range(40):
            g = _multi_block_graph(rng)
            kind, blocks = engine._symmetry_mode(g)
            assert kind == "blocks" and len(blocks) >= 2, g.edges
            block_of = {v: b for b, block in enumerate(blocks) for v in block}
            adjacent += any(u in block_of and v in block_of and block_of[u] != block_of[v] for u, v in g.edges)
            _assert_matches_stripped(g, rng)
        assert adjacent >= 10

    def test_planted_rotations(self):
        # group mode against the plain builder, on graphs beyond the
        # families, until 40 have been checked; copies with twins take
        # block mode, and are checked along the way
        rng = random.Random(70_001)
        groups = 0
        while groups < 40:
            g = _planted_rotation_graph(rng)
            kind = engine._symmetry_mode(g)[0]
            assert kind == ("blocks" if twin_blocks(g) else "group"), g.edges
            groups += kind == "group"
            _assert_matches_stripped(g, rng)
