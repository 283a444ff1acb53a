import random
from fractions import Fraction
from operator import mul

import pytest

import pebbling as pb
from conftest import (
    all_counts,
    build_nodes,
    naive_solvable,
    random_connected_graph,
    random_counts,
    reference_decide,
    reference_floor,
    reference_path_witness,
    reference_potential,
    reference_witness,
    root_zero_counts,
    stripped,
)
from pebbling.errors import BadParameterError, InternalError, ResourceLimitError
from pebbling.solver import shared_solver


def replay(g, p, witness):
    cur = p
    for u, v in witness:
        cur = pb.apply_move(g, cur, u, v)
    return cur


class TestPotential:
    """With one root neighbour the floor is the distance potential below
    1, so a fresh solver settles such a configuration in one node, by the
    floor alone, and memoizes nothing."""

    @staticmethod
    def verdict(g, counts):
        solver = pb.Solver(g)
        solvable = solver.decide(counts)
        return solvable, solver.stats.nodes, len(solver.memo)

    def test_pebble_on_root(self, p3):
        counts = pb.configuration(p3, {p3.root: 1}).counts
        assert reference_potential(p3, counts) == 1
        assert self.verdict(p3, counts) == (True, 1, 0)

    def test_far_stack_on_rooted_cube(self):
        g4 = pb.rooted_cube(4)
        assert len(g4.neighbors[g4.root]) == 1
        counts = pb.configuration(g4, {g4.labels.index("z"): 15}).counts
        assert reference_potential(g4, counts) == Fraction(15, 16)
        assert self.verdict(g4, counts) == (False, 1, 0)

    def test_path(self, p3):
        assert len(p3.neighbors[p3.root]) == 1
        assert reference_potential(p3, (3, 0, 0)) == Fraction(3, 4)
        assert self.verdict(p3, (3, 0, 0)) == (False, 1, 0)


class TestIsSolvable:
    def test_root_occupied(self, c5):
        p = pb.configuration(c5, {0: 1, 3: 2})
        assert pb.is_solvable(c5, p).solvable

    def test_c5_two_stuck_stacks(self, c5):
        p = pb.configuration(c5, {2: 2, 3: 2})
        out = pb.is_solvable(c5, p)
        assert not out.solvable
        assert reference_potential(c5, p.counts) >= 1  # pruning alone cannot explain this verdict

    def test_lemma5_two_singles_and_a_far_stack(self, lemma5_graph):
        g = lemma5_graph
        p = pb.configuration(g, {g.labels.index("x_1"): 1, g.labels.index("x_2"): 1, g.labels.index("z"): 8})
        assert pb.is_solvable(g, p).solvable

    def test_p3_three_and_one(self, p3):
        # exhaustive reference: (3,1,0) empties into (1,2,0) then (1,0,1)
        p = pb.configuration(p3, (3, 1, 0))
        assert naive_solvable(p3, p.counts)
        assert pb.is_solvable(p3, p).solvable

    def test_empty_is_unsolvable(self, c4):
        assert not pb.is_solvable(c4, pb.Configuration(c4, (0,) * c4.vertex_count)).solvable

    def test_agrees_with_reference_exhaustively(self, p3, c4, fig2):
        for g, top in ((p3, 6), (c4, 6), (fig2, 5)):
            for size in range(0, top + 1):
                for counts in all_counts(g.vertex_count, size):
                    got = pb.Solver(g).decide(counts)
                    assert got == naive_solvable(g, counts), (g, counts)

    def test_tfold(self, p3):
        assert pb.is_solvable(p3, pb.configuration(p3, (0, 4, 0)), t=2).solvable
        assert not pb.is_solvable(p3, pb.configuration(p3, (0, 3, 0)), t=2).solvable
        assert pb.is_solvable(p3, pb.configuration(p3, (0, 2, 1)), t=2).solvable
        assert not pb.is_solvable(p3, pb.configuration(p3, (3, 0, 1)), t=2).solvable

    def test_tfold_agrees_with_reference(self, c4):
        for size in range(0, 7):
            for counts in all_counts(4, size):
                assert pb.Solver(c4, target=2).decide(counts) == naive_solvable(c4, counts, t=2)

    def test_resource_limit_is_an_error(self, c5):
        solver = pb.Solver(c5).begin(pb.SearchLimits(max_nodes=1))
        with pytest.raises(ResourceLimitError):
            solver.decide((0, 1, 2, 2, 1))
        # begin gives the next operation a node budget of its own
        assert solver.begin(pb.SearchLimits(max_nodes=1)) is solver
        assert solver.decide((1, 0, 0, 0, 0))  # one node: the root holds the target

    def test_target_must_be_an_int(self, c5):
        p = pb.configuration(c5, {2: 2, 3: 2})
        shared_solver(c5)  # 1.0 and True compare equal to the target 1 it is cached under
        for bad in (1.5, 2.0, 1.0, True):
            with pytest.raises(BadParameterError, match=f"target must be an integer, not {bad!r}"):
                pb.is_solvable(c5, p, t=bad)
            with pytest.raises(BadParameterError, match=f"target must be an integer, not {bad!r}"):
                pb.Solver(c5, bad)

    def test_nan_or_negative_cap_is_refused(self):
        nan = float("nan")
        for caps in ({"max_seconds": nan}, {"max_seconds": -0.5}, {"max_nodes": -3}, {"max_nodes": nan}):
            with pytest.raises(BadParameterError):
                pb.SearchLimits(**caps)
        zero = pb.SearchLimits(max_nodes=0, max_seconds=0.0)
        assert (zero.max_nodes, zero.max_seconds) == (0, 0.0)

    def test_cap_of_the_wrong_type_is_refused(self):
        # a bool is an int to Python but no cap; 1.5 nodes, "5" and None are no count
        for caps in (
            {"max_nodes": 1.5},
            {"max_nodes": True},
            {"max_nodes": "5"},
            {"max_nodes": None},
            {"max_seconds": True},
            {"max_seconds": "5"},
        ):
            with pytest.raises(BadParameterError, match="must be an integer|must be a number"):
                pb.SearchLimits(**caps)
        assert pb.SearchLimits(max_seconds=0).max_seconds == 0

    def test_caps_default_to_the_environment(self, monkeypatch):
        monkeypatch.delenv("PEBBLE_MAX_NODES", raising=False)
        monkeypatch.delenv("PEBBLE_MAX_SECONDS", raising=False)
        assert (pb.SearchLimits().max_nodes, pb.SearchLimits().max_seconds) == (10**8, None)
        monkeypatch.setenv("PEBBLE_MAX_NODES", "7")
        monkeypatch.setenv("PEBBLE_MAX_SECONDS", "2.5")
        assert (pb.SearchLimits().max_nodes, pb.SearchLimits().max_seconds) == (7, 2.5)

    def test_stats_counted(self, c5):
        out = pb.is_solvable(c5, pb.configuration(c5, {2: 2, 3: 2}))
        assert out.stats.nodes > 0

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda c4, c5: pb.Solver(c5, 0), "target pebble count must be at least 1"),
            (lambda c4, c5: pb.Solver(c5, -2), "target pebble count must be at least 1"),
            (lambda c4, c5: pb.Solver(c5).solve(pb.configuration(c4, {2: 2})), "configuration belongs to a different graph"),
            (lambda c4, c5: pb.is_solvable(c5, pb.configuration(c4, {2: 2})), "configuration belongs to a different graph"),
        ],
        ids=["zero-target", "negative-target", "solve-other-graph", "is-solvable-other-graph"],
    )
    def test_refused_input(self, c4, c5, call, message):
        with pytest.raises(BadParameterError, match=message):
            call(c4, c5)


class TestLimitsPerCall:
    """Each operation gets the full caps, however many came before it
    on the graph's one shared solver."""

    def test_repeated_query_fits_its_own_count(self):
        # one pebble past C7's stuck 5 + 5: no single shortest path carries it
        g = pb.cycle_graph(7)
        p = pb.Configuration(g, (0, 0, 0, 6, 5, 0, 0))
        own = pb.Solver(g).solve(p).stats.nodes
        assert own > 1
        g._cache.clear()
        limits = pb.SearchLimits(max_nodes=own)
        for _ in range(3):  # the repeats are memo hits
            assert pb.is_solvable(g, p, limits=limits).solvable

    def test_trivial_query_after_a_capped_scan(self):
        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        limits = pb.SearchLimits(max_nodes=build_nodes(c9) // 2)
        c9._cache.clear()
        with pytest.raises(ResourceLimitError):
            pb.pi_rooted(c9, limits=limits)
        assert pb.is_solvable(c9, pb.configuration(c9, {c9.root: 1}), limits=limits).solvable
        with pytest.raises(ResourceLimitError):  # the scan itself still hits the cap
            pb.pi_rooted(c9, limits=limits)

    def test_stuck_check_after_pi_under_the_scans_own_count(self):
        # Theorem 1, k = 4: pi(C9) = 21, and 10 + 10 on the two farthest vertices is stuck
        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        witness = pb.pi_rooted(c9).witness_unsolvable
        # the larger of the down-set build and the witness re-check
        recheck = pb.Solver(c9).solve(witness).stats.nodes
        limits = pb.SearchLimits(max_nodes=max(build_nodes(c9), recheck))
        c9._cache.clear()
        assert pb.pi_rooted(c9, limits=limits).value == 21
        stuck = pb.configuration(c9, {4: 10, 5: 10})
        assert not pb.is_solvable(c9, stuck, limits=limits).solvable

    def test_one_solver_whatever_the_limits(self, c5):
        c5._cache.clear()
        solver = shared_solver(c5)
        p = pb.configuration(c5, {2: 2, 3: 2})
        calls = (
            lambda: pb.is_solvable(c5, p, limits=pb.SearchLimits(max_nodes=10**6)),
            lambda: pb.is_solvable(c5, p, want_witness=True, limits=pb.SearchLimits(max_seconds=60.0)),
            lambda: pb.pi_rooted(c5, limits=pb.SearchLimits(max_nodes=10**7, max_seconds=60.0)),
        )
        for call in calls:
            before = solver.stats.nodes
            call()
            assert shared_solver(c5) is solver
            assert solver.stats.nodes > before  # the call searched on this solver


class TestSymmetryAgnostic:
    """The memo holds configurations as they are, so a graph's symmetry
    changes nothing in a search: the same as on its stripped copy."""

    def test_same_search_as_without_the_stored_symmetry(self):
        c9 = pb.cycle_graph(9)
        for g in (c9, pb.hypercube(3), pb.rooted_cube(4)):
            witness = pb.pi_rooted(g).witness_unsolvable.counts
            # pi's witness, then one pebble more on each vertex: solvable
            queries = [witness] + [witness[:v] + (witness[v] + 1,) + witness[v + 1 :] for v in range(g.vertex_count)]
            if g is c9:
                queries.insert(0, pb.configuration(c9, {4: 10, 5: 10}).counts)
            runs = []
            for h in (g, stripped(g)):
                solver = pb.Solver(h)
                outcomes = [solver.solve(pb.Configuration(h, counts), want_witness=True) for counts in queries]
                runs.append([(out.solvable, out.witness, out.stats.nodes) for out in outcomes] + [len(solver.memo)])
            assert runs[0] == runs[1], g.edges


class TestPackedSearch:
    """The search on packed keys against the earlier tuple-keyed decide
    (conftest.reference_decide), each on a solver of its own: the same
    verdicts, node counts, memo hits and memo size, query after query."""

    @staticmethod
    def queries(rng, g, t):
        top = tuple(x - 1 for x in pb.Solver(g, t).stack_threshold)
        # every field at the top value of a memoized count, then with
        # one vertex emptied, then each vertex drawn from 0, top or between
        yield top
        for v in range(g.vertex_count):
            yield top[:v] + (0,) + top[v + 1 :]
        for _ in range(12):
            yield tuple(rng.choice((0, x, rng.randint(0, x))) for x in top)
        for _ in range(12):
            counts = list(random_counts(rng, g, max_total=6 * t))
            counts[g.root] = min(counts[g.root], t - 1)
            yield tuple(counts)

    @staticmethod
    def observed(solver):
        return solver.stats.nodes, solver.stats.memo_hits, len(solver.memo)

    @staticmethod
    def nodes(g, t, counts):
        solver = pb.Solver(g, t)
        solver.decide(counts)
        return solver.stats.nodes

    def test_matches_the_tuple_keyed_decide(self):
        rng = random.Random(16_016)
        for _ in range(24):
            g = random_connected_graph(rng, n_max=6)
            for t in (1, 2, 3, 4):
                packed, tupled = pb.Solver(g, t), pb.Solver(g, t)
                for counts in self.queries(rng, g, t):
                    assert packed.decide(counts) == reference_decide(tupled, counts), (g.edges, t, counts)
                    assert self.observed(packed) == self.observed(tupled), (g.edges, t, counts)

    def test_node_cap_hit_at_the_same_node(self):
        rng = random.Random(16_017)
        c7 = pb.cycle_graph(7)
        # two full searches (unsolvable), then the query that takes the
        # most nodes on a fresh solver, per random graph and target
        cases = [(c7, 1, (0, 0, 0, 5, 5, 0, 0)), (c7, 3, (0, 0, 3, 7, 7, 3, 0))]
        for _ in range(8):
            g = random_connected_graph(rng, n_min=4, n_max=6)
            for t in (1, 2, 3, 4):
                cases.append((g, t, max(self.queries(rng, g, t), key=lambda c: self.nodes(g, t, c))))
        for g, t, counts in cases:
            total = self.nodes(g, t, counts)
            for k in sorted({*range(min(total, 40) + 1), *range(0, total, 1 + total // 40), total - 1, total}):
                outcomes = []
                for decide in (pb.Solver.decide, reference_decide):
                    solver = pb.Solver(g, t).begin(pb.SearchLimits(max_nodes=k))
                    try:
                        verdict = decide(solver, counts)
                    except ResourceLimitError:
                        verdict = "capped"
                    outcomes.append((verdict, self.observed(solver)))
                assert outcomes[0] == outcomes[1], (g.edges, t, counts, k)
                assert (outcomes[0][0] == "capped") == (k < total)


class TestFloor:
    """The solver's floor (conftest.reference_floor written out from its
    definition) against no floor at all: naive_solvable, a breadth-first
    walk over every move sequence."""

    @staticmethod
    def floor_verdict(g, t, counts):
        # decide settles a configuration below the floor in one node and
        # writes no memo entry; any other it searches, memoizing at least it
        solver = pb.Solver(g, t)
        return not solver.decide(counts) and solver.stats.nodes == 1 and not solver.memo

    def test_below_the_floor_is_unsolvable(self):
        rng = random.Random(40_040)
        below = sharper = 0
        for _ in range(60):
            g = random_connected_graph(rng, n_max=7)
            dist = pb.distances_from(g, g.root)
            for t in (1, 2, 3):
                top = [(t << d) - 1 for d in dist]
                for _ in range(20):
                    counts = [rng.choice((0, x, rng.randint(0, x))) for x in top]
                    if rng.random() < 0.5:
                        counts = list(random_counts(rng, g, max_total=6 * t))
                    counts[g.root] = min(counts[g.root], t - 1)
                    counts = tuple(counts)
                    floor = reference_floor(g, counts, t)
                    assert not (floor and naive_solvable(g, counts, t)), (g.edges, g.root, t, counts)
                    below += floor
                    # the distance potential alone would not prune it
                    sharper += floor and sum(Fraction(c, 2 ** d) for c, d in zip(counts, dist)) >= t
        assert below > 500 and sharper > 50, (below, sharper)

    def test_the_packed_lanes_hold_the_floor(self):
        # the solver's one AND, on counts up to the stacks, root included
        rng = random.Random(40_042)
        for _ in range(40):
            g = random_connected_graph(rng, n_max=7)
            for t in (1, 2, 3):
                solver = pb.Solver(g, t)
                for _ in range(20):
                    counts = tuple(rng.choice((0, x, rng.randint(0, x))) for x in solver.stack_threshold)
                    lanes = solver._base + sum(map(mul, counts, solver._lanes))
                    floor = reference_floor(g, counts, t)
                    assert (not lanes & solver._high) == floor, (g.edges, g.root, t, counts)
                    # the same verdict from the lanes' layout, which the down-set builder reads
                    lanes -= solver._base
                    assert all(lanes >> sh & mask <= limit for sh, mask, limit in solver.floor_lanes) == floor, (g.edges, g.root, t)

    def test_exact_on_cycles(self):
        # G - r is a path with both root neighbours at its ends, where
        # Phi_a >= 2 also suffices: every size up to pi + 1 on C3-C6, and
        # counts drawn below the caps on C7-C9
        rng = random.Random(40_041)
        for n in range(3, 10):
            g = pb.cycle_graph(n)
            if n <= 6:
                queries = [c for s in range(pb.pi_rooted(g).value + 2) for c in root_zero_counts(g, s)]
            else:
                top = [(1 << d) - 1 for d in pb.distances_from(g, g.root)]
                queries = [tuple(rng.choice((0, x, rng.randint(0, x))) for x in top) for _ in range(300)]
            for counts in queries:
                assert reference_floor(g, counts) != naive_solvable(g, counts), (n, counts)

    def test_theorem_1_lower_bounds_without_the_floor(self):
        # pi(C9)'s witness, thm1-k4's stuck configuration and thm1-k5's
        # (pi(C11)'s witness too) are unsolvable to the walk with no
        # floor, not to the floor alone
        cases = [(9, (0, 0, 0, 1, 9, 9, 1, 0, 0)), (9, (0, 0, 0, 0, 10, 10, 0, 0, 0))]
        cases.append((11, (0, 0, 0, 0, 0, 21, 21, 0, 0, 0, 0)))
        for n, counts in cases:
            g = pb.cycle_graph(n)
            assert reference_floor(g, counts)
            assert not naive_solvable(g, counts)
            assert self.floor_verdict(g, 1, counts)

    @pytest.mark.parametrize("t", (1, 2, 3))
    def test_one_layout_for_every_floor(self, t):
        # one lane per root neighbour at t = 1 on a root with two or more,
        # else the potential as one lane; either way every lane has one
        # mask, one limit that t root pebbles pass and _base lifts to the
        # lane's lowest bit of _high, and nothing above the last lane
        for g in (pb.path_graph(4), pb.cycle_graph(5), pb.rooted_cube(3), pb.build_graph(1, [], 0)):
            solver = pb.Solver(g, t)
            degree = len(g.neighbors[g.root])
            assert len(solver.floor_lanes) == (degree if t == 1 and degree > 1 else 1)
            (_, mask, limit), *_ = solver.floor_lanes
            assert mask > 0 and not mask & mask + 1 and limit == t * solver._lanes[g.root] - 1
            width, top = mask.bit_length(), limit.bit_length()
            assert solver.floor_lanes == tuple((k * width, mask, limit) for k in range(len(solver.floor_lanes)))
            spread = sum(1 << sh for sh, *_ in solver.floor_lanes)
            assert solver._high == (mask - (1 << top) + 1) * spread > 0
            assert solver._base == ((1 << top) - limit - 1) * spread
            assert solver._high < 1 << width * len(solver.floor_lanes)
            if t == 1:
                assert solver._base == 0

    def test_one_vertex(self):
        # no root neighbour: the floor is the distance potential, and the
        # empty configuration is below it, a root pebble is not
        g = pb.build_graph(1, [], 0)
        assert reference_floor(g, (0,)) and self.floor_verdict(g, 1, (0,))
        solver = pb.Solver(g)
        assert not reference_floor(g, (1,)) and solver.decide((1,))
        assert solver._lanes[0] & solver._high


class TestWitness:
    def test_replay_reaches_root(self, c5, q3):
        for g, spots in ((c5, {1: 2}), (c5, {2: 4}), (q3, {7: 8}), (q3, {3: 2, 5: 2})):
            p = pb.configuration(g, spots)
            out = pb.is_solvable(g, p, want_witness=True)
            assert out.solvable and out.witness is not None
            assert replay(g, p, out.witness).counts[g.root] >= 1

    def test_unsolvable_has_no_witness(self, c5):
        out = pb.is_solvable(c5, pb.configuration(c5, {2: 2, 3: 2}), want_witness=True)
        assert not out.solvable and out.witness is None

    def test_trivial_witness_is_empty(self, c5):
        out = pb.is_solvable(c5, pb.configuration(c5, {0: 1}), want_witness=True)
        assert out.witness == ()

    def test_tfold_witness(self, p3):
        p = pb.configuration(p3, (8, 0, 0))
        out = pb.is_solvable(p3, p, t=2, want_witness=True)
        assert out.solvable
        assert replay(p3, p, out.witness).counts[p3.root] >= 2

    def test_matches_reference_witness(self):
        # the moves read off decide equal the earlier recursive search's
        rng = random.Random(4242)
        cases = [(random_connected_graph(rng, n_max=7), 8) for _ in range(30)]
        cases += [(pb.cycle_graph(9), 24), (pb.rooted_cube(4), 16), (pb.hypercube(3), 12), (pb.lollipop(1, 4), 12)]
        for g, max_total in cases:
            for t in (1, 2):
                for _ in range(20):
                    counts = list(random_counts(rng, g, max_total=max_total * t))
                    counts[g.root] = 0
                    out = pb.is_solvable(g, pb.configuration(g, counts), t=t, want_witness=True)
                    expected = reference_witness(g, counts, t)
                    assert out.witness == (None if expected is None else tuple(expected)), (g.edges, counts, t)
                    assert out.solvable == (expected is not None)

    def test_memo_records_are_proofs(self):
        # every memo entry, its key decoded from the packed layout (vertex v
        # owns d(v,r) + bitlen(t) bits, vertex 0 the most significant): a
        # False entry is unsolvable, and a record is a legal move whose
        # child holds a stack or is solvable
        rng = random.Random(46_046)
        falses = records = 0
        for _ in range(40):
            g = random_connected_graph(rng, n_min=4, n_max=7)
            dist = pb.distances_from(g, g.root)
            for t in (1, 2):
                solver = pb.Solver(g, t)
                for _ in range(20):
                    # each count 0, the largest below a stack or between
                    counts = [rng.choice((0, x, rng.randint(0, x))) for x in (c - 1 for c in solver.stack_threshold)]
                    counts[g.root] = 0
                    solver.solve(pb.configuration(g, counts), want_witness=True)
                for key, entry in solver.memo.items():
                    counts = [0] * g.vertex_count
                    for v in reversed(range(g.vertex_count)):
                        bits = dist[v] + t.bit_length()
                        counts[v], key = key & (1 << bits) - 1, key >> bits
                    assert key == 0
                    if entry is False:
                        assert reference_witness(g, counts, t) is None, (g.edges, t, counts)
                        falses += 1
                        continue
                    u, v = entry
                    assert counts[u] >= 2 and v in g.neighbors[u], (g.edges, t, counts, entry)
                    counts[u] -= 2
                    counts[v] += 1
                    assert counts[v] >= t << dist[v] or reference_witness(g, counts, t) is not None, (g.edges, t, counts)
                    records += 1
        assert falses > 100 and records > 500, (falses, records)

    def test_lone_stack_carries_only_the_target(self):
        # a stack of t * 2^d reaches the root in t * (2^d - 1) moves, however large
        for g, v, t, size in ((pb.path_graph(3), 0, 1, 1_000_001), (pb.path_graph(4), 0, 3, 48), (pb.cycle_graph(9), 4, 2, 77)):
            p = pb.configuration(g, {v: size})
            out = pb.is_solvable(g, p, t=t, want_witness=True)
            d = pb.distances_from(g, g.root)[v]
            assert len(out.witness) == t * ((1 << d) - 1)
            assert replay(g, p, out.witness).counts[g.root] == t
            assert out.witness == tuple(reference_witness(g, p.counts, t))

    def test_short_witness_fails_the_replay(self, monkeypatch, c5):
        def short(self, v, runs):
            return original(self, v, runs)[:-1]

        original = pb.Solver._moves_up
        monkeypatch.setattr(pb.Solver, "_moves_up", short)
        with pytest.raises(InternalError, match="replay"):
            pb.is_solvable(c5, pb.configuration(c5, {2: 4}), want_witness=True)

    def test_a_forged_record_fails_the_replay(self):
        # a searched query (no shortest path carries the pebble) on a graph
        # of its own, so its shared solver's memo is this test's: its second
        # record, overwritten with a pair that is no edge, lands a root
        # pebble, so the read ends there and the replay names that move
        g = pb.build_graph(5, pb.cycle_graph(5).edges, 0)
        p = pb.configuration(g, (0, 0, 2, 1, 1))
        out = pb.is_solvable(g, p, want_witness=True)
        assert out.witness == ((2, 3), (3, 4), (4, 0)) and out.stats.nodes > 1
        solver = shared_solver(g)
        key = sum(map(mul, (0, 0, 0, 2, 1), solver._unit))
        assert solver.memo[key] == (3, 4)
        solver.memo[key] = (3, 0)
        with pytest.raises(InternalError, match="witness replay failed at move 1: 3 and 0 are not adjacent"):
            pb.is_solvable(g, p, want_witness=True)

    def test_a_missing_record_is_an_internal_error(self, monkeypatch, c5):
        # a solvable verdict with no record behind it: the read stops there
        # and searches nothing
        monkeypatch.setattr(pb.Solver, "decide", lambda self, counts: True)
        with pytest.raises(InternalError, match="no record"):
            pb.Solver(c5).solve(pb.configuration(c5, {2: 2, 3: 2}), want_witness=True)


class TestPathRule:
    """A query is settled in one node, with no search, when the pebbles
    on one shortest path carry the target; every such verdict must hold
    against the exhaustive reference, and its witness replay move by
    move. Every query holding a stack, or t on the root, is settled so."""

    def test_settled_queries_are_solvable(self):
        rng = random.Random(38_001)
        settled = 0
        for _ in range(40):
            g = random_connected_graph(rng, n_max=7)
            for t in (1, 2, 3):
                solver = pb.Solver(g, t)
                for _ in range(20):
                    counts = random_counts(rng, g, max_total=4 * t + 4)
                    if solver._path_need(counts) is None:
                        continue
                    memo, p = dict(solver.memo), pb.Configuration(g, counts)
                    out = solver.solve(p, want_witness=True)
                    assert out.solvable and out.stats.nodes == 1 and solver.memo == memo, (g.edges, t, counts)
                    assert naive_solvable(g, counts, t), (g.edges, t, counts)
                    assert replay(g, p, out.witness).counts[g.root] >= t
                    assert solver.solve(p).stats.nodes == 1
                    settled += 1
        assert settled >= 200

    def test_stacks_and_a_full_root_are_settled(self):
        rng = random.Random(39_001)
        full_roots = 0
        for _ in range(40):
            g = random_connected_graph(rng, n_max=7)
            for t in (1, 2, 3):
                solver = pb.Solver(g, t)
                thr = solver.stack_threshold
                for _ in range(10):
                    counts = list(random_counts(rng, g, max_total=2 * t))
                    v = rng.randrange(g.vertex_count)  # the root's stack is t pebbles
                    counts[v] = max(counts[v], thr[v] + rng.randrange(3))
                    counts = tuple(counts)
                    assert solver._path_need(counts) is not None, (g.edges, t, counts)
                    memo, p = dict(solver.memo), pb.Configuration(g, counts)
                    out = solver.solve(p, want_witness=True)
                    assert out.solvable and out.stats.nodes == 1 and solver.memo == memo, (g.edges, t, counts)
                    assert out.witness == tuple(reference_path_witness(g, counts, t))
                    assert replay(g, p, out.witness).counts[g.root] >= t
                    assert solver.solve(p).stats.nodes == 1 and solver.memo == memo
                    full_roots += counts[g.root] >= t
        assert full_roots >= 50


class TestDeepPaths:
    """pi(P_k) = 2^k: a stack of 2^k - 1 on the far end is stuck, and one
    pebble more on any vertex makes it solvable. The search keeps its own
    stack of frames, one per move and thousands deep on P12, so it raises
    no RecursionError."""

    @pytest.mark.parametrize("k", range(1, 13))
    def test_stuck_stack_plus_one(self, k):
        g = pb.path_graph(k)
        stuck = ((1 << k) - 1,) + (0,) * k  # vertex 0 is the far end
        assert not pb.is_solvable(g, pb.Configuration(g, stuck)).solvable
        assert not pb.Solver(g).decide(stuck)
        for v in range(k + 1):
            counts = stuck[:v] + (stuck[v] + 1,) + stuck[v + 1 :]
            p = pb.Configuration(g, counts)
            out = pb.is_solvable(g, p, want_witness=True)
            assert out.solvable
            assert replay(g, p, out.witness).counts[g.root] >= 1
            assert pb.Solver(g).decide(counts)


class TestPathExactness:
    """On end-rooted paths, solvability is exactly w(p) >= 2^k for the
    doubling weights; checked fully for k <= 4, sampled for k = 5, 6."""

    @staticmethod
    def weighted(counts, k):
        return sum(c * (1 << i) for i, c in enumerate(counts[:k]))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_full(self, k):
        g = pb.path_graph(k)
        solver = pb.Solver(g)
        for size in range(0, (1 << k) + 1):
            for counts in root_zero_counts(g, size):
                assert solver.decide(counts) == (self.weighted(counts, k) >= 1 << k)

    @pytest.mark.parametrize("k", [5, 6])
    def test_sampled(self, k):
        rng = random.Random(20_000 + k)
        g = pb.path_graph(k)
        solver = pb.Solver(g)
        for _ in range(500):
            size = rng.randint(0, 1 << k)
            counts = [0] * (k + 1)
            for _ in range(size):
                counts[rng.randrange(k)] += 1
            assert solver.decide(tuple(counts)) == (self.weighted(counts, k) >= 1 << k)
