import random
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest

import pebbling as pb
from conftest import (
    naive_pi_rooted,
    naive_solvable,
    naive_unsolvable_levels,
    orbit,
    random_connected_graph,
    reference_unsolvable_levels,
    root_zero_counts,
    stripped,
    symmetry_closure,
)
from pebbling import pebbling_number as engine
from pebbling.errors import ResourceLimitError
from pebbling.fileformats import parse_graph, serialize_graph


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
            pb.named_graph("fig2"),
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
            assert w.on(g.root) == 0
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
        assert "unsolvable_levels" not in q4._cache

    def test_node_cap_stops_the_scan(self):
        # each candidate the down-set builder decides is one search node
        c7 = pb.cycle_graph(7)
        c7._cache.clear()
        with pytest.raises(ResourceLimitError):
            pb.pi_rooted(c7, limits=pb.SearchLimits(max_nodes=50))
        assert "unsolvable_levels" not in c7._cache

    def test_cap_reports_complete_levels(self):
        # the levels finished before the cap are a proven lower bound on pi
        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        for g in (c9, stripped(c9)):
            with pytest.raises(ResourceLimitError) as caught:
                pb.pi_rooted(g, limits=pb.SearchLimits(max_nodes=2_000))
            assert 1 <= caught.value.pi_lower < 21, g.symmetry
        assert ResourceLimitError("plain cap").pi_lower is None

    def test_cap_in_the_witness_check_reports_every_level(self):
        # the re-check of pi's witness by a new solver outgrows the build
        # on C9, so a cap between the two trips with the down-set complete
        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        witness = pb.pi_rooted(c9).witness_unsolvable
        build = engine.shared_solver(c9).stats.nodes
        recheck = pb.Solver(c9).solve(witness).stats.nodes
        assert build < recheck
        c9._cache.clear()
        with pytest.raises(ResourceLimitError) as caught:
            pb.pi_rooted(c9, limits=pb.SearchLimits(max_nodes=build))
        assert caught.value.pi_lower == 21
        assert "unsolvable_levels" not in c9._cache


def _swap(n, a, b):
    perm = list(range(n))
    perm[a], perm[b] = b, a
    return tuple(perm)


def _adjacent_twin_graphs():
    """Graphs whose stored transpositions swap adjacent twins, so a
    move can stay inside one block, the one move the block-mode builder
    does not look up."""
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    clique = [(u, v) for u in range(2, 6) for v in range(u + 1, 6)]
    return [
        # K4 rooted at 0
        pb.build_graph(4, k4, root=0, symmetry=(_swap(4, 1, 2), _swap(4, 2, 3))),
        # a triangle on a tail of two edges: 3 and 4 hold up to 7 pebbles
        pb.build_graph(5, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 4)], root=0, symmetry=(_swap(5, 3, 4),)),
        # a triangle with one more tail beyond it
        pb.build_graph(
            6, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)], root=0, symmetry=(_swap(6, 2, 3),)
        ),
        # K4 hanging off the root's neighbour
        pb.build_graph(
            6,
            [(0, 1)] + [(1, v) for v in range(2, 6)] + clique,
            root=0,
            symmetry=(_swap(6, 2, 3), _swap(6, 3, 4), _swap(6, 4, 5)),
        ),
    ]


def _down_set_cases():
    named = [pb.path_graph(k) for k in range(1, 5)]
    named += [pb.cycle_graph(n) for n in range(3, 7)]
    named += [pb.named_graph("fig2"), pb.hypercube(3), pb.lollipop(1, 3)]
    named += _adjacent_twin_graphs()
    rng = random.Random(40_321)  # the random graphs of test_properties
    return named + [random_connected_graph(rng, n_min=2, n_max=5) for _ in range(30)]


class TestUnsolvableDownSet:
    def test_levels_match_reference_oracles(self):
        for g in _down_set_cases():
            reference = naive_unsolvable_levels(g)
            group = symmetry_closure(g)
            g._cache.clear()
            for h in (stripped(g), g):
                levels = engine._unsolvable_levels(h, pb.Solver(h))
                # the engine stops at the first empty level; the reference keeps it
                assert len(levels) == len(reference) - 1, (g.edges, g.root, h.symmetry)
                for size, level in enumerate(levels):
                    if h.symmetry:
                        orbits = [orbit(group, c) for c in level]
                        expanded = set().union(*orbits)
                        # one representative per orbit
                        assert len(expanded) == sum(map(len, orbits)), (g.edges, size)
                    else:
                        expanded = level
                    assert expanded == reference[size], (g.edges, g.root, h.symmetry, size)
                res = pb.pi_rooted(h)
                assert res.value == len(levels)
                assert res.witness_unsolvable.counts == max(levels[-1])
                assert res.witness_unsolvable.counts == max(reference[-2])


def _relabeled_from_file(g, seed):
    """A seeded relabeling of g, read back through the file format, so
    it carries no stored symmetry."""
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    moved = pb.build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges], root=perm[g.root])
    return parse_graph(serialize_graph(moved))


def _relabeled_path_from_file(k, seed):
    return _relabeled_from_file(pb.path_graph(k), seed)


class TestAgainstReferenceBuilder:
    def test_levels_match_the_solver_driven_builder(self):
        # graphs too large for naive_unsolvable_levels
        graphs = [
            pb.cycle_graph(7),
            pb.cycle_graph(9),
            pb.rooted_cube(4),
            pb.lollipop(2, 3),
            _relabeled_path_from_file(6, 7_919),
        ]
        for g in graphs:
            g._cache.clear()
            for h in (stripped(g), g) if g.symmetry else (g,):
                reference = reference_unsolvable_levels(h, pb.Solver(h))
                levels = engine._unsolvable_levels(h, pb.Solver(h))
                assert levels == reference, (g.edges, g.root, h.symmetry)


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
        full = engine._unsolvable_levels(plain, pb.Solver(plain))
        reduced = engine._unsolvable_levels(q4, pb.Solver(q4))
        assert len(reduced) == len(full) == 16
        for size, (level, reference) in enumerate(zip(reduced, full)):
            orbits = [orbit(group, c) for c in level]
            expanded = set().union(*orbits)
            assert len(expanded) == sum(map(len, orbits)), size
            assert all(c == max(o) for c, o in zip(level, orbits)), size
            assert expanded == reference, size


def _last(counts):
    """The last vertex holding a pebble (0 for the empty configuration)."""
    return max((v for v, c in enumerate(counts) if c), default=0)


def _admitted(g, levels):
    """The number of extensions p + e_v (v >= last(p), below the cap)
    of the representatives p that are the maximum of their orbit."""
    group = symmetry_closure(g)
    dist = pb.distances_from(g, g.root)
    admitted = 0
    for level in levels:
        for p in level:
            for v in range(_last(p), g.vertex_count):
                if v != g.root and p[v] + 1 < 1 << dist[v]:
                    q = p[:v] + (p[v] + 1,) + p[v + 1 :]
                    admitted += q == max(orbit(group, q))
    return admitted


class TestOrderlyGeneration:
    """The builder extends a representative p only at vertices
    v >= last(p) and only to the maximum of an orbit (under block
    symmetry, a block-sorted tuple)."""

    def test_last_pebble_parent_is_a_representative(self):
        for g in (pb.cycle_graph(9), pb.rooted_cube(4), pb.hypercube(3), pb.lollipop(2, 3)):
            group = symmetry_closure(g)
            g._cache.clear()
            levels = engine._unsolvable_levels(g, pb.Solver(g))
            for size in range(1, len(levels)):
                for q in levels[size]:
                    assert q == max(orbit(group, q)), (g.edges, q)
                    last = _last(q)
                    parent = q[:last] + (q[last] - 1,) + q[last + 1 :]
                    assert parent in levels[size - 1], (g.edges, q)

    def test_each_candidate_is_decided_once(self):
        # one search node per extension the rule admits: none is decided
        # twice, and under a closure group no non-maximum is decided
        graphs = (
            _relabeled_from_file(pb.cycle_graph(9), 11),
            pb.lollipop(2, 3),
            pb.cycle_graph(9),
            pb.rooted_cube(4),
            pb.hypercube(3),
        )
        for g in graphs:
            g._cache.clear()
            solver = pb.Solver(g)
            levels = engine._unsolvable_levels(g, solver)
            assert solver.stats.nodes == _admitted(g, levels), g.edges


class TestPiGlobal:
    def test_c5_via_certified_transitivity(self, c5):
        assert pb.pi_global(c5) == 5

    def test_p3_loops_all_roots(self, p3):
        best = max(
            naive_pi_rooted(pb.build_graph(3, [(0, 1), (1, 2)], root=r)) for r in range(3)
        )
        assert pb.pi_global(p3) == best == 4

    def test_q3(self, q3):
        assert pb.pi_global(q3) == 8


class TestClass0:
    def test_q3_true(self, q3):
        assert pb.is_class0(q3)

    def test_p3_false(self, p3):
        assert not pb.is_class0(p3)

    def test_c5_true(self, c5):
        assert pb.is_class0(c5)


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
    open or adjacent twins, relabeled at random. Half the time two of
    the classes come from the ends of one edge, so that moves run from
    one block into another. The largest classes shrink until the graph
    has at most 8 vertices and the stored group at most 48 elements,
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
    to each other when adjacent.get(v)), relabeled at random. Every twin
    pair is stored as a transposition, so the classes are the blocks of
    block mode."""
    edges = [(a, b) for u, v in base.edges for a in classes[u] for b in classes[v]]
    edges += [(a, b) for v, twin in adjacent.items() if twin for a, b in combinations(classes[v], 2)]
    total = sum(map(len, classes))
    label = list(range(total))
    rng.shuffle(label)
    swaps = []
    for members in classes:
        for x in members[1:]:
            perm = list(range(total))
            perm[label[members[0]]], perm[label[x]] = label[x], label[members[0]]
            swaps.append(tuple(perm))
    moved = [(label[a], label[b]) for a, b in edges]
    return pb.build_graph(total, moved, root=label[base.root], symmetry=tuple(swaps))


def _planted_rotation_graph(rng):
    """k = 2 or 3 copies of a random rooted graph on 2-3 vertices, glued
    at the root, with 0-2 orbits of cross edges between the copies,
    relabeled at random. The rotation of the copies is the one stored
    generator, so the closure is cyclic of order k. Two copies take three
    vertices, because the rotation of two one-vertex copies is a
    transposition (block mode)."""
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
    spin = [0] * total
    for v in free:
        for i in range(k):
            spin[at[v, i]] = at[v, (i + 1) % k]
    label = list(range(total))
    rng.shuffle(label)
    edges = {(min(label[a], label[b]), max(label[a], label[b])) for a, b in pairs}
    perm = [0] * total
    for x in range(total):
        perm[label[x]] = label[spin[x]]
    return pb.build_graph(total, sorted(edges), root=label[0], symmetry=(tuple(perm),))


def _assert_matches_stripped(g, rng):
    """The levels of g, expanded into orbits, are those of g without
    symmetry; every representative is its orbit's maximum, each decided
    once; and random weights give the plain graph's maximum and
    achiever."""
    plain = stripped(g)
    group = symmetry_closure(g)
    solver = pb.Solver(g)
    levels = engine._unsolvable_levels(g, solver)
    full = engine._unsolvable_levels(plain, pb.Solver(plain))
    assert len(levels) == len(full), (g.edges, g.root)
    for level, reference in zip(levels, full):
        orbits = [orbit(group, c) for c in level]
        assert all(c == max(o) for c, o in zip(level, orbits)), g.edges
        assert set().union(*orbits) == reference, (g.edges, g.root)
    assert solver.stats.nodes == _admitted(g, levels), g.edges
    for _ in range(3):
        weights = _random_weights(rng, g)
        assert _heaviest(g, weights) == _heaviest(plain, weights), (g.edges, g.root, weights)


class TestOneDownSet:
    """Each graph holds one down-set, one representative per orbit of
    its stored symmetry, and every weight function is read from it."""

    def test_asymmetric_weights_build_no_second_down_set(self):
        g = pb.rooted_cube(4)
        g._cache.clear()
        weights = [Fraction(0) if v == g.root else Fraction(v) for v in range(g.vertex_count)]
        w = pb.weight_function(g, weights)
        assert not engine._weight_respects_symmetry(g, w.weights)
        pb.verify_validity_oracle(g, w)
        held = [k for k in g._cache if "unsolvable_levels" in (k if isinstance(k, tuple) else (k,))]
        assert held == ["unsolvable_levels"]

    def test_asymmetric_weights_match_the_stripped_graph(self):
        # group mode on the first three, block mode on the lollipop
        rng = random.Random(8_191)
        for g in (pb.rooted_cube(4), pb.cycle_graph(9), pb.hypercube(3), pb.lollipop(2, 3)):
            plain = stripped(g)
            for _ in range(4):
                weights = _random_weights(rng, g)
                assert _heaviest(g, weights) == _heaviest(plain, weights), (g.edges, weights)

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
            assert kind == "blocks" and len(blocks) >= 2, g.symmetry
            block_of = {v: b for b, block in enumerate(blocks) for v in block}
            adjacent += any(u in block_of and v in block_of and block_of[u] != block_of[v] for u, v in g.edges)
            _assert_matches_stripped(g, rng)
        assert adjacent >= 10

    def test_planted_rotations(self):
        # group mode against the plain builder, on graphs beyond the families
        rng = random.Random(70_001)
        for _ in range(40):
            g = _planted_rotation_graph(rng)
            assert engine._symmetry_mode(g)[0] == "group", g.symmetry
            _assert_matches_stripped(g, rng)
