"""Cross-cutting invariants beyond the acceptance suites.

The heavy lifting is agreement between independent engines: the memoized
solver against the naive breadth-first reference, the scan-based
pebbling number against the raw stars-and-bars reference, and symmetry
reduction against plain enumeration.
"""

import random
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pebbling as pb
from conftest import (
    builder_levels,
    naive_pi_rooted,
    naive_solvable,
    random_connected_graph,
    random_counts,
    reference_potential,
    reference_unsolvable_levels,
    stripped,
    symmetry_closure,
)
from pebbling.pebbling_number import _symmetry_mode

RELAXED = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graph_and_counts(draw, max_n=6, max_total=8):
    n = draw(st.integers(2, max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = {(p, v) for v, p in enumerate(parents, start=1)}
    for _ in range(draw(st.integers(0, 3))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = pb.build_graph(n, sorted(edges), root=draw(st.integers(0, n - 1)))
    counts = [0] * n
    for _ in range(draw(st.integers(0, max_total))):
        counts[draw(st.integers(0, n - 1))] += 1
    return g, tuple(counts)


@RELAXED
@given(case=small_graph_and_counts())
def test_solver_agrees_with_naive_reference(case):
    g, counts = case
    assert pb.Solver(g).decide(counts) == naive_solvable(g, counts)


@RELAXED
@given(case=small_graph_and_counts(), t=st.integers(1, 3))
def test_tfold_solver_agrees_with_naive_reference(case, t):
    g, counts = case
    assert pb.Solver(g, target=t).decide(counts) == naive_solvable(g, counts, t=t)


@RELAXED
@given(case=small_graph_and_counts())
def test_moves_never_increase_potential(case):
    g, counts = case
    p = pb.Configuration(g, counts)
    before = reference_potential(g, counts)
    for u in range(g.vertex_count):
        if counts[u] >= 2:
            for v in g.neighbors[u]:
                after = reference_potential(g, pb.apply_move(g, p, u, v).counts)
                assert after <= before


@RELAXED
@given(case=small_graph_and_counts())
def test_higher_targets_are_harder(case):
    g, counts = case
    if pb.Solver(g, target=2).decide(counts):
        assert pb.Solver(g, target=1).decide(counts)


def test_pi_rooted_matches_naive_on_random_graphs():
    rng = random.Random(40_321)
    for _ in range(30):
        g = random_connected_graph(rng, n_min=2, n_max=5)
        assert pb.pi_rooted(g).value == naive_pi_rooted(g), (g.edges, g.root)


def test_pi_rooted_symmetry_flag_is_value_neutral():
    rng = random.Random(555)
    for g in [pb.cycle_graph(5), pb.hypercube(3), pb.lollipop(1, 3)]:
        g._cache.clear()
        with_sym = pb.pi_rooted(g).value
        without = pb.pi_rooted(stripped(g)).value
        # the stripped lollipop's twins are found from its edges, so the
        # scan with no orbit reduction is the solver-driven reference's
        full = len(reference_unsolvable_levels(g, pb.Solver(g), full=True))
        assert with_sym == without == full


def test_solvability_invariant_under_stored_symmetry():
    rng = random.Random(777)
    for g in [pb.hypercube(3), pb.rooted_cube(4), pb.lollipop(1, 4)]:
        solver = pb.Solver(g)
        for _ in range(50):
            counts = random_counts(rng, g, max_total=8)
            base = solver.decide(counts)
            # every root-fixing automorphism, twin swaps included
            for perm in symmetry_closure(g):
                moved = [0] * g.vertex_count
                for v, c in enumerate(counts):
                    moved[perm[v]] = c
                assert solver.decide(tuple(moved)) == base


def test_symmetry_reduced_scan_counts_orbits_exactly():
    # the block-mode down-set against the independent quotient that sorts
    # the eight interchangeable arm counts
    g = pb.lollipop(2)
    arms = g.vertex_count - 8
    assert _symmetry_mode(g) == ("blocks", (tuple(range(arms, g.vertex_count)),))
    levels = builder_levels(g)
    for size in (1, 2, 3):
        plain = (p.counts for p in pb.enumerate_configurations(g, size, exclude_root=True))
        quotient = {c[:arms] + tuple(sorted(c[arms:], reverse=True)) for c in plain if not naive_solvable(g, c)}
        assert levels[size] == quotient


def test_max_unsolvable_weight_matches_bruteforce_on_random_weights():
    rng = random.Random(2024)
    for _ in range(15):
        g = random_connected_graph(rng, n_min=2, n_max=5)
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(g.vertex_count)]
        weights[g.root] = Fraction(0)
        w = pb.WeightFunction(g, tuple(weights))
        worst, achiever = pb.max_unsolvable_weight(g, w)
        best = Fraction(0)
        from conftest import root_zero_counts

        for size in range(0, naive_pi_rooted(g)):
            for counts in root_zero_counts(g, size):
                if not naive_solvable(g, counts):
                    best = max(best, sum(c * w.weights[v] for v, c in enumerate(counts)))
        assert worst == best
        assert not naive_solvable(g, achiever.counts)


def test_round_trips_on_random_graphs():
    from pebbling.fileformats import parse_graph, serialize_graph

    rng = random.Random(31_415)
    for _ in range(50):
        g = random_connected_graph(rng, n_min=2, n_max=8)
        text = serialize_graph(g)
        again = parse_graph(text)
        assert again.edges == g.edges and again.root == g.root
        assert serialize_graph(again) == text
