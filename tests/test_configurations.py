import math
import pytest

import pebbling as pb
from conftest import all_counts, orbit, symmetry_closure
from pebbling.errors import (
    GraphMismatchError,
    InsufficientPebblesError,
    NotAdjacentError,
)


class TestApplyMove:
    def test_p2(self, p2):
        p = pb.configuration(p2, (2, 0))
        q = pb.apply_move(p2, p, 0, 1)
        assert q.counts == (0, 1)
        assert p.counts == (2, 0)  # input unchanged

    def test_c4(self, c4):
        p = pb.configuration(c4, (4, 0, 0, 0))
        assert pb.apply_move(c4, p, 0, 1).counts == (2, 1, 0, 0)

    def test_lemma5_move_off_the_far_corner(self, lemma5_graph):
        g = lemma5_graph
        z = g.vertex_by_label("z")
        y1 = g.vertex_by_label("y_1")
        p = pb.configuration(g, {z: 8})
        q = pb.apply_move(g, p, z, y1)
        assert q.on(z) == 6 and q.on(y1) == 1

    def test_size_drops_by_one(self, c5):
        p = pb.configuration(c5, (0, 3, 0, 0, 2))
        assert pb.apply_move(c5, p, 1, 0).size == p.size - 1

    def test_not_adjacent(self, c5):
        with pytest.raises(NotAdjacentError):
            pb.apply_move(c5, pb.configuration(c5, (0, 2, 0, 0, 0)), 1, 3)

    def test_insufficient(self, c5):
        with pytest.raises(InsufficientPebblesError):
            pb.apply_move(c5, pb.configuration(c5, (0, 1, 0, 0, 0)), 1, 2)

    def test_graph_mismatch(self, c4, c5):
        with pytest.raises(GraphMismatchError):
            pb.apply_move(c5, pb.configuration(c4, (2, 0, 0, 0)), 0, 1)


class TestUniform:
    def test_sizes(self, q3, p2):
        assert pb.uniform_configuration(q3).size == 8
        assert pb.uniform_configuration(p2).size == 2
        assert pb.uniform_configuration(pb.lollipop(1, 4)).size == 7


class TestEnumerate:
    def test_three_vertices_size_two(self):
        g = pb.path_graph(2)
        got = [p.counts for p in pb.enumerate_configurations(g, 2)]
        assert got == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]

    def test_q3_single_pebble_exclude_root(self, q3):
        got = list(pb.enumerate_configurations(q3, 1, exclude_root=True))
        assert len(got) == 7

    def test_counts_match_closed_form(self):
        for n in range(1, 7):
            g = pb.path_graph(n) if n > 1 else pb.build_graph(1, [], 0)
            for s in range(0, 7):
                got = sum(1 for _ in pb.enumerate_configurations(g, s))
                assert got == math.comb(s + g.vertex_count - 1, g.vertex_count - 1)

    def test_matches_independent_enumeration(self, c5):
        for s in range(0, 5):
            got = {p.counts for p in pb.enumerate_configurations(c5, s)}
            assert got == set(all_counts(5, s))

    def test_lollipop_symmetry_representatives(self):
        # independent quotient: sort the four interchangeable arm counts
        g = pb.lollipop(1, 4)
        plain = [p.counts for p in pb.enumerate_configurations(g, 2, exclude_root=True)]
        assert len(plain) == 21
        forms = set()
        for c in plain:
            form = pb.canonical_form(g, pb.configuration(g, c)).counts
            assert form == c[:3] + tuple(sorted(c[3:], reverse=True))
            forms.add(form)
        assert len(forms) == 7

    def test_symmetry_orbit_coverage(self, q3):
        # every configuration's canonical form is the greatest member of its orbit
        group = symmetry_closure(q3)
        for p in pb.enumerate_configurations(q3, 2, exclude_root=True):
            images = orbit(group, p.counts)
            assert pb.canonical_form(q3, p).counts == max(images)

    def test_stream_is_descending_lex(self, c4):
        for s in (3, 5):
            got = [p.counts for p in pb.enumerate_configurations(c4, s)]
            assert got == sorted(got, reverse=True)


class TestCanonicalForm:
    def test_arm_counts_sorted_descending(self):
        g = pb.lollipop(1, 4)
        p = pb.configuration(g, (0, 0, 0, 0, 2, 0, 1))
        assert pb.canonical_form(g, p).counts == (0, 0, 0, 2, 1, 0, 0)

    def test_idempotent(self, q3):
        for p in pb.enumerate_configurations(q3, 3, exclude_root=True):
            c = pb.canonical_form(q3, p)
            assert pb.canonical_form(q3, c) == c

    def test_q3_single_pebbles_share_form(self, q3):
        a = pb.configuration(q3, {1: 1})  # (1,0,0)
        b = pb.configuration(q3, {2: 1})  # (0,1,0)
        assert pb.canonical_form(q3, a).counts == pb.canonical_form(q3, b).counts

    def test_constant_on_generator_images(self):
        for g in [pb.hypercube(3), pb.rooted_cube(4), pb.lollipop(1, 4)]:
            for p in pb.enumerate_configurations(g, 2, exclude_root=True):
                canon = pb.canonical_form(g, p).counts
                for perm in g.symmetry:
                    moved = [0] * g.vertex_count
                    for v, c in enumerate(p.counts):
                        moved[perm[v]] = c
                    q = pb.configuration(g, moved)
                    assert pb.canonical_form(g, q).counts == canon

    def test_no_symmetry_is_identity(self, p3):
        p = pb.configuration(p3, (3, 1, 0))
        assert pb.canonical_form(p3, p) is p


class TestHypercubeOrbitCounts:
    def test_q3_one_pebble_orbits(self, q3):
        # coordinate permutations split single pebbles by root distance
        forms = {pb.canonical_form(q3, p).counts for p in pb.enumerate_configurations(q3, 1, exclude_root=True)}
        assert len(forms) == 3

    def test_q3_orbit_count_agrees_with_burnside_free_quotient(self, q3):
        # independent: the orbits of the explicit closure group, one form each
        group = symmetry_closure(q3)
        for s in (2, 3):
            plain = list(pb.enumerate_configurations(q3, s, exclude_root=True))
            orbits = {frozenset(orbit(group, p.counts)) for p in plain}
            forms = {pb.canonical_form(q3, p).counts for p in plain}
            assert len(forms) == len(orbits)
            assert forms == {max(o) for o in orbits}
