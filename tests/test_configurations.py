import math
import random

import pytest

import pebbling as pb
from conftest import (
    all_counts,
    block_orbit,
    orbit,
    random_connected_graph,
    random_counts,
    symmetry_closure,
    twin_blocks,
    twin_transpositions,
)
from pebbling.errors import BadParameterError, MoveError
from pebbling.pebbling_number import _symmetry_mode


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
        z = g.labels.index("z")
        y1 = g.labels.index("y_1")
        p = pb.configuration(g, {z: 8})
        q = pb.apply_move(g, p, z, y1)
        assert q.counts[z] == 6 and q.counts[y1] == 1

    def test_size_drops_by_one(self, c5):
        p = pb.configuration(c5, (0, 3, 0, 0, 2))
        assert pb.apply_move(c5, p, 1, 0).size == p.size - 1

    def test_not_adjacent(self, c5):
        with pytest.raises(MoveError, match="1 and 3 are not adjacent"):
            pb.apply_move(c5, pb.configuration(c5, (0, 2, 0, 0, 0)), 1, 3)

    def test_insufficient(self, c5):
        with pytest.raises(MoveError, match="vertex 1 holds 1 < 2 pebbles"):
            pb.apply_move(c5, pb.configuration(c5, (0, 1, 0, 0, 0)), 1, 2)

    def test_graph_mismatch(self, c4, c5):
        with pytest.raises(BadParameterError, match="configuration belongs to a different graph"):
            pb.apply_move(c5, pb.configuration(c4, (2, 0, 0, 0)), 0, 1)


class TestApplyMoves:
    """apply_moves checks a run of equal moves at once; it must end as
    apply_move applied one move at a time does: the same counts, or the
    same MoveError at the same move."""

    @staticmethod
    def one_at_a_time(g, p, moves):
        for i, (u, v) in enumerate(moves):
            try:
                p = pb.apply_move(g, p, u, v)
            except MoveError as exc:
                return "error", i, str(exc)
        return "counts", p.counts

    @staticmethod
    def at_once(g, p, moves):
        try:
            return "counts", pb.apply_moves(g, p, moves).counts
        except MoveError as exc:
            return "error", exc.index, str(exc)

    def test_same_end_as_one_move_at_a_time(self):
        rng = random.Random(38_038)
        kinds = set()
        for _ in range(300):
            g = random_connected_graph(rng, n_min=3, n_max=7)
            p = pb.configuration(g, random_counts(rng, g, max_total=30))
            moves = []
            for _ in range(rng.randint(1, 5)):
                u = rng.randrange(g.vertex_count)
                others = [v for v in range(g.vertex_count) if v != u]
                v = rng.choice(others if rng.random() < 0.1 else g.neighbors[u])
                moves += [(u, v)] * rng.randint(1, 6)
            end = self.one_at_a_time(g, p, moves)
            assert self.at_once(g, p, moves) == end, (g.edges, p.counts, moves)
            if end[0] == "counts":
                kinds.add("legal")
            elif "adjacent" in end[2]:
                kinds.add("not adjacent")
            elif end[1] and moves[end[1] - 1] == moves[end[1]]:
                kinds.add("illegal part-way through a run")
        assert kinds == {"legal", "not adjacent", "illegal part-way through a run"}


class TestCountsMustBeIntegers:
    @pytest.mark.parametrize("count", [2.5, 2.0, "2", True])
    def test_non_integer_count_refused(self, count):
        # the solver would move two pebbles off a count of 2.5 and leave 0.5 behind;
        # a config file would hold True as "p 0 True", which parse_config refuses
        g = pb.path_graph(1)
        with pytest.raises(BadParameterError):
            pb.configuration(g, [count, 0])

    @pytest.mark.parametrize("counts", [(), (0, 1), (0, 1, 2, 3)], ids=["empty", "short", "long"])
    def test_counts_of_another_length_refused(self, counts):
        with pytest.raises(BadParameterError, match="counts length does not match the graph"):
            pb.configuration(pb.path_graph(2), counts)

    def test_non_iterable_counts_refused(self):
        g = pb.path_graph(3)
        for counts in (None, 5):
            with pytest.raises(BadParameterError, match="counts is not a sequence"):
                pb.configuration(g, counts)


class TestMappingConstructor:
    def test_key_outside_the_vertices_refused(self):
        # -1 would index the root, and 4 would raise a bare IndexError
        g = pb.path_graph(3)
        for key in (-1, -4, 4, 9):
            with pytest.raises(BadParameterError):
                pb.configuration(g, {key: 3})


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
        assert _symmetry_mode(g) == ("blocks", ((3, 4, 5, 6),))
        # the twins found by applying every transposition to the edges
        assert twin_blocks(g) == [(3, 4, 5, 6)]
        group = symmetry_closure(g, twin_transpositions(g))
        assert len(group) == 24
        for size in range(5):
            for p in pb.enumerate_configurations(g, size, exclude_root=True):
                # the block-aware orbit agrees with the closure's
                assert block_orbit(twin_blocks(g), p.counts) == orbit(group, p.counts)
        plain = [p.counts for p in pb.enumerate_configurations(g, 2, exclude_root=True)]
        assert len(plain) == 21
        forms = set()
        for c in plain:
            form = max(orbit(group, c))
            assert form == c[:3] + tuple(sorted(c[3:], reverse=True))
            forms.add(form)
        assert len(forms) == 7

    def test_symmetry_orbit_coverage(self, q3):
        # the group's images of a configuration are its whole orbit (the
        # group from networkx, the getters from the edge search)
        kind, perms = _symmetry_mode(q3)
        assert kind == "group"
        group = symmetry_closure(q3)
        for p in pb.enumerate_configurations(q3, 2, exclude_root=True):
            assert {perm(p.counts) for perm in perms} == orbit(group, p.counts)

    @pytest.mark.parametrize("size", [-1, -5])
    def test_negative_size_refused(self, c4, size):
        # a generator: the refusal comes with the first configuration asked for
        with pytest.raises(BadParameterError, match="size must be nonnegative"):
            next(pb.enumerate_configurations(c4, size))

    def test_stream_is_descending_lex(self, c4):
        for s in (3, 5):
            got = [p.counts for p in pb.enumerate_configurations(c4, s)]
            assert got == sorted(got, reverse=True)


class TestHypercubeOrbitCounts:
    def test_q3_one_pebble_orbits(self, q3):
        # coordinate permutations split single pebbles by root distance
        _, perms = _symmetry_mode(q3)
        plain = pb.enumerate_configurations(q3, 1, exclude_root=True)
        assert len({max(perm(p.counts) for perm in perms) for p in plain}) == 3

    def test_q3_orbit_count_agrees_with_burnside_free_quotient(self, q3):
        # independent: the orbits of networkx's root-fixing group, one maximum each
        _, perms = _symmetry_mode(q3)
        group = symmetry_closure(q3)
        for s in (2, 3):
            plain = list(pb.enumerate_configurations(q3, s, exclude_root=True))
            orbits = {frozenset(orbit(group, p.counts)) for p in plain}
            forms = {max(perm(p.counts) for perm in perms) for p in plain}
            assert forms == {max(o) for o in orbits}
