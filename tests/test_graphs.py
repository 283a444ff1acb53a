import math
import random
from itertools import combinations

import networkx as nx
import pytest

import pebbling as pb
from conftest import random_connected_graph, root_fixing_automorphisms, symmetry_closure, twin_transpositions
from pebbling.errors import BadParameterError, ResourceLimitError
from pebbling.fileformats import parse_graph, serialize_graph
from pebbling.graphs import _FAMILIES, GROUP_SIZE_CAP, root_automorphisms, twin_classes
from pebbling.pebbling_number import _symmetry_mode

FIG2_EDGES = [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]


def to_nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges)
    return h


def structure_signature(g):
    """Cheap isomorphism-with-root invariant: degrees paired with root distances."""
    dist = pb.distances_from(g, g.root)
    return sorted((len(g.neighbors[v]), dist[v]) for v in range(g.vertex_count))


class TestBuildGraph:
    def test_p2(self):
        g = pb.build_graph(2, [(0, 1)], root=1)
        assert g.vertex_count == 2
        assert g.edges == ((0, 1),)

    def test_c4(self):
        g = pb.build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], root=0)
        assert len(g.edges) == 4
        assert all(len(g.neighbors[v]) == 2 for v in range(4))

    def test_fig2_shape(self):
        g = pb.build_graph(5, FIG2_EDGES, root=0)
        assert structure_signature(g) == structure_signature(pb.rooted_cube(3))

    def test_rejects_self_loop(self):
        with pytest.raises(BadParameterError, match="self-loop at vertex 1"):
            pb.build_graph(3, [(0, 1), (1, 1), (1, 2)], root=0)

    def test_rejects_duplicate_edge(self):
        with pytest.raises(BadParameterError, match=r"duplicate edge \(0, 1\)"):
            pb.build_graph(3, [(0, 1), (1, 0), (1, 2)], root=0)

    def test_rejects_disconnected(self):
        with pytest.raises(BadParameterError, match="graph is disconnected: reached 2 of 4 vertices"):
            pb.build_graph(4, [(0, 1), (2, 3)], root=0)

    def test_rejects_bad_root(self):
        with pytest.raises(BadParameterError, match=r"root 2 out of range \[0, 2\)"):
            pb.build_graph(2, [(0, 1)], root=2)

    def test_rejects_bad_endpoint(self):
        with pytest.raises(BadParameterError):
            pb.build_graph(2, [(0, 5)], root=0)

    def test_rejects_labels_the_file_format_cannot_carry(self):
        # a graph file writes "label <v> <label>" on one line and strips it, so
        # these would fail to parse or come back changed
        for bad in ("", "a\nb", "a\r", "a\x1cb", " a", "b ", "\ta", 7, None, ("a",)):
            with pytest.raises(BadParameterError, match="label of vertex 1"):
                pb.build_graph(3, [(0, 1), (1, 2)], root=0, labels=("r", bad, "c"))
        g = pb.build_graph(3, [(0, 1), (1, 2)], root=0, labels=("r", "a b", "(0,1)"))
        text = serialize_graph(g)
        assert parse_graph(text).labels == g.labels and serialize_graph(parse_graph(text)) == text

    def test_every_family_round_trips_byte_identically(self):
        seen = 0
        for family, (_, arity) in _FAMILIES.items():
            for count in (arity,) if isinstance(arity, int) else arity:
                g = pb.generate(family, *{0: (), 1: (3,), 2: (1, 3)}[count])
                text = serialize_graph(g)
                again = parse_graph(text)
                assert serialize_graph(again) == text and again.labels == g.labels, family
                seen += 1
        assert seen == 8


class TestDistances:
    def test_hypercube_opposite_corners(self):
        q4 = pb.hypercube(4)
        assert pb.distance(q4, 0, 15) == 4

    def test_cycle_adjacent(self, c5):
        assert pb.distance(c5, 0, 1) == 1
        assert pb.distance(c5, 0, 4) == 1

    def test_fig2_root_to_bottom(self, fig2):
        far = max(range(5), key=lambda v: pb.distance(fig2, fig2.root, v))
        assert pb.distance(fig2, fig2.root, far) == 3

    def test_diameter_examples(self, q3, c5):
        assert pb.diameter(q3) == 3
        assert pb.diameter(c5) == 2

    def test_diameter_rooted_cube4_matches_networkx(self):
        g4 = pb.rooted_cube(4)
        assert pb.diameter(g4) == nx.diameter(to_nx(g4)) == 4

    def test_metric_properties_on_families(self):
        graphs = [
            pb.path_graph(4),
            pb.cycle_graph(7),
            pb.hypercube(3),
            pb.rooted_cube(4),
            pb.lollipop(1, 4),
            pb.lollipop(2),
        ]
        for g in graphs:
            assert g.vertex_count <= 20
            dist = [pb.distances_from(g, v) for v in range(g.vertex_count)]
            for u in range(g.vertex_count):
                assert dist[u][u] == 0
                for v in range(g.vertex_count):
                    assert dist[u][v] == dist[v][u]
                    assert (dist[u][v] == 0) == (u == v)
                    for w in range(g.vertex_count):
                        assert dist[u][w] <= dist[u][v] + dist[v][w]


class TestGenerate:
    def test_hypercube_counts(self):
        for n in range(1, 6):
            q = pb.hypercube(n)
            assert q.vertex_count == 2**n
            assert len(q.edges) == n * 2 ** (n - 1)
            assert pb.diameter(q) == n

    def test_lollipop_1_4(self):
        g = pb.lollipop(1, 4)
        assert g.vertex_count == 7
        assert len(g.edges) == 9
        assert g.labels[0] == "r"
        assert g.labels.count("u_0") == 1

    def test_lollipop_default_arm_count(self):
        g = pb.lollipop(2)
        assert g.vertex_count == 2 + 8 + 2

    def test_rooted_cube_4(self):
        g = pb.rooted_cube(4)
        assert g.vertex_count == 9
        assert len(g.edges) == 13
        assert sorted(g.labels) == sorted(["r", "u", "x_1", "x_2", "x_3", "y_1", "y_2", "y_3", "z"])

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rooted_cube_matches_independent_construction(self, n):
        g = pb.rooted_cube(n)
        size = 1 << (n - 1)
        edges = {(0, 1)} | {
            (1 + a, 1 + b) for a in range(size) for b in range(a + 1, size) if (a ^ b) & ((a ^ b) - 1) == 0
        }
        assert g.vertex_count == size + 1 and g.root == 0
        assert set(g.edges) == edges
        if n != 4:
            words = ["(" + ",".join(str((a >> i) & 1) for i in range(n - 1)) + ")" for a in range(size)]
            assert g.labels == ("r", *words)
        group = symmetry_closure(g)
        assert len(group) == math.factorial(n - 1)
        assert all(p[0] == 0 for p in group)

    def test_hypercube_3(self, q3):
        assert q3.vertex_count == 8
        assert len(q3.edges) == 12
        assert q3.labels[0] == "(0,0,0)"

    def test_dispatcher(self):
        assert pb.generate("cycle", 5) is pb.cycle_graph(5)
        assert pb.generate("fig2") is pb.rooted_cube(3)
        with pytest.raises(BadParameterError, match="unknown family 'petersen'"):
            pb.generate("petersen")
        with pytest.raises(BadParameterError):
            pb.generate("cycle")
        with pytest.raises(BadParameterError):
            pb.generate("cycle", 2)

    def test_symmetry_permutations_are_root_fixing_automorphisms(self):
        for g in [pb.cycle_graph(9), pb.hypercube(4), pb.rooted_cube(4), pb.lollipop(2)]:
            # the swaps of the twins, and the group found from the edges
            swaps = _class_swaps(g)
            assert swaps == set(twin_transpositions(g))
            # (the lollipop's 8! arm permutations are past the cap)
            group = root_automorphisms(g) or ()
            assert len(group) > 1 or swaps
            for p in (*group, *swaps):
                assert p[g.root] == g.root
                mapped = {(min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edges}
                assert mapped == set(g.edges)

    def test_lemma5_labels_match_structure(self):
        g = pb.rooted_cube(4)
        dist = pb.distances_from(g, g.root)
        by_label = {g.labels[v]: v for v in range(9)}
        assert dist[by_label["u"]] == 1
        assert all(dist[by_label[f"x_{i}"]] == 2 for i in (1, 2, 3))
        assert all(dist[by_label[f"y_{i}"]] == 3 for i in (1, 2, 3))
        assert dist[by_label["z"]] == 4
        # y_i is adjacent to exactly the two x's with a different index
        for i in (1, 2, 3):
            xs = {j for j in (1, 2, 3) if g.has_edge(by_label[f"y_{i}"], by_label[f"x_{j}"])}
            assert xs == {1, 2, 3} - {i}


def _class_swaps(g):
    """The transpositions of two vertices of one twin class."""
    swaps = set()
    for block in twin_classes(g):
        for a, b in combinations(block, 2):
            perm = list(range(g.vertex_count))
            perm[a], perm[b] = b, a
            swaps.add(tuple(perm))
    return swaps


class TestTwinClasses:
    """graphs.twin_classes against conftest.twin_transpositions, which
    applies every transposition of two non-root vertices to the edges."""

    def test_bundled_families(self):
        cases = [
            (pb.cycle_graph(3), ((1, 2),)),
            (pb.cycle_graph(4), ((1, 3),)),
            (pb.hypercube(2), ((1, 2),)),
            (pb.rooted_cube(3), ((2, 3),)),
            (pb.lollipop(1), (tuple(range(3, 7)),)),
            (pb.lollipop(2), (tuple(range(4, 12)),)),
            (pb.lollipop(3), (tuple(range(5, 21)),)),
            (pb.lollipop(1, 6), (tuple(range(3, 9)),)),
            (pb.lollipop(2, 3), ((4, 5, 6),)),
        ]
        cases += [(g, ()) for g in (pb.cycle_graph(5), pb.cycle_graph(9), pb.hypercube(3), pb.hypercube(4))]
        cases += [(g, ()) for g in (pb.rooted_cube(4), pb.rooted_cube(5), pb.path_graph(6))]
        for g, classes in cases:
            assert twin_classes(g) == classes, g.edges
            assert _class_swaps(g) == set(twin_transpositions(g)), g.edges

    def test_random_graphs(self):
        # sparse graphs share leaves (open twins), dense ones cliques
        # (adjacent twins); the classes are disjoint and avoid the root
        rng = random.Random(27_183)
        with_twins = 0
        for _ in range(300):
            g = random_connected_graph(rng, n_min=2, n_max=8, max_extra=rng.choice((0, 3, 20)))
            classes = twin_classes(g)
            covered = [v for block in classes for v in block]
            assert len(covered) == len(set(covered)) and g.root not in covered, g.edges
            assert all(len(block) >= 2 and list(block) == sorted(block) for block in classes)
            assert _class_swaps(g) == set(twin_transpositions(g)), (g.edges, g.root)
            with_twins += bool(classes)
        assert with_twins >= 100



def _relabeled_file_copy(g, seed):
    """A seeded relabeling of g, written and read back in the file format."""
    perm = list(range(g.vertex_count))
    random.Random(seed).shuffle(perm)
    moved = pb.build_graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges], root=perm[g.root])
    return parse_graph(serialize_graph(moved))


class TestRootAutomorphisms:
    """graphs.root_automorphisms against networkx's GraphMatcher with the
    root pinned (conftest.root_fixing_automorphisms)."""

    @staticmethod
    def _agrees(g):
        group = root_automorphisms(g)
        assert group[0] == tuple(range(g.vertex_count)) and list(group) == sorted(set(group)), g.edges
        assert set(group) == root_fixing_automorphisms(g), (g.edges, g.root)
        return len(group)

    def test_families_and_their_file_copies(self):
        graphs = [pb.cycle_graph(n) for n in range(3, 13)]
        graphs += [pb.hypercube(n) for n in range(1, 6)] + [pb.rooted_cube(n) for n in range(2, 6)]
        for seed, g in enumerate(graphs):
            order = self._agrees(g)
            assert self._agrees(_relabeled_file_copy(g, seed)) == order, g.edges
        assert [len(root_automorphisms(pb.cycle_graph(n))) for n in (3, 12)] == [2, 2]
        assert [len(root_automorphisms(pb.hypercube(n))) for n in range(1, 6)] == [1, 2, 6, 24, 120]
        assert [len(root_automorphisms(pb.rooted_cube(n))) for n in range(2, 6)] == [1, 2, 6, 24]

    def test_random_graphs(self):
        rng = random.Random(31_415)
        orders = set()
        for _ in range(200):
            g = random_connected_graph(rng, n_min=1, n_max=8, max_extra=rng.choice((0, 3, 12)))
            orders.add(self._agrees(g))
        assert {1, 2, 6} <= orders

    def test_a_group_past_the_cap_is_not_enumerated(self):
        # eight legs of length 2 off the root: 8! = 40,320 root-fixing
        # automorphisms and no twins, so no orbit reduction at all
        legs = 8
        edges = [(0, 1 + i) for i in range(legs)] + [(1 + i, 1 + legs + i) for i in range(legs)]
        g = pb.build_graph(1 + 2 * legs, edges, root=0)
        assert math.factorial(legs) > GROUP_SIZE_CAP and twin_classes(g) == ()
        assert root_automorphisms(g) is None
        assert "automorphisms" in g._cache
        assert _symmetry_mode(g) == ("none", None)

    def test_check_is_called_during_the_search(self):
        # the deadline test stops the search part-way and nothing is cached
        g = pb.hypercube(6)

        def stop():
            raise ResourceLimitError("stopped")

        g._cache.pop("automorphisms", None)
        with pytest.raises(ResourceLimitError):
            root_automorphisms(g, stop)
        assert "automorphisms" not in g._cache
