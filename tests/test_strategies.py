import ast
import dataclasses
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import pebbling as pb
from conftest import naive_unsolvable_levels, random_connected_graph, reference_tree_check
from pebbling import pebbling_number as engine
from pebbling import strategies
from pebbling.errors import (
    BadParameterError,
    InternalError,
    LpError,
    NotATreeError,
    ResourceLimitError,
    UncertifiedWeightError,
    WeightNotPositiveError,
)


class TestEvaluate:
    """w(1_G), the weight of the all-ones configuration."""

    def test_fig2_all_ones(self):
        _, w = pb.construction("fig2")
        assert w.total == Fraction(11, 3)

    def test_lemma5_all_ones(self):
        _, w = pb.construction("lemma5")
        assert w.total == 15

    def test_total_is_the_fraction_sum(self):
        # summed as integers over the common denominator; ints and Fractions mixed
        rng = random.Random(2802)
        g = pb.hypercube(4)
        for _ in range(200):
            weights = [
                0 if v == g.root else rng.choice((rng.randint(0, 9), Fraction(rng.randint(0, 40), rng.randint(1, 30))))
                for v in range(g.vertex_count)
            ]
            total = pb.WeightFunction(g, tuple(weights)).total
            assert type(total) is Fraction and total == sum(weights, start=Fraction(0))


class TestWeightFunction:
    def test_mapping_key_outside_the_vertices_refused(self):
        # -2 would weight vertex n-2, and 4 would raise a bare IndexError
        g = pb.path_graph(3)
        for key in (-2, -5, 4, 9):
            with pytest.raises(BadParameterError):
                pb.weight_function(g, {key: 5})

    def test_float_weights_refused(self):
        # floats would make w(1_G) inexact: 0.1 + 0.2 is not 3/10
        g = pb.path_graph(2)
        for weights in ((0.5, 1.0, 0), (0.1, 0.2, 0), (Fraction(1, 2), "1", 0)):
            with pytest.raises(BadParameterError):
                pb.WeightFunction(g, weights)
        # Fraction's own errors: NaN is a ValueError, inf an OverflowError,
        # "1/0" a ZeroDivisionError and a non-number a TypeError
        for bad in (float("nan"), float("inf"), "1/0", "x", None, [1], object()):
            with pytest.raises(BadParameterError, match="not an exact rational"):
                pb.weight_function(g, (bad, 1, 0))
            with pytest.raises(BadParameterError, match="not an exact rational"):
                pb.weight_function(g, {0: bad})
        assert pb.WeightFunction(g, (1, Fraction(1, 2), 0)).total == Fraction(3, 2)
        assert pb.weight_function(g, (0.5, 1.0, 0)).weights == (Fraction(1, 2), 1, 0)

    def test_non_iterable_weights_refused(self):
        g = pb.path_graph(2)
        for values in (None, 5):
            with pytest.raises(BadParameterError, match="weights is not a sequence"):
                pb.weight_function(g, values)


class TestTreeChecker:
    def test_path_weights_pass(self):
        for k in (1, 2, 3, 4, 5):
            g, w = pb.construction("path", k)
            assert pb.check_tree_strategy(g, w)

    def test_swapped_path_weights_fail(self, p3):
        w = pb.weight_function(p3, (2, 1, 0))
        assert not pb.check_tree_strategy(p3, w)

    def test_fig2_support_has_a_cycle(self, fig2):
        _, w = pb.construction("fig2")
        with pytest.raises(NotATreeError):
            pb.check_tree_strategy(fig2, w)

    def test_support_cut_off_from_the_root(self):
        # a positive triangle behind the zero-weight vertex 1: n - 1 edges, but no path to the root
        g = pb.build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)], root=0)
        w = pb.weight_function(g, {2: 1, 3: 1, 4: 1})
        with pytest.raises(NotATreeError, match="not connected to the root"):
            pb.check_tree_strategy(g, w)

    def test_partial_support_tree_inside_cycle(self, c5):
        # zero weights prune the support down to an induced path
        w = pb.weight_function(c5, {1: 4, 2: 2, 3: 1})
        assert pb.check_tree_strategy(c5, w)

    def test_halving_boundary_with_mixed_denominators(self):
        # path 0 - 1 - 2 - root 3: vertex 2 is unconstrained, 1 needs at
        # most half of 2, and 0 at most half of 1; 2/3 over 1/3 is exactly
        # half, and 1/97 more tips it
        g = pb.path_graph(3)
        assert pb.check_tree_strategy(g, pb.weight_function(g, {2: Fraction(7, 5), 1: Fraction(2, 3), 0: Fraction(1, 3)}))
        over = pb.weight_function(g, {2: Fraction(7, 5), 1: Fraction(2, 3), 0: Fraction(1, 3) + Fraction(1, 97)})
        assert not pb.check_tree_strategy(g, over)
        with pytest.raises(UncertifiedWeightError):
            pb.certify_tree(g, over)
        # and at the unconstrained vertex's child: 4/3 over 2/3 passes, 4/3 - 1/97 fails
        assert pb.check_tree_strategy(g, pb.weight_function(g, {2: Fraction(4, 3), 1: Fraction(2, 3), 0: Fraction(1, 5)}))
        assert not pb.check_tree_strategy(
            g, pb.weight_function(g, {2: Fraction(4, 3) - Fraction(1, 97), 1: Fraction(2, 3), 0: Fraction(1, 5)})
        )

    def test_root_adjacent_vertices_unconstrained(self):
        g = pb.build_graph(3, [(0, 1), (0, 2)], root=0)
        w = pb.weight_function(g, {1: 100, 2: 1})
        assert pb.check_tree_strategy(g, w)

    def test_agrees_with_the_networkx_reference(self):
        # random connected graphs, weights 0 or 2^(6-d) at distance d times
        # a factor, 1 most often: supports come out cyclic, cut off from
        # the root, exactly halving and not, and each verdict must occur
        rng = random.Random(3501)
        seen = Counter()
        for _ in range(600):
            g = random_connected_graph(rng, n_max=10, max_extra=6)
            dist = pb.distances_from(g, g.root)
            factors = (0, 0, 1, 1, 1, Fraction(3, 2), Fraction(1, 3))
            w = pb.weight_function(
                g, {v: Fraction(2) ** (6 - dist[v]) * rng.choice(factors) for v in range(g.vertex_count) if v != g.root}
            )
            expected = reference_tree_check(g, w)
            try:
                got = pb.check_tree_strategy(g, w)
            except NotATreeError as exc:
                got = str(exc)
            assert got == expected, (g.edges, g.root, w.weights)
            seen[expected] += 1
        assert len(seen) == 4 and min(seen.values()) >= 10, seen


class TestOracle:
    def test_fig2_valid(self, fig2):
        _, w = pb.construction("fig2")
        assert pb.verify_validity_oracle(fig2, w).valid

    def test_q3prime_valid(self, q3):
        _, w = pb.construction("q3prime")
        res = pb.verify_validity_oracle(q3, w)
        assert res.valid
        assert res.cap == 11

    def test_invalid_p3_weighting(self, p3):
        w = pb.weight_function(p3, (2, 1, 0))
        res = pb.verify_validity_oracle(p3, w)
        assert not res.valid
        assert res.counterexample.counts == (3, 0, 0)
        assert res.max_unsolvable == 6 > res.cap == 3
        assert not pb.is_solvable(p3, res.counterexample).solvable

    def test_lemma5_valid(self, lemma5_graph):
        _, w = pb.construction("lemma5")
        res = pb.verify_validity_oracle(lemma5_graph, w)
        assert res.valid
        assert res.max_unsolvable == 15 == res.cap

    def test_zero_weights_agree_with_the_reference(self):
        # the cap inequality needs no positive support: with a zero off
        # the root the oracle's maximum is still the reference maximum,
        # and a counterexample is one of the reference's configurations
        def weight(w, counts):
            return sum(c * x for c, x in zip(counts, w.weights))

        rng = random.Random(3303)
        verdicts = set()
        for _ in range(30):
            g = random_connected_graph(rng, n_min=3, n_max=5)
            reference = naive_unsolvable_levels(g)
            others = [v for v in range(g.vertex_count) if v != g.root]
            for _ in range(3):
                values = {v: rng.choice((0, 1, 2, 3, Fraction(1, 2), Fraction(5, 3))) for v in others}
                values[rng.choice(others)] = 0
                w = pb.weight_function(g, values)
                best = max(weight(w, p) for level in reference for p in level)
                res = pb.verify_validity_oracle(g, w)
                assert res.max_unsolvable == best and res.cap == w.total, g.edges
                assert res.valid == (best <= w.total), g.edges
                if not res.valid:
                    p = res.counterexample
                    assert p.counts in reference[p.size] and weight(w, p.counts) == best, g.edges
                verdicts.add(res.valid)
        assert verdicts == {True, False}

    def test_scale_invariance_on_fig2(self, fig2):
        _, w = pb.construction("fig2")
        for factor in (2, Fraction(1, 3)):
            assert pb.verify_validity_oracle(fig2, pb.weight_function(fig2, [factor * x for x in w.weights])).valid

    def test_checks_the_witness_without_pi(self, monkeypatch, p3):
        # a down-set whose last level gains a solvable maximum, (4, 0, 0),
        # planted as its packed key
        levels = engine._levels
        _, unit, unpack = engine._layout(p3, "none")
        planted = 4 * unit[0]
        assert unpack(planted) == (4, 0, 0)

        def tampered(g, solver, maximal):
            *below, last = levels(g, solver, maximal)
            yield from below
            yield {*last, planted}

        p3._cache.clear()
        monkeypatch.setattr(engine, "_levels", tampered)
        w = pb.weight_function(p3, (2, 1, 0))
        with pytest.raises(InternalError, match="re-verification"):
            pb.verify_validity_oracle(p3, w)
        assert "down_set" not in p3._cache

    def test_never_computes_pi(self, monkeypatch, lemma5_graph):
        def refuse(*args, **kwargs):
            raise AssertionError("pi_rooted called by the oracle")

        monkeypatch.setattr(engine, "pi_rooted", refuse)
        monkeypatch.setattr(strategies, "pi_rooted", refuse, raising=False)
        lemma5_graph._cache.clear()
        _, w = pb.construction("lemma5")
        assert pb.verify_validity_oracle(lemma5_graph, w).valid


class TestConicCombine:
    def test_two_mirrored_cycle_strategies(self, c5):
        a, b = pb.cycle_strategy_pair(2)
        cert = pb.conic_combine(c5, [(1, a, None), (1, b, None)])
        assert cert.weight_function.weights == (0, 4, 3, 3, 4)
        assert cert.weight_function.total == 14
        assert cert.status == "composed"

    def test_cycle_combined_matches_materialized(self):
        for k in (1, 2, 3, 4):
            g, w = pb.construction("cycle_combined", k)
            a, b = pb.cycle_strategy_pair(k)
            cert = pb.conic_combine(g, [(1, a, None), (1, b, None)])
            assert cert.weight_function.weights == w.weights

    def test_three_fig2_copies_make_q3prime(self, q3):
        base = pb.construction_certificate("fig2")
        cert = pb.conic_combine(q3, [(1, base, emb) for emb in pb.cube_copy_embeddings(3)])
        _, w_prime = pb.construction("q3prime")
        assert cert.weight_function.weights == w_prime.weights

    def test_identity_combination(self, fig2):
        base = pb.construction_certificate("fig2")
        cert = pb.conic_combine(fig2, [(1, base, None)])
        assert cert.weight_function.weights == base.weight_function.weights

    def test_negative_coefficient(self, fig2):
        base = pb.construction_certificate("fig2")
        with pytest.raises(BadParameterError, match="coefficient -1 is negative"):
            pb.conic_combine(fig2, [(-1, base, None)])

    def test_uncovered_vertex(self, q3):
        # one fig2 copy leaves vertices 2, 4 and 6 of Q3 at weight 0: the
        # combination is a certificate, as the cap inequality holds for any
        # nonnegative support, but neither bound can read it alone
        base = pb.construction_certificate("fig2")
        cert = pb.conic_combine(q3, [(1, base, pb.cube_copy_embeddings(3)[0])])
        w = cert.weight_function
        assert cert.status == "composed" and cert.components == (base,)
        assert [v for v, x in enumerate(w.weights) if x == 0] == [0, 2, 4, 6]
        with pytest.raises(WeightNotPositiveError):
            pb.weight_function_bound(cert)
        with pytest.raises(LpError, match="vertex 2 has zero weight in every certificate"):
            pb.lp_pebbling_bound(q3, [cert])
        unsolvable = [p for level in naive_unsolvable_levels(q3) for p in level]
        assert len(unsolvable) == 261  # pi(Q3) = 8: sizes 0 to 7
        assert max(sum(c * x for c, x in zip(p, w.weights)) for p in unsolvable) == w.total

    def test_coefficients_are_read_exactly(self, fig2):
        base = pb.construction_certificate("fig2")
        # Fraction's own errors: NaN is a ValueError, inf an OverflowError,
        # "1/0" a ZeroDivisionError and a non-number a TypeError
        for bad in (float("nan"), float("inf"), "1/0", "x", None, [1], object()):
            with pytest.raises(BadParameterError, match="coefficient is not an exact rational"):
                pb.conic_combine(fig2, [(bad, base, None)])
        assert pb.conic_combine(fig2, [("1/2", base, None)]).weight_function.total == Fraction(11, 6)
        assert pb.conic_combine(fig2, [(0.5, base, None)]).weight_function.total == Fraction(11, 6)

    def test_conic_combine_is_the_one_composer(self):
        # every Certificate(...) in src/ that passes the composed status
        # is the one in conic_combine, so every composition follows its rules
        def composed(node):
            name = getattr(node, "id", getattr(node, "attr", None))
            return name == "COMPOSED" or (isinstance(node, ast.Constant) and node.value == "composed")

        found = []
        for path in sorted(Path(strategies.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scope = {}  # node -> its innermost enclosing function: ast.walk goes outside in
            for fn in ast.walk(tree):
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    scope.update(dict.fromkeys(ast.walk(fn), getattr(fn, "name", "<lambda>")))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Certificate":
                    if any(composed(arg) for arg in [*node.args, *(k.value for k in node.keywords)]):
                        found.append((path.name, scope.get(node, "<module>")))
        assert found == [("strategies.py", "conic_combine")]

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda c5, cert: pb.weight_function(c5, (0, 1)), "weights length does not match the graph"),
            (lambda c5, cert: pb.weight_function(c5, (0, -1, 0, 0, 0)), "weights must be nonnegative"),
            (lambda c5, cert: pb.weight_function(c5, (1, 1, 0, 0, 0)), "root weight must be 0"),
            (lambda c5, cert: pb.conic_combine(c5, [(1, cert, (2, 1))]), "embedding length does not match the subgraph"),
            (lambda c5, cert: pb.conic_combine(c5, [(1, cert, (1, 1, 0))]), "embedding must be injective"),
            (lambda c5, cert: pb.conic_combine(c5, [(1, cert, (2, 5, 0))]), "embedding must be injective"),
            (lambda c5, cert: pb.conic_combine(c5, [(1, cert, (3, 1, 0))]), r"edge \(0,1\) has no image edge"),
            (lambda c5, cert: pb.conic_combine(c5, [(1, cert, None)]), "no embedding given and the graphs differ"),
        ],
        ids=["short-weights", "negative-weight", "root-weight", "short-embedding", "repeated-vertex", "vertex-out-of-range", "edge-not-kept", "no-embedding"],
    )
    def test_refused_weights_and_embeddings(self, c5, call, message):
        # the path 0-1-2 rooted at 2, certified by the tree check
        g, w = pb.construction("path", 2)
        with pytest.raises(BadParameterError, match=message):
            call(c5, pb.certify(g, w, "tree"))

    def test_non_iterable_embedding_refused(self, q3):
        base = pb.construction_certificate("fig2")
        for embedding in (5, object()):
            with pytest.raises(BadParameterError, match="embedding is not a sequence"):
                pb.conic_combine(q3, [(1, base, embedding)])

    def test_uncertified_component(self, fig2):
        _, w = pb.construction("fig2")
        with pytest.raises(UncertifiedWeightError, match="every component must carry a certificate"):
            pb.conic_combine(fig2, [(1, w, None)])

    def test_conjecture_copies_make_uniform_weights_on_q3(self, q3):
        base = pb.certify(*pb.construction("conjecture", 3), "oracle")
        cert = pb.conic_combine(q3, [(1, base, emb) for emb in pb.cube_copy_embeddings(3)])
        assert all(x == 1 for v, x in enumerate(cert.weight_function.weights) if v != q3.root)
        assert pb.weight_function_bound(cert) == 8


class TestDecomposition:
    def test_q4star_from_four_lemma5_copies(self):
        q4, w_star = pb.construction("q4star")
        _, base = pb.construction("lemma5")
        copies = [(emb, base) for emb in pb.cube_copy_embeddings(4)]
        assert pb.verify_decomposition(q4, w_star, copies)

    def test_q3prime_from_three_fig2_copies(self, q3):
        _, w_prime = pb.construction("q3prime")
        _, base = pb.construction("fig2")
        copies = [(emb, base) for emb in pb.cube_copy_embeddings(3)]
        assert pb.verify_decomposition(q3, w_prime, copies)

    def test_omitted_copy_fails(self):
        q4, w_star = pb.construction("q4star")
        _, base = pb.construction("lemma5")
        copies = [(emb, base) for emb in pb.cube_copy_embeddings(4)[:3]]
        assert not pb.verify_decomposition(q4, w_star, copies)

    def test_non_induced_embedding_rejected(self):
        # a 2-path laid around a triangle picks up the closing chord
        c3 = pb.cycle_graph(3)
        path = pb.path_graph(2)
        w = pb.weight_function(path, (1, 2, 0))
        with pytest.raises(BadParameterError, match="embedding is not induced: image has an extra edge"):
            pb.verify_decomposition(c3, pb.weight_function(c3, {1: 2, 2: 1}), [((2, 1, 0), w)])

    def test_missing_embedding_refused(self):
        # an embedding of None means "already on g" only to conic_combine
        q4, w_star = pb.construction("q4star")
        _, base = pb.construction("lemma5")
        cert = pb.construction_certificate("lemma5")
        with pytest.raises(BadParameterError, match="embedding is not a sequence"):
            pb.verify_decomposition(q4, w_star, [(None, base)])
        with pytest.raises(BadParameterError, match="embedding is not a sequence"):
            pb.certify_by_decomposition(q4, w_star, [(None, cert)])

    def test_embedding_entries_must_be_ints(self, c5):
        # True would embed as vertex 1; 1.0 and "1" escaped as a bare TypeError
        g, w = pb.construction("path", 2)
        cert = pb.certify(g, w, "tree")
        target = pb.weight_function(c5, {1: 2, 2: 1})
        for bad in (True, 1.0, "1"):
            emb = (2, bad, 0)
            with pytest.raises(BadParameterError, match=f"embedding entry must be an integer, not {bad!r}"):
                pb.conic_combine(c5, [(1, cert, emb)])
            with pytest.raises(BadParameterError, match=f"embedding entry must be an integer, not {bad!r}"):
                pb.verify_decomposition(c5, target, [(emb, w)])
            with pytest.raises(BadParameterError, match=f"embedding entry must be an integer, not {bad!r}"):
                pb.certify_by_decomposition(c5, target, [(emb, cert)])
        assert pb.verify_decomposition(c5, target, [((2, 1, 0), w)])
        assert pb.certify_by_decomposition(c5, target, [((2, 1, 0), cert)]).weight_function.weights == target.weights

    def test_root_must_map_to_root(self, c5):
        path = pb.path_graph(2)
        w = pb.weight_function(path, (1, 2, 0))
        with pytest.raises(BadParameterError, match="embedding must send root to root"):
            pb.verify_decomposition(c5, pb.weight_function(c5, {2: 1, 3: 2}), [((2, 3, 4), w)])

    def test_certify_by_decomposition(self):
        q4, w_star = pb.construction("q4star")
        base = pb.construction_certificate("lemma5")
        assert base.status == "oracle-checked"
        cert = pb.certify_by_decomposition(q4, w_star, [(emb, base) for emb in pb.cube_copy_embeddings(4)])
        assert cert.status == "composed"
        assert len(cert.components) == 4

    def test_certify_by_decomposition_sums_once(self, monkeypatch):
        # one conic combination, compared with w; verify_decomposition is not consulted
        q4, w_star = pb.construction("q4star")
        base = pb.construction_certificate("lemma5")
        calls = []

        def counted(g, components):
            calls.append(g)
            return combine(g, components)

        def refuse(*args):
            raise AssertionError("verify_decomposition called")

        combine = strategies.conic_combine
        monkeypatch.setattr(strategies, "conic_combine", counted)
        monkeypatch.setattr(strategies, "verify_decomposition", refuse)
        copies = [(emb, base) for emb in pb.cube_copy_embeddings(4)]
        assert pb.certify_by_decomposition(q4, w_star, copies).weight_function.weights == w_star.weights
        assert calls == [q4]
        with pytest.raises(UncertifiedWeightError, match="copies do not sum to the target weight function"):
            pb.certify_by_decomposition(q4, w_star, copies[:3])

    def test_certify_by_decomposition_needs_induced_copies(self):
        # the 2-path laid around the triangle is a subgraph, so
        # conic_combine takes it, but the closing chord makes it not induced
        c3 = pb.cycle_graph(3)
        cert = pb.construction_certificate("path", 2)
        w = pb.weight_function(c3, {1: 2, 2: 1})
        with pytest.raises(BadParameterError, match="embedding is not induced"):
            pb.certify_by_decomposition(c3, w, [((2, 1, 0), cert)])


class TestConstructions:
    def test_lemma5_total(self):
        _, w = pb.construction("lemma5")
        assert w.total == 15

    def test_q4star_total(self):
        _, w = pb.construction("q4star")
        assert w.total == 60

    def test_lollipop_totals(self):
        for n in range(1, 5):
            _, w = pb.construction("lollipop", n)
            assert w.total == 2 ** (n + 2) - 1

    def test_conjecture4_is_lemma5_scaled(self):
        _, w4 = pb.construction("conjecture", 4)
        _, lemma5 = pb.construction("lemma5")
        assert w4.weights == tuple(x / 4 for x in lemma5.weights)

    def test_lollipop_general_needs_enough_arms(self):
        with pytest.raises(BadParameterError):
            pb.construction("lollipop_general", 1, 4)
        g, w = pb.construction("lollipop_general", 1, 5)
        assert g.vertex_count == 8

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda c5, w: pb.check_tree_strategy(c5, w), "weights belong to a different graph"),
            (lambda c5, w: pb.verify_decomposition(c5, w, []), "weights belong to a different graph"),
            (lambda c5, w: pb.certify_by_decomposition(c5, w, []), "weights belong to a different graph"),
            (lambda c5, w: pb.construction("conjecture", 2), "reciprocal-distance weights start at dimension 3"),
            (lambda c5, w: pb.cube_copy_embeddings(2), "needs dimension at least 3"),
        ],
        ids=["tree-check", "verify-decomposition", "certify-by-decomposition", "conjecture-dimension", "cube-copies"],
    )
    def test_refused_graph_or_dimension(self, c5, call, message):
        # the weights belong to the path 0-1-2, not to c5
        with pytest.raises(BadParameterError, match=message):
            call(c5, pb.construction("path", 2)[1])

    def test_fig2_weights_by_distance(self, fig2):
        _, w = pb.construction("fig2")
        dist = pb.distances_from(fig2, fig2.root)
        expected = {1: Fraction(2), 2: Fraction(2, 3), 3: Fraction(1, 3)}
        for v in range(fig2.vertex_count):
            if v != fig2.root:
                assert w.weights[v] == expected[dist[v]]


class TestBounds:
    def test_cycle_combined_k2(self, c5):
        cert = pb.construction_certificate("cycle_combined", 2)
        assert pb.weight_function_bound(cert) == 5

    def test_q4star(self):
        cert = pb.construction_certificate("q4star")
        assert pb.weight_function_bound(cert) == 16

    def test_paths(self):
        for k in (1, 2, 3, 4, 5):
            cert = pb.construction_certificate("path", k)
            assert pb.weight_function_bound(cert) == 2**k

    def test_diameter_bounds(self, c5, p2):
        assert pb.diameter_lower_bound(pb.hypercube(4)) == 16
        assert pb.diameter_lower_bound(c5) == 4
        assert pb.diameter_lower_bound(p2) == 2

    def test_uncertified_weight_rejected(self, fig2):
        _, w = pb.construction("fig2")
        with pytest.raises(UncertifiedWeightError):
            pb.Certificate(w, "hearsay")

    def test_certificate_cannot_be_forged(self):
        # (1, 1, 1) on P3 fails the tree check and the oracle (pi is 8), yet
        # a certificate built by hand or copied onto it by replace would
        # bound pi by 4: only a check builds one, so both are refused
        g = pb.path_graph(3)
        w = pb.weight_function(g, [1, 1, 1, 0])
        assert not pb.check_tree_strategy(g, w) and not pb.verify_validity_oracle(g, w).valid
        for status in ("tree-checked", "oracle-checked", "composed"):
            with pytest.raises(UncertifiedWeightError):
                pb.Certificate(w, status)
        checked = pb.certify(*pb.construction("path", 3))
        for changes in ({"weight_function": w}, {}):
            with pytest.raises(UncertifiedWeightError):
                dataclasses.replace(checked, **changes)
        assert pb.weight_function_bound(checked) == 8 == pb.pi_rooted(g).value

    def test_bare_weight_function_rejected(self, fig2):
        _, w = pb.construction("fig2")
        with pytest.raises(UncertifiedWeightError, match="the bound needs a certificate"):
            pb.weight_function_bound(w)

    def test_zero_weight_support_rejected(self, c5):
        a, _ = pb.cycle_strategy_pair(2)
        with pytest.raises(WeightNotPositiveError):
            pb.weight_function_bound(a)

    def test_sandwich_on_cycles_and_q3(self):
        for k in (1, 2, 3, 4):
            g = pb.cycle_graph(2 * k + 1)
            cert = pb.construction_certificate("cycle_combined", k)
            lower = pb.diameter_lower_bound(g)
            upper = pb.weight_function_bound(cert)
            value = pb.pi_rooted(g).value
            assert lower <= value <= upper
            assert value == upper
        q3 = pb.hypercube(3)
        cert = pb.certify(*pb.construction("q3prime"), "oracle")
        assert pb.diameter_lower_bound(q3) <= pb.pi_rooted(q3).value <= pb.weight_function_bound(cert)

    def test_single_point_interval_via_uniform_cube_weights(self, q3):
        base = pb.certify(*pb.construction("conjecture", 3), "oracle")
        uniform = pb.conic_combine(q3, [(1, base, emb) for emb in pb.cube_copy_embeddings(3)])
        assert pb.diameter_lower_bound(q3) == pb.weight_function_bound(uniform) == 8


# every named construction, at the sizes the rest of the suite runs
_CONSTRUCTION_SIZES = {
    "fig2": [()],
    "q3prime": [()],
    "lemma5": [()],
    "q4star": [()],
    "conjecture": [(3,), (4,)],
    "lollipop": [(1,), (2,)],
    "lollipop_general": [(1, 5)],
    "cycle_combined": [(1,), (2,), (3,), (4,)],
    "path": [(1,), (2,), (3,), (4,)],
}


def _rederive(cert):
    """Make the check cert's status names on its own graph again, then
    those of its components in turn."""
    g, w = cert.graph, cert.weight_function
    if cert.status == "tree-checked":
        assert pb.check_tree_strategy(g, w), g.edges
    elif cert.status == "oracle-checked":
        assert pb.verify_validity_oracle(g, w).valid, g.edges
    else:
        assert cert.status == "composed" and cert.components, g.edges
    for component in cert.components:
        _rederive(component)


class TestStatusesAreRederived:
    """No certificate claims a check that was not made: each status
    holds again on the certificate's own graph, recursively."""

    def test_the_table_covers_every_construction(self):
        assert set(_CONSTRUCTION_SIZES) == set(strategies._CONSTRUCTIONS)

    @pytest.mark.parametrize(
        "name, params",
        [(name, params) for name, sizes in _CONSTRUCTION_SIZES.items() for params in sizes],
        ids=["-".join(map(str, (name, *params))) for name, sizes in _CONSTRUCTION_SIZES.items() for params in sizes],
    )
    def test_construction_certificates(self, name, params):
        _rederive(pb.construction_certificate(name, *params))

    @pytest.mark.parametrize("k", range(1, 5))
    def test_cycle_strategy_pair(self, k):
        # each strategy is composed of the tree-checked path(k + 1)
        # weights, which on C3 are not a tree strategy of the cycle
        for cert in pb.cycle_strategy_pair(k):
            assert cert.status == "composed"
            assert [c.graph for c in cert.components] == [pb.path_graph(k + 1)]
            _rederive(cert)


class TestCertificateRouting:
    def test_tree_route(self):
        cert = pb.construction_certificate("path", 3)
        assert cert.status == "tree-checked"

    def test_oracle_route(self):
        cert = pb.construction_certificate("fig2")
        assert cert.status == "oracle-checked"

    def test_oracle_route_takes_a_partial_support(self, q3):
        # the support {1, 2, 3} closes a 4-cycle with the root, so the tree
        # check refuses it; the oracle certifies it, and the refusal of
        # the uncovered vertex 4 comes from the LP that needs it
        cert = strategies.certify(q3, pb.weight_function(q3, {1: 2, 2: 2, 3: 1}))
        assert cert.status == "oracle-checked"
        with pytest.raises(WeightNotPositiveError):
            pb.weight_function_bound(cert)
        with pytest.raises(LpError, match="vertex 4 has zero weight in every certificate"):
            pb.lp_pebbling_bound(q3, [cert])

    def test_unknown_method_refused(self):
        with pytest.raises(BadParameterError):
            strategies.certify(*pb.construction("fig2"), "recorded")

    def test_tree_route_does_not_fall_back(self):
        with pytest.raises(NotATreeError):
            strategies.certify(*pb.construction("fig2"), "tree")

    def test_oracle_route_takes_the_limits(self):
        lemma5 = pb.rooted_cube(4)
        lemma5._cache.clear()
        with pytest.raises(ResourceLimitError):
            pb.construction_certificate("q4star", limits=pb.SearchLimits(max_nodes=10))
        assert "down_set" not in lemma5._cache

    def test_cycle_combined_table_must_match_its_strategies(self, monkeypatch):
        build, arity = strategies._CONSTRUCTIONS["cycle_combined"]

        def drifted(k):
            g, w = build(k)
            return g, pb.weight_function(g, (w.weights[0], w.weights[1] + 1) + w.weights[2:])

        monkeypatch.setitem(strategies._CONSTRUCTIONS, "cycle_combined", (drifted, arity))
        with pytest.raises(InternalError, match="cycle_combined"):
            pb.construction_certificate("cycle_combined", 2)

    def test_construction_arity_and_names(self):
        with pytest.raises(BadParameterError):
            pb.construction("fig2", 3)
        with pytest.raises(BadParameterError):
            pb.construction("path", 1, 2)
        with pytest.raises(BadParameterError):
            pb.construction("lollipop_general", -2, 5)
        # refused by lollipop itself, before the arm count's shift by n + 1
        for params in ((-5, 10), (-1, 3)):
            with pytest.raises(BadParameterError, match="path length must be at least 1"):
                pb.construction("lollipop_general", *params)
        with pytest.raises(BadParameterError, match="unknown construction 'recorded'"):
            pb.construction("recorded")
