"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints (and registers for the terminal summary) a single
``criterion N: PASS/FAIL`` line. Exact values are asserted with exact
arithmetic; runtime budgets use wall-clock upper bounds.

Criterion 8 (``pebble verify`` rejects an invalid weight function with
exit 1) is asserted twice on the path 0-1-2 rooted at 2 with weights
(2, 1, 0). The "as stated" test checks the stated negative path against
the reference oracles of ``conftest``: the CLI exits 1 with
``valid=false``, and both the oracle's maximum and the CLI's ``weight=``
field equal the brute-force maximum of w.p over the unsolvable
configurations. It also pins the erratum in the stated weight 7: the
configuration (3,1,0) it would need is solvable. The corrected test
checks the concrete counterexample (3,0,0), its weight 6 and the cap 3.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pebbling as pb
from conftest import (
    ACCEPTANCE_LINES,
    all_counts,
    naive_pi_rooted,
    naive_solvable,
    random_connected_graph,
    random_tree,
    reference_potential,
)
from pebbling.cli import main as cli_main
from pebbling.fileformats import serialize_graph, serialize_weights

SUITE_CASES: dict[str, int] = {}


def report(criterion, ok: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# -- criterion 1: odd cycles ---------------------------------------------------


def test_criterion_1_odd_cycle_pebbling_numbers():
    expected = {1: 3, 2: 5, 3: 11, 4: 21}
    start = time.monotonic()
    values = {k: pb.pi_rooted(pb.cycle_graph(2 * k + 1)).value for k in (1, 2, 3, 4)}
    elapsed = time.monotonic() - start
    report(
        1,
        values == expected and elapsed < 600,
        f"C3,C5,C7,C9 -> {[values[k] for k in (1, 2, 3, 4)]} in {elapsed:.1f}s (budget 600s)",
    )


# -- criterion 2: the 3-cube ----------------------------------------------------


def test_criterion_2_q3_exhaustive():
    start = time.monotonic()
    value = pb.pi_rooted(pb.hypercube(3)).value
    elapsed = time.monotonic() - start
    report(2, value == 8 and elapsed < 30, f"pi(Q3)={value} in {elapsed:.2f}s (budget 30s)")


# -- criterion 3: oracle validation of the bundled certificates -----------------


@pytest.fixture(scope="module")
def lemma5_validation():
    g, w = pb.construction("lemma5")
    start = time.monotonic()
    result = pb.verify_validity_oracle(g, w)
    return g, w, result, time.monotonic() - start


def test_criterion_3_oracle_validates_certificates(lemma5_validation):
    verdicts = {}
    for label, (name, params) in {
        "fig2": ("fig2", ()),
        "q3prime": ("q3prime", ()),
        "w3": ("conjecture", (3,)),
        "w4": ("conjecture", (4,)),
    }.items():
        g, w = pb.construction(name, *params)
        verdicts[label] = pb.verify_validity_oracle(g, w).valid
    _, _, lemma5_result, lemma5_elapsed = lemma5_validation
    verdicts["lemma5"] = lemma5_result.valid
    ok = all(verdicts.values()) and lemma5_elapsed < 1800
    report(
        3,
        ok,
        f"valid={verdicts}, lemma5 oracle in {lemma5_elapsed:.1f}s (budget 1800s)",
    )


# -- criterion 4: the Q4 pipeline ------------------------------------------------


def test_criterion_4_q4_pipeline(lemma5_validation):
    g4, w5, lemma5_result, _ = lemma5_validation
    assert lemma5_result.valid
    start = time.monotonic()
    base = pb.certify(g4, w5, "oracle")  # reads the down-set criterion 3 cached
    q4, w_star = pb.construction("q4star")
    embeddings = pb.cube_copy_embeddings(4)
    decomposes = pb.verify_decomposition(q4, w_star, [(emb, w5) for emb in embeddings])
    cert = pb.certify_by_decomposition(q4, w_star, [(emb, base) for emb in embeddings])
    upper = pb.weight_function_bound(cert)
    lower = pb.diameter_lower_bound(q4)
    elapsed = time.monotonic() - start
    ok = decomposes and lower == upper == 16 and elapsed < 1.0
    report(
        4,
        ok,
        f"lower={lower} upper={upper} decompose={decomposes} in {elapsed * 1000:.0f}ms (budget 1s)",
    )


# -- criterion 5: lollipop certificates ------------------------------------------


def test_criterion_5_lollipop_certificates():
    totals_ok = all(
        pb.construction("lollipop", n)[1].total == 2 ** (n + 2) - 1 for n in (1, 2, 3, 4)
    )

    g1, w1 = pb.construction("lollipop", 1)
    start = time.monotonic()
    valid1 = pb.verify_validity_oracle(g1, w1).valid
    t1 = time.monotonic() - start

    g2, w2 = pb.construction("lollipop", 2)
    start = time.monotonic()
    valid2 = pb.verify_validity_oracle(g2, w2).valid
    t2 = time.monotonic() - start

    gg, wg = pb.construction("lollipop_general", 1, 6)
    valid_gen = pb.verify_validity_oracle(gg, wg).valid

    ok = totals_ok and valid1 and t1 < 60 and valid2 and t2 < 1800 and valid_gen
    report(
        5,
        ok,
        f"n=1 valid={valid1} in {t1:.2f}s (60s); n=2 valid={valid2} in {t2:.2f}s (1800s); "
        f"totals={totals_ok}; generalized(m=6) valid={valid_gen}",
    )


# -- criterion 6: LP bounds -------------------------------------------------------


def test_criterion_6_lp_bounds():
    c5 = pb.cycle_graph(5)
    start = time.monotonic()
    optimum, bound = pb.lp_pebbling_bound(c5, list(pb.cycle_strategy_pair(2)))
    t_c5 = time.monotonic() - start
    c5_ok = optimum == Fraction(14, 3) and bound == 5 and t_c5 < 1.0

    per_k_ok = True
    details = []
    for k in (1, 2, 3, 4):
        g = pb.cycle_graph(2 * k + 1)
        start = time.monotonic()
        _, bk = pb.lp_pebbling_bound(g, list(pb.cycle_strategy_pair(k)))
        tk = time.monotonic() - start
        per_k_ok &= bk == 2 * (2 ** (k + 1) // 3) + 1 and tk < 1.0
        details.append(f"k={k}:{bk}")
    report(
        6,
        c5_ok and per_k_ok,
        f"C5 optimum={optimum} bound={bound} in {t_c5 * 1000:.0f}ms; bounds {' '.join(details)}",
    )


# -- criterion 7: property suites (>= 200 random cases each, fixed seeds) ----------


@st.composite
def connected_graphs(draw, max_n=8, max_extra=4):
    n = draw(st.integers(min_value=2, max_value=max_n))
    parents = [draw(st.integers(0, v - 1)) for v in range(1, n)]
    edges = {(p, v) for v, p in enumerate(parents, start=1)}
    for _ in range(draw(st.integers(0, max_extra))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    root = draw(st.integers(0, n - 1))
    return pb.build_graph(n, sorted(edges), root)


@st.composite
def graph_with_counts(draw, max_total=10):
    g = draw(connected_graphs())
    counts = [0] * g.vertex_count
    for _ in range(draw(st.integers(0, max_total))):
        counts[draw(st.integers(0, g.vertex_count - 1))] += 1
    return g, tuple(counts)


SUITE_SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@SUITE_SETTINGS
@given(case=graph_with_counts(), extra=st.lists(st.integers(0, 2), min_size=8, max_size=8))
def test_criterion_7_solvability_monotonicity(case, extra):
    g, counts = case
    bigger = tuple(c + e for c, e in zip(counts, extra))
    if pb.Solver(g).decide(counts):
        assert pb.Solver(g).decide(bigger)
    SUITE_CASES["monotonicity"] = SUITE_CASES.get("monotonicity", 0) + 1


@SUITE_SETTINGS
@given(case=graph_with_counts())
def test_criterion_7_potential_pruning_soundness(case):
    g, counts = case
    p = pb.Configuration(g, counts)
    outcome = pb.is_solvable(g, p)
    if reference_potential(g, counts) < 1:
        assert not outcome.solvable
    dist = pb.distances_from(g, g.root)
    if any(c >= 1 << dist[v] for v, c in enumerate(counts)):
        assert outcome.solvable
    SUITE_CASES["potential"] = SUITE_CASES.get("potential", 0) + 1


def test_criterion_7_tree_certificates_pass_the_oracle():
    rng = random.Random(1702)
    cases = 0
    while cases < 200:
        g = random_tree(rng, n_min=2, n_max=7)
        if max(pb.distances_from(g, g.root)) > 5:
            continue  # the oracle's capped box has 2^d values per vertex; keep it small
        dist = pb.distances_from(g, g.root)
        order = sorted(range(g.vertex_count), key=lambda v: dist[v])
        weights = [Fraction(0)] * g.vertex_count
        parent = {g.root: None}
        for v in order:
            if v == g.root:
                continue
            up = min(u for u in g.neighbors[v] if dist[u] == dist[v] - 1)
            parent[v] = up
            if up == g.root:
                weights[v] = Fraction(rng.randint(1, 8), rng.randint(1, 3))
            else:
                weights[v] = weights[up] * Fraction(rng.randint(1, 4), 8)
        wf = pb.WeightFunction(g, tuple(weights))
        assert pb.check_tree_strategy(g, wf)
        assert pb.verify_validity_oracle(g, wf).valid
        cases += 1
    SUITE_CASES["tree-oracle"] = cases


def test_criterion_7_conic_combinations_stay_valid():
    rng = random.Random(90125)
    cases = 0
    while cases < 200:
        g = random_connected_graph(rng, n_min=2, n_max=6)
        if max(pb.distances_from(g, g.root)) > 5:
            continue
        components = [_spanning_tree_component(rng, g, g_vertices=range(g.vertex_count))]
        for _ in range(rng.randint(0, 2)):
            grown = {g.root}
            for _ in range(rng.randint(0, g.vertex_count - 1)):
                frontier = [v for u in grown for v in g.neighbors[u] if v not in grown]
                if frontier:
                    grown.add(rng.choice(sorted(frontier)))
            components.append(_spanning_tree_component(rng, g, g_vertices=sorted(grown)))
        combo = []
        for i, (cert, embedding) in enumerate(components):
            if i == 0:
                coef = Fraction(rng.randint(1, 6), 2)  # spanning copy keeps positivity
            else:
                coef = Fraction(rng.randint(0, 6), 2)
            combo.append((coef, cert, embedding))
        combined = pb.conic_combine(g, combo)
        assert pb.verify_validity_oracle(g, combined.weight_function).valid
        cases += 1
    SUITE_CASES["conic"] = cases


def _spanning_tree_component(rng, g, g_vertices):
    # the subgraph induced on g_vertices, new ids in sorted order of the old ones
    emb = tuple(sorted(g_vertices))
    new_id = {old: new for new, old in enumerate(emb)}
    sub_edges = [(new_id[u], new_id[v]) for u, v in g.edges if u in new_id and v in new_id]
    sub = pb.build_graph(len(emb), sub_edges, root=new_id[g.root])
    dist = pb.distances_from(sub, sub.root)
    tree_edges = []
    weights = [Fraction(0)] * sub.vertex_count
    for v in sorted(range(sub.vertex_count), key=lambda v: dist[v]):
        if v == sub.root:
            continue
        up = min(u for u in sub.neighbors[v] if dist[u] == dist[v] - 1)
        tree_edges.append((min(up, v), max(up, v)))
        if up == sub.root:
            weights[v] = Fraction(rng.randint(1, 8), rng.randint(1, 3))
        else:
            weights[v] = weights[up] * Fraction(rng.randint(1, 4), 8)
    tree = pb.build_graph(sub.vertex_count, tree_edges, root=sub.root)
    cert = pb.certify_tree(tree, pb.WeightFunction(tree, tuple(weights)))
    return cert, emb


@SUITE_SETTINGS
@given(case=graph_with_counts())
def test_criterion_7_witness_replay(case):
    g, counts = case
    p = pb.Configuration(g, counts)
    outcome = pb.is_solvable(g, p, want_witness=True)
    if outcome.solvable:
        assert outcome.witness is not None
        cur = p
        for u, v in outcome.witness:
            cur = pb.apply_move(g, cur, u, v)
        assert cur.counts[g.root] >= 1
    else:
        assert outcome.witness is None
    SUITE_CASES["witness"] = SUITE_CASES.get("witness", 0) + 1


def test_criterion_7_enumeration_counts():
    rng = random.Random(24_601)
    cases = 0
    while cases < 200:
        g = random_connected_graph(rng, n_min=2, n_max=8)
        size = rng.randint(0, 6)
        exclude = rng.random() < 0.5
        free = g.vertex_count - 1 if exclude else g.vertex_count
        got = sum(1 for _ in pb.enumerate_configurations(g, size, exclude_root=exclude))
        assert got == comb(size + free - 1, free - 1)
        cases += 1
    SUITE_CASES["counts"] = cases


SUITES = {
    "monotonicity": test_criterion_7_solvability_monotonicity,
    "potential": test_criterion_7_potential_pruning_soundness,
    "tree-oracle": test_criterion_7_tree_certificates_pass_the_oracle,
    "conic": test_criterion_7_conic_combinations_stay_valid,
    "witness": test_criterion_7_witness_replay,
    "counts": test_criterion_7_enumeration_counts,
}


def test_criterion_7_summary():
    # Run here any suite that has not run yet (e.g. under -k), so the
    # summary does not depend on test order.
    for name, suite in SUITES.items():
        if name not in SUITE_CASES:
            suite()
    ok = all(SUITE_CASES.get(name, 0) >= 200 for name in SUITES)
    report(7, ok, f"cases per suite: {SUITE_CASES}")


# -- criterion 8: the negative path ------------------------------------------------


def _invalid_p3_files(tmp_path):
    p3 = pb.path_graph(2)
    graph_path = tmp_path / "p3.graph"
    weights_path = tmp_path / "bad.weights"
    graph_path.write_text(serialize_graph(p3), encoding="utf-8")
    weights_path.write_text(
        serialize_weights(pb.weight_function(p3, (2, 1, 0))), encoding="utf-8"
    )
    return p3, graph_path, weights_path


def _result_fields(out):
    line = next(line for line in out.splitlines() if line.startswith("RESULT "))
    return dict(field.split("=", 1) for field in line.split()[1:])


def _reference_max_unsolvable(g, weights):
    """Brute-force max of w.p over unsolvable configurations, from conftest oracles only."""
    return max(
        sum(Fraction(x) * c for x, c in zip(weights, counts))
        for size in range(naive_pi_rooted(g))
        for counts in all_counts(g.vertex_count, size)
        if not naive_solvable(g, counts)
    )


def test_criterion_8_negative_path_as_stated(tmp_path, capsys):
    """The stated negative path, with its weight checked by the reference oracle.

    The criterion states a counterexample weight of 7, which no
    configuration attains. With a pebbles on vertex 0 and b on vertex 1,
    weight 7 needs 2a + b = 7. Any b >= 2 is solvable (move 1 -> root),
    and so is any a >= 4 (two moves 0 -> 1, then 1 -> root), which
    leaves only (3,1,0). That is solvable too: move 0 -> 1, giving
    (1,2,0), then 1 -> root. The true maximum is 6, at (3,0,0). So the
    stated 7 is replaced by the brute-force maximum over the
    configurations ``naive_solvable`` finds unsolvable, and (3,1,0) is
    pinned as solvable.
    """
    weights = (2, 1, 0)
    p3, graph_path, weights_path = _invalid_p3_files(tmp_path)
    code = cli_main(["verify", "-g", str(graph_path), "-w", str(weights_path)])
    fields = _result_fields(capsys.readouterr().out)
    res = pb.verify_validity_oracle(p3, pb.weight_function(p3, weights))
    reference = _reference_max_unsolvable(p3, weights)
    stated = (3, 1, 0)
    stated_solvable = (
        pb.is_solvable(p3, pb.Configuration(p3, stated)).solvable
        and naive_solvable(p3, stated)
    )
    ok = (
        code == 1
        and fields.get("valid") == "false"
        and not res.valid
        and res.max_unsolvable == reference
        and Fraction(fields.get("weight", "-1")) == reference
        and stated_solvable
    )
    report(
        "8 (as stated)",
        ok,
        f"exit={code} valid={res.valid} max_weight={res.max_unsolvable} "
        f"cli weight={fields.get('weight')} reference={reference}; "
        f"stated 7 is an erratum: {stated} solvable={stated_solvable}",
    )


def test_criterion_8_negative_path_corrected(tmp_path, capsys):
    p3, graph_path, weights_path = _invalid_p3_files(tmp_path)
    code = cli_main(["verify", "-g", str(graph_path), "-w", str(weights_path)])
    out = capsys.readouterr().out
    res = pb.verify_validity_oracle(p3, pb.weight_function(p3, (2, 1, 0)))
    ok = (
        code == 1
        and not res.valid
        and res.counterexample.counts == (3, 0, 0)
        and res.max_unsolvable == 6
        and res.cap == 3
        and "valid=false" in out
    )
    report(
        "8 (corrected)",
        ok,
        f"exit={code} counterexample={res.counterexample.counts} weight={res.max_unsolvable} > cap={res.cap}",
    )
