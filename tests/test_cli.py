import os
import re
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

import pebbling as pb
from conftest import build_nodes
from pebbling import cli, errors, pebbling_number, strategies
from pebbling.cli import main
from pebbling.fileformats import parse_graph, serialize_config, serialize_graph, serialize_weights
from pebbling.solver import shared_solver


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    results = [line for line in captured.out.splitlines() if line.startswith("RESULT ")]
    return code, results, captured.err


def result_map(line):
    fields = {}
    for token in line.split()[1:]:
        key, _, value = token.partition("=")
        fields[key] = value
    return fields


# every error class the package defines, found by walking the module, so
# a new class must end in one of the three exit codes below
ERROR_CLASSES = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.PebblingError)]


@pytest.fixture
def c5_file(tmp_path, c5):
    path = tmp_path / "c5.graph"
    path.write_text(serialize_graph(c5), encoding="utf-8")
    return path


class TestGen:
    def test_gen_then_pi(self, capsys, tmp_path):
        out = tmp_path / "g.graph"
        code, results, _ = run_cli(capsys, "gen", "lollipop", "1", "4", "-o", str(out))
        assert code == 0
        assert result_map(results[0]) == {"vertices": "7", "edges": "9"}
        code, results, _ = run_cli(capsys, "pi", "-g", str(out))
        assert code == 0
        assert results == ["RESULT pi=8"]

    def test_pi_names_the_symmetry_regime(self, capsys, tmp_path, c5_file):
        # found from the edges: a lollipop file's middles are twins, a C5
        # file has its reflection, and a path has no symmetry
        out = tmp_path / "l3.graph"
        run_cli(capsys, "gen", "lollipop", "3", "-o", str(out))
        code, results, err = run_cli(capsys, "pi", "-g", str(out), "--max-seconds", "10")
        assert (code, results) == (0, ["RESULT pi=32"])
        assert "symmetry: blocks 16\n" in err
        assert "down-set: 32 levels, 44248 representatives (12568 below the floor), 939 maximal\n" in err
        code, results, err = run_cli(capsys, "pi", "-g", str(c5_file))
        assert (code, results) == (0, ["RESULT pi=5"])
        assert "symmetry: group 2\n" in err
        assert "down-set: 5 levels, 17 representatives (17 below the floor), 4 maximal\n" in err
        out = tmp_path / "p4.graph"
        run_cli(capsys, "gen", "path", "4", "-o", str(out))
        code, results, err = run_cli(capsys, "pi", "-g", str(out))
        assert (code, results) == (0, ["RESULT pi=16"])
        assert "symmetry: none\n" in err

    def test_one_vertex_file(self, capsys, tmp_path):
        # the root has no neighbour, so the floor has no lane
        out = tmp_path / "k1.graph"
        out.write_text("pebblegraph 1\nvertices 1\nroot 0\n", encoding="utf-8")
        code, results, err = run_cli(capsys, "pi", "-g", str(out))
        assert (code, results) == (0, ["RESULT pi=1"]), err
        assert "down-set: 1 levels, 1 representatives (1 below the floor), 1 maximal\n" in err

    def test_group_search_runs_under_the_deadline(self, capsys, tmp_path):
        # Q8's root-fixing group has 8! elements, past the cap; finding
        # that takes longer than the two seconds allowed
        out = tmp_path / "q8.graph"
        run_cli(capsys, "gen", "hypercube", "8", "-o", str(out))
        start = time.monotonic()
        code, results, err = run_cli(capsys, "pi", "-g", str(out), "--max-seconds", "2")
        assert (code, results) == (3, []) and "search exceeded 2.0 seconds" in err
        assert time.monotonic() - start < 5

    def test_long_path_file_ends_at_the_node_cap(self, capsys, tmp_path):
        # 1,500 vertices, more than the interpreter's recursion limit: the
        # group search keeps its own stack, and the scan stops at the cap
        out = tmp_path / "long.graph"
        edges = "".join(f"edge {v} {v + 1}\n" for v in range(1_499))
        out.write_text(f"pebblegraph 1\nvertices 1500\nroot 1499\n{edges}", encoding="utf-8")
        code, results, err = run_cli(capsys, "pi", "-g", str(out), "--max-nodes", "100")
        assert (code, results) == (3, [])
        assert "symmetry: none\n" in err and "search exceeded 100 nodes" in err

    def test_out_of_memory_is_a_resource_limit(self, capsys, monkeypatch, c5_file):
        # the builder completes levels 0 and 1, then runs out of memory
        levels = pebbling_number._levels

        def two_then_out_of_memory(g, solver, maximal):
            yield from islice(levels(g, solver, maximal), 2)
            raise MemoryError

        monkeypatch.setattr(pebbling_number, "_levels", two_then_out_of_memory)
        code, results, err = run_cli(capsys, "pi", "-g", str(c5_file))
        assert code == 3 and results == []
        assert "proven pi >= 2" in err and "Traceback" not in err, err

    def test_an_interrupt_is_a_resource_limit(self, capsys, monkeypatch, tmp_path, c5_file):
        # SIGINT, as KeyboardInterrupt, after the builder completes levels
        # 0 and 1: each command that builds the down-set keeps the bound
        levels = pebbling_number._levels

        def two_then_interrupt(g, solver, maximal):
            yield from islice(levels(g, solver, maximal), 2)
            raise KeyboardInterrupt

        monkeypatch.setattr(pebbling_number, "_levels", two_then_interrupt)
        weights = tmp_path / "c5.weights"
        weights.write_text("pebbleweights 1\nw 1 4\nw 2 2\nw 3 1\n", encoding="utf-8")
        for argv in (
            ("pi", "-g", str(c5_file)),
            ("verify", "-g", str(c5_file), "-w", str(weights)),
            ("bound", "-g", str(c5_file), "-w", str(weights), "--certify", "oracle"),
        ):
            code, results, err = run_cli(capsys, *argv)
            assert code == 3 and results == [], argv
            assert "resource limit: interrupted; proven pi >= 2\n" in err and "Traceback" not in err, err

    def test_gen_stdout(self, capsys):
        # without -o, stdout is the graph file alone: it reads back as the
        # graph, and the summary goes to stderr
        assert main(["gen", "hypercube", "3"]) == 0
        captured = capsys.readouterr()
        assert parse_graph(captured.out).edges == pb.hypercube(3).edges
        assert captured.out == serialize_graph(pb.hypercube(3))
        assert captured.err == "vertices=8 edges=12\n"

    def test_unknown_family(self, capsys):
        code, _, err = run_cli(capsys, "gen", "moebius", "3")
        assert code == 2


class TestSolve:
    def test_empty_configuration(self, capsys, tmp_path, c5_file, c5):
        cfg = tmp_path / "empty.config"
        cfg.write_text(serialize_config(pb.Configuration(c5, (0,) * c5.vertex_count)), encoding="utf-8")
        code, results, _ = run_cli(capsys, "solve", "-g", str(c5_file), "-c", str(cfg))
        assert code == 0
        assert results == ["RESULT solvable=false"]

    def test_solvable_with_witness(self, capsys, tmp_path, c5_file, c5):
        cfg = tmp_path / "p.config"
        cfg.write_text(serialize_config(pb.configuration(c5, {2: 4})), encoding="utf-8")
        code, results, err = run_cli(capsys, "solve", "-g", str(c5_file), "-c", str(cfg), "--witness")
        assert code == 0
        assert results == ["RESULT solvable=true"]
        assert "witness:" in err

    def test_target_two(self, capsys, tmp_path, c5_file, c5):
        cfg = tmp_path / "p.config"
        cfg.write_text(serialize_config(pb.configuration(c5, {1: 4})), encoding="utf-8")
        code, results, _ = run_cli(capsys, "solve", "-g", str(c5_file), "-c", str(cfg), "--target", "2")
        assert results == ["RESULT solvable=true"]
        cfg.write_text(serialize_config(pb.configuration(c5, {1: 3})), encoding="utf-8")
        code, results, _ = run_cli(capsys, "solve", "-g", str(c5_file), "-c", str(cfg), "--target", "2")
        assert results == ["RESULT solvable=false"]


    def test_deep_path_query_solves(self, capsys, tmp_path):
        # the far end of P12 holds a 4095 stack and one pebble beside it:
        # the path carries a pebble to the root in 2047 moves from the far
        # end and 2^(d - 1) from the vertex at each distance d < 12
        g = pb.path_graph(12)
        gp = tmp_path / "p12.graph"
        cfg = tmp_path / "deep.config"
        gp.write_text(serialize_graph(g), encoding="utf-8")
        p = pb.configuration(g, {0: 4095, 1: 1})
        cfg.write_text(serialize_config(p), encoding="utf-8")
        code, results, err = run_cli(capsys, "solve", "-g", str(gp), "-c", str(cfg), "--witness")
        assert code == 0
        assert results == ["RESULT solvable=true"]
        (line,) = [line for line in err.splitlines() if line.startswith("witness:")]
        moves = [tuple(map(int, move.split("->"))) for move in line.split()[1:]]
        assert len(moves) == 4094
        for u, v in moves:
            p = pb.apply_move(g, p, u, v)
        assert p.counts[g.root] == 1


class TestVerify:
    def test_tree_mode_valid(self, capsys, tmp_path):
        g, w = pb.construction("path", 3)
        gp = tmp_path / "p4.graph"
        wp = tmp_path / "p4.weights"
        gp.write_text(serialize_graph(g), encoding="utf-8")
        wp.write_text(serialize_weights(w), encoding="utf-8")
        code, results, _ = run_cli(capsys, "verify", "-g", str(gp), "-w", str(wp), "--mode", "tree")
        assert code == 0
        assert result_map(results[0])["valid"] == "true"

    def test_tree_mode_cycle_support(self, capsys, tmp_path, fig2):
        _, w = pb.construction("fig2")
        gp = tmp_path / "g.graph"
        wp = tmp_path / "w.weights"
        gp.write_text(serialize_graph(fig2), encoding="utf-8")
        wp.write_text(serialize_weights(w), encoding="utf-8")
        code, results, _ = run_cli(capsys, "verify", "-g", str(gp), "-w", str(wp), "--mode", "tree")
        assert code == 1
        assert result_map(results[0]) == {"valid": "false", "reason": "not-a-tree"}

    def test_tree_mode_parent_halving_fails(self, capsys, tmp_path):
        g = pb.path_graph(3)
        gp = tmp_path / "p4.graph"
        wp = tmp_path / "flat.weights"
        gp.write_text(serialize_graph(g), encoding="utf-8")
        wp.write_text(serialize_weights(pb.weight_function(g, {0: 1, 1: 1, 2: 1})), encoding="utf-8")
        code, results, _ = run_cli(capsys, "verify", "-g", str(gp), "-w", str(wp), "--mode", "tree")
        assert code == 1
        assert result_map(results[0]) == {"valid": "false", "reason": "parent-halving"}

    def test_oracle_mode_valid(self, capsys, tmp_path, fig2):
        _, w = pb.construction("fig2")
        gp = tmp_path / "g.graph"
        wp = tmp_path / "w.weights"
        gp.write_text(serialize_graph(fig2), encoding="utf-8")
        wp.write_text(serialize_weights(w), encoding="utf-8")
        code, results, _ = run_cli(capsys, "verify", "-g", str(gp), "-w", str(wp))
        assert code == 0
        fields = result_map(results[0])
        assert fields["valid"] == "true" and fields["cap"] == "11/3"

    def test_oracle_mode_twins_with_different_weights(self, capsys, tmp_path):
        # the four middles of a lollipop file are twins with four weights:
        # the heaviest unsolvable arrangement exceeds w(1_G) = 6
        gp = tmp_path / "l.graph"
        wp = tmp_path / "l.weights"
        gp.write_text(serialize_graph(pb.lollipop(1, 4)), encoding="utf-8")
        wp.write_text("pebbleweights 1\nw 1 2\nw 2 1/2\nw 3 1/2\nw 4 3/4\nw 5 1\nw 6 5/4\n", encoding="utf-8")
        code, results, err = run_cli(capsys, "verify", "-g", str(gp), "-w", str(wp))
        assert code == 1
        assert results == ["RESULT valid=false counterexample=0,0,1,1,1,1,3 weight=13/2 cap=6/1"]
        assert "symmetry: blocks 4\n" in err
        assert "down-set: 8 levels, 56 representatives (34 below the floor), 7 maximal\n" in err

    def test_oracle_mode_counterexample(self, capsys, tmp_path, p3):
        gp = tmp_path / "p3.graph"
        wp = tmp_path / "bad.weights"
        gp.write_text(serialize_graph(p3), encoding="utf-8")
        wp.write_text("pebbleweights 1\nw 0 2/1\nw 1 1/1\n", encoding="utf-8")
        code, results, _ = run_cli(capsys, "verify", "-g", str(gp), "-w", str(wp))
        assert code == 1
        fields = result_map(results[0])
        assert fields["valid"] == "false"
        assert fields["counterexample"] == "3,0,0"
        assert fields["weight"] == "6/1"
        assert fields["cap"] == "3/1"

    def test_oracle_mode_partial_support(self, capsys, tmp_path, c5_file):
        # one path strategy on C5, zero on vertex 4: a verdict, not a refusal
        wp = tmp_path / "c5-a.weights"
        wp.write_text("pebbleweights 1\nw 1 4\nw 2 2\nw 3 1\n", encoding="utf-8")
        code, results, err = run_cli(capsys, "verify", "-g", str(c5_file), "-w", str(wp))
        assert (code, results) == (0, ["RESULT valid=true max_weight=7/1 cap=7/1"])
        assert "error" not in err


class TestBound:
    def test_c5_strategy_files(self, capsys, tmp_path, c5_file, c5):
        a, b = pb.cycle_strategy_pair(2)
        files = []
        for name, cert in (("a", a), ("b", b)):
            path = tmp_path / f"{name}.weights"
            path.write_text(serialize_weights(cert.weight_function), encoding="utf-8")
            files.append(str(path))
        code, results, _ = run_cli(
            capsys, "bound", "-g", str(c5_file), "-w", files[0], "-w", files[1]
        )
        assert code == 0
        fields = result_map(next(r for r in results if "optimum" in r))
        assert fields == {"bound": "5", "optimum": "14/3"}
        singles = [result_map(r) for r in results if "cert" in r]
        assert [s.get("cert0_bound", s.get("cert1_bound")) for s in singles] == ["none", "none"]

    def test_c5_strategy_files_by_oracle(self, capsys, tmp_path, c5_file):
        # each partial-support row is certified by the oracle, and the LP
        # gives what it gives from the tree-checked rows
        files = []
        for name, text in (("a", "w 1 4\nw 2 2\nw 3 1"), ("b", "w 4 4\nw 3 2\nw 2 1")):
            path = tmp_path / f"c5-{name}.weights"
            path.write_text(f"pebbleweights 1\n{text}\n", encoding="utf-8")
            files += ["-w", str(path)]
        code, results, err = run_cli(capsys, "bound", "-g", str(c5_file), *files, "--certify", "oracle")
        assert code == 0
        assert results == [
            "RESULT cert0_bound=none",
            "RESULT cert1_bound=none",
            "RESULT bound=5 optimum=14/3",
            "RESULT lower=4",
        ]
        assert "certificates: oracle-checked, oracle-checked;" in err

    def test_full_support_single_bound(self, capsys, tmp_path, c5_file):
        _, w = pb.construction("cycle_combined", 2)
        path = tmp_path / "combined.weights"
        path.write_text(serialize_weights(w), encoding="utf-8")
        code, results, _ = run_cli(capsys, "bound", "-g", str(c5_file), "-w", str(path))
        assert code == 0
        assert result_map(results[0]) == {"cert0_bound": "5"}


    @pytest.fixture
    def fig2_files(self, tmp_path, fig2):
        gp = tmp_path / "fig2.graph"
        wp = tmp_path / "fig2.weights"
        gp.write_text(serialize_graph(fig2), encoding="utf-8")
        wp.write_text(serialize_weights(pb.construction("fig2")[1]), encoding="utf-8")
        return "-g", str(gp), "-w", str(wp)

    def test_certify_tree_does_not_fall_back(self, capsys, fig2_files):
        # reported as `verify --mode tree` reports it: the verdict, exit 1
        code, results, err = run_cli(capsys, "bound", *fig2_files, "--certify", "tree")
        assert code == 1
        assert results == ["RESULT valid=false reason=not-a-tree"]
        assert "does not induce a tree" in err and "oracle" not in err

    def test_certify_oracle(self, capsys, fig2_files):
        code, results, err = run_cli(capsys, "bound", *fig2_files, "--certify", "oracle")
        assert code == 0
        assert results == ["RESULT cert0_bound=12", "RESULT bound=12 optimum=11/1", "RESULT lower=8"]
        assert "certificates: oracle-checked;" in err

    def test_rejected_certificate_is_a_verdict(self, capsys, tmp_path):
        # weight 1 on every vertex of `gen path 3` off the root: no parent
        # weighs twice its child, and 7 pebbles on the far end are stuck
        gp = tmp_path / "p3.graph"
        wp = tmp_path / "flat.weights"
        gp.write_text(serialize_graph(pb.path_graph(3)), encoding="utf-8")
        wp.write_text("pebbleweights 1\nw 0 1\nw 1 1\nw 2 1\n", encoding="utf-8")
        reasons = {"tree": "parent-halving", "oracle": "counterexample", "auto": "counterexample"}
        for mode, reason in reasons.items():
            code, results, err = run_cli(capsys, "bound", "-g", str(gp), "-w", str(wp), "--certify", mode)
            assert (code, results) == (1, [f"RESULT valid=false reason={reason}"]), mode
            assert "error" not in err, mode

    def test_tree_refusals_match_verify(self, capsys, tmp_path, fig2_files):
        # one report for both subcommands: the same RESULT line and exit 1
        gp = tmp_path / "p3.graph"
        wp = tmp_path / "flat.weights"
        gp.write_text(serialize_graph(pb.path_graph(3)), encoding="utf-8")
        wp.write_text("pebbleweights 1\nw 0 1\nw 1 1\nw 2 1\n", encoding="utf-8")
        for files, reason in ((fig2_files, "not-a-tree"), (("-g", str(gp), "-w", str(wp)), "parent-halving")):
            verify = run_cli(capsys, "verify", *files, "--mode", "tree")
            bound = run_cli(capsys, "bound", *files, "--certify", "tree")
            assert verify[:2] == bound[:2] == (1, [f"RESULT valid=false reason={reason}"]), reason
            assert verify[2] == bound[2], reason

    def test_certify_unknown_method_exits_2(self, capsys, fig2_files):
        code, results, _ = run_cli(capsys, "bound", *fig2_files, "--certify", "recorded")
        assert code == 2 and results == []


class TestDecompose:
    def test_q3_manifest(self, capsys, tmp_path, q3):
        _, base = pb.construction("fig2")
        _, w_prime = pb.construction("q3prime")
        (tmp_path / "fig2.weights").write_text(serialize_weights(base), encoding="utf-8")
        (tmp_path / "q3.graph").write_text(serialize_graph(q3), encoding="utf-8")
        (tmp_path / "wprime.weights").write_text(serialize_weights(w_prime), encoding="utf-8")
        lines = ["pebblecopies 1"]
        for emb in pb.cube_copy_embeddings(3):
            lines.append("copy fig2.weights")
            lines.extend(f"map {s} {a}" for s, a in enumerate(emb))
        (tmp_path / "copies.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, results, _ = run_cli(
            capsys,
            "decompose",
            "-g", str(tmp_path / "q3.graph"),
            "-w", str(tmp_path / "wprime.weights"),
            "--copies", str(tmp_path / "copies.manifest"),
        )
        assert code == 0
        assert results == ["RESULT decompose=true"]

    def test_wrong_target_fails_with_exit_1(self, capsys, tmp_path, q3):
        _, base = pb.construction("fig2")
        (tmp_path / "fig2.weights").write_text(serialize_weights(base), encoding="utf-8")
        (tmp_path / "q3.graph").write_text(serialize_graph(q3), encoding="utf-8")
        uniform = pb.weight_function(q3, {v: 1 for v in range(1, 8)})
        (tmp_path / "uni.weights").write_text(serialize_weights(uniform), encoding="utf-8")
        lines = ["pebblecopies 1"]
        for emb in pb.cube_copy_embeddings(3):
            lines.append("copy fig2.weights")
            lines.extend(f"map {s} {a}" for s, a in enumerate(emb))
        (tmp_path / "copies.manifest").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, results, _ = run_cli(
            capsys,
            "decompose",
            "-g", str(tmp_path / "q3.graph"),
            "-w", str(tmp_path / "uni.weights"),
            "--copies", str(tmp_path / "copies.manifest"),
        )
        assert code == 1
        assert results == ["RESULT decompose=false"]


class TestPaperTargets:
    def test_thm1_k1(self, capsys):
        code, results, _ = run_cli(capsys, "paper", "thm1-k1")
        assert code == 0
        assert result_map(results[0])["pi"] == "3"

    def test_thm1_k2(self, capsys):
        code, results, _ = run_cli(capsys, "paper", "thm1-k2")
        assert code == 0
        fields = result_map(results[0])
        assert fields["pi"] == fields["lower"] == fields["upper"] == "5"
        assert fields["optimum"] == "14/3"

    def test_prop_fig2(self, capsys):
        code, results, _ = run_cli(capsys, "paper", "prop-fig2")
        assert code == 0
        assert result_map(results[0])["valid"] == "true"

    def test_prop_q3(self, capsys):
        code, results, _ = run_cli(capsys, "paper", "prop-q3")
        assert code == 0
        fields = result_map(results[0])
        assert fields["valid"] == "true" and fields["decomposition"] == "true"

    def test_thm2_q4(self, capsys):
        code, results, _ = run_cli(capsys, "paper", "thm2-q4")
        assert code == 0
        fields = result_map(results[0])
        assert fields["lower"] == fields["upper"] == fields["pi"] == "16"

    def test_thm2_q4_failed_decomposition_exits_2(self, capsys, monkeypatch):
        # three copies of the lemma5 base cannot sum to the uniform weight 4 on Q4
        embeddings = strategies.cube_copy_embeddings
        monkeypatch.setattr(strategies, "cube_copy_embeddings", lambda n: embeddings(n)[:3])
        code, results, err = run_cli(capsys, "paper", "thm2-q4")
        assert code == 2
        assert results == [] and "copies do not sum to the target weight function" in err

    def test_thm2_q4_honours_limits(self, capsys):
        # the lemma5 base is certified by the oracle under the run's limits
        pb.rooted_cube(4)._cache.clear()
        code, results, err = run_cli(capsys, "paper", "thm2-q4", "--max-seconds", "0.00001")
        assert code == 3
        assert results == [] and "resource limit" in err

    def test_cap_reports_proven_lower_bound(self, capsys):
        pb.cycle_graph(9)._cache.clear()
        code, results, err = run_cli(capsys, "paper", "thm1-k4", "--max-nodes", "2000")
        assert code == 3 and results == []
        proven = re.search(r"proven pi >= (\d+)", err)
        assert proven and 1 <= int(proven.group(1)) < 21, err

    def test_thm1_k4_fits_the_largest_single_search(self, capsys):
        # the cap bounds each call: the down-set build, the witness
        # re-check from an empty memo and the stuck check each get their own
        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        witness = pb.pi_rooted(c9).witness_unsolvable
        build = build_nodes(c9)
        recheck = pb.Solver(c9).solve(witness).stats.nodes
        stuck = pb.is_solvable(c9, pb.configuration(c9, {4: 10, 5: 10})).stats.nodes
        largest = max(build, recheck, stuck)
        c9._cache.clear()
        code, results, _ = run_cli(capsys, "paper", "thm1-k4", "--max-nodes", str(largest))
        assert code == 0 and result_map(results[0])["pi"] == "21"
        c9._cache.clear()
        code, results, err = run_cli(capsys, "paper", "thm1-k4", "--max-nodes", str(largest - 1))
        assert code == 3 and results == []
        assert "proven pi >= 21" in err

    def test_thm1_k4_reports_every_search_node(self, capsys):
        # the down-set build 9,394, then the witness re-check and the
        # stuck check, one node each, both below the floor, all on the
        # shared solver; a repeat reads the cached down-set and decides the
        # stuck check at the floor again
        pb.cycle_graph(9)._cache.clear()
        code, _, err = run_cli(capsys, "paper", "thm1-k4")
        assert code == 0 and err.endswith(", 9396 search nodes\n"), err
        code, _, err = run_cli(capsys, "paper", "thm1-k4")
        assert code == 0 and err.endswith(", 1 search nodes\n"), err

    def test_thm1_k4_builds_one_solver(self, capsys, monkeypatch):
        # the build, the witness re-check and the stuck check share it
        built = []
        original = pb.Solver.__init__

        def counted(self, graph, *args, **kwargs):
            built.append(graph)
            original(self, graph, *args, **kwargs)

        c9 = pb.cycle_graph(9)
        c9._cache.clear()
        monkeypatch.setattr(pb.Solver, "__init__", counted)
        assert run_cli(capsys, "paper", "thm1-k4")[0] == 0
        assert built == [c9]

    def test_q4_bruteforce(self, capsys):
        q4 = pb.hypercube(4)
        q4._cache.clear()
        code, results, err = run_cli(capsys, "paper", "q4-bruteforce", "--max-nodes", "5000")
        assert code == 3 and results == []
        assert "proven pi >= 8" in err
        code, results, _ = run_cli(capsys, "paper", "q4-bruteforce")
        assert code == 0
        assert results == ["RESULT pi=16"]

    def test_conj_n3(self, capsys):
        code, results, _ = run_cli(capsys, "paper", "conj-n3")
        assert code == 0
        assert result_map(results[0])["valid"] == "true"

    def test_thm3_n1(self, capsys):
        code, results, _ = run_cli(capsys, "paper", "thm3-n1")
        assert code == 0
        fields = result_map(results[0])
        assert fields["valid"] == "true"
        assert fields["generalized_m"] == "6"
        assert fields["generalized_valid"] == "true"

    def test_long_target_gated(self, capsys):
        code, _, err = run_cli(capsys, "paper", "conj-n5")
        assert code == 2
        assert "--allow-long" in err

    def test_thm1_k5_is_long(self, capsys):
        code, results, err = run_cli(capsys, "paper", "thm1-k5")
        assert code == 2 and results == []
        assert "--allow-long" in err

    def test_thm1_k5_honours_the_node_cap(self, capsys):
        # the full run decides 853,669 candidates on C11 (pi = 43)
        pb.cycle_graph(11)._cache.clear()
        code, results, err = run_cli(capsys, "paper", "thm1-k5", "--allow-long", "--max-nodes", "5000")
        assert code == 3 and results == []
        proven = re.search(r"proven pi >= (\d+)", err)
        assert proven and 1 <= int(proven.group(1)) < 43, err

    def test_thm3_n4_honours_the_node_cap(self, capsys):
        # the full run decides about 9.2 million candidates on lollipop(4) (pi = 64)
        code, results, err = run_cli(capsys, "paper", "thm3-n4")
        assert code == 2 and results == [] and "--allow-long" in err
        code, results, err = run_cli(capsys, "paper", "thm3-n4", "--allow-long", "--max-nodes", "5000")
        assert code == 3 and results == []
        proven = re.search(r"proven pi >= (\d+)", err)
        assert proven and 1 <= int(proven.group(1)) < 64, err

    def test_unknown_target(self, capsys):
        code, _, _ = run_cli(capsys, "paper", "thm9-k9")
        assert code == 2

    def test_thread_count_does_not_change_results(self, capsys):
        pb.cycle_graph(3)._cache.clear()
        code, first, _ = run_cli(capsys, "paper", "thm1-k1", "--threads", "1")  # the bench harness's call
        assert code == 0 and result_map(first[0])["pi"] == "3"
        pb.cycle_graph(3)._cache.clear()
        _, second, _ = run_cli(capsys, "paper", "thm1-k1", "--threads", "2")
        assert first == second
        pb.rooted_cube(3)._cache.clear()
        _, third, _ = run_cli(capsys, "paper", "prop-fig2", "--threads", "2")
        _, fourth, _ = run_cli(capsys, "paper", "prop-fig2", "--threads", "1")
        assert third == fourth


class TestPlumbing:
    def test_usage_error_exit_2(self, capsys):
        assert main(["pi"]) == 2  # missing -g
        capsys.readouterr()

    def test_parse_error_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("not a graph\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "pi", "-g", str(bad))
        assert code == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("pebblegraph 1\nvertices 0\nroot 0\n", 2),
            ("pebblegraph 1\nvertices 3\nroot 7\nedge 0 1\n", 3),
            ("# c\npebblegraph 2\nvertices 2\nroot 0\nedge 0 1\n", 2),
        ],
        ids=["no-vertices", "root-past-last-vertex", "version-after-a-comment"],
    )
    def test_bad_header_record_exits_2_with_its_line(self, capsys, tmp_path, text, line):
        bad = tmp_path / "bad.graph"
        bad.write_text(text, encoding="utf-8")
        code, _, err = run_cli(capsys, "pi", "-g", str(bad))
        assert code == 2
        assert f"line {line}:" in err

    def test_missing_file_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "pi", "-g", str(tmp_path / "nope.graph"))
        assert code == 2

    def test_unreadable_input_exits_2(self, capsys, tmp_path):
        binary = tmp_path / "latin1.graph"
        binary.write_bytes("pebblegraph 1\n# caf\xe9\n".encode("latin-1"))
        for argv in (
            ("pi", "-g", str(binary)),
            ("pi", "-g", str(tmp_path)),
            ("gen", "path", "3", "-o", str(tmp_path)),
        ):
            code, results, err = run_cli(capsys, *argv)
            assert code == 2 and results == [], argv
            assert "error:" in err and "Traceback" not in err, argv

    def test_malformed_env_limit_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("PEBBLE_MAX_NODES", "abc")
        for target in ("prop-q3", "lemma5"):
            code, results, err = run_cli(capsys, "paper", target)
            assert code == 2, target
            assert results == [] and "PEBBLE_MAX_NODES" in err, target

    def test_nan_or_negative_cap_exits_2(self, capsys, monkeypatch, tmp_path, c5_file):
        # a NaN cap compares false with everything, so it would never be hit;
        # a refused cap is reported before the symmetry note of a search
        weights = tmp_path / "w.weights"
        weights.write_text("pebbleweights 1\nw 1 1\n", encoding="utf-8")
        searches = (("pi", "-g", str(c5_file)), ("verify", "-g", str(c5_file), "-w", str(weights)))
        for argv in searches:
            for flags in (("--max-seconds", "nan"), ("--max-seconds", "-1"), ("--max-nodes", "-3")):
                code, results, err = run_cli(capsys, *argv, *flags)
                assert code == 2 and results == [], (argv, flags)
                assert "must be a nonnegative number" in err, (argv, flags)
                assert "symmetry:" not in err, (argv, flags)
        for name, value in (("PEBBLE_MAX_SECONDS", "nan"), ("PEBBLE_MAX_SECONDS", "-2"), ("PEBBLE_MAX_NODES", "-3")):
            monkeypatch.setenv(name, value)
            for argv in searches:
                code, results, err = run_cli(capsys, *argv)
                assert code == 2 and results == [], (argv, name, value)
                assert "must be a nonnegative number" in err, (argv, name, value)
                assert "symmetry:" not in err, (argv, name, value)
            monkeypatch.delenv(name)

    def test_flags_that_select_nothing_are_refused(self, capsys, tmp_path, c5_file, c5):
        cfg = tmp_path / "p.config"
        cfg.write_text(serialize_config(pb.configuration(c5, {2: 4})), encoding="utf-8")
        weights = tmp_path / "w.weights"
        weights.write_text("pebbleweights 1\n", encoding="utf-8")
        copies = tmp_path / "copies.manifest"
        copies.write_text("pebblecopies 1\n", encoding="utf-8")
        for argv in (
            ("pi", "-g", str(c5_file), "--no-symmetry"),
            ("paper", "prop-q3", "--no-symmetry"),
            ("solve", "-g", str(c5_file), "-c", str(cfg), "--threads", "2"),
            ("decompose", "-g", str(c5_file), "-w", str(weights), "--copies", str(copies), "--max-nodes", "5"),
        ):
            code, results, _ = run_cli(capsys, *argv)
            assert code == 2 and results == [], argv

    def test_label_for_missing_vertex_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "ghost.graph"
        bad.write_text("pebblegraph 1\nvertices 3\nroot 0\nedge 0 1\nedge 1 2\nlabel 7 ghost\n", encoding="utf-8")
        code, results, err = run_cli(capsys, "pi", "-g", str(bad))
        assert code == 2
        assert results == [] and "line 6" in err

    def test_unexpected_exception_exits_4(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "gen", broken)
        code, results, err = run_cli(capsys, "gen", "hypercube", "3")
        assert code == 4
        assert results == [] and "internal error: RuntimeError: boom" in err

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_error_class_has_its_exit_code(self, capsys, monkeypatch, cls):
        exc = cls(7, "boom") if issubclass(cls, errors.ParseError) else cls("boom")

        def broken(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "gen", broken)
        code, results, err = run_cli(capsys, "gen", "hypercube", "3")
        assert results == [] and "Traceback" not in err
        if issubclass(cls, errors.ResourceLimitError):
            assert code == 3 and "resource limit: boom" in err
        elif issubclass(cls, errors.InternalError):
            assert code == 4 and f"error: {exc}" in err
        else:
            assert code == 2 and f"error: {exc}" in err

    def test_failed_witness_reverification_exits_4(self, capsys, monkeypatch, c5_file):
        # the builder decides its candidates by lookups, so only the
        # re-verification of pi's witness calls decide
        monkeypatch.setattr(pb.Solver, "decide", lambda self, counts: True)
        code, results, err = run_cli(capsys, "pi", "-g", str(c5_file))
        assert code == 4
        assert results == [] and "witness re-verification failed" in err

    def test_failed_witness_replay_exits_4(self, capsys, monkeypatch, tmp_path, c5_file, c5):
        def short(self, v, runs):
            return original(self, v, runs)[:-1]

        original = pb.Solver._moves_up
        monkeypatch.setattr(pb.Solver, "_moves_up", short)
        cfg = tmp_path / "p.config"
        cfg.write_text(serialize_config(pb.configuration(c5, {2: 4})), encoding="utf-8")
        code, results, err = run_cli(capsys, "solve", "-g", str(c5_file), "-c", str(cfg), "--witness")
        assert code == 4
        assert results == [] and "witness replay" in err

    def test_module_entry_point(self, tmp_path):
        # the child imports the same package as this process, installed or not
        src = str(Path(pb.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "pebbling", "paper", "prop-fig2"],
            capture_output=True,
            text=True,
            timeout=300,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "RESULT valid=true" in proc.stdout

    def test_reproduce_script_runs_from_a_plain_checkout(self, tmp_path):
        # no PYTHONPATH: the script finds the repository's src/ itself
        script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_results.py"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(script), "--help"],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "--allow-long" in proc.stdout
