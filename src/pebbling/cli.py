"""Command-line surface.

Machine-readable ``RESULT key=value`` lines go to stdout and are stable;
human prose goes to stderr. Exit codes: 0 success or valid, 1 a
counterexample or bound mismatch was found, 2 usage or parse error, 3 a
resource limit was hit.

``pebble paper <id>`` reproduces the named results bundled with the
library end to end (exhaustive searches, certificate checks, LP
bounds). Targets marked long in ``_TARGETS`` run only with
``--allow-long``.

``--max-nodes`` and ``--max-seconds`` fall back to PEBBLE_MAX_NODES and
PEBBLE_MAX_SECONDS through ``SearchLimits``; a malformed value exits 2.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path

from .configurations import Configuration
from .errors import (
    FormatError,
    NotATreeError,
    PebblingError,
    ResourceLimitError,
    UncertifiedWeightError,
    UnknownFamilyError,
    WeightNotPositiveError,
)
from .fileformats import (
    format_fraction,
    parse_config,
    parse_copies_manifest,
    parse_graph,
    parse_weights,
    serialize_graph,
)
from .graphs import cycle_graph, generate, hypercube
from .lp import lp_pebbling_bound
from .pebbling_number import pi_rooted
from .solver import SearchLimits, is_solvable, shared_solver
from .strategies import (
    Certificate,
    certify_by_decomposition,
    certify_by_oracle,
    certify_tree,
    check_tree_strategy,
    conic_combine,
    construction,
    construction_certificate,
    cycle_strategy_pair,
    cube_copy_embeddings,
    diameter_lower_bound,
    q4_copy_embeddings,
    verify_decomposition,
    verify_validity_oracle,
    weight_function_bound,
)

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, Configuration):
        return ",".join(str(c) for c in value.counts)
    return str(value)


def emit(**fields) -> None:
    print("RESULT " + " ".join(f"{k}={_fmt(v)}" for k, v in fields.items()), flush=True)


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


@dataclass(frozen=True)
class BoundReport:
    """Provenance record for a bound computation; rendered as prose.

    The stable machine interface is the RESULT lines; timing and node
    counts live here and on stderr only.
    """

    graph: str
    root: int
    lower: int
    lower_method: str
    upper: int
    upper_method: str
    certificates: tuple[str, ...]
    elapsed: float
    nodes: int

    def summary(self) -> str:
        certs = ", ".join(self.certificates) if self.certificates else "none"
        return (
            f"{self.graph} rooted at {self.root}: "
            f"lower {self.lower} ({self.lower_method}), upper {self.upper} ({self.upper_method}); "
            f"certificates: {certs}; {self.elapsed:.2f}s, {self.nodes} search nodes"
        )


def _describe(g) -> str:
    return f"graph<{g.vertex_count} vertices, {len(g.edges)} edges>"


def _limits(args) -> SearchLimits:
    """The flags' caps; an absent flag leaves SearchLimits its environment default."""
    given = {"max_nodes": args.max_nodes, "max_seconds": args.max_seconds}
    return SearchLimits(**{k: v for k, v in given.items() if v is not None})


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pebble", description="graph pebbling toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--threads", type=int, default=1,
            help="accepted for compatibility; selects nothing, every search runs in this process",
        )
        p.add_argument(
            "--max-nodes", type=int, default=None,
            help="search-node cap per operation (default: PEBBLE_MAX_NODES, else 10^8; exit 3 when exceeded)",
        )
        p.add_argument(
            "--max-seconds", type=float, default=None,
            help="wall-clock cap per search operation (default: PEBBLE_MAX_SECONDS, else none; exit 3 when exceeded)",
        )
        p.add_argument("--no-symmetry", action="store_true", help="disable orbit reduction")

    p = sub.add_parser("gen", help="generate a graph family instance")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", type=Path, default=None)

    p = sub.add_parser("pi", help="exact rooted pebbling number")
    p.add_argument("-g", "--graph", type=Path, required=True)
    common(p)

    p = sub.add_parser("solve", help="decide solvability of a configuration")
    p.add_argument("-g", "--graph", type=Path, required=True)
    p.add_argument("-c", "--config", type=Path, required=True)
    p.add_argument("--target", type=int, default=1)
    p.add_argument("--witness", action="store_true", help="print a move sequence when solvable")
    common(p)

    p = sub.add_parser("verify", help="check a weight-function certificate")
    p.add_argument("-g", "--graph", type=Path, required=True)
    p.add_argument("-w", "--weights", type=Path, required=True)
    p.add_argument("--mode", choices=("tree", "oracle"), default="oracle")
    common(p)

    p = sub.add_parser("bound", help="single-certificate and LP bounds")
    p.add_argument("-g", "--graph", type=Path, required=True)
    p.add_argument("-w", "--weights", type=Path, action="append", required=True)
    p.add_argument("--certify", choices=("auto", "tree", "oracle"), default="auto")
    common(p)

    p = sub.add_parser("decompose", help="verify a copies-sum decomposition")
    p.add_argument("-g", "--graph", type=Path, required=True)
    p.add_argument("-w", "--weights", type=Path, required=True)
    p.add_argument("--copies", type=Path, required=True)
    common(p)

    p = sub.add_parser("paper", help="reproduce a named bundled result")
    p.add_argument("result_id")
    p.add_argument("--allow-long", action="store_true")
    common(p)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    g = generate(args.family, *args.params)
    text = serialize_graph(g)
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text, encoding="utf-8")
        note(f"wrote {args.output}")
    emit(vertices=g.vertex_count, edges=len(g.edges))
    return 0


def _cmd_pi(args) -> int:
    g = parse_graph(args.graph.read_text(encoding="utf-8"))
    result = pi_rooted(g, use_symmetry=not args.no_symmetry, limits=_limits(args))
    note(f"unsolvable witness of size {result.value - 1}: {_fmt(result.witness_unsolvable)}")
    emit(pi=result.value)
    return 0


def _cmd_solve(args) -> int:
    g = parse_graph(args.graph.read_text(encoding="utf-8"))
    p = parse_config(args.config.read_text(encoding="utf-8"), g)
    outcome = is_solvable(g, p, t=args.target, want_witness=args.witness, limits=_limits(args))
    if outcome.witness is not None:
        note("witness: " + " ".join(f"{u}->{v}" for u, v in outcome.witness))
    emit(solvable=outcome.solvable)
    return 0


def _cmd_verify(args) -> int:
    g = parse_graph(args.graph.read_text(encoding="utf-8"))
    w = parse_weights(args.weights.read_text(encoding="utf-8"), g)
    if args.mode == "tree":
        try:
            ok = check_tree_strategy(g, w)
        except NotATreeError as exc:
            note(str(exc))
            emit(valid=False, reason="not-a-tree")
            return 1
        if ok:
            emit(valid=True, mode="tree")
            return 0
        emit(valid=False, reason="parent-halving")
        return 1
    result = verify_validity_oracle(g, w, use_symmetry=not args.no_symmetry, limits=_limits(args))
    if result.valid:
        emit(valid=True, max_weight=result.max_unsolvable, cap=result.cap)
        return 0
    emit(
        valid=False,
        counterexample=result.counterexample,
        weight=result.max_unsolvable,
        cap=result.cap,
    )
    return 1


def _certify(g, w, how: str, args) -> Certificate:
    if how == "tree":
        return certify_tree(g, w)
    if how == "auto":
        try:
            return certify_tree(g, w)
        except (NotATreeError, UncertifiedWeightError):
            pass
    return certify_by_oracle(g, w, use_symmetry=not args.no_symmetry, limits=_limits(args))


def _cmd_bound(args) -> int:
    g = parse_graph(args.graph.read_text(encoding="utf-8"))
    watched = shared_solver(g, 1, _limits(args))
    start = time.monotonic()
    certs = []
    for i, path in enumerate(args.weights):
        w = parse_weights(path.read_text(encoding="utf-8"), g)
        cert = _certify(g, w, args.certify, args)
        certs.append(cert)
        try:
            single = weight_function_bound(cert)
        except WeightNotPositiveError:
            single = "none"  # partial support: only the LP can use this row
        emit(**{f"cert{i}_bound": single})
    optimum, bound = lp_pebbling_bound(g, certs)
    lower = diameter_lower_bound(g)
    report = BoundReport(
        graph=_describe(g),
        root=g.root,
        lower=lower,
        lower_method="diameter stack",
        upper=bound,
        upper_method="strategy LP",
        certificates=tuple(c.status for c in certs),
        elapsed=time.monotonic() - start,
        nodes=watched.stats.nodes,
    )
    note(report.summary())
    emit(bound=bound, optimum=optimum)
    emit(lower=lower)
    return 0 if lower <= bound else 1


def _cmd_decompose(args) -> int:
    g = parse_graph(args.graph.read_text(encoding="utf-8"))
    w = parse_weights(args.weights.read_text(encoding="utf-8"), g)
    copies = parse_copies_manifest(args.copies.read_text(encoding="utf-8"), args.copies.parent, g)
    ok = verify_decomposition(g, w, copies)
    emit(decompose=ok)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# bundled reproduction targets
# ---------------------------------------------------------------------------


def _target_odd_cycle(k: int, args) -> int:
    g = cycle_graph(2 * k + 1)
    expected = 2 * ((1 << (k + 1)) // 3) + 1
    watched = shared_solver(g, 1, _limits(args))
    start = time.monotonic()
    nodes_before = watched.stats.nodes
    result = pi_rooted(g, use_symmetry=not args.no_symmetry, limits=_limits(args))
    cert_a, cert_b = cycle_strategy_pair(k)
    combined = conic_combine(g, [(1, cert_a, None), (1, cert_b, None)])
    upper = weight_function_bound(combined)
    optimum, lp_bound = lp_pebbling_bound(g, [cert_a, cert_b])
    stack = (1 << (k + 1)) // 3
    counts = [0] * (2 * k + 1)
    counts[k] = stack
    counts[k + 1] = stack
    stuck = Configuration(g, tuple(counts))
    lower = stuck.size + 1 if not is_solvable(g, stuck, limits=_limits(args)).solvable else 0
    report = BoundReport(
        graph=_describe(g),
        root=g.root,
        lower=lower,
        lower_method="stuck configuration on the two farthest vertices",
        upper=min(upper, lp_bound),
        upper_method="combined weight cap and strategy LP",
        certificates=(cert_a.status, cert_b.status, combined.status),
        elapsed=time.monotonic() - start,
        nodes=watched.stats.nodes - nodes_before,
    )
    note(report.summary())
    emit(pi=result.value, lower=lower, upper=upper, bound=lp_bound, optimum=optimum)
    return 0 if result.value == expected == lower == upper == lp_bound else 1


def _oracle_target(name: str, params: tuple[int, ...], args, extra=None) -> int:
    g, w = construction(name, *params)
    result = verify_validity_oracle(g, w, use_symmetry=not args.no_symmetry, limits=_limits(args))
    fields = {"valid": result.valid, "max_weight": result.max_unsolvable, "cap": result.cap}
    if extra:
        fields.update(extra)
    emit(**fields)
    return 0 if result.valid else 1


def _target_prop_q3(args) -> int:
    q3 = hypercube(3)
    _, w_prime = construction("q3prime")
    base = construction_certificate("fig2")
    combined = conic_combine(q3, [(1, base, emb) for emb in cube_copy_embeddings(3)])
    same = combined.weight_function.weights == w_prime.weights
    rc = _oracle_target("q3prime", (), args, extra={"decomposition": same})
    return rc if same else 1


def _target_thm2_q4(args) -> int:
    start = time.monotonic()
    q4, w_star = construction("q4star")
    g, w = construction("lemma5")
    watched = shared_solver(g, 1, _limits(args))
    nodes_before = watched.stats.nodes
    base = certify_by_oracle(g, w, use_symmetry=not args.no_symmetry, limits=_limits(args))
    copies = [(emb, base) for emb in q4_copy_embeddings()]
    ok = verify_decomposition(q4, w_star, [(emb, base.weight_function) for emb, _ in copies])
    cert = certify_by_decomposition(q4, w_star, copies)
    upper = weight_function_bound(cert)
    lower = diameter_lower_bound(q4)
    report = BoundReport(
        graph=_describe(q4),
        root=q4.root,
        lower=lower,
        lower_method="diameter stack",
        upper=upper,
        upper_method="weight cap of the four-copy decomposition",
        certificates=(base.status, cert.status),
        elapsed=time.monotonic() - start,
        nodes=watched.stats.nodes - nodes_before,
    )
    note(f"base certificate: {base.notes}")
    note(report.summary())
    fields = {"lower": lower, "upper": upper}
    if lower == upper:
        fields["pi"] = lower
    fields["decompose"] = ok
    emit(**fields)
    return 0 if ok and lower == upper == 16 else 1


def _target_thm3(n: int, args, generalized: bool) -> int:
    g, w = construction("lollipop", n)
    result = verify_validity_oracle(g, w, use_symmetry=not args.no_symmetry, limits=_limits(args))
    fields = {"valid": result.valid, "max_weight": result.max_unsolvable, "cap": result.cap}
    rc = 0 if result.valid else 1
    if generalized:
        m = (1 << (n + 1)) + 2
        gg, gw = construction("lollipop_general", n, m)
        gen_result = verify_validity_oracle(gg, gw, use_symmetry=not args.no_symmetry, limits=_limits(args))
        fields["generalized_m"] = m
        fields["generalized_valid"] = gen_result.valid
        if not gen_result.valid:
            rc = 1
    emit(**fields)
    return rc


def _target_q4_bruteforce(args) -> int:
    g = hypercube(4)
    result = pi_rooted(g, use_symmetry=not args.no_symmetry, limits=_limits(args))
    emit(pi=result.value)
    return 0 if result.value == 16 else 1


# result id -> (runner taking the parsed arguments, needs --allow-long)
_TARGETS = {
    "thm1-k1": (partial(_target_odd_cycle, 1), False),
    "thm1-k2": (partial(_target_odd_cycle, 2), False),
    "thm1-k3": (partial(_target_odd_cycle, 3), False),
    "thm1-k4": (partial(_target_odd_cycle, 4), False),
    "prop-fig2": (partial(_oracle_target, "fig2", ()), False),
    "prop-q3": (_target_prop_q3, False),
    "lemma5": (partial(_oracle_target, "lemma5", ()), False),
    "thm2-q4": (_target_thm2_q4, False),
    "q4-bruteforce": (_target_q4_bruteforce, False),
    "conj-n3": (partial(_oracle_target, "conjecture", (3,)), False),
    "conj-n4": (partial(_oracle_target, "conjecture", (4,)), False),
    "conj-n5": (partial(_oracle_target, "conjecture", (5,)), True),
    "thm3-n1": (partial(_target_thm3, 1, generalized=True), False),
    "thm3-n2": (partial(_target_thm3, 2, generalized=False), False),
    "thm3-n3": (partial(_target_thm3, 3, generalized=False), False),
}
DEFAULT_TARGETS = tuple(rid for rid, (_, long) in _TARGETS.items() if not long)
LONG_TARGETS = tuple(rid for rid, (_, long) in _TARGETS.items() if long)


def _cmd_paper(args) -> int:
    rid = args.result_id
    if rid not in _TARGETS:
        note(f"unknown result id {rid!r}; choose from {tuple(_TARGETS)}")
        return 2
    runner, long = _TARGETS[rid]
    if long and not args.allow_long:
        note(f"{rid} is a long-running target; pass --allow-long to run it")
        return 2
    return runner(args)


_COMMANDS = {
    "gen": _cmd_gen,
    "pi": _cmd_pi,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "decompose": _cmd_decompose,
    "paper": _cmd_paper,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        note(f"resource limit: {exc}")
        return 3
    except (FormatError, UnknownFamilyError, WeightNotPositiveError) as exc:
        note(f"error: {exc}")
        return 2
    except FileNotFoundError as exc:
        note(f"error: {exc}")
        return 2
    except PebblingError as exc:
        note(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
