"""Command-line surface.

Machine-readable ``RESULT key=value`` lines go to stdout and are stable;
human prose goes to stderr. Exit codes: 0 success or valid, 1 a
counterexample or bound mismatch was found, 2 a usage, parse or read
error, 3 a resource limit was hit, 4 an internal error (a fault in this package,
never a verdict).

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
import traceback
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from .configurations import Configuration
from .errors import InternalError, NotATreeError, PebblingError, ResourceLimitError
from .errors import UncertifiedWeightError, WeightNotPositiveError
from .fileformats import (
    format_fraction,
    parse_config,
    parse_copies_manifest,
    parse_graph,
    parse_weights,
    serialize_graph,
)
from .graphs import cycle_graph, generate, hypercube, rooted_cube
from .lp import lp_pebbling_bound
from .pebbling_number import _symmetry_mode, down_set_sizes, pi_rooted
from .solver import SearchLimits, is_solvable, shared_solver
from .strategies import (
    certify,
    construction,
    construction_certificate,
    cube_copy_embeddings,
    diameter_lower_bound,
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


def _report(g, lower, lower_method, upper, upper_method, certs, start, nodes) -> None:
    """The provenance of a bound as one line of prose on stderr; the
    stable machine interface is the RESULT lines."""
    statuses = ", ".join(c.status for c in certs) or "none"
    note(
        f"graph<{g.vertex_count} vertices, {len(g.edges)} edges> rooted at {g.root}: "
        f"lower {lower} ({lower_method}), upper {upper} ({upper_method}); "
        f"certificates: {statuses}; {time.monotonic() - start:.2f}s, {nodes} search nodes"
    )


def _note_symmetry(g, limits) -> None:
    """Name the regime the down-set is reduced by: ``blocks`` with each
    twin block's size, ``group`` with the order of the root-fixing
    automorphism group (searched for under ``limits``), or ``none``."""
    kind, data = _symmetry_mode(g, shared_solver(g).begin(limits))
    if kind == "blocks":
        kind += " " + ",".join(str(len(block)) for block in data)
    elif kind == "group":
        kind += f" {len(data)}"
    note(f"symmetry: {kind}")


def _note_down_set(g) -> None:
    """Size the down-set cached on g: its levels, the orbit
    representatives built, those below the solver's floor, and the
    maximal ones the graph keeps."""
    levels, representatives, maximal, below = down_set_sizes(g)
    note(f"down-set: {levels} levels, {representatives} representatives ({below} below the floor), {maximal} maximal")


def _certified(g, w, method: str, limits: SearchLimits | None = None):
    """``certify(g, w, method)``, or None once its refusal is reported as a
    verdict: the check's message on stderr, then ``RESULT valid=false reason=``
    not-a-tree, parent-halving (a failed tree check of method "tree") or counterexample."""
    try:
        return certify(g, w, method, limits=limits)
    except (NotATreeError, UncertifiedWeightError) as exc:
        note(str(exc))
        failed = "parent-halving" if method == "tree" else "counterexample"
        emit(valid=False, reason="not-a-tree" if isinstance(exc, NotATreeError) else failed)
        return None


def _limits(args) -> SearchLimits:
    """The flags' caps; an absent flag leaves SearchLimits its environment default."""
    given = {"max_nodes": args.max_nodes, "max_seconds": args.max_seconds}
    return SearchLimits(**{k: v for k, v in given.items() if v is not None})


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pebble", description="graph pebbling toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def limits(p):
        p.add_argument(
            "--max-nodes", type=int, default=None,
            help=(
                "search-node cap per operation; a down-set scan counts one node per candidate it decides "
                "(default: PEBBLE_MAX_NODES, else 10^8; exit 3 when exceeded)"
            ),
        )
        p.add_argument(
            "--max-seconds", type=float, default=None,
            help="wall-clock cap per search operation (default: PEBBLE_MAX_SECONDS, else none; exit 3 when exceeded)",
        )

    p = sub.add_parser("gen", help="generate a graph family instance")
    p.add_argument("family")
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("-o", "--output", type=Path, default=None)

    p = sub.add_parser("pi", help="exact rooted pebbling number")
    p.add_argument("-g", "--graph", type=Path, required=True)
    limits(p)

    p = sub.add_parser("solve", help="decide solvability of a configuration")
    p.add_argument("-g", "--graph", type=Path, required=True)
    p.add_argument("-c", "--config", type=Path, required=True)
    p.add_argument("--target", type=int, default=1)
    p.add_argument("--witness", action="store_true", help="print a move sequence when solvable")
    limits(p)

    p = sub.add_parser("verify", help="check a weight-function certificate")
    p.add_argument("-g", "--graph", type=Path, required=True)
    p.add_argument("-w", "--weights", type=Path, required=True)
    p.add_argument("--mode", choices=("tree", "oracle"), default="oracle")
    limits(p)

    p = sub.add_parser("bound", help="single-certificate and LP bounds")
    p.add_argument("-g", "--graph", type=Path, required=True)
    p.add_argument("-w", "--weights", type=Path, action="append", required=True)
    p.add_argument("--certify", choices=("auto", "tree", "oracle"), default="auto")
    limits(p)

    p = sub.add_parser("decompose", help="verify a copies-sum decomposition")
    p.add_argument("-g", "--graph", type=Path, required=True)
    p.add_argument("-w", "--weights", type=Path, required=True)
    p.add_argument("--copies", type=Path, required=True)

    p = sub.add_parser("paper", help="reproduce a named bundled result")
    p.add_argument("result_id")
    p.add_argument("--allow-long", action="store_true")
    p.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility; selects nothing, every search runs in this process",
    )
    limits(p)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    g = generate(args.family, *args.params)
    text = serialize_graph(g)
    if args.output is None:
        # stdout carries the graph alone, so it can be redirected to a file
        sys.stdout.write(text)
        note(f"vertices={g.vertex_count} edges={len(g.edges)}")
    else:
        args.output.write_text(text, encoding="utf-8")
        note(f"wrote {args.output}")
        emit(vertices=g.vertex_count, edges=len(g.edges))
    return 0


def _cmd_pi(args) -> int:
    g = parse_graph(args.graph.read_text(encoding="utf-8"))
    limits = _limits(args)
    _note_symmetry(g, limits)
    result = pi_rooted(g, limits=limits)
    _note_down_set(g)
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
        if _certified(g, w, "tree") is None:
            return 1
        emit(valid=True, mode="tree")
        return 0
    limits = _limits(args)
    _note_symmetry(g, limits)
    result = verify_validity_oracle(g, w, limits=limits)
    _note_down_set(g)
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


def _cmd_bound(args) -> int:
    g = parse_graph(args.graph.read_text(encoding="utf-8"))
    start = time.monotonic()
    certs, singles = [], {}
    for i, path in enumerate(args.weights):
        w = parse_weights(path.read_text(encoding="utf-8"), g)
        cert = _certified(g, w, args.certify, _limits(args))
        if cert is None:
            return 1
        certs.append(cert)
        try:
            singles[f"cert{i}_bound"] = weight_function_bound(cert)
        except WeightNotPositiveError:
            singles[f"cert{i}_bound"] = "none"  # partial support: only the LP can use this row
    # nothing is printed until the last search and the LP are done, so an early end prints no RESULT
    optimum, bound = lp_pebbling_bound(g, certs)
    lower = diameter_lower_bound(g)
    _report(g, lower, "diameter stack", bound, "strategy LP", certs, start, shared_solver(g).stats.nodes)
    for key, single in singles.items():
        emit(**{key: single})
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
    start = time.monotonic()
    nodes_before = shared_solver(g).stats.nodes
    result = pi_rooted(g, limits=_limits(args))
    combined = construction_certificate("cycle_combined", k)
    upper = weight_function_bound(combined)
    optimum, lp_bound = lp_pebbling_bound(g, combined.components)
    stack = (1 << (k + 1)) // 3
    counts = [0] * (2 * k + 1)
    counts[k] = stack
    counts[k + 1] = stack
    stuck = Configuration(g, tuple(counts))
    lower = stuck.size + 1 if not is_solvable(g, stuck, limits=_limits(args)).solvable else 0
    _report(
        g, lower, "stuck configuration on the two farthest vertices",
        min(upper, lp_bound), "combined weight cap and strategy LP",
        (*combined.components, combined), start, shared_solver(g).stats.nodes - nodes_before,
    )
    emit(pi=result.value, lower=lower, upper=upper, bound=lp_bound, optimum=optimum)
    return 0 if result.value == expected == lower == upper == lp_bound else 1


def _oracle_target(name: str, params: tuple[int, ...], args, extra=None) -> int:
    """Verify a construction with the oracle and emit its RESULT line,
    followed by ``extra`` fields; exit 0 only if every boolean field is true."""
    g, w = construction(name, *params)
    result = verify_validity_oracle(g, w, limits=_limits(args))
    fields = {"valid": result.valid, "max_weight": result.max_unsolvable, "cap": result.cap}
    if extra:
        fields.update(extra)
    emit(**fields)
    return 0 if all(v for v in fields.values() if isinstance(v, bool)) else 1


def _target_prop_q3(args) -> int:
    q3, w_prime = construction("q3prime")
    base = construction_certificate("fig2", limits=_limits(args)).weight_function
    same = verify_decomposition(q3, w_prime, [(emb, base) for emb in cube_copy_embeddings(3)])
    return _oracle_target("q3prime", (), args, extra={"decomposition": same})


def _target_thm2_q4(args) -> int:
    start = time.monotonic()
    base_graph = rooted_cube(4)  # the lemma5 base graph
    nodes_before = shared_solver(base_graph).stats.nodes
    # raises, and so exits 2, unless the four lemma5 copies sum to q4star
    cert = construction_certificate("q4star", limits=_limits(args))
    base = cert.components[0]
    upper = weight_function_bound(cert)
    lower = diameter_lower_bound(cert.graph)
    note(f"base certificate: {base.notes}")
    _report(
        cert.graph, lower, "diameter stack", upper, "weight cap of the four-copy decomposition",
        (base, cert), start, shared_solver(base_graph).stats.nodes - nodes_before,
    )
    fields = {"lower": lower, "upper": upper}
    if lower == upper:
        fields["pi"] = lower
    emit(**fields, decompose=True)
    return 0 if lower == upper == 16 else 1


def _target_thm3_n1(args) -> int:
    m = (1 << (1 + 1)) + 2  # Theorem 3's generalized form: more than 2^(n+1) parallel paths
    g, w = construction("lollipop_general", 1, m)
    general = verify_validity_oracle(g, w, limits=_limits(args))
    return _oracle_target("lollipop", (1,), args, extra={"generalized_m": m, "generalized_valid": general.valid})


def _target_q4_bruteforce(args) -> int:
    g = hypercube(4)
    result = pi_rooted(g, limits=_limits(args))
    emit(pi=result.value)
    return 0 if result.value == 16 else 1


# result id -> (runner taking the parsed arguments, needs --allow-long)
_TARGETS = {
    "thm1-k1": (partial(_target_odd_cycle, 1), False),
    "thm1-k2": (partial(_target_odd_cycle, 2), False),
    "thm1-k3": (partial(_target_odd_cycle, 3), False),
    "thm1-k4": (partial(_target_odd_cycle, 4), False),
    "thm1-k5": (partial(_target_odd_cycle, 5), True),
    "prop-fig2": (partial(_oracle_target, "fig2", ()), False),
    "prop-q3": (_target_prop_q3, False),
    "lemma5": (partial(_oracle_target, "lemma5", ()), False),
    "thm2-q4": (_target_thm2_q4, False),
    "q4-bruteforce": (_target_q4_bruteforce, False),
    "conj-n3": (partial(_oracle_target, "conjecture", (3,)), False),
    "conj-n4": (partial(_oracle_target, "conjecture", (4,)), False),
    "conj-n5": (partial(_oracle_target, "conjecture", (5,)), True),
    "thm3-n1": (_target_thm3_n1, False),
    "thm3-n2": (partial(_oracle_target, "lollipop", (2,)), False),
    "thm3-n3": (partial(_oracle_target, "lollipop", (3,)), False),
    "thm3-n4": (partial(_oracle_target, "lollipop", (4,)), True),
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
    except (ResourceLimitError, KeyboardInterrupt) as exc:  # an interrupt in a build is the former
        proven = "" if getattr(exc, "pi_lower", None) is None else f"; proven pi >= {exc.pi_lower}"
        note(f"resource limit: {str(exc) or 'interrupted'}{proven}")
        return 3
    except InternalError as exc:
        note(f"error: {exc}")
        return 4
    except (PebblingError, OSError, UnicodeDecodeError) as exc:
        note(f"error: {exc}")
        return 2
    except Exception as exc:
        traceback.print_exc()
        note(f"internal error: {type(exc).__name__}: {exc}")
        return 4


def entry() -> int:
    """``python -m pebbling`` and ``pebble``: main, with SIGINT and SIGTERM
    each an interrupt the first time (main's in-process callers keep their
    handlers). The first restores both signals' default action, so a second
    ends the process at once. A signal ignored at start stays ignored."""
    import signal  # here, not at the top: it would cost every caller of main memory

    def interrupt(signum, frame):
        for sig in (signal.SIGINT, signal.SIGTERM):
            signal.signal(sig, signal.SIG_DFL)
        raise KeyboardInterrupt

    for sig in (signal.SIGINT, signal.SIGTERM):
        if signal.getsignal(sig) is not signal.SIG_IGN:
            signal.signal(sig, interrupt)
    return main()
