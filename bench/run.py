#!/usr/bin/env python3
"""The repository's benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload search --seed 7 --seconds 35 --trace 0

Run it from anywhere; it measures the package under ``src/`` next to
this directory. Each pass of a workload starts a fresh interpreter
(``bench/worker.py``), so module caches never turn a repeat into a cache
hit, and passes run one after another, never side by side. Pass ``i``
of a run draws its inputs from ``<seed>:<i>``, so the same seed gives
the same inputs. A run makes a fixed number of passes, ``--seconds``
over the workload's ``PASS_S`` and at least ``MIN_PASSES``, so it never
depends on timing: every run of a workload attempts the same ops, and
fails the same known-defect ones. Every op is timed on its own, in
reference seconds (``worker.py``: the smaller of its wall and CPU times,
over the slowdown a speed probe shows next to it), and a run takes each
op's median over the passes. Set-up time is the median of
``SETUP_SAMPLES`` set-ups, memory the median over the passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
plain and traced passes on the same inputs and prints the per-layer
metrics, ``trace.overhead_s`` being the traced minus the plain run
time. Metric names and units come from ``BENCHMARK.json``. A per-layer
value of -1 means unmeasured: the workload never called that layer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An op fails on a
wrong answer, a failed independent check or an exception. ``correct``
is false when any op failed for another reason than its recorded known
defect. ``--workload all`` runs every workload in turn, each with its
own result line.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"

MIN_PASSES = 3  # plain passes per end-to-end run
SETUP_SAMPLES = 9  # set-up timings per end-to-end run at least, passes included
# Wall seconds of one plain pass (start-up, set-up, ops and checks, the
# run's extra set-ups shared out) on a shared 2-vCPU Intel Xeon virtual
# machine under its usual load, where ops took 1.5-1.8 times their
# reference seconds (search 2.1-3.2 s, certify 9-12 s); a traced pass
# takes about 1.3 times as long. A run of ``--seconds`` makes
# round(seconds / PASS_S) passes, so it lasts about that long there.
PASS_S = {"paper": 8.5, "search": 2.4, "certify": 9.5}
TRACED_PASS_FACTOR = 1.3
RUN_LIMIT_S = 170  # a run must end within 180 s
UNMEASURED = -1
# Seeds kept back for confirming a claimed gain: a change is written and
# tuned on other seeds, then its claim must hold on these. paper has no
# random input.
CONFIRM_SEEDS = {"search": 1_000_003, "certify": 1_000_033}


class BenchError(Exception):
    pass


def _commit() -> str:
    """The checkout's HEAD, marked ``-dirty`` when tracked files differ from it."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    git = ["git", "--git-dir", str(ROOT / ".git"), "--work-tree", str(ROOT)]
    try:
        head = subprocess.run(git + ["rev-parse", "--short=12", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
        changed = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                 capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git failed)"
    return head + ("-dirty" if changed else "")


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PEBBLE_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_pass(workload: str, inputs: str, mode: str, deadline: float) -> dict:
    """One fresh interpreter; returns its report plus ``setup_s``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--input", inputs,
           "--mode", mode, "--src", str(SRC)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {inputs} ({mode}) ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass {inputs} ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    wall = report["setup_done_at"] - spawned
    report["setup_s"] = min(wall, report["setup_cpu_s"]) / report["setup_slowdown"]
    return report


def _rounds(seconds: float, round_s: float, minimum: int) -> int:
    """How many rounds of about ``round_s`` seconds fill ``seconds``."""
    return max(minimum, round(seconds / round_s))


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


WALL, CPU = 1, 2  # columns of a pass's ``op_s`` rows: [name, wall s, CPU s]


def _per_op(passes: list[dict], column: int) -> list[tuple[str, float]]:
    """Each op's name and median time over the passes, in op order."""
    names = [row[0] for row in passes[0]["op_s"]]
    if any([row[0] for row in p["op_s"]] != names for p in passes):
        raise BenchError("passes of one workload ran different ops")
    return [(name, statistics.median(p["op_s"][j][column] for p in passes)) for j, name in enumerate(names)]


def _total(ops: list[tuple[str, float]]) -> float:
    return sum(seconds for _, seconds in ops)


def measure_end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    count = _rounds(seconds, PASS_S[workload], MIN_PASSES)
    passes = [run_pass(workload, f"{seed}:{i}", "plain", deadline) for i in range(count)]
    setups = [p["setup_s"] for p in passes]
    for i in range(SETUP_SAMPLES - len(setups)):
        setups.append(run_pass(workload, f"{seed}:{i}", "setup", deadline)["setup_s"])
    wall = _per_op(passes, WALL)
    metrics = {
        "run_s": _total(wall),
        "max_op_s": max(seconds for _, seconds in wall),
        "cpu_s": _total(_per_op(passes, CPU)),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }
    notes = [f"{len(passes)} passes, {len(setups)} set-ups",
             "measured op seconds per pass " + " ".join(f"{p['wall_s']:.3f}" for p in passes),
             "in reference seconds " + " ".join(f"{sum(row[WALL] for row in p['op_s']):.3f}" for p in passes)]
    return passes, metrics, notes


def measure_layers(workload: str, seed: int, seconds: float, deadline: float):
    def pair(i):
        inputs = f"{seed}:{i}"
        return run_pass(workload, inputs, "plain", deadline), run_pass(workload, inputs, "trace", deadline)

    count = _rounds(seconds, PASS_S[workload] * (1 + TRACED_PASS_FACTOR), 1)
    pairs = [pair(i) for i in range(count)]
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = {name: _median(t["layers"][name] for t in traced) for name in traced[0]["layers"]}
    plain_wall = _per_op(plain, WALL)
    if workload == "paper":
        metrics.update((f"cli.target.{name}.s", seconds) for name, seconds in plain_wall)
    metrics["trace.overhead_s"] = _total(_per_op(traced, WALL)) - _total(plain_wall)
    notes = [f"{len(pairs)} plain/traced pairs"]
    return plain + traced, metrics, notes


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    measure = measure_layers if trace else measure_end_to_end
    passes, measured, notes = measure(workload, seed, seconds, time.monotonic() + RUN_LIMIT_S)
    declared = _declared()["per_layer" if trace else "end_to_end"]

    print(f"# workload={workload} seed={seed} trace={int(trace)} python={sys.version.split()[0]} "
          f"nproc={os.cpu_count()} commit={_commit()} confirm_seed={CONFIRM_SEEDS.get(workload, 'none')} "
          f"({'; '.join(notes)})")
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name not in measured and not name.startswith("cli.target."):
            raise BenchError(f"BENCHMARK.json names {name!r}, which the benchmark does not measure")
        value = measured.get(name)
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        print(f"{name:<48} {shown}")
        metrics[name] = {"value": UNMEASURED if value is None else value, "unit": unit}

    unexpected = [u for p in passes for u in p["unexpected"]]
    known = sum(p["known_defects"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"{'ops_attempted':<48} {attempted} count")
    print(f"{'ops_failed':<48} {failed} count" + (
        f" ({known} of them the known RecursionError on deep paths, ROADMAP item 3)" if known else ""))
    for problem in sorted(set(unexpected)):
        print(f"FAILED {problem}")
    return {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    names = tuple(w["name"] for w in _declared()["workloads"])
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=_declared()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pebbling" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'pebbling'}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(SRC / "pebbling", quiet=1) or not compileall.compile_dir(BENCH, quiet=1):
        print("bench: byte-compiling the sources failed", file=sys.stderr)
        return 2

    workloads = names if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
