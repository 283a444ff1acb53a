"""One pass of one workload in a fresh interpreter.

Started by ``run.py``, never side by side with another pass. It builds
the workload's inputs (set-up), runs every op (the timed region), then
checks every answer, and prints one JSON object as its last line:

    PYTHONPATH=src python3 bench/worker.py --workload search --input 7:0 --src src

``--mode setup`` stops after set-up; ``--mode trace`` wraps the package's
public functions and adds per-layer figures.

A pass pins itself to one CPU, the highest-numbered one it may use: on
a shared 2-CPU host, a pass that the scheduler moved between CPUs
varied 6.6-8.9 s, one pinned 7.5-7.9 s. The workloads are
single-threaded, so the pin takes no parallelism away.

Every time the pass reports is in reference seconds. On a shared host,
load from other tenants slows one CPU 1.5-3 times for spells of one to
ten seconds, and at times keeps the pass off the CPU for half of a
whole run. So an op's time is the smaller of its wall and CPU times
(for a single-threaded op, its wall time less the time it was not
running), divided by the slowdown that a speed probe, run right after
set-up and after every op, shows against ``PROBE_REF_S``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# About the speed probe's time on an idle 2-vCPU Intel Xeon virtual
# machine (lower quartile 1.22-1.24 ms over 1500 probes), so that a
# reference second is about a second there.
PROBE_REF_S = 1.25e-3


def _probe_s() -> float:
    """Fastest of three runs of a fixed loop outside the package, in CPU seconds.

    The loop builds small tuples and updates a dict with them, the kind
    of work the solver's memo does, so that contention slows both alike;
    no change to the package can move it.
    """
    best = float("inf")
    gc.disable()  # a collection would time the package's heap, not the CPU
    try:
        for _ in range(3):
            start = time.thread_time()
            memo: dict[tuple, int] = {}
            for i in range(4000):
                key = (i % 7, i % 5, i % 3, i % 11, i % 2, i % 13)
                memo[key] = memo.get(key, 0) + 1
            best = min(best, time.thread_time() - start)
    finally:
        gc.enable()
    return best


def _peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--input", required=True, help="seed of this pass's inputs")
    parser.add_argument("--mode", choices=("plain", "trace", "setup"), default="plain")
    parser.add_argument("--src", required=True, help="the package source the pass must import")
    args = parser.parse_args()
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import pebbling

    if Path(pebbling.__file__).resolve().parent.parent != Path(args.src).resolve():
        print(f"imported pebbling from {pebbling.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.input}"))
    setup_done, setup_cpu = time.monotonic(), _cpu_seconds()
    probes = [_probe_s()]
    setup = {"setup_done_at": setup_done, "setup_cpu_s": setup_cpu, "setup_slowdown": probes[0] / PROBE_REF_S}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    outcomes = []
    clock = time.perf_counter
    for op in ops:
        start, cpu = clock(), _cpu_seconds()
        try:
            result = tracer.op(op.name, op.call) if tracer else op.call()
            error = None
        except Exception as exc:  # every failure is counted, none ends the pass
            result, error = None, exc
        outcomes.append((clock() - start, _cpu_seconds() - cpu, result, error))
        probes.append(_probe_s())
    # an op's slowdown: the mean of the probes on either side of it
    slowdowns = [(before + after) / 2 / PROBE_REF_S for before, after in zip(probes, probes[1:])]

    failures, known = [], 0
    for op, (_, _, result, error) in zip(ops, outcomes):
        if error is not None:
            if op.known_defect is not None and isinstance(error, op.known_defect):
                known += 1
            else:
                failures.append(f"{op.name}: {type(error).__name__}: {error}")
            continue
        problem = op.check(result)
        if problem:
            failures.append(f"{op.name}: {problem}")

    report = {
        **setup,
        "wall_s": sum(wall for wall, _, _, _ in outcomes),
        "op_s": [
            [op.name, min(wall, cpu) / slow, cpu / slow]
            for op, (wall, cpu, _, _), slow in zip(ops, outcomes, slowdowns)
        ],
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": len(ops),
        "failed": len(failures) + known,
        "known_defects": known,
        "unexpected": failures,
    }
    if tracer:
        report["layers"] = tracer.layer_metrics(probes[0] / PROBE_REF_S, slowdowns)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
