#!/usr/bin/env python3
"""Plant known faults, one at a time, and check that tier-1 catches each.

Many of the down-set builder's shortcuts fail safe: a wrong one often
falls back to exact work, so every verdict still holds and only the
counts of work change. Each entry below is (file, old text, new text,
reason); a fault of several edits in one file gives old and new as
tuples of the same length. The script copies the tree to a temporary
directory once, applies each fault to it in turn (each old text must
occur exactly once), runs tier-1 with ``-x`` and a per-fault timeout, and
restores the file. A fault that tier-1 passes survives and fails the
script; a stale entry fails it too. A timeout counts as caught and is
reported. Tier-1 itself must pass on the unfaulted tree.

Usage: python scripts/planted_faults.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 60
BUILDER, SOLVER = "src/pebbling/pebbling_number.py", "src/pebbling/solver.py"

FAULTS = [
    # the floor decides run ends and maximality
    (BUILDER, ("chain(reps.items(), ends if up else ())", "        if not up:\n            # a run's last member"),
     ("chain(reps.items(), ends)", "        if False:\n            # a run's last member"), "run-end rule switched off"),
    (BUILDER, "walk = top if nxt_up else ()", "walk = top", "membership walk on every level, as the pass walked before"),
    (BUILDER, "lo, floored = ok, False", "lo, floored = ok, floored and ok == lo", "image bound tying the floor bound counted as floor-bound"),
    (BUILDER, "floored = lo < cap_lo", "floored = lo <= cap_lo", "cap-bound end counted as floor-bound"),
    (BUILDER, "for y in vectors))", "for y in vectors))[:1]", "Pareto list cut to its lightest vector"),
    # one floor construction in the solver
    (SOLVER, "limit.bit_length() + n.bit_length()", "limit.bit_length() + 1", "floor lanes without the bitlen(n) guard bits"),
    (SOLVER, "lanes, ((1 << top) - limit - 1) * spread,", "lanes, 0,", "_base left 0"),
    # the two-pebble test and the memo's proof records
    (BUILDER, "((2 << dist[v]) - 2)", "((2 << dist[v]) - 4)", "twos without the bit above each field's lowest"),
    (SOLVER, "memo[key] = result = record[u][v]", "memo[key] = result", "unwind stores the child's record, not the move to it"),
    # the staircase query
    (BUILDER, ("from bisect import bisect_right", "i = bisect_right(light0,"),
     ("from bisect import bisect_left", "i = bisect_left(light0,"), "bisect_left used for bisect_right"),
    (BUILDER, "if not phi + light[i - 1] & high:", "if not phi + light[0] & high:", "the prefix's first entry tested instead of its last"),
    (BUILDER, "walk = top if nxt_up else ()", "walk = ()", "the membership walk dropped"),
    (BUILDER, "limit0 - (phi & mask0)", "limit0 - (phi >> mask0.bit_length() & mask0)", "lane 1's slack bisected against the lane-0 weights"),
    # one limit check and one early-end handler (a dropped deadline test is
    # caught only by a run of several minutes, past the per-fault timeout)
    (SOLVER, "if nodes > self._node_cap:", "if nodes > self._node_cap + 1:", "the node test one node late"),
    (BUILDER, "exc.pi_lower = levels", "exc.pi_lower = exc.pi_lower", "the early-end handler leaving pi_lower unset"),
    # runs along every vertex
    (BUILDER, "if ((q + j * u_v) * spread", "if ((q + j * u0) * spread", "image bound stepped by v0's unit, not v's"),
    (BUILDER, "for sl, ml, limit, w in floor_at[v]:", "for sl, ml, limit, w in floor_at[v0]:", "floor-lane bound with v0's weights"),
    (BUILDER, "(*along[v], size + 1 + lo,", "(*along[v], size + 2 + lo,", "a run along a vertex other than v0 one member too long"),
]


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        for path, old, new, reason in FAULTS:
            target = tree / path
            original = target.read_text(encoding="utf-8")
            text = original
            for o, n in zip(*(x if isinstance(x, tuple) else (x,) for x in (old, new))):
                if text.count(o) != 1:
                    print(f"STALE {reason}: {o!r} occurs {text.count(o)} times in {path}")
                    return 1
                text = text.replace(o, n)
            target.write_text(text, encoding="utf-8")
            start = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                    cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                )
                lines = proc.stdout.splitlines()
                first = next((x for x in lines if x.startswith(("FAILED", "ERROR"))), lines[-1] if lines else "")
                verdict = "SURVIVED" if proc.returncode == 0 else "caught"
            except subprocess.TimeoutExpired:
                first, verdict = f"timed out after {TIMEOUT_S} s", "caught"
            finally:
                target.write_text(original, encoding="utf-8")
            survived += verdict == "SURVIVED"
            print(f"{verdict} in {time.monotonic() - start:.1f} s: {reason}: {first}", flush=True)
    print(f"{len(FAULTS) - survived} of {len(FAULTS)} planted faults caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
