#!/usr/bin/env python3
"""Run every bundled reproduction target and tabulate the RESULT lines.

The 14 default targets, brute-force Q4 (0.1 s) and the 16-arm
lollipop (thm3-n3, 0.1-0.2 s) included, took 0.35-0.41 s of wall time
per run of this script over three runs on a shared 2-vCPU Xeon virtual
machine. Pass --allow-long to also run the three long targets: Theorem 1
on C11 (thm1-k5), which took a further 0.3-0.6 s there, the dimension-5
reciprocal weights (conj-n5), a further 3.5-4.5 s, and Theorem 3 at
n = 4 (thm3-n4), a further 61 s (63 s before runs went along every
vertex, back to back on the same machine); under a node or wall-clock
cap each may end with exit code 3.

Each row also shows the peak resident set size of this process so far.
Run alone, q4-bruteforce peaked at 24 MB, thm3-n3 at 18 MB, thm1-k5 at
30 MB, conj-n5 at 201 MB and thm3-n4 at 190 MB; in one --allow-long run
the process peaked at 33 MB after thm1-k5, 208 MB after conj-n5 and
225 MB after thm3-n4.

Usage:
    python scripts/reproduce_results.py [--allow-long]
"""

import argparse
import contextlib
import io
import resource
import sys
import time
from pathlib import Path

try:
    from pebbling.cli import DEFAULT_TARGETS, LONG_TARGETS, main
except ModuleNotFoundError:
    # a plain checkout: the package lives in the repository's src/
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from pebbling.cli import DEFAULT_TARGETS, LONG_TARGETS, main


def peak_rss_mb():
    """The peak resident set size of this process so far, in MB."""
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_target(target, allow_long):
    argv = ["paper", target]
    if allow_long:
        argv.append("--allow-long")
    buffer = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    elapsed = time.monotonic() - start
    results = [line[len("RESULT ") :] for line in buffer.getvalue().splitlines() if line.startswith("RESULT ")]
    return code, elapsed, results


def main_script():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--allow-long", action="store_true")
    args = parser.parse_args()

    targets = list(DEFAULT_TARGETS) + (list(LONG_TARGETS) if args.allow_long else [])
    failures = 0
    print(f"{'target':<14} {'exit':<5} {'time':>8} {'peak RSS':>9}  result")
    for target in targets:
        code, elapsed, results = run_target(target, args.allow_long)
        if code != 0:
            failures += 1
        summary = "; ".join(results) if results else "(no RESULT lines)"
        print(f"{target:<14} {code:<5} {elapsed:>7.1f}s {peak_rss_mb():>6.0f} MB  {summary}")
    print(f"\n{len(targets) - failures}/{len(targets)} targets succeeded")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main_script())
