#!/usr/bin/env python3
"""Print the worker timeline of one pooled ``verify_theorems("default")`` pass.

The pass runs in this fresh process, as ``pdethick verify`` does, and every
check runs in a forked worker.  Each check's worker process id, start and end
are recorded around ``harness._run_check`` (the workers inherit the wrapper)
and printed in start order, in seconds from the start of the pass.  Then each
worker's idle tail: the time from the end of its last check to the end of the
pass, which is how long it waits for the others.

Usage:  OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/verify_timeline.py

With BLAS unpinned the pool gets one worker per CPU divided by the BLAS
threads, often a single worker.  The exit status is 1 when the report does
not pass.
"""

import os
import sys
import tempfile
import time

from pdethick import harness

_run_check = harness._run_check
#: the file each timed check appends its line to, set before the pass starts
_LOG = ""


def _timed_run_check(name, seed):
    start = time.monotonic()
    check = _run_check(name, seed)
    end = time.monotonic()
    # one short write in append mode, so lines from several workers do not interleave
    with open(_LOG, "a") as log:
        log.write(f"{name} {os.getpid()} {start!r} {end!r}\n")
    return check


def main() -> int:
    global _LOG
    with tempfile.TemporaryDirectory() as tmp:
        _LOG = os.path.join(tmp, "timeline")
        harness._run_check = _timed_run_check
        try:
            t0 = time.monotonic()
            report = harness.verify_theorems("default")
            t1 = time.monotonic()
        finally:
            harness._run_check = _run_check
        with open(_LOG) as log:
            spans = [(name, int(pid), float(s) - t0, float(e) - t0) for name, pid, s, e in map(str.split, log)]
    spans.sort(key=lambda span: span[2])
    print(f"{'check':<26} {'process':>8} {'start_s':>8} {'end_s':>8} {'took_s':>8}")
    ends = {}
    for name, pid, start, end in spans:
        print(f"{name:<26} {pid:>8} {start:8.3f} {end:8.3f} {end - start:8.3f}")
        ends[pid] = max(end, ends.get(pid, 0.0))
    for pid, end in sorted(ends.items(), key=lambda item: item[1]):
        print(f"worker {pid}: last check ends {end:.3f} s, idle tail {t1 - t0 - end:.3f} s")
    print(f"pass {t1 - t0:.3f} s, {len(ends)} workers, passed {report.passed}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
