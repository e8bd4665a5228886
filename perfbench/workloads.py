"""Workload process: builds one workload's inputs, runs one timed pass, checks outputs.

``run.py`` starts one fresh process per pass, as a command-line user would;
it runs single threaded (``run.py`` pins the BLAS thread count to 1).

    python3 perfbench/workloads.py --workload NAME [--seed N] --workdir DIR \\
        --result FILE [--spans FILE --pass-id K]
    python3 perfbench/workloads.py --workload NAME [--seed N] --workdir DIR --setup-only

The pass writes the workload's output files into ``DIR``.  They are checked
from the outside (parsed back from disk) and hashed; ``run.py`` compares the
hashes of all passes in a run.  ``--spans`` turns tracing on for the pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import List

CHECKOUT = Path(__file__).resolve().parent.parent

class VerifyDefault:
    """``pdethick verify --json``: 13 checks over the 1D, radial and 2D solvers."""

    name = "verify-default"

    def __init__(self, seed, workdir: Path):
        from pdethick import harness

        self.harness = harness
        self.seed = harness.DEFAULT_SEED if seed is None else seed
        self.n_checks = len(harness.SUITES["default"])
        self.outputs = [workdir / "report.json"]

    def run(self) -> int:
        harness = self.harness
        report = harness.verify_theorems("default", self.seed)
        with open(self.outputs[0], "w") as handle:
            handle.write(harness.dumps_json(report.to_dict()))
            handle.write("\n")
        return 0

    def operations(self) -> int:
        return self.n_checks

    def failures(self, status: int) -> int:
        """One operation per check; the report must say ``passed: true``."""
        data = json.loads(self.outputs[0].read_text())
        checks = data["checks"]
        failed = sum(1 for c in checks if c["passed"] is not True)
        failed += max(0, self.n_checks - len(checks))
        if not failed and data["passed"] is not True:
            failed = 1
        return failed


class AnnulusBox:
    """One large 2D solve of the boxed annulus at small ``a``, with field CSVs."""

    name = "annulus-box"
    F_L, F_R, B_R, A, CELLS = 1.0, 2.0, 2.5, 0.005, 114

    def __init__(self, seed, workdir: Path):
        from pdethick import analytic, cli

        self.cli = cli
        self.outputs = [workdir / "field.csv", workdir / "thickness.csv"]
        self.argv = [
            "solve", "--family", "annulus-general",
            "--fl", str(self.F_L), "--fr", str(self.F_R), "--br", str(self.B_R),
            "--a", str(self.A), "--cells", str(self.CELLS),
            "--out", str(self.outputs[0]), "--thickness-out", str(self.outputs[1]),
        ]
        self.bound = analytic.annulus_general_bound(self.F_L, self.F_R, self.B_R, self.A)
        # the box [-b_r, b_r]^2 holds whole cells of h <= T / cells
        n_half = math.ceil(self.B_R * self.CELLS / (self.F_R - self.F_L) - 1e-9)
        self.nodes = (2 * n_half + 1) ** 2

    def run(self) -> int:
        return self.cli.parse_and_dispatch(self.argv)

    def operations(self) -> int:
        return 1

    def failures(self, status: int) -> int:
        """Exit 0, one field row per node, and the L2 envelope from the thickness CSV."""
        import numpy as np

        if status != 0:
            return 1
        with open(self.outputs[0], "rb") as handle:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 22), b"")) - 1
        if rows != self.nodes:
            print(f"annulus-box: {rows} field rows, expected {self.nodes}", file=sys.stderr)
            return 1
        table = np.loadtxt(self.outputs[1], delimiter=",", skiprows=1, usecols=(0, 2))
        T = self.F_R - self.F_L
        h = float(np.min(np.diff(np.unique(table[:, 0]))))
        l2 = math.sqrt(float(np.sum((table[:, 1] - 1.0 / T) ** 2)) * h * h)
        limit = self.bound + 2.0 * h / T**2
        if not l2 <= limit:
            print(f"annulus-box: L2 {l2} above {limit}", file=sys.stderr)
            return 1
        return 0


class WavyBandSweep:
    """``pdethick sweep`` of the wavy band over four ``a``: four 2D grid sizes."""

    name = "wavy-band-sweep"
    A_LIST = "0.1,0.02,0.004,0.001"
    SLOPE_WINDOW = (0.4, 0.6)

    def __init__(self, seed, workdir: Path):
        from pdethick import cli

        self.cli = cli
        self.outputs = [workdir / "sweep.json", workdir / "sweep.csv"]
        self.n_samples = len(self.A_LIST.split(","))
        self.argv = [
            "sweep", "--family", "band-general",
            "--fl", "0", "--fr", "1", "--bl", "-0.5", "--br", "1.5",
            "--br-cos-amp", "0.1", "--L", "1", "--a-list", self.A_LIST,
            "--json", str(self.outputs[0]), "--csv", str(self.outputs[1]),
        ]

    def run(self) -> int:
        return self.cli.parse_and_dispatch(self.argv)

    def operations(self) -> int:
        return 1 + self.n_samples

    def failures(self, status: int) -> int:
        """One operation for the command (exit 0, slope in window), one per sample."""
        if status != 0:
            return self.operations()
        data = json.loads(self.outputs[0].read_text())
        samples = data["samples"]
        failed = sum(1 for s in samples if s["passed"] is not True)
        failed += max(0, self.n_samples - len(samples))
        slope = data["slope"]
        lo, hi = self.SLOPE_WINDOW
        if slope is None or not lo <= slope <= hi:
            print(f"wavy-band-sweep: slope {slope} outside [{lo}, {hi}]", file=sys.stderr)
            failed += 1
        return failed


BUILDERS = {w.name: w for w in (VerifyDefault, AnnulusBox, WavyBandSweep)}
WORKLOADS = tuple(BUILDERS)


def _digest(paths: List[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 22), b""):
                h.update(chunk)
        h.update(b"\0")
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def one_pass(workload, tracer=None) -> dict:
    """Time one pass, then check its outputs from disk."""
    for path in workload.outputs:
        if path.exists():
            path.unlink()
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        status = workload.run()
    except Exception:
        traceback.print_exc()
        status = None
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    digest = None
    failed = workload.operations()
    if status is not None and all(p.exists() for p in workload.outputs):
        digest = _digest(workload.outputs)
        try:
            failed = workload.failures(status)
        except (OSError, ValueError, KeyError, TypeError):
            traceback.print_exc()
    return {
        "wall": wall,
        "digest": digest,
        "attempted": workload.operations(),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", help="JSON file for the pass record")
    parser.add_argument("--spans", help="with tracing on, append the spans to this CSV")
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import pdethick

    source = Path(pdethick.__file__).resolve()
    if CHECKOUT / "src" not in source.parents:
        print(f"pdethick imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    workload = BUILDERS[args.workload](args.seed, Path(args.workdir))
    if args.setup_only:
        return 0
    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer(pass_id=args.pass_id)
    record = one_pass(workload, tracer)
    record["env"] = environment()
    if tracer is not None:
        tracer.write_csv(args.spans)
        record["layers"] = tracer.metrics()
    with open(args.result, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
