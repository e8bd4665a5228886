"""pdethick benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload verify-default|annulus-box|wavy-band-sweep \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` reports the per-layer metrics from spans
recorded around each module's public functions, plus the tracing overhead.
Readable lines come first; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``failed /
attempted`` is the ``failed_frac`` the README describes.

Exit status is 2, with no result line, when the checkout has no program or a
workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

#: fresh interpreters started per run to time set-up; the median is reported
SETUP_REPEATS = 5

#: every process a run starts must end within this many seconds of its start
RUN_TIMEOUT_S = 150.0

#: percentiles considered for the tail of ``wall_s``
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def _env() -> dict:
    env = dict(os.environ)
    src = str(CHECKOUT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # results are byte-identical only at a fixed BLAS thread count
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    # cache bytecode, as an installed command does, so set-up is not compile time
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _read_text(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError:
        return ""


def machine() -> dict:
    """CPU model, processor count and cache sizes, as the kernel reports them."""
    model = next(
        (line.split(":", 1)[1].strip() for line in _read_text("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        "unknown",
    )
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else []:
        level = _read_text(str(index / "level")).strip()
        kind = _read_text(str(index / "type")).strip()
        if level in ("2", "3") and kind == "Unified":
            caches[f"L{level}"] = _read_text(str(index / "size")).strip()
    return {"cpu": model, "nproc": os.cpu_count(), **caches}


def tail_line(walls) -> str:
    """Median, sample count and the highest percentile with ten samples beyond it."""
    n = len(walls)
    ordered = sorted(walls)
    parts = [f"wall_s median {statistics.median(walls):.4f} s over {n} passes"]
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100.0) >= 10:
            k = min(n - 1, int(round(p / 100.0 * (n - 1))))
            parts.append(f"p{p:g} {ordered[k]:.4f} s")
            break
    else:
        parts.append("no percentile has ten samples beyond it")
    return "; ".join(parts)


def _call(cmd: list, env: dict, deadline: float) -> None:
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(cmd, env=env, check=True, timeout=timeout, stdout=subprocess.DEVNULL)


def time_setup(workload: str, seed, workdir: Path, env: dict, deadline: float) -> list:
    """Wall time of fresh interpreters that import pdethick and build the inputs."""
    cmd = _child_cmd(workload, seed, workdir) + ["--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _call(cmd, env, deadline)
        times.append(time.perf_counter() - t0)
    return times


def _child_cmd(workload: str, seed, workdir: Path) -> list:
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--workdir", str(workdir)]
    return cmd + ["--seed", str(seed)] if seed is not None else cmd


def run_pass(args, workdir: Path, env: dict, deadline: float, spans=None, pass_id=0) -> dict:
    """One pass in a fresh process; its record as ``workloads.one_pass`` made it."""
    result_path = workdir / "pass.json"
    cmd = _child_cmd(args.workload, args.seed, workdir) + ["--result", str(result_path)]
    if spans is not None:
        cmd += ["--spans", str(spans), "--pass-id", str(pass_id)]
    _call(cmd, env, deadline)
    with open(result_path) as handle:
        return json.load(handle)


def run_passes(args, workdir: Path, env: dict, deadline: float) -> tuple:
    """At least two passes, then more while the next still fits in ``--seconds``.

    Returns (untraced records, traced records).  With tracing on, a step is
    an untraced pass followed by a traced one, so both see the same machine
    state.
    """
    spans = HERE / ".work" / f"spans-{args.workload}.csv"
    if args.trace and spans.exists():
        spans.unlink()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        step_start = time.perf_counter()
        untraced.append(run_pass(args, workdir, env, deadline))
        if args.trace:
            traced.append(run_pass(args, workdir, env, deadline, spans, len(traced)))
        now = time.perf_counter()
        fits = now - start + (now - step_start) <= args.seconds
        if len(untraced) + len(traced) >= 2 and not fits:
            return untraced, traced


def count_failures(records: list) -> tuple:
    """(attempted, failed); a pass whose output bytes differ from the first fails whole."""
    first = records[0]["digest"]
    attempted = sum(r["attempted"] for r in records)
    failed = 0
    for r in records:
        if r["digest"] != first:
            print("perfbench: pass output bytes differ from the first pass", file=sys.stderr)
            failed += r["attempted"]
        else:
            failed += r["failed"]
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="verify-default seed (default harness.DEFAULT_SEED); "
                             "the 2D workloads have fixed geometry and ignore it")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (CHECKOUT / "src" / "pdethick" / "__init__.py").is_file():
        print(f"perfbench: no pdethick sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2

    env = _env()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else time_setup(args.workload, args.seed, workdir, env, deadline)
        untraced, traced = run_passes(args, workdir, env, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = count_failures(untraced + traced)
    walls = [r["wall"] for r in untraced]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    host = machine()
    print("env " + json.dumps({**untraced[0]["env"], **host}))
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(tail_line(walls))
    print("passes " + " ".join(f"{w:.4f}" for w in walls))
    if args.trace:
        from spans import PER_LAYER_METRICS

        traced_walls = [r["wall"] for r in traced]
        layers = {m: statistics.median(r["layers"][m] for r in traced)
                  for m in PER_LAYER_METRICS if m != "trace.overhead_s"}
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        print("traced passes " + " ".join(f"{w:.4f}" for w in traced_walls))
        print(f"solver.matrix_mb {layers['solver.matrix_mb']:.4f} MiB against L3 {host.get('L3', 'unknown')}")
        metrics = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER_METRICS.items()}
    else:
        print(f"setup_s median {statistics.median(setup):.4f} s over {len(setup)} fresh interpreters")
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced), "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
