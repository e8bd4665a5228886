#!/usr/bin/env python3
"""Run a fixed battery of ``pdethick`` commands and keep everything they leave.

Each command runs as ``python -m pdethick.cli`` in its own process with
``OPENBLAS_NUM_THREADS=1``.  Its output files, stdout, stderr and exit code
land in OUTDIR as ``<name>.<suffix>``, ``<name>.stdout``, ``<name>.stderr``
and ``<name>.exit``.  Wherever a command echoes a path, OUTDIR is replaced by
``<OUTDIR>``, so two runs compare with ``diff -r``.  ``PYTHONPATH`` selects
the checkout whose ``pdethick`` runs; comparing a run over one ``src/`` with
a run over another checks that a change keeps every output byte-identical.

Usage:  PYTHONPATH=src python scripts/cli_outputs.py OUTDIR
"""

import os
import subprocess
import sys
from pathlib import Path

SHAPES = {
    "interval-whole": ["--fl", "0", "--fr", "1"],
    "interval-general": ["--fl", "0", "--fr", "1", "--bl", "-1", "--br", "2"],
    "band-whole": ["--fl", "0", "--fr", "1", "--L", "1"],
    "band-general": [
        "--fl", "0", "--fr", "1", "--bl", "-0.5", "--br", "1.5", "--br-cos-amp", "0.1", "--L", "1",
    ],
    "annulus-whole": ["--fl", "1", "--fr", "2"],
    "annulus-general": ["--fl", "1", "--fr", "2", "--br", "2.5"],
}

# diffusion parameter and cells across the shape of each family's solve
SOLVES = {
    "interval-whole": ("0.04", "32"),
    "interval-general": ("0.04", "32"),
    "band-whole": ("0.04", "16"),
    "band-general": ("0.02", "16"),
    "annulus-whole": ("0.04", "64"),
    "annulus-general": ("0.04", "10"),
}


def _shape(family):
    return ["--family", family, *SHAPES[family]]


def _solve(family, a, cells, *extra):
    return [
        "solve", *_shape(family), *extra, "--a", a, "--cells", cells,
        "--out", "@field.csv", "--thickness-out", "@thickness.csv", "--matrix-out", "@matrix.txt",
    ]


# (name, arguments); an argument "@<suffix>" is the output file OUTDIR/<name>.<suffix>
COMMANDS = (
    [(f"analytic-{f}", ["analytic", *_shape(f), "--a", "0.01"]) for f in SHAPES]
    + [(f"analytic-{f}-pretty", ["analytic", *_shape(f), "--a", "0.01", "--pretty"]) for f in SHAPES]
    + [(f"solve-{f}", _solve(f, *SOLVES[f])) for f in SHAPES]
    + [
        # b_l = -0.95 leaves Outside cells at the left end
        ("solve-interval-outside", _solve("interval-general", "0.04", "10", "--bl", "-0.95")),
        # above 600 free unknowns, so these reach the 1D multigrid hierarchy
        ("solve-annulus-whole-fine", _solve("annulus-whole", "0.04", "256")),
        ("solve-interval-whole-fine", _solve("interval-whole", "0.04", "128")),
        # above 600 free unknowns per component: 2D multigrid on periodic grids, with
        # Outside cells on the wavy band and nx = 4 cells along the period on the narrow ring
        ("solve-band-general-fine", _solve("band-general", "0.02", "32")),
        ("solve-band-narrow", _solve("band-whole", "0.04", "16", "--L", "0.25")),
        ("oracle-interval", ["oracle", *_shape("interval-whole"), "--cells", "50", "--out", "@thickness.csv"]),
        ("oracle-wavy-band", ["oracle", *_shape("band-general"), "--cells", "16", "--out", "@thickness.csv"]),
        ("oracle-annulus", ["oracle", *_shape("annulus-whole"), "--cells", "20", "--out", "@thickness.csv"]),
        # the shape lies within h of both grid ends, so inscribed-ball windows clip at both
        (
            "oracle-interval-general",
            ["oracle", "--family", "interval-general", "--fl", "0", "--fr", "1", "--bl", "-0.01",
             "--br", "1.01", "--cells", "50", "--out", "@thickness.csv"],
        ),
        # nx = 4 cells along the period and reach up to 8: windows wrap more than once
        (
            "oracle-band-narrow",
            ["oracle", "--family", "band-whole", "--fl", "0", "--fr", "1", "--L", "0.25",
             "--cells", "16", "--out", "@thickness.csv"],
        ),
        (
            "sweep-interval",
            ["sweep", *_shape("interval-whole"), "--a-list", "1e-4,1e-3,1e-2,1e-1",
             "--json", "@report.json", "--csv", "@report.csv"],
        ),
        (
            "sweep-wavy-band",
            ["sweep", *_shape("band-general"), "--a-list", "0.1,0.02,0.004,0.001",
             "--json", "@report.json", "--csv", "@report.csv"],
        ),
        ("verify-default", ["verify", "--json", "@report.json", "--csv", "@report.csv"]),
        ("verify-default-pretty", ["verify", "--pretty"]),
        ("verify-analytic-pretty", ["verify", "--suite", "analytic", "--pretty"]),
        ("missing-bl", ["analytic", "--family", "interval-general", "--fl", "0", "--fr", "1", "--br", "2", "--a", "0.01"]),
        ("missing-L", ["analytic", "--family", "band-whole", "--fl", "0", "--fr", "1", "--a", "0.01"]),
        ("missing-br", ["analytic", "--family", "annulus-general", "--fl", "1", "--fr", "2", "--a", "0.01"]),
        ("missing-a", ["analytic", *_shape("annulus-whole")]),
        ("bad-cells", ["solve", *_shape("annulus-general"), "--a", "0.04", "--cells", "1", "--out", "@field.csv"]),
        ("bad-cells-zero", ["solve", *_shape("interval-whole"), "--a", "0.04", "--cells", "0", "--out", "@field.csv"]),
        # the radial grid's refusals: f_l = 1 within 10 h of the axis at h = 1, and
        # f_l = 0.3 off the nodes at h = 1/64
        (
            "bad-radial-axis",
            ["solve", *_shape("annulus-whole"), "--a", "0.04", "--cells", "1", "--out", "@field.csv"],
        ),
        (
            "bad-radial-inner",
            ["solve", "--family", "annulus-whole", "--fl", "0.3", "--fr", "1.3", "--a", "0.04",
             "--cells", "64", "--out", "@field.csv"],
        ),
        ("bad-cells-negative", ["solve", *_shape("interval-whole"), "--a", "0.04", "--cells", "-4", "--out", "@field.csv"]),
        # a that is not positive and finite, or a NaN shape number, exits 2 before any grid
        ("bad-a-nan", ["solve", *_shape("interval-whole"), "--a", "nan", "--cells", "64", "--out", "@field.csv"]),
        ("bad-a-negative", ["solve", *_shape("annulus-whole"), "--a", "-1", "--cells", "64", "--out", "@field.csv"]),
        ("bad-a-list-nan", ["sweep", *_shape("annulus-general"), "--a-list", "1,0.1,0.01,nan"]),
        ("bad-fl-nan", ["analytic", "--family", "interval-whole", "--fl", "nan", "--fr", "1", "--a", "0.04"]),
        # the requested spacing T/cells = 0.5 is coarser than the grid's L/nx = 0.25
        (
            "oracle-band-coarse",
            ["oracle", *_shape("band-whole"), "--cells", "2", "--out", "@thickness.csv"],
        ),
        ("bad-out-dir", ["oracle", *_shape("interval-whole"), "--cells", "8", "--out", "@missing/thickness.csv"]),
    ]
)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    for name, command in COMMANDS:
        cli_args = [str(out / f"{name}.{arg[1:]}") if arg.startswith("@") else arg for arg in command]
        proc = subprocess.run(
            [sys.executable, "-m", "pdethick.cli", *cli_args], capture_output=True, text=True, env=env
        )
        for suffix, text in (("stdout", proc.stdout), ("stderr", proc.stderr), ("exit", f"{proc.returncode}\n")):
            (out / f"{name}.{suffix}").write_text(text.replace(str(out), "<OUTDIR>"))
        print(f"{name:32s} exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
