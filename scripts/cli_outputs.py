#!/usr/bin/env python3
"""Run a fixed battery of ``pdethick`` commands and keep everything they leave.

Each command runs as ``python -m pdethick.cli`` in its own process, in the
caller's environment.  Its output files, stdout, stderr and exit code
land in OUTDIR as ``<name>.<suffix>``, ``<name>.stdout``, ``<name>.stderr``
and ``<name>.exit``; a command with a ``--config`` file finds it written there
as ``<name>.config.json`` before it runs.  Wherever a command echoes a path,
and in a config file, OUTDIR is replaced by ``<OUTDIR>`` once the command has
run, so two runs compare with ``diff -r``.  ``PYTHONPATH`` selects
the checkout whose ``pdethick`` runs; comparing a run over one ``src/`` with
a run over another checks that a change keeps every output byte-identical,
and runs at two ``OPENBLAS_NUM_THREADS`` settings check that the thread
count moves none.  A command's name promises its exit code: 2 for the
refusals ``bad-*``, ``missing-*`` and ``stray-*``, 0 for every other; the
script runs every command, then exits 1, naming each command whose exit
code breaks that promise.

Usage:  PYTHONPATH=src python scripts/cli_outputs.py OUTDIR
"""

import json
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


# (name, arguments[, config]); an argument or config value "@<suffix>" is the file
# OUTDIR/<name>.<suffix>, and "@config.json" the file that holds the config
COMMANDS = (
    [(f"analytic-{f}", ["analytic", *_shape(f), "--a", "0.01"]) for f in SHAPES]
    + [(f"analytic-{f}-pretty", ["analytic", *_shape(f), "--a", "0.01", "--pretty"]) for f in SHAPES]
    + [(f"solve-{f}", _solve(f, *SOLVES[f])) for f in SHAPES]
    + [
        # b_l = -0.95 leaves Outside cells at the left end
        ("solve-interval-outside", _solve("interval-general", "0.04", "10", "--bl", "-0.95")),
        # above solver._COARSEST_UNKNOWNS free unknowns, so these reach the 1D multigrid hierarchy
        ("solve-annulus-whole-fine", _solve("annulus-whole", "0.04", "256")),
        ("solve-interval-whole-fine", _solve("interval-whole", "0.04", "128")),
        # above solver._COARSEST_UNKNOWNS free unknowns per component: 2D multigrid on
        # periodic grids, with Outside cells on the wavy band and nx = 4 cells along the
        # period on the narrow ring
        ("solve-band-general-fine", _solve("band-general", "0.02", "32")),
        ("solve-band-narrow", _solve("band-whole", "0.04", "16", "--L", "0.25")),
        # the boxed annulus solves on its quadrant, whose own hierarchy has 3 levels
        # above a dense coarsest inverse of 156 free unknowns
        ("solve-annulus-general-fine", _solve("annulus-general", "0.01", "40")),
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
        # its report files match sweep-interval's byte for byte
        (
            "sweep-interval-config",
            ["sweep", "--config", "@config.json"],
            {"family": "interval-whole", "fl": 0, "fr": 1, "a_list": "1e-4,1e-3,1e-2,1e-1",
             "json": "@report.json", "csv": "@report.csv"},
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
        # shape flags the family does not take exit 2, naming them
        ("stray-bl", ["analytic", *_shape("interval-whole"), "--bl", "0.5", "--a", "0.01"]),
        ("stray-cos-amp", ["analytic", *_shape("band-whole"), "--br-cos-amp", "0.1", "--a", "0.01"]),
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
        # L = 0.3 at h = 1/16 gives h = L/5 = 0.06, so f_r = 1 lies off the nodes
        (
            "bad-band-period",
            ["solve", "--family", "band-whole", "--fl", "0", "--fr", "1", "--L", "0.3", "--a", "0.04",
             "--cells", "16", "--out", "@field.csv"],
        ),
        (
            "bad-config-cells",
            ["solve", *_shape("interval-whole"), "--a", "0.04", "--out", "@field.csv", "--config", "@config.json"],
            {"cells": 0},
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
        # one cell across bounds 1.02 apart leaves a line of 2 cells, which the oracle refuses
        (
            "bad-oracle-line-cells",
            ["oracle", "--family", "interval-general", "--fl", "0", "--fr", "1", "--bl", "-0.01",
             "--br", "1.01", "--cells", "1", "--out", "@thickness.csv"],
        ),
        ("bad-out-dir", ["oracle", *_shape("interval-whole"), "--cells", "8", "--out", "@missing/thickness.csv"]),
        # grids above their caps exit 2 before any grid array: 18e9 x 18e9 oracle cells, a
        # count that wraps in int64, and the 2.24e152 nodes of 28 sqrt(a) padding at a = 1e300
        ("bad-oracle-cap", ["oracle", *_shape("annulus-whole"), "--cells", "3000000000", "--out", "@thickness.csv"]),
        ("bad-solve-cap", ["solve", *_shape("interval-whole"), "--a", "1e300", "--cells", "4", "--out", "@field.csv"]),
    ]
)


#: the name prefixes of the commands that must exit 2; every other command must exit 0
REFUSALS = ("bad-", "missing-", "stray-")


def _resolve(arg, out, name):
    """An argument or config value "@<suffix>" as the path OUTDIR/<name>.<suffix>."""
    return str(out / f"{name}.{arg[1:]}") if isinstance(arg, str) and arg.startswith("@") else arg


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    broken = []
    for name, command, *config in COMMANDS:
        cfg = out / f"{name}.config.json"
        if config:
            cfg.write_text(json.dumps({key: _resolve(value, out, name) for key, value in config[0].items()}))
        cli_args = [_resolve(arg, out, name) for arg in command]
        proc = subprocess.run([sys.executable, "-m", "pdethick.cli", *cli_args], capture_output=True, text=True)
        for suffix, text in (("stdout", proc.stdout), ("stderr", proc.stderr), ("exit", f"{proc.returncode}\n")):
            (out / f"{name}.{suffix}").write_text(text.replace(str(out), "<OUTDIR>"))
        if config:
            cfg.write_text(cfg.read_text().replace(str(out), "<OUTDIR>"))
        print(f"{name:32s} exit {proc.returncode}")
        if proc.returncode != (2 if name.startswith(REFUSALS) else 0):
            broken.append(name)
    for name in broken:
        print(f"{name}: exit code breaks the promise of its name", file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
