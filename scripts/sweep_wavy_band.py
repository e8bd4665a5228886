#!/usr/bin/env python3
"""Convergence study of the wavy-band L2 envelope as a -> 0.

Solves the 2D problem on the canonical wavy band (flat floor at -0.5,
ceiling 1.5 + 0.1 cos(2 pi x), margin 0.4) for a geometric sequence of
diffusion parameters at h = sqrt(a)/8, prints measured error vs theorem
envelope, and fits the convergence rate.  Writes plot-ready CSV if a path is
given.

Usage:  python scripts/sweep_wavy_band.py [out.csv]
"""

import sys

from pdethick import harness, solver


def main() -> int:
    shape = harness.canonical_wavy_band()
    a_values = [0.08, 0.04, 0.02, 0.01, 0.005, 0.0025]
    rows = []
    for a in a_values:
        res = harness.run_general_l2_case(shape, a)
        h = solver.problem_grid(shape, a, harness.target_h(a)).h
        rows.append((res, h))
        print(
            f"a={a:<8g} h={h:.5f}  measured={res.error:.5f}  "
            f"bound={res.bound:.5f}  slack={res.slack:.5f}  "
            f"{'ok' if res.passed else 'VIOLATED'}"
        )
    slope, intercept = harness.fit_rate([(r.a, r.error) for r, _ in rows])
    print(f"fitted rate: error ~ a^{slope:.3f}")
    if len(sys.argv) > 1:
        with open(sys.argv[1], "w") as handle:
            handle.write("a,h,measured_l2,bound,slack\n")
            for r, h in rows:
                handle.write(f"{r.a:.17g},{h:.17g},{r.error:.17g},{r.bound:.17g},{r.slack:.17g}\n")
        print(f"wrote {sys.argv[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
