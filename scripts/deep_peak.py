#!/usr/bin/env python3
"""Print the time and memory of one boxed-annulus L2 sample per ``a``, each
in a cold process.

Each ``a`` runs in a fresh Python process with BLAS pinned to one thread
(unless the environment already sets the thread counts): ``problem_grid``,
``assemble`` and ``solve_spd`` of the annulus ``(1, 2)`` in the box
``[-2.5, 2.5]^2`` at ``harness.target_h(a)``, folded onto a quarter of its
grid, then ``thickness.divergence``, ``inverse_thickness`` and
``error_norms`` as ``harness.run_general_l2_case`` runs them, each stage
freeing the one before.  Its line gives the nodes, the unknowns (two a
node), the CG iterations, the seconds from grid to field, and the
process's ``ru_maxrss`` in MiB after ``import pdethick``, after
``assemble``, after ``solve_spd``, after the divergence and after the
norms, and the bytes per unknown of the final peak above the import.

Usage:  PYTHONPATH=src python scripts/deep_peak.py 0.005 0.00125 6.25e-4 3.125e-4

The last of these, 10.3M unknowns, peaks near 0.35 GiB.  The exit status is 1
when any run fails.
"""

import os
import resource
import subprocess
import sys
import time


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(a: float) -> str:
    """The line of one solve at ``a``, in this process, which has not yet
    imported ``pdethick``."""
    from pdethick import harness, shapes, solver, thickness

    imported = _maxrss_mib()
    ann = shapes.annulus_general(1.0, 2.0, 2.5)
    start = time.perf_counter()
    grid = solver.problem_grid(ann, a, harness.target_h(a))
    system = solver.assemble(grid, ann, a)
    assembled = _maxrss_mib()
    field = solver.solve_spd(system)
    seconds = time.perf_counter() - start
    solved = _maxrss_mib()
    unknowns, iterations, classification = system.n, field.iterations, system.classification
    del system
    div = thickness.divergence(field)
    del field
    divided = _maxrss_mib()
    inv = thickness.inverse_thickness(div, a, classification)
    del div
    thickness.error_norms(inv, 1.0 / ann.thickness)
    peak = _maxrss_mib()
    return (
        f"a={a!r} nodes={unknowns // 2} unknowns={unknowns} iterations={iterations} "
        f"seconds={seconds:.3f} import_mib={imported:.1f} assemble_mib={assembled:.1f} "
        f"solve_mib={solved:.1f} divergence_mib={divided:.1f} norms_mib={peak:.1f} "
        f"bytes_per_unknown={(peak - imported) * 2**20 / unknowns:.1f}"
    )


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        print(run(float(argv[1])), flush=True)
        return 0
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    failed = 0
    for a in argv:
        failed |= subprocess.run([sys.executable, __file__, "--child", a], env=env).returncode != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
