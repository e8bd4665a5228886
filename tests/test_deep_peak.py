import pathlib
import subprocess
import sys

import pdethick

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "deep_peak.py"


def test_one_cold_solve_prints_its_line(monkeypatch):
    # the solve runs in its own process, on this checkout's package
    monkeypatch.setenv("PYTHONPATH", str(pathlib.Path(pdethick.__file__).parents[1]))
    run = subprocess.run([sys.executable, str(SCRIPT), "0.04"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    fields = dict(item.split("=") for item in line.split())
    assert list(fields) == [
        "a", "nodes", "unknowns", "iterations", "seconds",
        "import_mib", "assemble_mib", "solve_mib", "divergence_mib", "norms_mib", "bytes_per_unknown",
    ]
    # h = sqrt(0.04) / 8 on the box [-2.5, 2.5]^2: 200 cells a side
    assert float(fields["a"]) == 0.04
    assert int(fields["nodes"]) == 201 * 201 and int(fields["unknowns"]) == 2 * 201 * 201
    assert 0 < int(fields["iterations"]) <= 100
    stages = ("import_mib", "assemble_mib", "solve_mib", "divergence_mib", "norms_mib")
    imported, assembled, solved, divided, peak = (float(fields[k]) for k in stages)
    # ru_maxrss after each stage: the process's peak so far, so it never falls
    assert 0 < imported <= assembled <= solved <= divided <= peak
    # from the unrounded peaks, each printed to 0.05 MiB
    per_unknown = (peak - imported) * 2**20 / int(fields["unknowns"])
    assert abs(float(fields["bytes_per_unknown"]) - per_unknown) <= 0.1 * 2**20 / int(fields["unknowns"]) + 0.05
    assert float(fields["seconds"]) > 0


def test_a_failed_run_exits_1(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(pathlib.Path(pdethick.__file__).parents[1]))
    run = subprocess.run([sys.executable, str(SCRIPT), "0.04", "0"], capture_output=True, text=True, timeout=120)
    # a = 0 has no grid; the run before it still prints its line
    assert run.returncode == 1 and len(run.stdout.splitlines()) == 1 and "GridError" in run.stderr
