import importlib.util
import os
import pathlib
import sys

from pdethick import harness

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "verify_timeline.py"


def test_timeline_of_a_small_pooled_pass(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("verify_timeline", SCRIPT)
    timeline = importlib.util.module_from_spec(spec)
    # the workers unpickle the timed wrapper by its module's name
    monkeypatch.setitem(sys.modules, "verify_timeline", timeline)
    spec.loader.exec_module(timeline)
    # one closed-form check and two short discrete checks, all run in the pool
    names = ["interval-whole-equality", "band-flat-reduction", "radial-cross-check"]
    monkeypatch.setitem(harness.SUITES, "default", names)
    assert timeline.main() == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {line.split()[0]: line.split()[1] for line in lines[1:4]}
    assert sorted(rows) == sorted(names)
    for name in names:
        assert rows[name].isdigit() and int(rows[name]) != os.getpid()
    assert any(line.startswith("worker ") and "idle tail" in line for line in lines)
    assert lines[-1].endswith("passed True")
    assert harness._run_check is timeline._run_check
