import importlib.util
import pathlib

import pdethick

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cli_outputs.py"


def _battery():
    spec = importlib.util.spec_from_file_location("cli_outputs", SCRIPT)
    battery = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(battery)
    return battery


def test_exit_code_off_the_promise_of_its_name_exits_1(monkeypatch, tmp_path, capsys):
    # the commands run in their own processes, on this checkout's package
    monkeypatch.setenv("PYTHONPATH", str(pathlib.Path(pdethick.__file__).parents[1]))
    battery = _battery()
    no_a = ["analytic", "--family", "interval-whole", "--fl", "0", "--fr", "1"]
    monkeypatch.setattr(
        battery, "COMMANDS", [("missing-a", no_a), ("analytic-no-a", no_a), ("bad-a", [*no_a, "--a", "0.01"])]
    )
    assert battery.main([str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "analytic-no-a: exit code breaks the promise of its name",
        "bad-a: exit code breaks the promise of its name",
    ]
    assert [(tmp_path / f"{name}.exit").read_text() for name in ("missing-a", "analytic-no-a", "bad-a")] == [
        "2\n", "2\n", "0\n",
    ]
    monkeypatch.setattr(battery, "COMMANDS", [("missing-a", no_a)])
    assert battery.main([str(tmp_path)]) == 0


def test_every_command_has_its_own_name():
    # a command's files are named after it, so two commands of one name would overwrite them
    names = [name for name, *_ in _battery().COMMANDS]
    assert len(names) == len(set(names))
