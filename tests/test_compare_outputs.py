import pathlib
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def _compare(tmp_path, left, right):
    for side, files in (("a", left), ("b", right)):
        (tmp_path / side).mkdir()
        for name, text in files.items():
            (tmp_path / side / name).write_text(text)
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "a"), str(tmp_path / "b")], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout.splitlines()


def test_numeric_moves_report_the_largest_changes(tmp_path):
    same = {"run.exit": "0\n", "run.stderr": ""}
    left = {**same, "run.csv": "x,s\n0.5,1.0000000000000000\n1.5,2e-3\n", "k0_scaled.json": '{"n": 3}\n'}
    right = {**same, "run.csv": "x,s\n0.5,1.0000000002000000\n1.5,3e-3\n", "k0_scaled.json": '{"n": 3}\n'}
    code, out = _compare(tmp_path, left, right)
    assert code == 0
    assert out[0] == "run.csv: 2 numbers moved, largest absolute 0.001 (line 3), largest relative 0.333 (line 3)"
    assert out[-1].startswith("1 of 4 files differ, 0 non-numerically; largest absolute change 0.001 (run.csv)")


def test_exit_codes_text_and_missing_files_are_non_numeric(tmp_path):
    left = {"run.exit": "0\n", "check.txt": "case pass 1.0\n", "gone.csv": "1\n", "nan.csv": "1.5\n"}
    right = {"run.exit": "2\n", "check.txt": "case FAIL 1.0\n", "nan.csv": "nan\n"}
    code, out = _compare(tmp_path, left, right)
    assert code == 1
    assert "run.exit: non-numeric: line 1: '0' -> '2'" in out
    assert "check.txt: non-numeric: line 1: 'case pass 1.0' -> 'case FAIL 1.0'" in out
    assert any(line.startswith("gone.csv: non-numeric: only in ") for line in out)
    assert "nan.csv: non-numeric: line 1: '1.5' -> 'nan'" in out


def test_identical_directories(tmp_path):
    files = {"run.exit": "0\n", "run.csv": "1.25\n"}
    code, out = _compare(tmp_path, files, files)
    assert code == 0
    assert out == [
        "0 of 2 files differ, 0 non-numerically; largest absolute change 0 (-), largest relative 0 (-),"
        " absolute floor 1e-10"
    ]


def test_values_near_zero_are_measured_against_the_floor(tmp_path):
    # a field component that is 0 in exact arithmetic moves from 1e-16 to -2e-16:
    # relative to itself a change of 3, against the 1e-10 floor one of 3e-6
    left = {"run.csv": "x,s\n0.5,1e-16\n1.5,0.25\n"}
    right = {"run.csv": "x,s\n0.5,-2e-16\n1.5,0.25000000000000006\n"}
    code, out = _compare(tmp_path, left, right)
    assert code == 0
    assert out[0] == "run.csv: 2 numbers moved, largest absolute 3e-16 (line 2), largest relative 3e-06 (line 2)"
    assert out[-1].endswith("largest relative 3e-06 (run.csv), absolute floor 1e-10")
