import json
import math

import numpy as np
import pytest

from pdethick import analytic, harness
from pdethick.cli import parse_and_dispatch


def run(argv, capsys):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyticCommand:
    def test_interval_whole_record(self, capsys):
        code, out, _ = run(
            ["analytic", "--family", "interval-whole", "--fl", "0", "--fr", "1", "--a", "0.04"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["thickness_pde"] == pytest.approx(1.4, abs=1e-14)
        assert record["p_star"] == pytest.approx(2 / (0.2 * 1.4), rel=1e-14)

    def test_pretty_mode(self, capsys):
        code, out, _ = run(
            [
                "analytic", "--family", "interval-whole",
                "--fl", "0", "--fr", "1", "--a", "0.04", "--pretty",
            ],
            capsys,
        )
        assert code == 0
        assert "T^a = 1.4" in out

    def test_general_family_prints_envelope(self, capsys):
        code, out, _ = run(
            [
                "analytic", "--family", "annulus-general",
                "--fl", "1", "--fr", "2", "--br", "3", "--a", "0.01",
            ],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        assert record["l2_envelope"] == pytest.approx(
            analytic.annulus_general_bound(1, 2, 3, 0.01), rel=1e-15
        )


class TestConfigErrors:
    def test_bad_ordering_exits_2(self, capsys):
        code, _, err = run(
            ["analytic", "--family", "interval-whole", "--fl", "2", "--fr", "1", "--a", "0.1"],
            capsys,
        )
        assert code == 2
        assert "error" in err

    def test_missing_parameter_exits_2(self, capsys):
        code, _, err = run(
            ["analytic", "--family", "interval-whole", "--fl", "0", "--fr", "1"], capsys
        )
        assert code == 2
        assert "--a" in err

    @pytest.mark.parametrize(
        "family, given, missing",
        [
            ("interval-general", ["--br", "2"], "--bl"),
            ("interval-general", ["--bl", "-1"], "--br"),
            ("band-whole", [], "--L"),
            ("band-general", ["--bl", "-1", "--br", "2"], "--L"),
            ("band-general", ["--br", "2", "--L", "1"], "--bl"),
            ("band-general", [], "--bl"),
            ("annulus-general", [], "--br"),
        ],
    )
    def test_missing_family_flag_exits_2(self, capsys, family, given, missing):
        argv = ["analytic", "--family", family, "--fl", "1", "--fr", "1.5", *given, "--a", "0.01"]
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"pdethick: error: missing required parameter {missing}\n"

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(["analytic", "--nonsense", "1"], capsys)
        assert code == 2

    def test_unknown_family_exits_2(self, capsys):
        code, _, _ = run(
            ["analytic", "--family", "square", "--fl", "0", "--fr", "1", "--a", "1"], capsys
        )
        assert code == 2

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            [
                "solve", "--family", "interval-whole", "--fl", "0", "--fr", "1",
                "--a", "0.04", "--cells", "64", "--out", str(tmp_path / "no" / "dir" / "f.csv"),
            ],
            capsys,
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("cells, config_value", [("0", 0), ("-4", -4), ("2.5", 2.5), ("many", "many")])
    def test_cells_must_be_a_positive_integer(self, capsys, tmp_path, command, cells, config_value):
        argv = [
            command, "--family", "interval-whole", "--fl", "0", "--fr", "1",
            "--out", str(tmp_path / "f.csv"),
        ]
        if command == "solve":
            argv += ["--a", "0.04"]
        code, _, err = run([*argv, "--cells", cells], capsys)
        assert code == 2
        assert "--cells: expected a positive integer" in err
        assert not (tmp_path / "f.csv").exists()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cells": config_value}))
        code, _, err = run([*argv, "--config", str(cfg)], capsys)
        assert code == 2
        assert "'cells'" in err and "expected a positive integer" in err
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize(
        "shape, a, cells",
        [
            (["--family", "annulus-general", "--fl", "1", "--fr", "2", "--br", "2.5"], "inf", "32"),
            (["--family", "interval-whole", "--fl", "0", "--fr", "1"], "nan", "64"),
            (["--family", "interval-whole", "--fl", "0", "--fr", "1"], "-1", "8"),
            (["--family", "band-whole", "--fl", "0", "--fr", "1", "--L", "1"], "-1", "8"),
            (["--family", "annulus-whole", "--fl", "1", "--fr", "2"], "-1", "8"),
        ],
    )
    def test_solve_rejects_a_not_positive_and_finite(self, capsys, tmp_path, shape, a, cells):
        out = tmp_path / "f.csv"
        code, _, err = run(["solve", *shape, "--a", a, "--cells", cells, "--out", str(out)], capsys)
        assert code == 2
        assert f"need a finite a > 0, got {float(a)}" in err
        assert not out.exists()

    def test_sweep_rejects_nan_a(self, capsys):
        code, out, err = run(
            [
                "sweep", "--family", "annulus-general", "--fl", "1", "--fr", "2", "--br", "2.5",
                "--a-list", "0.1,0.01,0.001,nan",
            ],
            capsys,
        )
        assert code == 2
        assert "a values must be positive and finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--family", "interval-whole", "--fl", "nan", "--fr", "1", "--a", "0.04"], "f_l must be finite"),
            (
                ["--family", "annulus-general", "--fl", "1", "--fr", "2", "--br", "2.5", "--a", "nan"],
                "need a finite a > 0, got nan",
            ),
        ],
    )
    def test_analytic_rejects_nan(self, capsys, argv, message):
        code, out, err = run(["analytic", *argv], capsys)
        assert code == 2
        assert message in err
        assert out == ""


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "interval-whole", "fl": 0.0, "fr": 1.0, "a": 0.04}))
        code, out, _ = run(["analytic", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["thickness_pde"] == pytest.approx(1.4)
        # flag overrides the file value
        code, out, _ = run(["analytic", "--config", str(cfg), "--a", "0.01"], capsys)
        assert code == 0
        assert json.loads(out)["thickness_pde"] == pytest.approx(1.2)

    def test_explicit_zero_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "interval-whole", "fl": 0.5, "fr": 1.0, "a": 0.04}))
        code, out, _ = run(["analytic", "--config", str(cfg), "--fl", "0"], capsys)
        assert code == 0
        record = json.loads(out)
        assert record["f_l"] == 0.0
        assert record["thickness_pde"] == pytest.approx(1.4)

    def test_config_values_go_through_flag_types(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "interval-whole", "fl": 0, "fr": "1", "a": "0.04"}))
        code, out, _ = run(["analytic", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["thickness_pde"] == pytest.approx(1.4)
        for bad in ({"a": "0.04x"}, {"a": True}, {"family": "disc"}, {"pretty": 1}):
            cfg.write_text(json.dumps(bad))
            code, _, err = run(["analytic", "--config", str(cfg)], capsys)
            assert code == 2
            assert repr(next(iter(bad))) in err

    def test_explicit_flag_equal_to_its_default_beats_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"suite": "analytic"}))
        suites = []
        monkeypatch.setattr(
            harness, "verify_theorems", lambda suite: suites.append(suite) or harness.VerifyReport(suite, [])
        )
        csv = ["--csv", str(tmp_path / "v.csv")]
        code, _, _ = run(["verify", "--suite", "default", "--config", str(cfg), *csv], capsys)
        assert code == 0
        assert suites == ["default"]
        code, _, _ = run(["verify", "--config", str(cfg), *csv], capsys)
        assert code == 0
        assert suites == ["default", "analytic"]

    def test_explicit_zero_amplitude_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bl_cos_amp": 0.1}))
        flat = [
            "analytic", "--family", "band-general", "--fl", "0", "--fr", "1",
            "--bl", "-0.5", "--br", "1.5", "--L", "1", "--a", "0.04",
        ]
        code, out, _ = run(flat, capsys)
        assert code == 0
        envelope = json.loads(out)["l2_envelope"]
        assert envelope == pytest.approx(0.632, abs=5e-4)
        code, out, _ = run([*flat, "--bl-cos-amp", "0", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["l2_envelope"] == envelope
        code, out, _ = run([*flat, "--config", str(cfg)], capsys)
        assert json.loads(out)["l2_envelope"] == pytest.approx(0.828, abs=5e-4)

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(["analytic", "--config", str(cfg)], capsys)
        assert code == 2
        assert "bogus" in err


class TestSolveCommand:
    def test_radial_solve_outputs(self, capsys, tmp_path, read_csv):
        out_csv = tmp_path / "s.csv"
        thick_csv = tmp_path / "t.csv"
        code, _, _ = run(
            [
                "solve", "--family", "annulus-whole", "--fl", "1", "--fr", "2",
                "--a", "0.04", "--cells", "512",
                "--out", str(out_csv), "--thickness-out", str(thick_csv),
            ],
            capsys,
        )
        assert code == 0
        field = read_csv(out_csv)
        assert list(field) == ["x", "s_x"]
        cols = read_csv(thick_csv)
        p = 2.0 * np.array(cols["inv_thickness"]) / math.sqrt(0.04)
        ref = analytic.annulus_whole(1, 2, 0.04).p_star
        assert abs(p.mean() - ref) / ref <= 1e-4

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a_csv = tmp_path / "a.csv"
        b_csv = tmp_path / "b.csv"
        argv = [
            "solve", "--family", "interval-general", "--fl", "0", "--fr", "1",
            "--bl", "-1", "--br", "2", "--a", "0.04", "--cells", "128",
        ]
        assert run(argv + ["--out", str(a_csv)], capsys)[0] == 0
        assert run(argv + ["--out", str(b_csv)], capsys)[0] == 0
        assert a_csv.read_bytes() == b_csv.read_bytes()

    def test_matrix_dump(self, capsys, tmp_path):
        out_csv = tmp_path / "s.csv"
        mat = tmp_path / "m.txt"
        code, _, _ = run(
            [
                "solve", "--family", "interval-whole", "--fl", "0", "--fr", "1",
                "--a", "0.04", "--cells", "32",
                "--out", str(out_csv), "--matrix-out", str(mat),
            ],
            capsys,
        )
        assert code == 0
        first = mat.read_text().splitlines()[0].split()
        assert len(first) == 3
        assert int(first[0]) >= 1 and int(first[1]) >= 1


class TestSweepCommand:
    def test_json_report(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        code, _, _ = run(
            [
                "sweep", "--family", "interval-whole", "--fl", "0", "--fr", "1",
                "--a-list", "1e-4,1e-3,1e-2,1e-1", "--json", str(path),
            ],
            capsys,
        )
        assert code == 0
        report = json.loads(path.read_text())
        assert report["slope"] == pytest.approx(0.5, abs=1e-10)
        assert all(s["passed"] for s in report["samples"])

    def test_bad_a_list_exits_2(self, capsys):
        code, _, _ = run(
            [
                "sweep", "--family", "interval-whole", "--fl", "0", "--fr", "1",
                "--a-list", "1e-3,banana",
            ],
            capsys,
        )
        assert code == 2


class TestOracleCommand:
    def test_interval_oracle_csv(self, capsys, tmp_path, read_csv):
        path = tmp_path / "oracle.csv"
        code, _, _ = run(
            [
                "oracle", "--family", "interval-whole", "--fl", "0", "--fr", "1",
                "--cells", "100", "--out", str(path),
            ],
            capsys,
        )
        assert code == 0
        cols = read_csv(path)
        vals = np.array(cols["thickness"])
        assert np.max(np.abs(vals - 1.0)) <= 2 * 0.01

    @pytest.mark.parametrize("L, cells", [("1", "2"), ("0.3", "7")])
    def test_band_oracle_rows_follow_the_grid_spacing(self, capsys, tmp_path, L, cells, read_csv):
        # the requested spacing T/cells is coarser than the grid's L/nx here
        path = tmp_path / "oracle.csv"
        code, _, err = run(
            [
                "oracle", "--family", "band-whole", "--fl", "0", "--fr", "1", "--L", L,
                "--cells", cells, "--out", str(path),
            ],
            capsys,
        )
        assert code == 0, err
        h = float(L) / 4  # nx = max(4, round(L / (T / cells))) = 4
        cols = read_csv(path)
        y = np.array(cols["y"])
        assert y.min() < h and y.max() > 1.0 - h
        assert np.max(np.abs(np.array(cols["thickness"]) - 1.0)) <= 2 * h


class TestVerifyCommand:
    def test_default_suite_exit_zero(self, capsys, tmp_path):
        # the acceptance gate: a clean build verifies every bound
        path = tmp_path / "verify.json"
        code, _, _ = run(["verify", "--json", str(path)], capsys)
        assert code == 0
        report = json.loads(path.read_text())
        assert report["suite"] == "default"
        assert report["passed"] is True
        assert len(report["checks"]) == 13

    def test_analytic_suite_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "verify.json"
        code, _, _ = run(["verify", "--suite", "analytic", "--json", str(path)], capsys)
        assert code == 0
        report = json.loads(path.read_text())
        assert report["passed"] is True
        assert {c["case"] for c in report["checks"]} >= {
            "interval-whole-equality",
            "annulus-whole-bounds",
        }

    def test_failure_exits_one(self, capsys, monkeypatch):
        from pdethick import bessel

        original = bessel.k_ratio_lower_bound
        monkeypatch.setattr(bessel, "k_ratio_lower_bound", lambda x: -original(x) + 2.0)
        code, _, _ = run(["verify", "--suite", "analytic"], capsys)
        assert code == 1

    def test_byte_identical_json(self, capsys, tmp_path):
        p1 = tmp_path / "v1.json"
        p2 = tmp_path / "v2.json"
        assert run(["verify", "--suite", "analytic", "--json", str(p1)], capsys)[0] == 0
        assert run(["verify", "--suite", "analytic", "--json", str(p2)], capsys)[0] == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_mirror(self, capsys, tmp_path, read_csv):
        path = tmp_path / "verify.csv"
        code, _, _ = run(
            ["verify", "--suite", "analytic", "--csv", str(path), "--json", str(tmp_path / "v.json")],
            capsys,
        )
        assert code == 0
        cols = read_csv(path)
        assert list(cols) == ["case", "a", "error", "bound", "slack", "passed"]

    def test_pretty_prints_each_tightest_margin(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        code, out, _ = run(["verify", "--suite", "analytic", "--pretty", "--json", str(path)], capsys)
        assert code == 0
        lines = {line.split()[0]: line for line in out.splitlines()}
        checks = json.loads(path.read_text())["checks"]
        assert [c["case"] for c in checks] == harness.SUITES["analytic"]
        for check in checks:
            tightest = min(s["bound"] + s["slack"] - s["error"] for s in check["samples"])
            assert lines[check["case"]].endswith(f"pass  tightest margin {tightest:.3e}")
        assert out.splitlines()[-1] == "suite analytic: pass"

    def test_pretty_prints_error_message(self, capsys, monkeypatch):
        def broken(check, rng):
            raise ValueError("no closed form")

        checks = dict(harness._CHECKS)
        statement, in_analytic, _ = checks["band-whole-equality"]
        checks["band-whole-equality"] = (statement, in_analytic, broken)
        monkeypatch.setattr(harness, "_CHECKS", checks)
        code, out, _ = run(["verify", "--suite", "analytic", "--pretty"], capsys)
        assert code == 1
        lines = out.splitlines()
        at = [line.split()[0] for line in lines].index("band-whole-equality")
        first, message = lines[at : at + 2]
        assert first.split() == ["band-whole-equality", "FAIL"]
        assert message.strip() == "ValueError: no closed form"

    def test_csv_alone_prints_nothing(self, capsys, tmp_path):
        path = tmp_path / "verify.csv"
        code, out, _ = run(["verify", "--suite", "analytic", "--csv", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("case,a,error,bound,slack,passed\n")
