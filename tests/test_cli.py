import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import teleclone
from teleclone.cli import main


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def read_csv_rows(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestRunCommand:
    def test_bell_preset_symmetric_point(self, tmp_path):
        out = tmp_path / "transcript.json"
        code = main(
            [
                "run",
                "--n", "2",
                "--p", "0.5",
                "--input", "bell",
                "--outcome", "PHI+,PHI+",
                "--output", str(out),
            ]
        )
        assert code == 0
        data = read_json(out)
        assert data["fidelity_b"] == pytest.approx(0.7, abs=1e-9)
        assert data["fidelity_c"] == pytest.approx(0.7, abs=1e-9)
        assert data["target_overlap"] >= 1 - 1e-9

    def test_explicit_amplitudes(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(
            [
                "run",
                "--n", "2",
                "--p", "0.5",
                "--input", "1,0,0,0",
                "--outcome", "PHI-,PSI-",
                "--output", str(out),
            ]
        )
        assert code == 0
        data = read_json(out)
        assert data["fidelity_b"] == pytest.approx(0.7, abs=1e-9)
        assert data["target_overlap"] >= 1 - 1e-9
        assert data["outcome"] == "PHI-,PSI-"

    def test_full_b_weight_makes_b_clone_exact(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(
            [
                "run",
                "--n", "1",
                "--p", "1.0",
                "--input", "random",
                "--seed", "7",
                "--outcome", "PHI+",
                "--output", str(out),
            ]
        )
        assert code == 0
        data = read_json(out)
        assert data["fidelity_b"] == pytest.approx(1.0, abs=1e-9)
        assert data["fidelity_c"] == pytest.approx(0.5, abs=1e-9)

    def test_zero_b_weight_makes_c_clone_exact(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(
            [
                "run",
                "--n", "1",
                "--p", "0.0",
                "--input", "random",
                "--seed", "7",
                "--outcome", "PHI+",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert read_json(out)["fidelity_c"] == pytest.approx(1.0, abs=1e-9)

    def test_sampled_mode(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(
            ["run", "--n", "2", "--input", "ghz", "--seed", "11", "--output", str(out)]
        )
        assert code == 0
        assert read_json(out)["probability"] == pytest.approx(1 / 16, abs=1e-9)

    def test_unnormalized_amplitudes_exit_2(self, capsys):
        code = main(["run", "--n", "2", "--input", "1,1,0,0", "--outcome", "PHI+,PHI+"])
        assert code == 2
        assert "norm" in capsys.readouterr().err

    def test_sampled_without_seed_exit_2(self, capsys):
        code = main(["run", "--n", "2", "--input", "bell"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_oversize_register_rejected_before_allocation(self):
        # n=5 attaches a 25-qubit (512 MiB) register; under a 600 MB
        # address-space cap it must be refused up front, not crash
        resource = pytest.importorskip("resource")

        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

        src = str(Path(teleclone.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "teleclone.cli", "run", "--n", "5",
             "--input", "ghz", "--seed", "1"],
            env=env, capture_output=True, text=True, preexec_fn=cap_address_space,
        )
        assert proc.returncode == 2, proc.stderr
        assert "20-qubit limit" in proc.stderr

    def test_oversize_register_refused_before_the_channel(self, monkeypatch, capsys):
        def no_channel(params):
            raise AssertionError("build_channel called for an oversize run")

        monkeypatch.setattr(teleclone.protocol, "build_channel", no_channel)
        code = main(["run", "--n", "5", "--input", "ghz", "--seed", "1"])
        assert code == 2
        assert "20-qubit limit" in capsys.readouterr().err

    def test_memory_error_exit_2(self, monkeypatch, capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(teleclone.protocol, "run", out_of_memory)
        code = main(["run", "--n", "2", "--input", "bell", "--outcome", "PHI+,PHI+"])
        assert code == 2
        assert "out of memory" in capsys.readouterr().err

    def test_basis_preset(self, tmp_path):
        out = tmp_path / "t.json"
        code = main(
            [
                "run",
                "--n", "2",
                "--input", "basis-3",
                "--outcome", "PHI+,PHI+",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert read_json(out)["fidelity_b"] == pytest.approx(0.7, abs=1e-9)


class TestSweepDelta:
    def test_single_point(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            ["sweep-delta", "--mu", "0.5", "--p", "0.5", "--output", str(out)]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["delta"] == pytest.approx(0.49955, abs=1e-4)
        header, rows = read_csv_rows(out)
        assert header == ["mu", "p", "f_b", "f_c", "c_b", "c_c", "delta"]
        assert float(rows[0]["c_b"]) == pytest.approx(0.4, abs=1e-9)

    def test_low_mu_has_empty_region(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(["sweep-delta", "--mu", "0.1", "--p-step", "0.1", "--output", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["physical_region"] is None
        assert "note" in summary
        assert summary["violations"] == 0
        _, rows = read_csv_rows(out)
        for row in rows:
            assert float(row["c_b"]) == 0.0 or float(row["c_c"]) == 0.0

    def test_full_sweep_summary_and_determinism(self, tmp_path, capsys):
        args = [
            "sweep-delta",
            "--mu-step", "0.05",
            "--p-step", "0.02",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--output", str(first)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == 0
        assert summary["min_delta"] >= -1e-9
        assert summary["monotone_ok"] is True
        assert summary["inflection_ok"] is True
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_default_grid_has_no_violations(self, tmp_path, capsys):
        out = tmp_path / "full.csv"
        assert main(["sweep-delta", "--output", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == 0
        assert summary["rows"] == 101 * 1001
        assert summary["min_delta"] >= -1e-9
        assert summary["min_inflection_p"] > 0.56
        with open(out, encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 101 * 1001 + 1


class TestSweepFidelity:
    def test_rows_and_summary(self, tmp_path, capsys):
        out = tmp_path / "fid.csv"
        code = main(["sweep-fidelity", "--n", "2", "--p-step", "0.1", "--output", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["f_b_nondecreasing"] is True
        assert summary["f_c_nonincreasing"] is True
        header, rows = read_csv_rows(out)
        assert header == ["p", "q", "f_b", "f_c"]
        mid = next(r for r in rows if r["p"] == "0.5")
        assert float(mid["f_b"]) == pytest.approx(0.7, abs=1e-9)


class TestMixedCommand:
    def test_vertex_uniform_and_samples(self, tmp_path, capsys):
        out = tmp_path / "mixed.csv"
        code = main(
            [
                "mixed",
                "--n", "1",
                "--p", "0.5",
                "--samples", "10",
                "--seed", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == 0
        assert summary["max_sim_formula_error"] < 1e-8
        header, rows = read_csv_rows(out)
        assert header[-5:] == ["p", "f_mixed", "lower_bound", "f_pure", "ok"]
        assert float(rows[0]["f_mixed"]) == pytest.approx(0.8, abs=1e-9)  # vertex
        assert float(rows[2]["f_mixed"]) == pytest.approx(1.0, abs=1e-9)  # uniform
        assert all(row["ok"] == "1" for row in rows)
        assert len(rows) == 13  # 2 vertices + uniform + 10 samples

    def test_thousand_samples_all_rows_ok(self, tmp_path, capsys):
        out = tmp_path / "mixed1000.csv"
        code = main(
            [
                "mixed",
                "--n", "1",
                "--p", "0.5",
                "--samples", "1000",
                "--seed", "1",
                "--output", str(out),
            ]
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == 0
        _, rows = read_csv_rows(out)
        assert len(rows) == 1003
        assert all(row["ok"] == "1" for row in rows)

    def test_two_qubit_register_runs_without_flag(self, capsys):
        code = main(["mixed", "--n", "2", "--p", "0.5", "--samples", "1", "--seed", "1"])
        assert code == 0
        assert capsys.readouterr().out.startswith("alpha_0,")

    def test_oversize_register_leaves_no_csv(self, tmp_path, capsys):
        out = tmp_path / "mixed3.csv"
        args = ["mixed", "--n", "3", "--samples", "1", "--seed", "1", "--output", str(out)]
        assert main(args) == 2
        assert "20-qubit limit" in capsys.readouterr().err
        assert not out.exists()

    def test_determinism(self, tmp_path):
        args = ["mixed", "--n", "1", "--p", "0.3", "--samples", "5", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_single_group(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--group", "transformations", "--output", str(out)])
        assert code == 0
        report = read_json(out)
        assert report["passed"] is True
        assert report["groups"][0]["name"] == "transformations"

    def test_monotonicity_error_exit_1(self, monkeypatch, capsys):
        def violated(groups, seed):
            raise teleclone.MonotonicityError("tracing decreased fidelity")

        monkeypatch.setattr(teleclone.verify, "run_verification", violated)
        assert main(["verify", "--group", "mixed"]) == 1
        assert "tracing decreased fidelity" in capsys.readouterr().err

    def test_unknown_group_exit_2(self, capsys):
        code = main(["verify", "--group", "bogus"])
        assert code == 2
        assert "unknown group" in capsys.readouterr().err
