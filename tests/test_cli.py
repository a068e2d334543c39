import contextlib
import csv
import errno
import io
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import teleclone
from teleclone import cli
from teleclone import entanglement as ent
from teleclone import mixed as mx
from teleclone.cli import main
from teleclone.cloning import fidelity_curve


def refuse_to_allocate(monkeypatch, *names):
    """Make each named numpy allocator fail the test if it is called."""

    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the grid was refused")

    for name in names:
        monkeypatch.setattr(np, name, allocate)


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

    def test_nan_amplitude_exit_2(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic warns
            code = main(["run", "--input", "1,nan,0,0", "--outcome", "PHI+,PHI+",
                         "--output", str(out)])
        assert code == 2
        assert "norm nan" in capsys.readouterr().err
        assert not out.exists()

    def test_outcome_of_the_wrong_length_exit_2(self, tmp_path):
        out = tmp_path / "t.json"
        argv = ["run", "--n", "2", "--input", "ghz", "--outcome", "PHI+", "--output", str(out)]
        code, _, err = call_main(argv)
        assert (code, err) == (2, "error: outcome length does not match the number of pairs\n")
        assert not out.exists()

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
        def no_walk(*args, **kwargs):
            raise AssertionError("sender walk called for an oversize run")

        monkeypatch.setattr(teleclone.protocol, "_sender_walk", no_walk)
        code = main(["run", "--n", "5", "--input", "ghz", "--seed", "1"])
        assert code == 2
        assert "20-qubit limit" in capsys.readouterr().err

    def test_oversize_register_refused_before_the_input(self, monkeypatch, capsys):
        def no_input(*args):
            raise AssertionError("input amplitudes drawn for an oversize run")

        monkeypatch.setattr(teleclone.qstate.StateVector, "random", no_input)
        code = main(["run", "--n", "28", "--input", "random", "--seed", "1"])
        assert code == 2
        assert "register size 140 is outside the 20-qubit limit" in capsys.readouterr().err

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

    def test_mu_within_its_band_is_accepted(self):
        code, out, err = call_main(["sweep-delta", "--mu", "-7e-13", "--p", "0.5"])
        assert code == 0
        assert out.splitlines()[1].startswith("-7e-13,0.5,")
        assert json.loads(err)["delta"] == 0.0

    def test_mu_outside_its_band_is_refused(self):
        code, out, err = call_main(["sweep-delta", "--mu", "-2e-12", "--p", "0.5"])
        assert (code, out, err) == (2, "", "error: mu outside [0, 1/2]\n")

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

    @pytest.mark.parametrize("mu_value", ["0.5", "0.5000000000007", "0.4999999999995"])
    def test_maximal_mu_reports_the_limit_region(self, mu_value):
        # the closed form is 0/0 at mu = 1/2; its rows say the region is (1/3, 2/3)
        code, out, err = call_main(["sweep-delta", "--mu", mu_value, "--p-step", "0.01"])
        assert code == 0
        summary = json.loads(err)
        assert summary["physical_region"] == [1.0 / 3.0, 2.0 / 3.0]
        assert "note" not in summary
        lines = out.splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        for row in rows:
            both = float(row["c_b"]) > 0 and float(row["c_c"]) > 0
            assert both == (1.0 / 3.0 < float(row["p"]) < 2.0 / 3.0)

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

    def test_p_without_mu_is_refused(self, tmp_path):
        # --p picks a point on one mu's curve, so it needs --mu
        out = tmp_path / "rows.csv"
        argv = ["sweep-delta", "--p", "0.5", "--mu-step", "0.25", "--p-step", "0.25"]
        code, stdout, stderr = call_main(argv + ["--output", str(out)])
        assert (code, stdout) == (2, "")
        assert stderr.startswith("error: ") and "--mu" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("existed", [False, True])
    def test_full_disk_leaves_no_partial_payload(self, tmp_path, monkeypatch, existed):
        # the header and the first block are written; the second block's
        # write runs out of space
        out = tmp_path / "delta.csv"
        if existed:
            out.write_bytes(b"old payload\n")

        def full_on_the_third_write(*args, **kwargs):
            handle = open(*args, **kwargs)
            write, writes = handle.write, []

            def limited(text):
                writes.append(text)
                if len(writes) == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return write(text)

            handle.write = limited
            return handle

        monkeypatch.setattr(cli, "open", full_on_the_third_write, raising=False)
        code, stdout, stderr = call_main(["sweep-delta", "--output", str(out)])
        assert (code, stdout) == (2, "")
        assert stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert list(tmp_path.iterdir()) == ([out] if existed else [])  # no temporary left
        if existed:
            assert out.read_bytes() == b"old payload\n"

    def test_missing_directory_is_named_as_given(self, tmp_path):
        # the error names the output path, not the temporary beside it
        out = tmp_path / "missing" / "delta.csv"
        code, stdout, stderr = call_main(["sweep-delta", "--mu", "0.25", "--output", str(out)])
        assert (code, stdout) == (2, "")
        assert stderr == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{out}'\n"

    def test_output_file_gets_the_mode_a_new_file_gets(self, tmp_path):
        # the payload is written to a temporary first: not mkstemp's 0600
        out, reference = tmp_path / "delta.csv", tmp_path / "reference"
        reference.write_text("")
        assert call_main(["sweep-delta", "--mu", "0.25", "--output", str(out)])[0] == 0
        assert out.stat().st_mode == reference.stat().st_mode

    @pytest.mark.parametrize("mode", [0o600, 0o444], ids=oct)
    def test_output_file_keeps_the_mode_it_had(self, tmp_path, mode):
        # the temporary moved onto the file must not widen a private one
        out = tmp_path / "delta.csv"
        out.write_text("old\n")
        out.chmod(mode)
        assert call_main(["sweep-delta", "--mu", "0.25", "--output", str(out)])[0] == 0
        assert stat.S_IMODE(out.stat().st_mode) == mode
        assert out.read_text().startswith("mu,p,")

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

    def test_dash_output_is_the_csv_alone_with_the_summary_on_stderr(self, tmp_path):
        # "-" is stdout: the summary goes beside the payload, not after it
        argv = ["sweep-fidelity", "--p-step", "0.5"]
        code, stdout, stderr = call_main(argv + ["--output", "-"])
        rows = [[p, 1.0 - p, *fidelity_curve(p, 4)] for p in (0.0, 0.5, 1.0)]
        assert (code, stdout) == (0, oracle_csv(["p", "q", "f_b", "f_c"], rows))
        assert stderr == call_main(argv + ["--output", str(tmp_path / "fid.csv")])[1]
        assert json.loads(stderr)["rows"] == 3

    def test_dimension_beyond_a_float_exit_2(self, tmp_path, capsys):
        # d = 2^1024 cannot be converted to a float; 2^1023 still can
        out = tmp_path / "fid.csv"
        assert main(["sweep-fidelity", "--n", "1024", "--output", str(out)]) == 2
        assert "overflows a float" in capsys.readouterr().err
        assert not out.exists()
        assert main(["sweep-fidelity", "--n", "1023", "--p-step", "0.5", "--output", str(out)]) == 0


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

    def test_oversize_register_refused_before_the_plans(self, monkeypatch, capsys):
        def no_plans(*args):
            raise AssertionError("simplex plans drawn for an oversize run")

        monkeypatch.setattr(mx, "sample_simplex", no_plans)
        assert main(["mixed", "--n", "14", "--seed", "1"]) == 2
        assert "register size 140 is outside the 20-qubit limit" in capsys.readouterr().err

    def test_negative_samples_refused_before_the_plans(self, tmp_path, monkeypatch):
        def no_plans(*args):
            raise AssertionError("simplex plans drawn for a negative count")

        monkeypatch.setattr(mx, "sample_simplex", no_plans)
        out = tmp_path / "mixed.csv"
        code, stdout, stderr = call_main(
            ["mixed", "--samples", "-1", "--seed", "1", "--output", str(out)]
        )
        assert (code, stdout, stderr) == (2, "", "error: --samples must be nonnegative, got -1\n")
        assert not out.exists()

    def test_zero_samples_writes_the_vertices_and_the_uniform_plan(self, tmp_path, capsys):
        out = tmp_path / "mixed.csv"
        assert main(["mixed", "--samples", "0", "--seed", "1", "--output", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == 3
        _, rows = read_csv_rows(out)
        assert len(rows) == 3

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

    def test_unknown_group_exit_2(self, capsys):
        code = main(["verify", "--group", "bogus"])
        assert code == 2
        assert "unknown group" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [TypeError, KeyError, AttributeError, ZeroDivisionError])
    def test_unexpected_exception_is_an_internal_error_exit_2(self, monkeypatch, capsys, error):
        def broken(groups, seed):
            raise error("a bug")

        monkeypatch.setattr(teleclone.verify, "run_verification", broken)
        assert main(["verify"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("internal error\n")
        assert "Traceback (most recent call last)" in err
        assert f"{error.__name__}: " in err


def _fmt(value) -> str:
    """One CSV cell as the per-cell writer formatted it."""
    return format(float(value), ".12g")


def oracle_csv(header, rows) -> str:
    """The per-cell route: _fmt cells through csv.writer with LF endings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([[_fmt(v) for v in row] for row in rows])
    return buf.getvalue()


def oracle_delta_rows(mu_value, ps):
    """One row per p, each computed on scalars, delta from the public EoF and concurrence."""
    rows = []
    for p in ps:
        f_b, f_c = fidelity_curve(p, 4)
        c_b = ent.clone_concurrence(mu_value, float(f_b))
        c_c = ent.clone_concurrence(mu_value, float(f_c))
        gap = (
            ent.eof_from_concurrence(min(2.0 * mu_value, 1.0))
            - ent.eof_from_concurrence(c_b)
            - ent.eof_from_concurrence(c_c)
        )
        rows.append([mu_value, p, f_b, f_c, c_b, c_c, gap])
    return rows


def assert_same_text(actual: str, expected: str) -> None:
    """Equality of two CSV texts, reporting the first differing line only.

    pytest's own diff of two multi-megabyte strings takes minutes.
    """
    if actual == expected:
        return
    got, want = actual.split("\n"), expected.split("\n")
    line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    pytest.fail(
        f"line {line} differs: {got[line:line + 1]} != {want[line:line + 1]} "
        f"({len(got)} vs {len(want)} lines)"
    )


def linspace_grid(step):
    return np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)


class TestCsvByteIdentity:
    """The row-template writer against the per-cell csv.writer oracle."""

    def test_default_delta_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        assert main(["sweep-delta", "--output", str(out)]) == 0
        report = ent.sweep_delta(ent.SweepGrid())
        rows = (
            [
                mu_value,
                p,
                report.fidelity_b[pi],
                report.fidelity_c[pi],
                report.concurrence_b[mi, pi],
                report.concurrence_c[mi, pi],
                report.delta_values[mi, pi],
            ]
            for mi, mu_value in enumerate(report.mu_values)
            for pi, p in enumerate(report.p_values)
        )
        assert_same_text(out.read_bytes().decode("utf-8"), oracle_csv(cli._DELTA_HEADER, rows))

    def test_single_mu(self, tmp_path, capsys):
        out = tmp_path / "mu.csv"
        assert main(["sweep-delta", "--mu", "0.3", "--output", str(out)]) == 0
        rows = oracle_delta_rows(0.3, linspace_grid(0.001))
        assert_same_text(out.read_bytes().decode("utf-8"), oracle_csv(cli._DELTA_HEADER, rows))

    @pytest.mark.parametrize("point", [(0.5, 0.5), (0.25, 0.37), (0.2, 0.0), (0.1, 1.0)])
    def test_single_point(self, tmp_path, capsys, point):
        out = tmp_path / "point.csv"
        mu_value, p = point
        argv = ["sweep-delta", "--mu", repr(mu_value), "--p", repr(p), "--output", str(out)]
        assert main(argv) == 0
        rows = oracle_delta_rows(mu_value, [p])
        assert_same_text(out.read_bytes().decode("utf-8"), oracle_csv(cli._DELTA_HEADER, rows))
        assert json.loads(capsys.readouterr().out)["delta"] == float(rows[0][-1])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sweep_fidelity(self, tmp_path, capsys, n):
        out = tmp_path / "fid.csv"
        assert main(["sweep-fidelity", "--n", str(n), "--output", str(out)]) == 0
        ps = linspace_grid(0.01)
        f_b, f_c = fidelity_curve(ps, 1 << n)
        rows = [[p, 1.0 - p, fb, fc] for p, fb, fc in zip(ps, f_b, f_c)]
        assert_same_text(out.read_bytes().decode("utf-8"), oracle_csv(["p", "q", "f_b", "f_c"], rows))

    @pytest.mark.parametrize("n, samples, seed", [(1, 100, 9), (2, 3, 1)])
    def test_mixed(self, tmp_path, capsys, n, samples, seed):
        out = tmp_path / "mixed.csv"
        argv = ["mixed", "--n", str(n), "--p", "0.3", "--samples", str(samples)]
        assert main(argv + ["--seed", str(seed), "--output", str(out)]) == 0
        dim = 1 << n
        plans = list(np.eye(dim)) + [np.full(dim, 1.0 / dim)]
        plans += list(mx.sample_simplex(dim, samples, np.random.default_rng(seed)))
        header = [f"alpha_{k}" for k in range(dim)] + [
            "p", "f_mixed", "lower_bound", "f_pure", "ok",
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for alphas in plans:
            state = mx.MixedInput(alphas, n)
            params = state.protocol_params(0.3)
            f_mixed = mx.mixed_fidelity(state, params)
            lower, _ = mx.fidelity_bounds(params)
            f_pure, _ = fidelity_curve(0.3, params.d)
            ok = lower - 1e-9 <= f_mixed <= 1.0 + 1e-9 and f_mixed >= float(f_pure) - 1e-9
            cells = [*state.alphas, 0.3, f_mixed, lower, f_pure]
            writer.writerow([_fmt(v) for v in cells] + [str(int(ok))])
        assert_same_text(out.read_bytes().decode("utf-8"), buf.getvalue())

    def test_stdout_equals_output_file(self, tmp_path, capsys):
        args = ["sweep-delta", "--mu-step", "0.05", "--p-step", "0.02"]
        out = tmp_path / "coarse.csv"
        assert main(args + ["--output", str(out)]) == 0
        summary = capsys.readouterr().out
        assert main(args) == 0
        captured = capsys.readouterr()
        assert_same_text(captured.out, out.read_bytes().decode("utf-8"))
        assert captured.err == summary

    def test_stdout_equals_output_file_over_several_blocks(self, tmp_path, capsys):
        # 51 x 2001 rows: twenty-six blocks of 2 mu
        args = ["sweep-delta", "--mu-step", "0.01", "--p-step", "0.0005"]
        out = tmp_path / "fine.csv"
        assert main(args + ["--output", str(out)]) == 0
        summary = capsys.readouterr().out
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.out.encode("ascii") == out.read_bytes()
        assert out.read_bytes().count(b"\n") == 51 * 2001 + 1
        assert captured.err == summary

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--input", "random", "--seed", "3"],
            ["verify"],
            ["sweep-fidelity"],
            ["mixed", "--seed", "7", "--samples", "5"],
            ["sweep-delta", "--mu", "0.3"],
        ],
    )
    def test_every_command_writes_the_same_payload_to_stdout_and_a_file(self, tmp_path, argv):
        out = tmp_path / "payload"
        code, summary, stderr = call_main(argv + ["--output", str(out)])
        assert (code, stderr) == (0, "")
        assert bool(summary) == (argv[0] not in ("run", "verify"))  # they have none
        code, stdout, stderr = call_main(argv)
        assert code == 0
        assert stdout.encode("ascii") == out.read_bytes()
        assert stderr == summary

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-fidelity"],
            ["sweep-delta", "--mu", "0.3", "--p-step", "0.01"],
            ["sweep-delta", "--mu-step", "0.1", "--p-step", "0.01"],
        ],
    )
    def test_rows_cut_into_blocks_join_to_the_same_payload(self, monkeypatch, argv):
        # 101 points a row: fourteen blocks of 7 lines and one of 3 per row
        whole = call_main(argv)
        monkeypatch.setattr(cli, "_BLOCK_LINES", 7)
        assert call_main(argv) == whole

    @pytest.mark.parametrize("to_file", [True, False])
    def test_failure_in_a_later_block_writes_nothing(self, tmp_path, monkeypatch, to_file):
        # _cells formats mu, the three shared columns, then the three grids
        # of each of twenty-six blocks of 2 mu: call 11 opens the third block
        calls = fail_in_the_third_block(monkeypatch)
        out = tmp_path / "grid.csv"
        argv = ["sweep-delta", "--mu-step", "0.01", "--p-step", "0.0005"]
        code, stdout, stderr = call_main(argv + (["--output", str(out)] if to_file else []))
        assert (code, stdout, stderr) == (2, "", "error: out of memory\n")
        assert calls[-1] == (2, 2001)
        assert not out.exists()

    def test_failure_in_a_later_block_writes_nothing_to_a_pipe(self, tmp_path, monkeypatch):
        # two blocks (about 600 kB) are formatted before the failure, more
        # than a pipe holds: a reader drains whatever the command writes
        calls = fail_in_the_third_block(monkeypatch)
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []

        def read_all():
            with open(fifo, "rb") as pipe:
                received.append(pipe.read())

        reader = threading.Thread(target=read_all, daemon=True)
        reader.start()
        argv = ["sweep-delta", "--mu-step", "0.01", "--p-step", "0.0005", "--output", str(fifo)]
        try:
            code, stdout, stderr = call_main(argv)
        finally:
            # a reader still waiting for a writer is let go by an empty one
            for _ in range(200):
                with contextlib.suppress(OSError):  # ENXIO: the reader has not opened yet
                    os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
                reader.join(timeout=0.05)
                if not reader.is_alive():
                    break
        assert not reader.is_alive()
        assert (code, stdout, stderr) == (2, "", "error: out of memory\n")
        assert calls[-1] == (2, 2001)
        assert received == [b""]

    def test_default_delta_grid_holds_one_block_at_a_time(self, tmp_path):
        # the report's three grids (2.3 MiB), one block of grid rows or
        # scans, and one block of lines fit; the whole body (7.5 MB), or
        # the gap of every grid point or every scan at once, does not
        assert output_peak(tmp_path, "sweep-delta", "--p-step", "0.001") <= 6 * 2**20

    def test_long_fidelity_axis_holds_one_block_at_a_time(self, tmp_path):
        # 100,001 points: the four columns (3.2 MB) and one block of lines
        # fit; the whole body (4.6 MB), or every point's cells at once, does not
        assert output_peak(tmp_path, "sweep-fidelity", "--p-step", "1e-5") <= 6 * 2**20

    def test_long_mu_row_holds_one_block_of_grid_cells_at_a_time(self, tmp_path):
        # 100,001 points of one mu: the gap over the whole axis (7.6 MiB
        # traced) and the (p, f_b, f_c) cells joined once fit; the grid
        # cells of every point and the whole body (7.7 MB) on top do not
        argv = ("sweep-delta", "--mu", "0.3", "--p-step", "1e-5")
        assert output_peak(tmp_path, *argv) <= 32 * 2**20

    def test_finer_p_grid_grows_the_peak_by_the_report_alone(self, tmp_path):
        # halving the p-step doubles the report's p columns and (mu, p)
        # grids (2.3 MiB more); the body, 7.5 MB more, must add nothing.
        # The slack is for what grows by a row, not by the grid: the p, f_b
        # and f_c cells, formatted once (36 B per p), and the per-mu scans,
        # which fall into groups differently at another p-step
        coarse, fine = (ent.sweep_delta(ent.SweepGrid(p_step=step)) for step in (0.001, 0.0005))
        arrays = ("p_values", "fidelity_b", "fidelity_c", "concurrence_b", "concurrence_c", "delta_values")
        grown = sum(getattr(fine, name).nbytes - getattr(coarse, name).nbytes for name in arrays)
        peaks = [output_peak(tmp_path, "sweep-delta", "--p-step", step) for step in ("0.0005", "0.001")]
        growth = peaks[0] - peaks[1]
        assert growth <= grown + 2**18

    @pytest.mark.parametrize(
        "value", [-0.0, 0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, np.nan, np.inf, -np.inf]
    )
    def test_template_equals_per_cell_format(self, value):
        assert "%.12g" % value == _fmt(value)
        assert cli._lines(cli._cells(np.array([value])), cli._cells([value])) == (
            f"{_fmt(value)},{_fmt(value)}\n".encode("ascii")
        )

    @pytest.mark.parametrize("step", ["0.5", "1"])
    def test_grid_without_an_analysis_window(self, tmp_path, capsys, step):
        # no mu of the grid lies inside (1/6, 1/2): nothing to analyse
        out = tmp_path / "grid.csv"
        assert main(["sweep-delta", "--mu-step", step, "--output", str(out)]) == 0
        mus = [0.0, 0.5] if step == "0.5" else [0.0]
        assert capsys.readouterr().out == (
            '{"argmin": {"mu": 0.0, "p": 0.0}, "argmin_on_region_boundary": true, '
            '"inflection_ok": true, "min_delta": 0.0, "min_inflection_p": null, '
            f'"monotone_ok": true, "rows": {1001 * len(mus)}, "violations": 0}}\n'
        )
        rows = [row for mu_value in mus for row in oracle_delta_rows(mu_value, linspace_grid(0.001))]
        assert_same_text(out.read_bytes().decode("utf-8"), oracle_csv(cli._DELTA_HEADER, rows))


def fail_in_the_third_block(monkeypatch) -> list:
    """Make cli._cells raise MemoryError on its eleventh call, which opens
    the third block of grid cells; returns the shapes of the calls made."""
    cells = cli._cells
    calls = []

    def fails_in_the_third_block(x):
        calls.append(np.shape(x))
        if len(calls) == 4 + 2 * 3 + 1:
            raise MemoryError
        return cells(x)

    monkeypatch.setattr(cli, "_cells", fails_in_the_third_block)
    return calls


def output_peak(tmp_path, *argv) -> int:
    """Traced peak bytes of `teleclone ARGV --output F`, after a warm-up."""
    argv = [*argv, "--output", str(tmp_path / "payload.csv")]
    assert call_main(argv)[0] == 0
    tracemalloc.start()
    try:
        assert call_main(argv)[0] == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cell_texts(cells) -> list:
    """The text of each (W,) cell of a `_cells` result, padding removed."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in cells.reshape(-1, cells.shape[-1])]


#: fast-path bounds and the values next to them
KERNEL_EDGES = [
    1e-4,
    float(np.nextafter(1e-4, 0.0)),
    float(np.nextafter(1e-4, 1.0)),
    9.9999999999995e-5,
    0.99999999999949,
    0.9999999999995,
    0.99999999999951,
    float(np.nextafter(1.0, 0.0)),
    1.0,
    *(float(np.nextafter(bound, 0.0)) for bound in (1e-3, 1e-2, 1e-1)),
    1e-3,
    1e-2,
    1e-1,
    5e-324,
    -5e-324,
    0.0,
    -0.0,
    np.nan,
    -np.nan,
    np.inf,
    -np.inf,
    -0.5,
    1.7976931348623157e308,
]


class TestCellKernel:
    """`cli._cells` against '%.12g' of each value."""

    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.floats(min_value=1e-5, max_value=1.0),
                st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(float))),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_per_cell_format(self, values):
        assert cell_texts(cli._cells(values)) == ["%.12g" % v for v in values]

    @pytest.mark.parametrize("value", KERNEL_EDGES)
    def test_edges(self, value):
        assert cell_texts(cli._cells([value])) == ["%.12g" % value]

    def test_exact_decimal_ties(self):
        # k * 1e-12 + 5e-13 lies on a tie of the 12th digit, up to its binary error
        k = np.random.default_rng(13).integers(10**8, 10**12, 2000)
        values = (k * 1e-12 + 5e-13).tolist() + [0.5 + 5e-13, 0.1 + 5e-13, 0.0001 + 5e-17]
        assert cell_texts(cli._cells(values)) == ["%.12g" % v for v in values]

    def test_shape_and_width(self):
        cells = cli._cells(np.full((2, 3), 0.25))
        assert cells.shape == (2, 3, 17) and cells.dtype == np.uint8
        # a formatted cell may be 19 bytes long; the width follows it
        assert cli._cells([-1.23456789012e-308]).shape == (1, 19)


class TestNumericOptions:
    """Bad numbers exit 2 (usage), never 1 (invariant failure)."""

    @pytest.mark.parametrize("argv", [["--mu", "nan", "--p", "0.5"], ["--mu", "0.3", "--p", "nan"]])
    def test_nan_point_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "point.csv"
        assert main(["sweep-delta", *argv, "--output", str(out)]) == 2
        assert "outside" in capsys.readouterr().err
        assert not out.exists()

    # 5e-324 and 2e-9 ask for inf and 500,000,001 points on the p axis
    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "5e-324", "2e-9"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-delta"],
            ["sweep-delta", "--mu", "0.3"],
            ["sweep-fidelity"],
            ["sweep-delta", "--mu", "0.3", "--p", "0.5"],
        ],
    )
    def test_bad_p_step_exit_2(self, tmp_path, monkeypatch, capsys, argv, step):
        refuse_to_allocate(monkeypatch, "linspace", "empty")
        out = tmp_path / "grid.csv"
        assert main([*argv, f"--p-step={step}", "--output", str(out)]) == 2
        assert "grid steps" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message, unused",
        [
            (["--mu-step", "1e-310"], "grid steps give an axis of more than 4194304 points",
             ("linspace", "empty")),
            # each axis within the limit: the grid alone is refused
            (["--mu-step", "1e-4", "--p-step", "1e-4"], "a 5001 x 10001 grid exceeds 4194304 points",
             ("empty",)),
        ],
        ids=["mu-axis", "grid"],
    )
    def test_oversize_grid_exit_2_before_allocating(self, tmp_path, monkeypatch, capsys, argv, message, unused):
        refuse_to_allocate(monkeypatch, *unused)
        out = tmp_path / "grid.csv"
        assert main(["sweep-delta", *argv, "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    # commands that read the option, the other options valid (steps >= 1e-3)
    READERS = {
        "--mu": [["sweep-delta", "--p", "0.5"], ["sweep-delta", "--p-step", "0.1"]],
        "--p": [["sweep-delta", "--mu", "0.3"]],
        "--p-step": [
            ["sweep-delta", "--mu-step", "0.1"],
            ["sweep-delta", "--mu", "0.3"],
            ["sweep-fidelity"],
            ["sweep-delta", "--mu", "0.3", "--p", "0.5"],
        ],
        "--mu-step": [
            ["sweep-delta", "--p-step", "0.1"],
            ["sweep-delta", "--mu", "0.3"],
            ["sweep-delta", "--mu", "0.3", "--p", "0.5"],
        ],
    }

    @settings(max_examples=60, deadline=None)
    @given(option=st.sampled_from(sorted(READERS)), data=st.data())
    def test_invalid_numbers_exit_2(self, option, data):
        bad = st.one_of(
            st.sampled_from([float("nan"), float("inf"), -float("inf")]),
            st.floats(max_value=-1e-6, allow_nan=False, allow_infinity=False),
            st.floats(min_value=1.0 + 1e-9, allow_nan=False, allow_infinity=False),
        )
        if option.endswith("step"):
            bad = st.one_of(st.just(0.0), bad)
        value = data.draw(bad)
        for argv in self.READERS[option]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*argv, f"{option}={value!r}"])  # '=': '-inf' is no flag
            assert code == 2, (argv, option, value, err.getvalue())


def call_main(argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv), argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestNegativeNumberValues:
    """`--opt -1e-13` is the same value as `--opt=-1e-13` on every number option."""

    # every float and int option, with the other arguments its command needs
    NUMBER_OPTIONS = {
        ("run", "--n"): ["run", "--input", "ghz", "--seed", "1"],
        ("run", "--p"): ["run", "--input", "ghz", "--seed", "1"],
        ("run", "--seed"): ["run", "--input", "ghz"],
        ("sweep-delta", "--mu"): ["sweep-delta", "--p", "0.5"],
        ("sweep-delta", "--p"): ["sweep-delta", "--mu", "0.3", "--p-step", "0.1"],
        ("sweep-delta", "--mu-step"): ["sweep-delta", "--p-step", "0.1"],
        ("sweep-delta", "--p-step"): ["sweep-delta", "--mu", "0.3"],
        ("sweep-fidelity", "--n"): ["sweep-fidelity", "--p-step", "0.1"],
        ("sweep-fidelity", "--p-step"): ["sweep-fidelity"],
        ("mixed", "--n"): ["mixed", "--seed", "1", "--samples", "2"],
        ("mixed", "--p"): ["mixed", "--seed", "1", "--samples", "2"],
        ("mixed", "--samples"): ["mixed", "--seed", "1"],
        ("mixed", "--seed"): ["mixed", "--samples", "2"],
        ("verify", "--seed"): ["verify", "--group", "transformations"],
    }

    NEGATIVE = st.one_of(
        st.floats(max_value=-0.0).map(repr),  # -0.0, -5e-324, -1e-13, -1e+300, -inf
        st.integers(max_value=-1).map(str),
        st.sampled_from(["-1e-13", "-1E5", "-.5", "-1.", "-1_000", "-inf", "-Infinity", "-nan"]),
    )

    @settings(max_examples=120, deadline=None)
    @given(case=st.sampled_from(sorted(NUMBER_OPTIONS)), value=NEGATIVE)
    def test_space_form_equals_equals_form(self, case, value):
        _, option = case
        argv = self.NUMBER_OPTIONS[case]
        spaced = call_main([*argv, option, value])
        joined = call_main([*argv, f"{option}={value}"])
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    def test_tiny_negative_p_is_accepted(self):
        code, out, _ = call_main(["sweep-delta", "--mu", "0.3", "--p", "-1e-13"])
        assert code == 0
        assert out.splitlines()[1].startswith("0.3,-1e-13,")

    @pytest.mark.parametrize("value", ["-inf", "-1e5"])
    def test_out_of_range_p_gets_the_range_message(self, value):
        code, out, err = call_main(["sweep-delta", "--mu", "0.3", "--p", value])
        assert (code, out) == (2, "")
        assert err == "error: p outside [0, 1]\n"


class TestNegativeAmplitudeLists:
    """`--input -0.5,...` is the same value as `--input=-0.5,...`."""

    @pytest.mark.parametrize(
        "amplitudes, code",
        [
            ("-0.5,0.5,0.5,0.5", 0),
            ("-0.5j,0.5,-0.5,0.5j", 0),
            ("-0.5+0j, 0.5, 0.5, 0.5", 0),
            ("-3.5355339059327e-1-0.35355339059327j,0.5,0.5,0.5", 0),
            ("-1E-0,0,0,0", 0),
            ("-inf,0,0,0", 2),
            ("-0.5,0.5", 2),
            ("-1,1,1,1", 2),
        ],
    )
    def test_space_form_equals_equals_form(self, amplitudes, code):
        argv = ["run", "--n", "2", "--outcome", "PHI+,PHI+"]
        spaced = call_main([*argv, "--input", amplitudes])
        assert spaced == call_main([*argv, f"--input={amplitudes}"])
        assert spaced[0] == code, spaced[2]
        assert "expected one argument" not in spaced[2]


class TestNegativeSeed:
    """A negative --seed exits 2 before any work, for every command that takes one."""

    ARGVS = [
        ["run", "--input", "ghz"],
        ["run", "--input", "ghz", "--outcome", "PHI+,PHI+"],
        ["run", "--input", "random"],
        ["mixed"],
        ["verify"],
        *(["verify", "--group", group] for group in teleclone.verify.GROUPS),
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    @pytest.mark.parametrize("seed", ["-1", "-18446744073709551616"])
    def test_refused_before_any_work(self, tmp_path, monkeypatch, argv, seed):
        calls = []

        def record(name):
            return lambda *args, **kwargs: calls.append(name)

        monkeypatch.setattr(cli, "CloneParams", record("CloneParams"))
        monkeypatch.setattr(teleclone.verify, "run_verification", record("run_verification"))
        out = tmp_path / "out"
        code, stdout, err = call_main([*argv, "--seed", seed, "--output", str(out)])
        assert (code, stdout, calls) == (2, "", [])
        assert err == f"error: --seed must be nonnegative, got {seed}\n"
        assert not out.exists()


class TestRunArguments:
    """Bad --input, --outcome and preset values exit 2 and write no transcript."""

    GARBAGE = ["", "abc", "1+", "0x1", "1..0", "--1", "(1", "i", "e", "1e", "j1", "+"]

    @staticmethod
    def unit_tokens(data, dim):
        amps = data.draw(
            st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=dim, max_size=dim)
            .filter(lambda a: np.linalg.norm(a) > 0.1)
        )
        return [repr(a) for a in (np.asarray(amps) / np.linalg.norm(amps)).tolist()]

    def bad_input(self, data, n):
        """(amplitude string or preset, whether --seed is given)."""
        dim = 1 << n
        kind = data.draw(
            st.sampled_from(["nonfinite", "count", "garbage", "norm", "basis", "bell", "random"])
        )
        if kind in ("nonfinite", "garbage"):
            tokens = self.unit_tokens(data, dim)
            bad = ["nan", "inf", "-inf", "nanj", "infj"] if kind == "nonfinite" else self.GARBAGE
            tokens[data.draw(st.integers(0, dim - 1))] = data.draw(st.sampled_from(bad))
            return ",".join(tokens), True
        if kind == "count":
            count = data.draw(st.integers(1, 9).filter(lambda c: c != dim))
            return ",".join(self.unit_tokens(data, count)), True
        if kind == "norm":
            scale = data.draw(
                # up to past the float range: a norm that overflows is refused the same way
                st.one_of(st.floats(0.0, 1.0 - 2e-6), st.floats(1.0 + 2e-6, 1e300))
            )
            return ",".join(repr(float(t) * scale) for t in self.unit_tokens(data, dim)), True
        if kind == "basis":
            index = data.draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=dim)))
            return f"basis-{index}", True
        if kind == "bell":
            return "bell", True  # n is never 2 here
        return "random", False

    def bad_outcome(self, data, n):
        labels = ["PHI+", "PHI-", "PSI+", "PSI-"]
        kind = data.draw(st.sampled_from(["unknown", "empty", "count"]))
        if kind == "count":
            count = data.draw(st.integers(1, 5).filter(lambda c: c != n))
            return ",".join(data.draw(st.lists(st.sampled_from(labels), min_size=count,
                                               max_size=count)))
        elements = data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
        bad = "" if kind == "empty" else data.draw(st.sampled_from(["PHI", "PSI*", "BELL", "X"]))
        elements[data.draw(st.integers(0, n - 1))] = bad
        return ",".join(elements)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bad_arguments_exit_2(self, tmp_path_factory, data):
        n = data.draw(st.sampled_from([1, 3]))
        if data.draw(st.booleans()):
            spec, seeded = self.bad_input(data, n)
            extra = "--seed=5" if seeded else "--outcome=" + ",".join(["PHI+"] * n)
        else:
            spec, extra = "ghz", "--outcome=" + self.bad_outcome(data, n)
        self.assert_refused(tmp_path_factory, n, spec, extra)

    def test_overflowing_norm_exit_2(self, tmp_path_factory):
        # the squared norm is past the float range: inf, refused by the norm gate
        self.assert_refused(tmp_path_factory, 2, "1e308,1e308,0,0", "--seed=1")

    @staticmethod
    def assert_refused(tmp_path_factory, n, spec, extra):
        out = tmp_path_factory.mktemp("run") / "t.json"
        # '=': an amplitude string such as '-0.5,...' is no flag
        argv = ["run", f"--n={n}", f"--input={spec}", extra, f"--output={out}"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic warns
            code = main(argv)
        assert code == 2, (argv, err.getvalue())
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert not out.exists()
