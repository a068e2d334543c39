"""Tests of the benchmark itself: its report, its checker and its inputs.

Run from the repository root:

    python3 -m unittest discover -s benchmark/tests
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from replay import OpReplayer, Tracer, compare_round  # noqa: E402


def tiny_run(workload: str, trace: int = 0, seed: int = 3) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[:-1], json.loads(lines[-1]) if lines else None


class TestReport(unittest.TestCase):
    def test_every_end_to_end_metric_with_its_unit(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                code, report, result = tiny_run(name)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                for metric, unit in run.END_TO_END:
                    self.assertEqual(result["metrics"][metric]["unit"], unit)
                    self.assertGreater(result["metrics"][metric]["value"], 0)
                    line = next(x for x in report if x.startswith(metric + " "))
                    self.assertIn(f" {unit} ", line)
                self.assertEqual(set(result["metrics"]), {m for m, _ in run.END_TO_END})
                for extra in ("fail_ratio", "ops_per_s", "op_ms_p50", "op_ms_p90"):
                    self.assertTrue(any(x.startswith(extra + " ") for x in report))

    def test_traced_run_reports_every_layer_metric(self):
        code, report, result = tiny_run("seeded20", trace=1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(
            {m: v["unit"] for m, v in result["metrics"].items()}, dict(run.PER_LAYER)
        )
        metrics = {m: v["value"] for m, v in result["metrics"].items()}
        self.assertGreater(metrics["protocol.rounds"], 0)
        self.assertEqual(metrics["protocol.fail"], 0)
        self.assertEqual(metrics["protocol.state_mib"], 16.0)
        self.assertGreater(metrics["mixed.round_ms"], 0)

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )

    def test_exits_nonzero_without_the_package(self):
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
            copy = Path(bare) / "benchmark"
            copy.mkdir()
            for path in BENCH.glob("*.py"):
                (copy / path.name).write_bytes(path.read_bytes())
            proc = subprocess.run(
                [sys.executable, "benchmark/run.py", "--workload", "allout",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60, check=False,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TestChecker(unittest.TestCase):
    def setUp(self):
        self.workload = workloads.make_workload("allout", 5, 0, 0.01, None)
        self.workload.setup()
        self.ops = list(self.workload.ops())[:20]

    def test_clean_rounds_pass(self):
        for op in self.ops:
            record = self.workload.digest(op, self.workload.run_op(op))
            self.assertEqual(self.workload.check(op, record), [])

    def test_corrupted_transcript_is_flagged_and_counted(self):
        corrupt = 7

        def step(index, op):
            record = self.workload.digest(op, self.workload.run_op(op))
            if index == corrupt:
                record["target_overlap"] = 1.0 - 1e-6
            return 1.0, self.workload.check(op, record), None, [("round", 1.0)]

        result = worker.measure(_Limited(self.workload, self.ops), 1e9, step)
        result.update(maxrss_kb=1024, traced_ms=None)
        self.assertEqual(result["attempted"], len(self.ops))
        self.assertEqual(result["failed"], 1)
        self.assertIn(f"op {corrupt}: target_overlap", result["failures"][0])
        metrics, _, extra = run.end_to_end([result])
        self.assertAlmostEqual(extra["fail_ratio"][0], 1 / len(self.ops))

    def test_best_op_is_rebuilt_from_the_fastest_of_each_kind(self):
        parts = [
            {"timings": [[("a", 3.0), ("b", 5.0)], None, [("a", 2.0), ("b", 7.0)]]},
            {"timings": [[("a", 4.0), ("b", 4.0)]]},
        ]
        self.assertEqual(run.best_op_ms(parts), (6.0, 2))
        self.assertEqual(run.best_op_ms([{"timings": [None]}]), (0.0, 0))

    def test_each_round_check_catches_its_field(self):
        op = self.ops[0]
        clean = self.workload.digest(op, self.workload.run_op(op))
        for key, bad in (("fidelity_b", 0.5), ("fidelity_c", 0.5),
                         ("probability", 0.5), ("outcome", "PSI-,PSI-")):
            with self.subTest(field=key):
                self.assertNotEqual(self.workload.check(op, dict(clean, **{key: bad})), [])

    def test_mixed_check(self):
        self.assertEqual(workloads.check_mixed({"f_simulated": 0.9, "f_formula": 0.9}), [])
        self.assertNotEqual(
            workloads.check_mixed({"f_simulated": 0.9, "f_formula": 0.9 + 1e-7}), []
        )


    def test_cli_check_flags_changed_output_and_failed_invariants(self):
        session = workloads.make_workload("cli", 5, 0, 1, run.OUT_DIR / "unused")
        entry = {"code": 0, "sha256": "a", "bytes": 1, "summary": None,
                 "stderr": "", "payload": None}
        record = {c: dict(entry) for c, _ in workloads.CLI_COMMANDS}
        record["sweep-delta"]["summary"] = {"violations": 0}
        record["mixed"]["summary"] = {"violations": 0}
        record["verify"]["payload"] = {"passed": True}
        record["run"]["payload"] = {"target_overlap": 1.0}
        session.reference = {c: "a" for c in record}
        self.assertEqual(session.check(session.session, record), [])
        for command, key, bad in (("sweep-fidelity", "sha256", "b"),
                                  ("run", "code", 2),
                                  ("sweep-delta", "summary", {"violations": 3}),
                                  ("verify", "payload", {"passed": False}),
                                  ("run", "payload", {"target_overlap": 0.5})):
            with self.subTest(command=command, field=key):
                broken = dict(record, **{command: dict(record[command], **{key: bad})})
                self.assertNotEqual(session.check(session.session, broken), [])


class _Limited:
    """A workload whose ops are a fixed list."""

    def __init__(self, workload, ops):
        self._workload, self._ops = workload, ops

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def ops(self):
        return iter(self._ops)


class TestReplay(unittest.TestCase):
    def test_replay_matches_untraced_rounds(self):
        for name in ("allout", "seeded20"):
            with self.subTest(workload=name):
                workload = workloads.make_workload(name, 9, 0, 0.002, None)
                tracer = Tracer()
                workload.setup(tracer)
                replayer = OpReplayer(workload, tracer)
                for index, op in zip(range(4 if name == "seeded20" else 20), workload.ops()):
                    tracer.op_id = index
                    raw, _ = replayer.reference(op)
                    problems, traced_ms = replayer.replay(op, raw)
                    self.assertEqual(problems, [])
                    self.assertIsNotNone(traced_ms)
                self.assertEqual(replayer.round_failures, 0)
                self.assertEqual(tracer.absent, {})

    def test_compare_round_flags_a_mismatch(self):
        record = {"outcome": "PHI+,PHI+", "probability": 0.0625, "fidelity_b": 0.7,
                  "fidelity_c": 0.7, "target_overlap": 1.0}
        self.assertEqual(compare_round(record, dict(record)), [])
        self.assertNotEqual(compare_round(record, dict(record, fidelity_b=0.7 + 1e-11)), [])
        self.assertNotEqual(compare_round(record, dict(record, outcome="PHI-,PHI+")), [])

    def test_absent_stage_is_recorded_not_failed(self):
        tracer = Tracer()
        tracer._functions["measure_senders"] = None
        workload = workloads.make_workload("allout", 9, 0, 0.002, None)
        workload.setup(tracer)
        replayer = OpReplayer(workload, tracer)
        op = next(iter(workload.ops()))
        raw, _ = replayer.reference(op)
        self.assertEqual(replayer.replay(op, raw), ([], None))
        self.assertEqual(replayer.round_failures, 0)


class TestInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = workloads.make_workload("seeded20", 42, 1, 0.01, None)
        b = workloads.make_workload("seeded20", 42, 1, 0.01, None)
        np.testing.assert_array_equal(a.run_inputs, b.run_inputs)
        np.testing.assert_array_equal(a.run_seeds, b.run_seeds)
        np.testing.assert_array_equal(a.mixed_inputs, b.mixed_inputs)
        c = workloads.make_workload("allout", 42, 1, 0.01, None)
        d = workloads.make_workload("allout", 42, 1, 0.01, None)
        for n in c.inputs:
            np.testing.assert_array_equal(c.inputs[n], d.inputs[n])

    def test_different_seeds_different_inputs(self):
        a = workloads.make_workload("seeded20", 42, 1, 0.01, None)
        b = workloads.make_workload("seeded20", 43, 1, 0.01, None)
        self.assertFalse(np.array_equal(a.run_inputs, b.run_inputs))
        self.assertFalse(np.array_equal(a.run_seeds, b.run_seeds))
        self.assertFalse(np.array_equal(a.mixed_inputs, b.mixed_inputs))
        c = workloads.make_workload("allout", 42, 1, 0.01, None)
        d = workloads.make_workload("allout", 43, 1, 0.01, None)
        for n in c.inputs:
            self.assertFalse(np.array_equal(c.inputs[n], d.inputs[n]))
        self.assertNotEqual(workloads.session_seed(42), workloads.session_seed(43))
        self.assertEqual(workloads.session_seed(42), workloads.session_seed(42))

    def test_workers_of_one_run_get_different_inputs(self):
        a = workloads.make_workload("seeded20", 42, 0, 0.01, None)
        b = workloads.make_workload("seeded20", 42, 1, 0.01, None)
        self.assertFalse(np.array_equal(a.run_inputs, b.run_inputs))

    def test_inputs_are_normalized(self):
        workload = workloads.make_workload("seeded20", 1, 0, 0.01, None)
        np.testing.assert_allclose(np.linalg.norm(workload.run_inputs, axis=1), 1.0)
        np.testing.assert_allclose(workload.mixed_inputs.sum(axis=1), 1.0)


if __name__ == "__main__":
    unittest.main()
