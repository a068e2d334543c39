"""One measured process of a benchmark run; started by run.py, not by hand.

Untraced (`--trace 0`) it measures set-up and the timed ops; traced
(`--trace 1`) it runs every op untraced and then replays it stage by
stage (see replay.py).  The raw samples go to stdout as one JSON line.
"""

import time

# set-up time counts from here, before numpy or teleclone is imported
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

#: failure messages kept per worker
MAX_MESSAGES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    return parser.parse_args(argv)


def _problem_text() -> list:
    return [traceback.format_exc(limit=3).strip().splitlines()[-1]]


def warm_up(workload) -> list:
    """Run and check the warm-up op; returns its problems."""
    op = workload.warmup
    try:
        return workload.check(op, workload.digest(op, workload.run_op(op)))
    except Exception:  # a broken op is reported, not fatal to the run
        return _problem_text()


def measure(workload, seconds: float, step) -> dict:
    """Run the warm-up op, then `step(op)` until `seconds` have passed.

    `step` returns (latency ms, problems, traced ms or None, timings or
    None) for one op; timings are the workload's [(kind, ms)] of a
    verified untraced op.  The timed phase also ends, early, if the
    workload's input pool runs out.
    """
    failures = [f"warm-up: {p}" for p in warm_up(workload)]

    latencies, traced, timings = [], [], []
    attempted = failed = 0
    exhausted = True
    start = time.perf_counter()
    setup_s = start - T0
    for index, op in enumerate(workload.ops()):
        latency, problems, traced_ms, op_timings = step(index, op)
        latencies.append(latency)
        traced.append(traced_ms)
        timings.append(op_timings)
        attempted += 1
        if problems:
            failed += 1
            if len(failures) < MAX_MESSAGES:
                failures.append(f"op {index}: {'; '.join(problems)}")
        if time.perf_counter() - start >= seconds:
            exhausted = False
            break
    return {
        "setup_s": setup_s,
        "wall_s": time.perf_counter() - start,
        "latencies_ms": latencies,
        "timings": timings,
        "traced_ms": traced,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pool_exhausted": exhausted,
    }


def untraced_step(workload):
    def step(index, op):
        start = time.perf_counter()
        try:
            raw = workload.run_op(op)
        except Exception:
            return (time.perf_counter() - start) * 1e3, _problem_text(), None, None
        latency = (time.perf_counter() - start) * 1e3
        try:
            problems = workload.check(op, workload.digest(op, raw))
        except Exception:
            problems = _problem_text()
        return latency, problems, None, None if problems else workload.timings(op, latency)

    return step


def traced_step(replayer):
    def step(index, op):
        replayer.tr.op_id = index
        try:
            raw, untraced_ms = replayer.reference(op)
            problems, traced_ms = replayer.replay(op, raw)
        except Exception:
            return 0.0, _problem_text(), None, None
        return untraced_ms, problems, traced_ms, None

    return step


def layer_samples(tracer) -> dict:
    """Per-op samples of every traced metric, plus cli.csv_ms per session."""
    per_op = tracer.per_op()
    sweep_cli = per_op.get("cli.sweep_delta_ms", {})
    sweep_direct = per_op.get("entanglement.sweep_ms", {})
    per_op["cli.csv_ms"] = {
        op: sweep_cli[op] - sweep_direct[op] for op in sweep_cli if op in sweep_direct
    }
    return {metric: list(values.values()) for metric, values in per_op.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import numpy as np

    import workloads
    from replay import OpReplayer, Tracer

    args.out_dir.mkdir(parents=True, exist_ok=True)
    cli_dir = args.out_dir / f"cli-{args.workload}-part{args.part}"
    workload = workloads.make_workload(
        args.workload, args.seed, args.part, args.seconds, cli_dir
    )
    tracer = Tracer() if args.trace else None
    workload.setup(tracer)
    try:
        if tracer is None:
            result = measure(workload, args.seconds, untraced_step(workload))
        else:
            replayer = OpReplayer(workload, tracer)
            result = measure(workload, args.seconds, traced_step(replayer))
            result["layers"] = layer_samples(tracer)
            result["counts"] = {
                "protocol.rounds": replayer.rounds,
                "protocol.fail": replayer.round_failures,
                "cli.fail": replayer.session_failures,
            }
            result["absent"] = tracer.absent
            spans = args.out_dir / f"spans-{args.workload}-seed{args.seed}-part{args.part}.jsonl"
            tracer.write(spans, {"workload": args.workload, "seed": args.seed,
                                 "part": args.part, "unit": "ns, perf_counter"})
            result["spans_file"] = str(spans)
    finally:
        if cli_dir.exists():
            for path in cli_dir.iterdir():
                path.unlink()
            cli_dir.rmdir()
    if tracer is None:
        result["traced_ms"] = None
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["reference_sha256"] = getattr(workload, "reference", None)
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_description(np),
        "teleclone": getattr(workloads.teleclone, "__version__", "unknown"),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def blas_description(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        return "unknown"
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


if __name__ == "__main__":
    sys.exit(main())
