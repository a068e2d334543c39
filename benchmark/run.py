"""Benchmark of the teleclone package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload allout --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seconds 8

Each run starts several fresh worker processes one after another
(benchmark/worker.py, BLAS limited to one thread); each sets up from
scratch and then measures an equal share of `--seconds`.  All inputs come
from `--seed`.  Every op's output is checked.  The report lines name each
metric with its unit; the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With `--trace 0` the
metrics are END_TO_END; with `--trace 1` they are PER_LAYER, taken from a
stage-by-stage replay of every op (benchmark/replay.py).

The run needs the package source under src/; without it, it exits 2.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "teleclone" / "__init__.py"
WORKER = HERE / "worker.py"
#: spans, results and cli outputs; inside the checkout, ignored by git
OUT_DIR = ROOT / ".bench_out"

#: name -> why, as in BENCHMARK.json; see NOTES.md for what each should move
WORKLOADS = {
    "allout": "every forced outcome of each input at n=2,3: bound by call overhead "
    "and validation, with work shared between ops; states fit in L2",
    "seeded20": "sampled rounds on 20-qubit registers, no input repeats: bound by "
    "memory bandwidth on 16 MiB states; shared-input caches cannot help",
    "cli": "the documented commands at default arguments: sweep numerics, verify "
    "groups and CSV formatting, with little protocol work",
}

#: (name, unit) of every metric a --trace 0 run reports
END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_best", "ms"),
    ("peak_rss_mb", "MB"),
)

#: per-op medians of stage self time from the traced replay
_LAYER_TIMES = (
    "protocol.channel_ms",
    "protocol.attach_ms",
    "protocol.measure_ms",
    "protocol.correct_ms",
    "qstate.reduce_ms",
    "qstate.density_validate_ms",
    "qstate.fidelity_ms",
    "cloning.target_ms",
    "mixed.purify_ms",
    "mixed.trace_ms",
    "mixed.round_ms",
    "entanglement.sweep_ms",
    "verify.qstate_ms",
    "verify.transformations_ms",
    "verify.channel_ms",
    "verify.protocol_ms",
    "verify.entanglement_ms",
    "verify.mixed_ms",
    "verify.outcomes_ms",
    "cli.sweep_delta_ms",
    "cli.verify_ms",
    "cli.sweep_fidelity_ms",
    "cli.mixed_ms",
    "cli.run_ms",
    "cli.csv_ms",
)
#: per-op medians of sizes
_LAYER_GAUGES = {"protocol.state_mib": "MiB", "cli.rows": "count", "cli.csv_bytes": "B"}
#: totals over the run
_LAYER_COUNTS = ("protocol.rounds", "protocol.fail", "cli.fail")

#: (name, unit) of every metric a --trace 1 run reports
PER_LAYER = (
    tuple((name, "ms") for name in _LAYER_TIMES)
    + tuple(_LAYER_GAUGES.items())
    + tuple((name, "count") for name in _LAYER_COUNTS)
    + (("bench.trace_overhead_ms", "ms"), ("bench.absent_stages", "count"))
)

#: a worker per SECONDS_PER_PART[workload] of budget, at most MAX_PARTS;
#: each one sets up from scratch, so set-up is measured once per worker.
#: cli gets longer shares because its set-up includes a whole warm-up session
SECONDS_PER_PART = {"allout": 3, "seeded20": 3, "cli": 5}
MAX_PARTS = 10
#: p90 is reported only from this many ops on
MIN_OPS_FOR_P90 = 100
#: a run gives up (exit 1, no result) this long after it starts
RUN_DEADLINE_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: states of the n=3 (allout) and n=4 (seeded20) rounds: 5n qubits, complex128
STATE_BYTES = {"n=3": 16 << 15, "n=4": 16 << 20}


class BenchmarkError(RuntimeError):
    """A worker failed or the run ran out of time; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30, help="timed budget, 1..60")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")
    return args


def parts_for(workload: str, seconds: int) -> int:
    return max(1, min(MAX_PARTS, int(seconds // SECONDS_PER_PART[workload])))


def run_part(workload: str, seed: int, part: int, seconds: float, trace: int,
             deadline: float) -> dict:
    command = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--part", str(part), "--seconds", repr(seconds), "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ]
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before all workers ran")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=remaining, check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker {part} of {workload} timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {part} of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def best_op_ms(parts: list) -> tuple:
    """(ms, kinds): the mean verified op, rebuilt from the lowest time of
    each of its kinds in the run.

    Ops (or, in cli, commands) of one kind do the same work on different
    inputs.  The shared host's slow spells only ever add time, so the
    fastest of a kind is the figure they move least; rebuilding every op
    keeps the workload's mix.  0.0 when no op was verified.
    """
    ops = [t for part in parts for t in part["timings"] if t]
    best = {}
    for timings in ops:
        for kind, ms in timings:
            best[kind] = min(ms, best.get(kind, ms))
    if not ops:
        return 0.0, 0
    return statistics.fmean(sum(best[k] for k, _ in t) for t in ops), len(best)


def end_to_end(parts: list) -> tuple:
    """(metrics, notes, extra): END_TO_END values, their notes, report-only figures."""
    latencies = [x for p in parts for x in p["latencies_ms"]]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    wall_s = sum(p["wall_s"] for p in parts)
    best_ms, kinds = best_op_ms(parts)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "op_ms_best": best_ms,
        "peak_rss_mb": max(p["maxrss_kb"] for p in parts) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(parts)} process set-ups: "
        + " ".join(f"{p['setup_s']:.3f}" for p in parts),
        "op_ms_best": f"mean of {attempted - failed} verified ops, each rebuilt "
        f"from the lowest time of its kinds ({kinds} kinds in the run)",
        "peak_rss_mb": f"largest ru_maxrss of {len(parts)} workers",
    }
    extra = {
        "fail_ratio": (failed / attempted, "ratio", f"{failed}/{attempted} ops"),
        "ops_per_s": ((attempted - failed) / wall_s, "1/s",
                      f"verified ops over {wall_s:.2f} s"),
        "op_ms_p50": (statistics.median(latencies), "ms", f"n={len(latencies)}"),
    }
    if len(latencies) >= MIN_OPS_FOR_P90:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
        extra["op_ms_p90"] = (p90, "ms", f"n={len(latencies)}")
    return metrics, notes, extra


def per_layer(parts: list) -> tuple:
    """(metrics, notes) for PER_LAYER from the workers' replay samples."""
    samples, counts, absent = {}, {}, {}
    for part in parts:
        for name, values in part["layers"].items():
            samples.setdefault(name, []).extend(values)
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0) + value
        absent.update(part["absent"])
    metrics, notes = {}, {}
    for name in (*_LAYER_TIMES, *_LAYER_GAUGES):
        values = samples.get(name)
        if values:
            metrics[name] = statistics.median(values)
            notes[name] = f"median of {len(values)} samples (one per op or set-up)"
        else:
            metrics[name] = 0.0
            notes[name] = "not exercised by this workload (or its stage is absent)"
    metrics.update({name: counts.get(name, 0) for name in _LAYER_COUNTS})
    pairs = [(u, t) for p in parts for u, t in zip(p["latencies_ms"], p["traced_ms"])
             if t is not None]
    if pairs:
        untraced = statistics.median(u for u, _ in pairs)
        traced = statistics.median(t for _, t in pairs)
        metrics["bench.trace_overhead_ms"] = traced - untraced
        notes["bench.trace_overhead_ms"] = (
            f"traced replay p50 {traced:.4f} ms - untraced op p50 {untraced:.4f} ms"
        )
    else:
        metrics["bench.trace_overhead_ms"] = 0.0
        notes["bench.trace_overhead_ms"] = "no op was replayed"
    metrics["bench.absent_stages"] = len(absent)
    for name, reason in sorted(absent.items()):
        notes.setdefault("absent", []).append(f"{name}: {reason}")
    return metrics, notes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unresolved {ref}"


def cache_sizes() -> dict:
    """Data and unified cache sizes of cpu0, read from /sys (read only)."""
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes or {"unknown": "no cache information in /sys"}


def provenance(args, workload: str, parts: list) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": sys.argv,
        "git_commit": git_commit(),
        "nproc": cpus,
        "machine": platform.machine(),
        "versions": parts[0]["versions"],
        "blas_threads_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_workers": {v: "1" for v in THREAD_VARS},
        "workers": len(parts),
        "ops_per_worker": [p["attempted"] for p in parts],
        "pool_exhausted": any(p["pool_exhausted"] for p in parts),
        "state_bytes": STATE_BYTES,
        "caches": cache_sizes(),
    }


def check_parts(parts: list) -> list:
    """Failure messages of the workers, and cli output that differs between them."""
    problems = []
    for index, part in enumerate(parts):
        problems += [f"worker {index}: {f}" for f in part["failures"]]
    references = {json.dumps(p["reference_sha256"], sort_keys=True) for p in parts}
    if len(references) > 1:
        problems.append("cli outputs differ between workers")
    return problems


def run_workload(args, workload: str, deadline: float) -> dict:
    count = parts_for(workload, args.seconds)
    share = args.seconds / count
    parts = [run_part(workload, args.seed, i, share, args.trace, deadline)
             for i in range(count)]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    problems = check_parts(parts)
    if args.trace:
        metrics, notes = per_layer(parts)
        units, extra = dict(PER_LAYER), {}
    else:
        metrics, notes, extra = end_to_end(parts)
        units = dict(END_TO_END)
    correct = failed == 0 and attempted >= 1 and not problems
    info = provenance(args, workload, parts)

    print(f"# teleclone benchmark  workload={workload}  seed={args.seed}  "
          f"trace={args.trace}  workers={count} x {share:g} s")
    print(f"# why: {WORKLOADS[workload]}")
    print("# provenance: " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]:<6} {notes.get(name, '')}")
    for name, (value, unit, note) in extra.items():
        print(f"{name:<28} {value:>14.6g} {unit:<6} {note} (report only)")
    if not args.trace and "op_ms_p90" not in extra:
        print(f"{'op_ms_p90':<28} {'-':>14} {'ms':<6} fewer than "
              f"{MIN_OPS_FOR_P90} ops in this run (report only)")
    for line in notes.get("absent", []):
        print(f"# absent: {line}")
    if args.trace:
        print("# spans: " + " ".join(
            str(Path(p["spans_file"]).relative_to(ROOT)) for p in parts))
    print("# wait time: not reported; no layer queues or waits on another worker")
    for problem in problems[:10]:
        print(f"# problem: {problem}")

    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(result, provenance=info, report_only={k: v[0] for k, v in extra.items()},
                  problems=problems)
    path = OUT_DIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: package source {PACKAGE.relative_to(ROOT)} not found",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_DEADLINE_S
            results[name] = run_workload(args, name, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    for result in results.values():
        print(json.dumps(result))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
