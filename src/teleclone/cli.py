"""Command-line front end: protocol runs, sweeps, and the invariant suite.

Exit codes: 0 success, 1 invariant failure (a failed verify check or a
MonotonicityError), 2 usage error: a bad argument, a register beyond the
20-qubit limit (refused before it is allocated, leaving no output file)
or running out of memory.  CSV output
uses '.' decimals, 12 significant digits, and LF line endings so that
identical configs produce byte-identical files; JSON output is sorted-key.
"""

import argparse
import contextlib
import csv
import json
import math
import sys

import numpy as np

from . import entanglement as ent
from . import mixed as mx
from . import protocol as pt
from . import verify
from .cloning import CloneParams, fidelity_curve
from .qstate import StateVector, uhlmann_fidelity


def _fmt(value) -> str:
    return f"{float(value):.12g}"


@contextlib.contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _write_csv(path: str | None, header, rows) -> None:
    with _open_output(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _emit_summary(summary: dict, to_stderr: bool) -> None:
    stream = sys.stderr if to_stderr else sys.stdout
    json.dump(summary, stream, sort_keys=True)
    stream.write("\n")


def _parse_input(spec: str, n: int, rng: np.random.Generator | None) -> StateVector:
    dim = 1 << n
    if spec == "bell":
        if n != 2:
            raise ValueError("preset 'bell' needs --n 2")
        spec = "ghz"
    if spec == "ghz":
        amps = np.zeros(dim, dtype=complex)
        amps[0] = amps[-1] = 1 / math.sqrt(2)
        return StateVector(amps, n)
    if spec == "random":
        if rng is None:
            raise ValueError("preset 'random' requires --seed")
        return StateVector.random(n, rng)
    if spec.startswith("basis-"):
        return StateVector.basis(int(spec[len("basis-"):]), n)
    try:
        amps = np.array([complex(tok.strip()) for tok in spec.split(",")], dtype=complex)
    except ValueError as exc:
        raise ValueError(f"could not parse amplitudes {spec!r}: {exc}") from exc
    if amps.size != dim:
        raise ValueError(f"expected {dim} amplitudes for n={n}, got {amps.size}")
    if abs(np.linalg.norm(amps) - 1.0) > 1e-6:
        raise ValueError(
            f"amplitudes have norm {np.linalg.norm(amps):.9f}, not 1 within 1e-6"
        )
    return StateVector(amps / np.linalg.norm(amps), n)


def cmd_run(args) -> int:
    params = CloneParams(p=args.p, n=args.n)
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    psi = _parse_input(args.input, args.n, rng)
    if args.outcome is not None:
        outcome = pt.BellOutcome.parse(args.outcome)
        if outcome.num_pairs != args.n:
            raise ValueError(f"outcome must list {args.n} Bell elements")
        transcript = pt.run(psi, params, outcome=outcome)
    else:
        if args.seed is None:
            raise ValueError("sampled mode requires an explicit --seed")
        transcript = pt.run(psi, params, seed=args.seed + 1)
    with _open_output(args.output) as handle:
        json.dump(transcript.to_json_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")
    return 0


def _delta_row(mu_value: float, p: float) -> list:
    f_b, f_c = fidelity_curve(p, 4)
    c_b = ent.clone_concurrence(mu_value, float(f_b))
    c_c = ent.clone_concurrence(mu_value, float(f_c))
    return [
        _fmt(mu_value),
        _fmt(p),
        _fmt(f_b),
        _fmt(f_c),
        _fmt(c_b),
        _fmt(c_c),
        _fmt(ent.delta(mu_value, p)),
    ]


_DELTA_HEADER = ["mu", "p", "f_b", "f_c", "c_b", "c_c", "delta"]


def _region_info(mu_value: float) -> dict:
    if ent.MU_THRESHOLD < mu_value < 0.5:
        lo, hi = ent.physical_region(mu_value)
        return {"physical_region": [lo, hi]}
    return {
        "physical_region": None,
        "note": "no p with both clone concurrences positive",
    }


def cmd_sweep_delta(args) -> int:
    summary_to_stderr = args.output is None
    if args.mu is not None and args.p is not None:
        _write_csv(args.output, _DELTA_HEADER, [_delta_row(args.mu, args.p)])
        summary = {"delta": float(ent.delta(args.mu, args.p)), **_region_info(args.mu)}
        _emit_summary(summary, summary_to_stderr)
        return 0
    if args.mu is not None:
        ps = np.linspace(0.0, 1.0, int(round(1.0 / args.p_step)) + 1)
        rows = [_delta_row(args.mu, float(p)) for p in ps]
        _write_csv(args.output, _DELTA_HEADER, rows)
        values = ent.delta(args.mu, ps)
        summary = {
            "rows": len(rows),
            "min_delta": float(values.min()),
            "violations": int(np.sum(values < -1e-9)),
            **_region_info(args.mu),
        }
        _emit_summary(summary, summary_to_stderr)
        return 0

    grid = ent.SweepGrid(mu_step=args.mu_step, p_step=args.p_step)
    report = ent.sweep_delta(grid)
    rows = []
    for mi, mu_value in enumerate(report.mu_values):
        for pi, p in enumerate(report.p_values):
            rows.append(
                [
                    _fmt(mu_value),
                    _fmt(p),
                    _fmt(report.fidelity_b[pi]),
                    _fmt(report.fidelity_c[pi]),
                    _fmt(report.concurrence_b[mi, pi]),
                    _fmt(report.concurrence_c[mi, pi]),
                    _fmt(report.delta_values[mi, pi]),
                ]
            )
    _write_csv(args.output, _DELTA_HEADER, rows)
    _emit_summary(report.summary(), summary_to_stderr)
    return 0


def cmd_sweep_fidelity(args) -> int:
    params_check = CloneParams(p=0.0, n=args.n)  # validates n
    ps = np.linspace(0.0, 1.0, int(round(1.0 / args.p_step)) + 1)
    f_b, f_c = fidelity_curve(ps, params_check.d)
    rows = [
        [_fmt(p), _fmt(1.0 - p), _fmt(fb), _fmt(fc)]
        for p, fb, fc in zip(ps, f_b, f_c)
    ]
    _write_csv(args.output, ["p", "q", "f_b", "f_c"], rows)
    summary = {
        "rows": len(rows),
        "d": params_check.d,
        "f_b_range": [float(f_b.min()), float(f_b.max())],
        "f_c_range": [float(f_c.min()), float(f_c.max())],
        "f_b_nondecreasing": bool(np.all(np.diff(f_b) >= -1e-15)),
        "f_c_nonincreasing": bool(np.all(np.diff(f_c) <= 1e-15)),
    }
    _emit_summary(summary, args.output is None)
    return 0


def cmd_mixed(args) -> int:
    mixed_dim = 1 << args.n
    rng = np.random.default_rng(args.seed)
    plans = [np.eye(mixed_dim)[k] for k in range(mixed_dim)]
    plans.append(np.full(mixed_dim, 1.0 / mixed_dim))
    plans.extend(mx.sample_simplex(mixed_dim, args.samples, rng))

    rows = []
    violations = 0
    records = []
    for alphas in plans:
        mixed = mx.MixedInput(np.asarray(alphas, dtype=float), args.n)
        params = mixed.protocol_params(args.p)
        f_mixed = mx.mixed_fidelity(mixed, params)
        lower, _ = mx.fidelity_bounds(params)
        f_pure, _ = fidelity_curve(args.p, params.d)
        ok = lower - 1e-9 <= f_mixed <= 1.0 + 1e-9 and f_mixed >= float(f_pure) - 1e-9
        violations += 0 if ok else 1
        records.append((mixed, params, f_mixed))
        rows.append(
            [_fmt(a) for a in mixed.alphas]
            + [_fmt(args.p), _fmt(f_mixed), _fmt(lower), _fmt(f_pure), str(int(ok))]
        )

    # cross-check a few rows against the full simulation before writing
    check_count = 3 if args.n == 1 else 2
    sim_err = 0.0
    for mixed, params, f_formula in records[:check_count]:
        rho_b, _, _, _ = mx.teleclone_mixed(mixed, params)
        sim_err = max(
            sim_err, abs(uhlmann_fidelity(mixed.density(), rho_b) - f_formula)
        )

    header = [f"alpha_{k}" for k in range(mixed_dim)] + [
        "p",
        "f_mixed",
        "lower_bound",
        "f_pure",
        "ok",
    ]
    _write_csv(args.output, header, rows)
    summary = {
        "rows": len(rows),
        "violations": violations,
        "simulated_instances": check_count,
        "max_sim_formula_error": sim_err,
    }
    _emit_summary(summary, args.output is None)
    return 0


def cmd_verify(args) -> int:
    groups = args.group.split(",") if args.group else None
    results = verify.run_verification(groups, seed=args.seed)
    passed = all(r.passed for r in results)
    report = {"passed": passed, "groups": [r.to_json_dict() for r in results]}
    with _open_output(args.output) as handle:
        json.dump(report, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teleclone",
        description="Simulate and verify 1->2 asymmetric telecloning of multiqubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one protocol round, transcript as JSON")
    p_run.add_argument("--n", type=int, default=2, help="qubits in the input state")
    p_run.add_argument("--p", type=float, default=0.5, help="asymmetry weight in [0,1]")
    p_run.add_argument(
        "--input",
        required=True,
        help="amplitudes 'a0,a1,...' or preset bell|ghz|random|basis-K",
    )
    p_run.add_argument(
        "--outcome", help="forced Bell outcome like 'PHI+,PSI-' (default: sampled)"
    )
    p_run.add_argument("--seed", type=int, help="64-bit seed (required for sampling)")
    p_run.add_argument("--output", help="transcript path (default stdout)")
    p_run.set_defaults(func=cmd_run)

    p_delta = sub.add_parser(
        "sweep-delta", help="entanglement-gap sweep over (mu, p); CSV plus summary"
    )
    p_delta.add_argument("--mu", type=float, help="restrict to a single mu")
    p_delta.add_argument("--p", type=float, help="with --mu: evaluate a single point")
    p_delta.add_argument("--mu-step", type=float, default=0.005)
    p_delta.add_argument("--p-step", type=float, default=0.001)
    p_delta.add_argument("--output", help="CSV path (default stdout)")
    p_delta.set_defaults(func=cmd_sweep_delta)

    p_fid = sub.add_parser(
        "sweep-fidelity", help="closed-form clone fidelities over a p grid"
    )
    p_fid.add_argument("--n", type=int, default=2)
    p_fid.add_argument("--p-step", type=float, default=0.01)
    p_fid.add_argument("--output", help="CSV path (default stdout)")
    p_fid.set_defaults(func=cmd_sweep_fidelity)

    p_mixed = sub.add_parser(
        "mixed", help="mixed-state fidelity bound sweep over the simplex"
    )
    p_mixed.add_argument("--n", type=int, default=1, help="qubits of the mixed state")
    p_mixed.add_argument("--p", type=float, default=0.5)
    p_mixed.add_argument("--samples", type=int, default=100)
    p_mixed.add_argument("--seed", type=int, required=True)
    p_mixed.add_argument("--output", help="CSV path (default stdout)")
    p_mixed.set_defaults(func=cmd_mixed)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument(
        "--group", help=f"comma-separated subset of {','.join(verify.GROUPS)}"
    )
    p_verify.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p_verify.add_argument("--output", help="report path (default stdout)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except mx.MonotonicityError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
