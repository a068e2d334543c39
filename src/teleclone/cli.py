"""Command-line front end: protocol runs, sweeps, and the invariant suite.

Exit codes: 0 success, 1 invariant failure (a failed verify check or a
MonotonicityError), 2 usage error: a bad argument, a register beyond the
20-qubit limit (refused before it is allocated, leaving no output file),
running out of memory, or an unexpected exception, reported as an
internal error with its traceback.  CSV cells are '%.12g' numbers ('.'
decimals, 12 significant digits), never quoted, with LF line endings, so
that identical configs produce byte-identical files; JSON output is
sorted-key.
"""

import argparse
import contextlib
import json
import math
import re
import sys
import traceback

import numpy as np

from . import entanglement as ent
from . import mixed as mx
from . import protocol as pt
from . import verify
from .cloning import CloneParams, fidelity_curve
from .qstate import StateVector, _check_register_size, uhlmann_fidelity


@contextlib.contextmanager
def _open_output(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _rows(template: str, *columns) -> str:
    """One `template % row` line per index of the equal-length columns.

    Each numpy column is converted to Python scalars once; '%.12g' is the
    same text as format(float(x), '.12g') for every float, and never
    contains a comma, quote or newline, so no cell needs CSV quoting.
    """
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return "".join(template % row for row in zip(*lists))


def _write_csv(path: str | None, header, body: str) -> None:
    """Write the header line and the formatted body in one write."""
    text = ",".join(header) + "\n" + body
    with _open_output(path) as handle:
        handle.write(text)


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
    if not abs(np.linalg.norm(amps) - 1.0) <= 1e-6:  # NaN fails it too
        raise ValueError(
            f"amplitudes have norm {np.linalg.norm(amps):.9f}, not 1 within 1e-6"
        )
    return StateVector(amps / np.linalg.norm(amps), n)


def cmd_run(args) -> int:
    params = CloneParams(p=args.p, n=args.n)
    _check_register_size(5 * args.n)  # before the input's 2^n amplitudes
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


_DELTA_HEADER = ["mu", "p", "f_b", "f_c", "c_b", "c_c", "delta"]


def _delta_rows(mu_values, p_values, f_b, f_c, c_b, c_c, values) -> str:
    """sweep-delta CSV rows, mu-major; c_b, c_c and values are (mu, p) grids.

    The (p, f_b, f_c) cells are the same for every mu, so they are
    formatted once; each mu is formatted once into its row template.
    """
    shared = _rows("%.12g,%.12g,%.12g\n", p_values, f_b, f_c).splitlines()
    return "".join(
        _rows("%.12g,%%s,%%.12g,%%.12g,%%.12g\n" % mu_value, shared, cb, cc, d)
        for mu_value, cb, cc, d in zip(mu_values.tolist(), c_b, c_c, values)
    )


def _region_info(mu_value: float) -> dict:
    if ent.MU_THRESHOLD < mu_value < 0.5:
        lo, hi = ent.physical_region(mu_value)
        return {"physical_region": [lo, hi]}
    return {
        "physical_region": None,
        "note": "no p with both clone concurrences positive",
    }


def cmd_sweep_delta(args) -> int:
    if args.mu is None:
        report = ent.sweep_delta(ent.SweepGrid(mu_step=args.mu_step, p_step=args.p_step))
        body = _delta_rows(
            report.mu_values,
            report.p_values,
            report.fidelity_b,
            report.fidelity_c,
            report.concurrence_b,
            report.concurrence_c,
            report.delta_values,
        )
        summary = report.summary()
    else:
        if args.p is not None:
            ps = np.array([args.p])
        else:
            ps = ent.SweepGrid(p_step=args.p_step).p_values()
        values = ent.delta(args.mu, ps)  # validates mu and p first
        f_b, f_c = fidelity_curve(ps, 4)
        c_b = ent.clone_concurrence(args.mu, f_b)
        c_c = ent.clone_concurrence(args.mu, f_c)
        body = _delta_rows(
            np.array([args.mu]), ps, f_b, f_c, c_b[None], c_c[None], values[None]
        )
        if args.p is not None:
            summary = {"delta": float(values[0])}
        else:
            summary = {
                "rows": int(ps.size),
                "min_delta": float(values.min()),
                "violations": int(np.sum(values < -1e-9)),
            }
        summary.update(_region_info(args.mu))
    _write_csv(args.output, _DELTA_HEADER, body)
    _emit_summary(summary, args.output is None)
    return 0


def cmd_sweep_fidelity(args) -> int:
    params_check = CloneParams(p=0.0, n=args.n)  # validates n
    ps = ent.SweepGrid(p_step=args.p_step).p_values()
    f_b, f_c = fidelity_curve(ps, params_check.d)
    body = _rows("%.12g,%.12g,%.12g,%.12g\n", ps, 1.0 - ps, f_b, f_c)
    _write_csv(args.output, ["p", "q", "f_b", "f_c"], body)
    summary = {
        "rows": int(ps.size),
        "d": params_check.d,
        "f_b_range": [float(f_b.min()), float(f_b.max())],
        "f_c_range": [float(f_c.min()), float(f_c.max())],
        "f_b_nondecreasing": bool(np.all(np.diff(f_b) >= -1e-15)),
        "f_c_nonincreasing": bool(np.all(np.diff(f_c) <= 1e-15)),
    }
    _emit_summary(summary, args.output is None)
    return 0


def cmd_mixed(args) -> int:
    # the purified protocol register (2n qubits), the same for every plan;
    # the cross-check below runs it, so its 5 * 2n qubits are checked first
    params = CloneParams(p=args.p, n=2 * args.n)
    _check_register_size(5 * params.n)
    lower, _ = mx.fidelity_bounds(params)
    f_pure = float(fidelity_curve(args.p, params.d)[0])
    mixed_dim = 1 << args.n
    rng = np.random.default_rng(args.seed)
    plans = [np.eye(mixed_dim)[k] for k in range(mixed_dim)]
    plans.append(np.full(mixed_dim, 1.0 / mixed_dim))
    plans.extend(mx.sample_simplex(mixed_dim, args.samples, rng))

    records = []
    rows = []  # alpha_0..alpha_{2^n-1}, p, f_mixed, lower, f_pure, ok
    for alphas in plans:
        mixed = mx.MixedInput(np.asarray(alphas, dtype=float), args.n)
        f_mixed = mx.mixed_fidelity(mixed, params)
        ok = lower - 1e-9 <= f_mixed <= 1.0 + 1e-9 and f_mixed >= f_pure - 1e-9
        records.append((mixed, f_mixed))
        rows.append([*mixed.alphas.tolist(), args.p, f_mixed, lower, f_pure, ok])
    violations = sum(not row[-1] for row in rows)

    # cross-check a few rows against the full simulation before writing
    check_count = 3 if args.n == 1 else 2
    sim_err = 0.0
    for mixed, f_formula in records[:check_count]:
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
    template = "%.12g," * (mixed_dim + 4) + "%d\n"
    _write_csv(args.output, header, _rows(template, *zip(*rows)))
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


#: an unsigned number float() reads: 1e-13, .5, 1_000, inf, nan
_UNSIGNED = (
    r"(?:(?:\d(?:_?\d)*\.?(?:\d(?:_?\d)*)?|\.\d(?:_?\d)*)(?:e[-+]?\d(?:_?\d)*)?"
    r"|inf(?:inity)?|nan)"
)
#: a negative real or complex literal (-1e-13, -inf, -0.5+2j, -1j), alone
#: or first in a comma-separated amplitude list (-0.5,0.5,0.5,0.5)
_NEGATIVE_VALUE = re.compile(
    rf"^-{_UNSIGNED}(?:[-+]{_UNSIGNED}?j|j)?(?:,.*)?$", re.IGNORECASE | re.DOTALL
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads `--p -1e-13` as `--p=-1e-13`.

    argparse takes any argument that starts with '-' for an option unless
    its `_negative_number_matcher` (an attribute of every ArgumentParser in
    Python 3.10-3.13) matches it, and the stock pattern knows only -5 and
    -1.5.  No option of this CLI looks like a number or holds a comma, so
    widening it to every negative real or complex literal, and to an
    amplitude list that starts with one, changes nothing else; subparsers
    inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except mx.MonotonicityError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a failed invariant: never exit 1 for it
        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
