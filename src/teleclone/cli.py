"""Command-line front end: protocol runs, sweeps, and the invariant suite.

Exit codes: 0 success, 1 invariant failure (a failed verify check), 2
usage error: a bad argument, a register beyond the 20-qubit limit
(refused before it is allocated, leaving no output file), running out
of memory, or an unexpected exception, reported as an internal error
with its traceback.  CSV cells are '%.12g' numbers ('.' decimals, 12
significant digits), never quoted, with LF line endings, so that
identical configs produce byte-identical files; JSON output is
sorted-key.  One vectorized cell kernel, `_cells`, writes the '%.12g'
bytes of every CSV command (the `ok` flag of `mixed` is the cell of
0.0 or 1.0), `_lines` joins cells into lines, and one body writer,
`_body`, makes every CSV body from value fields that broadcast to one
grid: a field smaller than the grid is formatted once, every full-size
field one block of lines at a time.  `mixed` evaluates all of its plans
in one array pass: one (k, 2^n) plan array, checked once by
`mixed.check_eigenvalues`, one `mixed.mixed_fidelities` call and
elementwise `verify.fidelity_in_bounds` flags, handed to `_body` as float
columns.  Commands compute,
`main` writes: a command returns its exit code, its payload (ASCII
bytes in blocks: a CSV header line, then blocks of at most
`_BLOCK_LINES` lines formatted as they are asked for, or one JSON
document) and its summary, and `main` alone writes the payload through
`_open_output` and the summary beside it, on stderr when the payload
goes to stdout (no `--output`, or `-`) and on stdout otherwise.  An
`--output` file is written beside its path a block at a time and moved
onto it only when whole; stdout, a device or a pipe gets a buffer that
holds the whole payload until it is whole.  A command that fails
leaves no partial file, nothing on stdout and nothing on a pipe.
"""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import sys
import traceback
from collections.abc import Iterable, Iterator
from itertools import groupby

import numpy as np

from . import entanglement as ent
from . import mixed as mx
from . import protocol as pt
from . import verify
from .cloning import CloneParams, fidelity_curve
from .qstate import StateVector


@contextlib.contextmanager
def _open_output(path: str | None):
    """A binary handle for the payload, which reaches its target only whole.

    The one place that knows the target.  A regular file (new, or reached
    through a symlink, which stays one) is written to a new file beside
    it and moved onto it once the payload is written and closed; an
    existing file keeps its permission bits, while its other hard links
    keep the old contents.  Stdout (None or "-") and any other target,
    such as a device or a pipe, which a file must not replace, get an
    in-memory buffer that is written out once the payload is whole.  If
    anything fails first, the temporary is removed and the target is left
    as it was: no partial file, nothing on stdout and nothing on a pipe.
    """
    if path in (None, "-") or (os.path.exists(path) and not os.path.isfile(path)):
        buffer = io.BytesIO()
        yield buffer
        if path in (None, "-"):
            sys.stdout.write(buffer.getvalue().decode("ascii"))
        else:
            with open(path, "wb") as handle:
                handle.write(buffer.getvalue())
        return
    target = os.path.realpath(path)  # through a symlink, which stays one
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        handle = open(tmp, "xb")
    except OSError as exc:  # name the path asked for, not the temporary
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            yield handle
        with contextlib.suppress(FileNotFoundError):  # a new file keeps the umask's mode
            shutil.copymode(target, tmp)
        os.replace(tmp, target)
    except BaseException:
        os.remove(tmp)
        raise


#: bytes per cell: '%.12g' of a float64 takes at most 19 ('-1.23456789012e-308')
_WIDTH = 20
#: lines of a CSV body formatted at once, at most
_BLOCK_LINES = 4096
#: k = the number of these bounds x reaches.  For k in 1..4 (x in
#: [1e-4, 1e-3) .. [0.1, 1)), x * _SCALE[k] = x * 10^(16 - k) rounds to
#: x's 12 significant digits, and that integer times _SHIFT[k] =
#: 10^(k - 1) is x's 15 decimals; the k = 0 and 5 entries only keep
#: +0.0 at 0 and every other value finite
_DECADES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
_SCALE = np.array([1e12, 1e15, 1e14, 1e13, 1e12, 1e12])
_SHIFT = np.array([1.0, 1.0, 10.0, 100.0, 1000.0, 1.0])


def _digit_words(head: bytes, places: int) -> np.ndarray:
    """head and the zero-padded digits of 0 .. 10^places - 1, one 4-byte
    word each, then the same words with the trailing zeros (and a head
    left with no digit after it) as NULs."""
    count = 10**places
    text = np.empty((count, len(head) + places), np.uint8)
    text[:, :len(head)] = np.frombuffer(head, np.uint8)
    text[:, len(head):] = np.arange(count)[:, None] // 10 ** np.arange(places)[::-1] % 10 + ord("0")
    kept = np.logical_or.accumulate((text > ord("0"))[:, ::-1], axis=1)[:, ::-1]
    return np.concatenate([text, np.where(kept, text, 0)]).view(np.uint32).ravel()


#: "0000".."9999", then stripped: "1200" -> "12", "0000" -> ""
_QUADS = _digit_words(b"", 4)
#: ".000"..".999", then stripped: ".100" -> ".1", ".000" (x = 0) -> ""
_HEADS = _digit_words(b".", 3)
#: the first word of a cell: three NULs and the units digit "0"
_UNITS = np.frombuffer(b"\0\0\x000", np.uint32)[0]


def _cells(x) -> np.ndarray:
    """'%.12g' of every value of x as W NUL-padded bytes, shape x.shape + (W,).

    +0.0 and values in [1e-4, 1) are written by arithmetic: scaled by an
    exact power of ten to 12 significant digits and rounded (the product
    is within 2^-14 of the exact one, so rounding is certain unless the
    fraction lies within 1e-3 of 1/2), then "0." and 15 decimals through
    a 4-digit table, trailing zeros removed.  Every other value (1, -0.0,
    NaN, +-inf, tiny or large ones, near-ties) goes through '%.12g'
    itself, in one call.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    k = sum((x >= bound).view(np.int8) for bound in _DECADES).astype(np.intp)
    fast = ((k >= 1) & (k <= 4)) | (x.view(np.int64) == 0)
    scaled = np.where(fast, x, 0.5) * _SCALE[k]
    rounded = np.rint(scaled)
    digits = rounded * _SHIFT[k]  # the 15 decimals as an integer, exact in float64
    fast &= (np.abs(scaled - rounded) < 0.499) & (digits < 1e15)
    digits = np.where(fast, digits, 0.0)
    # every split below is of integers under 2^53: exact
    high = np.floor(digits / 1e8)
    low = digits - high * 1e8
    a = np.floor(high / 1e4)
    b = high - a * 1e4
    c = np.floor(low / 1e4)
    d = low - c * 1e4
    words = np.empty((x.size, _WIDTH // 4), np.uint32)
    words[:, 0] = _UNITS
    words[:, 1] = _HEADS[(a + 1000.0 * ((b == 0) & (low == 0))).astype(np.intp)]
    words[:, 2] = _QUADS[(b + 1e4 * (low == 0)).astype(np.intp)]
    words[:, 3] = _QUADS[(c + 1e4 * (d == 0)).astype(np.intp)]
    words[:, 4] = _QUADS[(d + 1e4).astype(np.intp)]
    width = 17  # "0." and 15 decimals
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ("%20.12g" * slow.size % tuple(x[slow].tolist())).encode("ascii")
        padded = np.frombuffer(text, np.uint8).reshape(-1, _WIDTH)
        blank = padded == ord(" ")
        words[slow] = np.where(blank, 0, padded).view(np.uint32)
        width = max(width, _WIDTH - int(blank.sum(axis=1).min()))
    return words.view(np.uint8)[:, _WIDTH - width:].reshape(*shape, width)


def _lines(*fields) -> bytes:
    """CSV lines of cell fields, NUL padding removed.

    Each field is a (..., W) array of cells from `_cells`; the fields
    broadcast over their leading axes, which become the lines in C order.
    """
    shape = np.broadcast_shapes(*(f.shape[:-1] for f in fields))
    buf = np.empty(shape + (sum(f.shape[-1] + 1 for f in fields),), np.uint8)
    at = 0
    for f in fields:
        buf[..., at:at + f.shape[-1]] = f
        at += f.shape[-1] + 1
        buf[..., at - 1] = ord(",")
    buf[..., -1] = ord("\n")
    return buf.tobytes().translate(None, b"\0")


def _csv(header, blocks: Iterable[bytes]) -> Iterator[bytes]:
    """A CSV payload: the header line, then each block as it is formatted."""
    yield (",".join(header) + "\n").encode("ascii")
    yield from blocks


def _json(document) -> list:
    """A JSON payload: one block, sorted-key and indented."""
    return [(json.dumps(document, sort_keys=True, indent=2) + "\n").encode("ascii")]


def _body(*fields) -> Iterator[bytes]:
    """CSV lines of value fields that broadcast to one (M, P) grid (a 1-D
    field is one row of it), in C order and in blocks of at most
    `_BLOCK_LINES` lines: whole rows, or one row cut into several.

    A field smaller than the grid (a mu column, the p axis every mu
    shares, a scalar) is formatted once, and each run of such fields of
    one shape is joined into lines once; every full-size field is
    formatted one block at a time, as the block is asked for.
    """
    grid = np.broadcast_shapes((1, 1), *map(np.shape, fields))
    size = math.prod(grid)
    parts = []  # (M, P) value views, or (M, P, W) views of joined cells
    for (small, shape), run in groupby(fields, lambda f: (np.size(f) < size, np.shape(f))):
        if small:
            lines = np.array(_lines(*map(_cells, run)).split(b"\n")[:-1])
            cells = lines.view(np.uint8).reshape(*shape, lines.itemsize)
            parts.append(np.broadcast_to(cells, grid + (lines.itemsize,)))
        else:
            parts.extend(np.broadcast_to(f, grid) for f in run)
    rows = max(1, _BLOCK_LINES // grid[1])
    cols = min(grid[1], _BLOCK_LINES)
    for i in range(0, grid[0], rows):
        for j in range(0, grid[1], cols):
            blocks = (part[i:i + rows, j:j + cols] for part in parts)
            yield _lines(*(b if b.ndim == 3 else _cells(b) for b in blocks))


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
    return StateVector(amps, n)  # run checks the norm and normalizes


def cmd_run(args) -> tuple:
    params = CloneParams(p=args.p, n=args.n)
    pt._check_budget(args.n)  # before the input's 2^n amplitudes
    rng = np.random.default_rng(args.seed) if args.seed is not None else None
    psi = _parse_input(args.input, args.n, rng)
    if args.outcome is not None:
        transcript = pt.run(psi, params, outcome=pt.BellOutcome.parse(args.outcome))
    else:
        if args.seed is None:
            raise ValueError("sampled mode requires an explicit --seed")
        transcript = pt.run(psi, params, seed=args.seed + 1)
    return 0, _json(transcript.to_json_dict()), None


_DELTA_HEADER = ["mu", "p", "f_b", "f_c", "c_b", "c_c", "delta"]


def _region_info(mu_value: float) -> dict:
    mu_value = min(mu_value, 0.5)  # mu's band reaches 1e-12 past 1/2
    if ent.MU_THRESHOLD < mu_value:
        lo, hi = ent.physical_region(mu_value)
        return {"physical_region": [lo, hi]}
    return {
        "physical_region": None,
        "note": "no p with both clone concurrences positive",
    }


def cmd_sweep_delta(args) -> tuple:
    if args.mu is None and args.p is not None:
        raise ValueError("--p evaluates a single point and needs --mu")
    # both steps are checked in every form, even where --mu or --p leaves them unused
    grid = ent.SweepGrid(mu_step=args.mu_step, p_step=args.p_step)
    if args.mu is None:
        report = ent.sweep_delta(grid)
        blocks = _body(
            report.mu_values[:, None],
            report.p_values,
            report.fidelity_b,
            report.fidelity_c,
            report.concurrence_b,
            report.concurrence_c,
            report.delta_values,
        )
        summary = report.summary()
    else:
        ps = grid.p_values() if args.p is None else np.array([args.p])
        f_b, f_c, c_b, c_c, _, _, values = ent._gap(args.mu, ps)
        blocks = _body(args.mu, ps, f_b, f_c, c_b, c_c, values)
        if args.p is not None:
            summary = {"delta": float(values[0])}
        else:
            summary = {
                "rows": int(ps.size),
                "min_delta": float(values.min()),
                "violations": int(np.sum(values < -ent.SweepGrid.tolerance)),
            }
        summary.update(_region_info(args.mu))
    return 0, _csv(_DELTA_HEADER, blocks), summary


def cmd_sweep_fidelity(args) -> tuple:
    params_check = CloneParams(p=0.0, n=args.n)  # validates n
    ps = ent.SweepGrid(p_step=args.p_step).p_values()
    f_b, f_c = fidelity_curve(ps, params_check.d)
    summary = {
        "rows": int(ps.size),
        "d": params_check.d,
        "f_b_range": [float(f_b.min()), float(f_b.max())],
        "f_c_range": [float(f_c.min()), float(f_c.max())],
        "f_b_nondecreasing": bool(np.all(np.diff(f_b) >= -1e-15)),
        "f_c_nonincreasing": bool(np.all(np.diff(f_c) <= 1e-15)),
    }
    return 0, _csv(["p", "q", "f_b", "f_c"], _body(ps, 1.0 - ps, f_b, f_c)), summary


def cmd_mixed(args) -> tuple:
    if args.samples < 0:
        raise ValueError(f"--samples must be nonnegative, got {args.samples}")
    if args.samples > 100_000:  # plans and columns are held until written: 4.6-9.2 MiB traced here
        raise ValueError(f"--samples must be at most 100000, got {args.samples}")
    # every plan's purified 2n-qubit protocol; the cross-check below runs it,
    # so its budget is checked first
    params = CloneParams(p=args.p, n=2 * args.n)
    pt._check_budget(params.n)
    lower, _ = mx.fidelity_bounds(params)
    f_pure = float(fidelity_curve(args.p, params.d)[0])
    mixed_dim = 1 << args.n
    rng = np.random.default_rng(args.seed)
    # the vertices, the uniform point and the simplex draws, one plan a row
    plans = np.concatenate([
        np.eye(mixed_dim),
        np.full((1, mixed_dim), 1.0 / mixed_dim),
        mx.sample_simplex(mixed_dim, args.samples, rng),
    ])
    mx.check_eigenvalues(plans, args.n)
    f_mixed = mx.mixed_fidelities(plans, params)
    # within [bound, 1], and never below the pure-state clone fidelity
    ok = verify.fidelity_in_bounds(f_mixed, lower, 1.0) & verify.fidelity_in_bounds(
        f_mixed, f_pure, math.inf
    )

    # cross-check a few rows against the full simulation before writing
    check_count = 3 if args.n == 1 else 2
    sim_err = float(np.max([
        verify.mixed_fidelity_deviation(mixed, params, mx.teleclone_mixed(mixed, params)[0])
        for mixed in (mx.MixedInput(alphas, args.n) for alphas in plans[:check_count])
    ]))

    header = [f"alpha_{k}" for k in range(mixed_dim)] + [
        "p",
        "f_mixed",
        "lower_bound",
        "f_pure",
        "ok",
    ]
    summary = {
        "rows": len(plans),
        "violations": int(np.count_nonzero(~ok)),
        "simulated_instances": check_count,
        "max_sim_formula_error": sim_err,
    }
    return 0, _csv(header, _body(*plans.T, args.p, f_mixed, lower, f_pure, ok)), summary


def cmd_verify(args) -> tuple:
    groups = args.group.split(",") if args.group else None
    results = verify.run_verification(groups, seed=args.seed)
    passed = all(r.passed for r in results)
    report = {"passed": passed, "groups": [r.to_json_dict() for r in results]}
    return 0 if passed else 1, _json(report), None


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
        code, payload, summary = args.func(args)
        with _open_output(args.output) as handle:
            for block in payload:
                handle.write(block)
        if summary is not None:  # beside the payload, never on its stream
            stream = sys.stderr if args.output in (None, "-") else sys.stdout
            print(json.dumps(summary, sort_keys=True), file=stream)
        return code
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except Exception:  # a bug, not a failed invariant: never exit 1 for it
        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
