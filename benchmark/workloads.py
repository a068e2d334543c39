"""The benchmark's workloads: seeded inputs, the timed op, and its checks.

A workload turns (seed, part) into all of its inputs before timing starts,
then yields ops.  `run_op` is the timed call into the package; `digest`
reduces its result to a record of plain values; `check` compares a record
with what the paper's closed forms demand; `timings` splits an op's
latency by kind, where ops (or parts of ops) of one kind do the same work
on different inputs.  The timed path calls only the package's stable
entry points (`protocol.run`, `mixed.teleclone_mixed`,
`cli.main`, `StateVector`, `CloneParams`, `BellOutcome`, `MixedInput`,
`clone_fidelities`, `mixed_fidelity`, `uhlmann_fidelity`), so a refactor
behind them leaves the benchmark valid.  `build_channel` is looked up by
name: without it, rounds build their own channel.
"""

import contextlib
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import teleclone  # noqa: E402
from teleclone import (  # noqa: E402
    BellOutcome,
    CloneParams,
    MixedInput,
    StateVector,
    cli,
    clone_fidelities,
    mixed,
    mixed_fidelity,
    protocol,
    uhlmann_fidelity,
)

if not Path(teleclone.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"teleclone was imported from {teleclone.__file__}, not from {SRC}")

#: exact-algebra tolerance of the package's contract
TOL_EXACT = 1e-9
#: Uhlmann-oracle tolerance for the mixed fidelity formula
TOL_MIXED = 1e-8

#: allout: (n, p) cases; every random input is run for all 4^n outcomes
ALLOUT_CASES = ((2, 0.35), (3, 0.6))
#: seeded20: three sampled rounds at n=4, then one mixed round at n=2 (both
#: 20-qubit registers, 16 MiB per state)
SEEDED_RUN = (4, 0.5)
SEEDED_RUNS_PER_CYCLE = 3
SEEDED_MIXED = (2, 0.5)
#: input cycles generated per second of timed budget; a cycle takes about
#: 100 ms (allout) or 160 ms (seeded20) today, so the pool lasts a 50x
#: speed-up before a run stops early rather than repeat an input
CYCLES_PER_SECOND = 500

#: the cli session, in order; "{seed}" is the session seed
CLI_COMMANDS = (
    ("sweep-delta", ()),
    ("verify", ()),
    ("sweep-fidelity", ()),
    ("mixed", ("--seed", "{seed}")),
    ("run", ("--input", "random", "--seed", "{seed}")),
)
CSV_COMMANDS = ("sweep-delta", "sweep-fidelity", "mixed")


def input_rng(seed: int, part: int) -> np.random.Generator:
    """The only source of benchmark inputs: one stream per (seed, part)."""
    return np.random.default_rng([seed, part])


def random_amplitudes(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """`count` normalized complex-Gaussian inputs on n qubits, one per row."""
    shape = (count, 1 << n)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return amps / np.linalg.norm(amps, axis=1, keepdims=True)


def random_alphas(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """`count` uniform points on the 2^n simplex (normalized exponentials)."""
    draws = rng.exponential(1.0, size=(count, 1 << n))
    return draws / draws.sum(axis=1, keepdims=True)


def pool_cycles(seconds: float) -> int:
    return int(math.ceil(seconds * CYCLES_PER_SECOND)) + 1


@dataclass(frozen=True)
class Round:
    """One `protocol.run` call: forced `outcome` or sampled with `seed`."""

    psi: StateVector
    params: CloneParams
    outcome: BellOutcome | None
    seed: int | None
    expected: tuple  # (F_B, F_C) closed forms


@dataclass(frozen=True)
class MixedRound:
    """One `mixed.teleclone_mixed` call, sampled with `seed`."""

    state: MixedInput
    params: CloneParams
    seed: int


@dataclass(frozen=True)
class Session:
    """One cli session: every command of CLI_COMMANDS in order."""

    argvs: tuple  # ((command, argv), ...)


def round_record(transcript) -> dict:
    return {
        "outcome": str(transcript.outcome),
        "probability": float(transcript.probability),
        "fidelity_b": float(transcript.fidelity_b),
        "fidelity_c": float(transcript.fidelity_c),
        "target_overlap": float(transcript.target_overlap),
    }


def check_round(op: Round, record: dict) -> list:
    """Problems with one round's record; empty when every check holds."""
    problems = []
    n = op.params.n
    if record["target_overlap"] < 1.0 - TOL_EXACT:
        problems.append(f"target_overlap {record['target_overlap']!r} < 1-1e-9")
    for key, value in zip(("fidelity_b", "fidelity_c"), op.expected):
        if abs(record[key] - value) > TOL_EXACT:
            problems.append(f"{key} {record[key]!r} differs from closed form {value!r}")
    if abs(record["probability"] - 4.0**-n) > TOL_EXACT:
        problems.append(f"probability {record['probability']!r} is not 4^-{n}")
    if op.outcome is not None and record["outcome"] != str(op.outcome):
        problems.append(f"outcome {record['outcome']} is not the forced {op.outcome}")
    return problems


def mixed_record(op: MixedRound, clones) -> dict:
    rho_b = clones[0]
    return {
        "f_simulated": float(uhlmann_fidelity(op.state.density(), rho_b)),
        "f_formula": float(mixed_fidelity(op.state, op.params)),
    }


def check_mixed(record: dict) -> list:
    gap = abs(record["f_simulated"] - record["f_formula"])
    if gap > TOL_MIXED:
        return [f"Uhlmann fidelity differs from mixed_fidelity by {gap:.3e} > 1e-8"]
    return []


class ProtocolWorkload:
    """Shared set-up and op execution for allout and seeded20."""

    def __init__(self, seed: int, part: int, seconds: float):
        self.rng = input_rng(seed, part)
        self.cycles = pool_cycles(seconds)
        self.channels = {}
        self.warmup = None

    def setup(self, tracer=None) -> None:
        """Build one channel per (n, p) the timed rounds use."""
        build = getattr(protocol, "build_channel", None)
        if build is None:
            return
        for params in self.channel_params():
            if tracer is None:
                self.channels[params] = build(params)
            else:
                self.channels[params] = tracer.call("protocol.channel", build, params)

    def channel_for(self, params):
        return self.channels.get(params)

    def run_op(self, op):
        if isinstance(op, Round):
            return protocol.run(
                op.psi,
                op.params,
                outcome=op.outcome,
                seed=op.seed,
                channel=self.channel_for(op.params),
            )
        return mixed.teleclone_mixed(op.state, op.params, seed=op.seed)

    def digest(self, op, raw) -> dict:
        if isinstance(op, Round):
            return round_record(raw)
        return mixed_record(op, raw)

    def check(self, op, record: dict) -> list:
        if isinstance(op, Round):
            return check_round(op, record)
        return check_mixed(record)

    def timings(self, op, ms: float) -> list:
        """[(kind, ms)] of the op that just ran: a kind per n and forced
        outcome; sampled rounds and mixed rounds are a kind each."""
        if isinstance(op, Round):
            return [(f"run n={op.params.n} {op.outcome or 'sampled'}", ms)]
        return [(f"mixed p={op.params.p} n={op.params.n}", ms)]


class AllOutcomes(ProtocolWorkload):
    """Every forced outcome of each random input, n=2 (p=0.35) and n=3 (p=0.6)."""

    def __init__(self, seed: int, part: int, seconds: float):
        super().__init__(seed, part, seconds)
        self.params = {n: CloneParams(p=p, n=n) for n, p in ALLOUT_CASES}
        self.expected = {n: clone_fidelities(prm) for n, prm in self.params.items()}
        self.outcomes = {n: tuple(BellOutcome.all_outcomes(n)) for n in self.params}
        # one extra input per case for the warm-up op
        self.inputs = {
            n: random_amplitudes(self.rng, self.cycles + 1, n) for n in self.params
        }
        n = ALLOUT_CASES[0][0]
        psi = StateVector(self.inputs[n][-1], n)
        self.warmup = Round(psi, self.params[n], self.outcomes[n][0], None, self.expected[n])

    def channel_params(self):
        return list(self.params.values())

    def ops(self):
        for cycle in range(self.cycles):
            for n in self.params:
                psi = StateVector(self.inputs[n][cycle], n)
                for outcome in self.outcomes[n]:
                    yield Round(psi, self.params[n], outcome, None, self.expected[n])


class Seeded20(ProtocolWorkload):
    """Sampled rounds on 20-qubit registers: 3 x run(n=4), then 1 x mixed(n=2)."""

    def __init__(self, seed: int, part: int, seconds: float):
        super().__init__(seed, part, seconds)
        n, p = SEEDED_RUN
        self.run_params = CloneParams(p=p, n=n)
        self.expected = clone_fidelities(self.run_params)
        mixed_n, mixed_p = SEEDED_MIXED
        self.mixed_params = CloneParams(p=mixed_p, n=2 * mixed_n)
        runs = self.cycles * SEEDED_RUNS_PER_CYCLE + 1
        self.run_inputs = random_amplitudes(self.rng, runs, n)
        self.run_seeds = self.rng.integers(0, 2**63, size=runs)
        self.mixed_inputs = random_alphas(self.rng, self.cycles, mixed_n)
        self.mixed_seeds = self.rng.integers(0, 2**63, size=self.cycles)
        self.warmup = self._round(runs - 1)

    def channel_params(self):
        return [self.run_params]

    def _round(self, index: int) -> Round:
        psi = StateVector(self.run_inputs[index], self.run_params.n)
        seed = int(self.run_seeds[index])
        return Round(psi, self.run_params, None, seed, self.expected)

    def ops(self):
        mixed_n = SEEDED_MIXED[0]
        for cycle in range(self.cycles):
            for k in range(SEEDED_RUNS_PER_CYCLE):
                yield self._round(cycle * SEEDED_RUNS_PER_CYCLE + k)
            state = MixedInput(self.mixed_inputs[cycle], mixed_n)
            yield MixedRound(state, self.mixed_params, int(self.mixed_seeds[cycle]))


def call_cli(argv) -> tuple:
    """In-process `cli.main(argv)`; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def session_seed(seed: int) -> int:
    """The seed every session of a run passes to `mixed` and `run`."""
    return int(input_rng(seed, 0).integers(1, 2**31))


class CliSession:
    """The documented commands at default arguments, one file each."""

    def __init__(self, seed: int, part: int, seconds: float, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.seed = session_seed(seed)
        argvs = []
        for command, extra in CLI_COMMANDS:
            args = [a.format(seed=self.seed) for a in extra]
            path = self.output_path(command)
            argvs.append((command, (command, *args, "--output", str(path))))
        self.session = Session(tuple(argvs))
        self.warmup = self.session
        self.reference = None
        #: ms of each command of the last session run_op ran
        self.command_ms = {}

    def setup(self, tracer=None) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def ops(self):
        while True:
            yield self.session

    def run_op(self, op: Session) -> dict:
        raw = {}
        for command, argv in op.argvs:
            start = time.perf_counter()
            raw[command] = call_cli(argv)
            self.command_ms[command] = (time.perf_counter() - start) * 1e3
        return raw

    def timings(self, op: Session, ms: float) -> list:
        """[(kind, ms)] of the session that just ran: one kind per command."""
        return list(self.command_ms.items())

    def output_path(self, command: str) -> Path:
        return self.out_dir / f"{command}.out"

    def digest(self, op: Session, raw: dict) -> dict:
        record = {}
        for command, (code, stdout, stderr) in raw.items():
            data = self.output_path(command).read_bytes() if code == 0 else b""
            entry = {
                "code": code,
                "sha256": hashlib.sha256(data).hexdigest(),
                "bytes": len(data),
                "summary": json.loads(stdout) if code == 0 and stdout.strip() else None,
                "stderr": stderr[-500:],
            }
            if command in CSV_COMMANDS:
                entry["rows"] = data.count(b"\n") - 1
            if command in ("verify", "run"):
                entry["payload"] = json.loads(data) if data else None
            record[command] = entry
        if self.reference is None:
            self.reference = {c: e["sha256"] for c, e in record.items()}
        return record

    def check(self, op: Session, record: dict) -> list:
        problems = []
        for command, entry in record.items():
            if entry["code"] != 0:
                problems.append(f"{command} exited {entry['code']}: {entry['stderr']}")
                continue
            if entry["sha256"] != self.reference[command]:
                problems.append(f"{command} output differs from the first session's")
        if problems:
            return problems
        for command in ("sweep-delta", "mixed"):
            summary = record[command]["summary"] or {}
            if summary.get("violations") != 0:
                problems.append(f"{command} reports violations={summary.get('violations')}")
        if (record["verify"]["payload"] or {}).get("passed") is not True:
            problems.append("verify does not report passed: true")
        transcript = record["run"]["payload"] or {}
        if transcript.get("target_overlap", 0.0) < 1.0 - TOL_EXACT:
            problems.append(f"run target_overlap {transcript.get('target_overlap')!r}")
        return problems


def make_workload(name: str, seed: int, part: int, seconds: float, out_dir: Path):
    if name == "allout":
        return AllOutcomes(seed, part, seconds)
    if name == "seeded20":
        return Seeded20(seed, part, seconds)
    if name == "cli":
        return CliSession(seed, part, seconds, out_dir)
    raise ValueError(f"unknown workload {name!r}")
