"""Traced stage-by-stage replay of the benchmark's ops.

The traced run calls each op once untraced (the reference) and then
replays it through the package's public stage functions, timing every
stage as a span.  The replay must reproduce the reference: the same
outcome string (it draws from the same `default_rng(seed)`) and
probabilities, fidelities, overlaps and clone matrices within 1e-12.

Stage functions are looked up by name.  One that a later version of the
package no longer has is recorded as absent, and the ops that need it are
checked but not replayed; an absent stage is not a failure.

Spans are kept in memory and written as JSON lines when the run ends.
The spans of one op share its op id (set-up spans have op "setup"); the
op is the parent of all of them.  Stage spans never overlap, so a stage's
self time is its duration.
"""

import json
import time
from dataclasses import dataclass

import numpy as np

from workloads import (
    CSV_COMMANDS,
    MixedRound,
    Round,
    Session,
    call_cli,
    teleclone,
)

#: replay must match the untraced op to this tolerance
TOL_REPLAY = 1e-12

#: (module, attribute) of every stage function the replay needs
STAGES = {
    "build_channel": ("protocol", "build_channel"),
    "attach_input": ("protocol", "attach_input"),
    "measure_senders": ("protocol", "measure_senders"),
    "correction_plan": ("protocol", "correction_plan"),
    "apply_corrections": ("protocol", "apply_corrections"),
    "reduced_density": ("qstate", "reduced_density"),
    "DensityMatrix": ("qstate", "DensityMatrix"),
    "state_fidelity": ("qstate", "state_fidelity"),
    "partial_trace": ("qstate", "partial_trace"),
    "target_state": ("cloning", "target_state"),
    "purify": ("mixed", "purify"),
    "SweepGrid": ("entanglement", "SweepGrid"),
    "sweep_delta": ("entanglement", "sweep_delta"),
    "run_verification": ("verify", "run_verification"),
    "GROUPS": ("verify", "GROUPS"),
}

#: the verify groups whose time is reported, one metric each
VERIFY_GROUPS = (
    "qstate",
    "transformations",
    "channel",
    "protocol",
    "entanglement",
    "mixed",
    "outcomes",
)


class Tracer:
    """In-memory span recorder; the spans of one op share its op id."""

    def __init__(self):
        self.spans = []
        self.gauges = []
        self.op_id = "setup"
        self.absent = {}
        self._functions = {}

    def stage(self, name: str):
        """The stage function `name`, or None (recorded as absent)."""
        if name not in self._functions:
            module_name, attr = STAGES[name]
            module = getattr(teleclone, module_name, None)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent[f"{module_name}.{attr}"] = "not in this version of teleclone"
            self._functions[name] = fn
        return self._functions[name]

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        self.spans.append((self.op_id, name, start_ns, end_ns))

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        result = fn(*args, **kwargs)
        self.record(name, start, time.perf_counter_ns())
        return result

    def gauge(self, name: str, value: float) -> None:
        self.gauges.append((self.op_id, name, value))

    def per_op(self) -> dict:
        """{metric: {op id: value}} for every op or set-up that has it.

        A time (ms) is the sum of that stage's spans within the op; a gauge
        is its largest value within the op.
        """
        sums = {}
        for op_id, name, start, end in self.spans:
            key = (name + "_ms", op_id)
            sums[key] = sums.get(key, 0.0) + (end - start) / 1e6
        for op_id, name, value in self.gauges:
            key = (name, op_id)
            sums[key] = max(sums.get(key, value), value)
        per_metric = {}
        for (metric, op_id), value in sums.items():
            per_metric.setdefault(metric, {})[op_id] = value
        return per_metric

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for op_id, name, start, end in self.spans:
                span = {"op": op_id, "name": name, "start_ns": start, "end_ns": end}
                handle.write(json.dumps(span) + "\n")


@dataclass
class ReplayedRound:
    record: dict
    final: object
    validate_ns: int  # the extra DensityMatrix checks, which run does not do


def compare_round(replayed: dict, reference: dict) -> list:
    """Differences between a replayed round and the untraced one."""
    problems = []
    if replayed["outcome"] != reference["outcome"]:
        problems.append(f"replay outcome {replayed['outcome']} != {reference['outcome']}")
    for key in ("probability", "fidelity_b", "fidelity_c", "target_overlap"):
        if abs(replayed[key] - reference[key]) > TOL_REPLAY:
            problems.append(f"replay {key} {replayed[key]!r} != {reference[key]!r}")
    return problems


def replay_round(tr: Tracer, psi, params, *, outcome, seed, channel):
    """`protocol.run`, stage by stage; None when a stage function is absent."""
    names = ("build_channel", "attach_input", "measure_senders", "correction_plan",
             "apply_corrections", "reduced_density", "DensityMatrix",
             "state_fidelity", "target_state")
    fns = {name: tr.stage(name) for name in names}
    if any(fn is None for fn in fns.values()):
        return None
    n = params.n
    psi = psi.normalized()
    if channel is None:
        channel = tr.call("protocol.channel", fns["build_channel"], params)
    total = tr.call("protocol.attach", fns["attach_input"], psi, channel)
    rng = np.random.default_rng(seed) if seed is not None else None
    measured, collapsed, probability = tr.call(
        "protocol.measure", fns["measure_senders"], total, params, outcome=outcome, rng=rng
    )
    t0 = time.perf_counter_ns()
    plan = fns["correction_plan"](measured)
    final = fns["apply_corrections"](collapsed, plan)
    t1 = time.perf_counter_ns()
    tr.record("protocol.correct", t0, t1)
    rho_b = fns["reduced_density"](final, range(n))
    rho_c = fns["reduced_density"](final, range(n, 2 * n))
    t2 = time.perf_counter_ns()
    tr.record("qstate.reduce", t1, t2)
    fidelity_b = fns["state_fidelity"](psi, rho_b)
    fidelity_c = fns["state_fidelity"](psi, rho_c)
    t3 = time.perf_counter_ns()
    target = fns["target_state"](psi.amplitudes, params)
    t4 = time.perf_counter_ns()
    overlap = target.fidelity_with(final)
    t5 = time.perf_counter_ns()
    tr.record("qstate.fidelity", t2, t3)
    tr.record("cloning.target", t3, t4)
    tr.record("qstate.fidelity", t4, t5)
    # not part of run: the validation reduced_density already paid, alone
    t6 = time.perf_counter_ns()
    fns["DensityMatrix"](rho_b.entries, n)
    fns["DensityMatrix"](rho_c.entries, n)
    t7 = time.perf_counter_ns()
    tr.record("qstate.density_validate", t6, t7)
    tr.gauge("protocol.state_mib", total.amplitudes.nbytes / 2**20)
    record = {
        "outcome": str(measured),
        "probability": float(probability),
        "fidelity_b": float(fidelity_b),
        "fidelity_c": float(fidelity_c),
        "target_overlap": float(overlap),
    }
    return ReplayedRound(record, final, t7 - t6)


def replay_mixed(tr: Tracer, op: MixedRound):
    """`mixed.teleclone_mixed`, stage by stage; None when a stage is absent."""
    purify, reduce_, trace = (tr.stage(s) for s in ("purify", "reduced_density", "partial_trace"))
    if None in (purify, reduce_, trace):
        return None
    pure = tr.call("mixed.purify", purify, op.state)
    replayed = replay_round(tr, pure, op.params, outcome=None, seed=op.seed, channel=None)
    if replayed is None:
        return None
    m, n = op.params.n, op.state.n
    t0 = time.perf_counter_ns()
    rho_bb = reduce_(replayed.final, range(m))
    rho_cc = reduce_(replayed.final, range(m, 2 * m))
    t1 = time.perf_counter_ns()
    clones = (
        trace(rho_bb, range(n)),
        trace(rho_cc, range(n)),
        trace(rho_bb, range(n, 2 * n)),
        trace(rho_cc, range(n, 2 * n)),
    )
    t2 = time.perf_counter_ns()
    tr.record("qstate.reduce", t0, t1)
    tr.record("mixed.trace", t1, t2)
    return replayed, clones


class OpReplayer:
    """Runs one op untraced, replays it traced, and compares the two."""

    def __init__(self, workload, tracer: Tracer):
        self.workload = workload
        self.tr = tracer
        self.rounds = 0
        self.round_failures = 0
        self.session_failures = 0

    def reference(self, op):
        """The untraced op, timed; returns (result, elapsed ms)."""
        start = time.perf_counter_ns()
        raw = self.workload.run_op(op)
        end = time.perf_counter_ns()
        name = {Round: "protocol.run", MixedRound: "mixed.round", Session: "cli.session"}
        self.tr.record(name[type(op)], start, end)
        return raw, (end - start) / 1e6

    def replay(self, op, raw) -> tuple:
        """(problems, traced ms); traced ms is None when a stage is absent.

        The traced time covers the replayed work that the untraced op also
        does, so its difference from the untraced time is the overhead.
        """
        reference = self.workload.digest(op, raw)
        problems = self.workload.check(op, reference)
        if isinstance(op, Round):
            mismatches, traced_ns = self._replay_round(op, reference)
        elif isinstance(op, MixedRound):
            mismatches, traced_ns = self._replay_mixed(op, raw)
        else:
            mismatches, traced_ns = self._replay_session(op, reference)
        if mismatches is not None:
            problems += mismatches
        if isinstance(op, Session):
            self.session_failures += bool(problems)
        else:
            self.rounds += 1
            self.round_failures += bool(problems)
        return problems, None if mismatches is None else traced_ns / 1e6

    def _replay_round(self, op: Round, reference: dict):
        start = time.perf_counter_ns()
        replayed = replay_round(
            self.tr, op.psi, op.params, outcome=op.outcome, seed=op.seed,
            channel=self.workload.channel_for(op.params),
        )
        if replayed is None:
            return None, 0
        traced_ns = time.perf_counter_ns() - start - replayed.validate_ns
        return compare_round(replayed.record, reference), traced_ns

    def _replay_mixed(self, op: MixedRound, clones):
        start = time.perf_counter_ns()
        result = replay_mixed(self.tr, op)
        if result is None:
            return None, 0
        replayed, replay_clones = result
        traced_ns = time.perf_counter_ns() - start - replayed.validate_ns
        problems = []
        for ours, theirs in zip(replay_clones, clones):
            gap = float(np.max(np.abs(ours.entries - theirs.entries)))
            if gap > TOL_REPLAY:
                problems.append(f"replayed mixed clone differs by {gap:.3e}")
        return problems, traced_ns

    def _replay_session(self, op: Session, reference: dict):
        problems = []
        traced = {}
        start = time.perf_counter_ns()
        for command, argv in op.argvs:
            traced[command] = self.tr.call(
                "cli." + command.replace("-", "_"), call_cli, argv
            )
        traced_ns = time.perf_counter_ns() - start
        replayed = self.workload.digest(op, traced)
        for command in traced:
            if replayed[command]["sha256"] != reference[command]["sha256"]:
                problems.append(f"traced {command} output differs from untraced")
        self.tr.gauge("cli.rows", sum(replayed[c]["rows"] for c in CSV_COMMANDS))
        self.tr.gauge("cli.csv_bytes", sum(replayed[c]["bytes"] for c in CSV_COMMANDS))
        # the numerics and the groups, called directly; not part of the session
        problems += self._direct_calls(reference)
        return problems, traced_ns

    def _direct_calls(self, reference: dict) -> list:
        problems = []
        grid_cls, sweep = self.tr.stage("SweepGrid"), self.tr.stage("sweep_delta")
        if grid_cls is not None and sweep is not None:
            report = self.tr.call("entanglement.sweep", sweep, grid_cls())
            summary = json.loads(json.dumps(report.summary(), sort_keys=True))
            if summary != reference["sweep-delta"]["summary"]:
                problems.append("direct sweep_delta summary differs from the cli's")
        run_verification, groups = self.tr.stage("run_verification"), self.tr.stage("GROUPS")
        if run_verification is None or groups is None:
            return problems
        for group in VERIFY_GROUPS:
            if group not in groups:
                self.tr.absent[f"verify group {group}"] = "not in verify.GROUPS"
                continue
            (result,) = self.tr.call("verify." + group, run_verification, [group])
            if not result.passed:
                problems.append(f"verify group {group} failed")
        return problems

