"""Executable invariant suite behind the CLI `verify` command.

Each invariant is one function of a single instance, returning its deviation
(or pass/fail, or CheckResults) for a tolerance named below.  A group loops the
functions over its instances and records the worst case under a check name, so a
regression points at the broken property; the acceptance tests call the same functions.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import entanglement as ent
from . import mixed as mx
from . import protocol as pt
from . import qstate as qs
from .cloning import CloneParams, clone_fidelities, clone_pair, cloner_basis_state, fidelity_curve

DEFAULT_SEED = 20240811

#: exact algebra: norms, probabilities, overlaps, fidelities, concurrences,
#: and the slack of every inequality
EXACT_TOL = 1e-9
#: amplitude identities between states built from the same numbers
AMPLITUDE_TOL = 1e-12
#: two routes through partial traces of one density matrix
TRACE_TOL = 1e-10
#: closed forms against an eigenvalue oracle (Uhlmann, von Neumann)
ORACLE_TOL = 1e-8
#: ebit counts read off an entanglement entropy
EBIT_TOL = 1e-6
#: chance that a correct sampler fails the sampled-frequency check
SAMPLED_FAMILY_RATE = 1e-6

_P_VALUES = (0.0, 0.3, 0.5, 1.0)
_LOCAL_OPS = (qs.PAULI_X, qs.PAULI_Y, qs.PAULI_Z, qs.IDENTITY)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class GroupResult:
    name: str
    checks: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": [c.to_json_dict() for c in self.checks],
        }


def _check(name: str, deviation: float, tolerance: float) -> CheckResult:
    detail = f"max deviation {deviation:.3e} (tolerance {tolerance:.0e})"
    return CheckResult(name, bool(deviation <= tolerance), detail)


def _largest(values) -> float:
    """The largest value, or NaN if any is NaN (the builtin max can skip one)."""
    return float(np.max(list(values)))


def _worst(name: str, deviations, tolerance: float) -> CheckResult:
    """The check on the largest deviation, counted from 0."""
    return _check(name, _largest((0.0, *deviations)), tolerance)


def _max_abs(a, b) -> float:
    return float(np.abs(a - b).max())


def local_norm_deviation(state, op, target, other) -> float:
    """Norm drift of one local operation and of one tensor product."""
    local = qs.apply_local(state, op, target)
    return _largest((abs(local.norm - 1.0), abs(qs.tensor(state, other).norm - 1.0)))


def bell_completeness_deviation(state, pair) -> float:
    """|sum of the four Bell probabilities of one pair - 1|."""
    return abs(sum(qs.bell_probabilities(state, pair).values()) - 1.0)


def partial_trace_deviation(rho) -> float:
    """Tracing out qubits 1 and 3 at once against tracing out 3, then 1."""
    joint = qs.partial_trace(rho, [0, 2])
    stepwise = qs.partial_trace(qs.partial_trace(rho, [0, 1, 2]), [0, 2])
    return _max_abs(joint.entries, stepwise.entries)


def entropy_in_bounds(rho) -> bool:
    """0 <= S(rho) <= number of qubits."""
    entropy = qs.von_neumann_entropy(rho)
    return -EXACT_TOL <= entropy <= rho.num_qubits + EXACT_TOL


def uhlmann_deviation(psi, rho) -> float:
    """F(psi, psi) = 1, and Uhlmann against <psi|rho|psi> for a pure psi."""
    pure = qs.DensityMatrix.from_state(psi)
    self_dev = abs(qs.uhlmann_fidelity(pure, pure) - 1.0)
    mixed_dev = abs(qs.uhlmann_fidelity(pure, rho) - qs.state_fidelity(psi, rho))
    return _largest((self_dev, mixed_dev))


def uhlmann_symmetry_deviation(r1, r2) -> float:
    """|F(r1, r2) - F(r2, r1)|."""
    return abs(qs.uhlmann_fidelity(r1, r2) - qs.uhlmann_fidelity(r2, r1))


def sampled_walk_mismatches(state, pairs, draws, singles: int) -> tuple[int, int]:
    """Draws whose sampled two-pair _bell_walk elements differ from the draw rule.

    Counted twice: among the first `singles` draws, walked one trial per
    call as every seeded protocol round walks, and among all draws, walked
    in one call.  The rule keeps, per trial, the first element in
    BellElement order whose cumulative probability exceeds the draw: by
    bell_probabilities of the first pair, then of the second in the state
    the first element leaves.  bell_probabilities forms the branches by add
    and subtract, not through the sampled walk's weights.
    """
    first, second = pairs
    kept = [q for q in range(state.num_qubits) if q not in first]
    at = tuple(kept.index(q) for q in second)
    branches, _, _ = qs._bell_walk(state.amplitudes, state.num_qubits, [first])

    def bounds(s, pair):
        cumulative = np.cumsum(list(qs.bell_probabilities(s, pair).values()))
        return cumulative[:3] / cumulative[3]

    rule_first = (bounds(state, first) <= draws[:, :1]).sum(axis=1)
    table = np.array([
        bounds(qs.StateVector.from_amplitudes(row, normalize=True), at) for row in branches
    ])
    rule = np.stack([rule_first, (table[rule_first] <= draws[:, 1:]).sum(axis=1)], axis=1)
    _, elements, trials = qs._bell_walk(state.amplitudes, state.num_qubits, pairs, draws=draws)
    one_by_one = [
        qs._bell_walk(state.amplitudes, state.num_qubits, pairs, draws=draw[None])[1][0]
        for draw in draws[:singles]
    ]

    def differ(walked) -> int:
        walked = np.asarray(walked, dtype=np.intp).reshape(-1, 2)
        return int((walked != rule[:len(walked)]).any(axis=1).sum())

    return differ(one_by_one), differ(np.array(elements, dtype=np.intp)[trials])


def _group_qstate(seed: int) -> GroupResult:
    rng = np.random.default_rng(seed)

    def state(num_qubits):
        return qs.StateVector.random(num_qubits, rng)

    def mixed_state(num_qubits, keep):
        return qs.reduced_density(state(num_qubits), range(keep))

    norms = [
        local_norm_deviation(state(4), _LOCAL_OPS[rng.integers(4)], int(rng.integers(4)),
                             state(2))
        for _ in range(20)
    ]
    pairs = [(state(4), tuple(rng.permutation(4)[:2].tolist())) for _ in range(10)]
    traces = [partial_trace_deviation(mixed_state(5, 4)) for _ in range(5)]
    entropies = [entropy_in_bounds(mixed_state(6, 3)) for _ in range(10)]
    uhlmann = [uhlmann_deviation(state(2), mixed_state(4, 2)) for _ in range(10)]
    symmetry = [
        uhlmann_symmetry_deviation(mixed_state(4, 2), mixed_state(4, 2)) for _ in range(10)
    ]
    walk_draws, walk_singles = 2000, 50
    singles, mismatches = sampled_walk_mismatches(
        state(4), ((0, 2), (3, 1)), rng.random((walk_draws, 2)), walk_singles
    )
    return GroupResult("qstate", (
        _worst("norm-preservation", norms, EXACT_TOL),
        _worst("bell-completeness", [bell_completeness_deviation(*i) for i in pairs], EXACT_TOL),
        _worst("partial-trace-two-step", traces, TRACE_TOL),
        CheckResult("entropy-bounds", all(entropies), "0 <= S <= num_qubits"),
        _worst("uhlmann-properties", uhlmann, EXACT_TOL),
        _worst("uhlmann-symmetry", symmetry, ORACLE_TOL),
        CheckResult(
            "sampled-walk-weights", singles == mismatches == 0,
            f"{singles} of {walk_singles} one-trial walks and {mismatches} of {walk_draws} draws"
            " differ from the rule on bell_probabilities",
        ),
    ))


def triple_deviations(params: CloneParams, pos: int) -> tuple[float, float]:
    """Worst amplitude errors of the Pauli triples at pair position `pos`.

    On every machine state |j>, the sigma_z triple must flip the sign where
    bit (n-1-pos) of j is set, and the sigma_x triple must flip that bit of j.
    """
    n = params.n
    states = [cloner_basis_state(j, params) for j in range(params.d)]
    mask = 1 << (n - 1 - pos)
    z_devs, x_devs = [], []
    for j, state in enumerate(states):
        z_out = x_out = state
        for offset in (0, n, 2 * n):
            z_out = qs.apply_local(z_out, qs.PAULI_Z, offset + pos)
            x_out = qs.apply_local(x_out, qs.PAULI_X, offset + pos)
        sign = -1.0 if j & mask else 1.0
        z_devs.append(_max_abs(z_out.amplitudes, sign * state.amplitudes))
        x_devs.append(_max_abs(x_out.amplitudes, states[j ^ mask].amplitudes))
    return _largest(z_devs), _largest(x_devs)


def _group_transformations(seed: int) -> GroupResult:
    checks = []
    for p in _P_VALUES:
        devs = [triple_deviations(CloneParams(p=p, n=2), pos) for pos in (0, 1)]
        checks.append(_worst(f"parity-triples p={p}", [z for z, _ in devs], AMPLITUDE_TOL))
        checks.append(_worst(f"state-triples p={p}", [x for _, x in devs], AMPLITUDE_TOL))
    general = [
        _largest(triple_deviations(CloneParams(p=0.3, n=n), pos))
        for n in (1, 2, 3)
        for pos in range(n)
    ]
    checks.append(_worst("generalized-triples n=1..3", general, AMPLITUDE_TOL))
    return GroupResult("transformations", tuple(checks))


def channel_checks(channel: pt.ChannelState) -> list:
    """Validity checks for one channel state; reusable as a negative control."""
    n, p = channel.params.n, channel.params.p
    entropy = qs.entanglement_entropy(channel.state, range(n))
    return [
        _check(f"channel-norm n={n} p={p}", abs(channel.state.norm - 1.0), EXACT_TOL),
        _check(f"channel-entropy n={n} p={p}", abs(entropy - n), EBIT_TOL),
    ]


def channel_amplitude_deviation(params: CloneParams) -> float:
    """build_channel against the direct sum 2^(-n/2) sum_k |k> (x) machine_k."""
    d = params.d
    expected = np.zeros(d**4, dtype=complex)
    for k, basis in enumerate(np.eye(d, dtype=complex)):
        machine = cloner_basis_state(k, params).amplitudes
        expected += 2.0 ** (-params.n / 2) * np.kron(basis, machine)
    return _max_abs(pt.build_channel(params).state.amplitudes, expected)


def _group_channel(seed: int) -> GroupResult:
    checks = []
    for n in (1, 2, 3):
        for p in _P_VALUES:
            checks.extend(channel_checks(pt.build_channel(CloneParams(p=p, n=n))))
    dev = channel_amplitude_deviation(CloneParams(p=0.3, n=2))
    checks.append(_check("channel-amplitudes n=2", dev, AMPLITUDE_TOL))
    return GroupResult("channel", tuple(checks))


def protocol_deviations(
    psi, params: CloneParams, fidelities, probability: float
) -> tuple[float, float, float]:
    """Every forced outcome of one input, telecloned with `params`, from one batch.

    protocol.evaluate_outcomes gives all 4^n outcomes at once.  Returns the
    worst 1 - overlap with the target state, the worst |F - expected| of the
    two clones against `fidelities` = (F_B, F_C) and the worst
    |P(outcome) - probability|: each counted from 0, with a NaN winning, as
    in _worst, and all three inf unless the batch has 4^n rows.
    """
    probs, overlap, fidelity_b, fidelity_c = pt.evaluate_outcomes(psi, params)
    if len(probs) != 4**params.n:
        return (math.inf,) * 3
    expected_b, expected_c = fidelities
    fids = np.concatenate([fidelity_b - expected_b, fidelity_c - expected_c])
    deviations = (1.0 - overlap, np.abs(fids), np.abs(probs - probability))
    return tuple(float(d.max(initial=0.0)) for d in deviations)


def sampled_frequency_check(psi, params: CloneParams, samples: int, seed: int) -> CheckResult:
    """Seeded outcome counts of sampled measure_senders draws against 4^-n.

    The counts must sum to `samples`, and every one of the 4^n counts must
    lie within z sigma of samples * 4^-n, with z the two-sided Sidak bound
    for 4^n counts at family-wise rate SAMPLED_FAMILY_RATE: a correct
    sampler fails the check with at most that probability (in the normal
    approximation), whatever n is.
    """
    # imported here: statistics loads decimal and fractions, 0.3 MB for every command
    from statistics import NormalDist

    outcomes, share = 4**params.n, 0.25**params.n
    per_count = -math.expm1(math.log1p(-SAMPLED_FAMILY_RATE) * share)  # 1 - (1 - rate)^share
    z = NormalDist().inv_cdf(1 - per_count / 2)
    counts = pt.sample_outcomes(psi, params, samples, seed)
    bound = z * (samples * share * (1 - share)) ** 0.5
    worst = max(abs(c - samples * share) for c in counts.values())
    return CheckResult(
        "sampled-frequencies-sidak",
        sum(counts.values()) == samples and worst <= bound,
        f"worst count deviation {worst:.0f} vs bound {bound:.0f} "
        f"({z:.2f} sigma, {outcomes} counts, family-wise rate {SAMPLED_FAMILY_RATE:.0e})",
    )


def locc_discipline(outcome) -> bool:
    """n=2: one target per receiver register in every correction; 2n bits sent."""
    return all(
        {t // 2 for t in c.targets} == {0, 1, 2} and len(set(c.targets)) == 3
        for c in pt.correction_plan(outcome)
    ) and len(outcome.classical_bits()) == 4


def measurement_order_deviation(psi, outcome) -> float:
    """Walking the sender pairs of the (A, A', K) register in reverse order changes nothing."""
    n = psi.num_qubits
    (fwd,), _, _ = pt._sender_walk(psi, n, outcome=outcome.elements)
    walked = np.kron(psi.amplitudes, np.eye(1 << n, dtype=complex).ravel())  # as _sender_walk
    pairs = [(i, n + i) for i in reversed(range(n))]
    (rev,), _, _ = qs._bell_walk(walked, 3 * n, pairs, outcome=outcome.elements[::-1])
    return _max_abs(fwd, rev)


def cost_deviation(params: CloneParams, ebits: float, input_state=None) -> float:
    """|entanglement_cost_check - ebits|; the default input is the maximal reference."""
    return abs(pt.entanglement_cost_check(params, input_state=input_state) - ebits)


def _group_protocol(seed: int) -> GroupResult:
    rng = np.random.default_rng(seed)
    runs = []
    for n, inputs in ((2, 5), (3, 2)):
        params = CloneParams(p=0.35, n=n)
        for _ in range(inputs):
            psi = qs.StateVector.random(n, rng)
            runs.append(protocol_deviations(psi, params, clone_fidelities(params), 0.25**n))
    overlaps, fidelities, probabilities = zip(*runs)
    params, phi = CloneParams(p=0.25, n=2), pt.BellOutcome.all_phi_plus(2)
    fids = [pt.run(qs.StateVector.random(2, rng), params, outcome=phi).fidelity_b
            for _ in range(20)]
    locc = all(locc_discipline(o) for o in pt.BellOutcome.all_outcomes(2))
    order = measurement_order_deviation(
        qs.StateVector.random(2, rng), pt.BellOutcome.parse("PSI-,PHI-")
    )
    product = qs.tensor(qs.StateVector.random(2, rng), qs.StateVector.basis(0, 2))
    costs = [cost_deviation(CloneParams(p=p, n=2), 2.0) for p in (0.2, 0.5)]
    costs.append(cost_deviation(CloneParams(p=0.5, n=2), 0.0, input_state=product))
    return GroupResult("protocol", (
        _worst("all-outcomes-reach-target n=2,3", overlaps, EXACT_TOL),
        _worst("fidelities-match-formula", fidelities, EXACT_TOL),
        _worst("uniform-outcome-probabilities", probabilities, EXACT_TOL),
        _check("universality-input-independence", float(np.std(fids)), EXACT_TOL),
        CheckResult("locc-discipline", locc, "one target per receiver register; 2n bits"),
        _check("measurement-order-invariance", order, EXACT_TOL),
        _worst("entanglement-cost", costs, EBIT_TOL),
    ))


def _group_outcomes(seed: int) -> GroupResult:
    rng = np.random.default_rng(seed)
    params = CloneParams(p=0.5, n=2)
    psi = qs.StateVector.random(2, rng)
    _, _, dev = protocol_deviations(psi, params, clone_fidelities(params), 1 / 16)
    return GroupResult("outcomes", (
        _check("exact-uniform-1/16", dev, EXACT_TOL),
        sampled_frequency_check(psi, params, 20000, seed),
    ))


def concurrence_deviation(psi, params: CloneParams) -> float:
    """Wootters concurrence of each closed-form clone against C(mu, F)."""
    mu_value = ent.mu(psi.amplitudes)
    return _largest(
        abs(ent.wootters_concurrence(rho) - ent.clone_concurrence(mu_value, f))
        for rho, f in zip(clone_pair(psi, params), clone_fidelities(params))
    )


def input_eof_deviation(psi) -> float:
    """Closed-form input EoF against the entropy of the one-qubit reduction."""
    reduced = qs.reduced_density(psi, [0])
    return abs(ent.input_entanglement(psi.amplitudes) - qs.von_neumann_entropy(reduced))


def sweep_checks(report: ent.DeltaSweepReport) -> list:
    """The four certificates of one delta sweep, at its grid's tolerance."""
    nonnegative = report.violations == 0 and report.min_delta >= -report.grid.tolerance
    return [
        CheckResult("delta-nonnegative", nonnegative, f"min delta {report.min_delta:.3e}"),
        CheckResult("combined-eof-monotone", report.monotone_ok, "nondecreasing on [1/2, p_hi]"),
        CheckResult("inflection-above-0.56", report.inflection_ok,
                    f"min estimate {report.min_inflection_p}"),
        CheckResult("gap-minimized-on-region-boundary", report.boundary_ok,
                    "argmin at a concurrence zero"),
    ]


def physical_region_deviation(mu_value: float) -> tuple[float, bool]:
    """|p_lo + p_hi - 1|, and whether both concurrences turn positive at p_lo."""
    lo, hi = ent.physical_region(mu_value)
    inside = all(ent.clone_concurrence(mu_value, f) > 0 for f in fidelity_curve(lo + 1e-6, 4))
    outside = any(
        ent.clone_concurrence(mu_value, f) == 0.0 for f in fidelity_curve(lo - 1e-6, 4)
    )
    return abs(lo + hi - 1.0), inside and outside


def _group_entanglement(seed: int) -> GroupResult:
    rng = np.random.default_rng(seed)
    concurrences = [
        concurrence_deviation(qs.StateVector.random(2, rng),
                              CloneParams(p=float(rng.uniform()), n=2))
        for _ in range(50)
    ]
    eofs = [input_eof_deviation(qs.StateVector.random(2, rng)) for _ in range(20)]
    report = ent.sweep_delta(ent.SweepGrid(mu_step=0.01, p_step=0.005))
    regions = [physical_region_deviation(m) for m in (0.2, 0.25, 0.3, 0.4, 0.45)]
    hs = ent.eof_from_concurrence(np.linspace(0.0, 1.0, 1001))
    return GroupResult("entanglement", (
        _worst("concurrence-oracle-equivalence", concurrences, EXACT_TOL),
        _worst("input-eof-vs-reduced-entropy", eofs, ORACLE_TOL),
        *sweep_checks(report),
        _worst("physical-region-symmetry", [d for d, _ in regions], AMPLITUDE_TOL),
        CheckResult("physical-region-boundaries", all(ok for _, ok in regions),
                    "positivity flips at edges"),
        CheckResult("eof-monotone", bool(np.all(np.diff(hs) > 0)), "strict on the unit grid"),
    ))


def purification_deviation(mixed: mx.MixedInput) -> float:
    """Tracing the purification back down gives diag(alphas)."""
    back = qs.reduced_density(mx.purify(mixed), range(mixed.n))
    return _max_abs(back.entries, np.diag(mixed.alphas))


def clone_formula_deviation(mixed: mx.MixedInput, params: CloneParams) -> float:
    """Simulated mixed clones (both pairs) against the closed-form clones."""
    rho_b, rho_c, rho_b2, rho_c2 = mx.teleclone_mixed(mixed, params)
    formula_b = mx.mixed_clone_formula(mixed, params)
    formula_c = mx.mixed_clone_formula(mixed, CloneParams(p=params.q, n=params.n))
    pairs = ((rho_b, formula_b), (rho_c, formula_c), (rho_b, rho_b2), (rho_c, rho_c2))
    return _largest(_max_abs(a.entries, b.entries) for a, b in pairs)


def mixed_fidelity_deviation(mixed: mx.MixedInput, params: CloneParams, clone) -> float:
    """Closed-form mixed fidelity against the Uhlmann fidelity of the input and `clone`."""
    oracle = qs.uhlmann_fidelity(mixed.density(), clone)
    return abs(mx.mixed_fidelity(mixed, params) - oracle)


def fidelity_in_bounds(value: float, lower: float, upper: float) -> bool:
    """lower <= value <= upper, each side within EXACT_TOL."""
    return lower - EXACT_TOL <= value <= upper + EXACT_TOL


def trace_monotone(mixed: mx.MixedInput, params: CloneParams) -> bool:
    """Tracing the purified clone down to the mixed one never lowers fidelity.

    A violation is a False here, so it fails its check in the report.
    """
    f_mixed, f_pure = mx.trace_fidelities(mixed, params)
    return f_mixed >= f_pure - EXACT_TOL


def _group_mixed(seed: int) -> GroupResult:
    rng = np.random.default_rng(seed)
    purity = [purification_deviation(mx.MixedInput(a, 2)) for a in mx.sample_simplex(4, 5, rng)]
    qubit = mx.MixedInput(np.array([0.6, 0.4]), 1)
    clones = [clone_formula_deviation(qubit, qubit.protocol_params(p)) for p in (0.2, 0.5, 0.8)]
    oracles, bounds = [], []
    for alphas in mx.sample_simplex(2, 20, rng):
        mixed = mx.MixedInput(alphas, 1)
        params = mixed.protocol_params(0.5)
        clone = mx.mixed_clone_formula(mixed, params)
        oracles.append(mixed_fidelity_deviation(mixed, params, clone))
        lower, _ = mx.fidelity_bounds(params)
        bounds.append(fidelity_in_bounds(mx.mixed_fidelity(mixed, params), lower, 1.0))
    # the bound is attained at the vertices, and the uniform input reaches 1
    params = qubit.protocol_params(0.5)
    lower, _ = mx.fidelity_bounds(params)
    for alphas, value in (([1.0, 0.0], lower), ([0.0, 1.0], lower), ([0.5, 0.5], 1.0)):
        fidelity = mx.mixed_fidelity(mx.MixedInput(np.array(alphas), 1), params)
        bounds.append(fidelity_in_bounds(fidelity, value, value))
    vertices = [mx.MixedInput(np.array(a), 1) for a in ([1.0, 0.0], [0.5, 0.5], [0.7, 0.3])]
    monotone = [trace_monotone(m, m.protocol_params(0.5)) for m in vertices]
    return GroupResult("mixed", (
        _worst("purification-round-trip", purity, AMPLITUDE_TOL),
        _worst("clone-formula-vs-simulation", clones, EXACT_TOL),
        _worst("fidelity-formula-vs-uhlmann", oracles, ORACLE_TOL),
        CheckResult("fidelity-bound-containment", all(bounds),
                    "20 simplex samples in [bound, 1]; vertices at the bound, uniform at 1"),
        CheckResult("trace-monotonicity", all(monotone), "F_mixed >= F_pure"),
    ))


GROUPS = {
    "qstate": _group_qstate,
    "transformations": _group_transformations,
    "channel": _group_channel,
    "protocol": _group_protocol,
    "entanglement": _group_entanglement,
    "mixed": _group_mixed,
    "outcomes": _group_outcomes,
}


def run_verification(groups=None, seed: int = DEFAULT_SEED) -> list:
    """Run the requested groups (all by default), in declaration order."""
    names = list(GROUPS) if groups is None else list(groups)
    results = []
    for name in names:
        if name not in GROUPS:
            raise ValueError(f"unknown group {name!r}; choose from {sorted(GROUPS)}")
        results.append(GROUPS[name](seed))
    return results
