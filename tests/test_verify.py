import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from teleclone import cli, verify
from teleclone import qstate as qs
from teleclone import mixed as mx
from teleclone import protocol as pt
from teleclone.cloning import CloneParams, clone_fidelities, cloner_basis_state
from teleclone.protocol import BellOutcome, ChannelState, build_channel
from teleclone.qstate import StateVector


_P = ("0.0", "0.3", "0.5", "1.0")

#: the report's shape: every group's check names, in order
CHECK_NAMES = {
    "qstate": [
        "norm-preservation", "bell-completeness", "partial-trace-two-step",
        "entropy-bounds", "uhlmann-properties", "uhlmann-symmetry", "sampled-walk-weights",
    ],
    "transformations": [
        name for p in _P for name in (f"parity-triples p={p}", f"state-triples p={p}")
    ] + ["generalized-triples n=1..3"],
    "channel": [
        f"channel-{kind} n={n} p={p}" for n in (1, 2, 3) for p in _P for kind in ("norm", "entropy")
    ] + ["channel-amplitudes n=2"],
    "protocol": [
        "all-outcomes-reach-target n=2,3", "fidelities-match-formula",
        "uniform-outcome-probabilities", "universality-input-independence",
        "locc-discipline", "measurement-order-invariance", "entanglement-cost",
    ],
    "entanglement": [
        "concurrence-oracle-equivalence", "input-eof-vs-reduced-entropy",
        "delta-nonnegative", "combined-eof-monotone", "inflection-above-0.56",
        "gap-minimized-on-region-boundary", "physical-region-symmetry",
        "physical-region-boundaries", "eof-monotone",
    ],
    "mixed": [
        "purification-round-trip", "clone-formula-vs-simulation",
        "fidelity-formula-vs-uhlmann", "fidelity-bound-containment", "trace-monotonicity",
    ],
    "outcomes": ["exact-uniform-1/16", "sampled-frequencies-sidak"],
}


def test_all_groups_pass():
    results = verify.run_verification()
    assert [r.name for r in results] == list(verify.GROUPS) == list(CHECK_NAMES)
    assert {r.name: [c.name for c in r.checks] for r in results} == CHECK_NAMES
    for result in results:
        assert result.passed, [c.name for c in result.checks if not c.passed]


def test_single_group_selection():
    (result,) = verify.run_verification(["transformations"])
    assert result.name == "transformations"
    assert result.passed


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        verify.run_verification(["nonsense"])


def test_wrong_channel_prefactor_fails_norm_check():
    # negative control: scaling the n=3 channel by 1/2^n instead of
    # 2^(-n/2) must trip the channel-norm check
    params = CloneParams(p=0.5, n=3)
    good = build_channel(params)
    bad_amps = good.state.amplitudes * (2.0**-3 / 2.0 ** (-3 / 2))
    bad = ChannelState(StateVector(bad_amps, good.state.num_qubits), params)
    assert abs(bad.state.norm - 2.0 ** (-3 / 2)) < 1e-12
    checks = verify.channel_checks(bad)
    norm_check = next(c for c in checks if "norm" in c.name)
    assert not norm_check.passed
    assert all(c.passed for c in verify.channel_checks(good))


def test_check_result_serialization():
    (result,) = verify.run_verification(["channel"])
    data = result.to_json_dict()
    assert data["name"] == "channel"
    assert data["passed"] is True
    assert all({"name", "passed", "detail"} <= set(c) for c in data["checks"])


def test_bound_slack_is_exact_tol():
    assert verify.fidelity_in_bounds(0.8 - 0.5e-9, 0.8, 1.0)
    assert verify.fidelity_in_bounds(1.0 + 0.5e-9, 0.8, 1.0)
    assert not verify.fidelity_in_bounds(0.8 - 2e-9, 0.8, 1.0)
    assert not verify.fidelity_in_bounds(1.0 + 2e-9, 0.8, 1.0)
    assert not verify.fidelity_in_bounds(float("nan"), 0.8, 1.0)


def test_bound_flags_of_an_array_are_elementwise():
    values = np.array([0.8 - 2e-9, 0.8 - 0.5e-9, 0.9, 1.0 + 0.5e-9, 1.0 + 2e-9, np.nan, np.inf, -np.inf])
    for upper in (1.0, np.inf):
        flags = verify.fidelity_in_bounds(values, 0.8, upper)
        assert flags.tolist() == [bool(verify.fidelity_in_bounds(v, 0.8, upper)) for v in values.tolist()]


def per_state_triple_deviations(params, pos):
    """triple_deviations as six apply_local calls on each machine state, one state at a time."""
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
        z_devs.append(np.abs(z_out.amplitudes - sign * state.amplitudes).max())
        x_devs.append(np.abs(x_out.amplitudes - states[j ^ mask].amplitudes).max())
    return float(max(z_devs)), float(max(x_devs))


@pytest.mark.parametrize("n, pos", [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)])
@pytest.mark.parametrize("swapped", [None, "PAULI_Z", "PAULI_X"])
def test_stacked_triples_equal_the_per_state_loop(monkeypatch, n, pos, swapped):
    # with a Pauli swapped for the identity, both report its triple's error
    if swapped:
        monkeypatch.setattr(qs, swapped, qs.IDENTITY)
    params = CloneParams(p=0.3, n=n)
    stacked = verify.triple_deviations(params, pos)
    assert stacked == per_state_triple_deviations(params, pos)
    assert (stacked[0] > 0.1, stacked[1] > 0.1) == (swapped == "PAULI_Z", swapped == "PAULI_X")


def test_nan_deviation_is_never_skipped():
    # the builtin max(0.0, nan) returns 0.0; a NaN must fail the check instead
    params = CloneParams(p=0.5, n=2)
    psi = StateVector.basis(1, 2)
    nan = float("nan")

    def within(fidelities, probability):
        deviations = verify.protocol_deviations(psi, params, fidelities, probability)
        return [d <= verify.EXACT_TOL for d in deviations]

    assert within((nan, 0.7), 1 / 16) == [True, False, True]
    assert within((0.7, 0.7), nan) == [True, True, False]


def test_nan_instance_fails_its_group_check(monkeypatch):
    real = verify.concurrence_deviation
    calls = []

    def nan_on_second(psi, params):
        calls.append(psi)
        return float("nan") if len(calls) == 2 else real(psi, params)

    monkeypatch.setattr(verify, "concurrence_deviation", nan_on_second)
    (result,) = verify.run_verification(["entanglement"])
    check = result.checks[0]
    assert check.name == "concurrence-oracle-equivalence"
    assert not check.passed
    assert "nan" in check.detail


@pytest.mark.parametrize("change", ["drop", "extra"])
def test_outcome_count_must_be_4_to_the_n(monkeypatch, change):
    # a missing or an extra row fails every claim, even when every row is right
    rows = 15 if change == "drop" else 17
    monkeypatch.setattr(
        "teleclone.protocol.evaluate_outcomes",
        lambda psi, params: (np.full(rows, 1 / 16), np.ones(rows), *np.full((2, rows), 0.7)),
    )
    deviations = verify.protocol_deviations(
        StateVector.basis(0, 2), CloneParams(p=0.5, n=2), (0.7, 0.7), 1 / 16
    )
    assert deviations == (np.inf,) * 3


def test_one_probability_row_fails_only_the_probability_claim(monkeypatch):
    probs = np.full(16, 1 / 16)
    probs[11] += 1e-6
    monkeypatch.setattr(
        pt, "evaluate_outcomes", lambda psi, params: (probs, np.ones(16), *np.full((2, 16), 0.7))
    )
    deviations = verify.protocol_deviations(
        StateVector.basis(0, 2), CloneParams(p=0.5, n=2), (0.7, 0.7), 1 / 16
    )
    assert deviations[:2] == (0.0, 0.0)
    assert deviations[2] == pytest.approx(1e-6, rel=1e-9)


def test_one_batch_per_protocol_input(monkeypatch):
    calls, real = [], pt.evaluate_outcomes

    def counted(psi, params):
        calls.append(params)
        return real(psi, params)

    monkeypatch.setattr(pt, "evaluate_outcomes", counted)
    params = CloneParams(p=0.35, n=3)
    verify.protocol_deviations(StateVector.basis(5, 3), params, clone_fidelities(params), 1 / 64)
    assert calls == [params]
    for group, batches in (("protocol", 7), ("outcomes", 1)):
        calls.clear()
        (result,) = verify.run_verification([group])
        assert result.passed
        assert len(calls) == batches, group


def per_outcome_deviations(psi, params, fidelities, probability):
    """The route protocol_deviations replaced: one run per outcome."""
    overlaps, fids, probs = [0.0], [0.0], [0.0]
    for outcome in BellOutcome.all_outcomes(params.n):
        tr = pt.run(psi, params, outcome=outcome)
        overlaps.append(1.0 - tr.target_overlap)
        fids += [abs(tr.fidelity_b - fidelities[0]), abs(tr.fidelity_c - fidelities[1])]
        probs.append(abs(tr.probability - probability))
    return max(overlaps), max(fids), max(probs)


@pytest.mark.parametrize("n", [2, 3], ids=["all-2", "all-3"])  # every outcome at n
def test_protocol_deviations_equal_the_per_outcome_route(n):
    params = CloneParams(p=0.35, n=n)
    psi = StateVector.random(n, np.random.default_rng(90 + n))
    # expected values off by 1e-6, so the deviations are not rounding noise
    expected = tuple(f + 1e-6 for f in clone_fidelities(params))
    probability = 0.25**n + 1e-6
    batch = verify.protocol_deviations(psi, params, expected, probability)
    oracle = per_outcome_deviations(psi, params, expected, probability)
    np.testing.assert_allclose(batch, oracle, rtol=0, atol=1e-12)


def run_verify_mixed():
    """`teleclone verify --group mixed`: exit code and the printed report."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["verify", "--group", "mixed"])
    return code, json.loads(out.getvalue())


def mixed_check(report, name):
    (group,) = report["groups"]
    return next(c for c in group["checks"] if c["name"] == name)


def test_lifted_lower_bound_fails_verify(monkeypatch):
    # the bound is attained at the vertices, so lifting it by 1e-3 must fail
    real = mx.fidelity_bounds

    def lifted(params):
        lower_b, lower_c = real(params)
        return lower_b + 1e-3, lower_c + 1e-3

    monkeypatch.setattr(mx, "fidelity_bounds", lifted)
    code, report = run_verify_mixed()
    assert code == 1
    assert report["passed"] is False
    assert mixed_check(report, "fidelity-bound-containment")["passed"] is False


def test_bound_containment_detail():
    code, report = run_verify_mixed()
    assert code == 0
    check = mixed_check(report, "fidelity-bound-containment")
    assert check["detail"] == (
        "20 simplex samples in [bound, 1]; vertices at the bound, uniform at 1"
    )


def test_monotonicity_violation_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(mx, "uhlmann_fidelity", lambda rho1, rho2: 0.5)
    code, report = run_verify_mixed()
    assert code == 1
    assert report["passed"] is False
    assert mixed_check(report, "trace-monotonicity")["passed"] is False
    assert mixed_check(report, "purification-round-trip")["passed"] is True


def test_sampled_check_passes_seeds_0_to_99():
    # a per-count 3 sigma bound over 16 counts failed 16 of seeds 0..399
    # (seed 13 among them) on a correct sampler
    failing = [
        seed for seed in range(100)
        if not verify.run_verification(["outcomes"], seed=seed)[0].passed
    ]
    assert failing == []


def test_sampled_bound_is_the_sidak_z_for_4_to_the_n_counts():
    check = verify.sampled_frequency_check(
        StateVector.basis(0, 2), CloneParams(p=0.5, n=2), 20000, 1
    )
    # 1 - (1 - 1e-6)^(1/16) two-sided: z = 5.41; sigma = sqrt(20000/16 * 15/16)
    assert "vs bound 185 (5.41 sigma, 16 counts, family-wise rate 1e-06)" in check.detail


def test_shifting_two_percent_of_draws_fails_the_sampled_check(monkeypatch):
    real = pt.sample_outcomes
    target = BellOutcome.all_phi_plus(2)

    def shifted(psi, params, num_samples, seed):
        counts = real(psi, params, num_samples, seed)
        moved = {o: c // 50 for o, c in counts.items() if o != target}
        shifted_counts = {o: c - moved.get(o, 0) for o, c in counts.items()}
        shifted_counts[target] += sum(moved.values())
        return shifted_counts

    monkeypatch.setattr(pt, "sample_outcomes", shifted)
    (result,) = verify.run_verification(["outcomes"], seed=verify.DEFAULT_SEED)
    check = result.checks[1]
    assert check.name == "sampled-frequencies-sidak"
    assert not check.passed, check.detail


def test_swapped_bell_weights_fail_the_sampled_walk_check(monkeypatch):
    # a sampler that weighs PHI+ as PHI- (and PSI+ as PSI-) keeps uniform
    # protocol walks uniform; only a walk with unequal weights can see it
    real = qs._bell_weights
    monkeypatch.setattr(qs, "_bell_weights", lambda view: real(view)[:, [1, 0, 3, 2]])
    (result,) = verify.run_verification(["qstate"], seed=verify.DEFAULT_SEED)
    check = result.checks[-1]
    assert check.name == "sampled-walk-weights"
    assert not check.passed, check.detail
    assert check.detail.endswith("of 2000 draws differ from the rule on bell_probabilities")


def test_one_trial_swap_fails_the_sampled_walk_check(monkeypatch):
    # the 2,000 draws walk in one call and miss a fault of the one-trial
    # step, which every seeded round takes; only that step evaluates the
    # weights on Python floats, so the swap reaches no other walk
    real = qs._weights_from_sums

    def swapped(norms, cross):
        weights = real(norms, cross)
        return (weights[1], weights[0], *weights[2:]) if isinstance(norms, list) else weights

    monkeypatch.setattr(qs, "_weights_from_sums", swapped)
    (result,) = verify.run_verification(["qstate"], seed=verify.DEFAULT_SEED)
    check = result.checks[-1]
    assert check.name == "sampled-walk-weights"
    assert not check.passed, check.detail
    assert check.detail.endswith("and 0 of 2000 draws differ from the rule on bell_probabilities")
