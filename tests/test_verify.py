import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from teleclone import cli, verify
from teleclone import qstate as qs
from teleclone import mixed as mx
from teleclone import protocol as pt
from teleclone.cloning import CloneParams, clone_fidelities
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


def test_nan_deviation_is_never_skipped():
    # the builtin max(0.0, nan) returns 0.0; a NaN must fail the check instead
    params = CloneParams(p=0.5, n=2)
    psi = StateVector.basis(1, 2)
    outcomes = [BellOutcome.parse("PHI+,PSI-"), BellOutcome.parse("PSI+,PHI-")]
    overlap_dev, fidelity_dev = verify.protocol_deviations(
        psi, params, outcomes, (float("nan"), 0.7)
    )
    assert overlap_dev <= verify.EXACT_TOL
    assert not fidelity_dev <= verify.EXACT_TOL


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
    # a missing or an extra row fails, even when every row reads 1/16
    rows = 15 if change == "drop" else 17
    monkeypatch.setattr(
        "teleclone.protocol.evaluate_outcomes", lambda psi, params: (np.full(rows, 1 / 16),) * 4
    )
    psi = StateVector.basis(0, 2)
    params = CloneParams(p=0.5, n=2)
    assert not verify.outcome_probability_deviation(psi, params, 1 / 16) <= verify.EXACT_TOL


def per_outcome_deviations(psi, params, outcomes, fidelities):
    """The route protocol_deviations replaced: one run per listed outcome."""
    overlaps, fids = [0.0], [0.0]
    for outcome in outcomes:
        tr = pt.run(psi, params, outcome=outcome)
        overlaps.append(1.0 - tr.target_overlap)
        fids += [abs(tr.fidelity_b - fidelities[0]), abs(tr.fidelity_c - fidelities[1])]
    return max(overlaps), max(fids)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("select", ["all", "subset", "reversed"])
def test_protocol_deviations_equal_the_per_outcome_route(n, select):
    params = CloneParams(p=0.35, n=n)
    outcomes = list(BellOutcome.all_outcomes(n))
    outcomes = {"all": outcomes, "subset": outcomes[3::5], "reversed": outcomes[::-1]}[select]
    psi = StateVector.random(n, np.random.default_rng(90 + n))
    # expected fidelities off by 1e-6, so the fidelity deviations are not rounding noise
    expected = tuple(f + 1e-6 for f in clone_fidelities(params))
    batch = verify.protocol_deviations(psi, params, outcomes, expected)
    oracle = per_outcome_deviations(psi, params, outcomes, expected)
    np.testing.assert_allclose(batch, oracle, rtol=0, atol=1e-12)


def test_protocol_deviations_select_their_rows(monkeypatch):
    # row k of a stand-in batch deviates by k: only the listed rows may count
    ks = np.arange(16.0)
    monkeypatch.setattr(pt, "evaluate_outcomes", lambda psi, params: (ks, 1.0 - ks, ks, -ks))
    params = CloneParams(p=0.5, n=2)
    outcomes = list(BellOutcome.all_outcomes(2))
    psi = StateVector.basis(0, 2)
    assert verify.protocol_deviations(psi, params, [outcomes[5], outcomes[2]], (0.0, 0.0)) == (
        5.0, 5.0,
    )
    assert verify.protocol_deviations(psi, params, outcomes[9:11], (0.0, 0.0)) == (10.0, 10.0)
    assert verify.protocol_deviations(psi, params, [], (0.0, 0.0)) == (0.0, 0.0)


def test_protocol_deviations_reject_a_wrong_length_outcome():
    with pytest.raises(ValueError, match="2 Bell elements"):
        verify.protocol_deviations(
            StateVector.basis(0, 2), CloneParams(p=0.5, n=2), [BellOutcome.parse("PHI+")],
            (0.7, 0.7),
        )


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
