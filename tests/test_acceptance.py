"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints its own PASS/FAIL line (visible with `pytest -s`, and in
the captured output of any failing test).  Criteria with a runtime budget
assert the measured wall time as well.
"""

import contextlib
import time

import numpy as np

from teleclone import entanglement as ent
from teleclone import mixed as mx
from teleclone import protocol as pt
from teleclone import qstate
from teleclone.cloning import CloneParams, clone_fidelities, clone_pair
from teleclone.mixed import MixedInput
from teleclone.qstate import StateVector


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_criterion_1_werner_bound_reproduction():
    with criterion("criterion 1: symmetric n=2 clone fidelities 0.7 +- 1e-9, <10 s"):
        start = time.perf_counter()
        params = CloneParams(p=0.5, n=2)
        channel = pt.build_channel(params)
        outcomes = list(pt.BellOutcome.all_outcomes(2))
        rng = np.random.default_rng(101)
        for i in range(100):
            psi = StateVector.random(2, rng)
            transcript = pt.run(
                psi, params, outcome=outcomes[i % 16], channel=channel
            )
            assert abs(transcript.fidelity_b - 0.7) <= 1e-9
            assert abs(transcript.fidelity_c - 0.7) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_protocol_correctness_all_outcomes():
    with criterion(
        "criterion 2: all 16 (n=2) and 64 (n=3) outcomes reach the target on "
        "100 random inputs each, overlap >= 1-1e-9, <60 s"
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        for n, p in ((2, 0.35), (3, 0.6)):
            params = CloneParams(p=p, n=n)
            channel = pt.build_channel(params)
            outcomes = list(pt.BellOutcome.all_outcomes(n))
            for _ in range(100):
                psi = StateVector.random(n, rng)
                for outcome in outcomes:
                    transcript = pt.run(psi, params, outcome=outcome, channel=channel)
                    assert transcript.target_overlap >= 1 - 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_3_channel_entanglement():
    with criterion("criterion 3: channel carries n ebits +- 1e-6 across (A'|rest)"):
        for n in (1, 2, 3):
            for p in (0.0, 0.3, 0.5, 1.0):
                channel = pt.build_channel(CloneParams(p=p, n=n))
                entropy = qstate.entanglement_entropy(channel.state, range(n))
                assert abs(entropy - n) <= 1e-6, (n, p, entropy)


def test_criterion_4_entanglement_cost():
    with criterion("criterion 4: 2.0 +- 1e-6 ebits delivered to the reference cut"):
        for p in (0.5, 0.2):
            cost = pt.entanglement_cost_check(CloneParams(p=p, n=2))
            assert abs(cost - 2.0) <= 1e-6, (p, cost)


def test_criterion_5_maximum_clone_entanglement():
    with criterion("criterion 5: peak clone EoF 0.250225 +- 1e-4 ebits"):
        f_b, _ = clone_fidelities(CloneParams(p=0.5, n=2))
        concurrence = ent.clone_concurrence(0.5, f_b)
        assert abs(concurrence - 0.4) <= 1e-12
        assert abs(ent.eof_from_concurrence(concurrence) - 0.250225) <= 1e-4


def test_criterion_6_delta_sweep():
    with criterion(
        "criterion 6: min delta >= -1e-9 on the 0.005 x 0.001 grid, combined "
        "EoF monotone, inflection > 0.56, <60 s"
    ):
        start = time.perf_counter()
        report = ent.sweep_delta(ent.SweepGrid(mu_step=0.005, p_step=0.001))
        assert report.min_delta >= -1e-9
        assert report.violations == 0
        assert report.monotone_ok
        assert report.inflection_ok
        assert report.min_inflection_p is not None
        assert report.min_inflection_p > 0.56
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_7_concurrence_oracle_equivalence():
    with criterion(
        "criterion 7: Wootters eigenvalue route equals the closed form within "
        "1e-9 on 50 random (input, p) pairs"
    ):
        rng = np.random.default_rng(107)
        for _ in range(50):
            psi = StateVector.random(2, rng)
            params = CloneParams(p=float(rng.uniform()), n=2)
            rho_b, rho_c = clone_pair(psi, params)
            f_b, f_c = clone_fidelities(params)
            mu_value = ent.mu(psi.amplitudes)
            assert (
                abs(
                    ent.wootters_concurrence(rho_b)
                    - ent.clone_concurrence(mu_value, f_b)
                )
                <= 1e-9
            )
            assert (
                abs(
                    ent.wootters_concurrence(rho_c)
                    - ent.clone_concurrence(mu_value, f_c)
                )
                <= 1e-9
            )


def test_criterion_8_mixed_state_suite():
    with criterion(
        "criterion 8: mixed n=1 formula vs Uhlmann within 1e-8, bounds "
        "[0.8, 1] with vertex 0.8 and uniform 1.0, tracing never lowers "
        "fidelity, <30 s"
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(108)
        inputs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5])]
        inputs += list(mx.sample_simplex(2, 20, rng))
        for alphas in inputs:
            mixed = MixedInput(alphas, 1)
            params = mixed.protocol_params(0.5)
            formula = mx.mixed_fidelity(mixed, params)
            rho_b, _, _, _ = mx.teleclone_mixed(mixed, params)
            oracle = qstate.uhlmann_fidelity(mixed.density(), rho_b)
            assert abs(formula - oracle) <= 1e-8
            assert 0.8 - 1e-9 <= formula <= 1.0 + 1e-9
            f_mixed, f_pure = mx.monotonicity_check(mixed, params)
            assert f_mixed >= f_pure - 1e-9
        vertex = mx.mixed_fidelity(MixedInput(np.array([1.0, 0.0]), 1),
                                   CloneParams(p=0.5, n=2))
        uniform = mx.mixed_fidelity(MixedInput(np.array([0.5, 0.5]), 1),
                                    CloneParams(p=0.5, n=2))
        assert abs(vertex - 0.8) <= 1e-9
        assert abs(uniform - 1.0) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_9_uniform_outcomes():
    with criterion(
        "criterion 9: exact outcome probabilities 4^-n +- 1e-9 for n=2..4; 1e5 seeded "
        "samples within 3 sigma of 1/16"
    ):
        rng = np.random.default_rng(109)
        for n in (2, 3, 4):
            psi = StateVector.random(n, rng)
            probs = pt.outcome_probabilities(psi, CloneParams(p=0.5, n=n))
            assert len(probs) == 4**n
            for value in probs.values():
                assert abs(value - 0.25**n) <= 1e-9

        samples = 100_000
        psi = StateVector.random(2, rng)
        counts = pt.sample_outcomes(psi, CloneParams(p=0.5, n=2), samples, seed=99)
        assert sum(counts.values()) == samples
        sigma = (samples * (1 / 16) * (15 / 16)) ** 0.5
        for count in counts.values():
            assert abs(count - samples / 16) <= 3 * sigma


def test_criterion_8_extension_two_qubit_mixed_large():
    with criterion(
        "criterion 8 extension: n=2 mixed via the 20-qubit register, "
        "formula vs Uhlmann within 1e-8, <10 min"
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(110)
        plans = [np.full(4, 0.25), mx.sample_simplex(4, 1, rng)[0]]
        for alphas in plans:
            mixed = MixedInput(alphas, 2)
            params = mixed.protocol_params(0.5)
            rho_b, _, _, _ = mx.teleclone_mixed(mixed, params)
            oracle = qstate.uhlmann_fidelity(mixed.density(), rho_b)
            assert abs(mx.mixed_fidelity(mixed, params) - oracle) <= 1e-8
            f_mixed, f_pure = mx.monotonicity_check(mixed, params)
            assert f_mixed >= f_pure - 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f} s"
