"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints its own PASS/FAIL line (visible with `pytest -s`, and in
the captured output of any failing test).  Criteria with a runtime budget
assert the measured wall time as well.  Every criterion with a twin in
`teleclone verify` feeds its own instances through the same invariant
function of `teleclone.verify`, at the same named tolerance.
"""

import contextlib
import time

import numpy as np

from teleclone import entanglement as ent
from teleclone import mixed as mx
from teleclone import protocol as pt
from teleclone import verify
from teleclone.cloning import CloneParams, clone_fidelities
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
    with criterion(
        "criterion 1: symmetric n=2 clone fidelities 0.7 +- 1e-9 on all 16 outcomes, <10 s"
    ):
        start = time.perf_counter()
        params = CloneParams(p=0.5, n=2)
        rng = np.random.default_rng(101)
        for _ in range(100):
            psi = StateVector.random(2, rng)
            deviations = verify.protocol_deviations(psi, params, (0.7, 0.7), 1 / 16)
            assert all(d <= verify.EXACT_TOL for d in deviations), deviations
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_protocol_correctness_all_outcomes():
    with criterion(
        "criterion 2: all 16 (n=2) and 64 (n=3) outcomes reach the target on "
        "100 random inputs each, overlap >= 1-1e-9, <60 s"
    ):
        start = time.perf_counter()
        rng = np.random.default_rng(102)
        for n, p, probability in ((2, 0.35, 1 / 16), (3, 0.6, 1 / 64)):
            params = CloneParams(p=p, n=n)
            for _ in range(100):
                psi = StateVector.random(n, rng)
                deviations = verify.protocol_deviations(
                    psi, params, clone_fidelities(params), probability
                )
                assert all(d <= verify.EXACT_TOL for d in deviations), deviations
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_3_channel_entanglement():
    with criterion("criterion 3: channel carries n ebits +- 1e-6 across (A'|rest)"):
        for n in (1, 2, 3):
            for p in (0.0, 0.3, 0.5, 1.0):
                checks = verify.channel_checks(pt.build_channel(CloneParams(p=p, n=n)))
                assert all(c.passed for c in checks), [c.detail for c in checks]


def test_criterion_4_entanglement_cost():
    with criterion("criterion 4: 2.0 +- 1e-6 ebits delivered to the reference cut"):
        for p in (0.5, 0.2):
            assert verify.cost_deviation(CloneParams(p=p, n=2), 2.0) <= verify.EBIT_TOL, p


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
        assert report.grid.tolerance == 1e-9
        failed = [c.name for c in verify.sweep_checks(report) if not c.passed]
        assert not failed
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
            assert verify.concurrence_deviation(psi, params) <= verify.EXACT_TOL


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
            rho_b, _, _, _ = mx.teleclone_mixed(mixed, params)
            assert verify.mixed_fidelity_deviation(mixed, params, rho_b) <= verify.ORACLE_TOL
            assert verify.fidelity_in_bounds(mx.mixed_fidelity(mixed, params), 0.8, 1.0)
            assert verify.trace_monotone(mixed, params)
        params = CloneParams(p=0.5, n=2)
        vertex = mx.mixed_fidelity(MixedInput(np.array([1.0, 0.0]), 1), params)
        uniform = mx.mixed_fidelity(MixedInput(np.array([0.5, 0.5]), 1), params)
        assert verify.fidelity_in_bounds(vertex, 0.8, 0.8)
        assert verify.fidelity_in_bounds(uniform, 1.0, 1.0)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_9_uniform_outcomes():
    with criterion(
        "criterion 9: exact outcome probabilities 4^-n +- 1e-9 for n=2..4; 1e5 seeded "
        "measure_senders draws within the Sidak bound of 1/16 (family-wise rate 1e-6)"
    ):
        rng = np.random.default_rng(109)
        for n, probability in ((2, 1 / 16), (3, 1 / 64), (4, 1 / 256)):
            psi = StateVector.random(n, rng)
            params = CloneParams(p=0.5, n=n)
            _, _, deviation = verify.protocol_deviations(
                psi, params, clone_fidelities(params), probability
            )
            assert deviation <= verify.EXACT_TOL

        psi = StateVector.random(2, rng)
        check = verify.sampled_frequency_check(psi, CloneParams(p=0.5, n=2), 100_000, 99)
        assert check.passed, check.detail


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
            assert verify.mixed_fidelity_deviation(mixed, params, rho_b) <= verify.ORACLE_TOL
            assert verify.trace_monotone(mixed, params)
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"took {elapsed:.1f} s"
