import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleclone import qstate
from teleclone.cloning import (
    CloneParams,
    clone_fidelities,
    clone_pair,
    cloner_basis_state,
    fidelity_curve,
    target_state,
)
from teleclone.qstate import PAULI_X, StateVector


def explicit_j0_amplitudes(p: float) -> np.ndarray:
    """Direct transcription of the d=4, j=0 machine output, term by term.

    Leading |00>|00>|00>, weight p on the three C-excited terms and q on
    the three B-excited terms, all over sqrt(1 + 3(p^2 + q^2)).
    """
    q = 1 - p
    amps = np.zeros(64, dtype=complex)

    def at(b: str, c: str, a: str) -> int:
        return int(b + c + a, 2)

    amps[at("00", "00", "00")] = 1
    amps[at("00", "01", "01")] = p
    amps[at("00", "10", "10")] = p
    amps[at("00", "11", "11")] = p
    amps[at("01", "00", "01")] = q
    amps[at("10", "00", "10")] = q
    amps[at("11", "00", "11")] = q
    return amps / np.sqrt(1 + 3 * (p**2 + q**2))


class TestClonerBasisState:
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_normalized(self, n, p):
        params = CloneParams(p=p, n=n)
        for j in range(params.d):
            assert abs(cloner_basis_state(j, params).norm - 1.0) < 1e-12

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.9])
    def test_matches_explicit_d4_expansion(self, p):
        state = cloner_basis_state(0, CloneParams(p=p, n=2))
        np.testing.assert_allclose(
            state.amplitudes, explicit_j0_amplitudes(p), atol=1e-15
        )

    def test_state_triple_maps_zero_to_two(self):
        # sigma_x on (B_1, C_1, a_1) adds the high bit to the index
        params = CloneParams(p=0.4, n=2)
        state = cloner_basis_state(0, params)
        for pos in (0, 2, 4):
            state = qstate.apply_local(state, PAULI_X, pos)
        np.testing.assert_allclose(
            state.amplitudes, cloner_basis_state(2, params).amplitudes, atol=1e-15
        )

    @pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
    def test_outputs_orthonormal(self, p):
        params = CloneParams(p=p, n=2)
        states = [cloner_basis_state(j, params) for j in range(4)]
        gram = np.array([[a.overlap(b) for b in states] for a in states])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)

    def test_linearly_independent(self):
        params = CloneParams(p=0.25, n=2)
        stack = np.stack(
            [cloner_basis_state(j, params).amplitudes for j in range(4)]
        )
        assert np.linalg.matrix_rank(stack) == 4

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            cloner_basis_state(4, CloneParams(p=0.5, n=2))

    def test_oversize_register_refused_before_allocation(self):
        # 3n = 21 qubits would be 32 MiB of amplitudes
        params = CloneParams(p=0.5, n=7)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="register size 21 is outside the 20-qubit limit"):
                cloner_basis_state(0, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCloneParams:
    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_weight_range_enforced(self, p):
        with pytest.raises(ValueError):
            CloneParams(p=p, n=2)

    def test_dimension_must_fit_a_float(self):
        # every closed form turns d = 2^n into a float; 2^1024 overflows one
        with pytest.raises(ValueError, match="overflows a float"):
            CloneParams(p=0.5, n=1024)
        assert float(CloneParams(p=0.5, n=1023).d) == 2.0**1023

    def test_derived_fields(self):
        params = CloneParams(p=0.3, n=3)
        assert params.q == pytest.approx(0.7)
        assert params.d == 8
        assert params.normalization == pytest.approx(1 + 7 * (0.09 + 0.49))


class TestClonePair:
    def test_full_weight_gives_perfect_b_clone(self):
        # p=1 puts all weight on clone B; C collapses to the maximally
        # mixed state with fidelity 1/d
        rng = np.random.default_rng(21)
        psi = StateVector.random(2, rng)
        params = CloneParams(p=1.0, n=2)
        rho_b, rho_c = clone_pair(psi, params)
        np.testing.assert_allclose(
            rho_b.entries, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-12
        )
        np.testing.assert_allclose(rho_c.entries, np.eye(4) / 4, atol=1e-12)
        f_b, f_c = clone_fidelities(params)
        assert f_b == pytest.approx(1.0, abs=1e-12)
        assert f_c == pytest.approx(0.25, abs=1e-12)

    def test_symmetric_point_gives_seven_tenths(self):
        rng = np.random.default_rng(22)
        psi = StateVector.random(2, rng)
        rho_b, rho_c = clone_pair(psi, CloneParams(p=0.5, n=2))
        assert qstate.state_fidelity(psi, rho_b) == pytest.approx(0.7, abs=1e-12)
        assert qstate.state_fidelity(psi, rho_c) == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_matches_partial_trace_of_target_state(self, p):
        # independent route: build the delivered 3n-qubit superposition
        # and trace down to each clone register
        rng = np.random.default_rng(23)
        params = CloneParams(p=p, n=2)
        psi = StateVector.random(2, rng)
        rho_b, rho_c = clone_pair(psi, params)
        delivered = target_state(psi.amplitudes, params)
        traced_b = qstate.reduced_density(delivered, [0, 1])
        traced_c = qstate.reduced_density(delivered, [2, 3])
        np.testing.assert_allclose(rho_b.entries, traced_b.entries, atol=1e-9)
        np.testing.assert_allclose(rho_c.entries, traced_c.entries, atol=1e-9)

    def test_superpositions_keep_the_closed_form(self):
        # the clone formulas must hold for any superposition of machine
        # outputs, not just basis inputs
        rng = np.random.default_rng(24)
        params = CloneParams(p=0.7, n=1)
        for _ in range(5):
            psi = StateVector.random(1, rng)
            delivered = target_state(psi.amplitudes, params)
            rho_b, _ = clone_pair(psi, params)
            np.testing.assert_allclose(
                qstate.reduced_density(delivered, [0]).entries,
                rho_b.entries,
                atol=1e-9,
            )


class TestTargetState:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_scatter_matches_sum_of_machine_outputs(self, n, p):
        params = CloneParams(p=p, n=n)
        alphas = StateVector.random(n, np.random.default_rng(25 + n)).amplitudes
        expected = sum(
            alpha * cloner_basis_state(j, params).amplitudes for j, alpha in enumerate(alphas)
        )
        np.testing.assert_allclose(
            target_state(alphas, params).amplitudes, expected, rtol=0, atol=1e-15
        )

    def test_zero_amplitudes_leave_their_terms_empty(self):
        params = CloneParams(p=0.4, n=2)
        np.testing.assert_array_equal(
            target_state([0, 0, 1, 0], params).amplitudes,
            cloner_basis_state(2, params).amplitudes,
        )

    def test_oversize_register_rejected(self):
        with pytest.raises(ValueError, match="20-qubit limit"):
            target_state(np.ones(128), CloneParams(p=0.5, n=7))

    def test_amplitude_count_must_match(self):
        with pytest.raises(ValueError):
            target_state([1, 0], CloneParams(p=0.5, n=2))


class TestFidelities:
    def test_symmetric_d4_reaches_optimal_bound(self):
        assert clone_fidelities(CloneParams(p=0.5, n=2)) == pytest.approx((0.7, 0.7))

    def test_zero_weight_endpoint(self):
        assert clone_fidelities(CloneParams(p=0.0, n=2)) == pytest.approx((0.25, 1.0))

    def test_single_qubit_symmetric_value(self):
        f_b, f_c = clone_fidelities(CloneParams(p=0.5, n=1))
        assert f_b == pytest.approx(5 / 6, abs=1e-12)
        assert f_c == pytest.approx(5 / 6, abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_mirror_symmetry_and_range(self, p):
        for d in (2, 4, 8):
            f_b, f_c = fidelity_curve(p, d)
            fb_swap, fc_swap = fidelity_curve(1.0 - p, d)
            assert float(f_b) == pytest.approx(float(fc_swap), abs=1e-12)
            assert float(f_c) == pytest.approx(float(fb_swap), abs=1e-12)
            assert 1 / d - 1e-12 <= float(f_b) <= 1 + 1e-12

    def test_strictly_monotone_on_grid(self):
        ps = np.linspace(0.0, 1.0, 201)
        f_b, f_c = fidelity_curve(ps, 4)
        assert np.all(np.diff(f_b) > 0)
        assert np.all(np.diff(f_c) < 0)
