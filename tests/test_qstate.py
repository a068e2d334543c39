import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleclone import qstate
from teleclone.cloning import CloneParams, cloner_basis_state
from teleclone.protocol import (
    BellOutcome,
    attach_input,
    build_channel,
    evaluate_outcomes,
    measure_senders,
)
from teleclone.qstate import (
    PAULI_X,
    PAULI_Z,
    BellElement,
    DensityMatrix,
    StateVector,
)

from oracle import measure_pairs, sender_pairs, tensordot_residual

RT2 = 1 / np.sqrt(2)

# a walk over every qubit of six: pairs in both orders, no pair adjacent
ALL_SIX = [(5, 1), (0, 3), (4, 2)]


def bell_state() -> StateVector:
    return StateVector.from_amplitudes([RT2, 0, 0, RT2])


def random_density(num_qubits: int, rng: np.random.Generator) -> DensityMatrix:
    # purify twice as many qubits and trace half out
    pure = StateVector.random(2 * num_qubits, rng)
    return qstate.reduced_density(pure, range(num_qubits))


class TestTensor:
    def test_basis_product(self):
        out = qstate.tensor(StateVector.basis(0, 1), StateVector.basis(1, 1))
        assert out.num_qubits == 2
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0])

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(1)
        a = StateVector.random(2, rng)
        b = StateVector.random(3, rng)
        assert abs(qstate.tensor(a, b).norm - 1.0) < 1e-12

    def test_equals_kron(self):
        rng = np.random.default_rng(3)
        a, b = StateVector.random(3, rng), StateVector.random(5, rng)
        np.testing.assert_array_equal(
            qstate.tensor(a, b).amplitudes, np.kron(a.amplitudes, b.amplitudes)
        )

    def test_bell_times_zero(self):
        out = qstate.tensor(bell_state(), StateVector.basis(0, 1))
        expected = np.zeros(8)
        expected[0] = expected[6] = RT2
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-15)


class TestOwnership:
    def test_public_constructor_copies(self):
        amps = np.array([RT2, 0, 0, RT2], dtype=complex)
        state = StateVector(amps, 2)
        amps[0] = 1.0
        assert state.amplitudes[0] == RT2
        assert state.amplitudes.flags.writeable is False

    def test_internal_results_are_read_only(self):
        params = CloneParams(p=0.5, n=1)
        psi = StateVector.random(1, np.random.default_rng(2))
        total = attach_input(psi, build_channel(params))
        _, collapsed, _ = measure_senders(total, params, outcome=BellOutcome.parse("PSI-"))
        for state in (total, collapsed):
            with pytest.raises(ValueError):
                state.amplitudes[0] = 1.0


class TestApplyLocal:
    def test_bit_flip_most_significant(self):
        out = qstate.apply_local(StateVector.basis(0, 2), PAULI_X, 0)
        np.testing.assert_allclose(out.amplitudes, StateVector.basis(2, 2).amplitudes)

    def test_phase_on_one(self):
        out = qstate.apply_local(StateVector.basis(1, 2), PAULI_Z, 1)
        np.testing.assert_allclose(out.amplitudes, [0, -1, 0, 0])

    def test_parity_triple_fixes_first_machine_state(self):
        # sigma_z on (B_1, C_1, a_1) leaves the j=0 output invariant
        state = cloner_basis_state(0, CloneParams(p=0.3, n=2))
        for pos in (0, 2, 4):
            state = qstate.apply_local(state, PAULI_Z, pos)
        np.testing.assert_allclose(
            state.amplitudes,
            cloner_basis_state(0, CloneParams(p=0.3, n=2)).amplitudes,
            atol=1e-15,
        )

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        state = StateVector.random(4, rng)
        for op in (PAULI_X, qstate.PAULI_Y, PAULI_Z, qstate.IDENTITY):
            assert abs(qstate.apply_local(state, op, 2).norm - 1.0) < 1e-9

    def test_target_out_of_range(self):
        with pytest.raises(ValueError):
            qstate.apply_local(StateVector.basis(0, 2), PAULI_X, 2)

    def test_equals_the_tensordot_route(self):
        # the operator contracted with the target's axis of the (2,)*m
        # tensor, its new axis moved back into place: equal bits on the
        # Paulis, equal to roundoff on random unitaries
        def tensordot_route(state, op, target):
            psi = state.amplitudes.reshape([2] * state.num_qubits)
            return np.moveaxis(np.tensordot(op, psi, axes=([1], [target])), 0, target).reshape(-1)

        rng = np.random.default_rng(11)
        paulis = (PAULI_X, qstate.PAULI_Y, PAULI_Z, qstate.IDENTITY)
        for num_qubits in range(1, 9):
            for _ in range(5):
                state = StateVector.random(num_qubits, rng)
                target = int(rng.integers(num_qubits))
                for op in paulis:
                    out = qstate.apply_local(state, op, target)
                    assert np.array_equal(out.amplitudes, tensordot_route(state, op, target))
                    assert not out.amplitudes.flags.writeable
                gaussian = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                unitary = np.linalg.qr(gaussian)[0]
                np.testing.assert_allclose(
                    qstate.apply_local(state, unitary, target).amplitudes,
                    tensordot_route(state, unitary, target),
                    rtol=0.0,
                    atol=1e-15,
                )


class TestBellProject:
    """Bell projections of one pair (bell_probabilities), of any pairs (the walk)
    and of the sender pairs (the batch)."""

    def test_self_projection(self):
        probs = qstate.bell_probabilities(bell_state(), (0, 1))
        assert list(probs.values()) == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)

    def test_orthogonal_outcome_impossible(self):
        probs = qstate.bell_probabilities(StateVector.basis(0, 2), (0, 1))
        assert probs[BellElement.PSI_PLUS] == probs[BellElement.PSI_MINUS] == 0.0

    def test_completeness(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            state = StateVector.random(4, rng)
            probs = qstate.bell_probabilities(state, (1, 3))
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_same_position_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            qstate.bell_probabilities(bell_state(), (0, 0))

    @pytest.mark.parametrize("num_qubits", [2, 3, 6])
    def test_matches_tensordot_reference(self, num_qubits):
        rng = np.random.default_rng(40 + num_qubits)
        state = StateVector.random(num_qubits, rng)
        for i, j in itertools.permutations(range(num_qubits), 2):
            probs = qstate.bell_probabilities(state, (i, j))
            rows, _, _ = qstate._bell_walk(state.amplitudes, num_qubits, [(i, j)])
            for element, row in zip(BellElement, rows):
                reference = tensordot_residual(state, (i, j), element)
                expected = float(np.vdot(reference, reference).real)
                assert abs(probs[element] - expected) <= 1e-12
                np.testing.assert_allclose(row / np.sqrt(2), reference, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pairs", [[(0, 3), (4, 1)], ALL_SIX], ids=["two-pairs", "all-six"])
    def test_forced_and_all_branch_walks_match_oracle(self, pairs):
        state = StateVector.random(6, np.random.default_rng(66))
        rows, elements, _ = qstate._bell_walk(state.amplitudes, 6, pairs)
        assert elements == list(itertools.product(range(4), repeat=len(pairs)))
        for row, indices in zip(rows, elements):
            outcome = BellOutcome(tuple(qstate._BELL_ORDER[e] for e in indices))
            (forced,), _, _ = qstate._bell_walk(
                state.amplitudes, 6, pairs, outcome=outcome.elements
            )
            _, expected, prob = measure_pairs(state, pairs, outcome=outcome)
            np.testing.assert_array_equal(forced, row)
            assert abs(np.vdot(row, row).real / 2 ** len(pairs) - prob) <= 1e-12
            got = row / np.linalg.norm(row)
            np.testing.assert_allclose(got, expected.amplitudes, rtol=0, atol=1e-12)

    def test_forced_walk_holds_one_register_copy(self):
        # the walk reorders the register once: at 20 qubits one 16 MiB copy,
        # then the 4 MiB first branch beside it; later branches are smaller
        amps = StateVector.basis(0, 20).amplitudes
        pairs = [(19, 2), (7, 11), (0, 5)]
        tracemalloc.start()
        try:
            qstate._bell_walk(amps, 20, pairs, outcome=[BellElement.PHI_PLUS] * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= amps.nbytes + amps.nbytes // 4 + 2**20

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_outcome_probabilities_match_tensordot_reference(self, n):
        # project the sender pairs one after another with the reference contraction
        params = CloneParams(p=0.3, n=n)
        psi = StateVector.random(n, np.random.default_rng(50 + n))
        channel = build_channel(params)
        probs, _, _, _ = evaluate_outcomes(psi, params)
        total = attach_input(psi, channel)
        assert len(probs) == 4**n
        for outcome, prob in zip(BellOutcome.all_outcomes(n), probs):
            _, _, expected = measure_pairs(total, sender_pairs(n), outcome=outcome)
            assert abs(prob - expected) <= 1e-12

    def test_elements_orthonormal(self):
        vectors = [e.tensor().reshape(-1) for e in BellElement]
        gram = np.array([[np.vdot(a, b) for b in vectors] for a in vectors])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


class TestSampledWalk:
    """_bell_walk's draws mode on unequal Bell weights (every protocol walk's are equal)."""

    PAIRS = [(0, 3), (4, 1)]  # one pair in each order

    @pytest.mark.parametrize("state_seed", [60, 61])
    def test_draws_match_oracle(self, state_seed):
        state = StateVector.random(6, np.random.default_rng(state_seed))
        for pairs, s in itertools.product([self.PAIRS, ALL_SIX], range(50)):
            draws = np.random.default_rng(s).random((1, len(pairs)))
            (row,), (elements,), trials = qstate._bell_walk(state.amplitudes, 6, pairs, draws=draws)
            outcome, expected, _ = measure_pairs(state, pairs, rng=np.random.default_rng(s))
            assert tuple(qstate._BELL_ORDER[e] for e in elements) == outcome.elements, (pairs, s)
            assert trials.tolist() == [0]
            got = row / np.linalg.norm(row)
            np.testing.assert_allclose(got, expected.amplitudes, rtol=0, atol=1e-12)

    def test_weights_are_not_uniform(self):
        # the oracle comparison above means little on uniform weights
        rows, _, _ = qstate._bell_walk(
            StateVector.random(6, np.random.default_rng(60)).amplitudes, 6, self.PAIRS[:1]
        )
        probs = (np.abs(rows) ** 2).sum(axis=1) / 2
        assert probs.max() - probs.min() > 0.1

    def test_trials_in_one_call_equal_one_trial_calls(self):
        state = StateVector.random(6, np.random.default_rng(62))
        for pairs in (self.PAIRS, ALL_SIX):
            draws = np.random.default_rng(63).random((300, len(pairs)))
            rows, elements, trials = qstate._bell_walk(state.amplitudes, 6, pairs, draws=draws)
            singles = [
                qstate._bell_walk(state.amplitudes, 6, pairs, draws=draw[None]) for draw in draws
            ]
            assert elements == sorted({single_elements for _, (single_elements,), _ in singles})
            assert len(elements) > 4  # the draws reach several rows
            for trial, (single_rows, (single_elements,), single_trials) in zip(trials, singles):
                assert elements[trial] == single_elements
                np.testing.assert_array_equal(rows[trial], single_rows[0])
                assert single_trials.tolist() == [0]

    @pytest.mark.parametrize("pair_in_00", [False, True])
    def test_draws_at_and_beside_each_bound(self, pair_in_00):
        # a draw exactly at a cumulative bound moves past it (the rule is
        # draw >= bound); with the pair in |00> the weights are 1/2, 1/2, 0, 0,
        # and no draw below 1 may reach a zero-weight PSI element
        amps = StateVector.random(6, np.random.default_rng(65)).amplitudes.reshape([2] * 6).copy()
        pair = self.PAIRS[0]
        if pair_in_00:
            amps[1], amps[:, :, :, 1] = 0, 0  # qubits 0 and 3, the pair, in |0>
        amps = amps.reshape(-1) / np.linalg.norm(amps)
        # the walk's first step: the pair's qubits lead, the rest follow in order
        order = list(pair) + [q for q in range(6) if q not in pair]
        view = np.ascontiguousarray(amps.reshape([2] * 6).transpose(order)).reshape(1, 2, 2, -1)
        weights = np.maximum(qstate._bell_weights(view), 0.0)
        bounds = (weights.cumsum(1) / weights.sum(1)[:, None])[0, :3]
        assert (weights[0, 2:] == 0).all() == pair_in_00
        draws = [
            d for b in bounds for d in (np.nextafter(b, 0.0), b, np.nextafter(b, 1.0)) if d < 1
        ]
        assert len(draws) == (5 if pair_in_00 else 9)
        picked = [int((bounds <= d).sum()) for d in draws]
        assert all(weights[0, e] > 0 for e in picked)
        singles = [
            qstate._bell_walk(amps, 6, [pair], draws=np.array([[d]]))[1][0][0] for d in draws
        ]
        _, elements, trials = qstate._bell_walk(amps, 6, [pair], draws=np.array(draws)[:, None])
        assert singles == picked
        assert [elements[t][0] for t in trials] == picked

    def test_zero_draws(self):
        state = StateVector.random(6, np.random.default_rng(64))
        rows, elements, trials = qstate._bell_walk(
            state.amplitudes, 6, self.PAIRS, draws=np.empty((0, len(self.PAIRS)))
        )
        assert rows.shape == (0, 4)
        assert elements == []
        assert trials.shape == (0,)


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        rho = DensityMatrix.from_state(bell_state())
        reduced = qstate.partial_trace(rho, [0])
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_state_factors(self):
        rng = np.random.default_rng(4)
        a = StateVector.random(1, rng)
        b = StateVector.random(2, rng)
        rho = DensityMatrix.from_state(qstate.tensor(a, b))
        reduced = qstate.partial_trace(rho, [0])
        np.testing.assert_allclose(
            reduced.entries, np.outer(a.amplitudes, a.amplitudes.conj()), atol=1e-12
        )

    def test_two_step_equals_joint(self):
        rng = np.random.default_rng(5)
        rho = random_density(4, rng)
        joint = qstate.partial_trace(rho, [1, 3])
        stepwise = qstate.partial_trace(qstate.partial_trace(rho, [1, 2, 3]), [0, 2])
        np.testing.assert_allclose(joint.entries, stepwise.entries, atol=1e-10)

    def test_purified_pair_traces_to_closed_form_clone(self):
        # clone of a uniformly purified 1-qubit mixed state: tracing the
        # primed half out of the purification's clone must give
        # {coef * diag(alpha) + sqrt(d) q^2 I} / normalization
        p, q, d = 0.3, 0.7, 4
        norm = 1 + (d - 1) * (p**2 + q**2)
        coef = 1 - q**2 + (d - 1) * p**2
        purification = bell_state()
        proj = np.outer(purification.amplitudes, purification.amplitudes.conj())
        rho_pair = DensityMatrix((coef * proj + q**2 * np.eye(4)) / norm, 2)
        reduced = qstate.partial_trace(rho_pair, [0])
        expected = (coef * np.diag([0.5, 0.5]) + 2 * q**2 * np.eye(2)) / norm
        np.testing.assert_allclose(reduced.entries, expected, atol=1e-9)

    def test_empty_keep_rejected(self):
        rho = DensityMatrix.from_state(bell_state())
        with pytest.raises(ValueError):
            qstate.partial_trace(rho, [])

    def test_trace_preserved(self):
        rng = np.random.default_rng(6)
        rho = random_density(3, rng)
        reduced = qstate.partial_trace(rho, [2])
        assert reduced.entries.trace().real == pytest.approx(1.0, abs=1e-12)


class TestEntropy:
    def test_pure_state_zero(self):
        rho = DensityMatrix.from_state(bell_state())
        assert qstate.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_two_qubits(self):
        rho = DensityMatrix(np.eye(4) / 4, 2)
        assert qstate.von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-12)

    def test_channel_reduction_two_ebits(self):
        channel = build_channel(CloneParams(p=0.5, n=2))
        rho = qstate.reduced_density(channel.state, [0, 1])
        assert qstate.von_neumann_entropy(rho) == pytest.approx(2.0, abs=1e-6)

    def test_svd_route_matches_density_route(self):
        rng = np.random.default_rng(7)
        state = StateVector.random(6, rng)
        direct = qstate.entanglement_entropy(state, [0, 2, 5])
        via_rho = qstate.von_neumann_entropy(qstate.reduced_density(state, [0, 2, 5]))
        assert direct == pytest.approx(via_rho, abs=1e-9)

    def test_bounds_on_random_states(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rho = random_density(3, rng)
            entropy = qstate.von_neumann_entropy(rho)
            assert -1e-9 <= entropy <= 3 + 1e-9


class TestUhlmannFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(9)
        rho = random_density(2, rng)
        assert qstate.uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        zero = DensityMatrix.from_state(StateVector.basis(0, 1))
        one = DensityMatrix.from_state(StateVector.basis(1, 1))
        assert qstate.uhlmann_fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_pure_vs_mixed_matches_expectation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            psi = StateVector.random(2, rng)
            rho = random_density(2, rng)
            expected = qstate.state_fidelity(psi, rho)
            computed = qstate.uhlmann_fidelity(DensityMatrix.from_state(psi), rho)
            assert computed == pytest.approx(expected, abs=1e-9)

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        r1, r2 = random_density(2, rng), random_density(2, rng)
        assert qstate.uhlmann_fidelity(r1, r2) == pytest.approx(
            qstate.uhlmann_fidelity(r2, r1), abs=1e-8
        )

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            qstate.uhlmann_fidelity(random_density(1, rng), random_density(2, rng))


class TestValidation:
    def test_state_length_must_match(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(3, dtype=complex), 2)

    def test_register_cap(self):
        with pytest.raises(ValueError):
            StateVector(np.zeros(2**21, dtype=complex), 21)

    def test_tensor_rejects_oversize_product(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="20-qubit limit"):
            qstate.tensor(StateVector.random(11, rng), StateVector.random(10, rng))

    def test_density_must_be_hermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(mat, 1)

    def test_density_hermitian_bound_is_1e9(self):
        # an anti-Hermitian perturbation s*E (E^dagger = -E) makes
        # mat - mat^dagger = 2s*E: 2e-9 is refused, 0.5e-9 is within the bound
        base = np.diag([0.5, 0.5]).astype(complex)
        anti = np.array([[0, 1], [-1, 0]], dtype=complex)
        DensityMatrix(base + 0.25e-9 * anti, 1)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(base + 1e-9 * anti, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_density_rejects_nonfinite_entries(self, bad):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(mat, 1)

    def test_density_must_have_unit_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex), 1)

    def test_density_must_be_psd(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            DensityMatrix(mat, 1)

    def test_amplitudes_frozen(self):
        state = bell_state()
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


class TestGramPath:
    """reduced_density's trusted DensityMatrix._gram path against the public one."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_matches_public_constructor(self, n, seed, data):
        state = StateVector.random(2 * n, np.random.default_rng(seed))
        keep = data.draw(
            st.lists(st.integers(0, 2 * n - 1), min_size=1, max_size=2 * n, unique=True)
        )
        rho = qstate.reduced_density(state, keep)
        kept = sorted(keep)
        rest = [i for i in range(2 * n) if i not in kept]
        mat = state._tensor_view().transpose(kept + rest).reshape(1 << len(kept), -1)
        public = DensityMatrix(mat @ mat.conj().T, len(kept))  # full validation
        np.testing.assert_array_equal(rho.entries, public.entries)
        assert rho.num_qubits == public.num_qubits
        assert not rho.entries.flags.writeable

    def test_skips_only_the_spectrum(self, monkeypatch):
        def refused(mat):
            raise AssertionError("eigvalsh ran on a Gram matrix")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        rho = DensityMatrix._gram(np.array([[0.6, 0.0], [0.0, 0.8]], dtype=complex), 1)
        np.testing.assert_allclose(rho.entries, np.diag([0.36, 0.64]), atol=1e-15)
        with pytest.raises(AssertionError, match="eigvalsh"):
            DensityMatrix(rho.entries, 1)

    def test_keeps_shape_and_trace_checks(self):
        with pytest.raises(ValueError, match="expected a 4x4"):
            DensityMatrix._gram(np.eye(2, dtype=complex) / np.sqrt(2), 2)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix._gram(np.eye(2, dtype=complex), 1)
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix._gram(np.array([[np.nan, 0], [0, 1]], dtype=complex), 1)
