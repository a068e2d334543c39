import itertools
import json
import tracemalloc

import numpy as np
import pytest

from teleclone import mixed, protocol, qstate
from teleclone.cloning import CloneParams, clone_fidelities, cloner_basis_state, target_state
from teleclone.protocol import (
    BellOutcome,
    Correction,
    attach_input,
    build_channel,
    correction_plan,
    apply_corrections,
    entanglement_cost_check,
    evaluate_outcomes,
    measure_senders,
    run,
    sample_outcomes,
)
from teleclone.qstate import BellElement, StateVector

from oracle import apply_plan, lift, measure_pairs, sender_pairs


#: n -> (p, the outcomes run(psi, CloneParams(p, n), seed=s) draws for
#: s = 0, 1, ...); the draws depend on the seed alone, since every
#: conditional Bell probability is 1/4
PINNED_OUTCOMES = {
    2: (
        0.3,
        (
            "PSI+,PHI-", "PSI+,PSI-", "PHI-,PHI-", "PHI+,PHI+", "PSI-,PSI+",
            "PSI-,PSI-", "PSI+,PHI-", "PSI+,PSI-", "PHI-,PSI-", "PSI-,PHI-",
            "PSI-,PHI+", "PHI+,PHI-", "PHI-,PSI-", "PSI-,PSI-", "PSI-,PHI-",
            "PSI+,PSI-", "PSI+,PHI-", "PSI-,PHI+", "PHI-,PSI+", "PHI-,PSI-",
            "PHI-,PHI-", "PSI-,PSI+", "PHI-,PHI+", "PSI+,PSI+", "PHI-,PHI-",
            "PHI+,PHI+", "PHI-,PHI+", "PSI+,PHI-", "PSI-,PSI-", "PHI+,PSI+",
            "PHI+,PHI-", "PSI-,PHI+",
        ),
    ),
    3: (
        0.6,
        (
            "PSI+,PHI-,PHI+", "PSI+,PSI-,PHI+", "PHI-,PHI-,PSI-", "PHI+,PHI+,PSI-",
            "PSI-,PSI+,PSI-", "PSI-,PSI-,PSI+", "PSI+,PHI-,PHI-", "PSI+,PSI-,PSI-",
        ),
    ),
    4: (
        0.5,
        (
            "PSI+,PHI-,PHI+,PHI+", "PSI+,PSI-,PHI+,PSI-", "PHI-,PHI-,PSI-,PHI+",
            "PHI+,PHI+,PSI-,PSI+", "PSI-,PSI+,PSI-,PHI+", "PSI-,PSI-,PSI+,PHI-",
            "PSI+,PHI-,PHI-,PHI-", "PSI+,PSI-,PSI-,PHI+",
        ),
    ),
}


def random_input(n, seed):
    return StateVector.random(n, np.random.default_rng(seed))


def with_reference(n, reference, seed):
    """n input qubits and n reference qubits: 2^(-n/2) sum_j |j>|j>, or a random product."""
    if reference == "product":
        return qstate.tensor(random_input(n, seed + n), random_input(n, seed + 10 + n))
    amps = np.zeros(4**n, dtype=complex)
    amps[np.arange(2**n) * (2**n + 1)] = 2.0 ** (-n / 2)
    return StateVector(amps, 2 * n)


class TestChannel:
    def test_amplitudes_match_direct_assembly_n2(self):
        params = CloneParams(p=0.5, n=2)
        expected = np.zeros(256, dtype=complex)
        for k in range(4):
            label = np.zeros(4, dtype=complex)
            label[k] = 1.0
            expected += 0.5 * np.kron(label, cloner_basis_state(k, params).amplitudes)
        np.testing.assert_allclose(
            build_channel(params).state.amplitudes, expected, atol=1e-15
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
    def test_sender_side_entropy_is_n_ebits(self, n, p):
        channel = build_channel(CloneParams(p=p, n=n))
        assert abs(channel.state.norm - 1.0) < 1e-9
        entropy = qstate.entanglement_entropy(channel.state, range(n))
        assert entropy == pytest.approx(n, abs=1e-6)

    def test_oversize_channel_rejected(self):
        with pytest.raises(ValueError, match="20-qubit limit"):
            build_channel(CloneParams(p=0.5, n=6))


class TestAttachInput:
    def test_basis_input_bracket(self):
        # for |00>, the total state is half the sum over labels k of
        # |00>|k> (x) machine_state_k
        params = CloneParams(p=0.4, n=2)
        total = attach_input(StateVector.basis(0, 2), build_channel(params))
        expected = np.zeros(1 << 10, dtype=complex)
        for k in range(4):
            ak = np.zeros(16, dtype=complex)
            ak[k] = 0.5  # A block fixed at |00>, A' block at |k>
            expected += np.kron(ak, cloner_basis_state(k, params).amplitudes)
        np.testing.assert_allclose(total.amplitudes, expected, atol=1e-15)

    def test_normalized(self):
        params = CloneParams(p=0.1, n=2)
        total = attach_input(random_input(2, 31), build_channel(params))
        assert abs(total.norm - 1.0) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="input register size does not match n=2"):
            attach_input(random_input(1, 32), build_channel(CloneParams(p=0.5, n=2)))

    @pytest.mark.parametrize(
        "amplitudes", [[2.0, 0, 0, 0], [1.0, np.nan, 0, 0]], ids=["norm2", "nan"]
    )
    def test_input_passes_runs_norm_check(self, amplitudes):
        state = StateVector(np.array(amplitudes, dtype=complex), 2)
        with pytest.raises(ValueError, match="input state norm"):
            attach_input(state, build_channel(CloneParams(p=0.5, n=2)))


class TestMeasureSenders:
    def test_all_phi_plus_collapses_to_target_exactly(self):
        params = CloneParams(p=0.35, n=2)
        psi = random_input(2, 33)
        total = attach_input(psi, build_channel(params))
        outcome, collapsed, prob = measure_senders(
            total, params, outcome=BellOutcome.all_phi_plus(2)
        )
        assert prob == pytest.approx(1 / 16, abs=1e-12)
        np.testing.assert_allclose(
            collapsed.amplitudes,
            target_state(psi.amplitudes, params).amplitudes,
            atol=1e-12,
        )

    def test_mixed_parity_outcome_signs(self):
        # (PHI-, PSI-) leaves a0*s1 - a1*s0 - a2*s3 + a3*s2 where s_j are
        # the machine basis outputs
        params = CloneParams(p=0.5, n=2)
        psi = random_input(2, 34)
        total = attach_input(psi, build_channel(params))
        outcome = BellOutcome.parse("PHI-,PSI-")
        _, collapsed, prob = measure_senders(total, params, outcome=outcome)
        a = psi.amplitudes
        expected = (
            a[0] * cloner_basis_state(1, params).amplitudes
            - a[1] * cloner_basis_state(0, params).amplitudes
            - a[2] * cloner_basis_state(3, params).amplitudes
            + a[3] * cloner_basis_state(2, params).amplitudes
        )
        assert prob == pytest.approx(1 / 16, abs=1e-12)
        assert abs(np.vdot(expected, collapsed.amplitudes)) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_outcome_distribution_uniform(self, n):
        params = CloneParams(p=0.3, n=n)
        probs, _, _, _ = evaluate_outcomes(random_input(n, 35), params)
        assert len(probs) == 4**n
        for value in probs:
            assert value == pytest.approx(0.25**n, abs=1e-9)

    def test_sampled_mode_deterministic(self):
        params = CloneParams(p=0.5, n=2)
        psi = random_input(2, 36)
        first = run(psi, params, seed=123)
        second = run(psi, params, seed=123)
        assert first.outcome == second.outcome
        assert run(psi, params, seed=124).probability == pytest.approx(1 / 16)

    def test_mode_must_be_exactly_one(self):
        params = CloneParams(p=0.5, n=2)
        total = attach_input(random_input(2, 37), build_channel(params))
        with pytest.raises(ValueError):
            measure_senders(total, params)

    def test_impossible_forced_outcome_raises(self):
        # on |0...0> (10 qubits, n=2) each sender pair (A_i, A'_i) is |00>:
        # a PSI element has probability 0, so there is no state to renormalize
        params = CloneParams(p=0.5, n=2)
        basis = StateVector.basis(0, 10)
        with pytest.raises(protocol.ImpossibleOutcomeError, match="PHI\\+,PSI-"):
            measure_senders(basis, params, outcome=BellOutcome.parse("PHI+,PSI-"))
        _, _, prob = measure_senders(basis, params, outcome=BellOutcome.parse("PHI-,PHI+"))
        assert prob == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_forced_outcome_equals_the_oracle(self, n):
        params = CloneParams(p=0.45, n=n)
        total = attach_input(random_input(n, 190 + n), build_channel(params))
        for outcome in BellOutcome.all_outcomes(n):
            measured, collapsed, prob = measure_senders(total, params, outcome=outcome)
            _, expected, expected_prob = measure_pairs(total, sender_pairs(n), outcome=outcome)
            assert measured == outcome
            assert abs(prob - expected_prob) <= 1e-12
            assert np.abs(collapsed.amplitudes - expected.amplitudes).max() <= 1e-12

    def test_measurement_order_invariance(self):
        # measure_senders' pair order against the oracle's reversed one
        params = CloneParams(p=0.5, n=2)
        total = attach_input(random_input(2, 38), build_channel(params))
        outcome = BellOutcome.parse("PSI+,PHI-")
        _, fwd, p_fwd = measure_senders(total, params, outcome=outcome)
        _, rev, p_rev = measure_pairs(
            total, sender_pairs(2)[::-1], outcome=BellOutcome(outcome.elements[::-1])
        )
        assert p_fwd == pytest.approx(p_rev, abs=1e-12)
        assert fwd.fidelity_with(rev) == pytest.approx(1.0, abs=1e-12)


class TestBellOutcome:
    @pytest.mark.parametrize(
        "elements, bad", [(("PHI+", "PHI+"), "'PHI\\+'"), ((BellElement.PHI_PLUS, 0), "0")]
    )
    def test_refuses_anything_but_bell_elements(self, elements, bad):
        with pytest.raises(ValueError, match=f"outcome element {bad} is not a BellElement"):
            BellOutcome(elements)


class TestCorrectionPlan:
    def test_trivial_outcome_needs_no_correction(self):
        assert correction_plan(BellOutcome.all_phi_plus(2)) == ()

    def test_mixed_parity_plan(self):
        plan = correction_plan(BellOutcome.parse("PHI-,PSI-"))
        assert [(c.op, c.pair) for c in plan] == [("x", 1), ("z", 0), ("z", 1)]
        assert plan[0].targets == (1, 3, 5)
        assert plan[1].targets == (0, 2, 4)

    def test_three_pair_plan(self):
        plan = correction_plan(BellOutcome.parse("PSI+,PHI+,PHI-"))
        assert [(c.op, c.pair) for c in plan] == [("x", 0), ("z", 2)]
        assert plan[0].targets == (0, 3, 6)
        assert plan[1].targets == (2, 5, 8)

    def test_plan_is_local_per_register(self):
        n = 3
        for outcome in BellOutcome.all_outcomes(n):
            for correction in correction_plan(outcome):
                registers = {t // n for t in correction.targets}
                assert registers == {0, 1, 2}

    def test_classical_bits_count_and_meaning(self):
        outcome = BellOutcome.parse("PHI-,PSI-")
        assert outcome.classical_bits() == (0, 1, 1, 1)
        assert len(BellOutcome.all_phi_plus(3).classical_bits()) == 6

    def test_swapping_x_and_z_order_changes_global_phase_only(self):
        params = CloneParams(p=0.5, n=2)
        psi = random_input(2, 39)
        total = attach_input(psi, build_channel(params))
        outcome = BellOutcome.parse("PSI-,PSI-")
        _, collapsed, _ = measure_senders(total, params, outcome=outcome)
        plan = correction_plan(outcome)
        forward = apply_corrections(collapsed, plan)
        reverse = apply_corrections(collapsed, plan[::-1])
        assert forward.fidelity_with(reverse) == pytest.approx(1.0, abs=1e-12)


class TestPauliFrame:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_sequential_route_for_every_outcome(self, n):
        # two spectator qubits behind the (B, C, anc) block; forward and
        # reversed plans, bit for bit
        state = random_input(3 * n + 2, 50 + n)
        for outcome in BellOutcome.all_outcomes(n):
            plan = correction_plan(outcome)
            for ordered in (plan, plan[::-1]):
                np.testing.assert_array_equal(
                    apply_corrections(state, ordered).amplitudes,
                    apply_plan(state, ordered).amplitudes,
                )

    def test_z_before_x_flips_the_global_sign(self):
        plan = correction_plan(BellOutcome.parse("PSI-"))
        state = random_input(3, 54)
        forward = apply_corrections(state, plan)
        reverse = apply_corrections(state, plan[::-1])
        # three qubits carry both X and Z, so the orders differ by (-1)^3
        np.testing.assert_array_equal(reverse.amplitudes, -forward.amplitudes)

    def test_cancelling_plan_keeps_its_sign(self):
        # Z X Z X = -I: the flips and phases cancel, the sign does not
        plan = [Correction(op, 0, (1,)) for op in "zxzx"]
        state = random_input(2, 57)
        out = apply_corrections(state, plan)
        np.testing.assert_array_equal(out.amplitudes, -state.amplitudes)
        np.testing.assert_array_equal(out.amplitudes, apply_plan(state, plan).amplitudes)

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown correction op"):
            apply_corrections(random_input(2, 58), [Correction("y", 0, (0,))])

    def test_position_out_of_range(self):
        # the x triple of pair 1 reaches position 5 of a 5-qubit state
        plan = correction_plan(BellOutcome.parse("PHI+,PSI+"))
        with pytest.raises(ValueError, match="qubit position 5 out of range"):
            apply_corrections(random_input(5, 55), plan)

    def test_result_is_read_only(self):
        plan = correction_plan(BellOutcome.parse("PSI-,PHI-"))
        out = apply_corrections(random_input(6, 56), plan)
        with pytest.raises(ValueError):
            out.amplitudes[0] = 1.0


class TestRun:
    def test_asymmetric_bell_input_fidelity(self):
        psi = StateVector.from_amplitudes([1, 0, 0, 1], normalize=True)
        params = CloneParams(p=0.3, n=2)
        transcript = run(psi, params, outcome=BellOutcome.all_phi_plus(2))
        expected = (1 + 3 * 0.09) / (1 + 3 * (0.09 + 0.49))
        assert transcript.fidelity_b == pytest.approx(expected, abs=1e-9)

    def test_single_qubit_protocol(self):
        params = CloneParams(p=0.5, n=1)
        psi = random_input(1, 41)
        transcript = run(psi, params, outcome=BellOutcome.all_phi_plus(1))
        np.testing.assert_allclose(
            transcript.final_state.amplitudes,
            target_state(psi.amplitudes, params).amplitudes,
            atol=1e-12,
        )
        assert transcript.fidelity_b == pytest.approx(5 / 6, abs=1e-9)
        assert transcript.fidelity_c == pytest.approx(5 / 6, abs=1e-9)

    def test_universality_over_inputs(self):
        params = CloneParams(p=0.2, n=2)
        channel = build_channel(params)
        rng = np.random.default_rng(42)
        f_b, f_c = clone_fidelities(params)
        fids = []
        for _ in range(30):
            transcript = run(
                StateVector.random(2, rng),
                params,
                outcome=BellOutcome.all_phi_plus(2),
                channel=channel,
            )
            fids.append((transcript.fidelity_b, transcript.fidelity_c))
        arr = np.array(fids)
        assert np.std(arr[:, 0]) < 1e-9
        assert np.std(arr[:, 1]) < 1e-9
        assert arr[0, 0] == pytest.approx(f_b, abs=1e-9)
        assert arr[0, 1] == pytest.approx(f_c, abs=1e-9)

    def test_oversize_register_refused_before_the_channel(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("sender walk called for an oversize run")

        monkeypatch.setattr(protocol, "_sender_walk", no_walk)
        with pytest.raises(ValueError, match="register size 25 is outside the 20-qubit limit"):
            run(random_input(5, 46), CloneParams(p=0.5, n=5), outcome=BellOutcome.all_phi_plus(5))

    def test_outcome_length_checked_before_the_channel(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("sender walk called for a malformed outcome")

        monkeypatch.setattr(protocol, "_sender_walk", no_walk)
        with pytest.raises(ValueError, match="outcome length does not match"):
            run(random_input(2, 49), CloneParams(p=0.5, n=2), outcome=BellOutcome.parse("PHI+"))

    def test_foreign_channel_refused_before_the_walk(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("sender walk run with a foreign channel")

        channel = build_channel(CloneParams(p=0.3, n=2))
        monkeypatch.setattr(protocol, "_sender_walk", no_walk)
        with pytest.raises(ValueError, match="channel was built for different params"):
            run(
                random_input(2, 50),
                CloneParams(p=0.5, n=2),
                outcome=BellOutcome.all_phi_plus(2),
                channel=channel,
            )

    def test_requires_normalized_input(self):
        params = CloneParams(p=0.5, n=2)
        bad = StateVector(np.array([1.0, 0, 0, 1.0], dtype=complex), 2)
        with pytest.raises(ValueError):
            run(bad, params, outcome=BellOutcome.all_phi_plus(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_rejected_by_the_norm_check(self, bad):
        state = StateVector(np.array([1.0, bad, 0, 0], dtype=complex), 2)
        with pytest.raises(ValueError, match="input state norm"):
            run(state, CloneParams(p=0.5, n=2), outcome=BellOutcome.all_phi_plus(2))

    def test_transcript_round_trips_to_json(self):
        params = CloneParams(p=0.5, n=2)
        transcript = run(
            random_input(2, 43), params, outcome=BellOutcome.parse("PSI-,PHI+")
        )
        data = json.loads(json.dumps(transcript.to_json_dict()))
        assert data["outcome"] == "PSI-,PHI+"
        assert data["n"] == 2
        assert len(data["classical_bits"]) == 4
        assert data["corrections"][0]["op"] == "x"
        assert data["probability"] == pytest.approx(1 / 16)
        assert data["target_overlap"] >= 1 - 1e-9


class TestEvaluateOutcomes:
    """The batch of all 4^n outcomes, with run as the oracle."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
    def test_every_outcome_matches_run(self, n, p):
        params = CloneParams(p=p, n=n)
        psi = random_input(n, 60 + n)
        columns = evaluate_outcomes(psi, params)
        assert all(column.shape == (4**n,) for column in columns)
        for k, outcome in enumerate(BellOutcome.all_outcomes(n)):
            tr = run(psi, params, outcome=outcome)
            expected = (tr.probability, tr.target_overlap, tr.fidelity_b, tr.fidelity_c)
            for column, value in zip(columns, expected):
                assert abs(column[k] - value) <= 1e-12, (outcome, column[k], value)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
    def test_every_outcome_matches_an_oracle_of_public_primitives(self, n, p):
        # run and the batch share one readout, so check the batch against a
        # route through neither: the dense oracle's projection, one Pauli at a
        # time, reduced_density with state_fidelity, and target_state's overlap
        params = CloneParams(p=p, n=n)
        channel = build_channel(params)
        psi = random_input(n, 90 + n)
        total = attach_input(psi, channel)
        target = target_state(psi.amplitudes, params)
        columns = evaluate_outcomes(psi, params)
        for k, outcome in enumerate(BellOutcome.all_outcomes(n)):
            _, collapsed, prob = measure_pairs(total, sender_pairs(n), outcome=outcome)
            final = apply_plan(collapsed, correction_plan(outcome))
            rho_b = qstate.reduced_density(final, range(n))
            rho_c = qstate.reduced_density(final, range(n, 2 * n))
            expected = (
                prob,
                target.fidelity_with(final),
                qstate.state_fidelity(psi, rho_b),
                qstate.state_fidelity(psi, rho_c),
            )
            for column, value in zip(columns, expected):
                assert abs(column[k] - value) <= 1e-12, (outcome, column[k], value)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_is_the_enumeration_position(self, n):
        for k, outcome in enumerate(BellOutcome.all_outcomes(n)):
            assert outcome.index() == k

    def test_batch_folds_are_cached(self):
        folds = protocol._batch_folds(2)
        assert protocol._batch_folds(2) is folds
        assert isinstance(folds, tuple) and len(folds) == 16
        outcome = BellOutcome.parse("PSI-,PHI-")
        assert folds[outcome.index()] == protocol._fold(correction_plan(outcome), 6)

    def test_run_builds_no_batch_folds(self):
        # the batch folds every one of the 4^n plans; a single run needs one
        protocol._batch_folds.cache_clear()
        run(random_input(2, 82), CloneParams(p=0.5, n=2), outcome=BellOutcome.parse("PSI-,PHI-"))
        run(random_input(2, 82), CloneParams(p=0.5, n=2), seed=5)
        assert protocol._batch_folds.cache_info().currsize == 0

    @pytest.mark.parametrize("warm", [False, True])
    def test_batch_peak_is_support_sized(self, warm):
        # at n=4 the dense (4^n, 8^n) rows alone would take 16 MiB; the support
        # readout holds 4^n x (d + 2d(d-1)) terms (2 MiB of values) and peaks
        # at about 9 MiB traced, whether the call builds the folds or not
        params, psi = CloneParams(p=0.35, n=4), random_input(4, 84)
        if warm:
            evaluate_outcomes(psi, params)
        else:
            protocol._batch_folds.cache_clear()
        tracemalloc.start()
        try:
            evaluate_outcomes(psi, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 2**20

    def test_oversize_register_refused_before_allocation(self, monkeypatch):
        def no_walk(psi, n, **mode):
            raise AssertionError("sender walk called for an oversize batch")

        monkeypatch.setattr(protocol, "_sender_walk", no_walk)
        with pytest.raises(ValueError, match="register size 25 is outside the 20-qubit limit"):
            evaluate_outcomes(random_input(5, 80), CloneParams(p=0.5, n=5))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="register size does not match"):
            evaluate_outcomes(random_input(3, 81), CloneParams(p=0.5, n=2))

    @pytest.mark.parametrize(
        "amplitudes", [[1.0, 0, 0, 1.0], [1.0 + 2e-6, 0, 0, 0], [1.0, np.nan, 0, 0]]
    )
    def test_norm_checked_before_allocation(self, monkeypatch, amplitudes):
        def no_walk(psi, n, **mode):
            raise AssertionError("sender walk called for a bad input")

        monkeypatch.setattr(protocol, "_sender_walk", no_walk)
        state = StateVector(np.array(amplitudes, dtype=complex), 2)
        with pytest.raises(ValueError, match="input state norm"):
            evaluate_outcomes(state, CloneParams(p=0.5, n=2))


def oracle_rows(total, n, n_ref=0):
    """Every outcome's projection of a dense state by the oracle, scaled as a walk row."""
    rows = []
    for outcome in BellOutcome.all_outcomes(n):
        _, state, prob = measure_pairs(total, sender_pairs(n, n_ref), outcome=outcome)
        rows.append(state.amplitudes * np.sqrt(prob * 2**n))
    return np.array(rows)


class TestSenderWalk:
    """The walk, made dense by the oracle's lift, against the dense oracle and channel."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_row_equals_the_dense_walk(self, n):
        params = CloneParams(p=0.35, n=n)
        channel = build_channel(params)
        psi = random_input(n, 130 + n)
        rows, elements, _ = protocol._sender_walk(psi, n)
        rows = lift(rows, params)
        dense_rows = oracle_rows(attach_input(psi, channel), n)
        assert rows.shape == dense_rows.shape == (4**n, 8**n)
        assert elements == list(itertools.product(range(4), repeat=n))  # all_outcomes order
        assert np.abs(rows - dense_rows).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("reference", ["maximal", "product"])
    def test_spectator_rows_equal_the_dense_walk(self, n, reference):
        # reference qubits after the senders ride through the walk and the
        # lift untouched: (A, ref) (x) channel, pairs (i, 2n + i)
        psi = with_reference(n, reference, 150)
        params = CloneParams(p=0.35, n=n)
        channel = build_channel(params)
        rows, elements, _ = protocol._sender_walk(psi, n)
        rows = lift(rows, params)
        dense_rows = oracle_rows(qstate.tensor(psi, channel.state), n, n_ref=n)
        assert rows.shape == dense_rows.shape == (4**n, 16**n)
        assert elements == list(itertools.product(range(4), repeat=n))
        assert np.abs(rows - dense_rows).max() <= 1e-12

    @pytest.mark.parametrize(
        "n, reference",
        [(1, None), (2, None), (3, None), (4, None), (1, "maximal"), (2, "maximal"), (3, "maximal")],
    )
    def test_scatter_equals_the_channel_product_bit_for_bit(self, n, reference):
        # the scatter writes the weights over sqrt(d) that build_channel
        # writes, so every row rounds as the product by the dense channel
        params = CloneParams(p=0.35, n=n)
        psi = random_input(n, 160 + n) if reference is None else with_reference(n, reference, 160)
        rows, _, _ = protocol._sender_walk(psi, n)
        d = params.d
        product = rows.reshape(-1, d) @ build_channel(params).state.amplitudes.reshape(d, -1)
        lifted = lift(rows, params)
        assert len(lifted) == 4**n
        assert np.array_equal(lifted, product.reshape(lifted.shape))

    def test_no_protocol_run_builds_the_channel(self, monkeypatch):
        def no_channel(params):
            raise AssertionError("build_channel called by a protocol run")

        monkeypatch.setattr(protocol, "build_channel", no_channel)
        params = CloneParams(p=0.35, n=2)
        psi = random_input(2, 165)
        assert run(psi, params, outcome=BellOutcome.parse("PSI-,PHI+")).target_overlap > 1 - 1e-9
        assert run(psi, params, seed=3).target_overlap > 1 - 1e-9
        probs, _, _, _ = evaluate_outcomes(psi, params)
        assert len(probs) == 16
        mixed_input = mixed.MixedInput(np.array([0.7, 0.3]), 1)
        assert len(mixed.teleclone_mixed(mixed_input, params)) == 4
        assert entanglement_cost_check(params) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("n, seeds", [(2, 300), (3, 300), (4, 100)])
    def test_seeded_run_equals_dense_measure_senders(self, n, seeds):
        # run and dense measure_senders share _walk_mode and the walk, so both
        # are checked against the oracle, which draws and picks on its own
        params = CloneParams(p=0.6, n=n)
        channel = build_channel(params)
        psi = random_input(n, 140 + n)
        total = attach_input(psi, channel)
        for s in range(seeds):
            tr = run(psi, params, seed=s, channel=channel)
            outcome, collapsed, prob = measure_pairs(
                total, sender_pairs(n), rng=np.random.default_rng(s)
            )
            final = apply_plan(collapsed, correction_plan(outcome))
            measured, dense, dense_prob = measure_senders(
                total, params, rng=np.random.default_rng(s)
            )
            for got, got_prob, got_state in (
                (tr.outcome, tr.probability, tr.final_state),
                (measured, dense_prob, apply_corrections(dense, correction_plan(measured))),
            ):
                assert got == outcome, s
                assert abs(got_prob - prob) <= 1e-12, s
                assert np.abs(got_state.amplitudes - final.amplitudes).max() <= 1e-12, s


class TestSampling:
    @pytest.mark.parametrize("n", sorted(PINNED_OUTCOMES))
    def test_seeded_outcomes_pinned(self, n):
        p, expected = PINNED_OUTCOMES[n]
        params = CloneParams(p=p, n=n)
        psi = random_input(n, 100 + n)
        channel = build_channel(params)
        drawn = [
            str(run(psi, params, seed=s, channel=channel).outcome)
            for s in range(len(expected))
        ]
        assert drawn == list(expected)

    def test_sampled_measurement_is_uniform(self):
        # chi-squared over 8192 sampled measure_senders draws at n=2;
        # 37.70 is the 99.9% critical value for 15 degrees of freedom
        params = CloneParams(p=0.5, n=2)
        total = attach_input(random_input(2, 45), build_channel(params))
        draws = 8192
        counts = dict.fromkeys(BellOutcome.all_outcomes(2), 0)
        for s in range(draws):
            outcome, _, _ = measure_senders(total, params, rng=np.random.default_rng(s))
            counts[outcome] += 1
        expected = draws / 16
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 <= 37.70

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_counts_are_those_of_sequential_measure_senders_draws(self, n, seed):
        # sample_outcomes is 256 measure_senders draws sharing one generator,
        # taken in one walk: the counts agree exactly
        params = CloneParams(p=0.3, n=n)
        psi = random_input(n, 110 + n)
        total = attach_input(psi, build_channel(params))
        rng = np.random.default_rng(seed)
        expected = dict.fromkeys(BellOutcome.all_outcomes(n), 0)
        for _ in range(256):
            outcome, _, _ = measure_senders(total, params, rng=rng)
            expected[outcome] += 1
        assert sample_outcomes(psi, params, 256, seed) == expected

    def test_sampled_step_forms_only_its_branch(self):
        # at n=4 (a 16 MiB state) a sampled measurement may not form the
        # other three branches of a pair: its peak stays that of a forced one
        params = CloneParams(p=0.5, n=4)
        total = attach_input(random_input(4, 120), build_channel(params))

        def peak(**mode):
            tracemalloc.start()
            try:
                measure_senders(total, params, **mode)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        forced = peak(outcome=BellOutcome.parse("PSI-,PHI-,PSI+,PHI+"))
        sampled = peak(rng=np.random.default_rng(4))
        assert sampled <= forced + 2**20

    def test_many_draws_peak_bounded(self):
        # 20,000 draws at n=2 peak at 0.79 MiB traced: the (20000, 2) draws
        # and one step's per-trial arrays (trials, code, a gathered bound and
        # its comparison); 1 MiB leaves room for one more array, not a sort
        psi = random_input(2, 124)
        tracemalloc.start()
        try:
            sample_outcomes(psi, CloneParams(p=0.5, n=2), 20000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_no_draws_give_all_zero_counts(self):
        counts = sample_outcomes(random_input(2, 121), CloneParams(p=0.5, n=2), 0, seed=7)
        assert list(counts) == list(BellOutcome.all_outcomes(2))
        assert set(counts.values()) == {0}

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="num_samples must be nonnegative, got -1"):
            sample_outcomes(random_input(2, 122), CloneParams(p=0.5, n=2), -1, seed=7)

    def test_counts_total_and_determinism(self):
        params = CloneParams(p=0.5, n=2)
        psi = random_input(2, 44)
        counts = sample_outcomes(psi, params, 4096, seed=7)
        assert sum(counts.values()) == 4096
        assert counts == sample_outcomes(psi, params, 4096, seed=7)

    def test_builds_no_channel(self, monkeypatch):
        # the draws depend on the walk's weights alone
        params = CloneParams(p=0.5, n=3)
        psi = random_input(3, 123)
        counts = sample_outcomes(psi, params, 512, seed=9)

        def no_channel(params):
            raise AssertionError("build_channel called for sampling")

        monkeypatch.setattr(protocol, "build_channel", no_channel)
        assert sample_outcomes(psi, params, 512, seed=9) == counts


class TestOutcomeTableInputCheck:
    """sample_outcomes checks the input as run does."""

    CALLS = {
        "sample_outcomes": lambda psi, params: sample_outcomes(psi, params, 10, seed=7),
    }

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("sender walk called for a bad input")

        monkeypatch.setattr(protocol, "_sender_walk", fail)

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("amplitudes", [[1.0, np.nan, 0, 0], [3.0, 0, 0, 0]])
    def test_norm_checked_before_the_channel(self, call, amplitudes):
        state = StateVector(np.array(amplitudes, dtype=complex), 2)
        with pytest.raises(ValueError, match="input state norm"):
            self.CALLS[call](state, CloneParams(p=0.5, n=2))

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_size_checked_before_the_channel(self, call):
        with pytest.raises(ValueError, match="input register size does not match n=2"):
            self.CALLS[call](random_input(3, 83), CloneParams(p=0.5, n=2))


class TestEntanglementCost:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_ebits_with_the_maximal_reference_and_none_without(self, n):
        # the paper's "exactly n ebits": 2^(-n/2) sum_j |j>|j> on 2n + 4n
        # qubits (18 at n=3) keeps n ebits across the reference cut
        params = CloneParams(p=0.3, n=n)
        assert entanglement_cost_check(params) == pytest.approx(n, abs=1e-6)
        product = qstate.tensor(random_input(n, 48), StateVector.basis(0, n))
        cost = entanglement_cost_check(params, input_state=product)
        assert cost == pytest.approx(0.0, abs=1e-6)

    def test_n4_reference_refused_before_the_channel(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("sender walk called for an oversize check")

        monkeypatch.setattr(protocol, "_sender_walk", no_walk)
        # n_ref + 5n = 4 + 20 = 24 qubits
        with pytest.raises(ValueError, match="register size 24 is outside the 20-qubit limit"):
            entanglement_cost_check(CloneParams(p=0.5, n=4))
        # 30 + 150 = 180 qubits, refused before the 2^60 amplitudes of the default reference
        with pytest.raises(ValueError, match="register size 180 is outside the 20-qubit limit"):
            entanglement_cost_check(CloneParams(p=0.5, n=30))

    def test_outcome_independent(self):
        cost = entanglement_cost_check(
            CloneParams(p=0.5, n=2), outcome=BellOutcome.parse("PSI-,PHI-")
        )
        assert cost == pytest.approx(2.0, abs=1e-6)

    def test_oversize_register_refused_before_the_channel(self, monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("sender walk called for an oversize check")

        monkeypatch.setattr(protocol, "_sender_walk", no_walk)
        # n_ref + 5n = 11 + 10 = 21 qubits
        wide = random_input(13, 47)
        with pytest.raises(ValueError, match="register size 21 is outside the 20-qubit limit"):
            entanglement_cost_check(CloneParams(p=0.5, n=2), input_state=wide)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("reference", ["maximal", "product"])
    def test_equals_the_dense_route(self, n, reference):
        # the dense register (A, ref, A', B, C, anc) of 2n + 4n qubits,
        # from public primitives only
        params = CloneParams(p=0.3, n=n)
        psi = with_reference(n, reference, 170)
        outcome = BellOutcome.parse(",".join(["PSI-", "PHI-", "PSI+"][:n]))
        total = qstate.tensor(psi, build_channel(params).state)
        _, collapsed, _ = measure_pairs(total, sender_pairs(n, n_ref=n), outcome=outcome)
        final = apply_plan(collapsed, correction_plan(outcome), offset=n)
        expected = qstate.entanglement_entropy(final, range(n))
        cost = entanglement_cost_check(params, input_state=psi, outcome=outcome)
        assert abs(cost - expected) <= 1e-12

    @pytest.mark.parametrize(
        "amplitudes",
        [[1.0, np.nan, 0, 0], [0, 0, 0, 0], [3.0, 0, 0, 0]],
        ids=["nan", "zero", "norm3"],
    )
    def test_degenerate_input_refused_before_the_channel(self, monkeypatch, amplitudes):
        def no_walk(*args, **kwargs):
            raise AssertionError("sender walk called for a bad input")

        monkeypatch.setattr(protocol, "_sender_walk", no_walk)
        state = StateVector(np.array(amplitudes, dtype=complex), 2)
        with pytest.raises(ValueError, match="input state norm .* is not 1 within 1e-6"):
            entanglement_cost_check(CloneParams(p=0.5, n=1), input_state=state)

    def test_product_reference_yields_zero(self):
        product = qstate.tensor(random_input(2, 45), StateVector.basis(0, 2))
        cost = entanglement_cost_check(CloneParams(p=0.5, n=2), input_state=product)
        assert cost == pytest.approx(0.0, abs=1e-6)
