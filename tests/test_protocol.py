import json
import tracemalloc

import numpy as np
import pytest

from teleclone import protocol, qstate
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
    outcome_probabilities,
    project_pairs,
    run,
    sample_outcomes,
)
from teleclone.qstate import PAULI_X, PAULI_Z, StateVector


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


def sequential_corrections(state, plan, offset=0):
    """Reference route: every Pauli of the plan applied in turn by apply_local."""
    ops = {"x": PAULI_X, "z": PAULI_Z}
    for correction in plan:
        for position in correction.targets:
            state = qstate.apply_local(state, ops[correction.op], offset + position)
    return state


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
        with pytest.raises(ValueError):
            attach_input(random_input(1, 32), build_channel(CloneParams(p=0.5, n=2)))


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
        probs = outcome_probabilities(random_input(n, 35), CloneParams(p=0.3, n=n))
        assert len(probs) == 4**n
        for value in probs.values():
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
        # two Bell pairs: PHI+ on the first, PSI- on the second has joint
        # probability 0, so there is no state to renormalize
        bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), 2)
        pairs = qstate.tensor(bell, bell)
        with pytest.raises(qstate.ImpossibleOutcomeError, match="PHI\\+,PSI-"):
            project_pairs(pairs, [(0, 1), (2, 3)], outcome=BellOutcome.parse("PHI+,PSI-"))
        _, _, prob = project_pairs(pairs, [(0, 1), (2, 3)], outcome=BellOutcome.all_phi_plus(2))
        assert prob == pytest.approx(1.0, abs=1e-12)

    def test_measurement_order_invariance(self):
        params = CloneParams(p=0.5, n=2)
        total = attach_input(random_input(2, 38), build_channel(params))
        outcome = BellOutcome.parse("PSI+,PHI-")
        _, fwd, p_fwd = project_pairs(total, [(0, 2), (1, 3)], outcome=outcome)
        _, rev, p_rev = project_pairs(
            total, [(1, 3), (0, 2)], outcome=BellOutcome(outcome.elements[::-1])
        )
        assert p_fwd == pytest.approx(p_rev, abs=1e-12)
        assert fwd.fidelity_with(rev) == pytest.approx(1.0, abs=1e-12)


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
        # two spectator qubits in front, so offset=2 addresses the same
        # (B, C, anc) block; forward and reversed plans, bit for bit
        state = random_input(3 * n + 2, 50 + n)
        for outcome in BellOutcome.all_outcomes(n):
            plan = correction_plan(outcome)
            for ordered in (plan, plan[::-1]):
                for offset in (0, 2):
                    np.testing.assert_array_equal(
                        apply_corrections(state, ordered, offset=offset).amplitudes,
                        sequential_corrections(state, ordered, offset).amplitudes,
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
        np.testing.assert_array_equal(
            out.amplitudes, sequential_corrections(state, plan).amplitudes
        )

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown correction op"):
            apply_corrections(random_input(2, 58), [Correction("y", 0, (0,))])

    def test_position_out_of_range(self):
        plan = correction_plan(BellOutcome.parse("PSI+,PHI+"))
        with pytest.raises(ValueError, match="out of range"):
            apply_corrections(random_input(6, 55), plan, offset=2)

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
        def no_channel(params):
            raise AssertionError("build_channel called for an oversize run")

        monkeypatch.setattr(protocol, "build_channel", no_channel)
        with pytest.raises(ValueError, match="register size 25 is outside the 20-qubit limit"):
            run(random_input(5, 46), CloneParams(p=0.5, n=5), outcome=BellOutcome.all_phi_plus(5))

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
        channel = build_channel(params)
        psi = random_input(n, 60 + n)
        columns = evaluate_outcomes(psi, channel)
        assert all(column.shape == (4**n,) for column in columns)
        for k, outcome in enumerate(BellOutcome.all_outcomes(n)):
            tr = run(psi, params, outcome=outcome, channel=channel)
            expected = (tr.probability, tr.target_overlap, tr.fidelity_b, tr.fidelity_c)
            for column, value in zip(columns, expected):
                assert abs(column[k] - value) <= 1e-12, (outcome, column[k], value)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_probabilities_are_outcome_probabilities(self, n):
        params = CloneParams(p=0.3, n=n)
        psi = random_input(n, 70 + n)
        probs, _, _, _ = evaluate_outcomes(psi, build_channel(params))
        table = outcome_probabilities(psi, params)
        assert list(table) == list(BellOutcome.all_outcomes(n))
        assert list(table.values()) == probs.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_index_is_the_enumeration_position(self, n):
        for k, outcome in enumerate(BellOutcome.all_outcomes(n)):
            assert outcome.index() == k

    def test_frame_arrays_are_cached_and_read_only(self):
        index, sign = protocol._pauli_frame(2)
        assert protocol._pauli_frame(2)[0] is index
        assert index.shape == sign.shape == (16, 64)
        with pytest.raises(ValueError):
            index[0, 0] = 1
        with pytest.raises(ValueError):
            sign[0, 0] = -1.0

    def test_oversize_register_refused_before_allocation(self, monkeypatch):
        def no_attach(psi, channel):
            raise AssertionError("attach_input called for an oversize batch")

        monkeypatch.setattr(protocol, "attach_input", no_attach)
        # the n=5 channel itself fits (20 qubits); a stand-in avoids building it
        channel = protocol.ChannelState(StateVector.basis(0, 1), CloneParams(p=0.5, n=5))
        with pytest.raises(ValueError, match="register size 25 is outside the 20-qubit limit"):
            evaluate_outcomes(random_input(5, 80), channel)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="register size does not match"):
            evaluate_outcomes(random_input(3, 81), build_channel(CloneParams(p=0.5, n=2)))

    @pytest.mark.parametrize(
        "amplitudes", [[1.0, 0, 0, 1.0], [1.0 + 2e-6, 0, 0, 0], [1.0, np.nan, 0, 0]]
    )
    def test_norm_checked_before_allocation(self, monkeypatch, amplitudes):
        def no_attach(psi, channel):
            raise AssertionError("attach_input called for a bad input")

        channel = build_channel(CloneParams(p=0.5, n=2))
        monkeypatch.setattr(protocol, "attach_input", no_attach)
        state = StateVector(np.array(amplitudes, dtype=complex), 2)
        with pytest.raises(ValueError, match="input state norm"):
            evaluate_outcomes(state, channel)


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

    def test_counts_total_and_determinism(self):
        params = CloneParams(p=0.5, n=2)
        psi = random_input(2, 44)
        counts = sample_outcomes(psi, params, 4096, seed=7)
        assert sum(counts.values()) == 4096
        assert counts == sample_outcomes(psi, params, 4096, seed=7)


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
        def no_channel(params):
            raise AssertionError("build_channel called for an oversize check")

        monkeypatch.setattr(protocol, "build_channel", no_channel)
        # (n + n_ref) + 4n = 8 + 16 = 24 qubits
        with pytest.raises(ValueError, match="register size 24 is outside the 20-qubit limit"):
            entanglement_cost_check(CloneParams(p=0.5, n=4))

    def test_outcome_independent(self):
        cost = entanglement_cost_check(
            CloneParams(p=0.5, n=2), outcome=BellOutcome.parse("PSI-,PHI-")
        )
        assert cost == pytest.approx(2.0, abs=1e-6)

    def test_oversize_register_refused_before_the_channel(self, monkeypatch):
        def no_channel(params):
            raise AssertionError("build_channel called for an oversize check")

        monkeypatch.setattr(protocol, "build_channel", no_channel)
        # (n + n_ref) + 4n = 13 + 8 = 21 qubits
        wide = random_input(13, 47)
        with pytest.raises(ValueError, match="register size 21 is outside the 20-qubit limit"):
            entanglement_cost_check(CloneParams(p=0.5, n=2), input_state=wide)

    def test_product_reference_yields_zero(self):
        product = qstate.tensor(random_input(2, 45), StateVector.basis(0, 2))
        cost = entanglement_cost_check(CloneParams(p=0.5, n=2), input_state=product)
        assert cost == pytest.approx(0.0, abs=1e-6)
