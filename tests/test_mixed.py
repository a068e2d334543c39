import tracemalloc

import numpy as np
import pytest

from teleclone import mixed as mx
from teleclone import qstate
from teleclone.cloning import CloneParams, fidelity_curve
from teleclone.mixed import MixedInput
from teleclone.protocol import BellOutcome, run

RT2 = 1 / np.sqrt(2)


class TestMixedInput:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MixedInput(np.array([0.6, 0.6]), 1)

    def test_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            MixedInput(np.array([1.2, -0.2]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_eigenvalue_rejected_at_construction(self, bad):
        # NaN compares False both ways, so only checks that must hold can catch it
        with pytest.raises(ValueError, match="eigenvalues must"):
            MixedInput(np.array([bad, 1.0]), 1)

    def test_count_must_match_n(self):
        with pytest.raises(ValueError):
            MixedInput(np.array([0.5, 0.3, 0.2]), 1)

    def test_protocol_params_double_the_register(self):
        params = MixedInput(np.array([0.5, 0.5]), 1).protocol_params(0.3)
        assert params.n == 2
        assert params.d == 4


class TestPurify:
    def test_pure_vertex(self):
        state = mx.purify(MixedInput(np.array([1.0, 0.0]), 1))
        np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0])

    def test_maximally_mixed_qubit(self):
        state = mx.purify(MixedInput(np.array([0.5, 0.5]), 1))
        np.testing.assert_allclose(state.amplitudes, [RT2, 0, 0, RT2], atol=1e-15)

    def test_trace_back(self):
        mixed = MixedInput(np.array([0.5, 0.3, 0.2, 0.0]), 2)
        reduced = qstate.reduced_density(mx.purify(mixed), [0, 1])
        np.testing.assert_allclose(reduced.entries, np.diag(mixed.alphas), atol=1e-12)
        primed = qstate.reduced_density(mx.purify(mixed), [2, 3])
        np.testing.assert_allclose(primed.entries, np.diag(mixed.alphas), atol=1e-12)

    def test_oversize_register_refused_before_allocation(self):
        # 2n = 22 qubits would be 64 MiB of amplitudes
        mixed = MixedInput(np.full(2048, 1 / 2048), 11)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="register size 22 is outside the 20-qubit limit"):
                mx.purify(mixed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestTelecloneMixed:
    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_simulation_matches_closed_form(self, p):
        mixed = MixedInput(np.array([1.0, 0.0]), 1)
        params = mixed.protocol_params(p)
        rho_b, rho_c, _, _ = mx.teleclone_mixed(mixed, params)
        np.testing.assert_allclose(
            rho_b.entries, mx.mixed_clone_formula(mixed, params).entries, atol=1e-9
        )
        swapped = CloneParams(p=params.q, n=params.n)
        np.testing.assert_allclose(
            rho_c.entries, mx.mixed_clone_formula(mixed, swapped).entries, atol=1e-9
        )

    def test_uniform_input_is_fixed_point(self):
        mixed = MixedInput(np.array([0.5, 0.5]), 1)
        params = mixed.protocol_params(0.5)
        rho_b, _, _, _ = mx.teleclone_mixed(mixed, params)
        fidelity = qstate.uhlmann_fidelity(mixed.density(), rho_b)
        assert fidelity == pytest.approx(1.0, abs=1e-8)

    def test_primed_partners_agree(self):
        mixed = MixedInput(np.array([0.7, 0.3]), 1)
        params = mixed.protocol_params(0.4)
        rho_b, rho_c, rho_b2, rho_c2 = mx.teleclone_mixed(mixed, params)
        np.testing.assert_allclose(rho_b.entries, rho_b2.entries, atol=1e-9)
        np.testing.assert_allclose(rho_c.entries, rho_c2.entries, atol=1e-9)

    def test_outcome_independent(self):
        mixed = MixedInput(np.array([0.6, 0.4]), 1)
        params = mixed.protocol_params(0.5)
        default_b, _, _, _ = mx.teleclone_mixed(mixed, params)
        forced_b, _, _, _ = mx.teleclone_mixed(
            mixed, params, outcome=BellOutcome.parse("PSI-,PHI-")
        )
        np.testing.assert_allclose(default_b.entries, forced_b.entries, atol=1e-9)

    def test_rejects_mismatched_params(self):
        mixed = MixedInput(np.array([0.5, 0.5]), 1)
        with pytest.raises(ValueError):
            mx.teleclone_mixed(mixed, CloneParams(p=0.5, n=3))


class TestMixedRouteOracle:
    """The clones and F_pure against a two-step route of public primitives."""

    @pytest.mark.parametrize(
        ("alphas", "p", "mode"),
        [
            ([0.7, 0.3], 0.4, {}),
            ([0.7, 0.3], 0.4, {"outcome": BellOutcome.parse("PSI-,PHI-")}),
            ([0.6, 0.4], 0.25, {"seed": 1}),
            ([0.6, 0.4], 0.75, {"seed": 2}),
            ([0.4, 0.3, 0.2, 0.1], 0.3, {"seed": 3}),
        ],
    )
    def test_clones_and_pure_fidelity(self, alphas, p, mode):
        mixed = MixedInput(np.array(alphas), len(alphas).bit_length() - 1)
        params = mixed.protocol_params(p)
        n, m = mixed.n, params.n
        forced = mode or {"outcome": BellOutcome.all_phi_plus(m)}
        final = run(mx.purify(mixed), params, **forced).final_state
        rho_bb = qstate.reduced_density(final, range(m))
        rho_cc = qstate.reduced_density(final, range(m, 2 * m))
        oracle = (
            qstate.partial_trace(rho_bb, range(n)),
            qstate.partial_trace(rho_cc, range(n)),
            qstate.partial_trace(rho_bb, range(n, m)),
            qstate.partial_trace(rho_cc, range(n, m)),
        )
        clones = mx.teleclone_mixed(mixed, params, **mode)
        for clone, expected in zip(clones, oracle, strict=True):
            np.testing.assert_allclose(clone.entries, expected.entries, rtol=0, atol=1e-12)
        _, f_pure = mx.trace_fidelities(mixed, params)
        assert f_pure == pytest.approx(
            qstate.state_fidelity(mx.purify(mixed), rho_bb), abs=1e-12
        )


class TestMixedCloneFormula:
    def test_unit_trace(self):
        rng = np.random.default_rng(61)
        for alphas in mx.sample_simplex(2, 5, rng):
            mixed = MixedInput(alphas, 1)
            rho = mx.mixed_clone_formula(mixed, mixed.protocol_params(0.3))
            assert rho.entries.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_vertex_value(self):
        mixed = MixedInput(np.array([1.0, 0.0]), 1)
        rho = mx.mixed_clone_formula(mixed, mixed.protocol_params(0.5))
        np.testing.assert_allclose(rho.entries, np.diag([0.8, 0.2]), atol=1e-12)


class TestMixedFidelity:
    def test_vertex_attains_lower_bound(self):
        mixed = MixedInput(np.array([1.0, 0.0]), 1)
        params = mixed.protocol_params(0.5)
        assert mx.mixed_fidelity(mixed, params) == pytest.approx(0.8, abs=1e-12)
        lower, _ = mx.fidelity_bounds(params)
        assert lower == pytest.approx(0.8, abs=1e-12)

    def test_uniform_telescopes_to_one(self):
        for n, p in ((1, 0.5), (1, 0.2), (2, 0.7)):
            dim = 1 << n
            mixed = MixedInput(np.full(dim, 1.0 / dim), n)
            assert mx.mixed_fidelity(mixed, mixed.protocol_params(p)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_simplex_minimum_sits_at_vertices(self):
        # brute-force minimization oracle over a dense simplex grid
        params = CloneParams(p=0.35, n=2)
        lower, _ = mx.fidelity_bounds(params)
        best = 1.0
        for t in np.linspace(0.0, 1.0, 2001):
            mixed = MixedInput(np.array([t, 1.0 - t]), 1)
            best = min(best, mx.mixed_fidelity(mixed, params))
        assert best >= lower - 1e-9
        assert best == pytest.approx(lower, abs=1e-6)

    @pytest.mark.parametrize("n,p", [(1, 0.5), (1, 0.3), (2, 0.5), (2, 0.7)])
    def test_bound_containment_on_1000_samples(self, n, p):
        rng = np.random.default_rng(64)
        dim = 1 << n
        samples = np.vstack([np.eye(dim), np.full((1, dim), 1.0 / dim),
                             mx.sample_simplex(dim, 1000, rng)])
        lower = None
        for alphas in samples:
            mixed = MixedInput(alphas, n)
            params = mixed.protocol_params(p)
            if lower is None:
                lower, _ = mx.fidelity_bounds(params)
            assert lower - 1e-9 <= mx.mixed_fidelity(mixed, params) <= 1.0 + 1e-9


class TestFidelityBounds:
    def test_two_qubit_mixed_bound(self):
        lower_b, lower_c = mx.fidelity_bounds(CloneParams(p=0.5, n=4))
        assert lower_b == pytest.approx(5.5 / 8.5, abs=1e-12)
        assert lower_c == pytest.approx(5.5 / 8.5, abs=1e-12)

    def test_mixed_floor_beats_pure_fidelity(self):
        for n, p in ((2, 0.5), (2, 0.2), (4, 0.5)):
            params = CloneParams(p=p, n=n)
            lower_b, _ = mx.fidelity_bounds(params)
            pure_b, _ = fidelity_curve(p, params.d)
            assert lower_b >= float(pure_b) - 1e-12

    def test_reference_values_d16(self):
        params = CloneParams(p=0.5, n=4)
        lower_b, _ = mx.fidelity_bounds(params)
        pure_b, _ = fidelity_curve(0.5, 16)
        assert lower_b == pytest.approx(0.6470588235, abs=1e-9)
        assert float(pure_b) == pytest.approx(0.5588235294, abs=1e-9)

    def test_odd_register_rejected(self):
        with pytest.raises(ValueError):
            mx.fidelity_bounds(CloneParams(p=0.5, n=3))


class TestMonotonicity:
    def test_generic_instance(self):
        mixed = MixedInput(np.array([0.7, 0.3]), 1)
        f_mixed, f_pure = mx.trace_fidelities(mixed, mixed.protocol_params(0.5))
        assert f_mixed >= f_pure - 1e-9

    def test_vertex_values(self):
        mixed = MixedInput(np.array([1.0, 0.0]), 1)
        f_mixed, f_pure = mx.trace_fidelities(mixed, mixed.protocol_params(0.5))
        assert f_pure == pytest.approx(0.7, abs=1e-9)
        assert f_mixed == pytest.approx(0.8, abs=1e-9)

    def test_uniform_input(self):
        mixed = MixedInput(np.array([0.5, 0.5]), 1)
        f_mixed, f_pure = mx.trace_fidelities(mixed, mixed.protocol_params(0.5))
        assert f_mixed == pytest.approx(1.0, abs=1e-8)
        assert f_mixed >= f_pure


class TestSampleSimplex:
    def test_rows_are_distributions(self):
        rng = np.random.default_rng(63)
        samples = mx.sample_simplex(4, 100, rng)
        assert samples.shape == (100, 4)
        assert samples.min() >= 0
        np.testing.assert_allclose(samples.sum(axis=1), 1.0, atol=1e-12)
