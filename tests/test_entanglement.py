import decimal
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teleclone import entanglement as ent
from teleclone import qstate
from teleclone.cloning import CloneParams, clone_fidelities, clone_pair, fidelity_curve
from teleclone.qstate import DensityMatrix, StateVector

RT2 = 1 / np.sqrt(2)


def two_sided_eof(x):
    """The EoF as a binary entropy guarded on both sides, the oracle of `_eof`."""
    lam = (1.0 + np.sqrt(1.0 - np.clip(x, 0.0, 1.0) ** 2)) / 2.0
    out = np.zeros_like(lam)
    for part in (lam, 1.0 - lam):
        inner = part > 1e-300
        out = out - np.where(inner, part * np.log2(np.where(inner, part, 1.0)), 0.0)
    return out


class TestMu:
    def test_maximally_entangled(self):
        assert ent.mu([RT2, 0, 0, RT2]) == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        assert ent.mu([1, 0, 0, 0]) == 0.0

    def test_balanced_signs(self):
        assert ent.mu([0.5, 0.5, 0.5, -0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            ent.mu([1, 1, 0, 0])

    def test_bounded_by_half_on_random_states(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            psi = StateVector.random(2, rng)
            assert 0.0 <= ent.mu(psi.amplitudes) <= 0.5 + 1e-12


class TestEofFromConcurrence:
    def test_endpoints(self):
        assert ent.eof_from_concurrence(0.0) == 0.0
        assert ent.eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_value(self):
        assert ent.eof_from_concurrence(0.4) == pytest.approx(0.250225, abs=1e-5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ent.eof_from_concurrence(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_range_property(self, x, y):
        hx, hy = ent.eof_from_concurrence(x), ent.eof_from_concurrence(y)
        assert 0.0 <= hx <= 1.0
        if x + 1e-6 < y:
            assert hx < hy

    def test_strictly_monotone_on_grid(self):
        values = ent.eof_from_concurrence(np.linspace(0.0, 1.0, 1001))
        assert np.all(np.diff(values) > 0)

    def test_equals_the_two_sided_entropy_bit_for_bit(self):
        # tobytes compares every bit, the sign of a zero included
        x = np.linspace(0.0, 1.0, 100001)
        assert ent._eof(x).tobytes() == two_sided_eof(x).tobytes()
        zero = ent._eof(np.array([0.0, -0.0, -1e-12]))
        assert zero.tolist() == [0.0, 0.0, 0.0] and not np.signbit(zero).any()

    @given(st.lists(st.floats(min_value=-1e-12, max_value=1.0 + 1e-12), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_two_sided_entropy_on_draws(self, xs):
        x = np.array(xs)
        assert ent._eof(x).tobytes() == two_sided_eof(x).tobytes()
        assert np.float64(ent._eof(x[0])).tobytes() == np.float64(two_sided_eof(x[0])).tobytes()


class TestInputEntanglement:
    def test_bell_state(self):
        assert ent.input_entanglement([RT2, 0, 0, RT2]) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert ent.input_entanglement([0, 1, 0, 0]) == 0.0

    def test_matches_reduced_entropy_oracle(self):
        # eigenvalue route through the one-qubit reduction
        cases = [np.array([np.sqrt(0.9), 0, 0, np.sqrt(0.1)], dtype=complex)]
        rng = np.random.default_rng(52)
        cases += [StateVector.random(2, rng).amplitudes for _ in range(10)]
        for alphas in cases:
            state = StateVector.from_amplitudes(alphas)
            oracle = qstate.von_neumann_entropy(qstate.reduced_density(state, [0]))
            assert ent.input_entanglement(alphas) == pytest.approx(oracle, abs=1e-8)


class TestCloneConcurrence:
    def test_symmetric_maximal_input(self):
        # max{0, 6/5 * mu - 1/5} at mu = 1/2
        assert ent.clone_concurrence(0.5, 0.7) == pytest.approx(0.4, abs=1e-12)

    def test_threshold_input_gives_zero(self):
        assert ent.clone_concurrence(1 / 6, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_separable_input(self):
        for fidelity in (0.25, 0.5, 0.7, 1.0):
            assert ent.clone_concurrence(0.0, fidelity) == 0.0

    def test_mirror_symmetry_in_p(self):
        for p in (0.1, 0.33, 0.61):
            f_b, f_c = clone_fidelities(CloneParams(p=p, n=2))
            fb_sw, fc_sw = clone_fidelities(CloneParams(p=1 - p, n=2))
            for mu_value in (0.2, 0.35, 0.5):
                assert ent.clone_concurrence(mu_value, f_b) == pytest.approx(
                    ent.clone_concurrence(mu_value, fc_sw), abs=1e-12
                )


class TestWoottersConcurrence:
    def test_bell_projector(self):
        rho = DensityMatrix.from_state(StateVector.from_amplitudes([RT2, 0, 0, RT2]))
        assert ent.wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert ent.wootters_concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)

    def test_matches_closed_form_at_symmetric_point(self):
        bell = StateVector.from_amplitudes([RT2, 0, 0, RT2])
        rho_b, _ = clone_pair(bell, CloneParams(p=0.5, n=2))
        assert ent.wootters_concurrence(rho_b) == pytest.approx(0.4, abs=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            ent.wootters_concurrence(np.triu(np.full((4, 4), 0.25)))

    def test_rejects_trace_two(self):
        with pytest.raises(ValueError, match="trace"):
            ent.wootters_concurrence(np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            ent.wootters_concurrence(np.diag([1.2, -0.2, 0.0, 0.0]))


class TestDelta:
    def test_zero_mu(self):
        for p in (0.0, 0.4, 1.0):
            assert ent.delta(0.0, p) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_maximal_point(self):
        assert ent.delta(0.5, 0.5) == pytest.approx(0.49955, abs=1e-4)

    @pytest.mark.parametrize("mu_value, p", [(-7e-13, 0.5), (-7e-13, 1.0), (0.5 + 7e-13, 1.0)])
    def test_mu_within_its_band_is_accepted(self, mu_value, p):
        # mu's band is 1e-12, as in clone_concurrence; 2 mu and C = 2 mu at
        # p = 1 lie up to 1.4e-12 outside [0, 1] and are clamped, not refused
        clamped = min(max(mu_value, 0.0), 0.5)
        assert ent.delta(mu_value, p) == pytest.approx(ent.delta(clamped, p), abs=1e-11)

    @pytest.mark.parametrize("mu_value", [-2e-12, 0.5 + 2e-12])
    def test_mu_outside_its_band_is_refused(self, mu_value):
        with pytest.raises(ValueError, match=r"mu outside \[0, 1/2\]"):
            ent.delta(mu_value, 0.5)

    def test_nonnegative_on_coarse_grid(self):
        mus = np.linspace(0.0, 0.5, 51)
        ps = np.linspace(0.0, 1.0, 101)
        values = ent.delta(mus[:, None], ps[None, :])
        assert values.min() >= -1e-9

    def test_teeterboard(self):
        # with both concurrences positive, pushing p up feeds clone B's
        # entanglement and drains clone C's
        h = 1e-5
        for mu_value in (0.3, 0.4, 0.45):
            lo, hi = ent.physical_region(mu_value)
            for p in np.linspace(lo + 0.01, hi - 0.01, 7):
                f_hi = fidelity_curve(p + h, 4)
                f_lo = fidelity_curve(p - h, 4)
                d_b = ent.eof_from_concurrence(
                    ent.clone_concurrence(mu_value, f_hi[0])
                ) - ent.eof_from_concurrence(ent.clone_concurrence(mu_value, f_lo[0]))
                d_c = ent.eof_from_concurrence(
                    ent.clone_concurrence(mu_value, f_hi[1])
                ) - ent.eof_from_concurrence(ent.clone_concurrence(mu_value, f_lo[1]))
                assert d_b > 0
                assert d_c < 0


class TestPhysicalRegion:
    def test_quarter_point_endpoints(self):
        lo, hi = ent.physical_region(0.25)
        root = np.sqrt(4 * 0.25 + 0.25**2)
        assert lo == pytest.approx((1.25 - root) / 0.5, abs=1e-12)
        assert hi == pytest.approx((-0.75 + root) / 0.5, abs=1e-12)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_shrinks_to_midpoint_at_threshold(self):
        lo, hi = ent.physical_region(1 / 6 + 1e-6)
        assert lo == pytest.approx(0.5, abs=1e-4)
        assert hi == pytest.approx(0.5, abs=1e-4)
        assert lo < 0.5 < hi

    def test_both_concurrences_positive_just_inside(self):
        for mu_value in (0.2, 0.3, 0.45):
            lo, hi = ent.physical_region(mu_value)
            for p in (lo + 1e-6, hi - 1e-6):
                f_b, f_c = fidelity_curve(p, 4)
                assert ent.clone_concurrence(mu_value, float(f_b)) > 0
                assert ent.clone_concurrence(mu_value, float(f_c)) > 0

    def test_one_vanishes_just_outside(self):
        for mu_value in (0.2, 0.3, 0.45):
            lo, hi = ent.physical_region(mu_value)
            for p in (lo - 1e-6, hi + 1e-6):
                f_b, f_c = fidelity_curve(p, 4)
                assert (
                    ent.clone_concurrence(mu_value, float(f_b)) == 0.0
                    or ent.clone_concurrence(mu_value, float(f_c)) == 0.0
                )

    @pytest.mark.parametrize("mu_value", [0.1, 1 / 6, 0.6])
    def test_outside_open_interval_rejected(self, mu_value):
        with pytest.raises(ValueError):
            ent.physical_region(mu_value)

    def test_limit_at_half(self):
        # removable singularity: both clone fidelities exceed 1/2 exactly on (1/3, 2/3)
        for mu_value in (0.5, 0.5 - 5e-13, 0.5 - 1e-12):
            assert ent.physical_region(mu_value) == (1.0 / 3.0, 2.0 / 3.0)
        lo, hi = ent.physical_region(0.5 - 1e-9)  # the closed form, next to the limit
        assert lo == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert hi == pytest.approx(2.0 / 3.0, abs=1e-6)
        for p in (1.0 / 3.0 + 1e-6, 2.0 / 3.0 - 1e-6):
            f_b, f_c = fidelity_curve(p, 4)
            assert ent.clone_concurrence(0.5, float(f_b)) > 0
            assert ent.clone_concurrence(0.5, float(f_c)) > 0
        for p in (1.0 / 3.0 - 1e-6, 2.0 / 3.0 + 1e-6):
            f_b, f_c = fidelity_curve(p, 4)
            assert (
                ent.clone_concurrence(0.5, float(f_b)) == 0.0
                or ent.clone_concurrence(0.5, float(f_c)) == 0.0
            )

    @pytest.mark.parametrize("mu_value", [0.2, 0.495, 0.5 - 1e-6, 0.5 - 1e-9])
    def test_endpoints_match_a_decimal_reference(self, mu_value):
        # (1 + mu - sqrt(4 mu + mu^2)) / (1 - 2 mu) at the float mu, to 50
        # digits: the cancellation as mu nears 1/2 costs no float digits
        with decimal.localcontext() as context:
            context.prec = 50
            m = decimal.Decimal(mu_value)
            lo = (1 + m - (4 * m + m * m).sqrt()) / (1 - 2 * m)
        p_lo, p_hi = ent.physical_region(mu_value)
        assert p_lo == pytest.approx(float(lo), rel=1e-15, abs=0.0)
        assert p_hi == pytest.approx(float(1 - lo), rel=1e-15, abs=0.0)
        assert p_lo + p_hi - 1.0 == 0.0

    def test_beyond_half_rejected(self):
        with pytest.raises(ValueError):
            ent.physical_region(float(np.nextafter(0.5, 1.0)))


def analyze_mu(mu_value: float, grid) -> ent.MuAnalysis:
    """One mu's certification on scalars: three `_gap` calls of its own scans."""
    p_lo, p_hi = ent.physical_region(mu_value)
    tol = grid.tolerance

    ps = np.append(np.arange(0.5, p_hi, grid.p_step), p_hi)
    *_, eof_b, eof_c, _ = ent._gap(mu_value, ps)
    mono_violations = int(np.sum(np.diff(eof_b + eof_c) < -tol))

    h = 1e-4
    scan = np.arange(p_lo + 1e-3, 2.0 / 3.0 + 1e-12, 1e-3)
    *_, eof_b, _, _ = ent._gap(mu_value, np.concatenate([scan + h, scan, scan - h]))
    up, mid, down = eof_b.reshape(3, -1)
    second = (up - 2.0 * mid + down) / h**2
    negative = np.nonzero(second < 0)[0]
    if negative.size == 0:
        inflection = None
    else:
        i = int(negative[0])
        if i == 0:
            inflection = float(scan[0])
        else:
            frac = second[i - 1] / (second[i - 1] - second[i])
            inflection = float(scan[i - 1] + frac * (scan[i] - scan[i - 1]))

    region = np.append(np.arange(p_lo, p_hi, grid.p_step), p_hi)
    *_, values = ent._gap(mu_value, region)
    argmin_p = float(region[int(np.argmin(values))])
    on_boundary = (
        argmin_p <= p_lo + grid.p_step + 1e-12 or argmin_p >= p_hi - grid.p_step - 1e-12
    )
    return ent.MuAnalysis(
        monotone_violations=mono_violations,
        inflection_p=inflection,
        argmin_on_boundary=on_boundary,
    )


class TestSweep:
    @pytest.mark.parametrize("steps", [(0.005, 0.001), (0.01, 0.005), (0.001, 0.0005)])
    def test_batched_analysis_equals_the_scalar_oracle(self, steps):
        grid = ent.SweepGrid(*steps)
        report = ent.sweep_delta(grid)
        window = [
            m for m in report.mu_values.tolist() if ent.MU_THRESHOLD + 1e-9 < m < 0.5 - 1e-9
        ]
        assert len(report.analyses) == len(window) > 0
        assert list(report.analyses) == [analyze_mu(m, grid) for m in window]

    def test_batched_monotone_counts_equal_the_scalar_oracle(self, monkeypatch):
        # no p-step breaks monotonicity at the real tolerance; a negative one
        # counts the rises under 2e-3, which differ from mu to mu
        monkeypatch.setattr(ent.SweepGrid, "tolerance", -2e-3)
        grid = ent.SweepGrid(0.01, 0.005)
        window = [m for m in grid.mu_values().tolist() if ent.MU_THRESHOLD + 1e-9 < m < 0.5 - 1e-9]
        analyses = ent.sweep_delta(grid).analyses
        assert list(analyses) == [analyze_mu(m, grid) for m in window]
        assert len({a.monotone_violations for a in analyses}) > 3

    @pytest.mark.parametrize("mu_step", [0.5, 1.0])
    def test_grid_without_an_analysis_window(self, mu_step):
        report = ent.sweep_delta(ent.SweepGrid(mu_step=mu_step))
        assert report.analyses == ()
        assert report.min_inflection_p is None
        assert report.monotone_ok and report.inflection_ok and report.boundary_ok

    def test_coarse_sweep_report(self):
        grid = ent.SweepGrid(mu_step=0.01, p_step=0.005)
        report = ent.sweep_delta(grid)
        assert report.violations == 0
        assert report.min_delta >= -1e-9
        assert report.monotone_ok
        assert report.inflection_ok
        assert report.min_inflection_p is not None
        assert report.min_inflection_p > 0.56
        assert report.boundary_ok
        assert report.delta_values.shape == (51, 201)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ent.SweepGrid(mu_step=0.0)

    @pytest.mark.parametrize("step", [0.0, -0.0, -0.01, np.nan, np.inf, -np.inf, 1.5])
    def test_grid_steps_must_lie_in_unit_interval(self, step):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ent.SweepGrid(mu_step=step)
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ent.SweepGrid(p_step=step)

    def test_unit_steps_accepted(self):
        assert ent.SweepGrid(p_step=1.0).p_values().tolist() == [0.0, 1.0]
        assert ent.SweepGrid(mu_step=1.0).mu_step == 1.0


def refuse_to_allocate(monkeypatch, *names):
    """Make each named numpy allocator fail the test if it is called."""

    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the grid was refused")

    for name in names:
        monkeypatch.setattr(np, name, allocate)


class TestGridLimit:
    """No axis, and no full sweep grid, holds more than MAX_GRID_POINTS points."""

    @pytest.mark.parametrize(
        "steps", [{"p_step": 5e-324}, {"mu_step": 1e-310}, {"p_step": 2e-9}, {"mu_step": 1e-7}]
    )
    def test_oversize_axis_refused_before_allocating(self, monkeypatch, steps):
        refuse_to_allocate(monkeypatch, "linspace", "empty")
        with pytest.raises(ValueError, match=r"^grid steps give an axis of more than 4194304 points$"):
            ent.SweepGrid(**steps)

    def test_axis_at_the_limit_accepted(self):
        limit = ent.MAX_GRID_POINTS
        assert limit == 1 << 22
        assert ent.SweepGrid(p_step=1.0 / (limit - 1)).p_values().size == limit
        assert ent.SweepGrid(mu_step=0.5 / (limit - 1)).mu_step == 0.5 / (limit - 1)
        with pytest.raises(ValueError, match="axis"):
            ent.SweepGrid(p_step=1.0 / limit)

    def test_oversize_sweep_refused_before_allocating(self, monkeypatch):
        refuse_to_allocate(monkeypatch, "empty")
        with pytest.raises(ValueError, match=r"^a 5001 x 10001 grid exceeds 4194304 points$"):
            ent.sweep_delta(ent.SweepGrid(mu_step=1e-4, p_step=1e-4))


#: (call of one input, upper edge of its band, the refusal's message)
BANDS = {
    "eof-concurrence": (ent.eof_from_concurrence, 1.0, "concurrence outside [0, 1]"),
    "clone-mu": (lambda x: ent.clone_concurrence(x, 0.8), 0.5, "mu outside [0, 1/2]"),
    "clone-fidelity": (lambda x: ent.clone_concurrence(0.3, x), 1.0, "fidelity outside [0, 1]"),
    "delta-mu": (lambda x: ent.delta(x, 0.5), 0.5, "mu outside [0, 1/2]"),
    "delta-p": (lambda x: ent.delta(0.3, x), 1.0, "p outside [0, 1]"),
}


class TestBands:
    """Every input is checked by one band: 1e-12 either side of its interval."""

    @pytest.mark.parametrize("past", ["nan", "inf", "-inf", "low", "high"])
    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_refuses_with_its_message(self, band, past):
        call, hi, message = BANDS[band]
        edges = {"low": -2e-12, "high": hi + 2e-12}
        bad = edges[past] if past in edges else float(past)
        for value in (bad, np.array(bad), [0.2, bad]):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(value)

    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_accepts_1e12_past_either_edge(self, band):
        call, hi, _ = BANDS[band]
        for value in (-1e-12, hi + 1e-12):
            assert np.isfinite(call(value))

    def test_p_is_checked_before_mu_and_mu_before_fidelity(self):
        with pytest.raises(ValueError, match=r"^p outside"):
            ent.delta(np.nan, np.nan)
        with pytest.raises(ValueError, match=r"^mu outside"):
            ent.clone_concurrence(np.nan, np.nan)

    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_scalar_inputs_give_a_float_and_arrays_an_array(self, band):
        call = BANDS[band][0]
        for value in (0.4, np.float64(0.4), np.array(0.4)):
            assert type(call(value)) is float
        for value in ([0.4], np.array([0.4, 0.2]), np.full((2, 3), 0.4)):
            result = call(value)
            assert type(result) is np.ndarray and result.shape == np.shape(value)


class TestNanRejected:
    """NaN passes `x < lo or x > hi`; every range check must refuse it."""

    @pytest.mark.parametrize("bad", [np.nan, [0.2, np.nan]])
    def test_clone_concurrence(self, bad):
        with pytest.raises(ValueError, match="mu outside"):
            ent.clone_concurrence(bad, 0.8)
        with pytest.raises(ValueError, match="fidelity outside"):
            ent.clone_concurrence(0.3, bad)

    @pytest.mark.parametrize("bad", [np.nan, [0.2, np.nan]])
    def test_eof_from_concurrence(self, bad):
        with pytest.raises(ValueError, match="concurrence outside"):
            ent.eof_from_concurrence(bad)

    @pytest.mark.parametrize("bad", [np.nan, [0.2, np.nan]])
    def test_delta(self, bad):
        with pytest.raises(ValueError, match="p outside"):
            ent.delta(0.3, bad)
        with pytest.raises(ValueError):
            ent.delta(bad, 0.5)

    def test_tolerance_band_still_accepted(self):
        assert ent.clone_concurrence(-1e-13, 1.0 + 1e-13) == 0.0
        assert ent.eof_from_concurrence(1.0 + 1e-13) == pytest.approx(1.0, abs=1e-12)
        assert ent.delta(0.5 + 1e-13, -1e-13) >= -1e-9
