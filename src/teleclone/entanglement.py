"""Entanglement accounting for two-qubit inputs and their clones.

Closed forms for the input entanglement H(2*mu), the clone concurrences,
and the budget gap delta = input EoF minus the two clones' EoF, plus a
dense numerical sweep certifying that the gap never goes negative — the
protocol cannot create entanglement.  `_gap` alone forms F -> C -> EoF
-> delta, checking mu and p once, for `delta`, `sweep_delta` and the CLI.
One band check, `_banded`, refuses NaN and any input 1e-12 past its
interval; one scalar rule, `_maybe_scalar`, returns a Python float when
every input is 0-d.
"""

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .cloning import fidelity_curve
from .qstate import PAULI_Y, DensityMatrix

#: below this input-entanglement level one clone concurrence always vanishes
MU_THRESHOLD = 1.0 / 6.0
#: the most points a sweep grid may hold on one axis, and in all
MAX_GRID_POINTS = 1 << 22
#: (mu, p) points of one `_gap` evaluation in `sweep_delta`: a block of
#: grid rows, or a group of per-mu scans
_BLOCK_POINTS = 1 << 13
#: the step of the inflection scan's central second difference
_H = 1e-4


def _banded(x, hi: float, message: str) -> np.ndarray:
    """x as a float array, refused with `message` unless within 1e-12 of [0, hi]."""
    arr = np.asarray(x, dtype=float)
    # written so that NaN fails it too
    if not np.all((-1e-12 <= arr) & (arr <= hi + 1e-12)):
        raise ValueError(message)
    return arr


def _maybe_scalar(value, *inputs):
    """value as a Python float if every input is 0-d, else as it is."""
    return float(value) if all(np.ndim(x) == 0 for x in inputs) else value


def mu(alphas) -> float:
    """Entanglement parameter |a0*a3 - a1*a2| of a two-qubit pure state.

    Equals half the concurrence of the input; ranges over [0, 1/2] for
    normalized amplitudes, hitting 1/2 exactly on maximally entangled
    states.
    """
    a = np.asarray(alphas, dtype=complex)
    if a.size != 4:
        raise ValueError("expected 4 amplitudes for a two-qubit state")
    if abs(np.linalg.norm(a) - 1.0) > 1e-9:
        raise ValueError("input amplitudes are not normalized")
    return float(abs(a[0] * a[3] - a[1] * a[2]))


def _eof(x: np.ndarray) -> np.ndarray:
    """eof_from_concurrence without the range check; clamps x to [0, 1].

    lam lies in [1/2, 1], so only 1 - lam can reach 0 (its term is then 0).
    """
    lam = (1.0 + np.sqrt(1.0 - np.clip(x, 0.0, 1.0) ** 2)) / 2.0
    rest = 1.0 - lam
    return 0.0 - lam * np.log2(lam) - rest * np.log2(np.where(rest > 0.0, rest, 1.0))


def eof_from_concurrence(x) -> float:
    """Entanglement of formation (ebits) of a two-qubit state of concurrence x.

    The binary entropy of (1 + sqrt(1 - x^2))/2; monotonically increasing
    from 0 at x=0 to 1 at x=1.  Accepts scalars or arrays; values within
    1e-12 outside [0, 1] are clamped, anything further raises.
    """
    return _maybe_scalar(_eof(_banded(x, 1.0, "concurrence outside [0, 1]")), x)


def input_entanglement(alphas) -> float:
    """EoF of the pure two-qubit input: eof_from_concurrence(2*mu)."""
    return eof_from_concurrence(min(2.0 * mu(alphas), 1.0))


def _concurrence(mu_arr: np.ndarray, f_arr: np.ndarray) -> np.ndarray:
    """clone_concurrence without the range checks."""
    return np.maximum(0.0, (8.0 * f_arr / 3.0 - 2.0 / 3.0) * mu_arr - 2.0 / 3.0 * (1.0 - f_arr))


def clone_concurrence(mu_value, fidelity) -> float:
    """Closed-form clone concurrence max{0, (8F/3 - 2/3)*mu - 2(1-F)/3}.

    `fidelity` is the clone's own fidelity (F_B or F_C); the expression
    is the same for either side.  Vectorized over mu and/or fidelity.
    """
    mu_arr = _banded(mu_value, 0.5, "mu outside [0, 1/2]")
    f_arr = _banded(fidelity, 1.0, "fidelity outside [0, 1]")
    return _maybe_scalar(_concurrence(mu_arr, f_arr), mu_value, fidelity)


#: the two-qubit spin flip sigma_y (x) sigma_y
_SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y)


def _wootters(mats: np.ndarray) -> np.ndarray:
    """Wootters concurrence of every two-qubit density matrix of a (k, 4, 4) stack.

    Eigenvalues lam_i of rho (sy (x) sy) rho* (sy (x) sy), decreasingly
    ordered: max{0, sqrt(lam_0) - sqrt(lam_1) - sqrt(lam_2) - sqrt(lam_3)},
    for all k matrices in one batched product and eigenvalue solve.
    Conjugation is taken in the computational basis.  The entries are
    taken as they are; a spectrum below -1e-10 is refused.
    """
    if mats.shape[-2:] != (4, 4):
        raise ValueError("concurrence is defined for two-qubit states")
    spectra = np.real(np.linalg.eigvals(mats @ _SPIN_FLIP @ mats.conj() @ _SPIN_FLIP))
    if spectra.min() < -1e-10:
        raise ValueError(f"spin-flip spectrum has eigenvalue {spectra.min():.3e}")
    roots = np.sqrt(np.sort(np.maximum(spectra, 0.0), axis=-1)[..., ::-1])
    value = roots[..., 0] - roots[..., 1] - roots[..., 2] - roots[..., 3]
    return np.where(value > 0.0, value, 0.0)  # as max(0.0, value): 0.0 unless positive


def wootters_concurrence(rho) -> float:
    """Concurrence of a two-qubit density matrix from the spin-flip spectrum.

    The one-matrix case of `_wootters`; an array is first checked as a
    two-qubit DensityMatrix.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, 2)
    return float(_wootters(rho.entries[None])[0])


def _gap(mu_value, p, at=None) -> tuple:
    """(F_B, F_C, C_B, C_C, EoF_B, EoF_C, delta) of two-qubit clones.

    The one evaluation of F -> C -> EoF -> delta.  p, then mu, is checked
    against its band (1e-12 either side) once; p is clamped to [0, 1], so
    F_B and F_C have p's shape, and the rest broadcasts over mu and p.
    With `at`, an index array of p's shape, mu holds each distinct mu once
    and point i takes mu[at[i]]: the input EoF is formed once per mu.
    """
    p_arr = _banded(p, 1.0, "p outside [0, 1]")
    mu_arr = _banded(mu_value, 0.5, "mu outside [0, 1/2]")
    f_b, f_c = fidelity_curve(np.clip(p_arr, 0.0, 1.0), 4)
    input_eof = _eof(np.minimum(2.0 * mu_arr, 1.0))
    if at is not None:
        mu_arr, input_eof = mu_arr[at], input_eof[at]
    c_b, c_c = _concurrence(mu_arr, f_b), _concurrence(mu_arr, f_c)
    eof_b, eof_c = _eof(c_b), _eof(c_c)
    value = input_eof - eof_b - eof_c
    return f_b, f_c, c_b, c_c, eof_b, eof_c, value


def delta(mu_value, p) -> float:
    """Input EoF minus both clones' EoF at asymmetry p (two-qubit clones).

    delta = H(2 mu) - H(C_B(mu, p)) - H(C_C(mu, p)); nonnegative
    everywhere on [0, 1/2] x [0, 1].  Vectorized over mu and/or p.
    """
    *_, value = _gap(mu_value, p)
    return _maybe_scalar(value, mu_value, p)


def physical_region(mu_value: float) -> tuple[float, float]:
    """The open p-interval on which both clone concurrences are positive.

    Defined for mu in (1/6, 1/2]: endpoints
    (1 + mu - sqrt(4 mu + mu^2)) / (1 - 2 mu) = 1 / (1 + mu + sqrt(4 mu + mu^2))
    and 1 minus it.  The second form, evaluated here, has no cancellation,
    so both ends are exact to rounding up to mu = 1/2 and sum to 1
    exactly.  C_B vanishes at the lower endpoint and C_C at the upper; for
    mu <= 1/6 the interval is empty.  For mu within 1e-12 below 1/2 the
    limit (1/3, 2/3), where both clone fidelities exceed 1/2, is returned
    as those two floats.
    """
    if not MU_THRESHOLD < mu_value <= 0.5:
        raise ValueError(f"mu={mu_value} outside the interval (1/6, 1/2]")
    if mu_value >= 0.5 - 1e-12:
        return 1.0 / 3.0, 2.0 / 3.0
    lo = 1.0 / (1.0 + mu_value + math.sqrt(4.0 * mu_value + mu_value**2))
    return lo, 1.0 - lo


@dataclass(frozen=True)
class SweepGrid:
    """Grid resolution for the delta-nonnegativity sweep."""

    mu_step: float = 0.005
    p_step: float = 0.001
    #: delta below -tolerance counts as a violation
    tolerance: ClassVar[float] = 1e-9

    def __post_init__(self):
        # written so that NaN fails it too
        if not (0.0 < self.mu_step <= 1.0 and 0.0 < self.p_step <= 1.0):
            raise ValueError("grid steps must lie in (0, 1]")
        # float counts, so that a step too fine for an int (count inf) fails too
        if np.rint(max(0.5 / self.mu_step, 1.0 / self.p_step)) + 1.0 > MAX_GRID_POINTS:
            raise ValueError(f"grid steps give an axis of more than {MAX_GRID_POINTS} points")

    def mu_values(self) -> np.ndarray:
        """mu over its whole range [0, 1/2]."""
        return np.linspace(0.0, 0.5, int(round(0.5 / self.mu_step)) + 1)

    def p_values(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, int(round(1.0 / self.p_step)) + 1)


@dataclass(frozen=True)
class MuAnalysis:
    """Per-mu certification results inside the (1/6, 1/2) window."""

    monotone_violations: int
    inflection_p: float | None  # None: curvature stayed positive through 2/3
    argmin_on_boundary: bool


@dataclass(frozen=True)
class DeltaSweepReport:
    grid: SweepGrid
    mu_values: np.ndarray
    p_values: np.ndarray
    fidelity_b: np.ndarray  # (P,)
    fidelity_c: np.ndarray  # (P,)
    concurrence_b: np.ndarray  # (M, P)
    concurrence_c: np.ndarray  # (M, P)
    delta_values: np.ndarray  # (M, P)
    min_delta: float
    argmin_mu: float
    argmin_p: float
    violations: int
    analyses: tuple = field(default_factory=tuple)

    @property
    def monotone_ok(self) -> bool:
        return all(a.monotone_violations == 0 for a in self.analyses)

    @property
    def inflection_ok(self) -> bool:
        return all(
            a.inflection_p is None or a.inflection_p > 0.56 for a in self.analyses
        )

    @property
    def boundary_ok(self) -> bool:
        return all(a.argmin_on_boundary for a in self.analyses)

    @property
    def min_inflection_p(self) -> float | None:
        estimates = [a.inflection_p for a in self.analyses if a.inflection_p is not None]
        return min(estimates) if estimates else None

    def summary(self) -> dict:
        return {
            "rows": int(self.delta_values.size),
            "min_delta": self.min_delta,
            "argmin": {"mu": self.argmin_mu, "p": self.argmin_p},
            "violations": self.violations,
            "monotone_ok": self.monotone_ok,
            "inflection_ok": self.inflection_ok,
            "min_inflection_p": self.min_inflection_p,
            "argmin_on_region_boundary": self.boundary_ok,
        }


def _scans(region: tuple[float, float], p_step: float) -> tuple:
    """The five p-scans of one mu's analysis, given its physical region:
    rising, scan + h, scan, scan - h and inside."""
    lo, hi = region
    # the combined clone EoF must be nondecreasing from p = 1/2 to the
    # upper region boundary
    rising = np.append(np.arange(0.5, hi, p_step), hi)
    # inflection of the B-clone EoF, scanned where the concurrence is
    # safely positive up to 2/3 (curvature is +inf-like at the crossing
    # and decreases with p); central second difference, h = 1e-4
    scan = np.arange(lo + 1e-3, 2.0 / 3.0 + 1e-12, 1e-3)
    # within the physical region the gap bottoms out where a concurrence
    # vanishes, i.e. at the region boundary
    inside = np.append(np.arange(lo, hi, p_step), hi)
    return rising, scan + _H, scan, scan - _H, inside


def _analyze(mus: np.ndarray, grid: SweepGrid) -> tuple:
    """One MuAnalysis per mu, each mu strictly inside (1/6, 1/2).

    The mus are taken in order, in groups of at most `_BLOCK_POINTS` scan
    points (or one mu, if its scans alone hold more), and each group is
    analysed before the next one's scans are formed, so the scans of every
    mu are never held at once.
    """
    analyses, group, points = [], [], 0
    for mu_value in mus.tolist():
        region = physical_region(mu_value)
        parts = _scans(region, grid.p_step)
        size = sum(part.size for part in parts)
        if group and points + size > _BLOCK_POINTS:
            analyses += _analyze_group(group, grid)
            group, points = [], 0
        group.append((mu_value, region, parts))
        points += size
    if group:
        analyses += _analyze_group(group, grid)
    return tuple(analyses)


def _analyze_group(group: list, grid: SweepGrid) -> list:
    """One MuAnalysis per (mu, region, scans) of a group.

    Every mu's scans go through one `_gap` evaluation, which forms each
    mu's input EoF once; each analysis reads its own slices of the result.
    """
    sizes = [part.size for _, _, parts in group for part in parts]
    *_, eof_b, eof_c, values = _gap(
        [mu_value for mu_value, _, _ in group],
        np.concatenate([part for _, _, parts in group for part in parts]),
        at=np.repeat(np.arange(len(group)).repeat(5), sizes),
    )
    edges = np.cumsum([0, *sizes]).tolist()

    analyses = []
    for i, (_, (p_lo, p_hi), (_, _, scan, _, region)) in enumerate(group):
        rise, up, mid, down, gaps = (slice(*edges[j:j + 2]) for j in range(5 * i, 5 * i + 5))
        mono_violations = int(np.sum(np.diff(eof_b[rise] + eof_c[rise]) < -grid.tolerance))

        second = (eof_b[up] - 2.0 * eof_b[mid] + eof_b[down]) / _H**2
        negative = np.nonzero(second < 0)[0]
        if negative.size == 0:
            inflection = None
        else:
            j = int(negative[0])
            if j == 0:
                inflection = float(scan[0])
            else:
                frac = second[j - 1] / (second[j - 1] - second[j])
                inflection = float(scan[j - 1] + frac * (scan[j] - scan[j - 1]))

        argmin_p = float(region[int(np.argmin(values[gaps]))])
        on_boundary = (
            argmin_p <= p_lo + grid.p_step + 1e-12 or argmin_p >= p_hi - grid.p_step - 1e-12
        )
        analyses.append(MuAnalysis(mono_violations, inflection, on_boundary))
    return analyses


def sweep_delta(grid: SweepGrid | None = None) -> DeltaSweepReport:
    """Dense delta >= 0 certification over the (mu, p) rectangle.

    Evaluates the gap on the full grid, one block of mu rows at a time
    written into the report's (mu, p) arrays, so no intermediate of the
    whole grid is held; then for every mu inside (1/6, 1/2) checks (a)
    the combined clone EoF is nondecreasing on [1/2, p_hi], (b) the
    inflection point of the B-clone EoF sits above 0.56, and (c) the
    gap's minimizer over the physical region lies on the region boundary.
    Every value is elementwise, so the blocks change no bit.
    """
    grid = grid or SweepGrid()
    mu_values = grid.mu_values()
    p_values = grid.p_values()
    shape = (mu_values.size, p_values.size)
    if shape[0] * shape[1] > MAX_GRID_POINTS:
        raise ValueError(f"a {shape[0]} x {shape[1]} grid exceeds {MAX_GRID_POINTS} points")
    c_b, c_c, delta_grid = np.empty(shape), np.empty(shape), np.empty(shape)
    step = max(1, _BLOCK_POINTS // p_values.size)
    for i in range(0, mu_values.size, step):
        rows = slice(i, i + step)
        f_b, f_c, c_b[rows], c_c[rows], _, _, delta_grid[rows] = _gap(mu_values[rows, None], p_values)

    flat = int(np.argmin(delta_grid))
    mi, pi = np.unravel_index(flat, delta_grid.shape)
    window = (MU_THRESHOLD + 1e-9 < mu_values) & (mu_values < 0.5 - 1e-9)
    analyses = _analyze(mu_values[window], grid)
    return DeltaSweepReport(
        grid=grid,
        mu_values=mu_values,
        p_values=p_values,
        fidelity_b=f_b,
        fidelity_c=f_c,
        concurrence_b=c_b,
        concurrence_c=c_c,
        delta_values=delta_grid,
        min_delta=float(delta_grid.min()),
        argmin_mu=float(mu_values[mi]),
        argmin_p=float(p_values[pi]),
        violations=int(np.sum(delta_grid < -grid.tolerance)),
        analyses=analyses,
    )
