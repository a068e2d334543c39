"""1->4 telecloning of mixed states via purification.

A mixed n-qubit state diagonal in the computational basis is purified to
2n qubits and the 2n-qubit pure protocol clones the purification to the
B and C sides.  Each n-qubit half of either side, read straight off the
final state, is one of four clones of the original mixed state — with a
strictly better fidelity floor than pure telecloning at the same
dimension.  `_clones` is the one purified run behind `teleclone_mixed`
and `trace_fidelities`.
"""

from dataclasses import dataclass

import numpy as np

from .cloning import CloneParams
from .protocol import BellOutcome, run
from .qstate import (
    DensityMatrix,
    StateVector,
    _check_register_size,
    reduced_density,
    uhlmann_fidelity,
)


@dataclass(frozen=True)
class MixedInput:
    """Computational-basis eigenvalues of an n-qubit mixed state."""

    alphas: np.ndarray
    n: int

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=float)
        if alphas.ndim != 1 or alphas.size != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} eigenvalues for n={self.n}")
        if not alphas.min() >= 0.0:  # NaN fails it too
            raise ValueError("eigenvalues must be nonnegative")
        if not abs(alphas.sum() - 1.0) <= 1e-12:  # as does an infinite sum
            raise ValueError("eigenvalues must sum to 1 within 1e-12")
        alphas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)

    @property
    def dimension(self) -> int:
        """2^n, the mixed state's own dimension (sqrt of the protocol's d)."""
        return 1 << self.n

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.diag(self.alphas).astype(complex), self.n)

    def protocol_params(self, p: float) -> CloneParams:
        """Cloning parameters for the purified state (2n qubits, d = 2^{2n})."""
        return CloneParams(p=p, n=2 * self.n)


def purify(mixed: MixedInput) -> StateVector:
    """The 2n-qubit purification sum_k sqrt(alpha_k) |k>|k>.

    Tracing out the second half recovers the diagonal mixed state exactly.
    """
    _check_register_size(2 * mixed.n)
    dim = mixed.dimension
    amps = np.zeros(dim * dim, dtype=complex)
    amps[np.arange(dim) * (dim + 1)] = np.sqrt(mixed.alphas)  # |k>|k>
    return StateVector._owned(amps, 2 * mixed.n)


def _check_protocol_params(mixed: MixedInput, params: CloneParams) -> None:
    if params.n != 2 * mixed.n:
        raise ValueError(
            f"protocol params must use n={2 * mixed.n} qubits for this input"
        )


def _clones(mixed, params, outcome, seed):
    """The purified run's transcript and its (B, C, B', C') clones.

    One run of the 2n-qubit protocol on purify(mixed), forced to the
    all-(PHI,+) outcome unless `outcome` or `seed` is given; each n-qubit
    clone is reduced once from the final (B B', C C', anc) state.
    """
    _check_protocol_params(mixed, params)
    if outcome is None and seed is None:
        outcome = BellOutcome.all_phi_plus(params.n)
    transcript = run(purify(mixed), params, outcome=outcome, seed=seed)
    m, n = params.n, mixed.n
    clones = tuple(
        reduced_density(transcript.final_state, range(start, start + n))
        for start in (0, m, n, m + n)
    )
    return transcript, clones


def teleclone_mixed(
    mixed: MixedInput,
    params: CloneParams,
    *,
    outcome: BellOutcome | None = None,
    seed: int | None = None,
) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix, DensityMatrix]:
    """Simulate the purified protocol once and read off the four clones.

    Returns (rho_B, rho_C, rho_B', rho_C'), each the reduced state of one
    n-qubit half of the B or C side.  The purification is symmetric under
    swapping a system with its primed partner, so the primed and unprimed
    clones agree.  Defaults to the all-(PHI,+) forced outcome (the result
    is outcome-independent).
    """
    return _clones(mixed, params, outcome, seed)[1]


def mixed_clone_formula(mixed: MixedInput, params: CloneParams) -> DensityMatrix:
    """Closed-form B-side clone of a diagonal mixed input.

    {[1 - q^2 + (d-1)p^2] diag(alpha) + sqrt(d) q^2 I} / normalization
    with d = 2^{2n}.  The C side follows by exchanging p and q.
    """
    _check_protocol_params(mixed, params)
    d, q = params.d, params.q
    coef = 1.0 - q**2 + (d - 1) * params.p**2
    mat = coef * np.diag(mixed.alphas) + mixed.dimension * q**2 * np.eye(
        mixed.dimension
    )
    return DensityMatrix(mat.astype(complex) / params.normalization, mixed.n)


def mixed_fidelity(mixed: MixedInput, params: CloneParams) -> float:
    """Closed-form fidelity between the mixed input and its B-side clone.

    (sum_k sqrt([1 - q^2 + (d-1)p^2] alpha_k^2 + sqrt(d) q^2 alpha_k))^2
    divided by the normalization; equals the Uhlmann fidelity against
    mixed_clone_formula.  Value 1 at the uniform input, and the
    fidelity_bounds floor at simplex vertices.
    """
    _check_protocol_params(mixed, params)
    d, q = params.d, params.q
    coef = 1.0 - q**2 + (d - 1) * params.p**2
    terms = np.sqrt(coef * mixed.alphas**2 + mixed.dimension * q**2 * mixed.alphas)
    return float(terms.sum() ** 2 / params.normalization)


def fidelity_bounds(params: CloneParams) -> tuple[float, float]:
    """Lower fidelity bounds (B side, C side) over all diagonal mixed inputs.

    ([1 - q^2 + (d-1)p^2 + sqrt(d) q^2] / normalization and the p <-> q
    mirror); attained at simplex vertices, and never below the pure-state
    clone fidelity at the same (d, p) since (sqrt(d)-1) q^2 >= 0.
    """
    if params.n % 2 != 0:
        raise ValueError("mixed telecloning uses an even protocol register (n = 2k)")
    d, p, q = params.d, params.p, params.q
    sqrt_d = 1 << (params.n // 2)
    norm = params.normalization
    lower_b = (1.0 - q**2 + (d - 1) * p**2 + sqrt_d * q**2) / norm
    lower_c = (1.0 - p**2 + (d - 1) * q**2 + sqrt_d * p**2) / norm
    return lower_b, lower_c


def trace_fidelities(mixed: MixedInput, params: CloneParams) -> tuple[float, float]:
    """Simulated (F_mixed, F_pure) pair of the all-(PHI,+) run; never raises on a violation.

    F_mixed is the Uhlmann fidelity of the mixed input and the B clone;
    F_pure is the run's fidelity_b, <Psi|rho_BB'|Psi> of the purification
    Psi and the purified clone pair.  Tracing B' out is a quantum
    operation, so F_mixed can only be larger.
    """
    transcript, (rho_b, *_) = _clones(mixed, params, None, None)
    return uhlmann_fidelity(mixed.density(), rho_b), transcript.fidelity_b


def sample_simplex(dimension: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the probability simplex (normalized exponentials)."""
    draws = rng.exponential(1.0, size=(count, dimension))
    return draws / draws.sum(axis=1, keepdims=True)
