"""1->4 telecloning of mixed states via purification.

A mixed n-qubit state diagonal in the computational basis is purified to
2n qubits, the 2n-qubit pure protocol clones the purification to the B
and C sides, and tracing each side down again yields four clones of the
original mixed state — with a strictly better fidelity floor than pure
telecloning at the same dimension.
"""

import math
from dataclasses import dataclass

import numpy as np

from .cloning import CloneParams
from .protocol import BellOutcome, run
from .qstate import (
    DensityMatrix,
    StateVector,
    partial_trace,
    reduced_density,
    state_fidelity,
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
        if alphas.min() < 0.0:
            raise ValueError("eigenvalues must be nonnegative")
        if abs(alphas.sum() - 1.0) > 1e-12:
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
    dim = mixed.dimension
    amps = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        amps[k * dim + k] = math.sqrt(mixed.alphas[k])
    return StateVector(amps, 2 * mixed.n)


def _check_protocol_params(mixed: MixedInput, params: CloneParams) -> None:
    if params.n != 2 * mixed.n:
        raise ValueError(
            f"protocol params must use n={2 * mixed.n} qubits for this input"
        )


def _run_purified(mixed, params, outcome, seed):
    if outcome is None and seed is None:
        outcome = BellOutcome.all_phi_plus(params.n)
    return run(purify(mixed), params, outcome=outcome, seed=seed)


def teleclone_mixed(
    mixed: MixedInput,
    params: CloneParams,
    *,
    outcome: BellOutcome | None = None,
    seed: int | None = None,
) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix, DensityMatrix]:
    """Simulate the purified protocol and trace down to the four clones.

    Returns (rho_B, rho_C, rho_B', rho_C').  The purification is
    symmetric under swapping a system with its primed partner, so the
    primed and unprimed clones agree.  Defaults to the all-(PHI,+) forced
    outcome (the result is outcome-independent).
    """
    _check_protocol_params(mixed, params)
    transcript = _run_purified(mixed, params, outcome, seed)
    m, n = params.n, mixed.n
    rho_bb = reduced_density(transcript.final_state, range(m))
    rho_cc = reduced_density(transcript.final_state, range(m, 2 * m))
    rho_b = partial_trace(rho_bb, range(n))
    rho_b2 = partial_trace(rho_bb, range(n, 2 * n))
    rho_c = partial_trace(rho_cc, range(n))
    rho_c2 = partial_trace(rho_cc, range(n, 2 * n))
    return rho_b, rho_c, rho_b2, rho_c2


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


def trace_fidelities(
    mixed: MixedInput,
    params: CloneParams,
    *,
    outcome: BellOutcome | None = None,
    seed: int | None = None,
) -> tuple[float, float]:
    """Simulated (F_mixed, F_pure) pair for one protocol instance; never raises on a violation.

    F_mixed compares the traced-down clone with the mixed input via the
    Uhlmann fidelity; F_pure compares the purified clone pair with the
    purification.  Tracing is a quantum operation, so F_mixed can only be
    larger.
    """
    _check_protocol_params(mixed, params)
    transcript = _run_purified(mixed, params, outcome, seed)
    rho_bb = reduced_density(transcript.final_state, range(params.n))
    f_pure = state_fidelity(purify(mixed), rho_bb)
    rho_b = partial_trace(rho_bb, range(mixed.n))
    f_mixed = uhlmann_fidelity(mixed.density(), rho_b)
    return f_mixed, f_pure


def sample_simplex(dimension: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on the probability simplex (normalized exponentials)."""
    draws = rng.exponential(1.0, size=(count, dimension))
    return draws / draws.sum(axis=1, keepdims=True)
