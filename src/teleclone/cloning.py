"""Asymmetric universal cloning machine for n-qubit inputs (d = 2^n).

The machine turns a d-level basis state |j> into a normalized state on
three n-qubit registers — clone B, clone C, ancilla — in which weight p
sits on the terms where C is shifted away from j and weight q = 1 - p on
the terms where B is shifted.  Superposing these basis outputs clones an
arbitrary input with input-independent fidelities F_B(p) and F_C(p).
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .qstate import DensityMatrix, StateVector, _check_register_size


@dataclass(frozen=True)
class CloneParams:
    """Asymmetry weight p (q = 1 - p derived) and register size n (d = 2^n)."""

    p: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"asymmetry weight p={self.p} outside [0, 1]")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.n >= sys.float_info.max_exp:
            raise ValueError(f"n={self.n} is too large: d = 2^n overflows a float")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def d(self) -> int:
        return 1 << self.n

    @property
    def normalization(self) -> float:
        """The common factor 1 + (d-1)(p^2 + q^2)."""
        return 1.0 + (self.d - 1) * (self.p**2 + self.q**2)


def cloner_basis_state(j: int, params: CloneParams) -> StateVector:
    """Machine output for basis input |j>, on 3n qubits (B, C, ancilla).

    Each register holds a d-level value expanded into n qubits
    (big-endian).  The terms are |j,j,j>, p|j, j+r, j+r> and
    q|j+r, j, j+r> for r = 1..d-1 (shifts mod d), divided by
    sqrt(1 + (d-1)(p^2 + q^2)).

    The d outputs are mutually orthonormal for every p: their
    computational-basis supports are pairwise disjoint.
    """
    _check_register_size(3 * params.n)
    d = params.d
    if not 0 <= j < d:
        raise ValueError(f"basis index {j} out of range for d={d}")
    amps = np.zeros(d**3, dtype=complex)
    amps[(j * d + j) * d + j] = 1.0
    for r in range(1, d):
        k = (j + r) % d
        amps[(j * d + k) * d + k] = params.p
        amps[(k * d + j) * d + k] = params.q
    amps /= math.sqrt(params.normalization)
    return StateVector(amps, 3 * params.n)


@functools.cache
def _machine_support(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, j) of the d + 2d(d-1) nonzero terms of all d machine outputs.

    In cloner_basis_state's order: the d terms (j, j, j), then the terms
    (j, k, k) that carry p, then the terms (k, j, k) that carry q, k != j.
    """
    j = np.arange(d)
    k = (j[:, None] + np.arange(1, d)) % d
    jk = np.broadcast_to(j[:, None], k.shape).ravel()
    k = k.ravel()
    index = np.concatenate([(j * d + j) * d + j, (jk * d + k) * d + k, (k * d + jk) * d + k])
    rows = np.concatenate([j, jk, jk])
    index.flags.writeable = rows.flags.writeable = False
    return index, rows


@functools.lru_cache(maxsize=32)
def _machine_weights(params: CloneParams, divisor: float = 1.0) -> np.ndarray:
    """The amplitudes of _machine_support's terms, rounded as cloner_basis_state
    rounds them, then divided by `divisor`; read-only and cached for every run."""
    d = params.d
    shifted = d * (d - 1)
    weights = np.repeat(np.array([1.0, params.p, params.q], dtype=complex), [d, shifted, shifted])
    weights /= math.sqrt(params.normalization)
    weights /= divisor  # exact for the default 1
    weights.flags.writeable = False
    return weights


def _machine_states(alphas: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(rows, d^3) sums over j of alphas[:, j] * machine output j; one product per amplitude."""
    index, j = _machine_support(alphas.shape[1])
    states = np.zeros((len(alphas), alphas.shape[1] ** 3), dtype=complex)
    states[:, index] = alphas[:, j] * weights
    return states


def target_state(alphas, params: CloneParams) -> StateVector:
    """Superposition sum_j alphas[j] * cloner_basis_state(j) on 3n qubits.

    This is the state the telecloning protocol delivers to the receivers;
    tracing it down to either clone register gives the closed-form clones.
    Built in one scatter (_machine_states).
    """
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.size != params.d:
        raise ValueError(f"expected {params.d} amplitudes, got {alphas.size}")
    _check_register_size(3 * params.n)
    (amps,) = _machine_states(alphas.reshape(1, -1), _machine_weights(params))
    return StateVector._owned(amps, 3 * params.n)


def clone_pair(psi: StateVector, params: CloneParams) -> tuple[DensityMatrix, DensityMatrix]:
    """Closed-form clone density operators (rho_B, rho_C) for a pure input.

    rho_B = {[1 - q^2 + (d-1)p^2] |psi><psi| + q^2 I} / normalization,
    and rho_C is the same with p and q exchanged.
    """
    if psi.num_qubits != params.n:
        raise ValueError("input register size does not match params.n")
    d, p, q = params.d, params.p, params.q
    projector = np.outer(psi.amplitudes, psi.amplitudes.conj())
    eye = np.eye(d)
    norm = params.normalization
    rho_b = ((1 - q**2 + (d - 1) * p**2) * projector + q**2 * eye) / norm
    rho_c = ((1 - p**2 + (d - 1) * q**2) * projector + p**2 * eye) / norm
    return DensityMatrix(rho_b, params.n), DensityMatrix(rho_c, params.n)


def fidelity_curve(p, d: int) -> tuple:
    """Vectorized clone fidelities (F_B, F_C) as functions of p for given d.

    F_B = [1 + (d-1)p^2] / [1 + (d-1)(p^2 + q^2)] with q = 1 - p; F_C is
    the p <-> q mirror.  F_B rises from 1/d at p=0 to 1 at p=1 while F_C
    falls; both equal the optimal universal symmetric cloning fidelity
    (d+3)/(2(d+1)) at p = 1/2.
    """
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    norm = 1.0 + (d - 1) * (p**2 + q**2)
    return (1.0 + (d - 1) * p**2) / norm, (1.0 + (d - 1) * q**2) / norm


def clone_fidelities(params: CloneParams) -> tuple[float, float]:
    """Closed-form (F_B, F_C) for the given asymmetry and dimension."""
    f_b, f_c = fidelity_curve(params.p, params.d)
    return float(f_b), float(f_c)
