"""A naive dense oracle for the protocol tests: it shares no code with the Bell walk.

Each Bell element is contracted into the full state by np.tensordot, one
pair at a time; sampled mode draws its own rng.random() per pair; the
receivers' Paulis are applied one qubit at a time by apply_local.  `lift`
makes sender-walk rows dense, for comparison with this oracle's rows.
"""

import math

import numpy as np

from teleclone import qstate
from teleclone.cloning import CloneParams, _machine_states, _machine_weights
from teleclone.protocol import BellOutcome
from teleclone.qstate import PAULI_X, PAULI_Z, BellElement, StateVector


def tensordot_residual(state: StateVector, pair, element: BellElement) -> np.ndarray:
    """Reference <element|_pair psi by a full-state contraction (unnormalized)."""
    psi = state.amplitudes.reshape([2] * state.num_qubits)
    return np.tensordot(element.tensor().conj(), psi, axes=([0, 1], list(pair))).reshape(-1)


def measure_pairs(state: StateVector, pairs, *, outcome=None, rng=None):
    """Bell-measure the given pairs of `state` in order; positions refer to `state`.

    Forced: pair k takes outcome.elements[k].  Sampled: pair k takes one
    rng.random() draw and keeps the first element, in BellElement order,
    whose running sum of conditional probabilities exceeds it.  Returns the
    joint outcome, the normalized state on the remaining qubits and the
    joint probability.
    """
    elements, prob, removed = [], 1.0, []
    for k, pair in enumerate(pairs):
        at = [q - sum(r < q for r in removed) for q in pair]
        if outcome is not None:
            element = outcome.elements[k]
            residual = tensordot_residual(state, at, element)
        else:
            draw, running = rng.random(), 0.0
            for element in BellElement:
                residual = tensordot_residual(state, at, element)
                running += float(np.vdot(residual, residual).real)
                if draw < running:
                    break
        weight = float(np.vdot(residual, residual).real)
        state = StateVector(residual / math.sqrt(weight), state.num_qubits - 2)
        elements.append(element)
        prob *= weight
        removed.extend(pair)
    return BellOutcome(tuple(elements)), state, prob


def sender_pairs(n: int, n_ref: int = 0) -> list:
    """The sender pairs (A_i, A'_i) of the dense (A, ref, A', B, C, anc) register."""
    return [(i, n + n_ref + i) for i in range(n)]


def apply_plan(state: StateVector, plan, offset: int = 0) -> StateVector:
    """Every Pauli of a correction plan applied in turn by apply_local, targets shifted by `offset`."""
    ops = {"x": PAULI_X, "z": PAULI_Z}
    for correction in plan:
        for position in correction.targets:
            state = qstate.apply_local(state, ops[correction.op], offset + position)
    return state


def lift(rows: np.ndarray, params: CloneParams) -> np.ndarray:
    """Walk rows on (ref, K) made dense on (ref, B, C, anc): |k>_K -> build_channel's row k."""
    d = params.d
    weights = _machine_weights(params, math.sqrt(d))  # as build_channel rounds them
    return _machine_states(rows.reshape(-1, d), weights).reshape(len(rows), -1)
