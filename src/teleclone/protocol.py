"""End-to-end LOCC telecloning of n-qubit pure states.

The senders share an entangled channel with the receivers, Bell-measure
their qubit pairs, broadcast 2n classical bits, and the receivers apply
local Pauli triples to land on the target superposition of cloning-machine
states — for every one of the 4^n (uniformly likely) outcomes.

Register layouts (big-endian blocks of n qubits each):
  channel      (A', B, C, anc)           4n qubits
  total state  (A, A', B, C, anc)        5n qubits, pairs (A_i, A'_i)
  final state  (B, C, anc)               3n qubits
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloning import CloneParams, cloner_basis_state, target_state
from .qstate import (
    _BELL_ORDER,
    BellElement,
    StateVector,
    _bell_walk,
    _check_position,
    _check_register_size,
    _collapse,
    entanglement_entropy,
    reduced_density,
    state_fidelity,
    tensor,
)

@dataclass(frozen=True)
class BellOutcome:
    """Joint Bell-measurement result, one element per sender pair."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("outcome needs at least one element")

    @property
    def num_pairs(self) -> int:
        return len(self.elements)

    def __str__(self) -> str:
        return ",".join(e.label for e in self.elements)

    @classmethod
    def parse(cls, text: str) -> "BellOutcome":
        return cls(tuple(BellElement.parse(part) for part in text.split(",")))

    @classmethod
    def all_phi_plus(cls, n: int) -> "BellOutcome":
        return cls((BellElement.PHI_PLUS,) * n)

    @classmethod
    def all_outcomes(cls, n: int):
        """All 4^n joint outcomes, in a fixed deterministic order."""
        for combo in itertools.product(_BELL_ORDER, repeat=n):
            yield cls(combo)

    def index(self) -> int:
        """This outcome's position in all_outcomes(num_pairs): base-4 digits, pair 0 first."""
        index = 0
        for element in self.elements:
            index = 4 * index + _BELL_ORDER.index(element)
        return index

    def classical_bits(self) -> tuple:
        """The 2n broadcast bits: per pair, (kind, parity) with PSI/- = 1."""
        bits = []
        for element in self.elements:
            bits.append(1 if element.kind == "PSI" else 0)
            bits.append(1 if element.sign < 0 else 0)
        return tuple(bits)


@dataclass(frozen=True)
class Correction:
    """One local Pauli triple acting on (B_i, C_i, a_i) for a single pair i."""

    op: str  # "x" or "z"
    pair: int  # 0-based pair index
    targets: tuple  # positions inside the (B, C, anc) register

    def to_json_dict(self) -> dict:
        return {"op": self.op, "pair": self.pair, "targets": list(self.targets)}


@dataclass(frozen=True)
class ChannelState:
    """The pre-shared channel 2^(-n/2) sum_k |k>_{A'} (x) machine_state_k."""

    state: StateVector
    params: CloneParams


def build_channel(params: CloneParams) -> ChannelState:
    """Assemble the channel on 4n qubits (A', B, C, anc).

    The prefactor 2^(-n/2) is forced by normalization; the reduced state
    on the A' block is maximally mixed, so the channel carries exactly
    n ebits across the (A' | receivers) cut for every p.
    """
    _check_register_size(4 * params.n)
    d = params.d
    blocks = [cloner_basis_state(k, params).amplitudes for k in range(d)]
    amps = np.concatenate(blocks) / math.sqrt(d)
    return ChannelState(StateVector._owned(amps, 4 * params.n), params)


def attach_input(psi: StateVector, channel: ChannelState) -> StateVector:
    """Join the unknown input with the channel: (A, A', B, C, anc)."""
    if psi.num_qubits != channel.params.n:
        raise ValueError(
            f"input has {psi.num_qubits} qubits but the channel expects {channel.params.n}"
        )
    return tensor(psi, channel.state)


def project_pairs(
    state: StateVector,
    pairs,
    *,
    outcome: BellOutcome | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[BellOutcome, StateVector, float]:
    """Bell-project the given qubit pairs (positions refer to `state`).

    Exactly one of `outcome` (forced) or `rng` (sampled) must be given.
    Sampled mode draws one rng.random() per pair and takes the first
    element, in _BELL_ORDER, whose cumulative probability exceeds it.
    Projections on disjoint pairs commute, so the order of `pairs` does
    not change the result.  Returns the joint outcome, the collapsed
    renormalized state on the remaining qubits (original relative order),
    and the joint probability.
    """
    pairs = list(pairs)
    if (outcome is None) == (rng is None):
        raise ValueError("pass exactly one of outcome= (forced) or rng= (sampled)")
    if outcome is not None and outcome.num_pairs != len(pairs):
        raise ValueError("outcome length does not match the number of pairs")
    mode = {"outcome": outcome.elements} if rng is None else {"draws": rng.random((1, len(pairs)))}
    collapsed, elements, prob = _collapse(state, pairs, **mode)
    return BellOutcome(tuple(_BELL_ORDER[e] for e in elements)), collapsed, prob


def measure_senders(
    total: StateVector,
    params: CloneParams,
    *,
    outcome: BellOutcome | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[BellOutcome, StateVector, float]:
    """Measure every sender pair (A_i, A'_i) of an attach_input state."""
    if total.num_qubits != 5 * params.n:
        raise ValueError("total state was not built by attach_input")
    pairs = [(i, params.n + i) for i in range(params.n)]
    return project_pairs(total, pairs, outcome=outcome, rng=rng)


def correction_plan(outcome: BellOutcome) -> tuple:
    """Local corrections recovering the target state from a measured outcome.

    For every pair with a PSI-type element: a sigma_x triple on
    (B_i, C_i, a_i); then for every pair with parity "-": a sigma_z triple
    on the same positions.  The plan is a function of the 2n broadcast
    bits alone, and each triple touches one qubit per receiver register.
    """
    n = outcome.num_pairs
    plan = []
    for i, element in enumerate(outcome.elements):
        if element.kind == "PSI":
            plan.append(Correction("x", i, (i, n + i, 2 * n + i)))
    for i, element in enumerate(outcome.elements):
        if element.sign < 0:
            plan.append(Correction("z", i, (i, n + i, 2 * n + i)))
    return tuple(plan)


def apply_corrections(state: StateVector, plan, offset: int = 0) -> StateVector:
    """Apply a correction plan; `offset` shifts targets past spectator qubits.

    The plan is folded, in order, into a Pauli frame: the product of its
    operators equals sign * prod_q Z_q^z[q] X_q^x[q], with X applied first.
    An X on a qubit that already carries a Z anticommutes past it, so the
    sign flips then (Z X = -X Z).  The frame acts as one copy of the tensor
    view with the flipped axes reversed (X: index XOR), then a negation of
    the |1> slice of each Z qubit, then the sign: exactly what the plan's
    one-qubit Paulis, applied in turn, give.
    """
    m = state.num_qubits
    flips, phases, negate = [False] * m, [False] * m, False
    for correction in plan:
        if correction.op not in ("x", "z"):
            raise ValueError(f"unknown correction op {correction.op!r}")
        for position in correction.targets:
            q = offset + position
            _check_position(q, m)
            if correction.op == "x":
                flips[q] = not flips[q]
                negate ^= phases[q]
            else:
                phases[q] = not phases[q]
    if not (negate or any(flips) or any(phases)):
        return state
    out = state._tensor_view()[tuple(slice(None, None, -1 if f else 1) for f in flips)].copy()
    for q in range(m):
        if phases[q]:
            ones = out[(slice(None),) * q + (1,)]
            np.negative(ones, out=ones)
    if negate:
        np.negative(out, out=out)
    return StateVector._owned(out.reshape(-1), m)


@dataclass(frozen=True)
class ProtocolTranscript:
    """Everything one protocol run produced."""

    params: CloneParams
    outcome: BellOutcome
    probability: float
    classical_bits: tuple
    corrections: tuple
    final_state: StateVector
    fidelity_b: float
    fidelity_c: float
    target_overlap: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.params.n,
            "p": self.params.p,
            "outcome": str(self.outcome),
            "probability": self.probability,
            "classical_bits": list(self.classical_bits),
            "corrections": [c.to_json_dict() for c in self.corrections],
            "fidelity_b": self.fidelity_b,
            "fidelity_c": self.fidelity_c,
            "target_overlap": self.target_overlap,
        }


def run(
    psi: StateVector,
    params: CloneParams,
    *,
    outcome: BellOutcome | None = None,
    seed: int | None = None,
    channel: ChannelState | None = None,
) -> ProtocolTranscript:
    """Full telecloning round: attach, measure, broadcast, correct, verify.

    Pass either a forced `outcome` (deterministic, for tests) or an
    explicit `seed` for sampled mode.  A prebuilt `channel` may be reused
    across runs with the same params.
    """
    if psi.num_qubits != params.n:
        raise ValueError("input register size does not match params.n")
    _check_register_size(5 * params.n)  # the attached state, before any allocation
    if not abs(psi.norm - 1.0) <= 1e-6:  # NaN fails it too
        raise ValueError(f"input state norm {psi.norm} is not 1 within 1e-6")
    psi = psi.normalized()
    if channel is None:
        channel = build_channel(params)
    elif channel.params != params:
        raise ValueError("channel was built for different params")
    total = attach_input(psi, channel)
    rng = np.random.default_rng(seed) if seed is not None else None
    measured, collapsed, probability = measure_senders(
        total, params, outcome=outcome, rng=rng
    )
    plan = correction_plan(measured)
    final = apply_corrections(collapsed, plan)
    n = params.n
    rho_b = reduced_density(final, range(n))
    rho_c = reduced_density(final, range(n, 2 * n))
    fidelity_b = state_fidelity(psi, rho_b)
    fidelity_c = state_fidelity(psi, rho_c)
    overlap = target_state(psi.amplitudes, params).fidelity_with(final)
    return ProtocolTranscript(
        params=params,
        outcome=measured,
        probability=probability,
        classical_bits=measured.classical_bits(),
        corrections=plan,
        final_state=final,
        fidelity_b=fidelity_b,
        fidelity_c=fidelity_c,
        target_overlap=overlap,
    )


def _sender_walk(psi: StateVector, channel: ChannelState, draws=None) -> tuple:
    """_bell_walk over the sender pairs (A_i, A'_i) of attach_input(psi, channel)."""
    total, n = attach_input(psi, channel), channel.params.n
    pairs = [(i, n + i) for i in range(n)]
    return _bell_walk(total.amplitudes, total.num_qubits, pairs, draws=draws)


def outcome_probabilities(psi: StateVector, params: CloneParams) -> dict:
    """Exact joint probability of every one of the 4^n outcomes.

    The row norms of the batch walk that evaluate_outcomes also takes, and
    nothing else: no correction, overlap or fidelity is computed.  Keyed
    by BellOutcome in all_outcomes order.  For any normalized input the
    distribution comes out uniform at 4^(-n).
    """
    rows, _, _ = _sender_walk(psi.normalized(), build_channel(params))
    probs = (np.abs(rows) ** 2).sum(axis=1) / 2**params.n
    return dict(zip(BellOutcome.all_outcomes(params.n), probs.tolist()))


@functools.cache
def _pauli_frame(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) of every outcome's corrections on the (B, C, anc) register.

    Row k belongs to the k-th outcome of BellOutcome.all_outcomes: its
    correction plan applies X on the qubits of xmask, then Z on those of
    zmask (correction_plan lists every X before any Z), so the corrected
    amplitude at i is (-1)^popcount(i & zmask) * residual[i ^ xmask].
    Both (4^n, 8^n) arrays are read-only.
    """
    m = 3 * n
    masks = []
    for outcome in BellOutcome.all_outcomes(n):
        xmask = zmask = 0
        for correction in correction_plan(outcome):
            bits = sum(1 << (m - 1 - t) for t in correction.targets)
            if correction.op == "x":
                xmask ^= bits
            else:
                zmask ^= bits
        masks.append((xmask, zmask))
    xmask, zmask = np.array(masks, dtype=np.intp).T
    positions = np.arange(1 << m, dtype=np.intp)
    index = positions ^ xmask[:, None]
    phased = positions & zmask[:, None]
    parity = np.zeros_like(phased)
    for bit in range(m):  # popcount parity; np.bitwise_count would need numpy >= 2
        parity ^= (phased >> bit) & 1
    sign = 1.0 - 2.0 * parity
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def evaluate_outcomes(
    psi: StateVector, channel: ChannelState
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every forced outcome of one input in one batch, without calling run.

    Returns four arrays in BellOutcome.all_outcomes order: the outcome's
    probability, the corrected state's overlap |<target|final>|^2 with
    target_state, and the clone fidelities F_B and F_C, each what
    run(psi, channel.params, outcome=..., channel=channel) reports.  The
    residual rows are normalized, every outcome's Pauli frame is one
    gather and one sign, the overlaps are one matrix-vector product, and
    F_B (F_C) is the squared norm of conj(psi) contracted into the B (C)
    axis of the (4^n, d, d, d) final states.  The input is checked as in
    run, before anything is allocated.
    """
    params = channel.params
    n, d = params.n, params.d
    if psi.num_qubits != n:
        raise ValueError("input register size does not match the channel's n")
    _check_register_size(5 * n)  # the attached state, before any allocation
    if not abs(psi.norm - 1.0) <= 1e-6:  # NaN fails it too
        raise ValueError(f"input state norm {psi.norm} is not 1 within 1e-6")
    psi = psi.normalized()
    rows, _, _ = _sender_walk(psi, channel)
    probs = (np.abs(rows) ** 2).sum(axis=1) / 2**n
    index, sign = _pauli_frame(n)
    final = np.take_along_axis(rows, index, axis=1)
    final *= sign / np.sqrt(probs * 2**n)[:, None]  # the frame's signs, rows normalized
    target = target_state(psi.amplitudes, params).amplitudes
    overlap = np.abs(final @ target.conj()) ** 2
    final = final.reshape(-1, d, d, d)  # (outcome, B, C, anc)
    bra = psi.amplitudes.conj()
    fidelity_b = (np.abs(np.tensordot(final, bra, axes=(1, 0))) ** 2).sum(axis=(1, 2))
    fidelity_c = (np.abs(np.tensordot(final, bra, axes=(2, 0))) ** 2).sum(axis=(1, 2))
    return probs, overlap, fidelity_b, fidelity_c


def sample_outcomes(
    psi: StateVector, params: CloneParams, num_samples: int, seed: int
) -> dict:
    """Counts of num_samples consecutive measure_senders draws from one default_rng(seed)."""
    draws = np.random.default_rng(seed).random((num_samples, params.n))
    _, elements, trials = _sender_walk(psi, build_channel(params), draws)
    index = np.array(elements) @ 4 ** np.arange(params.n - 1, -1, -1)  # BellOutcome.index
    counts = np.bincount(index[trials], minlength=4**params.n)
    return dict(zip(BellOutcome.all_outcomes(params.n), counts.tolist()))


def entanglement_cost_check(
    params: CloneParams,
    *,
    input_state: StateVector | None = None,
    outcome: BellOutcome | None = None,
    seed: int | None = None,
) -> float:
    """Ebits the protocol delivers across the (reference | receivers) cut.

    Telecloning the n input qubits of a state whose other qubits are a
    reference no party touches.  The default input is the maximally
    entangled 2^(-n/2) sum_j |j>_A |j>_ref on n + n qubits; with it the
    final state carries exactly n ebits between the reference and the
    receiver side, for every p — which is why n ebits of channel
    entanglement are necessary.  A product input yields 0.
    """
    n = params.n
    n_ref = n if input_state is None else input_state.num_qubits - n
    if n_ref < 1:
        raise ValueError("input must carry at least one reference qubit")
    _check_register_size(n + n_ref + 4 * n)
    if input_state is None:
        amps = np.zeros(1 << 2 * n, dtype=complex)
        amps[np.arange(params.d) * (params.d + 1)] = 2.0 ** (-n / 2)  # |j>|j>
        input_state = StateVector._owned(amps, 2 * n)
    if outcome is None and seed is None:
        outcome = BellOutcome.all_phi_plus(n)
    rng = np.random.default_rng(seed) if seed is not None else None
    channel = build_channel(params)
    total = tensor(input_state, channel.state)
    pairs = [(i, n + n_ref + i) for i in range(n)]
    measured, collapsed, _ = project_pairs(total, pairs, outcome=outcome, rng=rng)
    final = apply_corrections(collapsed, correction_plan(measured), offset=n_ref)
    return entanglement_entropy(final, range(n_ref))
