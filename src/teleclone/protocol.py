"""End-to-end LOCC telecloning of n-qubit pure states.

The senders share an entangled channel with the receivers, Bell-measure
their qubit pairs, broadcast 2n classical bits, and the receivers apply
local Pauli triples to land on the target superposition of cloning-machine
states — for every one of the 4^n (uniformly likely) outcomes.

The senders' Bell walk runs on the input and a label register K that
stands in for the receivers, psi (x) sum_k |k>_{A'}|k>_K; its rows are
then lifted by one scatter, |k>_K -> 2^(-n/2) machine_state_k (_lift).
Every entry point passes one input gate (_checked_input), and every lifted
row becomes its corrected final state in one step (_final), which run and
evaluate_outcomes read out and entanglement_cost_check takes the entropy
of.  Only the dense oracle (attach_input) and the benchmark build the channel.

Register layouts (big-endian; ref is entanglement_cost_check's reference):
  channel      (A', B, C, anc)           4n qubits
  total state  (A, A', B, C, anc)        5n qubits, pairs (A_i, A'_i)
  walk         (A, ref, A', K)           n_ref + 3n qubits, pairs (A_i, A'_i)
  final state  (ref, B, C, anc)          n_ref + 3n qubits, the walk's K lifted
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloning import CloneParams, _machine_states, _machine_weights, target_state
from .qstate import (
    _BELL_ORDER,
    BellElement,
    StateVector,
    _bell_walk,
    _check_position,
    _check_register_size,
    _collapse,
    entanglement_entropy,
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
    """The pre-shared channel 2^(-n/2) sum_k |k>_{A'} (x) machine_state_k (dense route only)."""

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
    amps = _machine_states(np.eye(d), _machine_weights(params, math.sqrt(d)))  # row k: |k>_{A'}
    return ChannelState(StateVector._owned(amps.reshape(-1), 4 * params.n), params)


def attach_input(psi: StateVector, channel: ChannelState) -> StateVector:
    """Join the unknown input with the channel: (A, A', B, C, anc)."""
    if psi.num_qubits != channel.params.n:
        raise ValueError(
            f"input has {psi.num_qubits} qubits but the channel expects {channel.params.n}"
        )
    return tensor(psi, channel.state)


def _walk_mode(n: int, outcome: BellOutcome | None, rng, trials: int = 1) -> dict:
    """The _bell_walk keyword of a forced `outcome` or of `trials` draws of a uniform per pair."""
    if (outcome is None) == (rng is None):
        raise ValueError("pass exactly one of outcome= (forced) or rng= (sampled)")
    if outcome is not None and outcome.num_pairs != n:
        raise ValueError("outcome length does not match the number of pairs")
    return {"outcome": outcome.elements} if rng is None else {"draws": rng.random((trials, n))}


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
    collapsed, elements, prob = _collapse(state, pairs, **_walk_mode(len(pairs), outcome, rng))
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


def _fold(plan, num_qubits: int, offset: int = 0) -> tuple[int, int, int]:
    """Fold a correction plan, in order, into its Pauli frame (xmask, zmask, sign).

    The product of the plan's operators equals sign * prod_q Z_q^z[q] X_q^x[q]
    (X applied first), with bit q of a mask at 1 << (num_qubits - 1 - q).  An
    X on a qubit that already carries a Z anticommutes past it, so the sign
    flips then (Z X = -X Z).  `offset` shifts targets past spectator qubits.
    """
    xmask, zmask, sign = 0, 0, 1
    for correction in plan:
        if correction.op not in ("x", "z"):
            raise ValueError(f"unknown correction op {correction.op!r}")
        for q in (offset + position for position in correction.targets):
            _check_position(q, num_qubits)
            bit = 1 << (num_qubits - 1 - q)
            if correction.op == "x":
                xmask ^= bit
                sign = -sign if zmask & bit else sign
            else:
                zmask ^= bit
    return xmask, zmask, sign


def _frame(folds, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) arrays of shape (len(folds), 2^num_qubits), one row per fold.

    A row's frame takes a state to sign[i] * state[index[i]] at every i:
    index = i ^ xmask and sign = sign * (-1)^popcount(i & zmask).
    """
    xmask, zmask, sign = np.array(folds, dtype=np.intp).T
    positions = np.arange(1 << num_qubits, dtype=np.intp)
    index = positions ^ xmask[:, None]
    parity = positions & zmask[:, None]
    for shift in (16, 8, 4, 2, 1):  # XOR-fold: bit 0 ends as the parity of all 32 low bits
        parity ^= parity >> shift
    return index, (1.0 - 2.0 * (parity & 1)) * sign[:, None]


def apply_corrections(state: StateVector, plan, offset: int = 0) -> StateVector:
    """Apply a correction plan; `offset` shifts targets past spectator qubits.

    The plan's Pauli frame (_fold) acts as one gather and one sign: exactly
    what the plan's one-qubit Paulis, applied in turn, give.
    """
    m = state.num_qubits
    index, sign = _frame([_fold(plan, m, offset)], m)
    return StateVector._owned(state.amplitudes[index[0]] * sign[0], m)


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


def _check_budget(n: int, n_ref: int = 0) -> None:
    """Refuse, before anything is allocated, a run whose dense oracle register
    (A, ref, A', B, C, anc) of n_ref + 5n qubits is past the limit (the walk holds
    n_ref + 3n; the rule stays until evaluate_outcomes' 4^n x 8^n batch, 512 MiB at
    n=5, has a bound of its own)."""
    _check_register_size(n_ref + 5 * n)


def _checked_input(psi: StateVector, n: int, n_ref: int = 0) -> StateVector:
    """psi normalized, once its size (n + n_ref), qubit budget and norm are checked."""
    if psi.num_qubits != n + n_ref:
        raise ValueError(f"input register size does not match n={n}")
    _check_budget(n, n_ref)
    if not abs(psi.norm - 1.0) <= 1e-6:  # NaN fails it too
        raise ValueError(f"input state norm {psi.norm} is not 1 within 1e-6")
    return psi.normalized()


def _sender_walk(psi: StateVector, n: int, **mode) -> tuple:
    """_bell_walk over the pairs (i, m + i) of psi (x) sum_k |k>_{A'}|k>_K, rows on (ref, K).

    psi holds the n sender qubits, then any reference qubits: m in all.  The
    machine outputs are orthonormal, so sampled mode's conditional weights
    are those of the dense walk over tensor(psi, channel.state), up to a constant.
    """
    m, d = psi.num_qubits, 1 << n
    walked = np.kron(psi.amplitudes, np.eye(d, dtype=complex).ravel())  # (A, ref, A', K)
    return _bell_walk(walked, m + 2 * n, [(i, m + i) for i in range(n)], **mode)


def _lift(rows: np.ndarray, params: CloneParams) -> np.ndarray:
    """Walk rows on (ref, K) to (ref, B, C, anc), |k>_K -> row k of build_channel(params)."""
    d = params.d
    weights = _machine_weights(params, math.sqrt(d))  # as build_channel rounds them
    return _machine_states(rows.reshape(-1, d), weights).reshape(len(rows), -1)


def _final(rows: np.ndarray, params: CloneParams, frame) -> tuple:
    """Outcome probability and corrected final state of each sender-walk row:
    lifted (_lift), gathered and signed by its `frame` row (_frame), then
    normalized (its squared norm is 2^n times the probability)."""
    index, sign = frame
    rows = _lift(rows, params)
    norms = (np.abs(rows) ** 2).sum(axis=1)
    final = np.take_along_axis(rows, index, axis=1)
    final *= sign / np.sqrt(norms)[:, None]  # the frame's signs, rows normalized
    return norms / 2**params.n, final


def _readout(psi: StateVector, params: CloneParams, rows: np.ndarray, frame) -> tuple:
    """Probability, final state (_final), target overlap, F_B and F_C of walk
    rows; F_B (F_C) is the squared norm of conj(psi) contracted into the B (C)
    axis of the (B, C, anc) final state."""
    d = params.d
    probs, final = _final(rows, params, frame)
    target = target_state(psi.amplitudes, params).amplitudes
    overlap = np.abs(final @ target.conj()) ** 2
    bra = psi.amplitudes.conj()
    fidelity_b = (np.abs(bra @ final.reshape(-1, d, d * d)) ** 2).sum(axis=1)  # (row, B, C*anc)
    fidelity_c = (np.abs(bra @ final.reshape(-1, d, d, d)) ** 2).sum(axis=(1, 2))  # (row, B, C, anc)
    return probs, final, overlap, fidelity_b, fidelity_c


def run(
    psi: StateVector,
    params: CloneParams,
    *,
    outcome: BellOutcome | None = None,
    seed: int | None = None,
    channel: ChannelState | None = None,
) -> ProtocolTranscript:
    """Full telecloning round: sender walk, broadcast, lift, correct, verify.

    Pass either a forced `outcome` (deterministic, for tests) or an
    explicit `seed` for sampled mode.  The measured row goes through the
    same readout as every row of evaluate_outcomes.  No channel is built;
    a `channel` passed in is not read, only refused if built for other params.
    """
    psi = _checked_input(psi, params.n)
    rng = np.random.default_rng(seed) if seed is not None else None
    mode = _walk_mode(params.n, outcome, rng)
    if channel is not None and channel.params != params:
        raise ValueError("channel was built for different params")
    rows, (elements,), _ = _sender_walk(psi, params.n, **mode)
    measured = BellOutcome(tuple(_BELL_ORDER[e] for e in elements))
    plan = correction_plan(measured)
    frame = _frame([_fold(plan, 3 * params.n)], 3 * params.n)
    probs, final, overlap, fidelity_b, fidelity_c = _readout(psi, params, rows, frame)
    return ProtocolTranscript(
        params=params,
        outcome=measured,
        probability=float(probs[0]),
        classical_bits=measured.classical_bits(),
        corrections=plan,
        final_state=StateVector._owned(final[0], 3 * params.n),
        fidelity_b=float(fidelity_b[0]),
        fidelity_c=float(fidelity_c[0]),
        target_overlap=float(overlap[0]),
    )


@functools.cache
def _pauli_frame(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only _frame of every outcome's plan, (4^n, 8^n), in all_outcomes order."""
    folds = [_fold(correction_plan(o), 3 * n) for o in BellOutcome.all_outcomes(n)]
    index, sign = _frame(folds, 3 * n)
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


def evaluate_outcomes(
    psi: StateVector, params: CloneParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every forced outcome of one input in one batch, without calling run.

    Returns four arrays in BellOutcome.all_outcomes order: the outcome's
    probability, the corrected state's overlap |<target|final>|^2 with
    target_state, and the clone fidelities F_B and F_C, each what
    run(psi, params, outcome=...) reports, from the same input check,
    walk, lift and readout; no channel is built.
    """
    n = params.n
    psi = _checked_input(psi, n)
    rows, _, _ = _sender_walk(psi, n)
    probs, _, overlap, fidelity_b, fidelity_c = _readout(psi, params, rows, _pauli_frame(n))
    return probs, overlap, fidelity_b, fidelity_c


def sample_outcomes(
    psi: StateVector, params: CloneParams, num_samples: int, seed: int
) -> dict:
    """Counts of num_samples consecutive measure_senders draws from one default_rng(seed).

    The input passes run's check; no channel is built, since the draws
    depend on the walk's weights alone.
    """
    psi = _checked_input(psi, params.n)
    if num_samples < 0:
        raise ValueError(f"num_samples must be nonnegative, got {num_samples}")
    mode = _walk_mode(params.n, None, np.random.default_rng(seed), num_samples)
    _, elements, trials = _sender_walk(psi, params.n, **mode)
    digits = np.array(elements, dtype=np.intp).reshape(-1, params.n)  # (0, n) for no draws
    index = digits @ 4 ** np.arange(params.n - 1, -1, -1)  # BellOutcome.index
    counts = np.bincount(index[trials], minlength=4**params.n)
    return dict(zip(BellOutcome.all_outcomes(params.n), counts.tolist()))


def entanglement_cost_check(
    params: CloneParams,
    *,
    input_state: StateVector | None = None,
    outcome: BellOutcome | None = None,
) -> float:
    """Ebits the protocol delivers across the (reference | receivers) cut.

    Telecloning the n input qubits of a state whose other qubits are a
    reference no party touches.  The default input is the maximally
    entangled 2^(-n/2) sum_j |j>_A |j>_ref on n + n qubits; with it the
    final state carries exactly n ebits between the reference and the
    receiver side, for every p — which is why n ebits of channel
    entanglement are necessary.  A product input yields 0.  The run is
    forced to `outcome`, all-(PHI,+) by default; the count does not
    depend on it.  The input passes run's check, with the reference inside
    the qubit budget, and the corrected final state is run's (_final).
    """
    n = params.n
    if input_state is None:
        _check_budget(n, n)  # before the 2^(2n) amplitudes of the default reference
        amps = np.eye(params.d, dtype=complex).ravel() * 2.0 ** (-n / 2)  # sum_j |j>|j>
        input_state = StateVector._owned(amps, 2 * n)
    n_ref = input_state.num_qubits - n
    if n_ref < 1:
        raise ValueError("input must carry at least one reference qubit")
    psi = _checked_input(input_state, n, n_ref)
    if outcome is None:
        outcome = BellOutcome.all_phi_plus(n)
    rows, _, _ = _sender_walk(psi, n, **_walk_mode(n, outcome, None))
    m = n_ref + 3 * n  # (ref, B, C, anc); the plan acts past the reference
    frame = _frame([_fold(correction_plan(outcome), m, n_ref)], m)
    _, (final,) = _final(rows, params, frame)
    return entanglement_entropy(StateVector._owned(final, m), range(n_ref))
