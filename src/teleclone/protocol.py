"""End-to-end LOCC telecloning of n-qubit pure states.

The senders share an entangled channel with the receivers, Bell-measure
their qubit pairs, broadcast 2n classical bits, and the receivers apply
local Pauli triples to land on the target superposition of cloning-machine
states — for every one of the 4^n (uniformly likely) outcomes.

The senders' Bell walk runs on the input and a label register K that
stands in for the receivers, psi (x) sum_k |k>_{A'}|k>_K; each label
|k>_K stands for 2^(-n/2) machine_state_k, which is nonzero on only
d + 2(d-1) of its d^3 amplitudes.  Every entry point passes one input
gate (_checked_input), and every walk row becomes its corrected final
state on the machine's support alone (_final): one product per term, its
position moved and signed by the outcome's Pauli frame.  run and
evaluate_outcomes read that out (_readout); run and
entanglement_cost_check scatter their one row into a dense state.  No
entry point builds the channel: the dense 5n-qubit route (build_channel,
attach_input, measure_senders, apply_corrections) stays only as the
stages the benchmark's traced replay looks up by name.

Register layouts (big-endian; ref is entanglement_cost_check's reference):
  channel      (A', B, C, anc)           4n qubits
  total state  (A, A', B, C, anc)        5n qubits, pairs (A_i, A'_i)
  walk         (A, ref, A', K)           n_ref + 3n qubits, pairs (A_i, A'_i)
  final state  (ref, B, C, anc)          n_ref + 3n qubits, each K label's machine output
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cloning import CloneParams, _machine_states, _machine_support, _machine_weights, target_state
from .qstate import (
    _BELL_ORDER,
    BellElement,
    StateVector,
    _bell_walk,
    _check_position,
    _check_register_size,
    entanglement_entropy,
    tensor,
)

#: tolerance below which a forced measurement outcome counts as impossible
IMPOSSIBLE_PROB = 1e-15


class ImpossibleOutcomeError(ValueError):
    """A projection was requested onto an outcome of (numerically) zero probability."""


@dataclass(frozen=True)
class BellOutcome:
    """Joint Bell-measurement result, one element per sender pair."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("outcome needs at least one element")
        for element in self.elements:
            if not isinstance(element, BellElement):
                raise ValueError(f"outcome element {element!r} is not a BellElement")

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
    """Join the input, checked as run checks it, with the channel: (A, A', B, C, anc)."""
    return tensor(_checked_input(psi, channel.params.n), channel.state)


def _walk_mode(n: int, outcome: BellOutcome | None, rng, trials: int = 1) -> dict:
    """The _bell_walk keyword of a forced `outcome` or of `trials` draws of a uniform per pair."""
    if (outcome is None) == (rng is None):
        raise ValueError("pass exactly one of outcome= (forced) or rng= (sampled)")
    if outcome is not None and outcome.num_pairs != n:
        raise ValueError("outcome length does not match the number of pairs")
    return {"outcome": outcome.elements} if rng is None else {"draws": rng.random((trials, n))}


def measure_senders(
    total: StateVector,
    params: CloneParams,
    *,
    outcome: BellOutcome | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[BellOutcome, StateVector, float]:
    """Bell-measure every sender pair (A_i, A'_i) of an attach_input state.

    Exactly one of `outcome` (forced) or `rng` (sampled, one draw per pair:
    _walk_mode) must be given.  Returns the joint outcome, the renormalized
    state on (B, C, anc) and its probability.  A forced outcome below
    IMPOSSIBLE_PROB leaves no state to renormalize: ImpossibleOutcomeError.
    """
    n = params.n
    if total.num_qubits != 5 * n:
        raise ValueError("total state was not built by attach_input")
    pairs = [(i, n + i) for i in range(n)]
    mode = _walk_mode(n, outcome, rng)
    (row,), (elements,), _ = _bell_walk(total.amplitudes, 5 * n, pairs, **mode)
    measured = BellOutcome(tuple(_BELL_ORDER[e] for e in elements))
    prob = float(np.vdot(row, row).real) / 2**n
    if prob < IMPOSSIBLE_PROB:
        raise ImpossibleOutcomeError(f"outcome {measured} has probability {prob:.3e}")
    row /= math.sqrt(prob * 2**n)
    return measured, StateVector._owned(row, 3 * n), prob


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


def _parity_signs(bits: np.ndarray) -> np.ndarray:
    """(-1)^popcount of every entry (below 2^32) as a float, by an XOR-fold."""
    for shift in (16, 8, 4, 2, 1):  # bit 0 ends as the parity of all 32 low bits
        bits = bits ^ (bits >> shift)
    return 1.0 - 2.0 * (bits & 1)


def apply_corrections(state: StateVector, plan) -> StateVector:
    """Apply a correction plan.

    The plan's Pauli frame (_fold) acts as one gather and one sign: exactly
    what the plan's one-qubit Paulis, applied in turn, give.  The frame
    takes the state to signs[i] * state[i ^ xmask] at every i, with
    signs[i] = sign * (-1)^popcount(i & zmask).
    """
    m = state.num_qubits
    xmask, zmask, sign = _fold(plan, m)
    positions = np.arange(1 << m, dtype=np.intp)
    signs = _parity_signs(positions & zmask) * sign
    return StateVector._owned(state.amplitudes[positions ^ xmask] * signs, m)


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
    n_ref + 3n; the rule stays until evaluate_outcomes' batch of 4^n x (d + 2d(d-1))
    support terms, 9 MiB traced at n=4 and 144 MiB at n=5, has a bound of its own)."""
    _check_register_size(n_ref + 5 * n)


def _checked_input(psi: StateVector, n: int, n_ref: int = 0) -> StateVector:
    """psi normalized, once its size (n + n_ref), qubit budget and norm are checked."""
    if psi.num_qubits != n + n_ref:
        raise ValueError(f"input register size does not match n={n}")
    _check_budget(n, n_ref)
    with np.errstate(over="ignore"):  # a norm past the float range is inf, refused below
        norm = psi.norm
    if not abs(norm - 1.0) <= 1e-6:  # NaN fails it too
        raise ValueError(f"input state norm {norm} is not 1 within 1e-6")
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


def _final(rows: np.ndarray, params: CloneParams, folds) -> tuple:
    """Outcome probability and corrected final state of each sender-walk row,
    on the machine's support: (probs, pos, vals), with row r's state
    sum_{ref, t} vals[r, ref, t] |ref, pos[r, t]> on (ref, B, C, anc).

    Term t of machine output j[t] (_machine_support) holds rows[r, (ref, j[t])]
    times its weight over sqrt(d), as build_channel rounds it.  Row r's fold
    (_fold; its masks clear of the reference) moves it to pos = index ^ xmask
    with the sign sign * (-1)^popcount(pos & zmask); the row is then
    normalized (its squared norm is 2^n times the probability).
    """
    d = params.d
    index, j = _machine_support(d)
    weights = _machine_weights(params, math.sqrt(d))
    vals = rows.reshape(len(rows), -1, d)[:, :, j] * weights
    norms = (vals.real**2 + vals.imag**2).sum(axis=(1, 2))
    xmask, zmask, sign = np.array(folds, dtype=np.intp).T
    pos = index ^ xmask[:, None]
    signs = _parity_signs(pos & zmask[:, None]) * (sign / np.sqrt(norms))[:, None]
    vals *= signs[:, None]  # the frame's signs, rows normalized, every reference alike
    return norms / 2**params.n, pos, vals


def _dense(pos: np.ndarray, vals: np.ndarray, num_qubits: int) -> StateVector:
    """One row of _final, sum_{ref, t} vals[ref, t] |ref, pos[t]>, made dense on num_qubits."""
    amps = np.zeros((len(vals), (1 << num_qubits) // len(vals)), dtype=complex)
    amps[:, pos] = vals
    return StateVector._owned(amps.reshape(-1), num_qubits)


def _contracted_norms(terms: np.ndarray, keys: np.ndarray, size: int) -> np.ndarray:
    """Per row, the squared norm of its terms summed into `size` bins by key."""
    keys = (keys + size * np.arange(len(keys))[:, None]).ravel()
    bins = len(terms) * size
    real = np.bincount(keys, terms.real.ravel(), bins)
    imag = np.bincount(keys, terms.imag.ravel(), bins)
    return (real**2 + imag**2).reshape(len(terms), size).sum(axis=1)


def _readout(psi: StateVector, params: CloneParams, rows: np.ndarray, folds) -> tuple:
    """Probability, support-sized final state (_final, no reference), target
    overlap, F_B and F_C of walk rows; F_B (F_C) is the squared norm of
    conj(psi) contracted into the B (C) axis of the (B, C, anc) final state,
    its terms summed on the (C, anc) ((B, anc)) positions they land on."""
    n, d = params.n, params.d
    probs, pos, vals = _final(rows, params, folds)
    final = vals[:, 0]  # no reference
    target = target_state(psi.amplitudes, params).amplitudes
    overlap = np.abs((target.conj()[pos] * final).sum(axis=1)) ** 2
    bra, low = psi.amplitudes.conj(), d - 1
    b = pos >> 2 * n  # pos is (B, C, anc), n bits each
    fidelity_b = _contracted_norms(final * bra[b], pos & (d * d - 1), d * d)  # on (C, anc)
    fidelity_c = _contracted_norms(final * bra[(pos >> n) & low], (b << n) | (pos & low), d * d)
    return probs, pos, vals, overlap, fidelity_b, fidelity_c


def run(
    psi: StateVector,
    params: CloneParams,
    *,
    outcome: BellOutcome | None = None,
    seed: int | None = None,
    channel: ChannelState | None = None,
) -> ProtocolTranscript:
    """Full telecloning round: sender walk, broadcast, correct, verify.

    Pass either a forced `outcome` (deterministic, for tests) or an
    explicit `seed` for sampled mode.  The measured row goes through the
    same readout as every row of evaluate_outcomes, and is then scattered
    into the dense final_state.  No channel is built;
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
    folds = [_fold(plan, 3 * params.n)]
    probs, pos, vals, overlap, fidelity_b, fidelity_c = _readout(psi, params, rows, folds)
    return ProtocolTranscript(
        params=params,
        outcome=measured,
        probability=float(probs[0]),
        classical_bits=measured.classical_bits(),
        corrections=plan,
        final_state=_dense(pos[0], vals[0], 3 * params.n),
        fidelity_b=float(fidelity_b[0]),
        fidelity_c=float(fidelity_c[0]),
        target_overlap=float(overlap[0]),
    )


@functools.cache
def _batch_folds(n: int) -> tuple:
    """The fold (_fold) of every outcome's correction plan, in all_outcomes order."""
    return tuple(_fold(correction_plan(o), 3 * n) for o in BellOutcome.all_outcomes(n))


def evaluate_outcomes(
    psi: StateVector, params: CloneParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every forced outcome of one input in one batch, without calling run.

    Returns four arrays in BellOutcome.all_outcomes order: the outcome's
    probability, the corrected state's overlap |<target|final>|^2 with
    target_state, and the clone fidelities F_B and F_C, each what
    run(psi, params, outcome=...) reports, from the same input check,
    walk and readout; no channel is built, and no row is made dense.
    """
    n = params.n
    psi = _checked_input(psi, n)
    rows, _, _ = _sender_walk(psi, n)
    probs, _, _, overlap, fidelity_b, fidelity_c = _readout(psi, params, rows, _batch_folds(n))
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
    the qubit budget, and the corrected final state is run's (_final),
    scattered with its reference axis.
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
    _, (pos,), (vals,) = _final(rows, params, [_fold(correction_plan(outcome), m, n_ref)])
    return entanglement_entropy(_dense(pos, vals, m), range(n_ref))
