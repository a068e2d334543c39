"""Dense state-vector and density-matrix primitives for qubit registers.

Convention used throughout the package: qubit 0 is the *most significant*
bit of a basis label, so |q0 q1 ... q_{m-1}> sits at integer index
q0*2^(m-1) + q1*2^(m-2) + ... + q_{m-1}.  Registers listed first in a
tensor product therefore occupy the high bits.

All operations are pure: they return new values and never mutate their
inputs.  States and density matrices are safe to share across threads.
"""

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# 2^20 complex doubles = 16 MiB per state; everything here is desk-scale.
MAX_QUBITS = 20

IDENTITY = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: eigenvalues below this are treated as exact zeros in entropy sums
ENTROPY_EIG_FLOOR = 1e-12


def _check_position(position: int, num_qubits: int) -> None:
    if not 0 <= position < num_qubits:
        raise ValueError(
            f"qubit position {position} out of range for {num_qubits} qubits"
        )


def _check_register_size(num_qubits: int) -> None:
    """Reject a register size outside [0, MAX_QUBITS] before it is allocated."""
    if not 0 <= num_qubits <= MAX_QUBITS:
        raise ValueError(f"register size {num_qubits} is outside the {MAX_QUBITS}-qubit limit")


def _num_qubits_for(length: int) -> int:
    m = max(length.bit_length() - 1, 0)
    if length != 1 << m:
        raise ValueError(f"amplitude count {length} is not a power of two")
    return m


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over an ordered register of qubits."""

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self):
        _check_register_size(self.num_qubits)
        self._freeze(np.array(self.amplitudes, dtype=complex))

    def _freeze(self, amps: np.ndarray) -> None:
        if amps.ndim != 1:
            raise ValueError("amplitudes must be one-dimensional")
        if amps.size != 1 << self.num_qubits:
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got {amps.size}"
            )
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def _owned(cls, amps: np.ndarray, num_qubits: int) -> "StateVector":
        """Wrap a complex array the package has just allocated, without a copy.

        The same checks as the public constructor, which copies instead.
        The array is frozen in place, so the caller must hold no other
        writable reference to it.
        """
        _check_register_size(num_qubits)
        state = object.__new__(cls)
        object.__setattr__(state, "num_qubits", num_qubits)
        state._freeze(np.asarray(amps, dtype=complex))
        return state

    @classmethod
    def from_amplitudes(cls, amplitudes, normalize: bool = False) -> "StateVector":
        amps = np.asarray(amplitudes, dtype=complex)
        m = _num_qubits_for(amps.size)
        if normalize:
            norm = np.linalg.norm(amps)
            if norm < 1e-12:
                raise ValueError("cannot normalize a zero vector")
            amps = amps / norm
        return cls(amps, m)

    @classmethod
    def basis(cls, index: int, num_qubits: int) -> "StateVector":
        """Computational basis state |index> on the given register size."""
        dim = 1 << num_qubits
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(dim, dtype=complex)
        amps[index] = 1.0
        return cls(amps, num_qubits)

    @classmethod
    def random(cls, num_qubits: int, rng: np.random.Generator) -> "StateVector":
        """Normalized state with i.i.d. complex-Gaussian amplitudes."""
        dim = 1 << num_qubits
        amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return cls(amps / np.linalg.norm(amps), num_qubits)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        return StateVector(self.amplitudes / self.norm, self.num_qubits)

    def overlap(self, other: "StateVector") -> complex:
        """Inner product <self|other>."""
        if self.num_qubits != other.num_qubits:
            raise ValueError("register size mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity_with(self, other: "StateVector") -> float:
        """|<self|other>|^2 — the phase-insensitive equality measure."""
        return abs(self.overlap(other)) ** 2

    def _tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape([2] * self.num_qubits)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on a qubit register."""

    entries: np.ndarray
    num_qubits: int

    def __post_init__(self):
        mat = np.array(self.entries, dtype=complex)
        self._freeze(mat)
        if np.linalg.eigvalsh(mat).min() < -1e-9:
            raise ValueError("density matrix has an eigenvalue below -1e-9")

    def _freeze(self, mat: np.ndarray) -> None:
        dim = 1 << self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {mat.shape}")
        # written so that a NaN or inf entry (inf - inf = NaN) fails it too
        with np.errstate(invalid="ignore"):
            asymmetry = np.abs(mat - mat.conj().T).max()
        if not asymmetry <= 1e-9:
            raise ValueError("density matrix is not Hermitian within 1e-9")
        trace = mat.trace()
        if abs(trace - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {trace} differs from 1 beyond 1e-9")
        mat.flags.writeable = False
        object.__setattr__(self, "entries", mat)

    @classmethod
    def _gram(cls, mat: np.ndarray, num_qubits: int) -> "DensityMatrix":
        """The density matrix mat mat^dagger, without a copy or eigvalsh.

        A Gram matrix is positive semidefinite by construction, so only
        the shape, Hermitian and trace checks of the public constructor
        run; the result is a fresh array, frozen in place.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "num_qubits", num_qubits)
        rho._freeze(np.asarray(mat @ mat.conj().T, dtype=complex))
        return rho

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        amps = state.amplitudes
        return cls(np.outer(amps, amps.conj()), state.num_qubits)


class BellElement(Enum):
    """One of the four maximally entangled two-qubit basis states.

    PHI elements live on |00>,|11>, PSI elements on |01>,|10>; the sign is
    the relative phase ("parity") between the two kets.
    """

    PHI_PLUS = ("PHI", 1)
    PHI_MINUS = ("PHI", -1)
    PSI_PLUS = ("PSI", 1)
    PSI_MINUS = ("PSI", -1)

    @property
    def kind(self) -> str:
        return self.value[0]

    @property
    def sign(self) -> int:
        return self.value[1]

    @property
    def label(self) -> str:
        return self.kind + ("+" if self.sign > 0 else "-")

    def tensor(self) -> np.ndarray:
        """Amplitudes as a 2x2 tensor T[a, b] over the pair's basis values."""
        t = np.zeros((2, 2), dtype=complex)
        if self.kind == "PHI":
            t[0, 0] = 1.0
            t[1, 1] = self.sign
        else:
            t[0, 1] = 1.0
            t[1, 0] = self.sign
        return t / math.sqrt(2)

    @classmethod
    def parse(cls, label: str) -> "BellElement":
        for element in cls:
            if element.label == label.strip().upper():
                return element
        raise ValueError(f"unknown Bell element {label!r}; expected PHI+/PHI-/PSI+/PSI-")


#: PHI+, PHI-, PSI+, PSI-: outcome enumeration and sampling order
_BELL_ORDER = tuple(BellElement)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; `a`'s register occupies the high bits of the result."""
    _check_register_size(a.num_qubits + b.num_qubits)
    amps = np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1)  # = np.kron for vectors
    return StateVector._owned(amps, a.num_qubits + b.num_qubits)


def apply_local(state: StateVector, op: np.ndarray, target: int) -> StateVector:
    """Apply a one-qubit operator to the target qubit, identity elsewhere.

    One matmul on the (2^target, 2, 2^(m - target - 1)) view of the
    amplitudes, whose middle axis is the target; its result is a new array.
    """
    _check_position(target, state.num_qubits)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError("operator must be a 2x2 matrix")
    m = state.num_qubits
    view = state.amplitudes.reshape(1 << target, 2, 1 << (m - target - 1))
    return StateVector._owned(np.matmul(op, view).reshape(-1), m)


def _bell_sums(view: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, 2, 2) block norms |b_ab|^2 and (rows, 2) cross terms 2 Re<b00, b11>, 2 Re<b01, b10>.

    Two batched reductions of the float64 view of a walk step's
    (rows, 2, 2, rest) view, whose leading axes are the pair's a_i and a_j,
    with no copy and no per-row loop; the cross terms are the real overlaps
    of the a_i = 0 blocks with their partners (a_j reversed).
    """
    f = view.view(np.float64)
    norms = np.einsum("rabx,rabx->rab", f, f)
    cross = 2 * np.einsum("rbx,rbx->rb", f[:, 0], f[:, 1, ::-1])
    return norms, cross


def _weights_from_sums(norms, cross) -> tuple:
    """|b00 +/- b11|^2, then |b01 +/- b10|^2: twice each Bell weight, PHI+ to PSI-.

    From one row's _bell_sums as nested Python floats, or from every row's
    at once, transposed so that each weight comes out as a column.
    """
    (n00, n01), (n10, n11) = norms
    return n00 + n11 + cross[0], n00 + n11 - cross[0], n01 + n10 + cross[1], n01 + n10 - cross[1]


def _bell_weights(view: np.ndarray) -> np.ndarray:
    """(rows, 4) _weights_from_sums of every row of a walk step's (rows, 2, 2, rest) view."""
    norms, cross = _bell_sums(view)
    return np.stack(_weights_from_sums(norms.transpose(1, 2, 0), cross.T), axis=1)


def _bell_walk(amps: np.ndarray, num_qubits: int, pairs, *, outcome=None, draws=None):
    """Bell-measure qubit pairs, in order; positions refer to the original register.

    Forced (`outcome`, a BellElement per pair) keeps the named branch; sampled
    (`draws`, (trials, pairs) uniforms) keeps, per trial, the first element in
    BellElement order whose cumulative conditional probability exceeds its
    draw, weighed by _bell_weights (one trial, the draw of every seeded
    round, is finished in Python floats from _bell_sums, with the same rule
    and the same bounds); with neither, all 4^k branches, in
    BellOutcome.all_outcomes order.  The register is reordered once, every
    pair's a_i and a_j first, in walk order, then the other qubits in their
    order, so each step measures the leading pair of its (rows, 2, 2, rest)
    view, whose [:, a, b] is the (a_i, a_j) = ab block b_ab.  Only kept
    branches are formed, each once.  Returns the rows (sqrt(2)^k times the
    projected state: squared norm / 2^k is the joint probability), each row's
    k element indices (a tuple per row) and, if sampled, each trial's row;
    rows are kept in ascending (previous row, element) order.
    """
    positions = [q for pair in pairs for q in pair]
    for q in positions:
        _check_position(q, num_qubits)
    if len(set(positions)) != len(positions):
        raise ValueError("pair positions must be distinct")
    order = positions + [q for q in range(num_qubits) if q not in positions]
    rows, elements = amps.reshape([2] * num_qubits).transpose(order).reshape(1, -1), [()]
    trials = np.zeros(0 if draws is None else len(draws), dtype=np.intp)
    for step in range(len(pairs)):
        view = rows.reshape(len(rows), 2, 2, rows.shape[1] // 4)  # no -1: rows may be empty
        if outcome is not None:
            keys = [_BELL_ORDER.index(outcome[step])]
        elif draws is not None and len(draws) == 1:
            # a one-trial walk has one row: finish it in Python floats, with
            # the rule and the bounds (summed in the same order) of many trials
            norms, cross = _bell_sums(view)
            weights = _weights_from_sums(norms.tolist()[0], cross.tolist()[0])
            *bounds, total = itertools.accumulate(max(w, 0.0) for w in weights)
            draw = float(draws[0, step])
            keys = [sum(draw >= bound / total for bound in bounds)]
        elif draws is not None:
            weights = np.maximum(_bell_weights(view), 0.0)  # no roundoff below 0
            cumulative = weights.cumsum(1) / weights.sum(1)[:, None]
            # the first element whose cumulative probability exceeds the draw
            # is the count of the first three at or below it (they ascend)
            code, draw = 4 * trials, draws[:, step]
            for bound in cumulative.T[:3]:
                code += draw >= bound.take(trials)
            # group the trials by kept (row, element) key without a sort: the
            # keys ascend, and a trial's new row is the rank of its key
            seen = np.bincount(code, minlength=4 * len(rows)).astype(bool)
            keys, trials = seen.nonzero()[0].tolist(), (seen.cumsum() - 1).take(code)
        else:
            keys = range(4 * len(rows))
        blocks = [view[:, a, b] for a in (0, 1) for b in (0, 1)]  # b00, b01, b10, b11
        branches = np.empty((len(keys),) + blocks[0].shape[1:], dtype=complex)
        for branch, key in zip(branches, keys):
            row, e = divmod(key, 4)  # PHI+/-: b00 +/- b11; PSI+/-: b01 +/- b10
            combine = np.subtract if e % 2 else np.add
            combine(blocks[e // 2][row], blocks[3 - e // 2][row], out=branch)
        del view, blocks  # the last views of the previous rows: free them first
        elements = [elements[key // 4] + (key % 4,) for key in keys]
        rows = branches
    return rows, elements, trials


def bell_probabilities(state: StateVector, pair: tuple[int, int]) -> dict:
    """Probabilities of all four Bell outcomes on a qubit pair (sums to 1)."""
    rows, _, _ = _bell_walk(state.amplitudes, state.num_qubits, [pair])
    probs = (np.abs(rows) ** 2).sum(axis=1) / 2
    return dict(zip(BellElement, probs.tolist()))


def _split_keep(num_qubits: int, keep) -> tuple[list, list]:
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    for k in keep:
        _check_position(k, num_qubits)
    rest = [i for i in range(num_qubits) if i not in keep]
    return keep, rest


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in `keep` (kept qubits keep their order)."""
    keep, rest = _split_keep(rho.num_qubits, keep)
    if not rest:
        return rho
    m = rho.num_qubits
    perm = keep + rest
    t = rho.entries.reshape([2] * (2 * m))
    t = t.transpose(perm + [m + ax for ax in perm])
    k_dim, r_dim = 1 << len(keep), 1 << len(rest)
    t = t.reshape(k_dim, r_dim, k_dim, r_dim)
    return DensityMatrix(np.einsum("abcb->ac", t), len(keep))


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state on the kept qubits."""
    keep, rest = _split_keep(state.num_qubits, keep)
    mat = state._tensor_view().transpose(keep + rest).reshape(1 << len(keep), -1)
    return DensityMatrix._gram(mat, len(keep))


def _entropy_from_eigs(eigs: np.ndarray) -> float:
    eigs = eigs[eigs > ENTROPY_EIG_FLOOR]
    return float(-(eigs * np.log2(eigs)).sum()) if eigs.size else 0.0


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy -sum(lam * log2(lam)) in ebits, with 0*log(0) := 0."""
    return _entropy_from_eigs(np.linalg.eigvalsh(rho.entries))


def entanglement_entropy(state: StateVector, subsystem) -> float:
    """Entropy of the reduced state on `subsystem`, via singular values.

    Equivalent to von_neumann_entropy(reduced_density(...)) but avoids
    forming the density matrix, so it scales to large complements.
    """
    keep, rest = _split_keep(state.num_qubits, subsystem)
    if not rest:
        return 0.0
    mat = state._tensor_view().transpose(keep + rest).reshape(1 << len(keep), -1)
    singular = np.linalg.svd(mat, compute_uv=False)
    return _entropy_from_eigs(singular**2)


def _sqrt_spectrum(eigvals: np.ndarray, what: str) -> np.ndarray:
    # sqrt amplifies eigenvalue noise (sqrt(1e-16) = 1e-8), so anything
    # within the 1e-12 noise floor is treated as an exact zero; genuinely
    # negative spectra are invalid inputs
    if eigvals.min() < -1e-12:
        raise ValueError(f"{what} is not PSD: eigenvalue {eigvals.min():.3e}")
    return np.sqrt(np.where(eigvals < ENTROPY_EIG_FLOOR, 0.0, eigvals))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix via eigendecomposition."""
    eigvals, eigvecs = np.linalg.eigh(mat)
    roots = _sqrt_spectrum(eigvals, "matrix")
    return (eigvecs * roots) @ eigvecs.conj().T


def uhlmann_fidelity(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Mixed-state fidelity [Tr sqrt(sqrt(rho1) rho2 sqrt(rho1))]^2 in [0, 1]."""
    if rho1.num_qubits != rho2.num_qubits:
        raise ValueError("density matrices have different dimensions")
    root = _psd_sqrt(rho1.entries)
    inner = root @ rho2.entries @ root
    inner = (inner + inner.conj().T) / 2
    roots = _sqrt_spectrum(np.linalg.eigvalsh(inner), "fidelity kernel")
    value = float(roots.sum() ** 2)
    return min(max(value, 0.0), 1.0)


def state_fidelity(psi: StateVector, rho: DensityMatrix) -> float:
    """Pure-vs-mixed fidelity <psi|rho|psi>."""
    if psi.num_qubits != rho.num_qubits:
        raise ValueError("state and density matrix have different dimensions")
    amps = psi.amplitudes
    return float(np.real(amps.conj() @ rho.entries @ amps))
