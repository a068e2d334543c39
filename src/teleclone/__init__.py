"""Exact simulation and verification of 1->2 asymmetric telecloning.

An unknown multiqubit state held by n senders is broadcast to two groups
of receivers through a pre-shared entangled channel, Bell measurements,
and local Pauli corrections, producing two asymmetric universal clones
(plus an ancilla) with closed-form fidelities.  The package simulates
the protocol exactly at desk scale, checks every closed-form quantity
against an independent numerical route, and extends the scheme to 1->4
telecloning of diagonal mixed states via purification.
"""

from .cloning import (
    CloneParams,
    clone_fidelities,
    clone_pair,
    cloner_basis_state,
    fidelity_curve,
    target_state,
)
from .entanglement import (
    DeltaSweepReport,
    SweepGrid,
    clone_concurrence,
    delta,
    eof_from_concurrence,
    input_entanglement,
    mu,
    physical_region,
    sweep_delta,
    wootters_concurrence,
)
from .mixed import (
    MixedInput,
    fidelity_bounds,
    mixed_clone_formula,
    mixed_fidelity,
    purify,
    sample_simplex,
    teleclone_mixed,
    trace_fidelities,
)
from .protocol import (
    BellOutcome,
    ChannelState,
    Correction,
    ImpossibleOutcomeError,
    ProtocolTranscript,
    attach_input,
    build_channel,
    correction_plan,
    entanglement_cost_check,
    evaluate_outcomes,
    measure_senders,
    sample_outcomes,
)
from .protocol import run as run_protocol
from .qstate import (
    IDENTITY,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    BellElement,
    DensityMatrix,
    StateVector,
    apply_local,
    bell_probabilities,
    entanglement_entropy,
    partial_trace,
    reduced_density,
    state_fidelity,
    tensor,
    uhlmann_fidelity,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "BellElement",
    "BellOutcome",
    "ChannelState",
    "CloneParams",
    "Correction",
    "DeltaSweepReport",
    "DensityMatrix",
    "IDENTITY",
    "ImpossibleOutcomeError",
    "MixedInput",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "ProtocolTranscript",
    "StateVector",
    "SweepGrid",
    "apply_local",
    "attach_input",
    "bell_probabilities",
    "build_channel",
    "clone_concurrence",
    "clone_fidelities",
    "clone_pair",
    "cloner_basis_state",
    "correction_plan",
    "delta",
    "entanglement_cost_check",
    "entanglement_entropy",
    "eof_from_concurrence",
    "evaluate_outcomes",
    "fidelity_bounds",
    "fidelity_curve",
    "input_entanglement",
    "measure_senders",
    "mixed_clone_formula",
    "mixed_fidelity",
    "mu",
    "partial_trace",
    "physical_region",
    "purify",
    "reduced_density",
    "run_protocol",
    "sample_outcomes",
    "sample_simplex",
    "state_fidelity",
    "sweep_delta",
    "target_state",
    "teleclone_mixed",
    "tensor",
    "trace_fidelities",
    "uhlmann_fidelity",
    "von_neumann_entropy",
    "wootters_concurrence",
]
