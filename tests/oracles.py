"""Reference forms the engine is tested against.

The package works on whole batches: every pair of a session in one
``(n, 4)`` array, every Toeplitz product as a sliding correlation with no
matrix.  The forms here do the same work the slow, obvious way (one pair
state, one explicit 4x4 product, one Born draw, one materialized matrix at
a time) and the equivalence tests assert that the engine equals them.
"""

from typing import NamedTuple

import numpy as np

from sqkdlab.adversary import QUANTUM_GATE_ALL, QUANTUM_INTERCEPT_RESEND_Z, AdversaryStrategy
from sqkdlab.hashing import ToeplitzSpec
from sqkdlab.qsim import ALICE, ATOL, BOB, is_unitary, standard_gate

# Value of the measured qubit in each of the four basis components.
_COMPONENT_BIT = {
    ALICE: np.array([0, 0, 1, 1], dtype=np.uint8),
    BOB: np.array([0, 1, 0, 1], dtype=np.uint8),
}


class MeasurementRecord(NamedTuple):
    outcome: int
    post_state: np.ndarray


def _require_target(target: str) -> None:
    if target not in (ALICE, BOB):
        raise ValueError(f"qubit selector must be {ALICE!r} or {BOB!r}, got {target!r}")


def apply_gate(state, gate, target: str) -> np.ndarray:
    """Apply a single-qubit unitary to one qubit of a pair state: the 4x4 lift times the state."""
    _require_target(target)
    if not is_unitary(gate):
        raise ValueError("gate is not unitary (within 1e-12)")
    gate = np.asarray(gate, dtype=complex)
    eye = np.eye(2, dtype=complex)
    lifted = np.kron(gate, eye) if target == ALICE else np.kron(eye, gate)
    return lifted @ np.asarray(state, dtype=complex)


def born_probability_zero(state, target: str) -> float:
    """Born-rule probability of outcome 0 on the chosen qubit."""
    _require_target(target)
    weights = np.abs(np.asarray(state)) ** 2
    return float(weights[_COMPONENT_BIT[target] == 0].sum())


def measure_z(state, target: str, rng: np.random.Generator) -> MeasurementRecord:
    """Z-measure one qubit: one uniform draw decides the outcome, then collapse and renormalize."""
    _require_target(target)
    state = np.asarray(state, dtype=complex)
    weights = np.abs(state) ** 2
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("state is not normalized")
    p_zero = float(weights[_COMPONENT_BIT[target] == 0].sum())
    outcome = 0 if rng.random() < p_zero else 1
    post = np.where(_COMPONENT_BIT[target] == outcome, state, 0.0)
    norm = np.linalg.norm(post)
    if norm <= ATOL:
        raise RuntimeError("drew a measurement outcome of (numerically) zero probability")
    return MeasurementRecord(outcome, post / norm)


def tap_quantum(strategy: AdversaryStrategy, state, rng: np.random.Generator) -> np.ndarray:
    """``strategy.tap_quantum_batch`` for one flying qubit (the Bob half of one pair state)."""
    if strategy.quantum == QUANTUM_GATE_ALL:
        return apply_gate(state, standard_gate(strategy.gate), BOB)
    if strategy.quantum == QUANTUM_INTERCEPT_RESEND_Z:
        return measure_z(state, BOB, rng).post_state
    return np.asarray(state, dtype=complex)


def toeplitz_matrix(spec: ToeplitzSpec) -> np.ndarray:
    """Materialize the out_len x in_len matrix (row i, column j = key[out_len-1+j-i])."""
    rows = np.arange(spec.out_len)[:, None]
    cols = np.arange(spec.in_len)[None, :]
    return spec.key_bits[spec.out_len - 1 + cols - rows]
