"""Exact pure-state simulation of independent Bell pairs.

Every entangled pair lives in its own 4-amplitude complex vector indexed by
the computational basis states (00, 01, 10, 11); the first bit belongs to
Alice's qubit, the second to Bob's.  Pairs never interact, so a run over
many pairs is just a stack of independent 4-vectors, and the simulator
works on that stack: the ``*_batch`` functions operate on an ``(n, 4)``
array at once.  Single-pair forms (one 4-vector, one explicit 4x4 product
or one Born draw at a time) live in the test suite as reference oracles,
and the batch forms are asserted equal to looping them.

Gates are plain 2x2 complex unitaries and measurement follows the Born rule
with explicit collapse: the components the outcome rules out are set to
zero and the rest are scaled by the reciprocal of their norm.  All
arithmetic is double precision with 1e-12 tolerances: the gate set used
here only has entries in {0, ±1, ±1/√2}, so rounding error stays near
machine epsilon.  Global phase is never normalized away; comparisons that
need it are made up to phase by callers.
"""

import math

import numpy as np

ATOL = 1e-12

ALICE = "A"
BOB = "B"

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# SPIN_FLIP maps |0> -> -|1>, |1> -> |0>; it equals Pauli Y up to a global
# phase and sends |Φ+> to the singlet, whose halves disagree in every basis.
_GATES = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
    "SPIN_FLIP": np.array([[0, 1], [-1, 0]], dtype=complex),
}

GATE_NAMES = tuple(_GATES)

# Value of the measured qubit in each of the four basis components.
_COMPONENT_BIT = {
    ALICE: np.array([0, 0, 1, 1], dtype=np.uint8),
    BOB: np.array([0, 1, 0, 1], dtype=np.uint8),
}
# The two components where the measured qubit reads 0.
_ZERO_COMPONENTS = {target: tuple(np.flatnonzero(bits == 0).tolist()) for target, bits in _COMPONENT_BIT.items()}
# Row ``outcome`` marks the components a measurement with that outcome
# keeps; the other two collapse to zero.
_KEPT_BY_OUTCOME = {target: np.array([bits == 0, bits == 1]) for target, bits in _COMPONENT_BIT.items()}

# Lifted, transposed 4x4 operators of gates already checked for unitarity,
# keyed by (target, shape, gate bytes).  Only unitary gates are stored, so a
# bad gate is re-checked and rejected on every call.
_LIFTED_CACHE: dict = {}
_LIFTED_CACHE_MAX = 64


def standard_gate(name: str) -> np.ndarray:
    """Return one of the named 2x2 unitaries (I, H, X, Y, Z, SPIN_FLIP)."""
    try:
        return _GATES[name.upper()].copy()
    except KeyError:
        raise ValueError(
            f"unknown gate name {name!r}; expected one of {', '.join(GATE_NAMES)}"
        ) from None


def bell_phi_plus() -> np.ndarray:
    """The maximally entangled pair (|00> + |11>)/√2."""
    return np.array([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF], dtype=complex)


def bell_batch(count: int) -> np.ndarray:
    """``count`` independent (|00> + |11>)/√2 pairs as a (count, 4) array."""
    return np.full((count, 4), bell_phi_plus())


def is_unitary(gate) -> bool:
    g = np.asarray(gate, dtype=complex)
    if g.shape != (2, 2):
        return False
    return bool(np.all(np.abs(g.conj().T @ g - np.eye(2)) <= ATOL))


def _require_target(target: str) -> None:
    if target not in (ALICE, BOB):
        raise ValueError(f"qubit selector must be {ALICE!r} or {BOB!r}, got {target!r}")


def _lifted_transpose(gate, target: str) -> np.ndarray:
    """The gate lifted to the pair space on the chosen qubit (a 4x4 Kronecker
    product with the identity), transposed and memoized per (gate, target)."""
    g = np.asarray(gate, dtype=complex)
    key = (target, g.shape, g.tobytes())
    op_t = _LIFTED_CACHE.get(key)
    if op_t is None:
        if not is_unitary(g):
            raise ValueError("gate is not unitary (within 1e-12)")
        if len(_LIFTED_CACHE) >= _LIFTED_CACHE_MAX:
            _LIFTED_CACHE.clear()
        eye = np.eye(2, dtype=complex)
        op_t = (np.kron(g, eye) if target == ALICE else np.kron(eye, g)).T
        op_t.flags.writeable = False
        _LIFTED_CACHE[key] = op_t
    return op_t


def apply_gate_batch(states, gate, target: str, where=None) -> np.ndarray:
    """Apply one gate to the same qubit of many independent pairs.

    ``where`` optionally restricts the update to a boolean row mask (used to
    gate per-position on a key bit).  Returns a new (n, 4) array.
    """
    _require_target(target)
    op_t = _lifted_transpose(gate, target)
    states = np.asarray(states, dtype=complex)
    if where is None:
        return states @ op_t
    where = np.asarray(where)
    if where.dtype != bool or where.shape != states.shape[:1]:
        raise ValueError(f"where must be a boolean mask of {states.shape[0]} rows")
    # Every row goes through one product and the mask picks.  matmul rounds
    # each row of a many-row product alike, so the picked rows equal the
    # product of the gathered rows exactly; a single gathered row goes
    # through numpy's vector routine instead, which rounds differently.
    product = states @ op_t
    if np.count_nonzero(where) == 1:
        product[where] = states[where] @ op_t
    np.copyto(product, states, where=~where[:, None])
    return product


def measure_z_batch(states, target: str, rng: np.random.Generator):
    """Z-measure the chosen qubit of every pair: draw each outcome by the
    Born rule and collapse to the renormalized projection.

    Returns ``(outcomes, collapsed)`` with outcomes uint8 of shape (n,) and
    collapsed states (n, 4); components inconsistent with an outcome are
    exactly zero.  Consumes exactly n uniform draws, one per pair in row
    order, so the outcomes are a fixed function of the rng stream state.
    A state that is not normalized, or holds a NaN or infinite amplitude,
    is rejected before any draw.

    The collapse divides by the norm as a multiply by ``1 / norm`` on the
    real and imaginary parts, which is how numpy divides a complex number
    by ``norm + 0j``.  The two agree bit for bit, except that complex
    division can turn a kept ``-0.0`` part into ``+0.0``, depending on the
    sign of the amplitude's other part; no probability or outcome reads
    the sign of a zero.
    """
    _require_target(target)
    states = np.asarray(states, dtype=complex)
    # Explicit column sums, added in the order sum(axis=1) adds a length-4
    # row, so every probability and norm is bit-identical to that reduction.
    weights = (np.abs(states) ** 2).T
    total = weights[0] + weights[1] + weights[2] + weights[3]
    # Written so that a NaN total fails the check too.
    if not (np.abs(total - 1.0) <= 1e-9).all():
        raise ValueError("state is not normalized")
    zero_a, zero_b = _ZERO_COMPONENTS[target]
    p_zero = weights[zero_a] + weights[zero_b]
    outcomes = (rng.random(states.shape[0]) >= p_zero).astype(np.uint8)
    # take() gathers the (n, 4) mask several times faster than fancy
    # indexing or a broadcast comparison would build it.
    post = np.where(_KEPT_BY_OUTCOME[target].take(outcomes, axis=0), states, 0.0)
    # np.linalg.norm(post, axis=1), written out: sqrt of the summed (x.conj() * x).real.
    squares = (post.conj() * post).real.T
    norms = np.sqrt(squares[0] + squares[1] + squares[2] + squares[3])
    if (norms <= ATOL).any():
        raise RuntimeError("drew a measurement outcome of (numerically) zero probability")
    # post /= norms[:, None], without the complex division loop.
    parts = post.view(np.float64).reshape(len(post), 8)
    parts *= (1.0 / norms)[:, None]
    return outcomes, post
