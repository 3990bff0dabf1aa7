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
zero and the rest are scaled by the reciprocal of their norm.  A measured
pair is a product state, the measured basis state times one qubit, so
``z_branches`` returns each row's probability of outcome 0 and, for both
outcomes, only that qubit, without drawing.  A session's pairs are copies
of a few distinct rows, so the protocol measures those rows once and
draws each pair's bits from the resulting tables.  The test suite's
whole-stack draw-and-collapse is built on the same numbers.  All arithmetic
is double precision with 1e-12 tolerances: the gate set used here only
has entries in {0, ±1, ±1/√2}, so rounding error stays near machine
epsilon.  Global phase is never normalized away; comparisons that need it
are made up to phase by callers.
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

# Lifted, transposed 4x4 operators of gates already checked for unitarity,
# keyed by (target, shape, gate bytes).  Only unitary gates are stored, so a
# bad gate is re-checked and rejected on every call.
_LIFTED_CACHE: dict = {}
_LIFTED_CACHE_MAX = 64


def standard_gate(name: str) -> np.ndarray:
    """Return one of the named 2x2 unitaries (I, H, X, Y, Z, SPIN_FLIP)."""
    try:
        return _GATES[name.upper()].copy()
    except (AttributeError, KeyError):
        raise ValueError(
            f"unknown gate name {name!r}; expected one of {', '.join(GATE_NAMES)}"
        ) from None


def bell_batch(count: int) -> np.ndarray:
    """``count`` independent (|00> + |11>)/√2 pairs as a (count, 4) array."""
    return np.full((count, 4), [_SQRT_HALF, 0.0, 0.0, _SQRT_HALF], dtype=complex)


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


def z_branches(states, target: str):
    """Both outcomes of a Z measurement of the chosen qubit of every pair, without a draw.

    Returns ``(p_zero, rest, drawable)``:

    * ``p_zero``, shape (k,): each row's Born probability of outcome 0;
    * ``rest``, shape (k, 2, 2), indexed [row, outcome, other qubit's bit]:
      after the outcome a pair is the measured basis state times one qubit,
      and this is that qubit, its two amplitudes scaled by 1 / their norm;
    * ``drawable``, shape (k, 2): the outcome's norm exceeds ATOL.  Drawing
      an outcome that is not drawable is an error; its ``rest`` is left
      unscaled, so no undrawable branch divides by zero.

    A state that is not normalized, or holds a NaN or infinite amplitude,
    raises ValueError.  The probabilities add the four weights in the order
    ``sum(axis=1)`` adds a length-4 row, and the norm is
    ``sqrt(sq[k0] + sq[k1])`` over the kept indices k0 < k1: the four-term
    norm of the zero-padded projection with its two exact +0.0 terms left
    out, so bit for bit the same number.  The scaling multiplies the real
    and imaginary parts by ``1 / norm``, which is how numpy divides a
    complex number by ``norm + 0j``; only the sign of a kept zero part can
    differ from complex division, and no probability reads it.  Every step
    is elementwise, so a row's numbers do not depend on the other rows.
    """
    _require_target(target)
    states = np.asarray(states, dtype=complex)
    count = states.shape[0]
    weights = (np.abs(states) ** 2).T
    total = weights[0] + weights[1] + weights[2] + weights[3]
    # Written so that a NaN total fails the check too.
    if not (np.abs(total - 1.0) <= 1e-9).all():
        raise ValueError("state is not normalized")
    zero_a, zero_b = _ZERO_COMPONENTS[target]
    p_zero = weights[zero_a] + weights[zero_b]
    # The pairs as [row, Alice's bit, Bob's bit]; the outcome picks one
    # column (Bob measured) or one row (Alice measured) of each 2x2 block.
    blocks = states.reshape(count, 2, 2)
    rest = np.array(blocks.transpose(0, 2, 1) if target == BOB else blocks, order="C")
    squares = (rest.conj() * rest).real
    norms = np.sqrt(squares[..., 0] + squares[..., 1])
    drawable = norms > ATOL
    parts = rest.view(np.float64).reshape(count, 2, 4)
    parts *= (1.0 / np.where(drawable, norms, 1.0))[..., None]
    return p_zero, rest, drawable
