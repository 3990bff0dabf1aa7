"""Reference forms the engine is tested against.

The package works on whole batches and on the few distinct states a
session holds: a session's pairs are measured as class rows and drawn
from per-class tables, every Toeplitz product is one blocked product with
no full matrix.  The forms here do the same work the slow, obvious way
(every pair state of a session in one ``(2n, 4)`` array, one pair state,
one explicit 4x4 product, one Born draw, one materialized matrix, one
session's draws one call at a time) and the equivalence tests assert that
the engine equals them.
``measure_z_batch`` is not a slow form: it draws and collapses a whole
stack on ``qsim.z_branches`` numbers, so the tests that measure a stack
through it check the engine's arithmetic.
"""

import hashlib
from typing import NamedTuple

import numpy as np

from sqkdlab.adversary import CLASSICAL_FLIP_ALL, QUANTUM_GATE_ALL, QUANTUM_INTERCEPT_RESEND_Z, AdversaryStrategy
from sqkdlab.bits import as_bits, random_bits, to01
from sqkdlab.hashing import privacy_amplify
from sqkdlab.protocol import MIN_HASH_KEY_BITS, PA_SEED_BITS, VARIANT_ORIGINAL
from sqkdlab.qsim import ALICE, ATOL, BOB, apply_gate_batch, bell_batch, is_unitary, standard_gate, z_branches

# Value of the measured qubit in each of the four basis components.
_COMPONENT_BIT = {
    ALICE: np.array([0, 0, 1, 1], dtype=np.uint8),
    BOB: np.array([0, 1, 0, 1], dtype=np.uint8),
}
# Row ``outcome`` marks the components a measurement with that outcome keeps.
_KEPT_BY_OUTCOME = {target: np.array([bits == 0, bits == 1]) for target, bits in _COMPONENT_BIT.items()}


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


def measure_z_batch(states, target: str, rng: np.random.Generator):
    """Z-measure the chosen qubit of every pair: draw each outcome by the
    Born rule and collapse to the renormalized projection.

    Returns ``(outcomes, collapsed)`` with outcomes uint8 of shape (n,) and
    collapsed states (n, 4); components inconsistent with an outcome are
    exactly zero.  Consumes exactly n uniform draws, one per pair in row
    order, so the outcomes are a fixed function of the rng stream state.
    The numbers are those of ``z_branches``: a state it rejects is rejected
    before any draw, and a drawn outcome it marks undrawable raises
    RuntimeError.
    """
    p_zero, rest, drawable = z_branches(states, target)
    count = len(p_zero)
    outcomes = (rng.random(count) >= p_zero).astype(np.uint8)
    rows = np.arange(count)
    if not drawable[rows, outcomes].all():
        raise RuntimeError("drew a measurement outcome of (numerically) zero probability")
    collapsed = np.zeros((count, 2, 2), dtype=complex)
    if target == BOB:
        collapsed[rows, :, outcomes] = rest[rows, outcomes]
    else:
        collapsed[rows, outcomes, :] = rest[rows, outcomes]
    return outcomes, collapsed.reshape(count, 4)


def measure_z_collapse(states, target: str, rng: np.random.Generator):
    """``measure_z_batch`` over all four amplitudes: zero the components
    the outcome rules out, then scale the whole row by 1 / its four-term norm."""
    _require_target(target)
    states = np.asarray(states, dtype=complex)
    weights = (np.abs(states) ** 2).T
    total = weights[0] + weights[1] + weights[2] + weights[3]
    if not (np.abs(total - 1.0) <= 1e-9).all():
        raise ValueError("state is not normalized")
    zero_a, zero_b = np.flatnonzero(_COMPONENT_BIT[target] == 0)
    outcomes = (rng.random(states.shape[0]) >= weights[zero_a] + weights[zero_b]).astype(np.uint8)
    post = np.where(_KEPT_BY_OUTCOME[target].take(outcomes, axis=0), states, 0.0)
    squares = (post.conj() * post).real.T
    norms = np.sqrt(squares[0] + squares[1] + squares[2] + squares[3])
    if (norms <= ATOL).any():
        raise RuntimeError("drew a measurement outcome of (numerically) zero probability")
    parts = post.view(np.float64).reshape(len(post), 8)
    parts *= (1.0 / norms)[:, None]
    return outcomes, post


def measure_qubits_z(qubits, rng: np.random.Generator) -> np.ndarray:
    """Z-measure a stack of single qubits, one Born draw per row on ``abs(q0) ** 2``.

    ``qubits`` is an (m, 2) array of amplitudes (|0>, |1>).  Returns the
    uint8 outcomes.  A qubit that is not normalized, or holds a NaN or
    infinite amplitude, is rejected before any draw.
    """
    qubits = np.asarray(qubits, dtype=complex)
    if qubits.ndim != 2 or qubits.shape[1] != 2:
        raise ValueError(f"qubits must be an (m, 2) array, got shape {qubits.shape}")
    weights = (np.abs(qubits) ** 2).T
    if not (np.abs(weights[0] + weights[1] - 1.0) <= 1e-9).all():
        raise ValueError("state is not normalized")
    return (rng.random(qubits.shape[0]) >= weights[0]).astype(np.uint8)


def gate_where(states, gate, target: str, op_key) -> np.ndarray:
    """The gate on the chosen qubit of every pair whose op bit is 1, the rest
    as they are: one product over every row, picked with ``np.where``."""
    states = np.asarray(states, dtype=complex)
    return np.where((np.asarray(op_key) == 1)[:, None], apply_gate_batch(states, gate, target), states)


def bob_gated(op_key, delivered) -> np.ndarray:
    """What Bob measures: the delivered pairs with his H where the op bit is 1."""
    return gate_where(delivered, standard_gate("H"), BOB, op_key)


def measure_session(op_key, delivered, rng: np.random.Generator):
    """Bob's and then Alice's measurement of a session, on whole pair states:
    Bob's H where the op bit is 1, a four-term collapse of Bob's qubit, then
    one of Alice's.  Returns ``(bob_bits, alice_bits)``."""
    bob_bits, states = measure_z_collapse(bob_gated(op_key, delivered), BOB, rng)
    alice_bits, _ = measure_z_collapse(states, ALICE, rng)
    return bob_bits, alice_bits


def prepare(op_key) -> np.ndarray:
    """The prepared pairs the direct way: a fresh Bell batch, H on Alice's qubit where the op bit is 1."""
    return gate_where(bell_batch(len(op_key)), standard_gate("H"), ALICE, op_key)


def tap_quantum_batch(strategy: AdversaryStrategy, states, rng: np.random.Generator) -> np.ndarray:
    """The strategy's quantum tap on every pair state of a session, in row order:
    one batch gate, or a four-term collapse of every flying qubit."""
    if strategy.quantum == QUANTUM_GATE_ALL:
        return apply_gate_batch(states, standard_gate(strategy.gate), BOB)
    if strategy.quantum == QUANTUM_INTERCEPT_RESEND_Z:
        return measure_z_collapse(states, BOB, rng)[1]
    return np.asarray(states, dtype=complex)


def tap_quantum(strategy: AdversaryStrategy, state, rng: np.random.Generator) -> np.ndarray:
    """``tap_quantum_batch`` for one flying qubit (the Bob half of one pair state)."""
    if strategy.quantum == QUANTUM_GATE_ALL:
        return apply_gate(state, standard_gate(strategy.gate), BOB)
    if strategy.quantum == QUANTUM_INTERCEPT_RESEND_Z:
        return measure_z(state, BOB, rng).post_state
    return np.asarray(state, dtype=complex)


def toeplitz_matrix(key_bits, in_len: int, out_len: int) -> np.ndarray:
    """Materialize the out_len x in_len matrix (row i, column j = key[out_len-1+j-i])."""
    rows = np.arange(out_len)[:, None]
    cols = np.arange(in_len)[None, :]
    return np.asarray(key_bits)[out_len - 1 + cols - rows]


def expand(seed, count: int) -> np.ndarray:
    """``hashing._expand`` from its definition, one Python bit at a time:
    block i is SHA-256 of the seed's bit count (8 bytes, big-endian), the
    seed's bits packed first bit highest and the last byte zero-padded, and
    i (8 bytes, big-endian); the stream is the blocks' bits, highest bit of
    each byte first, cut to ``count``."""
    bits = "".join(str(int(bit)) for bit in seed)
    packed = bytes(int(bits[i : i + 8].ljust(8, "0"), 2) for i in range(0, len(bits), 8))
    stream = ""
    for counter in range(-(-count // 256)):
        block = hashlib.sha256(len(bits).to_bytes(8, "big") + packed + counter.to_bytes(8, "big")).digest()
        stream += "".join(f"{byte:08b}" for byte in block)
    return np.array([int(bit) for bit in stream[:count]], dtype=np.uint8)


def reference_digest(hash_key, tagged, digest_len: int) -> np.ndarray:
    """The keyed digest of ``tagged``: the hash key expanded for this one input
    length, split into matrix key and mask, and the materialized matrix."""
    tagged = as_bits(tagged)
    split = len(tagged) + digest_len - 1
    stream = expand(hash_key, split + digest_len)
    matrix = toeplitz_matrix(stream[:split], len(tagged), digest_len).astype(np.int64)
    return ((matrix @ tagged.astype(np.int64)) % 2).astype(np.uint8) ^ stream[split:]


def session_transcript(params, tap, seed, keys=None) -> dict:
    """One session's transcript (``SessionOutcome.to_dict()`` with the
    session keys), each draw its own call: the master keys (three
    random_bits draws, or balanced_k2's draw, permutation and draw), then
    the tap's draws, then Bob's and Alice's uniforms, then the PA seed, only
    if the session was not aborted.

    ``tap`` is None or an AdversaryStrategy; ``seed`` is whatever
    run_session takes, and a Generator ends where these calls
    leave it.  The pairs are whole ``(2n, 4)`` states, the partition a list
    of positions, and each digest a materialized matrix.
    """
    rng = np.random.default_rng(seed)
    size = 2 * params.n
    if keys is not None:
        op_key, partition_key, hash_key = keys.op_key, keys.partition_key, keys.hash_key
    elif params.balanced_k2:
        op_key = random_bits(rng, size)
        partition_key = np.zeros(size, dtype=np.uint8)
        partition_key[rng.permutation(size)[: params.n]] = 1
        hash_key = random_bits(rng, MIN_HASH_KEY_BITS)
    else:
        op_key, partition_key, hash_key = (random_bits(rng, bits) for bits in (size, size, MIN_HASH_KEY_BITS))
    empty = np.zeros(0, dtype=np.uint8)
    record = dict(
        aborted=True, detected_by_alice=False, detected_by_bob=False, abort_reason=None,
        alice_bits=empty, bob_bits=empty, alice_raw_key=empty, bob_raw_key=empty,
        alice_session_key=None, bob_session_key=None, vacuous_check=False, pa_seed=None,
        check_mismatches_alice=0, check_mismatches_bob=0, compared_bits_alice=0, compared_bits_bob=0,
        announced_by_alice=empty, announced_by_bob=empty, received_by_alice=empty, received_by_bob=empty,
    )  # fmt: skip

    def rendered():
        return {name: to01(value) if isinstance(value, np.ndarray) else value for name, value in record.items()}

    delivered = prepare(op_key)
    if tap is not None:
        delivered = tap_quantum_batch(tap, delivered, rng)
    bob_bits, alice_bits = measure_session(op_key, delivered, rng)
    raw = [i for i in range(size) if partition_key[i] == 0]
    check = [i for i in range(size) if partition_key[i] == 1]
    record.update(
        alice_bits=alice_bits, bob_bits=bob_bits, alice_raw_key=alice_bits[raw], bob_raw_key=bob_bits[raw]
    )
    record["vacuous_check"] = len(check) < 2
    alice_check, bob_check = alice_bits[check], bob_bits[check]

    # Alice announces her even half (1-based), Bob his odd half.
    if params.variant == VARIANT_ORIGINAL:
        tau = params.tau

        def encode(half, direction):
            return half
    else:
        tau = 0.0

        def encode(half, direction):
            return reference_digest(hash_key, [direction, *half], params.hash_bits)

    announced_by_alice, announced_by_bob = encode(alice_check[1::2], 0), encode(bob_check[0::2], 1)
    expected_by_alice, expected_by_bob = encode(alice_check[0::2], 1), encode(bob_check[1::2], 0)
    # The classical tap complements every announced bit (flip_all) or passes it on.
    flip = int(tap is not None and tap.classical == CLASSICAL_FLIP_ALL)
    received_by_bob = as_bits([bit ^ flip for bit in announced_by_alice])
    received_by_alice = as_bits([bit ^ flip for bit in announced_by_bob])
    mismatches_alice = sum(int(a != b) for a, b in zip(received_by_alice, expected_by_alice))
    mismatches_bob = sum(int(a != b) for a, b in zip(received_by_bob, expected_by_bob))
    detected_alice = len(expected_by_alice) > 0 and mismatches_alice / len(expected_by_alice) > tau
    detected_bob = len(expected_by_bob) > 0 and mismatches_bob / len(expected_by_bob) > tau
    record.update(
        aborted=detected_alice or detected_bob,
        detected_by_alice=detected_alice,
        detected_by_bob=detected_bob,
        abort_reason="check-mismatch" if detected_alice or detected_bob else None,
        check_mismatches_alice=mismatches_alice,
        check_mismatches_bob=mismatches_bob,
        compared_bits_alice=len(expected_by_alice),
        compared_bits_bob=len(expected_by_bob),
        announced_by_alice=announced_by_alice,
        announced_by_bob=announced_by_bob,
        received_by_alice=received_by_alice,
        received_by_bob=received_by_bob,
    )
    if record["aborted"]:
        return rendered()
    pa_seed = random_bits(rng, PA_SEED_BITS)
    pa_bits = len(raw) // 2 if params.pa_bits is None else params.pa_bits
    if pa_bits > len(raw):
        record.update(aborted=True, abort_reason="pa-output-exceeds-raw-key")
        return rendered()
    keys_out = [empty, empty]
    if pa_bits:
        keys_out = [privacy_amplify(record[name], pa_seed, pa_bits) for name in ("alice_raw_key", "bob_raw_key")]
    record.update(aborted=False, pa_seed=pa_seed, alice_session_key=keys_out[0], bob_session_key=keys_out[1])
    return rendered()
