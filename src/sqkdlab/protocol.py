"""Alice/Bob state machines for the authenticated semi-quantum key agreement.

One session runs over 2n Bell pairs prepared by Alice, who keeps the first
qubit of each pair and sends the second to Bob.  Two pre-shared master keys
drive the run: the operation key picks I or H per position (Alice applies
it to her half before sending, Bob applies the same choice on receipt;
Bob, the classical party, only ever needs I/H plus Z-basis measurement),
and the partition key splits the Z-measurement records into raw-key and
check positions.  The check bits are split again into their odd- and
even-position halves (1-based), and each party announces one half:

* original variant: Alice announces her even half, Bob his odd half, in
  the clear; each side compares the received half bit-wise against its own
  retained half and passes when the mismatch fraction is within ``tau``.
* improved variant: the same halves are announced only as keyed Toeplitz
  digests; the receiver recomputes the digest of its retained half and
  requires exact equality.

Announcements and flying qubits pass through adversary-tappable channels.
After a passing check both sides compress their raw keys into session keys
with the same publicly seeded privacy-amplification map.  A session is a
sequential state machine; distinct sessions share nothing and may run in
parallel with independent rng streams.
"""

import numbers
from dataclasses import dataclass

import numpy as np

from .bits import as_bits, random_bits, to01
from .hashing import MIN_HASH_KEY_BITS, _checked_hash_key, _digest_keys, _expand, _toeplitz_product
from .qsim import ALICE, BOB, apply_gate_batch, bell_batch, measure_z_batch, standard_gate

VARIANT_ORIGINAL = "original"
VARIANT_IMPROVED = "improved"
VARIANTS = (VARIANT_ORIGINAL, VARIANT_IMPROVED)

DONE_NOTICE = "measurements-complete"

DEFAULT_HASH_KEY_BITS = MIN_HASH_KEY_BITS
PA_SEED_BITS = 128

_HADAMARD = standard_gate("H")
_HADAMARD.flags.writeable = False

# Domain-separation bit prepended to hashed inputs: one pre-shared hash key
# serves both directions without letting a digest be replayed across them.
DIRECTION_EVEN = 0  # Alice -> Bob announcements (even halves)
DIRECTION_ODD = 1  # Bob -> Alice announcements (odd halves)


class ProtocolError(Exception):
    """A party observed a malformed protocol step (wrong counts or lengths)."""


@dataclass(frozen=True)
class MasterKeys:
    """Pre-shared secrets sized for a 2n-pair session.

    op_key selects I (0) or H (1) per position; partition_key sends a
    position to the raw key (0) or the check set (1); hash_key feeds the
    improved variant's keyed digests and needs at least MIN_HASH_KEY_BITS
    bits.  Construction validates every key, so a session trusts them.
    """

    op_key: np.ndarray
    partition_key: np.ndarray
    hash_key: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "op_key", as_bits(self.op_key))
        object.__setattr__(self, "partition_key", as_bits(self.partition_key))
        object.__setattr__(self, "hash_key", as_bits(self.hash_key))
        if len(self.op_key) != len(self.partition_key):
            raise ValueError("op_key and partition_key must have equal length")
        if len(self.op_key) == 0 or len(self.op_key) % 2:
            raise ValueError("master keys must have positive even length (2n bits)")
        if len(self.hash_key) < MIN_HASH_KEY_BITS:
            raise ValueError(f"hash_key: must be at least {MIN_HASH_KEY_BITS} bits, got {len(self.hash_key)}")


@dataclass(frozen=True)
class ProtocolParams:
    """Session configuration; a run uses 2n pairs.

    pa_out_len None means "auto": half the raw-key length, rounded down.
    tau only applies to the original variant's bit-wise comparison; the
    improved variant requires exact digest equality.
    """

    n: int
    variant: str = VARIANT_ORIGINAL
    tau: float = 0.0
    hash_out_len: int = 64
    pa_out_len: int | None = None

    def __post_init__(self):
        # Types before ranges: a bool would pass as 0/1 and a float would
        # fail deep inside numpy; both are rejected before any allocation.
        for name in ("n", "hash_out_len", "pa_out_len"):
            value = getattr(self, name)
            if name == "pa_out_len" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name}: must be an integer, got {value!r}")
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
            raise ValueError(f"tau: must be a real number, got {self.tau!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 <= self.tau < 1.0:
            raise ValueError("tau must satisfy 0 <= tau < 1")
        if self.hash_out_len < 1:
            raise ValueError("hash_out_len must be >= 1")
        if self.pa_out_len is not None and self.pa_out_len < 1:
            raise ValueError("pa_out_len must be >= 1 (or None for auto)")


@dataclass(frozen=True)
class Partition:
    """A measurement record split by the partition key, source order kept.

    check_odd / check_even hold the check bits at odd / even positions
    (1-based) of the check sequence; the index arrays record where each
    part came from so the split can be inverted exactly.
    """

    raw: np.ndarray
    check: np.ndarray
    check_odd: np.ndarray
    check_even: np.ndarray
    raw_indices: np.ndarray
    check_indices: np.ndarray

    @property
    def source_len(self) -> int:
        return len(self.raw) + len(self.check)

    def reassemble(self) -> np.ndarray:
        """Place raw and check bits back at their source indices."""
        out = np.zeros(self.source_len, dtype=np.uint8)
        out[self.raw_indices] = self.raw
        out[self.check_indices] = self.check
        return out


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one announce-and-compare exchange.

    The counters and arrays carry the names they have in a session
    transcript (SessionOutcome.to_dict).  For the original variant the
    counters count check bits, for the improved variant digest bits.
    """

    alice_pass: bool
    bob_pass: bool
    check_mismatches_alice: int
    check_mismatches_bob: int
    compared_bits_alice: int
    compared_bits_bob: int
    announced_by_alice: np.ndarray
    announced_by_bob: np.ndarray
    received_by_alice: np.ndarray
    received_by_bob: np.ndarray


@dataclass
class SessionOutcome:
    """Full transcript of one session.

    Raw keys are populated whenever Bob accepted the delivery (the
    partition happens before the check); session keys and pa_seed are
    present iff the session was not aborted.  ``check`` records the
    exchange; a session that aborted before it holds an empty one.
    vacuous_check flags sessions where some announced check half was
    empty, making that direction's comparison pass vacuously.
    """

    aborted: bool
    detected_by_alice: bool
    detected_by_bob: bool
    abort_reason: str | None
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    alice_raw_key: np.ndarray
    bob_raw_key: np.ndarray
    alice_session_key: np.ndarray | None
    bob_session_key: np.ndarray | None
    vacuous_check: bool
    check: CheckResult
    pa_seed: np.ndarray | None

    def to_dict(self) -> dict:
        """Flat JSON-able rendering: the session's fields and the check's
        record side by side (the check's verdicts show as detected_by_*);
        bit arrays become '0101' strings."""

        def render(value):
            if isinstance(value, np.ndarray):
                return to01(value)
            return value

        fields = {**vars(self), **vars(self.check)}
        return {name: render(v) for name, v in fields.items() if name not in ("check", "alice_pass", "bob_pass")}


@dataclass(frozen=True)
class SessionCounts:
    """What happened across a run of sessions, counted per session.

    matched / complemented compare the raw keys bit-wise (both hold when
    the keys are empty); mismatched_bits / compared_bits sum the check's
    counters over both parties.
    """

    sessions: int
    detected: int
    aborted: int
    matched: int
    complemented: int
    vacuous: int
    mismatched_bits: int
    compared_bits: int


def generate_master_keys(
    n: int,
    l_key: int = DEFAULT_HASH_KEY_BITS,
    rng: np.random.Generator | None = None,
    *,
    balanced_k2: bool = False,
) -> MasterKeys:
    """Sample fresh 2n-bit master keys plus an l_key-bit hash key.

    balanced_k2 forces exactly n raw and n check positions instead of
    sampling the partition key uniformly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if l_key < MIN_HASH_KEY_BITS:
        raise ValueError(f"l_key must be >= {MIN_HASH_KEY_BITS}")
    if rng is None:
        raise ValueError("an rng is required")
    op_key = random_bits(rng, 2 * n)
    if balanced_k2:
        partition_key = np.zeros(2 * n, dtype=np.uint8)
        partition_key[rng.permutation(2 * n)[:n]] = 1
    else:
        partition_key = random_bits(rng, 2 * n)
    hash_key = random_bits(rng, l_key)
    return MasterKeys(op_key, partition_key, hash_key)


def alice_prepare(keys: MasterKeys, n: int) -> np.ndarray:
    """Create 2n Bell pairs and apply I/H to Alice's qubit per the op key.

    Returns the (2n, 4) pair states; Bob's halves are queued for
    transmission in row order.  Preparation is deterministic given keys.
    """
    if len(keys.op_key) != 2 * n:
        raise ValueError(f"keys are sized for {len(keys.op_key) // 2} pairs, not n={n}")
    states = bell_batch(2 * n)
    return apply_gate_batch(states, _HADAMARD, ALICE, where=keys.op_key == 1)


def bob_receive_measure(keys: MasterKeys, delivered, rng: np.random.Generator):
    """Bob's turn: mirror Alice's I/H choice on each received qubit, Z-measure
    them all, and emit a done notice on the classical channel.

    Returns ``(bob_bits, post_states, DONE_NOTICE)``.  A wrong qubit count is
    a protocol error.
    """
    delivered = np.asarray(delivered, dtype=complex)
    expected = len(keys.op_key)
    if delivered.ndim != 2 or delivered.shape != (expected, 4):
        got = delivered.shape[0] if delivered.ndim == 2 else "malformed"
        raise ProtocolError(f"expected {expected} delivered qubits, got {got}")
    states = apply_gate_batch(delivered, _HADAMARD, BOB, where=keys.op_key == 1)
    outcomes, states = measure_z_batch(states, BOB, rng)
    return outcomes, states, DONE_NOTICE


def alice_measure(retained, rng: np.random.Generator):
    """Alice's turn (after Bob's done notice): Z-measure her halves.

    Returns ``(alice_bits, post_states)``.
    """
    return measure_z_batch(np.asarray(retained, dtype=complex), ALICE, rng)


def partition_measurements(measured, partition_key) -> Partition:
    """Split a measurement record into raw-key and check parts by the key.

    Position i goes to the raw key when the key bit is 0, to the check set
    when it is 1; the check set is then halved into 1-based odd and even
    positions.
    """
    m = as_bits(measured)
    k = as_bits(partition_key)
    if len(m) != len(k):
        raise ValueError(f"record has {len(m)} bits but partition key has {len(k)}")
    return _split(m, np.flatnonzero(k == 0), np.flatnonzero(k == 1))


def _split(m: np.ndarray, raw_indices: np.ndarray, check_indices: np.ndarray) -> Partition:
    """partition_measurements without the checks, for indices already taken from the key."""
    check = m[check_indices]
    return Partition(
        raw=m[raw_indices],
        check=check,
        check_odd=check[0::2],
        check_even=check[1::2],
        raw_indices=raw_indices,
        check_indices=check_indices,
    )


def _through(channel, announced: np.ndarray) -> np.ndarray:
    """What the receiver gets: a copy of the announcement, or the tap's output, validated."""
    if channel is None:
        return announced.copy()
    return as_bits(channel(announced))


def exchange_and_check_original(
    alice_part: Partition,
    bob_part: Partition,
    tau: float,
    channel=None,
) -> CheckResult:
    """Plain-bit exchange: Alice announces her even check half, Bob his odd
    half; each side compares the received half position-wise against its own
    retained half of the same parity.

    A side passes when its mismatch fraction is <= tau (vacuously when it
    compared zero bits).  ``channel`` is the classical tamper tap (bits ->
    bits), identity when None.  Announcement length mismatches abort.
    """
    if alice_part.source_len != bob_part.source_len:
        raise ValueError("partitions do not come from the same partition key")
    announced_by_alice = alice_part.check_even.copy()
    announced_by_bob = bob_part.check_odd.copy()
    received_by_bob = _through(channel, announced_by_alice)
    received_by_alice = _through(channel, announced_by_bob)
    if len(received_by_alice) != len(alice_part.check_odd):
        raise ProtocolError("announcement to Alice has the wrong length")
    if len(received_by_bob) != len(bob_part.check_even):
        raise ProtocolError("announcement to Bob has the wrong length")

    mism_alice = int(np.count_nonzero(received_by_alice != alice_part.check_odd))
    mism_bob = int(np.count_nonzero(received_by_bob != bob_part.check_even))
    compared_alice = len(alice_part.check_odd)
    compared_bob = len(bob_part.check_even)
    alice_pass = compared_alice == 0 or mism_alice / compared_alice <= tau
    bob_pass = compared_bob == 0 or mism_bob / compared_bob <= tau
    return CheckResult(
        alice_pass=alice_pass,
        bob_pass=bob_pass,
        check_mismatches_alice=mism_alice,
        check_mismatches_bob=mism_bob,
        compared_bits_alice=compared_alice,
        compared_bits_bob=compared_bob,
        announced_by_alice=announced_by_alice,
        announced_by_bob=announced_by_bob,
        received_by_alice=received_by_alice,
        received_by_bob=received_by_bob,
    )


def _tagged(direction: int, half: np.ndarray) -> np.ndarray:
    tagged = np.empty(len(half) + 1, dtype=np.uint8)
    tagged[0] = direction
    tagged[1:] = half
    return tagged


def exchange_and_check_improved(
    alice_part: Partition,
    bob_part: Partition,
    hash_key,
    digest_len: int,
    channel=None,
) -> CheckResult:
    """Digest exchange: each side announces only the keyed Toeplitz digest of
    its half (direction bit prepended for domain separation); the receiver
    recomputes the digest of its retained half and requires exact equality.

    The compared/mismatch counters refer to digest bits.  A received digest
    whose length differs from digest_len aborts.  Both directions' hash
    specs come from one expansion of the hash key.
    """
    if alice_part.source_len != bob_part.source_len:
        raise ValueError("partitions do not come from the same partition key")
    hash_key = _checked_hash_key(hash_key)
    if digest_len < 1:
        raise ValueError("digest_len must be >= 1")
    in_lens = (len(alice_part.check_even) + 1, len(alice_part.check_odd) + 1)
    (key_even, mask_even), (key_odd, mask_odd) = _digest_keys(hash_key, in_lens, digest_len)

    def digest(key, mask, direction, half):
        return _toeplitz_product(key, _tagged(direction, half)) ^ mask

    announced_by_alice = digest(key_even, mask_even, DIRECTION_EVEN, alice_part.check_even)
    announced_by_bob = digest(key_odd, mask_odd, DIRECTION_ODD, bob_part.check_odd)
    received_by_bob = _through(channel, announced_by_alice)
    received_by_alice = _through(channel, announced_by_bob)
    if len(received_by_alice) != digest_len or len(received_by_bob) != digest_len:
        raise ProtocolError("received digest has the wrong length")

    expected_by_alice = digest(key_odd, mask_odd, DIRECTION_ODD, alice_part.check_odd)
    expected_by_bob = digest(key_even, mask_even, DIRECTION_EVEN, bob_part.check_even)
    mism_alice = int(np.count_nonzero(received_by_alice != expected_by_alice))
    mism_bob = int(np.count_nonzero(received_by_bob != expected_by_bob))
    return CheckResult(
        alice_pass=mism_alice == 0,
        bob_pass=mism_bob == 0,
        check_mismatches_alice=mism_alice,
        check_mismatches_bob=mism_bob,
        compared_bits_alice=digest_len,
        compared_bits_bob=digest_len,
        announced_by_alice=announced_by_alice,
        announced_by_bob=announced_by_bob,
        received_by_alice=received_by_alice,
        received_by_bob=received_by_bob,
    )


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _empty_bits() -> np.ndarray:
    return np.zeros(0, dtype=np.uint8)


def run_session(
    params: ProtocolParams,
    adversary=None,
    seed=0,
    *,
    keys: MasterKeys | None = None,
    balanced_k2: bool = False,
) -> SessionOutcome:
    """Execute one full session through adversary-tappable channels.

    ``adversary`` is any object exposing ``tap_quantum_batch(states, rng)``
    and ``tap_classical(bits)`` (see adversary.AdversaryStrategy), or None
    for an honest channel.  ``seed`` may be an int, a SeedSequence, or a
    Generator; identical (params, adversary, seed, keys) inputs give a
    bit-identical SessionOutcome.  ``keys`` forces the master keys instead
    of sampling them from the session rng.

    Inputs are checked where they enter: ``params`` and ``keys`` on
    construction, the adversary's deliveries on receipt.  Everything else
    is an array the session built, so it calls the unchecked cores behind
    partition_measurements and the hashing helpers, partitions once for
    both parties and expands each key once.
    """
    rng = _as_rng(seed)
    if keys is None:
        keys = generate_master_keys(params.n, rng=rng, balanced_k2=balanced_k2)
    elif len(keys.op_key) != 2 * params.n:
        raise ValueError(f"forced keys are sized for {len(keys.op_key) // 2} pairs, not n={params.n}")

    pairs = alice_prepare(keys, params.n)
    if adversary is not None:
        pairs = adversary.tap_quantum_batch(pairs, rng)
    try:
        bob_bits, pairs, notice = bob_receive_measure(keys, pairs, rng)
    except ProtocolError as err:
        # Bob is the party that notices a malformed delivery; nothing was
        # measured, announced or compared.
        empty = _empty_bits()
        return SessionOutcome(
            aborted=True,
            detected_by_alice=False,
            detected_by_bob=True,
            abort_reason=str(err),
            alice_bits=empty,
            bob_bits=empty,
            alice_raw_key=empty,
            bob_raw_key=empty,
            alice_session_key=None,
            bob_session_key=None,
            vacuous_check=True,
            check=CheckResult(True, True, 0, 0, 0, 0, empty, empty, empty, empty),
            pa_seed=None,
        )
    assert notice == DONE_NOTICE  # Alice waits for Bob before measuring
    alice_bits, pairs = alice_measure(pairs, rng)

    # Both parties hold the same partition key, so one pass finds the indices.
    raw_indices = np.flatnonzero(keys.partition_key == 0)
    check_indices = np.flatnonzero(keys.partition_key == 1)
    part_alice = _split(alice_bits, raw_indices, check_indices)
    part_bob = _split(bob_bits, raw_indices, check_indices)
    vacuous = len(part_alice.check_odd) == 0 or len(part_alice.check_even) == 0

    tap = adversary.tap_classical if adversary is not None else None
    if params.variant == VARIANT_ORIGINAL:
        chk = exchange_and_check_original(part_alice, part_bob, params.tau, tap)
    else:
        chk = exchange_and_check_improved(part_alice, part_bob, keys.hash_key, params.hash_out_len, tap)

    detected_alice = not chk.alice_pass
    detected_bob = not chk.bob_pass
    aborted = detected_alice or detected_bob
    abort_reason = "check-mismatch" if aborted else None

    session_key_alice = session_key_bob = pa_seed = None
    if not aborted:
        pa_seed = random_bits(rng, PA_SEED_BITS)
        raw_len = len(part_alice.raw)
        out_len = raw_len // 2 if params.pa_out_len is None else params.pa_out_len
        if out_len > raw_len:
            # Both parties see the impossible compression request.
            aborted = detected_alice = detected_bob = True
            abort_reason = "pa-output-exceeds-raw-key"
            pa_seed = None
        elif out_len < 1:
            session_key_alice = _empty_bits()
            session_key_bob = _empty_bits()
        else:
            # privacy_amplify for both parties from one key expansion:
            # their raw keys have equal length (same partition key).
            pa_key = _expand(pa_seed, raw_len + out_len - 1).astype(np.int64)
            session_key_alice = _toeplitz_product(pa_key, part_alice.raw)
            session_key_bob = _toeplitz_product(pa_key, part_bob.raw)

    return SessionOutcome(
        aborted=aborted,
        detected_by_alice=detected_alice,
        detected_by_bob=detected_bob,
        abort_reason=abort_reason,
        alice_bits=alice_bits,
        bob_bits=bob_bits,
        alice_raw_key=part_alice.raw,
        bob_raw_key=part_bob.raw,
        alice_session_key=session_key_alice,
        bob_session_key=session_key_bob,
        vacuous_check=vacuous,
        check=chk,
        pa_seed=pa_seed,
    )


def count_sessions(params: ProtocolParams, adversary, seeds, balanced_k2: bool = False) -> SessionCounts:
    """Run one session per seed in ``seeds`` and count what happened.

    This is the package's one trial loop: run_batch and search_attacks
    differ only in the seeds they pass, so each keeps its own streams.
    """
    sessions = detected = aborted = matched = complemented = vacuous = mismatched = compared = 0
    for seed in seeds:
        outcome = run_session(params, adversary, seed=seed, balanced_k2=balanced_k2)
        sessions += 1
        detected += outcome.detected_by_alice or outcome.detected_by_bob
        aborted += outcome.aborted
        # Both raw keys come from one partition (equal lengths): match = all agree, complement = none does.
        agree = outcome.alice_raw_key == outcome.bob_raw_key
        matched += bool(agree.all())
        complemented += not agree.any()
        vacuous += outcome.vacuous_check
        check = outcome.check
        mismatched += check.check_mismatches_alice + check.check_mismatches_bob
        compared += check.compared_bits_alice + check.compared_bits_bob
    return SessionCounts(sessions, detected, aborted, matched, complemented, vacuous, mismatched, compared)
