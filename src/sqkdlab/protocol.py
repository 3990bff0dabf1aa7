"""Alice/Bob state machines for the authenticated semi-quantum key agreement.

One session runs over 2n Bell pairs prepared by Alice, who keeps the first
qubit of each pair and sends the second to Bob.  Two pre-shared master keys
drive the run: the operation key picks I or H per position (Alice applies
it to her half before sending, Bob applies the same choice on receipt;
Bob, the classical party, only ever needs I/H plus Z-basis measurement),
and the partition key splits the Z-measurement records into raw-key and
check positions.  The check bits are split again into their odd- and
even-position halves (1-based), and the two variants run one
announce-and-compare exchange: Alice announces an encoding of her even
half, Bob of his odd half, and each side compares what it receives
against the same encoding of its own retained half.  The variant picks
only the encoding and how much mismatch passes:

* original variant: the halves themselves, in the clear; a side passes
  when its mismatch fraction is within ``tau``.
* improved variant: a keyed Toeplitz digest of each half; a side passes
  only on exact digest equality.

Each variant is one entry of ``_EXCHANGES``: its encoder, which maps the
four check halves to what is announced and expected for each, and its
tau.  The improved variant's encoder hashes all four halves in one
Toeplitz product.

Announcements and flying qubits pass through adversary-tappable channels.
A strategy's tap treats each flying qubit alike, so a session's pairs are
copies of at most four distinct states: the channel's class rows are
measured once (``_compile``), and each session draws its pairs' bits from
the resulting per-class tables.  A duck-typed tap's delivery is measured
the same way with one class per pair.

After a passing check both sides compress their raw keys into session keys
with the same publicly seeded privacy-amplification map.  A session draws
the map's seed and decides whether the map can run; the keys themselves
are derived when a reader first asks for them (``SessionOutcome``), so a
batch, which counts outcomes and never reads session keys, runs no
privacy amplification.  A session is a sequential state machine; distinct
sessions share nothing and may run in parallel with independent rng
streams.
"""

import functools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bits import _check_size, _random_bit_runs, as_bits, random_bits, to01
from .hashing import _digest_keys, _expand, _toeplitz_product
from .qsim import ALICE, BOB, apply_gate_batch, bell_batch, standard_gate, z_branches

VARIANT_ORIGINAL = "original"
VARIANT_IMPROVED = "improved"
VARIANTS = (VARIANT_ORIGINAL, VARIANT_IMPROVED)

MIN_HASH_KEY_BITS = 128
DEFAULT_HASH_KEY_BITS = MIN_HASH_KEY_BITS
PA_SEED_BITS = 128
MAX_SEED = 2**64 - 1  # a run's master seed is an unsigned 64-bit integer
# Size caps, checked before anything is allocated.  A session's quantum
# stage holds a few arrays of 2n draws or labels, at most 8 bytes an entry,
# so MAX_N = 2**20 caps each at 16 MiB; a duck-typed tap is handed 2n pair
# states of 64 bytes each, 128 MiB at MAX_N, and returns as many.  The
# improved variant expands the hash key to about n + 2 * hash_bits bits,
# one byte each, so MAX_HASH_BITS = 2**16 adds at most 128 KiB to it.  A
# run's trial count and the PA output length allocate nothing that grows
# with them (sessions run one at a time; a PA output longer than the raw
# key aborts), so they have no cap.
MAX_N = 2**20
MAX_HASH_BITS = 2**16

_HADAMARD = standard_gate("H")
_HADAMARD.flags.writeable = False

# Every pair starts as the same Bell row, so a prepared pair is one of two
# constant rows, indexed by its op bit: that row as it is (0) or with H on
# Alice's qubit (1).  The batch gate computes both, so every prepared row
# has the bytes that gating a fresh Bell batch gives it.  They are the
# class rows a tap starts from; a duck-typed tap is handed them gathered by
# op bit, the (2n, 4) states of every pair Alice sends.
_PREPARED_ROWS = apply_gate_batch(bell_batch(2), _HADAMARD, ALICE, where=np.array([False, True]))
_PREPARED_ROWS.flags.writeable = False

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
        size = len(self.op_key)
        if size == 0 or size % 2:
            raise ValueError(f"op_key: must have positive even length (2n bits), got {size}")
        if len(self.partition_key) != size:
            got = len(self.partition_key)
            raise ValueError(f"partition_key: must have equal length to op_key ({size} bits), got {got}")
        hash_key = as_bits(self.hash_key)
        if len(hash_key) < MIN_HASH_KEY_BITS:
            raise ValueError(f"hash_key: must be at least {MIN_HASH_KEY_BITS} bits, got {len(hash_key)}")
        object.__setattr__(self, "hash_key", hash_key)

    @classmethod
    def _drawn(cls, op_key: np.ndarray, partition_key: np.ndarray, hash_key: np.ndarray) -> "MasterKeys":
        """Keys from fresh, correctly sized uint8 0/1 arrays, stored as they are, without the checks."""
        keys = object.__new__(cls)
        object.__setattr__(keys, "op_key", op_key)
        object.__setattr__(keys, "partition_key", partition_key)
        object.__setattr__(keys, "hash_key", hash_key)
        return keys


@dataclass(frozen=True)
class ProtocolParams:
    """Session configuration, the one check of every entry point's session
    values; a run uses 2n pairs.

    Integers are any ``numbers.Integral`` but bool, stored as int; tau is
    any ``numbers.Real`` but bool, stored as float, so every accepted value
    renders to JSON.  pa_bits None means "auto": half the raw-key length,
    rounded down.  tau only applies to the original variant's bit-wise
    comparison.  balanced_k2 forces exactly n raw and n check positions.
    """

    n: int
    variant: str = VARIANT_ORIGINAL
    tau: float = 0.0
    hash_bits: int = 64
    pa_bits: int | None = None
    balanced_k2: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _check_size("n", self.n, MAX_N))
        if self.variant not in VARIANTS:
            raise ValueError(f"variant: must be one of {VARIANTS}, got {self.variant!r}")
        if isinstance(self.tau, bool) or not isinstance(self.tau, numbers.Real):
            raise ValueError(f"tau: must be a real number, got {self.tau!r}")
        object.__setattr__(self, "tau", float(self.tau))
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau: must satisfy 0 <= tau < 1, got {self.tau}")
        object.__setattr__(self, "hash_bits", _check_size("hash_bits", self.hash_bits, MAX_HASH_BITS))
        if self.pa_bits is not None:
            object.__setattr__(self, "pa_bits", _check_size("pa_bits", self.pa_bits))
        if not isinstance(self.balanced_k2, (bool, np.bool_)):
            raise ValueError(f"balanced_k2: must be a bool, got {self.balanced_k2!r}")
        object.__setattr__(self, "balanced_k2", bool(self.balanced_k2))


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

    The session keys are derived from the raw keys, pa_seed and the
    session's resolved output length (``_pa_bits``, kept out of the
    rendering) on their first read, both in one Toeplitz product, and
    cached; reading them again, or reading them before ``to_dict()``,
    changes nothing.
    """

    aborted: bool
    detected_by_alice: bool
    detected_by_bob: bool
    abort_reason: str | None
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    alice_raw_key: np.ndarray
    bob_raw_key: np.ndarray
    vacuous_check: bool
    check: CheckResult
    pa_seed: np.ndarray | None
    _pa_bits: int = 0

    # Transcript fields in rendering order, the derived session keys included.
    _RENDERED = (
        "aborted",
        "detected_by_alice",
        "detected_by_bob",
        "abort_reason",
        "alice_bits",
        "bob_bits",
        "alice_raw_key",
        "bob_raw_key",
        "alice_session_key",
        "bob_session_key",
        "vacuous_check",
        "pa_seed",
    )

    @functools.cached_property
    def _session_keys(self) -> tuple:
        """(Alice's, Bob's) privacy-amplified keys, or (None, None) for an aborted session.

        Both raw keys have the same length (one partition key), so one
        expansion of pa_seed and one product over the stacked raw keys
        serve both parties, as privacy_amplify would for each.
        """
        if self.pa_seed is None:
            return None, None
        if self._pa_bits < 1:
            return _empty_bits(), _empty_bits()
        pa_key = _expand(self.pa_seed, len(self.alice_raw_key) + self._pa_bits - 1)
        alice, bob = _toeplitz_product(pa_key, np.stack((self.alice_raw_key, self.bob_raw_key)))
        return alice, bob

    @property
    def alice_session_key(self) -> np.ndarray | None:
        return self._session_keys[0]

    @property
    def bob_session_key(self) -> np.ndarray | None:
        return self._session_keys[1]

    def to_dict(self) -> dict:
        """Flat JSON-able rendering: the session's fields and the check's
        record side by side (the check's verdicts show as detected_by_*);
        bit arrays become '0101' strings."""

        def render(value):
            if isinstance(value, np.ndarray):
                return to01(value)
            return value

        fields = {name: getattr(self, name) for name in self._RENDERED}
        fields.update(vars(self.check))
        return {name: render(v) for name, v in fields.items() if name not in ("alice_pass", "bob_pass")}


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
    sampling the partition key uniformly.  n and l_key are checked before
    any draw; l_key is capped at 2 * MAX_N, the longest op key a session
    holds.
    """
    n = _check_size("n", n, MAX_N)
    l_key = _check_size("l_key", l_key, 2 * MAX_N, low=MIN_HASH_KEY_BITS)
    if rng is None:
        raise ValueError("rng: required")
    if balanced_k2:
        op_key = random_bits(rng, 2 * n)
        partition_key = np.zeros(2 * n, dtype=np.uint8)
        partition_key[rng.permutation(2 * n)[:n]] = 1
        hash_key = random_bits(rng, l_key)
    else:
        # Three successive random_bits draws, from one raw read where it can.
        op_key, partition_key, hash_key = _random_bit_runs(rng, (2 * n, 2 * n, l_key))
    # Freshly drawn 0/1 arrays of the right lengths: nothing to re-check or copy.
    return MasterKeys._drawn(op_key, partition_key, hash_key)


def _tables(rows, ops):
    """Bob's and Alice's Born tables for pairs Bob receives in one of ``rows``.

    ``ops`` holds each row's op bit.  Bob applies H to a row whose op bit
    is 1, Z-measures his qubit, and Alice then Z-measures hers; the numbers
    are those ``qsim.z_branches`` gives.  Bob's gate is one product over
    every row, so each gated row has the bytes a many-row product gives it
    (numpy rounds a lone row differently).  Returns ``(p_bob, p_alice,
    drawable)``: ``p_bob[c]`` is the probability Bob reads 0 on class c,
    ``p_alice[2 * c + b]`` the probability Alice reads 0 once Bob read b,
    and ``drawable[2 * c + b]`` whether Bob's outcome b on class c has a
    nonzero probability, or None when every outcome does.  After a
    drawable outcome Alice's qubit is normalized, so her draw needs no
    check.  A row that is not normalized raises ValueError.
    """
    gated = np.where((ops == 1)[:, None], apply_gate_batch(rows, _HADAMARD, BOB), rows)
    p_bob, rest, drawable = z_branches(gated, BOB)
    p_alice = np.abs(rest[..., 0]) ** 2
    return p_bob, p_alice.ravel(), None if drawable.all() else drawable.ravel()


class _Channel(NamedTuple):
    """An adversary compiled for the quantum stage.

    A strategy's tap maps the two prepared rows to at most four rows Bob
    can receive, so its ``tables`` (``_tables``) serve every session, and
    ``p_eve`` is the probability Eve reads 0 per op bit when she measures
    (None otherwise).  A duck-typed tap exposes only ``tap_quantum_batch``,
    which is kept as ``tap_quantum`` and measured anew on every delivery
    (``tables`` None).  ``tap_classical`` is the classical tap, None for
    the honest channel.
    """

    tap_quantum: object
    p_eve: np.ndarray | None
    tables: tuple | None
    tap_classical: object


_HONEST = _Channel(None, None, _tables(_PREPARED_ROWS, np.array([0, 1])), None)


def _compile(adversary) -> _Channel:
    """The channel of ``adversary``: None is the honest channel, a compiled
    channel is itself, a strategy (which has ``_tap_classes``) is compiled
    from its tap on the prepared rows, and any other object is a duck-typed
    tap."""
    if isinstance(adversary, _Channel):
        return adversary
    if adversary is None:
        return _HONEST
    tap_classes = getattr(adversary, "_tap_classes", None)
    if tap_classes is None:
        return _Channel(adversary.tap_quantum_batch, None, None, adversary.tap_classical)
    p_eve, rows = tap_classes(_PREPARED_ROWS)
    # Rows come op bit first: (op 0, op 1), or (op, Eve's bit) in order.
    ops = np.repeat(np.array([0, 1]), len(rows) // 2)
    return _Channel(None, p_eve, _tables(rows, ops), adversary.tap_classical)


def _received(delivered, expected: int) -> np.ndarray:
    """A duck-typed tap's delivery, decided once.

    A wrong qubit count is something an adversary can cause (by dropping
    qubits), so it is a ProtocolError and the session aborts, detected by
    Bob.  A NaN or infinite amplitude is not a state any channel can
    deliver, only a fault in the tap that produced it, so it raises
    ValueError (``state is not normalized``) before Bob's gate and before
    any draw, as an unnormalized delivery does when its tables are built.
    """
    delivered = np.asarray(delivered, dtype=complex)
    if delivered.ndim != 2 or delivered.shape != (expected, 4):
        got = delivered.shape[0] if delivered.ndim == 2 else "malformed"
        raise ProtocolError(f"expected {expected} delivered qubits, got {got}")
    if not np.isfinite(delivered).all():
        raise ValueError("delivered state is not normalized: it holds a NaN or infinite amplitude")
    return delivered


def _quantum_stage(channel: _Channel, op_key: np.ndarray, rng: np.random.Generator):
    """Bob's and then Alice's Z measurements of one session: ``(bob_bits, alice_bits)``.

    Each pair gets a class label: its op bit, ``2 * op + e`` once Eve read e
    (intercept-resend), or its own row of what a duck-typed tap delivers
    when handed every prepared pair.
    Bob's bits are then one uniform draw per pair against his class's
    probability of reading 0, and Alice's one more against hers given
    Bob's bit: the draws, in the order and with the numbers of measuring
    every pair state, so the bits are the same.  A drawn outcome of zero
    probability raises RuntimeError.
    """
    if channel.tap_quantum is None:
        tables, labels = channel.tables, op_key
        if channel.p_eve is not None:
            labels = 2 * op_key + (rng.random(len(op_key)) >= channel.p_eve[op_key])
    else:
        delivered = _received(channel.tap_quantum(_PREPARED_ROWS.take(op_key, axis=0), rng), len(op_key))
        tables, labels = _tables(delivered, op_key), np.arange(len(op_key))
    p_bob, p_alice, drawable = tables
    bob = rng.random(len(labels)) >= p_bob[labels]
    picked = 2 * labels + bob
    if drawable is not None and not drawable[picked].all():
        raise RuntimeError("drew a measurement outcome of (numerically) zero probability")
    alice = rng.random(len(labels)) >= p_alice[picked]
    return bob.view(np.uint8), alice.view(np.uint8)


# Direction of each of the four check halves an encoder maps, in the order
# (Alice's even, Bob's odd, Alice's odd, Bob's even): what Alice announces,
# what Bob announces, what Alice expects, what Bob expects.
_HALF_DIRECTIONS = (DIRECTION_EVEN, DIRECTION_ODD, DIRECTION_ODD, DIRECTION_EVEN)


def _plain_halves(halves, hash_key, hash_bits) -> list:
    """The original variant's encoding: each check half as itself."""
    return [half.copy() for half in halves]


def _digest_halves(halves, hash_key, hash_bits) -> list:
    """The improved variant's encoding: the hash_bits-bit keyed Toeplitz
    digest of each half with its direction bit prepended.

    Both directions' matrix keys are prefixes of one key stream, so the
    four tagged halves, zero-padded to the longer one, go through one
    product against the longest key; only the masks differ by direction.
    """
    even_len, odd_len = len(halves[0]), len(halves[1])
    key, masks = _digest_keys(hash_key, (even_len + 1, odd_len + 1), hash_bits)
    tagged = np.zeros((4, max(even_len, odd_len) + 1))
    tagged[:, 0] = _HALF_DIRECTIONS
    for row, half in enumerate(halves):
        tagged[row, 1 : 1 + len(half)] = half
    digests = _toeplitz_product(key, tagged)
    # masks is indexed by direction: DIRECTION_EVEN (0) hashes even halves, DIRECTION_ODD (1) odd ones.
    return [digest ^ masks[direction] for digest, direction in zip(digests, _HALF_DIRECTIONS)]


# Each variant's exchange: its encoder, the mismatch fraction a side passes
# at (None: the session's tau), and what an announcement is called in the
# wrong-length error.  A digest of >= 1 bit passes at tau = 0 exactly when
# every bit matches.
_EXCHANGES = {
    VARIANT_ORIGINAL: (_plain_halves, None, "check half"),
    VARIANT_IMPROVED: (_digest_halves, 0.0, "digest"),
}


def _exchange(alice_check, bob_check, variant: str, channel, tau: float, hash_key, hash_bits: int) -> CheckResult:
    """The one announce-and-compare exchange, without input checks; the
    variants differ only in their ``_EXCHANGES`` entry.

    ``alice_check`` and ``bob_check`` are the two check sequences, cut with
    one partition key.  Each splits into its odd half (1-based positions,
    ``[0::2]``) and even half (``[1::2]``).  Alice announces the encoding of
    her even half, Bob of his odd half, each through ``channel`` (the
    classical tamper tap, identity when None).  Each side compares what it
    receives against the encoding of its own retained half of the same
    parity and passes when it compared nothing or its mismatch fraction is
    <= tau (the variant's own tau when it has one).  A received
    announcement of the wrong length aborts.
    """
    encode, fixed_tau, what = _EXCHANGES[variant]
    if fixed_tau is not None:
        tau = fixed_tau
    halves = (alice_check[1::2], bob_check[0::2], alice_check[0::2], bob_check[1::2])
    announced_by_alice, announced_by_bob, expected_by_alice, expected_by_bob = encode(halves, hash_key, hash_bits)
    if channel is None:
        received_by_bob, received_by_alice = announced_by_alice.copy(), announced_by_bob.copy()
    else:
        received_by_bob, received_by_alice = as_bits(channel(announced_by_alice)), as_bits(channel(announced_by_bob))
    if len(received_by_alice) != len(expected_by_alice) or len(received_by_bob) != len(expected_by_bob):
        raise ProtocolError(f"received {what} has the wrong length")

    mism_alice = int(np.count_nonzero(received_by_alice != expected_by_alice))
    mism_bob = int(np.count_nonzero(received_by_bob != expected_by_bob))
    compared_alice, compared_bob = len(expected_by_alice), len(expected_by_bob)
    return CheckResult(
        alice_pass=compared_alice == 0 or mism_alice / compared_alice <= tau,
        bob_pass=compared_bob == 0 or mism_bob / compared_bob <= tau,
        check_mismatches_alice=mism_alice,
        check_mismatches_bob=mism_bob,
        compared_bits_alice=compared_alice,
        compared_bits_bob=compared_bob,
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
) -> SessionOutcome:
    """Execute one full session through adversary-tappable channels.

    ``adversary`` is None for an honest channel, an
    adversary.AdversaryStrategy, any object exposing
    ``tap_quantum_batch(states, rng)`` and ``tap_classical(bits)``, or a
    channel ``count_sessions`` compiled from one of these.  ``seed`` may be an int, a SeedSequence, or
    a Generator; identical (params, adversary, seed, keys) inputs give a
    bit-identical SessionOutcome.  ``keys`` forces the master keys instead
    of sampling them from the session rng.

    Inputs are checked where they enter: ``params`` and ``keys`` on
    construction (and the keys' size here), the adversary's deliveries on
    receipt.  Everything else is an array the session built, so it calls
    the unchecked cores.  The quantum stage draws each pair's bits from
    the channel's class tables (``_quantum_stage``).  The session finds the
    partition key's raw and check positions once for both parties, cuts
    both records with them, and runs the variant's exchange (``_exchange``)
    on the two check sequences, expanding the hash key once.  The session
    draws pa_seed last and decides
    whether privacy amplification can run; the session keys are derived on
    their first read (``SessionOutcome``).
    """
    rng = _as_rng(seed)
    channel = _compile(adversary)
    if keys is None:
        keys = generate_master_keys(params.n, rng=rng, balanced_k2=params.balanced_k2)
    elif len(keys.op_key) != 2 * params.n:
        raise ValueError(f"keys are sized for {len(keys.op_key) // 2} pairs, not n={params.n}")
    try:
        # Bob measures first; Alice measures once he is done.
        bob_bits, alice_bits = _quantum_stage(channel, keys.op_key, rng)
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
            vacuous_check=True,
            check=CheckResult(True, True, 0, 0, 0, 0, empty, empty, empty, empty),
            pa_seed=None,
        )

    # Both parties hold the same partition key, so one pass finds the indices.
    raw_indices = np.flatnonzero(keys.partition_key == 0)
    check_indices = np.flatnonzero(keys.partition_key == 1)
    alice_raw_key, bob_raw_key = alice_bits[raw_indices], bob_bits[raw_indices]
    alice_check, bob_check = alice_bits[check_indices], bob_bits[check_indices]
    # Fewer than two check bits leave the even half empty, and none the odd half too.
    vacuous = len(alice_check) < 2

    chk = _exchange(
        alice_check, bob_check, params.variant, channel.tap_classical, params.tau, keys.hash_key, params.hash_bits
    )

    detected_alice = not chk.alice_pass
    detected_bob = not chk.bob_pass
    aborted = detected_alice or detected_bob
    abort_reason = "check-mismatch" if aborted else None

    pa_seed = None
    pa_bits = 0
    if not aborted:
        pa_seed = random_bits(rng, PA_SEED_BITS)
        raw_len = len(alice_raw_key)
        pa_bits = raw_len // 2 if params.pa_bits is None else params.pa_bits
        if pa_bits > raw_len:
            # Both parties see the impossible compression request.
            aborted = detected_alice = detected_bob = True
            abort_reason = "pa-output-exceeds-raw-key"
            pa_seed = None

    return SessionOutcome(
        aborted=aborted,
        detected_by_alice=detected_alice,
        detected_by_bob=detected_bob,
        abort_reason=abort_reason,
        alice_bits=alice_bits,
        bob_bits=bob_bits,
        alice_raw_key=alice_raw_key,
        bob_raw_key=bob_raw_key,
        vacuous_check=vacuous,
        check=chk,
        pa_seed=pa_seed,
        _pa_bits=pa_bits,
    )


def _check_trials_and_seed(trials, seed) -> None:
    """Reject a run's trial count or master seed with an error naming the field.

    Both must be Python ints, not numpy integers: a report echoes them to JSON as they are.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name}: must be a Python int, got {value!r}")
    if trials < 1:
        raise ValueError(f"trials: must be >= 1, got {trials}")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed: must be an unsigned 64-bit integer, got {seed}")


def count_sessions(params: ProtocolParams, adversary, seeds) -> SessionCounts:
    """Run one session per seed in ``seeds`` and count what happened.

    This is the package's one trial loop: run_batch and search_attacks
    differ only in the seeds they pass, so each keeps its own streams.  The
    adversary is compiled once, and every session draws from its tables.
    """
    channel = _compile(adversary)
    sessions = detected = aborted = matched = complemented = vacuous = mismatched = compared = 0
    for seed in seeds:
        outcome = run_session(params, channel, seed=seed)
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
