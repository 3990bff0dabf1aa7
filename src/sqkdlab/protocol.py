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

Each variant is one entry of ``_EXCHANGES``: its tau, its one encoder,
which maps a check sequence to its odd and even halves' encodings in one
pass (the improved variant's, one Toeplitz product), and those
encodings' lengths.

Announcements and flying qubits pass through a channel compiled from an
``adversary.AdversaryStrategy``; ``_compile`` is the one function that
reads a strategy's policies, and the strategies know nothing of this
module.  A strategy's tap treats each flying qubit alike, so it runs on
the two prepared class rows, and a session's pairs are copies of at most
four distinct states: the channel's class rows are measured once, and
each session draws its pairs' bits from the resulting per-class tables.

A strategy's classical tap XORs one constant onto every announced bit, and
two records' announced (tagged) encodings differ by the untagged encoding
of their difference, so a side's mismatches are the set bits of that,
XOR that constant.  A session forms the difference once and counts the
raw keys' disagreements and both sides' mismatches from it
(``_difference_check``).  A difference that is zero at every check
position encodes to zeros, so it is counted from the variant's side
lengths with nothing encoded.  One that is set at every check position
is counted the same way, every compared bit a mismatch before the flip,
when the variant encodes all ones to all ones (the original variant's
plain halves); the improved variant's digest of all ones depends on the
hash key, so it still encodes it.  An all-zero difference, as in every
honest session, and an all-ones one, as under the modification attack,
are not even cut at the check positions.  A session's one record,
``SessionOutcome``, holds the exchange's two verdicts (``detected_by_*``)
and four counters beside the rest of its transcript.  It cuts the raw
keys, and encodes the announcements from one tagged sequence, when a
reader first asks for them (``_announcements``).

Every session draws in one order, whatever its seed: its master keys,
kept as bare arrays, its uniforms, then the privacy-amplification seed.
A session on its own stream reads them in one raw read of its PCG64
(``bits._read_session``), the seed even when it aborts, since nothing
else reads that stream; on a caller's generator, or when
``balanced_k2``'s permutation draws its keys, it draws them with plain
numpy calls, the seed only once its check has passed (``run_session``).
Its uniforms are the 53-bit integers ``Generator.random`` scales by
2**-53, and its channel's tables integer thresholds
(``bits._thresholds``), so a pair's draw is one uint64 compare.  It
checks only what comes from outside: its inputs.  A batch's sessions
(``count_sessions``, the trial loop of both ``harness.run_batch`` and
``harness.run_search``) each seed their own stream from the trial's seed
words, which ``bits.TrialStreams`` computes in array passes.

After a passing check both sides compress their raw keys into session keys
with the same publicly seeded privacy-amplification map.  A session draws
the map's seed and decides whether the map can run; the keys themselves
are derived when a reader first asks for them (``SessionOutcome``), so a
batch, which reads only counters, runs no privacy amplification, cuts no
raw key and builds no announcement.  A session is a sequential state
machine; distinct sessions share nothing and may run in parallel with
independent rng streams.
"""

import functools
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .adversary import CLASSICAL_FLIP_ALL, QUANTUM_GATE_ALL, QUANTUM_INTERCEPT_RESEND_Z, AdversaryStrategy
from .bits import (
    TrialStreams,
    _check_size,
    _read_session,
    _thresholds,
    _uniform_words,
    as_bits,
    random_bits,
    to01,
)
from .hashing import _expand, _toeplitz_product
from .qsim import ALICE, BOB, apply_gate_batch, bell_batch, standard_gate, z_branches

VARIANT_ORIGINAL = "original"
VARIANT_IMPROVED = "improved"
VARIANTS = (VARIANT_ORIGINAL, VARIANT_IMPROVED)

MIN_HASH_KEY_BITS = 128
PA_SEED_BITS = 128
# Size caps, checked before anything is allocated.  A session's uniform
# block is k arrays of 2n uint64 words end to end (k = 3 when Eve measures,
# else 2), read with the keys' ceil(n / 2) + 16 words (each key on whole
# 32-bit words, the two 2n-bit keys padded when n is odd) and the PA
# seed's 16 when the session reads once, and its quantum stage holds a few
# more arrays of 2n labels, bits or thresholds, at most 8 bytes an entry,
# so MAX_N = 2**20 caps each array at 16 MiB and the block at 48 MiB (the
# read at 52 MiB); the keys shifted out of it, the records' difference and
# its check cut are about three more of 2n bytes.  The improved variant's
# check, and a read of its announcements, each expand the hash key to
# width + 2 * hash_bits - 1 bits (width = n + 1 at most), one byte each,
# and multiply two float64 buffers: a check sequence (the difference, or
# the announced wire sequence) laid out in 2 * width slots, about
# 16(n + 1) bytes (16 MiB at MAX_N), and the float copy of the matrix key,
# 8 bytes a key bit (about 9 MiB at MAX_N and MAX_HASH_BITS = 2**16).  A
# run's trial count and the PA output length allocate nothing that grows
# with them (sessions run one at a time; a PA output longer than the raw
# key aborts), so they have no cap.
MAX_N = 2**20
MAX_HASH_BITS = 2**16

_HADAMARD = standard_gate("H")
_HADAMARD.flags.writeable = False

# Every pair starts as the same Bell row, so a prepared pair is one of two
# constant rows, indexed by its op bit: that row as it is (0) or with H on
# Alice's qubit (1).  Row 1 comes from the batch gate on two Bell rows, so
# it has the bytes that gating a fresh Bell batch gives every gated row.
# They are the class rows a strategy's tap starts from.
_PREPARED_ROWS = np.where(np.array([[False], [True]]), apply_gate_batch(bell_batch(2), _HADAMARD, ALICE), bell_batch(2))
_PREPARED_ROWS.flags.writeable = False

# Domain-separation bit prepended to hashed inputs: one pre-shared hash key
# serves both directions without letting a digest be replayed across them.
DIRECTION_EVEN = 0  # Alice -> Bob announcements (even halves)
DIRECTION_ODD = 1  # Bob -> Alice announcements (odd halves)


@dataclass(frozen=True, eq=False)
class MasterKeys:
    """Pre-shared secrets sized for a 2n-pair session.

    op_key selects I (0) or H (1) per position; partition_key sends a
    position to the raw key (0) or the check set (1); hash_key feeds the
    improved variant's keyed digests and needs at least MIN_HASH_KEY_BITS
    bits.  Construction validates every key, so a session trusts them.
    A session's outcome keeps its partition and hash keys to derive fields
    on their first read (SessionOutcome), so do not write to keys a
    session was given.  ``==`` and ``hash`` go by identity: compare keys
    through their arrays, and sessions through ``SessionOutcome.to_dict()``.
    """

    op_key: np.ndarray
    partition_key: np.ndarray
    hash_key: np.ndarray

    def __post_init__(self):
        for name in ("op_key", "partition_key", "hash_key"):
            try:
                object.__setattr__(self, name, as_bits(getattr(self, name)))
            except ValueError as error:
                raise ValueError(f"{name}: {error}") from None
        size = len(self.op_key)
        if size == 0 or size % 2:
            raise ValueError(f"op_key: must have positive even length (2n bits), got {size}")
        if len(self.partition_key) != size:
            got = len(self.partition_key)
            raise ValueError(f"partition_key: must have equal length to op_key ({size} bits), got {got}")
        if len(self.hash_key) < MIN_HASH_KEY_BITS:
            raise ValueError(f"hash_key: must be at least {MIN_HASH_KEY_BITS} bits, got {len(self.hash_key)}")


@dataclass(frozen=True)
class ProtocolParams:
    """Session configuration, the one check of every entry point's session
    values; a run uses 2n pairs.

    Integers are any ``numbers.Integral`` but bool, stored as int; tau is
    any ``numbers.Real`` but bool, stored as float, so every accepted value
    renders to JSON; -0.0 is stored as 0.0, so equal configs echo equal
    reports.  pa_bits None means "auto": half the raw-key length, rounded
    down.  tau only applies to the original variant's bit-wise comparison.
    balanced_k2 forces exactly n raw and n check positions.
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
        object.__setattr__(self, "tau", float(self.tau) + 0.0)
        if not 0.0 <= self.tau < 1.0:
            raise ValueError(f"tau: must satisfy 0 <= tau < 1, got {self.tau}")
        object.__setattr__(self, "hash_bits", _check_size("hash_bits", self.hash_bits, MAX_HASH_BITS))
        if self.pa_bits is not None:
            object.__setattr__(self, "pa_bits", _check_size("pa_bits", self.pa_bits))
        if not isinstance(self.balanced_k2, (bool, np.bool_)):
            raise ValueError(f"balanced_k2: must be a bool, got {self.balanced_k2!r}")
        object.__setattr__(self, "balanced_k2", bool(self.balanced_k2))


@dataclass(eq=False)
class SessionOutcome:
    """Full transcript of one session, its check exchange included.

    Raw keys are always populated (the partition happens before the
    check); session keys and pa_seed are present iff the session was not
    aborted.  detected_by_alice and detected_by_bob are the exchange's
    verdicts; its counters count check bits for the original variant and
    digest bits for the improved variant.  vacuous_check flags sessions
    with fewer than two check bits, so a check half is empty: under the
    original variant that direction compares nothing, but the improved one
    still announces and compares a keyed digest of its direction tag.
    ``==`` compares identity: compare two transcripts through ``to_dict()``.

    The raw keys, the exchange's four arrays and the session keys are
    derived on their first read, once, and cached.  The raw keys are cut
    from the records with the partition (``_check_positions``, the
    partition key as a boolean mask); what a batch reads of them the
    session counted from the records' difference: ``_raw_len`` raw
    positions, at ``_raw_differ`` of which the two raw keys disagree.  The
    four arrays (what each side announced and what each received) are
    read-only; ``_announce`` returns them, in that order.  The session
    keys come from the raw keys, pa_seed and the session's resolved output
    length (``_pa_bits``), both in one Toeplitz product.  The private
    fields stay out of the rendering; reading any derived field again, in
    any order, or before ``to_dict()``, changes nothing.  The derivations
    read ``alice_bits``, ``bob_bits``, pa_seed and the session's partition
    and hash keys as they are at the first read, without copying them:
    treat those arrays as read-only, as a write to one before that read
    makes the derived fields disagree with the counters.
    """

    # The exchange's six results lead, in _difference_check's order.
    detected_by_alice: bool
    detected_by_bob: bool
    check_mismatches_alice: int
    check_mismatches_bob: int
    compared_bits_alice: int
    compared_bits_bob: int
    aborted: bool
    abort_reason: str | None
    alice_bits: np.ndarray
    bob_bits: np.ndarray
    vacuous_check: bool
    pa_seed: np.ndarray | None
    _announce: object
    _check_positions: np.ndarray
    _raw_len: int
    _raw_differ: int
    _pa_bits: int = 0

    # Transcript fields in rendering order, the derived ones included.
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
        "check_mismatches_alice",
        "check_mismatches_bob",
        "compared_bits_alice",
        "compared_bits_bob",
        "announced_by_alice",
        "announced_by_bob",
        "received_by_alice",
        "received_by_bob",
    )

    @functools.cached_property
    def alice_raw_key(self) -> np.ndarray:
        return self.alice_bits[~self._check_positions]

    @functools.cached_property
    def bob_raw_key(self) -> np.ndarray:
        return self.bob_bits[~self._check_positions]

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
        pa_key = _expand(self.pa_seed, self._raw_len + self._pa_bits - 1)
        alice, bob = _toeplitz_product(pa_key, np.stack((self.alice_raw_key, self.bob_raw_key)))
        return alice, bob

    @property
    def alice_session_key(self) -> np.ndarray | None:
        return self._session_keys[0]

    @property
    def bob_session_key(self) -> np.ndarray | None:
        return self._session_keys[1]

    @functools.cached_property
    def _exchange(self) -> tuple:
        return self._announce()

    @property
    def announced_by_alice(self) -> np.ndarray:
        return self._exchange[0]

    @property
    def announced_by_bob(self) -> np.ndarray:
        return self._exchange[1]

    @property
    def received_by_alice(self) -> np.ndarray:
        return self._exchange[2]

    @property
    def received_by_bob(self) -> np.ndarray:
        return self._exchange[3]

    def to_dict(self) -> dict:
        """Flat JSON-able rendering of ``_RENDERED``; bit arrays become '0101' strings."""
        fields = {name: getattr(self, name) for name in self._RENDERED}
        return {name: to01(value) if isinstance(value, np.ndarray) else value for name, value in fields.items()}


@dataclass(frozen=True)
class SessionCounts:
    """What happened across a run of sessions, counted per session.

    matched / complemented compare the raw keys bit-wise (both hold when
    the keys are empty), from each session's count of raw positions where
    they disagree; mismatched_bits / compared_bits sum the check's
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


def _draw_keys(rng: np.random.Generator, n: int, balanced_k2: bool) -> tuple:
    """The op, partition and hash keys of a 2n-pair session, as bare arrays:
    three random_bits draws, or with balanced_k2 the op key's draw, a
    permutation that marks n check positions, and the hash key's draw."""
    size = 2 * n
    op_key = random_bits(rng, size)
    if balanced_k2:
        partition_key = np.zeros(size, dtype=np.uint8)
        partition_key[rng.permutation(size)[:n]] = 1
    else:
        partition_key = random_bits(rng, size)
    return op_key, partition_key, random_bits(rng, MIN_HASH_KEY_BITS)


def _tables(rows, ops):
    """Bob's and Alice's Born tables for pairs Bob receives in one of ``rows``.

    ``ops`` holds each row's op bit.  Bob applies H to a row whose op bit
    is 1, Z-measures his qubit, and Alice then Z-measures hers; the numbers
    are those ``qsim.z_branches`` gives.  Bob's gate is one product over
    every row, and ``np.where`` keeps the rows whose op bit is 0, as the
    test oracle gates a session's pairs.  Returns ``(p_bob, p_alice,
    drawable)``: ``p_bob[c]`` is the threshold (``bits._thresholds``) of
    the probability Bob reads 0 on class c, ``p_alice[2 * c + b]`` that of
    the probability Alice reads 0 once Bob read b, both uint64, and
    ``drawable[2 * c + b]`` whether Bob's outcome b on class c has a
    nonzero probability, or None when every outcome does.  After a
    drawable outcome Alice's qubit is normalized, so her draw needs no
    check.  A row that is not normalized raises ValueError.
    """
    gated = np.where((ops == 1)[:, None], apply_gate_batch(rows, _HADAMARD, BOB), rows)
    p_bob, rest, drawable = z_branches(gated, BOB)
    p_alice = np.abs(rest[..., 0]) ** 2
    return _thresholds(p_bob), _thresholds(p_alice.ravel()), None if drawable.all() else drawable.ravel()


class _Channel(NamedTuple):
    """An adversary compiled for the session.

    A strategy's tap maps the two prepared rows to at most four rows Bob
    can receive, so its ``tables`` (``_tables``) serve every session, and
    ``p_eve`` is the threshold of the probability Eve reads 0 per op bit
    when she measures (None otherwise): integers that a 53-bit uniform is
    compared with (``bits._thresholds``).  ``flip``, 0 or 1, is the
    constant its classical tap XORs onto every announced bit.
    """

    p_eve: np.ndarray | None
    tables: tuple
    flip: int


def _intercept_resend_z(rows, ops):
    """Eve's Z measurement of the flying qubit of each row, whose op bit is
    in ``ops``, without a draw: ``(p_eve, collapsed, collapsed_ops)``.
    ``p_eve[i]`` is the probability Eve reads 0 on row i, and row 2i + e
    of ``collapsed`` is the pair she forwards after reading e (the observed
    basis state is exactly the fresh qubit she sends), with op bit
    ``ops[i]``.  On a prepared pair both outcomes have probability 1/2.
    """
    p_eve, rest, _ = z_branches(rows, BOB)
    collapsed = np.zeros((len(rows), 2, 2, 2), dtype=complex)  # [row, Eve's bit, Alice's bit, Bob's bit]
    collapsed[:, 0, :, 0] = rest[:, 0]
    collapsed[:, 1, :, 1] = rest[:, 1]
    return p_eve, collapsed.reshape(-1, 4), np.repeat(ops, 2)


def _compile(adversary) -> _Channel:
    """The channel of ``adversary``: None is the honest channel, a compiled
    channel is itself, and a strategy is compiled from its quantum tap on
    the prepared rows (a gate on each, or Eve's two branches of each) and
    its classical tap's constant flip.  Anything else raises ValueError,
    before the session draws anything.
    """
    if isinstance(adversary, _Channel):
        return adversary
    if adversary is None:
        return _HONEST
    if not isinstance(adversary, AdversaryStrategy):
        raise ValueError(f"adversary: must be None or an AdversaryStrategy, got {adversary!r}")
    p_eve, rows, ops = None, _PREPARED_ROWS, np.array([0, 1])  # each row's op bit
    if adversary.quantum == QUANTUM_GATE_ALL:
        rows = apply_gate_batch(rows, standard_gate(adversary.gate), BOB)
    elif adversary.quantum == QUANTUM_INTERCEPT_RESEND_Z:
        p_eve, rows, ops = _intercept_resend_z(rows, ops)
    p_eve = None if p_eve is None else _thresholds(p_eve)
    return _Channel(p_eve, _tables(rows, ops), int(adversary.classical == CLASSICAL_FLIP_ALL))


_HONEST = _compile(AdversaryStrategy())


def _quantum_stage(channel: _Channel, op_key: np.ndarray, uniforms: np.ndarray):
    """Bob's and then Alice's Z measurements of one session: ``(bob_bits, alice_bits)``.

    ``uniforms`` holds the session's rows of ``len(op_key)`` uniforms end
    to end, as uint64 53-bit integers x: Eve's when she measures
    (``channel.p_eve`` is not None), then Bob's, then Alice's.  Each pair
    gets a class label: its op bit, or ``2 * op + e`` once Eve read e
    (intercept-resend, from the first row).  Bob's bits are then one
    uniform per pair against his class's threshold of reading 0, and
    Alice's one more against hers given Bob's bit b, at label ``2 * class
    + b``.  ``x >= threshold`` holds exactly when the double ``x *
    2**-53`` is at least the probability, so these are the draws, in the
    order and with the numbers of measuring every pair state, and the bits
    are the same.  One ``intp`` label array is shifted and added to in
    place, so no index is cast.  A drawn outcome of zero probability
    raises RuntimeError.
    """
    size = len(op_key)
    labels = op_key.astype(np.intp)
    if channel.p_eve is not None:
        eve = uniforms[:size] >= channel.p_eve.take(labels)
        labels <<= 1
        labels += eve
    p_bob, p_alice, drawable = channel.tables
    bob = uniforms[-2 * size : -size] >= p_bob.take(labels)
    labels <<= 1
    labels += bob
    if drawable is not None and not drawable.take(labels).all():
        raise RuntimeError("drew a measurement outcome of (numerically) zero probability")
    alice = uniforms[-size:] >= p_alice.take(labels)
    return bob.view(np.uint8), alice.view(np.uint8)


def _plain_sides(check, hash_key, hash_bits, tagged):
    """The original variant's encoding of a check sequence: its odd
    (1-based) half and its even half, each as itself."""
    return check[0::2], check[1::2]


def _digest_sides(check, hash_key, hash_bits, tagged):
    """The improved variant's encoding of a check sequence: the
    hash_bits-bit keyed Toeplitz digests of its odd (1-based) half and of
    its even half, as the rows of one array.

    A zero buffer of ``2 * width`` slots, width = odd half + 1, holds the
    sequence from slot 2, so its ``(width, 2)`` view transposed is the two
    halves, each after a tag slot, the even half zero-padded.  Both matrix
    keys are prefixes of one stream of the hash key, so one expansion and
    one product hash both.  ``tagged`` (as announced) writes the direction
    bits into the tag slots and XORs each side's mask, the hash_bits stream
    bits after its own matrix key.  Untagged, the encoding is ``T·x``, so
    two sequences' tagged encodings XOR to their difference's untagged one.
    """
    size = len(check)
    width = (size + 1) // 2 + 1
    laid_out = np.zeros(2 * width)
    if tagged:
        laid_out[:2] = DIRECTION_ODD, DIRECTION_EVEN
    laid_out[2 : 2 + size] = check
    stream = _expand(hash_key, width + 2 * hash_bits - 1)
    sides = _toeplitz_product(stream[: width + hash_bits - 1], laid_out.reshape(width, 2).T)
    if tagged:
        sides[0] ^= stream[width + hash_bits - 1 :]
        sides[1] ^= stream[size // 2 + hash_bits : size // 2 + 2 * hash_bits]
    return sides


# Each variant's exchange: its encoder, the lengths of the (odd, even)
# sides it encodes c check bits to, the mismatch fraction a side passes at
# (None: the session's tau), and whether it encodes an all-ones sequence
# to all-ones sides, so that a full difference is counted from the side
# lengths.  A digest's T·1 depends on the hash key, so the improved
# variant still encodes a full difference.  A digest of >= 1 bit passes at
# tau = 0 exactly when every bit matches.
_EXCHANGES = {
    VARIANT_ORIGINAL: (_plain_sides, lambda c, hash_bits: ((c + 1) // 2, c // 2), None, True),
    VARIANT_IMPROVED: (_digest_sides, lambda c, hash_bits: (hash_bits, hash_bits), 0.0, False),
}


def _announcements(alice_check, bob_check, variant: str, flip: int, hash_key, hash_bits: int) -> tuple:
    """What Alice and Bob announced and what Alice and Bob received, in
    that order: the variant's tagged encoding of Alice's even half and of
    Bob's odd half of the two check sequences, each XOR the channel's
    ``flip`` on its way to the other side.  Both come from one encoding of the wire
    sequence, Alice's check sequence with Bob's odd half in its place."""
    wire = alice_check.copy()
    wire[0::2] = bob_check[0::2]
    announced_by_bob, announced_by_alice = _EXCHANGES[variant][0](wire, hash_key, hash_bits, True)
    return announced_by_alice, announced_by_bob, announced_by_bob ^ flip, announced_by_alice ^ flip


def _difference_check(
    check_differ, checks: int, differing: int, variant: str, flip: int, tau: float, hash_key, hash_bits: int
) -> tuple:
    """The one announce-and-compare exchange, counted from ``check_differ``,
    the two records' XOR at the ``checks`` check positions, of which
    ``differing`` bits are set, with no announcement built.  When none or
    all of them are, ``check_differ`` may be None.

    Each side compares what it receives against the encoding of its own
    retained half of the same parity.  Two sequences' tagged encodings
    differ by the untagged encoding of their difference, and the channel
    XORs the constant ``flip`` onto each announced bit, so a side's
    mismatches are the set bits of its side of ``check_differ``'s untagged
    encoding, XOR flip.  Every encoding is linear, so a difference with no
    set bit, as every honest session's is, encodes to zeros: it is counted
    from the variant's side lengths for ``checks`` bits, with nothing
    encoded.  A full difference (every bit set, as under the modification
    attack) is counted the same way, with ``flip`` flipped, when the
    variant encodes all ones to all ones (the original variant); the
    improved variant encodes it.  A side detects when it compared
    something and its mismatch fraction exceeds tau (the variant's own tau
    when it has one).  Returns ``SessionOutcome``'s first six fields: the
    two detection flags and the four counters.
    """
    encode, side_lengths, fixed_tau, keeps_ones = _EXCHANGES[variant]
    if keeps_ones and differing == checks:
        # Every side bit mismatches before flip: a zero difference, flipped.
        differing, flip = 0, flip ^ 1
    if differing:
        if check_differ is None:  # a full difference, not cut
            check_differ = np.ones(checks, dtype=np.uint8)
        alice_side, bob_side = encode(check_differ, hash_key, hash_bits, False)
        compared_alice, compared_bob = len(alice_side), len(bob_side)
        mism_alice, mism_bob = int(np.count_nonzero(alice_side)), int(np.count_nonzero(bob_side))
    else:
        compared_alice, compared_bob = side_lengths(checks, hash_bits)
        mism_alice = mism_bob = 0
    if flip:
        mism_alice, mism_bob = compared_alice - mism_alice, compared_bob - mism_bob
    if fixed_tau is not None:
        tau = fixed_tau
    detected_alice = compared_alice > 0 and mism_alice / compared_alice > tau
    detected_bob = compared_bob > 0 and mism_bob / compared_bob > tau
    return detected_alice, detected_bob, mism_alice, mism_bob, compared_alice, compared_bob


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
    adversary.AdversaryStrategy, or a channel ``count_sessions`` compiled
    from one of these.  ``seed`` is what ``np.random.default_rng`` takes: a
    non-negative int, a SeedSequence (any ``ISeedSequence``), a Generator
    or a bit generator; identical (params, adversary, seed, keys) inputs
    give a bit-identical SessionOutcome.  ``keys`` forces the master keys
    instead of sampling them from the session rng.

    Inputs are checked where they enter: ``params`` and ``keys`` on
    construction, and the type of ``params``, the seed, the keys' type and
    size and the adversary here, before anything is drawn.  Everything
    else is an array the session built, so it calls the unchecked cores.

    Every session draws in one order: its master keys (unless ``keys``
    forces them), its uniforms (Eve's row if she measures, then Bob's and
    Alice's), then pa_seed.  On its own stream, one the session seeded
    from ``seed`` (anything but a Generator or a bit generator, such as
    the trial seed ``count_sessions`` hands it), nothing is buffered, so
    it reads them all in one raw read (``bits._read_session``), at any n,
    unless ``balanced_k2``'s permutation draws its keys.  Any other
    session draws them with plain numpy calls (``_draw_keys``, ``random``
    converted to 53-bit integers, and pa_seed only once the check has
    passed), the same bits from the same words, and a caller's Generator
    ends where those calls leave it.

    The quantum stage draws each pair's bits from the channel's class
    tables (``_quantum_stage``).  The session XORs the two records once and
    counts that difference's set bits.  An honest session's is all zero
    and a modification attack's all ones, so it is zero or all ones at the
    check positions too: the session cuts nothing, and its check length is
    the partition key's count of set bits.  Any other difference is cut
    with the partition key, viewed as a boolean mask: its set bits outside
    the check positions count the raw keys' disagreements, and its check
    cut counts both sides' mismatches (``_difference_check``: a zero cut,
    and under the original variant an all-ones one, is counted with
    nothing encoded; any other is encoded once).  Privacy amplification runs
    only if its output fits the raw key.  The outcome holds the exchange's
    verdicts and counters; the raw keys, the announcements
    (``_announcements``) and the session keys are derived on their first
    read (``SessionOutcome``).
    """
    if not isinstance(params, ProtocolParams):
        raise ValueError(f"params: must be a ProtocolParams, got {params!r}")
    # A seed sequence first: count_sessions passes one per trial.
    if not isinstance(seed, (ISeedSequence, np.random.Generator, np.random.BitGenerator)) and (
        isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0
    ):
        raise ValueError(f"seed: must be a non-negative int, a SeedSequence or a Generator, got {seed!r}")
    size = 2 * params.n
    if keys is not None:
        if not isinstance(keys, MasterKeys):
            raise ValueError(f"keys: must be None or a MasterKeys, got {keys!r}")
        if len(keys.op_key) != size:
            raise ValueError(f"keys are sized for {len(keys.op_key) // 2} pairs, not n={params.n}")
    channel = _compile(adversary)
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    fresh = not isinstance(seed, (np.random.Generator, np.random.BitGenerator))
    uniform_count = (2 if channel.p_eve is None else 3) * size
    if fresh and (keys is not None or not params.balanced_k2):
        key_size, hash_size = (size, MIN_HASH_KEY_BITS) if keys is None else (0, 0)
        drawn, uniforms, read_seed = _read_session(rng, key_size, hash_size, uniform_count, PA_SEED_BITS)
    else:
        drawn = None if keys is not None else _draw_keys(rng, params.n, params.balanced_k2)
        uniforms, read_seed = _uniform_words(rng, uniform_count), None
    op_key, partition_key, hash_key = drawn if keys is None else (keys.op_key, keys.partition_key, keys.hash_key)
    # Bob measures first; Alice measures once he is done.
    bob_bits, alice_bits = _quantum_stage(channel, op_key, uniforms)
    # Both parties hold the same partition key: 1 marks a check position.
    check = partition_key.view(bool)
    differ = alice_bits ^ bob_bits
    differing = int(np.count_nonzero(differ))
    if not differing:
        check_differ, checks, check_differing = None, int(np.count_nonzero(partition_key)), 0
    elif differing < size:
        check_differ = differ[check]
        checks, check_differing = len(check_differ), int(np.count_nonzero(check_differ))
    else:
        # Every pair's records disagree, so every check position's do.
        check_differ, checks = None, int(np.count_nonzero(partition_key))
        check_differing = checks
    raw_len = size - checks
    raw_differ = differing - check_differing
    variant, flip, hash_bits = params.variant, channel.flip, params.hash_bits

    def announce():
        return _announcements(alice_bits[check], bob_bits[check], variant, flip, hash_key, hash_bits)

    exchange = _difference_check(check_differ, checks, check_differing, variant, flip, params.tau, hash_key, hash_bits)
    aborted = exchange[0] or exchange[1]
    abort_reason = "check-mismatch" if aborted else None

    pa_seed = None
    pa_bits = raw_len // 2 if params.pa_bits is None else params.pa_bits
    if not aborted:
        drawn_seed = random_bits(rng, PA_SEED_BITS) if read_seed is None else read_seed
        if pa_bits > raw_len:
            # An impossible compression request: the session aborts, but
            # no party's check failed, so neither detected anything.
            aborted = True
            abort_reason = "pa-output-exceeds-raw-key"
        else:
            pa_seed = drawn_seed

    # Every field goes in positionally, the exchange's six first: binding
    # all 17 by keyword costs about 0.8 µs a session more.  checks < 2 is
    # vacuous_check: fewer than two check bits leave a check half empty.
    transcript = (aborted, abort_reason, alice_bits, bob_bits, checks < 2, pa_seed)
    return SessionOutcome(*exchange, *transcript, announce, check, raw_len, raw_differ, pa_bits)


def count_sessions(params: ProtocolParams, adversary, streams: TrialStreams) -> SessionCounts:
    """Run one session per trial stream of ``streams`` and count what happened.

    This is the package's one trial loop: run_batch and run_search
    differ only in the ``bits.TrialStreams`` they pass, so each keeps its
    own streams.  The adversary is compiled once, and every session draws
    from its tables.  Each trial's session is one run_session call,
    seeded from that trial's seed of ``TrialStreams._seeds``, so it gets,
    bit for bit, what seeding run_session with ``bits.trial_stream(prefix,
    t)`` gives.  The loop reads only counters, the raw keys' among them
    (``SessionOutcome._raw_len`` and ``_raw_differ``), so no session cuts
    a raw key, builds an announcement or derives a session key.
    """
    channel = _compile(adversary)
    sessions = detected = aborted = matched = complemented = vacuous = mismatched = compared = 0
    for seed in streams._seeds():
        outcome = run_session(params, channel, seed=seed)
        sessions += 1
        detected += outcome.detected_by_alice or outcome.detected_by_bob
        aborted += outcome.aborted
        # Match = no raw-key bit differs, complement = every one does.
        matched += outcome._raw_differ == 0
        complemented += outcome._raw_differ == outcome._raw_len
        vacuous += outcome.vacuous_check
        mismatched += outcome.check_mismatches_alice + outcome.check_mismatches_bob
        compared += outcome.compared_bits_alice + outcome.compared_bits_bob
    return SessionCounts(sessions, detected, aborted, matched, complemented, vacuous, mismatched, compared)
