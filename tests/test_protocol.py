"""Protocol engine tests: keys, partition, exchanges, full sessions."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkdlab import harness, protocol
from sqkdlab.adversary import AdversaryStrategy, intercept_resend_attack, modification_attack, search_attacks
from sqkdlab.bits import as_bits, flip, random_bits, to01
from sqkdlab.hashing import _expand, privacy_amplify
from sqkdlab.protocol import (
    MAX_HASH_BITS,
    MAX_N,
    MIN_HASH_KEY_BITS,
    VARIANT_IMPROVED,
    VARIANT_ORIGINAL,
    MasterKeys,
    ProtocolError,
    ProtocolParams,
    SessionCounts,
    count_sessions,
    generate_master_keys,
    run_session,
)
from sqkdlab.qsim import GATE_NAMES, bell_batch

from oracles import measure_session, prepare, tap_quantum_batch, toeplitz_matrix

SQRT_HALF = 1 / np.sqrt(2)


def keys_for(op_key, partition_key, hash_bits=128):
    return MasterKeys(op_key, partition_key, np.zeros(hash_bits, dtype=np.uint8))


def reference_digest(hash_key, tagged, digest_len: int) -> np.ndarray:
    """The keyed digest of ``tagged``: the hash key expanded for this one input
    length, split into matrix key and mask, and the materialized matrix."""
    tagged = as_bits(tagged)
    split = len(tagged) + digest_len - 1
    stream = _expand(as_bits(hash_key), split + digest_len)
    matrix = toeplitz_matrix(stream[:split], len(tagged), digest_len).astype(np.int64)
    return ((matrix @ tagged.astype(np.int64)) % 2).astype(np.uint8) ^ stream[split:]


# -- master keys ----------------------------------------------------------------


def test_generate_master_keys_reproducible():
    a = generate_master_keys(8, rng=np.random.default_rng(5))
    b = generate_master_keys(8, rng=np.random.default_rng(5))
    assert np.array_equal(a.op_key, b.op_key)
    assert np.array_equal(a.partition_key, b.partition_key)
    assert np.array_equal(a.hash_key, b.hash_key)


def test_generate_master_keys_lengths():
    keys = generate_master_keys(2, l_key=130, rng=np.random.default_rng(0))
    assert len(keys.op_key) == len(keys.partition_key) == 4
    assert len(keys.hash_key) == 130


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(MIN_HASH_KEY_BITS, MIN_HASH_KEY_BITS + 70),
    st.integers(0, 9),
    st.sampled_from([np.random.PCG64, np.random.MT19937, np.random.Philox]),
    st.integers(0, 2**32 - 1),
)
def test_master_keys_equal_three_successive_random_bits_draws(n, l_key, bits_before, bit_generator, seed):
    # The keys come from one raw read when every length is a multiple of 8
    # and no PCG64 half-word is buffered (an odd count of bits drawn before
    # leaves one), and from per-key draws otherwise: the same bits either
    # way, and the stream left in the same place.
    ours, reference = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    for rng in (ours, reference):
        rng.integers(0, 2, size=bits_before, dtype=np.uint8)
    keys = generate_master_keys(n, l_key, rng=ours)
    for drawn in (keys.op_key, keys.partition_key, keys.hash_key):
        assert drawn.dtype == np.uint8
        assert np.array_equal(drawn, random_bits(reference, len(drawn)))
    assert (len(keys.op_key), len(keys.hash_key)) == (2 * n, l_key)
    assert np.array_equal(ours.random(3), reference.random(3))


def test_generate_master_keys_balanced():
    for seed in range(20):
        keys = generate_master_keys(16, rng=np.random.default_rng(seed), balanced_k2=True)
        assert int(keys.partition_key.sum()) == 16


def test_partition_key_bits_are_uniform():
    total = ones = 0
    for seed in range(10_000):
        keys = generate_master_keys(32, rng=np.random.default_rng(seed))
        ones += int(keys.partition_key.sum())
        total += len(keys.partition_key)
    assert 0.48 <= ones / total <= 0.52


def test_master_keys_validation():
    with pytest.raises(ValueError, match=r"^partition_key: must have equal length to op_key \(2 bits\), got 4$"):
        keys_for("00", "0000")
    with pytest.raises(ValueError, match=r"^op_key: must have positive even length \(2n bits\), got 3$"):
        keys_for("000", "000")
    with pytest.raises(ValueError, match=r"^op_key: must have positive even length \(2n bits\), got 0$"):
        keys_for("", "")


def test_size_caps_name_the_field_before_anything_is_drawn():
    # Constructing params allocates nothing, so the caps are tested at and
    # just past their bounds without building a state.
    ProtocolParams(n=MAX_N, hash_bits=MAX_HASH_BITS)
    with pytest.raises(ValueError, match=rf"^n: must be <= {MAX_N}, got {MAX_N + 1}$"):
        ProtocolParams(n=MAX_N + 1)
    with pytest.raises(ValueError, match=rf"^hash_bits: must be <= {MAX_HASH_BITS}, got {10**12}$"):
        ProtocolParams(n=1, hash_bits=10**12)
    with pytest.raises(ValueError, match=rf"^n: must be <= {MAX_N}, got {10**9}$"):
        search_attacks("original", trials=1, n=10**9)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^n: must be <= {MAX_N}, got {10**9}$"):
        generate_master_keys(10**9, rng=rng)
    assert rng.bit_generator.state == before
    # The cap's arithmetic: 2n pair states of four complex128 amplitudes.
    assert 2 * MAX_N * 4 * np.dtype(complex).itemsize == 128 * 2**20


def test_master_keys_reject_a_short_hash_key():
    # Checked where the key enters: a session never meets a hash key
    # shorter than the digests' minimum.
    keys_for("0000", "0110", hash_bits=MIN_HASH_KEY_BITS)
    with pytest.raises(ValueError, match=rf"^hash_key: must be at least {MIN_HASH_KEY_BITS} bits, got 127$"):
        keys_for("0000", "0110", hash_bits=MIN_HASH_KEY_BITS - 1)
    with pytest.raises(ValueError, match=rf"^l_key: must be >= {MIN_HASH_KEY_BITS}, got 127$"):
        generate_master_keys(2, l_key=MIN_HASH_KEY_BITS - 1, rng=np.random.default_rng(0))


@pytest.mark.parametrize(
    "l_key, message",
    [
        (200.5, "must be an integer, got 200.5"),
        (True, "must be an integer, got True"),
        (2 * MAX_N + 1, f"must be <= {2 * MAX_N}, got {2 * MAX_N + 1}"),
    ],
    ids=["float", "bool", "over-cap"],
)
def test_l_key_is_checked_before_any_draw(l_key, message):
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^l_key: {message}$"):
        generate_master_keys(4, l_key=l_key, rng=rng)
    assert rng.bit_generator.state == before


# -- preparation and measurement --------------------------------------------------


def prepared(keys, n):
    """What a duck-typed tap is handed: the prepared row of each pair's op bit."""
    assert len(keys.op_key) == 2 * n
    return protocol._PREPARED_ROWS.take(keys.op_key, axis=0)


def test_alice_prepare_states():
    keys = keys_for("0110", "0000")
    states = prepared(keys, 2)
    assert states.shape == (4, 4)
    assert np.allclose(states[0], bell_batch(1)[0], rtol=0, atol=1e-12)
    assert np.allclose(states[3], bell_batch(1)[0], rtol=0, atol=1e-12)
    assert np.allclose(states[1], [0.5, 0.5, 0.5, -0.5], rtol=0, atol=1e-12)
    assert np.allclose(states[2], [0.5, 0.5, 0.5, -0.5], rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 600), st.sampled_from(["random", "zeros", "ones", "one"]), st.integers(0, 2**32 - 1))
def test_alice_prepare_is_byte_equal_to_the_batch_gate(n, pattern, seed):
    rng = np.random.default_rng(seed)
    op_key = {
        "random": random_bits(rng, 2 * n),
        "zeros": np.zeros(2 * n, dtype=np.uint8),
        "ones": np.ones(2 * n, dtype=np.uint8),
        "one": (np.arange(2 * n) == rng.integers(2 * n)).astype(np.uint8),
    }[pattern]
    keys = MasterKeys(op_key, random_bits(rng, 2 * n), random_bits(rng, MIN_HASH_KEY_BITS))
    states = prepared(keys, n)
    expected = prepare(op_key)
    assert states.dtype == expected.dtype and states.shape == expected.shape
    assert states.tobytes() == expected.tobytes()
    assert states.flags.writeable


def test_alice_prepare_requires_matching_sizes():
    with pytest.raises(ValueError, match=r"^keys are sized for 1 pairs, not n=3$"):
        run_session(ProtocolParams(n=3), None, seed=0, keys=keys_for("00", "00"))


class Deliver:
    """A duck-typed tap that delivers fixed pair states, whatever Alice sent."""

    def __init__(self, states):
        self.states = states

    def tap_quantum_batch(self, states, rng):
        return self.states

    def tap_classical(self, bits):
        return bits


def test_bob_rejects_wrong_qubit_count():
    keys = keys_for("0000", "0000")
    out = run_session(ProtocolParams(n=2), Deliver(prepared(keys, 2)[:3]), seed=0, keys=keys)
    assert out.aborted and out.detected_by_bob and not out.detected_by_alice
    assert out.abort_reason == "expected 4 delivered qubits, got 3"


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(np.inf, 0)])
def test_non_finite_delivery_raises_before_any_draw(bad):
    keys = keys_for("0110", "0000")
    delivered = prepared(keys, 2)
    delivered[1, 3] = bad
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    # Rejected before Bob's gate, which would turn an infinite amplitude
    # into NaNs (inf * 0) with a RuntimeWarning (an error in this suite).
    with pytest.raises(ValueError, match="not normalized"):
        run_session(ProtocolParams(n=2), Deliver(delivered), seed=rng, keys=keys)
    assert rng.bit_generator.state == before


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 350), st.integers(0, 2**32 - 1), st.booleans())
def test_measurements_equal_collapsing_whole_pairs(n, seed, session_like):
    # A session's bits are those that collapsing all four amplitudes of
    # each pair twice gives, on random normalized deliveries and on what a
    # tapped session delivers.
    rng = np.random.default_rng(seed)
    keys = MasterKeys(random_bits(rng, 2 * n), random_bits(rng, 2 * n), random_bits(rng, MIN_HASH_KEY_BITS))
    if session_like:
        gate = AdversaryStrategy("gate_all", str(rng.choice(["I", "X", "Y", "Z", "H", "SPIN_FLIP"])))
        delivered = tap_quantum_batch(gate, prepare(keys.op_key), rng)
    else:
        delivered = rng.normal(size=(2 * n, 4)) + 1j * rng.normal(size=(2 * n, 4))
        delivered /= np.linalg.norm(delivered, axis=1)[:, None]
    draw = int(rng.integers(2**32))
    expected_bob, expected_alice = measure_session(keys.op_key, delivered, np.random.default_rng(draw))
    out = run_session(ProtocolParams(n=n), Deliver(delivered), seed=np.random.default_rng(draw), keys=keys)
    assert out.bob_bits.tobytes() == expected_bob.tobytes()
    assert out.alice_bits.tobytes() == expected_alice.tobytes()


def test_bob_emits_done_notice_and_alice_agrees():
    # Bob measures first, then Alice; on an honest channel they agree.
    keys = keys_for("0101", "0000")
    rng = np.random.default_rng(1)
    out = run_session(ProtocolParams(n=2), None, seed=rng, keys=keys)
    assert out.bob_bits.shape == (4,) and np.array_equal(out.alice_bits, out.bob_bits)
    # Bob's 4 draws come first and Alice's 4 next, then the 128-bit PA seed.
    expected = np.random.default_rng(1)
    expected.random(8)
    assert np.array_equal(out.pa_seed, random_bits(expected, 128))


class RandomDelivery:
    """A duck-typed tap that delivers random normalized pair states, drawn from the session rng."""

    def tap_quantum_batch(self, states, rng):
        delivered = rng.normal(size=states.shape) + 1j * rng.normal(size=states.shape)
        return delivered / np.linalg.norm(delivered, axis=1)[:, None]

    def tap_classical(self, bits):
        return bits


ENGINE_TAPS = [None, *(AdversaryStrategy("gate_all", name) for name in GATE_NAMES), intercept_resend_attack()]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 600),
    st.sampled_from([*ENGINE_TAPS, RandomDelivery()]),
    st.sampled_from(["random", "zeros", "ones", "one"]),
    st.integers(0, 2**32 - 1),
)
def test_quantum_stage_is_byte_equal_to_the_whole_pair_oracle(n, tap, pattern, seed):
    # The class-table engine against every pair state of the session:
    # prepare, tap and measure (2n, 4) arrays, collapsing all four
    # amplitudes.  Same bits, and the stream ends in the same place.
    rng = np.random.default_rng(seed)
    op_key = {
        "random": random_bits(rng, 2 * n),
        "zeros": np.zeros(2 * n, dtype=np.uint8),
        "ones": np.ones(2 * n, dtype=np.uint8),
        "one": (np.arange(2 * n) == rng.integers(2 * n)).astype(np.uint8),
    }[pattern]
    draw = int(rng.integers(2**32))

    reference = np.random.default_rng(draw)
    delivered = prepare(op_key)
    if isinstance(tap, RandomDelivery):
        delivered = tap.tap_quantum_batch(delivered, reference)
    elif tap is not None:
        delivered = tap_quantum_batch(tap, delivered, reference)
    expected_bob, expected_alice = measure_session(op_key, delivered, reference)

    engine = np.random.default_rng(draw)
    bob, alice = protocol._quantum_stage(protocol._compile(tap), op_key, engine)
    assert bob.dtype == alice.dtype == np.uint8
    assert bob.tobytes() == expected_bob.tobytes()
    assert alice.tobytes() == expected_alice.tobytes()
    assert engine.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("tap", ENGINE_TAPS, ids=lambda tap: "none" if tap is None else tap.describe()["quantum"])
def test_compiling_a_strategy_warns_of_nothing(tap, recwarn):
    channel = protocol._compile(tap)
    assert not recwarn.list
    p_bob, p_alice, drawable = channel.tables
    assert len(p_bob) <= 4 and len(p_alice) == 2 * len(p_bob)
    if tap is not None and tap.quantum == "intercept_resend_z":
        # After Eve reads 0 on an op-0 pair, Bob reads 1 with probability
        # exactly 0: compiling that branch divides by nothing.
        assert np.allclose(channel.p_eve, 0.5) and p_bob[0] == 1.0 and not drawable[1]
    else:
        assert channel.p_eve is None and drawable is None


def test_a_drawn_zero_probability_outcome_raises():
    # Normalized within the 1e-9 tolerance, Bob reads 0 with probability
    # 1 - 5e-10, and reading 1 leaves a qubit of norm 1e-13 <= ATOL.
    pair = [np.sqrt(1 - 5e-10), 1e-13, 0, 0]
    channel = protocol._compile(Deliver(np.array([pair, pair], dtype=complex)))

    class Ones:
        def random(self, size):
            return np.full(size, 1.0 - 2**-53)

    with pytest.raises(RuntimeError, match="zero probability"):
        protocol._quantum_stage(channel, np.zeros(2, dtype=np.uint8), Ones())


# -- partition -------------------------------------------------------------------


def halves(check):
    """(odd, even): the bits at 1-based odd and at 1-based even positions of a check sequence."""
    odd = [bit for position, bit in enumerate(check, start=1) if position % 2 == 1]
    even = [bit for position, bit in enumerate(check, start=1) if position % 2 == 0]
    return as_bits(odd), as_bits(even)


def session_measuring(record, partition_key):
    """An original-variant session on forced keys (op key all I) whose tap
    delivers |b b> for each bit b of ``record``, so both parties measure
    ``record``.  On the identity classical channel Alice announces her
    check sequence's even half and Bob his odd half."""
    bits = as_bits(record)
    delivered = np.zeros((len(bits), 4), dtype=complex)
    delivered[np.arange(len(bits)), 3 * bits] = 1  # |00> or |11>
    keys = keys_for("0" * len(bits), partition_key)
    return run_session(ProtocolParams(n=len(bits) // 2), Deliver(delivered), seed=0, keys=keys)


def test_partition_walkthrough_alice():
    out = session_measuring("0011", "1100")
    assert to01(out.alice_bits) == "0011"
    assert to01(out.alice_raw_key) == "11"
    # the check sequence "00": odd half "0", even half "0"
    assert to01(out.check.announced_by_bob) == "0"
    assert to01(out.check.announced_by_alice) == "0"


def test_partition_walkthrough_bob():
    out = session_measuring("1100", "1100")
    assert to01(out.bob_bits) == "1100"
    assert to01(out.bob_raw_key) == "00"
    # the check sequence "11": odd half "1", even half "1"
    assert to01(out.check.announced_by_bob) == "1"
    assert to01(out.check.announced_by_alice) == "1"


def test_partition_all_raw_when_key_zero():
    out = session_measuring("101101", "000000")
    assert to01(out.alice_raw_key) == to01(out.bob_raw_key) == "101101"
    assert out.check.compared_bits_alice == out.check.compared_bits_bob == 0
    assert len(out.check.announced_by_alice) == len(out.check.announced_by_bob) == 0


def test_partition_odd_even_sizes():
    # check sequence "1010101" (the last position is raw)
    out = session_measuring("10101010", "11111110")
    assert to01(out.alice_raw_key) == "0"
    assert to01(out.check.announced_by_bob) == "1111"
    assert to01(out.check.announced_by_alice) == "000"
    assert out.check.compared_bits_alice == 4 and out.check.compared_bits_bob == 3


# -- announce-and-check exchanges --------------------------------------------------


def exchange_original(alice_check, bob_check, tau=0.0, channel=None):
    return protocol._exchange(as_bits(alice_check), as_bits(bob_check), VARIANT_ORIGINAL, channel, tau, None, 0)


def exchange_improved(alice_check, bob_check, hash_key, hash_bits, channel=None):
    alice_check, bob_check = as_bits(alice_check), as_bits(bob_check)
    return protocol._exchange(alice_check, bob_check, VARIANT_IMPROVED, channel, 0.0, as_bits(hash_key), hash_bits)


def test_original_honest_exchange_passes():
    result = exchange_original("0101", "0101")
    assert result.alice_pass and result.bob_pass
    assert result.check_mismatches_alice == result.check_mismatches_bob == 0


def test_original_walkthrough_flipped_announcements_fool_both():
    result = exchange_original("00", "11", channel=flip)
    assert result.alice_pass and result.bob_pass
    assert to01(result.received_by_alice) == "0"
    assert to01(result.received_by_bob) == "1"


def test_original_spin_flip_without_classical_flip_detected():
    # complementary measurement records, untampered announcements: every
    # compared bit mismatches
    result = exchange_original("00110101", flip("00110101"))
    assert not result.alice_pass and not result.bob_pass
    assert result.check_mismatches_alice == result.compared_bits_alice
    assert result.check_mismatches_bob == result.compared_bits_bob


def test_original_vacuous_pass_with_no_check_bits():
    result = exchange_original("", "", channel=flip)
    assert result.alice_pass and result.bob_pass
    assert result.compared_bits_alice == result.compared_bits_bob == 0


def test_original_threshold_tolerates_fraction():
    bob_check = as_bits("0000" + "0000")
    bob_check[0] ^= 1  # one corrupted check bit, at an odd (announced-by-bob) position
    tight = exchange_original("0000" + "0000", bob_check, tau=0.0)
    loose = exchange_original("0000" + "0000", bob_check, tau=0.5)
    assert not tight.alice_pass and tight.bob_pass
    assert loose.alice_pass and loose.bob_pass


def test_original_rejects_wrong_announcement_length():
    with pytest.raises(ProtocolError, match="length"):
        exchange_original("00", "11", channel=lambda bits: bits[:0])


def test_improved_honest_exchange_passes():
    kh = random_bits(np.random.default_rng(3), 128)
    result = exchange_improved("0101", "0101", kh, 16)
    assert result.alice_pass and result.bob_pass
    assert len(result.announced_by_alice) == 16


def test_improved_detects_flipped_digests():
    kh = random_bits(np.random.default_rng(4), 128)
    result = exchange_improved("0101", "0101", kh, 16, channel=flip)
    assert not result.alice_pass and not result.bob_pass


def test_improved_detects_complementary_records():
    kh = random_bits(np.random.default_rng(5), 128)
    result = exchange_improved("00110101", flip("00110101"), kh, 64)
    assert not result.alice_pass and not result.bob_pass


def test_improved_rejects_wrong_digest_length():
    kh = random_bits(np.random.default_rng(6), 128)
    with pytest.raises(ProtocolError, match="digest"):
        exchange_improved("00", "00", kh, 8, channel=lambda bits: bits[:4])


@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), max_size=40),
    st.floats(0.0, 1.0, exclude_max=True),
    st.booleans(),
    st.lists(st.integers(0, 1), min_size=MIN_HASH_KEY_BITS, max_size=MIN_HASH_KEY_BITS),
    st.integers(1, 24),
)
def test_exchanges_equal_a_direct_comparison(records, tau, tampered, hash_key, digest_len):
    # Random check sequences cut with one shared partition key, honest or
    # flipping classical channel: the original variant's counters and
    # verdicts are a plain bit comparison, and the improved variant's
    # digests are the reference keyed digest of the direction-tagged half.
    is_check = as_bits([k for _, _, k in records]) == 1
    alice_check = as_bits([a for a, _, _ in records])[is_check]
    bob_check = as_bits([b for _, b, _ in records])[is_check]
    (alice_odd, alice_even), (bob_odd, bob_even) = halves(alice_check), halves(bob_check)
    channel = flip if tampered else None
    deliver = flip if tampered else as_bits

    def digest(direction, half):
        return reference_digest(hash_key, [direction, *half], digest_len)

    original = exchange_original(alice_check, bob_check, tau, channel)
    improved = exchange_improved(alice_check, bob_check, hash_key, digest_len, channel)
    assert np.array_equal(improved.announced_by_alice, digest(0, alice_even))
    assert np.array_equal(improved.announced_by_bob, digest(1, bob_odd))
    # (side, what the other side announced, the side's own half, its direction)
    sides = (("alice", bob_odd, alice_odd, 1), ("bob", alice_even, bob_even, 0))
    for side, sent, own, direction in sides:
        received = deliver(sent)
        mismatches = int(np.count_nonzero(received != own))
        assert np.array_equal(getattr(original, f"received_by_{side}"), received)
        assert getattr(original, f"check_mismatches_{side}") == mismatches
        assert getattr(original, f"compared_bits_{side}") == len(own)
        assert getattr(original, f"{side}_pass") == (len(own) == 0 or mismatches / len(own) <= tau)

        received = deliver(digest(direction, sent))
        mismatches = int(np.count_nonzero(received != digest(direction, own)))
        assert np.array_equal(getattr(improved, f"received_by_{side}"), received)
        assert getattr(improved, f"check_mismatches_{side}") == mismatches
        assert getattr(improved, f"compared_bits_{side}") == digest_len
        assert getattr(improved, f"{side}_pass") == (mismatches == 0)


# -- full sessions -----------------------------------------------------------------


@pytest.mark.parametrize("variant", [VARIANT_ORIGINAL, VARIANT_IMPROVED])
def test_honest_sessions_complete(variant):
    params = ProtocolParams(n=8, variant=variant)
    for seed in range(40):
        out = run_session(params, None, seed=seed)
        assert not out.aborted
        assert np.array_equal(out.alice_bits, out.bob_bits)
        assert np.array_equal(out.alice_raw_key, out.bob_raw_key)
        assert np.array_equal(out.alice_session_key, out.bob_session_key)
        assert not out.detected_by_alice and not out.detected_by_bob
        # auto privacy amplification keeps half the raw key
        assert len(out.alice_session_key) == len(out.alice_raw_key) // 2


def test_session_outcome_invariants():
    params = ProtocolParams(n=6, variant=VARIANT_ORIGINAL)
    for seed in range(30):
        for adversary in (None, modification_attack(), intercept_resend_attack()):
            out = run_session(params, adversary, seed=seed)
            assert out.aborted == (out.detected_by_alice or out.detected_by_bob)
            assert (out.alice_session_key is not None) == (not out.aborted)
            assert (out.bob_session_key is not None) == (not out.aborted)
            assert len(out.alice_bits) == len(out.bob_bits) == 12


def test_session_deterministic_given_seed():
    params = ProtocolParams(n=8, variant=VARIANT_IMPROVED)
    a = run_session(params, modification_attack(), seed=99)
    b = run_session(params, modification_attack(), seed=99)
    assert a.to_dict() == b.to_dict()
    c = run_session(params, modification_attack(), seed=100)
    assert a.to_dict() != c.to_dict()


def test_modification_attack_corrupts_original_undetected():
    params = ProtocolParams(n=8, variant=VARIANT_ORIGINAL)
    for seed in range(40):
        out = run_session(params, modification_attack(), seed=seed)
        assert not out.aborted
        assert np.array_equal(out.bob_bits, 1 - out.alice_bits)
        assert np.array_equal(out.bob_raw_key, 1 - out.alice_raw_key)


def test_modification_attack_detected_by_improved():
    params = ProtocolParams(n=8, variant=VARIANT_IMPROVED)
    for seed in range(40):
        out = run_session(params, modification_attack(), seed=seed)
        assert out.aborted
        assert out.abort_reason == "check-mismatch"


def test_forced_keys_control_the_partition():
    keys = keys_for("0000", "1100")
    params = ProtocolParams(n=2, variant=VARIANT_ORIGINAL)
    out = run_session(params, None, seed=0, keys=keys)
    assert len(out.alice_raw_key) == 2
    assert out.check.compared_bits_alice == 1 and out.check.compared_bits_bob == 1


def test_explicit_pa_length():
    params = ProtocolParams(n=16, variant=VARIANT_ORIGINAL, pa_bits=4)
    out = run_session(params, None, seed=5)
    assert len(out.alice_session_key) == 4


def test_oversized_pa_request_aborts():
    keys = keys_for("0000", "1110")  # raw key is a single bit
    params = ProtocolParams(n=2, variant=VARIANT_ORIGINAL, pa_bits=8)
    out = run_session(params, None, seed=5, keys=keys)
    assert out.aborted
    assert out.abort_reason == "pa-output-exceeds-raw-key"
    assert out.detected_by_alice and out.detected_by_bob
    assert out.alice_session_key is None


def test_auto_pa_with_tiny_raw_key_yields_empty_session_key():
    keys = keys_for("00", "11")  # no raw positions at all
    params = ProtocolParams(n=1, variant=VARIANT_ORIGINAL)
    out = run_session(params, None, seed=5, keys=keys)
    assert not out.aborted
    assert out.alice_session_key is not None and len(out.alice_session_key) == 0
    assert len(out.alice_raw_key) == 0


def test_vacuous_check_flag():
    params = ProtocolParams(n=2, variant=VARIANT_ORIGINAL)
    no_checks = run_session(params, None, seed=1, keys=keys_for("0000", "0000"))
    assert no_checks.vacuous_check and not no_checks.aborted
    one_check = run_session(params, None, seed=1, keys=keys_for("0000", "0100"))
    assert one_check.vacuous_check
    two_checks = run_session(params, None, seed=1, keys=keys_for("0000", "0110"))
    assert not two_checks.vacuous_check


def test_raising_tau_never_flips_pass_to_fail():
    attack = intercept_resend_attack()
    for seed in range(40):
        passed = []
        for tau in (0.0, 0.2, 0.5):
            params = ProtocolParams(n=8, variant=VARIANT_ORIGINAL, tau=tau)
            passed.append(not run_session(params, attack, seed=seed).aborted)
        for lower, higher in zip(passed, passed[1:]):
            assert higher or not lower


def test_custom_strategy_duck_typing():
    # run_session only needs the two tap methods
    class Relabel:
        def tap_quantum_batch(self, states, rng):
            return states

        def tap_classical(self, bits):
            return bits

    params = ProtocolParams(n=4, variant=VARIANT_ORIGINAL)
    honest = run_session(params, None, seed=3)
    tapped = run_session(params, Relabel(), seed=3)
    assert honest.to_dict() == tapped.to_dict()


class DropLastQubit:
    """Delivers one flying qubit fewer than Alice sent."""

    def tap_quantum_batch(self, states, rng):
        return states[:-1]

    def tap_classical(self, bits):
        return bits


def test_batches_and_sweeps_never_run_privacy_amplification(monkeypatch):
    # count_sessions, under run_batch and search_attacks, reads counters and
    # raw keys only; the session keys are derived on their first read.
    run_session_unpatched = protocol.run_session
    outcomes = []

    def recorded(*args, **kwargs):
        outcomes.append(run_session_unpatched(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(protocol, "run_session", recorded)
    harness.run_batch(harness.RunConfig(protocol="improved", n=6, trials=20, seed=3))
    search_attacks("original", trials=2, n=4, seed=1)
    assert len(outcomes) == 20 + 2 * 12
    assert any(not out.aborted for out in outcomes)
    assert all("_session_keys" not in vars(out) for out in outcomes)
    for out in outcomes:
        assert (out.alice_session_key is None) == out.aborted
    assert all("_session_keys" in vars(out) for out in outcomes)


@pytest.mark.parametrize("variant", [VARIANT_ORIGINAL, VARIANT_IMPROVED])
def test_reading_the_session_keys_leaves_the_transcript_unchanged(variant):
    params = ProtocolParams(n=8, variant=variant, hash_bits=12)
    for seed in range(12):
        read_first, untouched = (run_session(params, None, seed=seed) for _ in range(2))
        alice_key = read_first.alice_session_key
        assert read_first.alice_session_key is alice_key  # derived once, then cached
        assert read_first.bob_session_key is not None
        assert read_first.to_dict() == untouched.to_dict()
        rendered = list(untouched.to_dict())
        assert rendered == list(read_first.to_dict()) == TRANSCRIPT_FIELDS


TRANSCRIPT_FIELDS = [
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
]


def test_malformed_delivery_aborts_with_an_empty_transcript():
    out = run_session(ProtocolParams(n=4, variant=VARIANT_ORIGINAL), DropLastQubit(), seed=0)
    empty = {name: "" for name in ("alice_bits", "bob_bits", "alice_raw_key", "bob_raw_key")}
    empty.update({f"{side}_by_{party}": "" for side in ("announced", "received") for party in ("alice", "bob")})
    counters = ("check_mismatches_alice", "check_mismatches_bob", "compared_bits_alice", "compared_bits_bob")
    assert out.to_dict() == {
        "aborted": True,
        "detected_by_alice": False,
        "detected_by_bob": True,
        "abort_reason": "expected 8 delivered qubits, got 7",
        "alice_session_key": None,
        "bob_session_key": None,
        "vacuous_check": True,
        "pa_seed": None,
        **empty,
        **dict.fromkeys(counters, 0),
    }
    counts = count_sessions(ProtocolParams(n=4), DropLastQubit(), range(3))
    assert (counts.sessions, counts.detected, counts.aborted, counts.vacuous) == (3, 3, 3, 3)
    assert counts.compared_bits == counts.mismatched_bits == 0


def test_count_sessions_equals_a_loop_over_run_session():
    params = ProtocolParams(n=8, variant=VARIANT_ORIGINAL, tau=0.1)
    seeds = [np.random.SeedSequence((3, trial)) for trial in range(120)]
    outcomes = [run_session(params, intercept_resend_attack(), seed=seed) for seed in seeds]
    expected = SessionCounts(
        sessions=len(outcomes),
        detected=sum(out.detected_by_alice or out.detected_by_bob for out in outcomes),
        aborted=sum(out.aborted for out in outcomes),
        matched=sum(np.array_equal(out.alice_raw_key, out.bob_raw_key) for out in outcomes),
        complemented=sum(np.array_equal(out.bob_raw_key, 1 - out.alice_raw_key) for out in outcomes),
        vacuous=sum(out.vacuous_check for out in outcomes),
        mismatched_bits=sum(out.check.check_mismatches_alice + out.check.check_mismatches_bob for out in outcomes),
        compared_bits=sum(out.check.compared_bits_alice + out.check.compared_bits_bob for out in outcomes),
    )
    assert count_sessions(params, intercept_resend_attack(), iter(seeds)) == expected
    # a mixed case: at tau=0.1 some sessions abort and some end with matching raw keys
    assert 0 < expected.detected < expected.sessions
    assert 0 < expected.matched < expected.sessions


def test_params_validation():
    with pytest.raises(ValueError, match=r"^n: must be >= 1, got 0$"):
        ProtocolParams(n=0)
    with pytest.raises(ValueError, match="^variant:"):
        ProtocolParams(n=1, variant="other")
    with pytest.raises(ValueError, match="^tau:"):
        ProtocolParams(n=1, tau=1.0)
    with pytest.raises(ValueError, match="^hash_bits:"):
        ProtocolParams(n=1, hash_bits=0)
    with pytest.raises(ValueError, match="^pa_bits:"):
        ProtocolParams(n=1, pa_bits=0)


def test_master_key_count_error_names_the_field():
    with pytest.raises(ValueError, match=r"^n: must be >= 1, got 0$"):
        generate_master_keys(0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^rng: required$"):
        generate_master_keys(2)


PARAM_TYPE_CASES = [
    ("n", 2.5),
    ("n", True),
    ("n", "4"),
    ("n", None),
    ("hash_bits", 8.0),
    ("hash_bits", False),
    ("pa_bits", 2.5),
    ("pa_bits", True),
    ("tau", True),
    ("tau", "0.1"),
    ("tau", None),
    ("tau", 0.1j),
]


@pytest.mark.parametrize("field, value", PARAM_TYPE_CASES)
def test_params_type_errors_name_the_field_in_run_session(field, value):
    with pytest.raises(ValueError, match=rf"^{field}: must be"):
        run_session(ProtocolParams(**{"n": 4, field: value}), None, seed=0)


@pytest.mark.parametrize("field, value", [case for case in PARAM_TYPE_CASES if case[0] in ("n", "hash_bits", "tau")])
def test_params_type_errors_name_the_field_in_search_attacks(field, value):
    with pytest.raises(ValueError, match=rf"^{field}: must be"):
        search_attacks("original", trials=1, **{field: value})


def test_session_with_numpy_integer_params_renders_to_json():
    # numpy integers pass ProtocolParams; the transcript's counters must
    # still be Python ints, or json.dumps of to_dict() fails.
    params = ProtocolParams(n=4, variant=VARIANT_IMPROVED, hash_bits=np.int64(8))
    data = run_session(params, None, seed=0).to_dict()
    json.dumps(data)
    counters = [name for name in data if name.startswith(("compared_bits_", "check_mismatches_"))]
    assert len(counters) == 4
    assert all(type(data[name]) is int for name in counters)


def test_params_accept_numpy_integers():
    params = ProtocolParams(n=np.int64(4), hash_bits=np.int32(8), pa_bits=np.int16(1))
    out = run_session(params, None, seed=2)
    assert len(out.alice_bits) == 8


@pytest.mark.parametrize("variant", [VARIANT_ORIGINAL, VARIANT_IMPROVED])
def test_session_keys_and_digests_equal_the_public_helpers(variant):
    # run_session calls the trusted hashing cores once per session; its
    # session keys must be what the checked privacy_amplify gives, and its
    # announced digests what the reference digest gives, for the same inputs.
    params = ProtocolParams(n=12, variant=variant, hash_bits=20)
    reached_pa = 0
    for seed in range(30):
        keys = generate_master_keys(12, rng=np.random.default_rng(seed))
        out = run_session(params, None, seed=seed, keys=keys)
        if out.alice_session_key is not None and len(out.alice_session_key):
            reached_pa += 1
            out_len = len(out.alice_raw_key) // 2
            assert np.array_equal(out.alice_session_key, privacy_amplify(out.alice_raw_key, out.pa_seed, out_len))
            assert np.array_equal(out.bob_session_key, privacy_amplify(out.bob_raw_key, out.pa_seed, out_len))
        if variant == VARIANT_IMPROVED:
            is_check = keys.partition_key == 1
            _, alice_even = halves(out.alice_bits[is_check])
            bob_odd, _ = halves(out.bob_bits[is_check])
            announced = (out.check.announced_by_alice, out.check.announced_by_bob)
            announcements = ((0, alice_even, announced[0]), (1, bob_odd, announced[1]))
            for direction, half, announced in announcements:
                assert np.array_equal(announced, reference_digest(keys.hash_key, [direction, *half], 20))
    assert reached_pa >= 20
