"""Protocol engine tests: keys, partition, exchanges, full sessions."""

import functools
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqkdlab import harness, hashing, protocol
from sqkdlab.adversary import (
    CLASSICAL_POLICIES,
    SEARCH_GATE_NAMES,
    AdversaryStrategy,
    intercept_resend_attack,
    modification_attack,
)
from sqkdlab.bits import TrialStreams, as_bits, random_bits, to01, trial_stream
from sqkdlab.hashing import privacy_amplify
from sqkdlab.protocol import (
    MAX_HASH_BITS,
    MAX_N,
    MIN_HASH_KEY_BITS,
    VARIANT_IMPROVED,
    VARIANT_ORIGINAL,
    VARIANTS,
    MasterKeys,
    ProtocolParams,
    SessionCounts,
    count_sessions,
    run_session,
)
from sqkdlab.qsim import GATE_NAMES, bell_batch

from oracles import (
    bob_gated,
    generate_master_keys,
    measure_session,
    prepare,
    reference_digest,
    session_transcript,
    stream_position,
    tap_quantum_batch,
)

SQRT_HALF = 1 / np.sqrt(2)


def keys_for(op_key, partition_key, hash_bits=128):
    return MasterKeys(op_key, partition_key, np.zeros(hash_bits, dtype=np.uint8))


# -- master keys ----------------------------------------------------------------


def test_draw_keys_reproducible():
    a = protocol._draw_keys(np.random.default_rng(5), 8, False)
    b = protocol._draw_keys(np.random.default_rng(5), 8, False)
    for drawn, again in zip(a, b):
        assert np.array_equal(drawn, again)


def test_draw_keys_lengths():
    for balanced_k2 in (False, True):
        op_key, partition_key, hash_key = protocol._draw_keys(np.random.default_rng(0), 2, balanced_k2)
        assert len(op_key) == len(partition_key) == 4
        assert len(hash_key) == MIN_HASH_KEY_BITS


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    st.booleans(),
    st.integers(0, 9),
    st.integers(0, 2),
    st.sampled_from([np.random.PCG64, np.random.MT19937, np.random.Philox]),
    st.integers(0, 2**32 - 1),
)
def test_draw_keys_equal_successive_numpy_draws(n, balanced_k2, bits_before, doubles, bit_generator, seed):
    # The keys are numpy's own calls in turn: three integers draws of 2n,
    # 2n and MIN_HASH_KEY_BITS bits, or with balanced_k2 the op key's,
    # a permutation whose first n positions are the check positions, and
    # the hash key's.  The same bits, and the stream left in the same
    # place, so the uniforms and bits that follow are the same too.  Bits
    # drawn before take ceil(bits / 4) 32-bit words, and an odd count of
    # them leaves a PCG64 half-word buffered.
    ours, reference = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    for rng in (ours, reference):
        rng.integers(0, 2, size=bits_before, dtype=np.uint8)
    keys = protocol._draw_keys(ours, n, balanced_k2)
    op_key = reference.integers(0, 2, size=2 * n, dtype=np.uint8)
    if balanced_k2:
        partition_key = np.zeros(2 * n, dtype=np.uint8)
        partition_key[reference.permutation(2 * n)[:n]] = 1
    else:
        partition_key = reference.integers(0, 2, size=2 * n, dtype=np.uint8)
    hash_key = reference.integers(0, 2, size=MIN_HASH_KEY_BITS, dtype=np.uint8)
    for drawn, expected in zip(keys, (op_key, partition_key, hash_key)):
        assert drawn.dtype == np.uint8
        assert drawn.tobytes() == expected.tobytes()
    assert np.array_equal(ours.random(doubles), reference.random(doubles))
    assert np.array_equal(random_bits(ours, 24), reference.integers(0, 2, size=24, dtype=np.uint8))


def test_draw_keys_balanced():
    for seed in range(20):
        _, partition_key, _ = protocol._draw_keys(np.random.default_rng(seed), 16, True)
        assert int(partition_key.sum()) == 16


def test_partition_key_bits_are_uniform():
    total = ones = 0
    for seed in range(10_000):
        _, partition_key, _ = protocol._draw_keys(np.random.default_rng(seed), 32, False)
        ones += int(partition_key.sum())
        total += len(partition_key)
    assert 0.48 <= ones / total <= 0.52


def test_master_keys_validation():
    with pytest.raises(ValueError, match=r"^partition_key: must have equal length to op_key \(2 bits\), got 4$"):
        keys_for("00", "0000")
    with pytest.raises(ValueError, match=r"^op_key: must have positive even length \(2n bits\), got 3$"):
        keys_for("000", "000")
    with pytest.raises(ValueError, match=r"^op_key: must have positive even length \(2n bits\), got 0$"):
        keys_for("", "")


@pytest.mark.parametrize(
    "field, keys",
    [
        ("op_key", ("012", "0101", "0" * 128)),
        ("partition_key", ("0101", "01x1", "0" * 128)),
        ("hash_key", ("0101", "0101", None)),
        ("hash_key", ("0101", "0101", "2" * 128)),
    ],
)
def test_master_keys_non_binary_errors_name_the_field(field, keys):
    with pytest.raises(ValueError, match=rf"^{field}: bit sequence may only contain 0 and 1$"):
        MasterKeys(*keys)


@pytest.mark.parametrize(
    "field, keys",
    [
        ("op_key", ([[0, 1], [1, 0]], "0101", "0" * 128)),
        ("partition_key", ("0101", np.zeros((2, 2), dtype=np.uint8), "0" * 128)),
        ("hash_key", ("0101", "0101", np.zeros((2, 64), dtype=np.uint8))),
    ],
)
def test_master_keys_refuse_a_stacked_key_by_field_name(field, keys):
    # Flattened, a (2, 2) key would pass as its four bits, row after row.
    with pytest.raises(ValueError, match=rf"^{field}: bit sequence must be one-dimensional, got shape \(2, "):
        MasterKeys(*keys)


def test_size_caps_name_the_field_before_anything_is_drawn():
    # Constructing params allocates nothing, so the caps are tested at and
    # just past their bounds without building a state.
    ProtocolParams(n=MAX_N, hash_bits=MAX_HASH_BITS)
    with pytest.raises(ValueError, match=rf"^n: must be <= {MAX_N}, got {MAX_N + 1}$"):
        ProtocolParams(n=MAX_N + 1)
    with pytest.raises(ValueError, match=rf"^hash_bits: must be <= {MAX_HASH_BITS}, got {10**12}$"):
        ProtocolParams(n=1, hash_bits=10**12)
    with pytest.raises(ValueError, match=rf"^n: must be <= {MAX_N}, got {10**9}$"):
        harness.run_search(harness.RunConfig(protocol="original", n=10**9, trials=1))
    # The cap's arithmetic: one array of 2n uniforms, 53-bit integers in uint64 words.
    assert 2 * MAX_N * np.dtype(np.uint64).itemsize == 16 * 2**20


def test_master_keys_reject_a_short_hash_key():
    # Checked where the key enters: a session never meets a hash key
    # shorter than the digests' minimum.
    keys_for("0000", "0110", hash_bits=MIN_HASH_KEY_BITS)
    with pytest.raises(ValueError, match=rf"^hash_key: must be at least {MIN_HASH_KEY_BITS} bits, got 127$"):
        keys_for("0000", "0110", hash_bits=MIN_HASH_KEY_BITS - 1)


# -- preparation and measurement --------------------------------------------------


def prepared(keys, n):
    """The prepared pairs: the prepared row of each pair's op bit."""
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


def random_rows(rng, count):
    """``count`` random normalized pair states."""
    rows = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def uniform_words(rng, count):
    """``rng.random(count)`` as the 53-bit integers the quantum stage
    compares: each double is one of them times 2**-53, so this is exact."""
    return (rng.random(count) * 2**53).astype(np.uint64)


def measured_per_pair(rows, op_key, rng):
    """The quantum stage's draws with one class per delivered row: the
    class tables of ``rows`` (``protocol._tables``, each row with its op
    bit), each pair labelled by its position."""
    channel = protocol._Channel(None, protocol._tables(rows, op_key), 0)
    return protocol._quantum_stage(channel, np.arange(len(rows)), uniform_words(rng, 2 * len(rows)))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 350), st.integers(0, 2**32 - 1), st.booleans())
def test_measurements_equal_collapsing_whole_pairs(n, seed, session_like):
    # A session's bits are those that collapsing all four amplitudes of
    # each pair twice gives, on what a gate-tapped session delivers, and
    # the class tables' draws are, on random normalized rows.
    rng = np.random.default_rng(seed)
    keys = MasterKeys(random_bits(rng, 2 * n), random_bits(rng, 2 * n), random_bits(rng, MIN_HASH_KEY_BITS))
    if session_like:
        gate = AdversaryStrategy("gate_all", str(rng.choice(["I", "X", "Y", "Z", "H", "SPIN_FLIP"])))
        delivered = tap_quantum_batch(gate, prepare(keys.op_key), rng)
    else:
        delivered = random_rows(rng, 2 * n)
    draw = int(rng.integers(2**32))
    expected_bob, expected_alice = measure_session(keys.op_key, delivered, np.random.default_rng(draw))
    if session_like:
        out = run_session(ProtocolParams(n=n), gate, seed=np.random.default_rng(draw), keys=keys)
        bob, alice = out.bob_bits, out.alice_bits
    else:
        bob, alice = measured_per_pair(delivered, keys.op_key, np.random.default_rng(draw))
    assert bob.tobytes() == expected_bob.tobytes()
    assert alice.tobytes() == expected_alice.tobytes()


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


ENGINE_TAPS = [None, *(AdversaryStrategy("gate_all", name) for name in GATE_NAMES), intercept_resend_attack()]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 600),
    st.sampled_from([*ENGINE_TAPS, "random rows"]),
    st.sampled_from(["random", "zeros", "ones", "one"]),
    st.integers(0, 2**32 - 1),
)
def test_quantum_stage_is_byte_equal_to_the_whole_pair_oracle(n, tap, pattern, seed):
    # The class-table engine against every pair state of the session:
    # prepare, tap and measure (2n, 4) arrays, collapsing all four
    # amplitudes.  Same bits, and the stream ends in the same place.  Random
    # normalized rows, one class per pair, measure through the tables too.
    rng = np.random.default_rng(seed)
    op_key = {
        "random": random_bits(rng, 2 * n),
        "zeros": np.zeros(2 * n, dtype=np.uint8),
        "ones": np.ones(2 * n, dtype=np.uint8),
        "one": (np.arange(2 * n) == rng.integers(2 * n)).astype(np.uint8),
    }[pattern]
    draw = int(rng.integers(2**32))

    reference, engine = np.random.default_rng(draw), np.random.default_rng(draw)
    if tap == "random rows":
        delivered = random_rows(rng, 2 * n)
        bob, alice = measured_per_pair(delivered, op_key, engine)
    else:
        delivered = prepare(op_key)
        if tap is not None:
            delivered = tap_quantum_batch(tap, delivered, reference)
        channel = protocol._compile(tap)
        # Eve's row of uniforms when she measures, then Bob's and Alice's.
        uniforms = uniform_words(engine, (2 if channel.p_eve is None else 3) * 2 * n)
        bob, alice = protocol._quantum_stage(channel, op_key, uniforms)
    expected_bob, expected_alice = measure_session(op_key, delivered, reference)
    assert bob.dtype == alice.dtype == np.uint8
    assert bob.tobytes() == expected_bob.tobytes()
    assert alice.tobytes() == expected_alice.tobytes()
    assert engine.bit_generator.state == reference.bit_generator.state


def test_bob_gates_a_lone_h_row_as_the_oracle_does(monkeypatch):
    # An op key with a single 1 bit gates one delivered row.  The engine's
    # gated rows, as Bob's measurement receives them, are the oracle's
    # bytes: both pick the row from a product over every row.
    z_branches_unpatched = protocol.z_branches
    measured = []

    def recorded(states, target):
        measured.append(np.array(states))
        return z_branches_unpatched(states, target)

    monkeypatch.setattr(protocol, "z_branches", recorded)
    rng = np.random.default_rng(29)
    for n in (1, 2, 3, 8, 33):
        for position in sorted({0, n, 2 * n - 1}):
            op_key = (np.arange(2 * n) == position).astype(np.uint8)
            delivered = random_rows(rng, 2 * n)
            measured.clear()
            protocol._tables(delivered, op_key)
            (gated,) = measured
            assert gated.tobytes() == bob_gated(op_key, delivered).tobytes(), (n, position)


@pytest.mark.parametrize("tap", ENGINE_TAPS, ids=lambda tap: "none" if tap is None else tap.describe()["quantum"])
def test_compiling_a_strategy_warns_of_nothing(tap, recwarn):
    channel = protocol._compile(tap)
    assert not recwarn.list
    p_bob, p_alice, drawable = channel.tables
    assert len(p_bob) <= 4 and len(p_alice) == 2 * len(p_bob)
    if tap is not None and tap.quantum == "intercept_resend_z":
        # After Eve reads 0 on an op-0 pair, Bob reads 1 with probability
        # exactly 0: compiling that branch divides by nothing.  Tables hold
        # thresholds ceil(p * 2**53): 2**53 for p = 1, about 2**52 for
        # Eve's p of 1/2 (the Born values fall an ulp or two below it).
        assert np.allclose(channel.p_eve, 2**52) and p_bob[0] == 2**53 and not drawable[1]
    else:
        assert channel.p_eve is None and drawable is None


def test_a_drawn_zero_probability_outcome_raises():
    # Normalized within the 1e-9 tolerance, Bob reads 0 with probability
    # 1 - 5e-10, and reading 1 leaves a qubit of norm 1e-13 <= ATOL.
    pair = [np.sqrt(1 - 5e-10), 1e-13, 0, 0]
    rows = np.array([pair, pair], dtype=complex)
    channel = protocol._Channel(None, protocol._tables(rows, np.array([0, 1])), 0)
    with pytest.raises(RuntimeError, match="zero probability"):
        protocol._quantum_stage(channel, np.zeros(2, dtype=np.uint8), np.full(4, 2**53 - 1, dtype=np.uint64))


# -- partition -------------------------------------------------------------------


def halves(check):
    """(odd, even): the bits at 1-based odd and at 1-based even positions of a check sequence."""
    odd = [bit for position, bit in enumerate(check, start=1) if position % 2 == 1]
    even = [bit for position, bit in enumerate(check, start=1) if position % 2 == 0]
    return as_bits(odd), as_bits(even)


def session_measuring(record, partition_key):
    """An honest original-variant session on forced keys whose quantum
    stage is patched so that both parties measure ``record``.  Alice
    announces her check sequence's even half and Bob his odd half."""
    bits = as_bits(record)
    keys = keys_for("0" * len(bits), partition_key)
    with mock.patch.object(protocol, "_quantum_stage", return_value=(bits, bits)):
        return run_session(ProtocolParams(n=len(bits) // 2), None, seed=0, keys=keys)


def test_partition_walkthrough_alice():
    out = session_measuring("0011", "1100")
    assert to01(out.alice_bits) == "0011"
    assert to01(out.alice_raw_key) == "11"
    # the check sequence "00": odd half "0", even half "0"
    assert to01(out.announced_by_bob) == "0"
    assert to01(out.announced_by_alice) == "0"


def test_partition_walkthrough_bob():
    out = session_measuring("1100", "1100")
    assert to01(out.bob_bits) == "1100"
    assert to01(out.bob_raw_key) == "00"
    # the check sequence "11": odd half "1", even half "1"
    assert to01(out.announced_by_bob) == "1"
    assert to01(out.announced_by_alice) == "1"


def test_partition_all_raw_when_key_zero():
    out = session_measuring("101101", "000000")
    assert to01(out.alice_raw_key) == to01(out.bob_raw_key) == "101101"
    assert out.compared_bits_alice == out.compared_bits_bob == 0
    assert len(out.announced_by_alice) == len(out.announced_by_bob) == 0


def test_partition_odd_even_sizes():
    # check sequence "1010101" (the last position is raw)
    out = session_measuring("10101010", "11111110")
    assert to01(out.alice_raw_key) == "0"
    assert to01(out.announced_by_bob) == "1111"
    assert to01(out.announced_by_alice) == "000"
    assert out.compared_bits_alice == 4 and out.compared_bits_bob == 3


# -- announce-and-check exchanges --------------------------------------------------


class Exchange:
    """The exchange of a session whose channel XORs ``flipped`` onto every
    announced bit: its passes and counters counted from the check
    sequences' difference (``_difference_check``), and its announcements
    (``_announcements``) derived on their first read."""

    def __init__(self, alice_check, bob_check, variant, tau, flipped, hash_key, hash_bits):
        check_differ = alice_check ^ bob_check
        differing = int(np.count_nonzero(check_differ))
        detected_alice, detected_bob, *counters = protocol._difference_check(
            check_differ, len(check_differ), differing, variant, flipped, tau, hash_key, hash_bits
        )
        self.alice_pass, self.bob_pass = not detected_alice, not detected_bob
        self.check_mismatches_alice, self.check_mismatches_bob = counters[:2]
        self.compared_bits_alice, self.compared_bits_bob = counters[2:]
        self._inputs = (alice_check, bob_check, variant, flipped, hash_key, hash_bits)

    @functools.cached_property
    def _arrays(self):
        return protocol._announcements(*self._inputs)

    announced_by_alice = property(lambda self: self._arrays[0])
    announced_by_bob = property(lambda self: self._arrays[1])
    received_by_alice = property(lambda self: self._arrays[2])
    received_by_bob = property(lambda self: self._arrays[3])


def exchange_original(alice_check, bob_check, tau=0.0, flipped=0):
    return Exchange(as_bits(alice_check), as_bits(bob_check), VARIANT_ORIGINAL, tau, flipped, None, 0)


def exchange_improved(alice_check, bob_check, hash_key, hash_bits, flipped=0):
    alice_check, bob_check, hash_key = as_bits(alice_check), as_bits(bob_check), as_bits(hash_key)
    return Exchange(alice_check, bob_check, VARIANT_IMPROVED, 0.0, flipped, hash_key, hash_bits)


def test_original_honest_exchange_passes():
    result = exchange_original("0101", "0101")
    assert result.alice_pass and result.bob_pass
    assert result.check_mismatches_alice == result.check_mismatches_bob == 0


def test_original_walkthrough_flipped_announcements_fool_both():
    result = exchange_original("00", "11", flipped=1)
    assert result.alice_pass and result.bob_pass
    assert to01(result.received_by_alice) == "0"
    assert to01(result.received_by_bob) == "1"


def test_original_spin_flip_without_classical_flip_detected():
    # complementary measurement records, untampered announcements: every
    # compared bit mismatches
    result = exchange_original("00110101", "11001010")
    assert not result.alice_pass and not result.bob_pass
    assert result.check_mismatches_alice == result.compared_bits_alice
    assert result.check_mismatches_bob == result.compared_bits_bob


def test_original_vacuous_pass_with_no_check_bits():
    result = exchange_original("", "", flipped=1)
    assert result.alice_pass and result.bob_pass
    assert result.compared_bits_alice == result.compared_bits_bob == 0


def test_improved_empty_halves_still_compare_digests():
    # With no check bits both halves are empty, but each is still announced
    # as a keyed digest of its direction tag: 16 bits compared on each side,
    # and a channel that flips every announced bit is detected by both.
    kh = random_bits(np.random.default_rng(3), 128)
    result = exchange_improved("", "", kh, 16, flipped=1)
    assert not result.alice_pass and not result.bob_pass
    assert result.compared_bits_alice == result.compared_bits_bob == 16
    assert result.check_mismatches_alice == result.check_mismatches_bob == 16
    assert len(result.announced_by_alice) == len(result.received_by_bob) == 16


def test_original_threshold_tolerates_fraction():
    bob_check = as_bits("0000" + "0000")
    bob_check[0] ^= 1  # one corrupted check bit, at an odd (announced-by-bob) position
    tight = exchange_original("0000" + "0000", bob_check, tau=0.0)
    loose = exchange_original("0000" + "0000", bob_check, tau=0.5)
    assert not tight.alice_pass and tight.bob_pass
    assert loose.alice_pass and loose.bob_pass


def test_improved_honest_exchange_passes():
    kh = random_bits(np.random.default_rng(3), 128)
    result = exchange_improved("0101", "0101", kh, 16)
    assert result.alice_pass and result.bob_pass
    assert len(result.announced_by_alice) == 16


def test_improved_detects_flipped_digests():
    kh = random_bits(np.random.default_rng(4), 128)
    result = exchange_improved("0101", "0101", kh, 16, flipped=1)
    assert not result.alice_pass and not result.bob_pass


def test_improved_detects_complementary_records():
    kh = random_bits(np.random.default_rng(5), 128)
    result = exchange_improved("00110101", "11001010", kh, 64)
    assert not result.alice_pass and not result.bob_pass


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), max_size=120),
    st.floats(0.0, 1.0, exclude_max=True),
    st.booleans(),
    st.lists(st.integers(0, 1), min_size=MIN_HASH_KEY_BITS, max_size=MIN_HASH_KEY_BITS),
    st.integers(1, 70),
    st.integers(1, 80),
)
def test_exchanges_equal_a_direct_comparison(records, tau, tampered, hash_key, digest_len, block_items):
    # Random check sequences cut with one shared partition key, honest or
    # flipping classical channel: the original variant's counters and
    # verdicts are a plain bit comparison, and the improved variant's
    # digests are the reference keyed digest of the direction-tagged half.
    # Small block caps split the laid-out digests' product into many row
    # and column blocks; check sequences of odd, even and 0-1 bits leave
    # the even half padded, unpadded and empty.
    is_check = as_bits([k for _, _, k in records]) == 1
    alice_check = as_bits([a for a, _, _ in records])[is_check]
    bob_check = as_bits([b for _, b, _ in records])[is_check]
    (alice_odd, alice_even), (bob_odd, bob_even) = halves(alice_check), halves(bob_check)
    flipped = int(tampered)

    def digest(direction, half):
        return reference_digest(hash_key, [direction, *half], digest_len)

    original = exchange_original(alice_check, bob_check, tau, flipped)
    with mock.patch.object(hashing, "_BLOCK_ITEMS", block_items):
        improved = exchange_improved(alice_check, bob_check, hash_key, digest_len, flipped)
        improved.announced_by_alice  # derive the digests under the small block cap
        # The identity one encoder per variant rests on: side by side, two
        # sequences' tagged encodings XOR to their difference's untagged one.
        for variant in VARIANTS:
            encode, key = protocol._EXCHANGES[variant][0], as_bits(hash_key)
            alice_sides, bob_sides = (encode(check, key, digest_len, True) for check in (alice_check, bob_check))
            differ_sides = encode(alice_check ^ bob_check, key, digest_len, False)
            for side in range(2):
                assert np.array_equal(alice_sides[side] ^ bob_sides[side], differ_sides[side])
    assert np.array_equal(improved.announced_by_alice, digest(0, alice_even))
    assert np.array_equal(improved.announced_by_bob, digest(1, bob_odd))
    # (side, what the other side announced, the side's own half, its direction)
    sides = (("alice", bob_odd, alice_odd, 1), ("bob", alice_even, bob_even, 0))
    for side, sent, own, direction in sides:
        received = sent ^ flipped
        mismatches = int(np.count_nonzero(received != own))
        assert np.array_equal(getattr(original, f"received_by_{side}"), received)
        assert getattr(original, f"check_mismatches_{side}") == mismatches
        assert getattr(original, f"compared_bits_{side}") == len(own)
        assert getattr(original, f"{side}_pass") == (len(own) == 0 or mismatches / len(own) <= tau)

        received = digest(direction, sent) ^ flipped
        mismatches = int(np.count_nonzero(received != digest(direction, own)))
        assert np.array_equal(getattr(improved, f"received_by_{side}"), received)
        assert getattr(improved, f"check_mismatches_{side}") == mismatches
        assert getattr(improved, f"compared_bits_{side}") == digest_len
        assert getattr(improved, f"{side}_pass") == (mismatches == 0)


ONES_KEY = [1] * MIN_HASH_KEY_BITS


def hashing_forbidden():
    """A patch under which the session's hashing cores raise if called."""
    hashed = mock.Mock(side_effect=AssertionError("hashed a zero check difference"))
    return mock.patch.multiple(protocol, _expand=hashed, _toeplitz_product=hashed)


def untagged_forbidden(*variants):
    """A patch under which ``variants``' encoders raise on an untagged
    encoding, the one a check difference gets; announcements still encode."""

    def guarded(encode):
        def encode_tagged_only(check, hash_key, hash_bits, tagged):
            if not tagged:
                raise AssertionError("encoded a constant check difference")
            return encode(check, hash_key, hash_bits, tagged)

        return encode_tagged_only

    exchanges = protocol._EXCHANGES
    return mock.patch.dict(exchanges, {v: (guarded(exchanges[v][0]), *exchanges[v][1:]) for v in variants})


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=120),
    st.booleans(),
    st.integers(1, 70),
    st.floats(0.0, 1.0, exclude_max=True),
    st.lists(st.integers(0, 1), min_size=MIN_HASH_KEY_BITS, max_size=MIN_HASH_KEY_BITS),
)
@example([], False, 1, 0.0, ONES_KEY)
@example([], True, 70, 0.0, ONES_KEY)
@example([1], True, 1, 0.0, ONES_KEY)
@example([1, 0], False, 64, 0.5, ONES_KEY)
@example([0, 1, 1], True, 8, 0.0, ONES_KEY)
@example([0, 1] * 59 + [1], False, 70, 0.0, ONES_KEY)
@example([1, 0, 0] * 40, True, 33, 0.0, ONES_KEY)
@example([1] * 120, True, 2, 0.9, ONES_KEY)
def test_a_zero_check_difference_counts_as_the_exchange_does(check, tampered, digest_len, tau, hash_key):
    # Both check sequences equal, of lengths 0, 1, 2 and odd and even up to
    # 120: the difference is zero, so the improved variant encodes it with
    # no product, and on a flipping channel every digest bit mismatches and
    # both sides detect.  The counters and verdicts are those of comparing
    # the announcements, derived afterwards with the real cores: with equal
    # sequences, each side expects what the other announced.
    alice_check, key, flip_bit = as_bits(check), as_bits(hash_key), int(tampered)
    for variant, bits, passing in ((VARIANT_ORIGINAL, 0, tau), (VARIANT_IMPROVED, digest_len, 0.0)):
        with hashing_forbidden():
            counted = Exchange(alice_check, alice_check.copy(), variant, tau, flip_bit, key, bits)
        by_alice, by_bob, received_by_alice, received_by_bob = counted._arrays
        for side, received, expected in (("alice", received_by_alice, by_bob), ("bob", received_by_bob, by_alice)):
            mismatches = int(np.count_nonzero(received != expected))
            assert getattr(counted, f"check_mismatches_{side}") == mismatches
            assert getattr(counted, f"compared_bits_{side}") == len(expected)
            assert getattr(counted, f"{side}_pass") == (len(expected) == 0 or mismatches / len(expected) <= passing)
    # counted is now the improved variant's check.
    for side in ("alice", "bob"):
        assert getattr(counted, f"compared_bits_{side}") == digest_len
        assert getattr(counted, f"check_mismatches_{side}") == (digest_len if tampered else 0)
        assert getattr(counted, f"{side}_pass") is not tampered


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 1), max_size=120),
    st.booleans(),
    st.integers(1, 70),
    st.floats(0.0, 1.0, exclude_max=True),
    st.lists(st.integers(0, 1), min_size=MIN_HASH_KEY_BITS, max_size=MIN_HASH_KEY_BITS),
)
@example([], False, 1, 0.0, ONES_KEY)
@example([], True, 70, 0.0, ONES_KEY)
@example([1], False, 1, 0.0, ONES_KEY)
@example([0, 1], True, 64, 0.5, ONES_KEY)
@example([0, 1, 1], False, 8, 0.9, ONES_KEY)
@example([1, 0, 0] * 40, True, 33, 0.0, ONES_KEY)
def test_a_full_check_difference_counts_as_the_exchange_does(check, tampered, digest_len, tau, hash_key):
    # Bob's check sequence is the complement of Alice's, of lengths 0, 1, 2
    # and odd and even up to 120, so every check bit differs.  The original
    # variant counts that from its halves' lengths with no untagged
    # encoding; the improved one encodes it, as cut or uncut (None, as
    # run_session passes it).  Either way the counters and verdicts are
    # those of comparing the announcements, derived with the real encoders:
    # each side compares what it received against its own retained half.
    alice_check, key, flip_bit = as_bits(check), as_bits(hash_key), int(tampered)
    bob_check, checks = alice_check ^ 1, len(alice_check)
    for variant, bits, passing in ((VARIANT_ORIGINAL, 0, tau), (VARIANT_IMPROVED, digest_len, 0.0)):
        with untagged_forbidden(VARIANT_ORIGINAL):
            counts = [
                protocol._difference_check(differ, checks, checks, variant, flip_bit, tau, key, bits)
                for differ in (alice_check ^ bob_check, None)
            ]
        received = protocol._announcements(alice_check, bob_check, variant, flip_bit, key, bits)[2:]
        own = (
            protocol._announcements(alice_check, alice_check, variant, 0, key, bits)[1],
            protocol._announcements(bob_check, bob_check, variant, 0, key, bits)[0],
        )
        mismatches = [int(np.count_nonzero(got != kept)) for got, kept in zip(received, own)]
        compared = [len(kept) for kept in own]
        detected = [c > 0 and m / c > passing for m, c in zip(mismatches, compared)]
        assert counts == [(*detected, *mismatches, *compared)] * 2
        if variant == VARIANT_ORIGINAL:
            # The plain halves: every compared bit mismatches unless the channel flips it back.
            assert mismatches == ([0, 0] if tampered else compared)


@pytest.mark.parametrize("n", [1, 2, 32])
def test_a_zero_check_difference_is_counted_without_encoding(n):
    # Honest sessions, and a channel that flips every announcement and
    # leaves every qubit alone, have a zero check difference in every
    # session: both variants count it from their side lengths with no
    # untagged encoding, and the counts are those of the real encoders.
    flip_only = AdversaryStrategy.from_description({"quantum": "gate_all:i", "classical": "flip_all"})
    for variant, adversary in itertools.product(VARIANTS, (None, flip_only)):
        params = ProtocolParams(n=n, variant=variant)
        expected = count_sessions(params, adversary, TrialStreams((11,), 200))
        with untagged_forbidden(*VARIANTS):
            assert count_sessions(params, adversary, TrialStreams((11,), 200)) == expected
        assert (expected.detected > 0) == (adversary is not None)


@pytest.mark.parametrize("n", [1, 2, 32])
def test_a_full_check_difference_is_counted_without_encoding_by_the_original_variant(n):
    # Y or a spin flip on every qubit complements Bob's record in every
    # session, with or without every announcement flipped (the spin flip
    # with flip_all is modification_attack()).  The original variant counts
    # that full difference from its halves' lengths with no untagged
    # encoding, and the counts are those of the real encoder.  The improved
    # variant's digest of all ones depends on the hash key, so it encodes
    # the difference in every session with a check bit, and it detects
    # every modification session.
    channels = [
        modification_attack(),
        AdversaryStrategy("gate_all", "Y"),
        AdversaryStrategy("gate_all", "SPIN_FLIP"),
        AdversaryStrategy("gate_all", "Y", "flip_all"),
    ]
    trials = 200
    original, improved = (ProtocolParams(n=n, variant=variant) for variant in VARIANTS)
    # Keys are drawn first, so a trial's check set is the same on every channel.
    seeds = (np.random.SeedSequence((11, t)) for t in range(trials))
    with_checks = sum(run_session(original, None, seed=seed).compared_bits_alice > 0 for seed in seeds)
    encode, *rest = protocol._EXCHANGES[VARIANT_IMPROVED]
    for adversary in channels:
        expected = count_sessions(original, adversary, TrialStreams((11,), trials))
        with untagged_forbidden(VARIANT_ORIGINAL):
            assert count_sessions(original, adversary, TrialStreams((11,), trials)) == expected
        assert expected.complemented == trials
        if protocol._compile(adversary).flip:
            assert expected.detected == 0 and expected.mismatched_bits == 0
        else:
            assert expected.mismatched_bits == expected.compared_bits
        counting = mock.Mock(wraps=encode)
        with mock.patch.dict(protocol._EXCHANGES, {VARIANT_IMPROVED: (counting, *rest)}):
            counts = count_sessions(improved, adversary, TrialStreams((11,), trials))
        assert counting.call_count == with_checks
        assert all(np.all(call.args[0] == 1) for call in counting.call_args_list)
        # With no check bit only a flipped announcement tells, as a digest of the tag.
        assert counts.detected == counts.aborted == (trials if protocol._compile(adversary).flip else with_checks)


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


def test_records_compare_by_identity():
    # Records hold arrays, so == goes by identity and transcripts are
    # compared through to_dict(); a set of master keys can be hashed.
    params = ProtocolParams(n=4, variant=VARIANT_IMPROVED)
    a, b = (run_session(params, None, seed=1) for _ in range(2))
    assert a == a and a != b
    assert a.to_dict() == b.to_dict()
    keys, same = keys_for("0000", "1100"), keys_for("0000", "1100")
    assert keys == keys and keys != same
    assert len({keys, same, keys}) == 2


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
    assert out.compared_bits_alice == 1 and out.compared_bits_bob == 1


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
    # No party's check failed, so neither detected anything.
    assert not out.detected_by_alice and not out.detected_by_bob
    assert out.check_mismatches_alice == out.check_mismatches_bob == 0
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


def test_an_identity_strategy_is_the_honest_channel():
    # The identity gate on every flying qubit and no classical flip compile
    # to the honest channel's tables: every transcript is the honest one,
    # bit for bit, and a caller's Generator ends in the same place.
    identity = AdversaryStrategy("gate_all", "I")
    cases = itertools.product(VARIANTS, (1, 4, 32), (False, True), SEED_FORMS, range(3))
    for variant, n, balanced_k2, seed_form, seed in cases:
        params = ProtocolParams(n=n, variant=variant, balanced_k2=balanced_k2)
        if seed_form == "generator":
            ours, honest = np.random.default_rng(seed), np.random.default_rng(seed)
        else:
            ours = honest = seed if seed_form == "int" else np.random.SeedSequence(seed)
        out, expected = run_session(params, identity, seed=ours), run_session(params, None, seed=honest)
        assert out.to_dict() == expected.to_dict(), (variant, n, balanced_k2, seed_form, seed)
        if seed_form == "generator":
            assert ours.bit_generator.state == honest.bit_generator.state


class OldTap:
    """An object with the tap methods of an adversary, but no strategy."""

    def tap_quantum_batch(self, states, rng):
        return states

    def tap_classical(self, bits):
        return bits


def test_any_other_adversary_is_rejected_by_field_name():
    # Only None, a strategy or a compiled channel is an adversary; anything
    # else is named before anything is drawn.
    message = r"^adversary: must be None or an AdversaryStrategy, got <.*OldTap object"
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        run_session(ProtocolParams(n=2), OldTap(), seed=rng)
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError, match=message):
        count_sessions(ProtocolParams(n=2), OldTap(), TrialStreams((0,), 3))


@pytest.mark.parametrize("params", [None, {"n": 2}, 2])
def test_params_that_are_not_protocol_params_are_rejected_by_field_name(params):
    # Anything but a ProtocolParams is named before the channel is compiled
    # or a caller's Generator moves, not left to fail on params.n.
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with mock.patch.object(protocol, "_compile", side_effect=AssertionError("compiled before the params check")):
        with pytest.raises(ValueError, match=r"^params: must be a ProtocolParams, got "):
            run_session(params, None, seed=rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("seed", [None, True, -1, 1.5, "x", [1, 2]])
def test_a_seed_outside_the_contract_is_rejected_by_field_name(seed):
    # None would draw OS entropy and True would run as seed 1, breaking the
    # promise that equal inputs give equal sessions; the others would fail
    # inside numpy.  Each is named before the channel is compiled.
    with mock.patch.object(protocol, "_compile", side_effect=AssertionError("compiled before the seed check")):
        with pytest.raises(ValueError, match=r"^seed: must be a non-negative int, a SeedSequence or a Generator, got "):
            run_session(ProtocolParams(n=2), None, seed=seed)


@pytest.mark.parametrize("keys", [("0011", "0101", "0" * 128), "0011", 0])
def test_keys_that_are_not_master_keys_are_rejected_by_field_name(keys):
    # Anything but None or a MasterKeys is named before the channel is
    # compiled or a caller's Generator moves.
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    with mock.patch.object(protocol, "_compile", side_effect=AssertionError("compiled before the keys check")):
        with pytest.raises(ValueError, match=r"^keys: must be None or a MasterKeys, got "):
            run_session(ProtocolParams(n=2), None, seed=rng, keys=keys)
    assert rng.bit_generator.state == before


def test_batches_and_sweeps_never_run_privacy_amplification(monkeypatch):
    # count_sessions, under run_batch and run_search, reads counters
    # only; the raw keys, the announcements and the session keys are
    # derived on their first read, so a batch cuts no raw key, builds no
    # announcement and runs no privacy amplification.
    run_session_unpatched = protocol.run_session
    outcomes = []

    def recorded(*args, **kwargs):
        outcomes.append(run_session_unpatched(*args, **kwargs))
        return outcomes[-1]

    derived = ("alice_raw_key", "bob_raw_key", "_session_keys", "_exchange")
    monkeypatch.setattr(protocol, "run_session", recorded)
    harness.run_batch(harness.RunConfig(protocol="improved", n=6, trials=20, seed=3))
    harness.run_batch(harness.RunConfig(protocol="original", attack="modification", n=6, trials=10, seed=3))
    harness.run_search(harness.RunConfig(protocol="original", n=4, trials=2, seed=1))
    assert len(outcomes) == 20 + 10 + 2 * 12
    assert any(not out.aborted for out in outcomes)
    assert not any(name in vars(out) for out in outcomes for name in derived)
    for out in outcomes:
        assert (out.alice_session_key is None) == out.aborted
        assert len(out.alice_raw_key) == len(out.bob_raw_key) == out._raw_len
        assert len(out.announced_by_alice) == out.compared_bits_bob
    assert all(name in vars(out) for out in outcomes for name in derived)


def test_an_honest_improved_run_hashes_nothing():
    # Every honest session's records agree, so its check difference is zero
    # and counts with no key expansion and no product: a batch and a session
    # count the same with both cores raising.  Reading the announcements
    # afterwards still builds the keyed digests.
    config = harness.RunConfig(protocol="improved", n=32, trials=200, seed=5)
    params = config.to_params()

    def counted():
        report = harness.run_batch(config).to_dict()
        del report["wall_time_ms"]
        return report, count_sessions(params, None, TrialStreams((5,), 50)), run_session(params, None, seed=9)

    with hashing_forbidden():
        report, counts, out = counted()
    expected_report, expected_counts, expected = counted()
    assert report == expected_report and counts == expected_counts
    assert counts.mismatched_bits == 0 and counts.compared_bits == 50 * 2 * params.hash_bits
    assert out.compared_bits_alice == out.compared_bits_bob == params.hash_bits
    # Unpatched now, so the reads below derive with the real cores.
    keys = generate_master_keys(params.n, np.random.default_rng(9))
    assert np.array_equal(out._check_positions, keys.partition_key.view(bool))
    alice_check, bob_check = out.alice_bits[out._check_positions], out.bob_bits[out._check_positions]
    assert np.array_equal(alice_check, bob_check)
    announced = reference_digest(keys.hash_key, [0, *halves(alice_check)[1]], params.hash_bits)
    assert np.array_equal(out.announced_by_alice, announced)
    assert np.array_equal(out.received_by_bob, announced)
    assert out.to_dict() == expected.to_dict()


# What a reader can ask a session for that it derives on the first read.
DERIVED_READERS = {
    "raw keys": lambda out: (out.alice_raw_key, out.bob_raw_key),
    "announcements": lambda out: tuple(
        getattr(out, f"{side}_by_{party}") for side in ("announced", "received") for party in ("alice", "bob")
    ),
    "session keys": lambda out: (out.alice_session_key, out.bob_session_key),
}


@pytest.mark.parametrize("variant", [VARIANT_ORIGINAL, VARIANT_IMPROVED])
def test_reading_the_session_keys_leaves_the_transcript_unchanged(variant):
    # On every channel: read in any order, each derived field (raw keys,
    # announcements, session keys) is derived once and then cached, and the
    # transcript, in its field order, is that of a session nobody read.
    # Every honest session reaches both session keys.
    params = ProtocolParams(n=8, variant=variant, hash_bits=12, tau=0.1)
    for channel in TRIAL_CHANNELS:
        for seed in range(12 if channel is None else 3):
            untouched = run_session(params, channel, seed=seed).to_dict()
            assert list(untouched) == TRANSCRIPT_FIELDS
            for order in itertools.permutations(DERIVED_READERS):
                out = run_session(params, channel, seed=seed)
                first = [DERIVED_READERS[name](out) for name in order]
                again = [DERIVED_READERS[name](out) for name in order]
                assert all(a is b for read, reread in zip(first, again) for a, b in zip(read, reread))
                if channel is None:
                    assert out.alice_session_key is not None
                    assert out.bob_session_key is not None
                rendered = out.to_dict()
                assert rendered == untouched
                assert list(rendered) == TRANSCRIPT_FIELDS
    with pytest.raises(AttributeError):
        out.announced_by_alice = out.announced_by_bob


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


def counted(outcomes) -> SessionCounts:
    """What count_sessions should report for ``outcomes``, counted one field at a time."""
    return SessionCounts(
        sessions=len(outcomes),
        detected=sum(out.detected_by_alice or out.detected_by_bob for out in outcomes),
        aborted=sum(out.aborted for out in outcomes),
        matched=sum(np.array_equal(out.alice_raw_key, out.bob_raw_key) for out in outcomes),
        complemented=sum(np.array_equal(out.bob_raw_key, 1 - out.alice_raw_key) for out in outcomes),
        vacuous=sum(out.vacuous_check for out in outcomes),
        mismatched_bits=sum(out.check_mismatches_alice + out.check_mismatches_bob for out in outcomes),
        compared_bits=sum(out.compared_bits_alice + out.compared_bits_bob for out in outcomes),
    )


def test_count_sessions_equals_a_loop_over_run_session():
    params = ProtocolParams(n=8, variant=VARIANT_ORIGINAL, tau=0.1)
    seeds = [np.random.SeedSequence((3, trial)) for trial in range(120)]
    expected = counted([run_session(params, intercept_resend_attack(), seed=seed) for seed in seeds])
    assert count_sessions(params, intercept_resend_attack(), TrialStreams((3,), 120)) == expected
    # a mixed case: at tau=0.1 some sessions abort and some end with matching raw keys
    assert 0 < expected.detected < expected.sessions
    assert 0 < expected.matched < expected.sessions


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tap", ENGINE_TAPS, ids=lambda tap: "none" if tap is None else tap.describe()["quantum"])
@pytest.mark.parametrize("n, balanced_k2", [(6, False), (8, False), (5, True)], ids=["n6", "n8", "n5-balanced"])
def test_count_sessions_equals_a_loop_on_every_channel(variant, tap, n, balanced_k2):
    # Every channel and both variants, where each session's keys are one
    # raw read (n = 8) and where they are drawn key by key (n % 4 != 0,
    # balanced_k2).
    params = ProtocolParams(n=n, variant=variant, tau=0.1, balanced_k2=balanced_k2)
    seeds = [np.random.SeedSequence((5, trial)) for trial in range(30)]
    expected = counted([run_session(params, tap, seed=seed) for seed in seeds])
    counts = count_sessions(params, tap, TrialStreams((5,), 30))
    assert counts == expected
    # Python ints, not numpy ones, so that rates are floats and a report goes through json.dumps.
    assert all(type(value) is int for value in vars(counts).values())


TRIAL_CHANNELS = [
    None,
    *(AdversaryStrategy("gate_all", gate, classical) for gate in SEARCH_GATE_NAMES for classical in CLASSICAL_POLICIES),
    intercept_resend_attack(),
]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "n, balanced_k2, pa_bits, hash_bits, prefix",
    [
        (8, False, None, 64, (5,)),
        (5, False, None, 64, (2**64 - 1, 11)),
        (6, True, None, 64, (0,)),
        (8, False, 9, 64, (7, 3)),
        (8, False, None, 1, (2**64 - 1,)),
    ],
    ids=["n8", "n5", "n6-balanced", "pa-bits-over-raw-key", "hash-bits-1"],
)
def test_trial_streams_give_the_sessions_of_their_seed_sequences(
    monkeypatch, variant, n, balanced_k2, pa_bits, hash_bits, prefix
):
    # count_sessions seeds each trial's session from its TrialStreams seed;
    # the counts, and the full transcripts of a sample of trials, are those
    # of a loop over SeedSequence((*prefix, t)).  n8 and n5 draw their keys
    # in one raw read, balanced_k2 call by call; pa_bits = 9 is longer than
    # most raw keys at n = 8.
    params = ProtocolParams(
        n=n, variant=variant, tau=0.1, hash_bits=hash_bits, pa_bits=pa_bits, balanced_k2=balanced_k2
    )
    trials, sample = 40, 6
    seeds = [np.random.SeedSequence((*prefix, t)) for t in range(trials)]
    run_session_unpatched = protocol.run_session
    transcripts = []

    def recorded(*args, **kwargs):
        outcome = run_session_unpatched(*args, **kwargs)
        if len(transcripts) < sample:
            transcripts.append(outcome.to_dict())
        return outcome

    for channel in TRIAL_CHANNELS:
        expected = counted([run_session(params, channel, seed=seed) for seed in seeds])
        transcripts.clear()
        with monkeypatch.context() as patched:
            patched.setattr(protocol, "run_session", recorded)
            counts = count_sessions(params, channel, TrialStreams(prefix, trials))
        assert counts == expected, channel
        assert transcripts == [run_session(params, channel, seed=seed).to_dict() for seed in seeds[:sample]], channel


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_batches_and_sweeps_seed_trial_t_from_their_prefix_and_t(monkeypatch, seed):
    # run_batch passes the prefix (seed,), run_search (seed, index);
    # counted over each prefix's SeedSequences instead, every report is the
    # same.  A two-word seed makes entropies of three and four words.
    passed = []

    def reference(params, adversary, streams):
        passed.append(streams)
        seeds = [np.random.SeedSequence((*streams.prefix, t)) for t in range(streams.trials)]
        return counted([run_session(params, adversary, seed=seed) for seed in seeds])

    config = harness.RunConfig(protocol="improved", attack="modification", n=6, trials=30, seed=seed)

    def reports():
        report = harness.run_batch(config).to_dict()
        report.pop("wall_time_ms")
        sweep = harness.run_search(harness.RunConfig(protocol="original", n=4, trials=6, seed=seed))
        return report, [r.to_dict() for r in sweep]

    ours = reports()
    monkeypatch.setattr("sqkdlab.harness.count_sessions", reference)
    assert ours == reports()
    assert passed == [TrialStreams((seed,), 30), *(TrialStreams((seed, index), 6) for index in range(12))]


SEED_FORMS = ("int", "seed-sequence", "generator")


@settings(max_examples=250, deadline=None)
@given(
    st.integers(1, 300),
    st.sampled_from(VARIANTS),
    st.sampled_from(
        [
            *ENGINE_TAPS,
            *(AdversaryStrategy("gate_all", name, "flip_all") for name in GATE_NAMES),
            AdversaryStrategy("intercept_resend_z", classical="flip_all"),
        ]
    ),
    st.sampled_from(SEED_FORMS),
    st.integers(0, 2**32 - 1),
    st.integers(0, 9),
    st.booleans(),
    st.booleans(),
    st.sampled_from([0.0, 0.25]),
    st.sampled_from([None, 1, 3, 40]),
)
# Balanced keys on a session's own stream: drawn call by call, and the
# permutation may leave a PCG64 half-word buffered before the PA seed.
@example(5, VARIANT_ORIGINAL, None, "int", 0, 0, False, True, 0.0, None)
@example(5, VARIANT_ORIGINAL, None, "seed-sequence", 0, 0, False, True, 0.0, None)
# A caller's Generator with a half-word buffered before the session: every
# draw is a numpy call, which uses that half-word first.
@example(8, VARIANT_ORIGINAL, None, "generator", 0, 3, False, False, 0.0, None)
# Forced keys on the session's own stream: the read starts with the uniforms.
@example(8, VARIANT_IMPROVED, None, "int", 0, 0, True, False, 0.0, None)
# The modification attack on the original variant, on a caller's
# Generator: a full difference, counted uncut, and a passing check.
@example(8, VARIANT_ORIGINAL, modification_attack(), "generator", 0, 1, False, False, 0.0, None)
# One raw read on the session's own stream (keys, uniforms, PA seed): an
# honest session that passes its check, so its session keys read the PA
# words from the end of the read; a SeedSequence under the modification
# attack on the improved variant, which aborts; Eve's third row of
# uniforms; n = 5, whose keys lie on padded 32-bit words; and forced
# keys, so the read starts with the uniforms.
@example(8, VARIANT_ORIGINAL, None, "int", 1, 0, False, False, 0.0, None)
@example(8, VARIANT_IMPROVED, modification_attack(), "seed-sequence", 2, 0, False, False, 0.0, None)
@example(8, VARIANT_ORIGINAL, intercept_resend_attack(), "int", 3, 0, False, False, 0.25, None)
@example(5, VARIANT_ORIGINAL, None, "int", 4, 0, False, False, 0.0, None)
@example(8, VARIANT_IMPROVED, None, "seed-sequence", 5, 0, True, False, 0.0, None)
# Padded keys in the read: each takes ceil(n / 2) 32-bit words, one at
# n = 1 (the partition key is the high half of the first raw word) and two
# at n = 3 (each key on a whole raw word); the improved variant reads its
# hash key.  Balanced forced keys on a SeedSequence are read too: only
# balanced keys the session draws itself are drawn call by call.
@example(1, VARIANT_ORIGINAL, None, "int", 6, 0, False, False, 0.0, None)
@example(3, VARIANT_IMPROVED, None, "int", 7, 0, False, False, 0.0, None)
@example(5, VARIANT_IMPROVED, None, "seed-sequence", 8, 0, True, True, 0.0, None)
def test_session_draws_equal_the_call_by_call_oracle(
    n, variant, tap, seed_form, seed, bits_before, forced_keys, balanced_k2, tau, pa_bits
):
    # Whatever the seed form, and whether the session reads once or draws
    # call by call, the transcript (session keys read) is the oracle's,
    # byte for byte, and a caller's Generator ends where the oracle's calls
    # leave it; 1 to 4 bits, or 9, drawn before leave a PCG64 half-word
    # buffered.  A session on its own stream reads once, unless
    # balanced_k2 draws its keys; a caller's Generator is never read raw.
    params = ProtocolParams(n=n, variant=variant, tau=tau, hash_bits=8, pa_bits=pa_bits, balanced_k2=balanced_k2)
    keys = None
    if forced_keys:
        draw = np.random.default_rng(seed + 1)
        keys = MasterKeys(random_bits(draw, 2 * n), random_bits(draw, 2 * n), random_bits(draw, MIN_HASH_KEY_BITS))
    if seed_form == "generator":
        ours, reference = (np.random.default_rng(seed) for _ in range(2))
        for rng in (ours, reference):
            rng.integers(0, 2, size=bits_before, dtype=np.uint8)
    else:
        ours = reference = seed if seed_form == "int" else np.random.SeedSequence(seed)
    with mock.patch.object(protocol, "_read_session", wraps=protocol._read_session) as read:
        out = run_session(params, tap, seed=ours, keys=keys)
    assert read.call_count == (seed_form != "generator" and (forced_keys or not balanced_k2))
    out.alice_session_key  # derive the session keys before rendering
    expected = session_transcript(params, tap, reference, keys=keys)
    assert json.dumps(out.to_dict()) == json.dumps(expected)
    if seed_form == "generator":
        assert stream_position(ours) == stream_position(reference)


def owner_bytes(array: np.ndarray) -> int:
    """The size of the buffer that ``array`` keeps alive."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array.nbytes


@pytest.mark.parametrize("n", [1, 5, 8, 32])
@pytest.mark.parametrize("seed_form", SEED_FORMS)
@pytest.mark.parametrize("balanced_k2", [False, True])
def test_an_outcome_holds_no_buffer_larger_than_its_keys_and_seed(n, seed_form, balanced_k2):
    # The outcome keeps the partition key (_check_positions) and pa_seed:
    # at most the three keys' 4n + 128 bytes and the seed's 128, whichever
    # way they were drawn, never a session's whole raw read.
    params = ProtocolParams(n=n, balanced_k2=balanced_k2)
    seed_of = {"int": int, "seed-sequence": np.random.SeedSequence, "generator": np.random.default_rng}[seed_form]
    for tap in (None, modification_attack(), intercept_resend_attack()):
        for seed in range(3):
            out = run_session(params, tap, seed=seed_of(seed))
            assert owner_bytes(out._check_positions) <= 4 * n + MIN_HASH_KEY_BITS
            assert out.pa_seed is None or owner_bytes(out.pa_seed) == protocol.PA_SEED_BITS


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("balanced_k2", [False, True])
def test_a_fresh_stream_draws_what_a_callers_generator_draws(n, balanced_k2):
    # Each key takes ceil(n / 2) 32-bit words: odd and even counts, padded
    # (n odd) or not.  A session on its own stream, seeded from an int or
    # from a trial's seed as count_sessions hands it one, gives the
    # transcript that a caller's Generator on the same stream gives, drawn
    # call by call.
    params = ProtocolParams(n=n, variant=VARIANT_IMPROVED, hash_bits=8, balanced_k2=balanced_k2)
    for tap in (None, modification_attack(), intercept_resend_attack()):
        for seed in range(4):
            expected = run_session(params, tap, seed=np.random.default_rng(seed)).to_dict()
            assert run_session(params, tap, seed=seed).to_dict() == expected
        for t, seed in enumerate(TrialStreams((n,), 4)._seeds()):
            expected = run_session(params, tap, seed=np.random.default_rng(trial_stream((n,), t))).to_dict()
            assert run_session(params, tap, seed=seed).to_dict() == expected


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
    # The attack search, run_search, names the field as run_session does.
    with pytest.raises(ValueError, match=rf"^{field}: must be"):
        harness.run_search(harness.RunConfig(protocol="original", trials=1, **{field: value}))


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
            announced = (out.announced_by_alice, out.announced_by_bob)
            announcements = ((0, alice_even, announced[0]), (1, bob_odd, announced[1]))
            for direction, half, announced in announcements:
                assert np.array_equal(announced, reference_digest(keys.hash_key, [direction, *half], 20))
    assert reached_pa >= 20
