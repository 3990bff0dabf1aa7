"""Protocol engine tests: keys, partition, exchanges, full sessions."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkdlab.adversary import AdversaryStrategy, intercept_resend_attack, modification_attack, search_attacks
from sqkdlab.bits import as_bits, flip, random_bits, to01
from sqkdlab.hashing import MIN_HASH_KEY_BITS, derive_hash_spec, privacy_amplify, toeplitz_hash
from sqkdlab.protocol import (
    DONE_NOTICE,
    VARIANT_IMPROVED,
    VARIANT_ORIGINAL,
    MasterKeys,
    ProtocolError,
    ProtocolParams,
    SessionCounts,
    alice_measure,
    alice_prepare,
    bob_receive_measure,
    count_sessions,
    exchange_and_check_improved,
    exchange_and_check_original,
    generate_master_keys,
    partition_measurements,
    run_session,
)
from sqkdlab.qsim import bell_phi_plus

from oracles import prepare

SQRT_HALF = 1 / np.sqrt(2)


def keys_for(op_key, partition_key, hash_bits=128):
    return MasterKeys(op_key, partition_key, np.zeros(hash_bits, dtype=np.uint8))


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
    with pytest.raises(ValueError, match="equal length"):
        keys_for("00", "0000")
    with pytest.raises(ValueError, match="even"):
        keys_for("000", "000")


def test_master_keys_reject_a_short_hash_key():
    # Checked where the key enters, for both variants: a session never
    # meets a hash key shorter than the digests' minimum.
    keys_for("0000", "0110", hash_bits=MIN_HASH_KEY_BITS)
    with pytest.raises(ValueError, match=rf"^hash_key: must be at least {MIN_HASH_KEY_BITS} bits, got 127"):
        keys_for("0000", "0110", hash_bits=MIN_HASH_KEY_BITS - 1)
    with pytest.raises(ValueError, match=rf"^l_key: must be >= {MIN_HASH_KEY_BITS}, got 127$"):
        generate_master_keys(2, l_key=MIN_HASH_KEY_BITS - 1, rng=np.random.default_rng(0))


# -- preparation and measurement --------------------------------------------------


def test_alice_prepare_states():
    keys = keys_for("0110", "0000")
    states = alice_prepare(keys, 2)
    assert states.shape == (4, 4)
    assert np.allclose(states[0], bell_phi_plus(), rtol=0, atol=1e-12)
    assert np.allclose(states[3], bell_phi_plus(), rtol=0, atol=1e-12)
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
    states = alice_prepare(keys, n)
    expected = prepare(op_key)
    assert states.dtype == expected.dtype and states.shape == expected.shape
    assert states.tobytes() == expected.tobytes()
    assert states.flags.writeable


def test_alice_prepare_requires_matching_sizes():
    with pytest.raises(ValueError, match="sized"):
        alice_prepare(keys_for("00", "00"), 3)


def test_bob_rejects_wrong_qubit_count():
    keys = keys_for("0000", "0000")
    states = alice_prepare(keys, 2)
    with pytest.raises(ProtocolError, match="expected 4"):
        bob_receive_measure(keys, states[:3], np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(np.inf, 0)])
def test_non_finite_delivery_raises_before_any_draw(bad):
    keys = keys_for("0110", "0000")
    delivered = alice_prepare(keys, 2)
    delivered[1, 3] = bad
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    # Bob's gate turns an infinite amplitude into NaNs (inf * 0) with a
    # RuntimeWarning; silenced here, the measurement must still reject it.
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not normalized"):
        bob_receive_measure(keys, delivered, rng)
    assert rng.bit_generator.state == before


def test_bob_emits_done_notice_and_alice_agrees():
    keys = keys_for("0101", "0000")
    states = alice_prepare(keys, 2)
    bob_bits, states, notice = bob_receive_measure(keys, states, np.random.default_rng(1))
    assert notice == DONE_NOTICE
    alice_bits, _ = alice_measure(states, np.random.default_rng(2))
    assert np.array_equal(alice_bits, bob_bits)


# -- partition -------------------------------------------------------------------


def test_partition_walkthrough_alice():
    part = partition_measurements("0011", "1100")
    assert to01(part.raw) == "11"
    assert to01(part.check) == "00"
    assert to01(part.check_odd) == "0"
    assert to01(part.check_even) == "0"


def test_partition_walkthrough_bob():
    part = partition_measurements("1100", "1100")
    assert to01(part.raw) == "00"
    assert to01(part.check) == "11"
    assert to01(part.check_odd) == "1"
    assert to01(part.check_even) == "1"


def test_partition_all_raw_when_key_zero():
    part = partition_measurements("10110", "00000")
    assert to01(part.raw) == "10110"
    assert len(part.check) == 0


def test_partition_odd_even_sizes():
    part = partition_measurements("1010101", "1111111")
    assert len(part.check_odd) == 4 and len(part.check_even) == 3
    assert to01(part.check_odd) == "1111"
    assert to01(part.check_even) == "000"


def test_partition_length_mismatch():
    with pytest.raises(ValueError, match="partition key"):
        partition_measurements("00", "000")


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=64))
def test_partition_reassembles_exactly(pairs):
    m = as_bits([a for a, _ in pairs])
    k = as_bits([b for _, b in pairs])
    part = partition_measurements(m, k)
    assert len(part.raw) + len(part.check) == len(m)
    assert abs(len(part.check_odd) - len(part.check_even)) <= 1
    assert np.array_equal(part.reassemble(), m)


# -- announce-and-check exchanges --------------------------------------------------


def test_original_honest_exchange_passes():
    part = partition_measurements("011010", "110110")
    result = exchange_and_check_original(part, part, tau=0.0)
    assert result.alice_pass and result.bob_pass
    assert result.check_mismatches_alice == result.check_mismatches_bob == 0


def test_original_walkthrough_flipped_announcements_fool_both():
    alice = partition_measurements("0011", "1100")
    bob = partition_measurements("1100", "1100")
    result = exchange_and_check_original(alice, bob, tau=0.0, channel=flip)
    assert result.alice_pass and result.bob_pass
    assert to01(result.received_by_alice) == "0"
    assert to01(result.received_by_bob) == "1"


def test_original_spin_flip_without_classical_flip_detected():
    # complementary measurement records, untampered announcements: every
    # compared bit mismatches
    alice = partition_measurements("00110101", "11111111")
    bob = partition_measurements(flip("00110101"), "11111111")
    result = exchange_and_check_original(alice, bob, tau=0.0)
    assert not result.alice_pass and not result.bob_pass
    assert result.check_mismatches_alice == result.compared_bits_alice
    assert result.check_mismatches_bob == result.compared_bits_bob


def test_original_vacuous_pass_with_no_check_bits():
    part = partition_measurements("0101", "0000")
    result = exchange_and_check_original(part, part, tau=0.0, channel=flip)
    assert result.alice_pass and result.bob_pass
    assert result.compared_bits_alice == result.compared_bits_bob == 0


def test_original_threshold_tolerates_fraction():
    alice = partition_measurements("0000" + "0000", "11111111")
    bob_bits = as_bits("0000" + "0000")
    bob_bits[0] ^= 1  # one corrupted check bit, at an odd (announced-by-bob) position
    bob = partition_measurements(bob_bits, "11111111")
    tight = exchange_and_check_original(alice, bob, tau=0.0)
    loose = exchange_and_check_original(alice, bob, tau=0.5)
    assert not tight.alice_pass and tight.bob_pass
    assert loose.alice_pass and loose.bob_pass


def test_original_rejects_wrong_announcement_length():
    alice = partition_measurements("0011", "1100")
    bob = partition_measurements("1100", "1100")
    with pytest.raises(ProtocolError, match="length"):
        exchange_and_check_original(alice, bob, tau=0.0, channel=lambda bits: bits[:0])


def test_improved_honest_exchange_passes():
    kh = random_bits(np.random.default_rng(3), 128)
    part = partition_measurements("011010", "110110")
    result = exchange_and_check_improved(part, part, kh, digest_len=16)
    assert result.alice_pass and result.bob_pass
    assert len(result.announced_by_alice) == 16


def test_improved_detects_flipped_digests():
    kh = random_bits(np.random.default_rng(4), 128)
    part = partition_measurements("011010", "110110")
    result = exchange_and_check_improved(part, part, kh, digest_len=16, channel=flip)
    assert not result.alice_pass and not result.bob_pass


def test_improved_detects_complementary_records():
    kh = random_bits(np.random.default_rng(5), 128)
    alice = partition_measurements("00110101", "11111111")
    bob = partition_measurements(flip("00110101"), "11111111")
    result = exchange_and_check_improved(alice, bob, kh, digest_len=64)
    assert not result.alice_pass and not result.bob_pass


def test_improved_rejects_wrong_digest_length():
    kh = random_bits(np.random.default_rng(6), 128)
    part = partition_measurements("0011", "1100")
    with pytest.raises(ProtocolError, match="digest"):
        exchange_and_check_improved(part, part, kh, digest_len=8, channel=lambda bits: bits[:4])


@given(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)), max_size=40),
    st.floats(0.0, 1.0, exclude_max=True),
    st.booleans(),
    st.lists(st.integers(0, 1), min_size=MIN_HASH_KEY_BITS, max_size=MIN_HASH_KEY_BITS),
    st.integers(1, 24),
)
def test_exchanges_equal_a_direct_comparison(records, tau, tampered, hash_key, digest_len):
    # Random check records under one shared partition key, honest or
    # flipping classical channel: the original variant's counters and
    # verdicts are a plain bit comparison, and the improved variant's
    # digests are the public keyed hash of the direction-tagged half.
    key = as_bits([k for _, _, k in records])
    alice = partition_measurements(as_bits([a for a, _, _ in records]), key)
    bob = partition_measurements(as_bits([b for _, b, _ in records]), key)
    channel = flip if tampered else None
    deliver = flip if tampered else as_bits

    def public_digest(direction, half):
        spec = derive_hash_spec(hash_key, len(half) + 1, digest_len)
        return toeplitz_hash(spec, [direction, *half])

    original = exchange_and_check_original(alice, bob, tau, channel)
    improved = exchange_and_check_improved(alice, bob, hash_key, digest_len, channel)
    assert np.array_equal(improved.announced_by_alice, public_digest(0, alice.check_even))
    assert np.array_equal(improved.announced_by_bob, public_digest(1, bob.check_odd))
    # (side, what the other side announced, the side's own half, its direction)
    sides = (("alice", bob.check_odd, alice.check_odd, 1), ("bob", alice.check_even, bob.check_even, 0))
    for side, sent, own, direction in sides:
        received = deliver(sent)
        mismatches = int(np.count_nonzero(received != own))
        assert np.array_equal(getattr(original, f"received_by_{side}"), received)
        assert getattr(original, f"check_mismatches_{side}") == mismatches
        assert getattr(original, f"compared_bits_{side}") == len(own)
        assert getattr(original, f"{side}_pass") == (len(own) == 0 or mismatches / len(own) <= tau)

        received = deliver(public_digest(direction, sent))
        mismatches = int(np.count_nonzero(received != public_digest(direction, own)))
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
    params = ProtocolParams(n=16, variant=VARIANT_ORIGINAL, pa_out_len=4)
    out = run_session(params, None, seed=5)
    assert len(out.alice_session_key) == 4


def test_oversized_pa_request_aborts():
    keys = keys_for("0000", "1110")  # raw key is a single bit
    params = ProtocolParams(n=2, variant=VARIANT_ORIGINAL, pa_out_len=8)
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
    with pytest.raises(ValueError, match="^hash_out_len:"):
        ProtocolParams(n=1, hash_out_len=0)
    with pytest.raises(ValueError, match="^pa_out_len:"):
        ProtocolParams(n=1, pa_out_len=0)


def test_master_key_count_error_names_the_field():
    with pytest.raises(ValueError, match=r"^n: must be >= 1, got 0$"):
        generate_master_keys(0, rng=np.random.default_rng(0))


PARAM_TYPE_CASES = [
    ("n", 2.5),
    ("n", True),
    ("n", "4"),
    ("n", None),
    ("hash_out_len", 8.0),
    ("hash_out_len", False),
    ("pa_out_len", 2.5),
    ("pa_out_len", True),
    ("tau", True),
    ("tau", "0.1"),
    ("tau", None),
    ("tau", 0.1j),
]


@pytest.mark.parametrize("field, value", PARAM_TYPE_CASES)
def test_params_type_errors_name_the_field_in_run_session(field, value):
    with pytest.raises(ValueError, match=rf"^{field}: must be"):
        run_session(ProtocolParams(**{"n": 4, field: value}), None, seed=0)


SEARCH_ARGUMENT = {"n": "n", "hash_out_len": "hash_bits", "tau": "tau"}


@pytest.mark.parametrize("field, value", [case for case in PARAM_TYPE_CASES if case[0] in SEARCH_ARGUMENT])
def test_params_type_errors_name_the_field_in_search_attacks(field, value):
    with pytest.raises(ValueError, match=rf"^{field}: must be"):
        search_attacks("original", trials=1, **{SEARCH_ARGUMENT[field]: value})


def test_session_with_numpy_integer_params_renders_to_json():
    # numpy integers pass ProtocolParams; the transcript's counters must
    # still be Python ints, or json.dumps of to_dict() fails.
    params = ProtocolParams(n=4, variant=VARIANT_IMPROVED, hash_out_len=np.int64(8))
    data = run_session(params, None, seed=0).to_dict()
    json.dumps(data)
    counters = [name for name in data if name.startswith(("compared_bits_", "check_mismatches_"))]
    assert len(counters) == 4
    assert all(type(data[name]) is int for name in counters)


def test_params_accept_numpy_integers():
    params = ProtocolParams(n=np.int64(4), hash_out_len=np.int32(8), pa_out_len=np.int16(1))
    out = run_session(params, None, seed=2)
    assert len(out.alice_bits) == 8


@pytest.mark.parametrize("variant", [VARIANT_ORIGINAL, VARIANT_IMPROVED])
def test_session_keys_and_digests_equal_the_public_helpers(variant):
    # run_session calls the trusted hashing cores once per session; its
    # session keys and announced digests must be what the checked public
    # helpers give for the same inputs.
    params = ProtocolParams(n=12, variant=variant, hash_out_len=20)
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
            alice = partition_measurements(out.alice_bits, keys.partition_key)
            bob = partition_measurements(out.bob_bits, keys.partition_key)
            announced = (out.check.announced_by_alice, out.check.announced_by_bob)
            announcements = ((0, alice.check_even, announced[0]), (1, bob.check_odd, announced[1]))
            for direction, half, announced in announcements:
                spec = derive_hash_spec(keys.hash_key, len(half) + 1, 20)
                assert np.array_equal(announced, toeplitz_hash(spec, np.concatenate([[direction], half])))
    assert reached_pa >= 20
