"""Toeplitz hashing tests: frozen example, linearity, universality, PA."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkdlab.bits import as_bits, flip, random_bits
from sqkdlab.hashing import (
    MIN_HASH_KEY_BITS,
    ToeplitzSpec,
    _digest_keys,
    derive_hash_spec,
    expand_key_bits,
    privacy_amplify,
    toeplitz_hash,
)

from oracles import toeplitz_matrix


def spec_of(key, mask, in_len, out_len):
    return ToeplitzSpec(as_bits(key), as_bits(mask), in_len, out_len)


# -- the hash map --------------------------------------------------------------


def test_worked_example():
    # key 1011, 2x3 matrix: rows (011, 101); x=110 hashes to 11 (hand-checked).
    spec = spec_of("1011", "00", in_len=3, out_len=2)
    assert np.array_equal(toeplitz_matrix(spec), [[0, 1, 1], [1, 0, 1]])
    assert np.array_equal(toeplitz_hash(spec, "110"), [1, 1])


def test_matrix_diagonals_constant():
    rng = np.random.default_rng(4)
    spec = spec_of(random_bits(rng, 12), random_bits(rng, 5), in_len=8, out_len=5)
    t = toeplitz_matrix(spec)
    for i in range(4):
        for j in range(7):
            assert t[i, j] == t[i + 1, j + 1]
    assert np.array_equal(t[:, 0][::-1], spec.key_bits[:5])  # first column, bottom-up
    assert np.array_equal(t[0, :], spec.key_bits[4:])  # first row


def test_zero_input_gives_mask():
    rng = np.random.default_rng(8)
    spec = spec_of(random_bits(rng, 10), random_bits(rng, 4), in_len=7, out_len=4)
    assert np.array_equal(toeplitz_hash(spec, np.zeros(7, np.uint8)), spec.mask_bits)


def test_output_length():
    rng = np.random.default_rng(9)
    for out_len in (1, 3, 16):
        spec = spec_of(random_bits(rng, 6 + out_len - 1), random_bits(rng, out_len), 6, out_len)
        assert len(toeplitz_hash(spec, random_bits(rng, 6))) == out_len


@given(st.integers(0, 2**60))
def test_linearity_of_matrix_part(seed):
    rng = np.random.default_rng(seed)
    in_len, out_len = int(rng.integers(1, 24)), int(rng.integers(1, 24))
    spec = spec_of(
        random_bits(rng, in_len + out_len - 1), random_bits(rng, out_len), in_len, out_len
    )
    x, y = random_bits(rng, in_len), random_bits(rng, in_len)
    lhs = toeplitz_hash(spec, x) ^ toeplitz_hash(spec, y) ^ spec.mask_bits
    assert np.array_equal(lhs, toeplitz_hash(spec, x ^ y))


def test_input_length_mismatch_rejected():
    spec = spec_of("1011", "00", 3, 2)
    with pytest.raises(ValueError, match="bits"):
        toeplitz_hash(spec, "1101")


def test_spec_validation():
    with pytest.raises(ValueError, match="key"):
        spec_of("10", "00", 3, 2)
    with pytest.raises(ValueError, match="mask"):
        spec_of("1011", "0", 3, 2)
    with pytest.raises(ValueError, match="out_len"):
        spec_of("", "", 1, 0)


def test_exhaustive_universality_4x4():
    # For every pair x != x', at most a 2**-4 fraction of the 2**7 keys collide.
    in_len = out_len = 4
    key_len = in_len + out_len - 1
    inputs = [np.array(bits, dtype=np.uint8) for bits in itertools.product((0, 1), repeat=in_len)]
    max_collisions = (2**key_len) * 2**-out_len
    collisions = np.zeros((len(inputs), len(inputs)), dtype=int)
    for key_value in range(2**key_len):
        key = as_bits([(key_value >> i) & 1 for i in range(key_len)])
        spec = spec_of(key, np.zeros(out_len, np.uint8), in_len, out_len)
        digests = [toeplitz_hash(spec, x) for x in inputs]
        for i, j in itertools.combinations(range(len(inputs)), 2):
            collisions[i, j] += np.array_equal(digests[i], digests[j])
    for i, j in itertools.combinations(range(len(inputs)), 2):
        assert collisions[i, j] <= max_collisions, (inputs[i], inputs[j])


def test_flipped_digest_rarely_matches_complemented_input():
    # The improved variant survives flip-all because ~h(x) == h(x') forces
    # T.(x xor x') to be all-ones, which a 2**-out_len fraction of keys allow.
    in_len, out_len = 3, 4
    key_len = in_len + out_len - 1
    x = as_bits("011")  # direction bit 0 plus two check bits
    x_complement = np.concatenate([x[:1], 1 - x[1:]])  # direction kept, half flipped
    hits = 0
    for key_value in range(2**key_len):
        key = as_bits([(key_value >> i) & 1 for i in range(key_len)])
        spec = spec_of(key, np.zeros(out_len, np.uint8), in_len, out_len)
        hits += np.array_equal(flip(toeplitz_hash(spec, x)), toeplitz_hash(spec, x_complement))
    assert hits == 2**key_len * 2**-out_len


# -- key expansion --------------------------------------------------------------


def test_expand_deterministic_and_sized():
    seed = random_bits(np.random.default_rng(1), 128)
    a = expand_key_bits(seed, 300)
    b = expand_key_bits(seed, 300)
    assert np.array_equal(a, b)
    assert a.shape == (300,)
    assert set(np.unique(a)) <= {0, 1}


def test_expand_differs_across_seeds():
    a = expand_key_bits(random_bits(np.random.default_rng(1), 128), 256)
    b = expand_key_bits(random_bits(np.random.default_rng(2), 128), 256)
    assert not np.array_equal(a, b)


def test_expand_rejects_empty_seed():
    with pytest.raises(ValueError, match="empty"):
        expand_key_bits([], 10)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(0, 700), st.integers(0, 700), st.integers(0, 2**32 - 1))
def test_expansion_is_prefix_stable(seed_len, a, b, seed):
    # A session expands each key once, to the longest length it needs, and
    # slices shorter streams from it; that relies on this property.
    a, b = min(a, b), max(a, b)
    seed_bits = random_bits(np.random.default_rng(seed), seed_len)
    assert np.array_equal(expand_key_bits(seed_bits, a), expand_key_bits(seed_bits, b)[:a])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 200), st.integers(0, 200), st.integers(1, 100), st.integers(0, 2**32 - 1))
def test_single_stream_specs_equal_derive_hash_spec(in_even, in_odd, out_len, seed):
    hash_key = random_bits(np.random.default_rng(seed), MIN_HASH_KEY_BITS + seed % 64)
    derived = _digest_keys(hash_key, (in_even, in_odd), out_len)
    for in_len, (key, mask) in zip((in_even, in_odd), derived):
        spec = derive_hash_spec(hash_key, in_len, out_len)
        assert key.dtype == np.float64
        assert np.array_equal(key, spec.key_bits)
        assert np.array_equal(mask, spec.mask_bits)


def test_derive_hash_spec_contract():
    kh = random_bits(np.random.default_rng(3), 128)
    spec1 = derive_hash_spec(kh, 10, 8)
    spec2 = derive_hash_spec(kh, 10, 8)
    assert np.array_equal(spec1.key_bits, spec2.key_bits)
    assert np.array_equal(spec1.mask_bits, spec2.mask_bits)
    assert len(spec1.key_bits) == 10 + 8 - 1
    assert len(derive_hash_spec(kh, 11, 8).key_bits) == 11 + 8 - 1
    with pytest.raises(ValueError, match=str(MIN_HASH_KEY_BITS)):
        derive_hash_spec(random_bits(np.random.default_rng(4), 64), 10, 8)


def test_derived_specs_behave_universally():
    # Pooled collision frequency over random hash keys stays near the 2**-4
    # pairwise bound for 4-bit inputs and outputs.
    rng = np.random.default_rng(6)
    inputs = [np.array(bits, dtype=np.uint8) for bits in itertools.product((0, 1), repeat=4)]
    pairs = list(itertools.combinations(range(len(inputs)), 2))
    collisions = trials = 0
    for _ in range(200):
        spec = derive_hash_spec(random_bits(rng, 128), 4, 4)
        digests = [toeplitz_hash(spec, x) for x in inputs]
        for i, j in pairs:
            collisions += np.array_equal(digests[i], digests[j])
            trials += 1
    assert collisions / trials <= 2**-4 + 0.02


# -- privacy amplification -------------------------------------------------------


def test_privacy_amplify_equal_inputs_agree():
    rng = np.random.default_rng(10)
    raw = random_bits(rng, 40)
    seed = random_bits(rng, 128)
    assert np.array_equal(privacy_amplify(raw, seed, 20), privacy_amplify(raw.copy(), seed, 20))


def test_privacy_amplify_complement_differs():
    # T.(all-ones) is uniform over the key, so complementary raw keys agree
    # only with probability 2**-out_len; at 32 output bits, never in 1000 seeds.
    rng = np.random.default_rng(12)
    raw = random_bits(rng, 64)
    different = 0
    for _ in range(1000):
        seed = random_bits(rng, 128)
        different += not np.array_equal(
            privacy_amplify(raw, seed, 32), privacy_amplify(flip(raw), seed, 32)
        )
    assert different == 1000


def test_privacy_amplify_contract():
    raw = random_bits(np.random.default_rng(13), 16)
    seed = random_bits(np.random.default_rng(14), 128)
    assert len(privacy_amplify(raw, seed, 16)) == 16
    with pytest.raises(ValueError, match="out_len"):
        privacy_amplify(raw, seed, 0)
    with pytest.raises(ValueError, match="out_len"):
        privacy_amplify(raw, seed, 17)
    with pytest.raises(ValueError, match="empty"):
        privacy_amplify([], seed, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1100), st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_hash_equals_matrix_product(in_len, out_len, seed):
    rng = np.random.default_rng(seed)
    spec = spec_of(random_bits(rng, in_len + out_len - 1), random_bits(rng, out_len), in_len, out_len)
    x = random_bits(rng, in_len)
    expected = (toeplitz_matrix(spec).astype(np.int64) @ x.astype(np.int64)) % 2 ^ spec.mask_bits
    got = toeplitz_hash(spec, x)
    assert got.dtype == np.uint8
    assert np.array_equal(got, expected)


def test_empty_input_hashes_to_a_copy_of_the_mask():
    spec = spec_of("101", "1101", in_len=0, out_len=4)
    out = toeplitz_hash(spec, "")
    assert np.array_equal(out, spec.mask_bits)
    assert not np.shares_memory(out, spec.mask_bits)
