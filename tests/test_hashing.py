"""Toeplitz hashing tests: frozen example, linearity, universality, PA."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqkdlab
from sqkdlab.bits import as_bits, random_bits
from sqkdlab import hashing
from sqkdlab.hashing import _expand, _toeplitz_product, privacy_amplify
from sqkdlab.protocol import MIN_HASH_KEY_BITS

from oracles import expand, toeplitz_matrix


def digest(key: np.ndarray, mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The keyed digest ``T·x xor mask`` as a session computes it."""
    return _toeplitz_product(key.astype(np.float64), x) ^ mask


# -- the hash map --------------------------------------------------------------


def test_worked_example():
    # key 1011, 2x3 matrix: rows (011, 101); x=110 hashes to 11 (hand-checked).
    key = as_bits("1011")
    assert np.array_equal(toeplitz_matrix(key, 3, 2), [[0, 1, 1], [1, 0, 1]])
    assert np.array_equal(digest(key, as_bits("00"), as_bits("110")), [1, 1])


def test_matrix_diagonals_constant():
    key = random_bits(np.random.default_rng(4), 12)
    t = toeplitz_matrix(key, 8, 5)
    for i in range(4):
        for j in range(7):
            assert t[i, j] == t[i + 1, j + 1]
    assert np.array_equal(t[:, 0][::-1], key[:5])  # first column, bottom-up
    assert np.array_equal(t[0, :], key[4:])  # first row


def test_zero_input_gives_mask():
    rng = np.random.default_rng(8)
    key, mask = random_bits(rng, 10), random_bits(rng, 4)
    assert np.array_equal(digest(key, mask, np.zeros(7, np.uint8)), mask)


def test_output_length():
    rng = np.random.default_rng(9)
    for out_len in (1, 3, 16):
        key = random_bits(rng, 6 + out_len - 1).astype(np.float64)
        assert len(_toeplitz_product(key, random_bits(rng, 6))) == out_len


@given(st.integers(0, 2**60))
def test_linearity_of_matrix_part(seed):
    rng = np.random.default_rng(seed)
    in_len, out_len = int(rng.integers(1, 24)), int(rng.integers(1, 24))
    key, mask = random_bits(rng, in_len + out_len - 1), random_bits(rng, out_len)
    x, y = random_bits(rng, in_len), random_bits(rng, in_len)
    lhs = digest(key, mask, x) ^ digest(key, mask, y) ^ mask
    assert np.array_equal(lhs, digest(key, mask, x ^ y))


def test_exhaustive_universality_4x4():
    # For every pair x != x', at most a 2**-4 fraction of the 2**7 keys collide.
    in_len = out_len = 4
    key_len = in_len + out_len - 1
    inputs = [np.array(bits, dtype=np.uint8) for bits in itertools.product((0, 1), repeat=in_len)]
    max_collisions = (2**key_len) * 2**-out_len
    collisions = np.zeros((len(inputs), len(inputs)), dtype=int)
    for key_value in range(2**key_len):
        key = as_bits([(key_value >> i) & 1 for i in range(key_len)])
        digests = [digest(key, np.zeros(out_len, np.uint8), x) for x in inputs]
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
    mask = np.zeros(out_len, np.uint8)
    hits = 0
    for key_value in range(2**key_len):
        key = as_bits([(key_value >> i) & 1 for i in range(key_len)])
        hits += np.array_equal(digest(key, mask, x) ^ 1, digest(key, mask, x_complement))
    assert hits == 2**key_len * 2**-out_len


# -- key expansion --------------------------------------------------------------


def test_expand_deterministic_and_sized():
    seed = random_bits(np.random.default_rng(1), 128)
    a = _expand(seed, 300)
    b = _expand(seed, 300)
    assert np.array_equal(a, b)
    assert a.shape == (300,)
    assert set(np.unique(a)) <= {0, 1}


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, 513])
@pytest.mark.parametrize("seed_len", [1, 7, 13, 130])
def test_expand_equals_the_plain_hashlib_reference(count, seed_len):
    # Counts of no block, one short or full block and one bit into the
    # second and third; seeds whose last packed byte is zero-padded.
    seed = random_bits(np.random.default_rng(seed_len), seed_len)
    assert np.array_equal(_expand(seed, count), expand(seed, count))


def test_expand_differs_across_seeds():
    a = _expand(random_bits(np.random.default_rng(1), 128), 256)
    b = _expand(random_bits(np.random.default_rng(2), 128), 256)
    assert not np.array_equal(a, b)


def test_expand_rejects_empty_seed():
    # privacy_amplify is the one checked entry to the expansion: a public
    # seed handed to it must not be empty.
    raw = random_bits(np.random.default_rng(15), 16)
    with pytest.raises(ValueError, match="empty seed"):
        privacy_amplify(raw, [], 8)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 300), st.integers(0, 700), st.integers(0, 700), st.integers(0, 2**32 - 1))
def test_expansion_is_prefix_stable(seed_len, a, b, seed):
    # A session expands each key once, to the longest length it needs, and
    # slices shorter streams from it; that relies on this property.
    a, b = min(a, b), max(a, b)
    seed_bits = random_bits(np.random.default_rng(seed), seed_len)
    assert np.array_equal(_expand(seed_bits, a), _expand(seed_bits, b)[:a])


def test_derived_specs_behave_universally():
    # Pooled collision frequency over random hash keys stays near the 2**-4
    # pairwise bound for 4-bit inputs and outputs.
    rng = np.random.default_rng(6)
    inputs = [np.array(bits, dtype=np.uint8) for bits in itertools.product((0, 1), repeat=4)]
    pairs = list(itertools.combinations(range(len(inputs)), 2))
    collisions = trials = 0
    for _ in range(200):
        # A session's layout: the matrix key is the stream's first 7 bits, the mask its next 4.
        stream = _expand(random_bits(rng, 128), 11)
        key, mask = stream[:7], stream[7:]
        digests = [_toeplitz_product(key, x) ^ mask for x in inputs]
        for i, j in pairs:
            collisions += np.array_equal(digests[i], digests[j])
            trials += 1
    assert collisions / trials <= 2**-4 + 0.02


# -- public surface --------------------------------------------------------------


def test_package_exports_resolve_and_leave_out_the_unchecked_hash_forms():
    # The digests are computed only by the cores a session runs;
    # privacy_amplify is the one public hashing entry point.
    for name in sqkdlab.__all__:
        assert hasattr(sqkdlab, name), name
    assert "privacy_amplify" in sqkdlab.__all__
    for removed in ("ToeplitzSpec", "toeplitz_hash", "derive_hash_spec", "expand_key_bits"):
        assert removed not in sqkdlab.__all__
        assert not hasattr(sqkdlab, removed)
        assert not hasattr(sqkdlab.hashing, removed)


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
            privacy_amplify(raw, seed, 32), privacy_amplify(raw ^ 1, seed, 32)
        )
    assert different == 1000


def test_privacy_amplify_contract():
    raw = random_bits(np.random.default_rng(13), 16)
    seed = random_bits(np.random.default_rng(14), 128)
    assert len(privacy_amplify(raw, seed, 16)) == 16
    for out_len, message in (
        (0, "^out_len: must be >= 1, got 0$"),
        (17, "^out_len: must be <= 16, got 17$"),
        (True, "^out_len: must be an integer, got True$"),
        (2.5, "^out_len: must be an integer, got 2.5$"),
    ):
        with pytest.raises(ValueError, match=message):
            privacy_amplify(raw, seed, out_len)
    with pytest.raises(ValueError, match="empty"):
        privacy_amplify([], seed, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 1100), st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_hash_equals_matrix_product(in_len, out_len, seed):
    rng = np.random.default_rng(seed)
    key, mask = random_bits(rng, in_len + out_len - 1), random_bits(rng, out_len)
    x = random_bits(rng, in_len)
    expected = (toeplitz_matrix(key, in_len, out_len).astype(np.int64) @ x.astype(np.int64)) % 2 ^ mask
    got = digest(key, mask, x)
    assert got.dtype == np.uint8
    assert np.array_equal(got, expected)


def padded_stack(rng, lengths):
    """Random inputs of the given lengths and their zero-padded (count, longest) stack."""
    inputs = [random_bits(rng, length) for length in lengths]
    stack = np.zeros((len(inputs), max(lengths)), np.uint8)
    for row, x in zip(stack, inputs):
        row[: len(x)] = x
    return inputs, stack


def assert_rows_equal_matrix_products(got, key, inputs, out_len):
    # Row k is input k times the matrix of its own prefix of the key.
    assert got.dtype == np.uint8 and got.shape == (len(inputs), out_len)
    for row, x in zip(got, inputs):
        matrix = toeplitz_matrix(key[: len(x) + out_len - 1], len(x), out_len).astype(np.int64)
        assert np.array_equal(row, (matrix @ x.astype(np.int64)) % 2)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=5),
    st.integers(1, 40),
    st.integers(1, 80),
    st.integers(0, 2**32 - 1),
)
def test_stacked_product_equals_the_matrix_product_of_each_padded_input(lengths, out_len, block_items, seed):
    # One product over inputs zero-padded to the longest, against the
    # longest key, equals each input's own matrix product, whatever the
    # block cap (small caps split the window into many row and column
    # blocks); empty inputs give zero rows.  The same stack handed over as
    # the digest hands it, a 3-D non-contiguous view of one interleaved
    # buffer, gives the same rows.
    rng = np.random.default_rng(seed)
    inputs, stack = padded_stack(rng, lengths)
    key = random_bits(rng, stack.shape[1] + out_len - 1)
    laid = np.zeros(stack.shape + (2,))
    laid[..., 0] = stack
    interleaved = laid.transpose(0, 2, 1)  # [k, 0] is input k, [k, 1] zeros
    with mock.patch.object(hashing, "_BLOCK_ITEMS", block_items):
        got = _toeplitz_product(key, stack)
        single = _toeplitz_product(key, stack[0])
        stacked = _toeplitz_product(key, interleaved)
    assert_rows_equal_matrix_products(got, key, inputs, out_len)
    assert np.array_equal(single, got[0])
    assert stacked.dtype == np.uint8 and stacked.shape == (len(inputs), 2, out_len)
    assert np.array_equal(stacked[:, 0], got) and not stacked[:, 1].any()


@pytest.mark.parametrize("in_len, out_len", [(hashing._BLOCK_ITEMS + 7000, 3), (300, 200)])
def test_product_spans_several_blocks_at_the_default_cap(in_len, out_len):
    # Longer rows than the cap holds (column blocks), and more entries than
    # it holds (row blocks).
    assert in_len * out_len > hashing._BLOCK_ITEMS
    rng = np.random.default_rng(in_len)
    inputs, stack = padded_stack(rng, [in_len, in_len - 5])
    key = random_bits(rng, in_len + out_len - 1)
    assert_rows_equal_matrix_products(_toeplitz_product(key, stack), key, inputs, out_len)


def test_empty_input_hashes_to_a_copy_of_the_mask():
    mask = as_bits("1101")
    out = digest(as_bits("101"), mask, as_bits(""))
    assert np.array_equal(out, mask)
    assert not np.shares_memory(out, mask)
