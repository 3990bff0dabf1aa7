import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqkdlab.bits import as_bits, flip, random_bits, to01


def test_as_bits_from_string():
    assert np.array_equal(as_bits("0110"), [0, 1, 1, 0])
    assert as_bits("").shape == (0,)


def test_as_bits_from_iterables():
    assert np.array_equal(as_bits([1, 0, 1]), [1, 0, 1])
    assert np.array_equal(as_bits(np.array([True, False])), [1, 0])
    assert as_bits([1, 0]).dtype == np.uint8


@pytest.mark.parametrize("bad", ["012", [0, 2], [0.5], [-1]])
def test_as_bits_rejects_non_binary(bad):
    with pytest.raises(ValueError):
        as_bits(bad)


def test_random_bits_reproducible():
    a = random_bits(np.random.default_rng(9), 64)
    b = random_bits(np.random.default_rng(9), 64)
    assert np.array_equal(a, b)
    assert a.shape == (64,)


@given(st.lists(st.integers(0, 1), max_size=100))
def test_flip_is_involution(bits):
    arr = as_bits(bits)
    assert np.array_equal(flip(flip(arr)), arr)


@given(st.lists(st.integers(0, 1), max_size=100))
def test_to01_round_trip(bits):
    arr = as_bits(bits)
    assert np.array_equal(as_bits(to01(arr)), arr)


@given(st.lists(st.integers(0, 255), max_size=64))
def test_as_bits_uint8_fast_path(values):
    arr = np.array(values, dtype=np.uint8)
    if any(v > 1 for v in values):
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            as_bits(arr)
        return
    out = as_bits(arr)
    assert out.dtype == np.uint8
    assert np.array_equal(out, values)
    assert not np.shares_memory(out, arr)


def test_as_bits_uint8_returns_fresh_copy():
    arr = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    out = as_bits(arr)
    out[0] = 1
    assert arr[0, 0] == 0
    assert np.array_equal(as_bits(arr[:, 1]), [1, 0])  # strided view
    with pytest.raises(ValueError):
        as_bits(np.array([0, 2], dtype=np.uint8))
