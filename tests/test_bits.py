import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqkdlab.bits import (
    _SEED_CHUNK,
    TrialStreams,
    _pcg64_state_rows,
    _read_session,
    _shared_streams,
    _thresholds,
    as_bits,
    random_bits,
    to01,
    trial_stream,
)

from oracles import stream_position


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


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2100),
    st.integers(0, 40),
    st.integers(0, 2),
    st.sampled_from([np.random.PCG64, np.random.MT19937, np.random.Philox]),
    st.integers(0, 2**32 - 1),
)
def test_random_bits_equals_integers(count, bits_before, doubles_before, bit_generator, seed):
    # The same bits as Generator.integers and the same stream afterwards,
    # with or without a PCG64 half-word buffered: bits drawn before take
    # ceil(bits / 4) 32-bit words, and an odd count leaves one; doubles do
    # not.
    ours, reference = (np.random.Generator(bit_generator(seed)) for _ in range(2))
    for rng in (ours, reference):
        rng.integers(0, 2, size=bits_before, dtype=np.uint8)
        rng.random(doubles_before)
    got = random_bits(ours, count)
    expected = reference.integers(0, 2, size=count, dtype=np.uint8)
    assert got.dtype == np.uint8 and got.shape == (count,)
    assert np.array_equal(got, expected)
    assert np.array_equal(random_bits(ours, 13), reference.integers(0, 2, size=13, dtype=np.uint8))
    assert np.array_equal(ours.random(3), reference.random(3))
    assert np.array_equal(random_bits(ours, 64), reference.integers(0, 2, size=64, dtype=np.uint8))


@settings(max_examples=300, deadline=None)
@given(st.floats(0, 1), st.integers(0, 2**53 - 1))
@example(0.0, 0)
@example(1.0, 2**53 - 1)
@example(0.5, 2**52)
@example(float(np.nextafter(0.5, 0)), 2**52 - 1)
def test_thresholds_compare_53_bit_uniforms_exactly(p, x):
    # A 53-bit uniform x against ceil(p * 2**53), as uint64 words, reads
    # what Generator.random's double x * 2**-53 reads against p: at x and
    # at either side of the threshold, K - 1 and K.
    threshold = _thresholds(np.array([p]))
    assert threshold.dtype == np.uint64
    (k,) = threshold.tolist()
    words = np.array(sorted(w for w in {x, k - 1, k} if 0 <= w < 2**53), dtype=np.uint64)
    assert np.array_equal(words >= threshold, words * 2.0**-53 >= p)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 80), st.integers(0, 300), st.sampled_from([0, 128]), st.integers(0, 2**32 - 1))
def test_one_session_read_equals_its_call_by_call_draws(n, uniform_count, pa_bits, seed):
    # One raw read on a fresh PCG64 stream draws what numpy's own calls
    # draw in turn: three keys of 2n, 2n and 128 bits (none when n = 0),
    # each an integers call (2n = 2 mod 4 at odd n, a key on padded
    # words), random's doubles as 53-bit integers, and an integers call
    # for the PA bits; the stream is left where those calls leave it.
    # Keys and PA bits are copied out of the read, and the uniforms share
    # no memory with either.
    ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    key_size, hash_size = (2 * n, 128) if n else (0, 0)
    keys, uniforms, pa_seed = _read_session(ours, key_size, hash_size, uniform_count, pa_bits)
    for key, size in zip(keys, (key_size, key_size, hash_size)):
        assert key.dtype == np.uint8
        assert key.tobytes() == reference.integers(0, 2, size=size, dtype=np.uint8).tobytes()
    assert uniforms.dtype == np.uint64 and np.array_equal(uniforms, reference.random(uniform_count) * 2.0**53)
    assert pa_seed.tobytes() == reference.integers(0, 2, size=pa_bits, dtype=np.uint8).tobytes()
    assert stream_position(ours) == stream_position(reference)
    assert pa_seed.base is None
    assert not np.shares_memory(uniforms, pa_seed)
    for key in keys:
        owner = key if key.base is None else key.base
        assert owner.base is None and owner.nbytes <= 2 * key_size + hash_size
        assert not np.shares_memory(uniforms, key)


def test_shared_streams_seed_each_prefix_as_its_own_streams_do():
    # One pass for every prefix's first chunk; later chunks per prefix.
    # The streams compare equal to, and yield the states of, each
    # prefix's own TrialStreams.
    trials = _SEED_CHUNK + 3
    prefixes = [(2**64 - 1, index) for index in range(3)]
    for shared, prefix in zip(_shared_streams(prefixes, trials), prefixes):
        assert shared == TrialStreams(prefix, trials) and len(shared._seeded) == _SEED_CHUNK
        states = [rng.bit_generator.state["state"] for rng in shared._generators()]
        assert states == [rng.bit_generator.state["state"] for rng in TrialStreams(prefix, trials)._generators()]


@given(st.lists(st.integers(0, 1), max_size=100))
def test_to01_round_trip(bits):
    arr = as_bits(bits)
    assert np.array_equal(as_bits(to01(arr)), arr)


@given(st.lists(st.integers(0, 1), max_size=1000), st.sampled_from(["array", "list", "string"]))
def test_to01_equals_the_per_bit_join(bits, form):
    value = {"array": np.array(bits, dtype=np.uint8), "list": bits, "string": "".join(map(str, bits))}[form]
    assert to01(value) == "".join("1" if bit else "0" for bit in bits)


@given(st.lists(st.integers(0, 9), min_size=1, max_size=20).filter(lambda values: max(values) > 1))
def test_to01_rejects_a_non_bit_input(values):
    for value in (values, np.array(values, dtype=np.uint8), "".join(map(str, values))):
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            to01(value)


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


# -- trial streams -------------------------------------------------------------

U64_MAX = 2**64 - 1
U32_MAX = 2**32 - 1


def reference_state(prefix, t) -> dict:
    return np.random.PCG64(trial_stream(prefix, t)).state["state"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.one_of(st.integers(0, U64_MAX), st.sampled_from([0, U32_MAX, 2**32, U64_MAX])), min_size=1, max_size=3),
    st.one_of(st.integers(0, U32_MAX), st.sampled_from([0, 1, 2**31, U32_MAX])),
    st.integers(1, 40),
)
def test_pcg64_states_equal_pcg64_seeded_from_the_trial_stream(prefix, start, count):
    # Entropy of 2 to 7 words: a pool filled from the prefix and t, or the
    # words beyond the pool mixed in after it; the last trials of a run
    # that starts near 2**32 - 1 cross to two-word t.
    (states,) = _pcg64_state_rows([tuple(prefix)], start, count)
    assert len(states) == count
    for t, (state, inc) in zip(range(start, start + count), states):
        assert {"state": state, "inc": inc} == reference_state(tuple(prefix), t)


@pytest.mark.parametrize("prefix", [(0,), (U64_MAX,), (0, 0), (U64_MAX, 11), (U64_MAX, U64_MAX, U64_MAX)])
def test_pcg64_states_at_the_edges_of_t(prefix):
    # t = 0 and t = 2**32 - 1 (the last one-word t), and a range across
    # 2**32 that the helper cuts there, with two-word t up to 2**40.
    for start, count in [(0, 3), (U32_MAX, 1), (2**32 - 2, 5), (2**40, 2)]:
        expected = [reference_state(prefix, t) for t in range(start, start + count)]
        (states,) = _pcg64_state_rows([prefix], start, count)
        assert [{"state": s, "inc": i} for s, i in states] == expected


def test_trial_streams_generators_draw_each_trial_stream():
    # One Generator, reset to each trial's fresh stream: the half-word that
    # three uint32 draws leave buffered in one trial is gone in the next,
    # and the chunks join up.
    def draws(rng):
        return rng.integers(0, 2**32, size=3, dtype=np.uint32).tolist()

    trials, generators = _SEED_CHUNK + 5, set()
    for t, rng in enumerate(TrialStreams((3, 4), trials)._generators()):
        generators.add(id(rng))
        assert draws(rng) == draws(np.random.default_rng(trial_stream((3, 4), t)))
    assert t == trials - 1 and len(generators) == 1
    assert list(TrialStreams((7,), 0)._generators()) == []


def test_trial_stream_is_the_seed_sequence_of_prefix_and_t():
    assert trial_stream((7, 2), 5).entropy == (7, 2, 5)
    with pytest.raises(ValueError):
        _pcg64_state_rows([(-1,)], 0, 1)
