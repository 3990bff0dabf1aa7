"""Bit-sequence helpers.

Bit sequences are numpy uint8 arrays with values in {0, 1} throughout the
package; "0011"-style strings are accepted at the boundaries.  The one
size check of a count given from outside (``_check_size``) lives here too,
so that every module can import it without a cycle, and so do the one
definition of a trial's rng stream (``trial_stream``, ``TrialStreams``) and
the one reader of raw PCG64 words, a fresh stream's session draws in one
read (``_read_session``).  Every other draw is a plain numpy call.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

_NON_BINARY = "bit sequence may only contain 0 and 1"


def as_bits(value) -> np.ndarray:
    """Coerce a bit string, iterable, or array to a fresh uint8 0/1 array."""
    if isinstance(value, np.ndarray) and value.dtype == np.uint8:
        # Internal bit arrays are already uint8: one reduction validates them.
        arr = value.reshape(-1)
        if arr.size and np.maximum.reduce(arr) > 1:
            raise ValueError(_NON_BINARY)
        return arr.copy()
    if isinstance(value, str):
        arr = np.frombuffer(value.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        arr = np.asarray(value).reshape(-1)
    if arr.size and not np.all((arr == 0) | (arr == 1)):
        raise ValueError(_NON_BINARY)
    return arr.astype(np.uint8)


def _check_size(name: str, value, cap: int | None = None) -> int:
    """``value`` as an int, after rejecting a bool (it would pass as 0/1), a
    non-integer (it would fail deep inside numpy), or a value below 1 or
    above ``cap``, with an error naming the field."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name}: must be >= 1, got {value}")
    if cap is not None and value > cap:
        raise ValueError(f"{name}: must be <= {cap}, got {value}")
    return int(value)


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent uniform bits: ``rng.integers(0, 2, n, uint8)``."""
    return rng.integers(0, 2, size=n, dtype=np.uint8)


# Uniforms are the 53-bit integers x that ``Generator.random`` scales to
# x * 2**-53, and probabilities their thresholds (``_thresholds``).
_UNIFORM_SCALE = 2.0**53
_UNIFORM_SHIFT = np.array(11, dtype=np.uint64)  # PCG64's random is (w >> 11) * 2**-53 of a raw word w


def _thresholds(p: np.ndarray) -> np.ndarray:
    """``ceil(p * 2**53)`` as uint64, for probabilities ``p``: a 53-bit
    uniform x satisfies ``x >= ceil(p * 2**53)`` exactly when ``x * 2**-53
    >= p``, since scaling by 2**53 and ceil are exact and x is an integer."""
    return np.ceil(p * _UNIFORM_SCALE).astype(np.uint64)


def _uniform_words(rng: np.random.Generator, count: int) -> np.ndarray:
    """``rng.random(count)`` as the 53-bit integers it scales by 2**-53;
    exact, since every numpy bit generator's doubles are such multiples."""
    return (rng.random(count) * _UNIFORM_SCALE).astype(np.uint64)


# A 0-d uint8 shift count keeps the shift in uint8 without the slower
# promotion step a Python int operand takes.
_TOP_BIT_SHIFT = np.array(7, dtype=np.uint8)


def _read_session(rng: np.random.Generator, key_size: int, hash_size: int, uniform_count: int, pa_bits: int) -> tuple:
    """A session's draws from one ``random_raw`` read of a PCG64 stream with
    no half-word buffered: ``(keys, uniforms, pa_seed)``, where ``keys`` is
    a ``key_size``-, a ``key_size``- and a ``hash_size``-bit key (three
    empty arrays when both sizes are 0).  They are what these numpy calls
    draw in turn: one ``integers(0, 2, size, uint8)`` per key, one
    ``random(uniform_count)`` as the 53-bit integers it scales by 2**-53
    (``_uniform_words``), and one ``integers`` of ``pa_bits`` bits.

    ``integers`` takes output bit i from the top bit of byte i of
    successive little-endian ``next_uint32`` words, from a new word at each
    call, and PCG64 serves those from the low and then the high half of one
    64-bit word; ``random`` takes one whole word w per uniform, ``w >> 11``.
    So in stream order the read holds each key on ``ceil(size / 4)`` whole
    32-bit words, then ``uniform_count`` words, shifted in place, then the
    PA seed's ``pa_bits // 8`` words.  ``hash_size`` and ``pa_bits`` are
    multiples of 8, so the keys and the seed end on whole 64-bit words.
    This is the one function that knows this layout.  Keys laid on padded
    words are copied out, as the PA bits always are, so nothing that keeps
    them holds more than its own bits.
    """
    width = (key_size + 3) & -4  # bytes of a key's whole 32-bit words
    key_bytes = 2 * width + hash_size
    key_words = key_bytes // 8
    raw = rng.bit_generator.random_raw(key_words + uniform_count + pa_bits // 8)
    raw_bytes = raw.astype("<u8", copy=False).view(np.uint8)
    key_bits = np.right_shift(raw_bytes[:key_bytes], _TOP_BIT_SHIFT)
    keys = key_bits[:key_size], key_bits[width : width + key_size], key_bits[2 * width :]
    if width > key_size:
        keys = tuple(key.copy() for key in keys)
    pa_seed = np.right_shift(raw_bytes[len(raw_bytes) - pa_bits :], _TOP_BIT_SHIFT)
    uniforms = raw[key_words : key_words + uniform_count]
    return keys, np.right_shift(uniforms, _UNIFORM_SHIFT, out=uniforms), pa_seed


def to01(bits) -> str:
    """Render as a compact '0101' string: the checked bits shifted onto the
    ASCII digits in one array step."""
    return (as_bits(bits) + np.uint8(ord("0"))).tobytes().decode("ascii")


# -- trial streams -------------------------------------------------------------

# numpy's SeedSequence arithmetic: a pool of four uint32 words filled by
# ``hashmix`` (whose multiplier steps by MULT_A after every call, from
# INIT_A) and cross-mixed by ``mix``; ``generate_state`` hashes the pool
# the same way from INIT_B by MULT_B.  PCG64 seeds from four of its
# uint64 words through pcg64_srandom, a step of its 128-bit LCG.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_OTHER_WORDS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & (2**64 - 1))
_M1, _M0 = np.uint64(_PCG64_MULT >> 32 & (2**32 - 1)), np.uint64(_PCG64_MULT & (2**32 - 1))  # _MULT_LO's halves
_LOW32, _U1, _U32, _U63 = np.uint64(2**32 - 1), np.uint64(1), np.uint64(32), np.uint64(63)
# Trials seeded per pass: the pass's arrays stay a few tens of KiB whatever the trial count.
_SEED_CHUNK = 1024


def trial_stream(prefix: tuple, trial: int) -> np.random.SeedSequence:
    """The rng stream of trial ``trial`` of a run whose streams have
    ``prefix``: ``SeedSequence((*prefix, trial))``.

    A batch's prefix is ``(seed,)`` and a sweep strategy's ``(seed,
    index)``.  This is the reference form of every trial stream;
    ``TrialStreams`` sets the same PCG64 states without building it.
    """
    return np.random.SeedSequence((*prefix, trial))


@dataclass(frozen=True)
class TrialStreams:
    """The streams of trials ``0 .. trials - 1`` under ``prefix``: trial t's
    is ``trial_stream(prefix, t)``.

    ``count_sessions`` runs a TrialStreams' sessions on the generators of
    ``_generators``: the same streams, bit for bit, without a SeedSequence
    each.  ``_seeded`` may hold the PCG64 states of the first
    ``_SEED_CHUNK`` trials (of all of them, if fewer), computed in a pass
    shared with other runs' streams (``_shared_streams``); it changes no
    stream, so equality ignores it.
    """

    prefix: tuple
    trials: int
    _seeded: tuple = field(default=(), compare=False, repr=False)

    def _generators(self):
        """Yield one Generator per trial, the same object each time.

        Its PCG64 is set to the state ``PCG64(trial_stream(prefix, t))``
        starts in, with no half-word buffered, so it draws what a
        Generator freshly seeded from that stream draws.  The states come
        from ``_pcg64_state_rows``, ``_SEED_CHUNK`` trials at a time, the
        first chunk's from ``_seeded`` when it holds them.
        """
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        lcg = {}
        state = {"bit_generator": "PCG64", "state": lcg, "has_uint32": 0, "uinteger": 0}
        for start in range(0, self.trials, _SEED_CHUNK):
            count = min(_SEED_CHUNK, self.trials - start)
            for seeded, inc in start == 0 and self._seeded or _pcg64_state_rows([self.prefix], start, count)[0]:
                lcg["state"], lcg["inc"] = seeded, inc
                bit_generator.state = state
                yield rng


def _shared_streams(prefixes: list, trials: int) -> list:
    """``TrialStreams(prefix, trials)`` for each of ``prefixes``, whose word
    counts are equal, with the states of every one's first ``_SEED_CHUNK``
    trials from one pass (``_pcg64_state_rows``)."""
    rows = _pcg64_state_rows(prefixes, 0, min(trials, _SEED_CHUNK))
    return [TrialStreams(prefix, trials, tuple(seeded)) for prefix, seeded in zip(prefixes, rows)]


def _uint32_words(value: int) -> list:
    """SeedSequence's words of a non-negative int: low word first, 0 as one word."""
    if value < 0:
        raise ValueError(f"trial stream prefix values must be non-negative, got {value}")
    words = [value & 0xFFFFFFFF]
    while value := value >> 32:
        words.append(value & 0xFFFFFFFF)
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` hash multipliers ``init * mult**k mod 2**32``, as a uint32 column."""
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    return np.array(constants, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of ``values`` (rows broadcast),
    row i with multiplier ``constants[i]`` then ``constants[i + 1]``."""
    mixed = values ^ constants[:-1]
    mixed *= constants[1:]
    mixed ^= mixed >> _XSHIFT
    return mixed


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of two uint32 arrays."""
    mixed = x * _MIX_MULT_L
    mixed -= y * _MIX_MULT_R
    mixed ^= mixed >> _XSHIFT
    return mixed


def _mulhi_mult_lo(a: np.ndarray) -> np.ndarray:
    """The high 64 bits of each ``a * _MULT_LO`` (a full 128-bit product),
    from 32-bit halves."""
    a0, a1 = a & _LOW32, a >> _U32
    cross_01, cross_10 = a0 * _M1, a1 * _M0
    carry = ((a0 * _M0) >> _U32) + (cross_01 & _LOW32) + (cross_10 & _LOW32)
    return a1 * _M1 + (cross_01 >> _U32) + (cross_10 >> _U32) + (carry >> _U32)


def _pcg64_state_rows(prefixes: list, start: int, count: int) -> list:
    """One list per prefix of ``prefixes``, whose word counts are equal:
    ``(state, inc)`` of ``PCG64(trial_stream(prefix, t)).state["state"]``
    for each t in ``range(start, start + count)``, from one pass of array
    arithmetic across every prefix's trials.

    Every SeedSequence step applies the same constants to every trial
    (a hashmix multiplier depends on how many hashmix calls came before,
    not on the data), so each step is one uint32 array operation: the
    prefix words are the leading rows of the entropy, one column per
    (prefix, trial), t its last row (two rows, low word first, for t >=
    2**32; a range across 2**32 is cut there, since the entropy lengths
    differ).  ``generate_state(4, uint64)`` pairs the pool's hashed words
    little-endian into ``initstate`` (words 0, 1) and ``initseq`` (words
    2, 3), high word first, and pcg64_srandom makes ``inc = 2 * initseq +
    1`` and ``state = ((initstate + inc) * mult + inc) mod 2**128``, done
    here in uint64 halves with explicit carries.
    """
    if start < 2**32 < start + count:
        cut = 2**32 - start
        below, above = _pcg64_state_rows(prefixes, start, cut), _pcg64_state_rows(prefixes, 2**32, count - cut)
        return [first + second for first, second in zip(below, above)]
    trials = np.tile(np.arange(start, start + count, dtype=np.uint64), len(prefixes))
    trial_words = [trials.astype(np.uint32)]
    if start >= 2**32:
        trial_words.append((trials >> _U32).astype(np.uint32))
    prefix_words = [[word for value in prefix for word in _uint32_words(value)] for prefix in prefixes]
    prefix_words = np.array(prefix_words, dtype=np.uint32)  # (prefixes, words)
    words = prefix_words.shape[1]
    used = words + len(trial_words)
    entropy = np.zeros((max(used, _POOL_SIZE), len(trials)), dtype=np.uint32)
    entropy[:words] = np.repeat(prefix_words.T, count, axis=1)
    entropy[words:used] = trial_words

    # mix_entropy: hash the first four words into the pool, mix every word
    # into every other one (word src is hashed once per destination, in
    # order, and is not itself changed meanwhile), then mix in each
    # remaining entropy word.
    constants = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(used - _POOL_SIZE, 0))
    pool = _hashmix(entropy[:_POOL_SIZE], constants[: _POOL_SIZE + 1])
    k = _POOL_SIZE
    for src, dst in enumerate(_OTHER_WORDS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants[k : k + _POOL_SIZE]))
        k += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:used]:
        pool = _mix(pool, _hashmix(word, constants[k : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE

    hashed = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    seed_hi, seed_lo, seq_hi, seq_lo = hashed[0::2].astype(np.uint64) | (hashed[1::2].astype(np.uint64) << _U32)
    inc_hi = (seq_hi << _U1) | (seq_lo >> _U63)
    inc_lo = (seq_lo << _U1) | _U1
    lo = seed_lo + inc_lo  # initstate + inc; a sum below an addend carried
    hi = seed_hi + inc_hi
    hi += lo < inc_lo
    hi = _mulhi_mult_lo(lo) + lo * _MULT_HI + hi * _MULT_LO  # * mult, mod 2**128
    lo *= _MULT_LO
    lo += inc_lo  # + inc
    hi += inc_hi
    hi += lo < inc_lo
    rows = zip(hi.tolist(), lo.tolist(), inc_hi.tolist(), inc_lo.tolist())
    states = [(s1 << 64 | s0, i1 << 64 | i0) for s1, s0, i1, i0 in rows]
    return [states[row * count : (row + 1) * count] for row in range(len(prefixes))]
