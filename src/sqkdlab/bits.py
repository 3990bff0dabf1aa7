"""Bit-sequence helpers.

Bit sequences are numpy uint8 arrays with values in {0, 1} throughout the
package; "0011"-style strings are accepted at the boundaries.  The one
size check of a count given from outside (``_check_size``) lives here too,
so that every module can import it without a cycle.
"""

import numbers

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


# A 0-d uint8 shift count keeps the shift in uint8 without the slower
# promotion step a Python int operand takes.
_TOP_BIT_SHIFT = np.array(7, dtype=np.uint8)


def random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent uniform bits: ``rng.integers(0, 2, n, uint8)``, bit for
    bit, and leaving the stream where that call leaves it.

    ``integers`` takes output bit i from the top bit of byte i of successive
    little-endian ``next_uint32`` words, and PCG64 serves those from the low
    and then the high half of one 64-bit word.  So when n is a multiple of
    8 and no half-word is buffered, the top bits of the bytes of n // 8 raw
    words are the same bits and consume the same words.  Any other count or
    bit generator goes through ``integers``.
    """
    return _random_runs(rng, ((np.uint8, n),))[0]


def _random_runs(rng: np.random.Generator, runs, *, fresh: bool = False) -> list:
    """The draws of ``runs`` in order, bit for bit, and leaving the stream
    where successive calls leave it: a run ``(np.uint8, n)`` is
    ``random_bits(rng, n)`` and a run ``(np.float64, n)`` is ``rng.random(n)``.

    Each raw-word draw of random_bits consumes whole words and buffers no
    half-word, and ``random`` consumes whole words and leaves a buffered
    half-word alone.  So when every bit count is a multiple of 8 and no
    half-word is buffered, each stretch of successive bit runs is one raw
    read, sliced in order, and each run of uniforms one ``random`` call.
    ``fresh`` says the generator was just seeded, so nothing is buffered
    and the state need not be read.  Any other bit count, a buffered
    half-word or another bit generator draws each bit run through
    ``integers``.
    """
    bit_generator = rng.bit_generator
    if not (
        type(bit_generator) is np.random.PCG64
        and not any([n % 8 for kind, n in runs if kind is np.uint8])
        and (fresh or not bit_generator.state["has_uint32"])
    ):
        return [rng.integers(0, 2, size=n, dtype=np.uint8) if kind is np.uint8 else rng.random(n) for kind, n in runs]
    drawn, stretch = [], []
    for kind, n in runs:
        if kind is np.uint8:
            stretch.append(n)
            continue
        if stretch:
            drawn += _raw_bit_runs(bit_generator, stretch)
            stretch = []
        drawn.append(rng.random(n))
    if stretch:
        drawn += _raw_bit_runs(bit_generator, stretch)
    return drawn


def _raw_bit_runs(bit_generator: np.random.PCG64, sizes: list) -> list:
    """Bit runs of ``sizes`` (each a multiple of 8) from one raw read: the
    top bit of each byte of the little-endian words, sliced in order."""
    raw_bytes = bit_generator.random_raw(sum(sizes) // 8).astype("<u8", copy=False).view(np.uint8)
    bits = np.right_shift(raw_bytes, _TOP_BIT_SHIFT, out=raw_bytes)
    runs, start = [], 0
    for n in sizes:
        runs.append(bits[start : start + n])
        start += n
    return runs


def flip(bits) -> np.ndarray:
    """Bitwise complement."""
    return np.bitwise_xor(as_bits(bits), 1)


def to01(bits) -> str:
    """Render as a compact '0101' string."""
    return "".join("1" if b else "0" for b in as_bits(bits))
