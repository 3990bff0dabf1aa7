"""Keyed Toeplitz universal hashing over GF(2) and privacy amplification.

A hash key of ``in_len + out_len - 1`` bits defines the ``out_len x in_len``
binary Toeplitz matrix ``T[i, j] = key_bits[out_len - 1 + j - i]`` (constant
along diagonals: reading the first column downward gives key bits
``out_len-1 .. 0``, reading the first row rightward gives key bits
``out_len-1 .. in_len+out_len-2``).  The keyed map ``x -> T·x xor mask`` is a
strongly universal family: any two distinct inputs collide with probability
at most ``2**-out_len`` over a uniform key.

The same construction doubles as the privacy-amplification compressor
(mask zero, matrix bits expanded from a public seed).

The matrix is never materialized: row i of ``T·x`` is the sliding
correlation of the key with ``x`` at offset ``out_len - 1 - i``, computed in
float64 with O(in_len + out_len) memory and reduced mod 2.  The float form
is exact: every partial sum is an integer count of at most in_len, far
below 2**53, so no addition rounds.  The test suite keeps the materialized
matrix as the reference form.

Three cores do the work: ``_expand`` stretches a seed into a key stream,
``_toeplitz_product`` computes ``T·x``, and ``_digest_keys`` lays out the
(matrix key, mask) of each digest input length from one stream of a hash
key.  They trust their arguments: uint8 0/1 arrays of consistent lengths,
a non-empty seed and counts >= 0.  A session (``protocol.run_session``)
checks its inputs where they enter and calls the cores on arrays it built.
``privacy_amplify`` is the one checked entry point, the public form of the
session's privacy amplification.  Because the expanded stream is
prefix-stable, one expansion of a hash key, to the longer direction's
length, yields both directions' digest keys, and one expansion of the
public seed serves both parties' privacy amplification.
"""

import hashlib

import numpy as np

from .bits import _check_size, as_bits


def privacy_amplify(raw, pa_seed, out_len: int) -> np.ndarray:
    """Compress a raw key to out_len bits with a seed-expanded Toeplitz map.

    No mask: equal raw keys under the same public seed give equal outputs.
    Requires 1 <= out_len <= len(raw) and a non-empty seed.
    """
    raw = as_bits(raw)
    if len(raw) < 1:
        raise ValueError("raw key is empty")
    out_len = _check_size("out_len", out_len, len(raw))
    seed = as_bits(pa_seed)
    if len(seed) == 0:
        raise ValueError("cannot expand an empty seed")
    return _toeplitz_product(_expand(seed, len(raw) + out_len - 1).astype(np.float64), raw)


# -- trusted cores ----------------------------------------------------------
#
# The functions below skip every check: callers pass uint8 0/1 arrays of
# consistent lengths, a non-empty seed and counts >= 0.


def _expand(seed: np.ndarray, count: int) -> np.ndarray:
    """Deterministic counter-mode expansion of a bit seed into ``count`` bits.

    Block i is SHA-256(seed_len || packed seed || i); blocks are concatenated
    and truncated, so a shorter stream is a prefix of a longer one from the
    same seed.  Same seed, same stream; no other guarantees intended.
    """
    prefix = len(seed).to_bytes(8, "big") + np.packbits(seed).tobytes()
    blocks = b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest() for counter in range((count + 255) // 256)
    )
    return np.unpackbits(np.frombuffer(blocks, dtype=np.uint8), count=count)


def _toeplitz_product(key: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T·x over GF(2) as uint8, for a float64 0/1 matrix key of len(x) + out_len - 1 bits.

    numpy correlates float64 through its BLAS dot product and int64 with a
    plain loop, so the float form is several times faster at
    privacy-amplification sizes.  It is exact: each sum counts at most
    len(x) ones, an integer far below 2**53.
    """
    if len(x) == 0:  # empty sum; np.correlate rejects empty input
        return np.zeros(len(key) + 1, dtype=np.uint8)
    return (np.correlate(key, x, "valid")[::-1].astype(np.int64) & 1).astype(np.uint8)


def _digest_keys(hash_key: np.ndarray, in_lens, out_len: int) -> list:
    """``(float64 matrix key, mask)`` of the keyed digest of each input length in ``in_lens``.

    For input length in_len, the first in_len + out_len - 1 bits of the
    hash key's stream are the matrix key and the next out_len bits the
    mask.  One stream, expanded to the longest in_len, serves every in_len:
    each reads a prefix of it, and the stream is prefix-stable.  The key
    is float64 for ``_toeplitz_product``, whose 0/1 sums are exact in it.
    """
    stream = _expand(hash_key, max(in_lens) + 2 * out_len - 1)
    return [
        (stream[: in_len + out_len - 1].astype(np.float64), stream[in_len + out_len - 1 : in_len + 2 * out_len - 1])
        for in_len in in_lens
    ]
