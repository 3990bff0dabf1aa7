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

The product runs over ``T``'s transpose, a strided view of the key with
negative column stride and no copy (entry (c, r) is
``key_bits[out_len - 1 + c - r]``).  It multiplies in blocks of it of at
most ``_BLOCK_ITEMS`` float64 entries (256 KiB), each copied to
contiguous memory so that the product is a BLAS matrix product, and
accumulates the blocks' sums.  Memory therefore stays O(256 KiB + in_len
+ out_len) for any size; without the cap, ``protocol.MAX_N`` ×
``protocol.MAX_HASH_BITS`` would need a 512 GiB matrix.  The float form is
exact: every sum is an integer count of at most in_len, far below 2**53,
so no addition rounds.  The test suite keeps the materialized matrix as
the reference form.

Two cores do the work: ``_expand`` stretches a seed into a key stream,
and ``_toeplitz_product`` computes ``T·x`` for inputs of one length along
the last axis of an array with any leading axes.  They trust their
arguments: 0/1 arrays of consistent lengths, a non-empty seed and counts
>= 0.  A session (``protocol.run_session``) checks its inputs where they
enter and calls the cores on arrays it built.  ``privacy_amplify`` is the
one checked entry point, the public form of the session's privacy
amplification.  Because the expanded stream is prefix-stable, one
expansion of a hash key, to the longer input's length, yields the matrix
keys and masks of inputs of two lengths, and every matrix key is a prefix
of the longest one: ``T_in = T_max[:, :in_len]``, so one product against
the longest key hashes inputs of several lengths, each zero-padded to the
longest.  One expansion of the public seed serves both parties' privacy
amplification.
"""

import hashlib

import numpy as np

from .bits import _check_size, as_bits


def privacy_amplify(raw, pa_seed, out_len: int) -> np.ndarray:
    """Compress a raw key to out_len bits with a seed-expanded Toeplitz map.

    No mask: equal raw keys under the same public seed give equal outputs.
    Requires 1 <= out_len <= len(raw) and a non-empty seed.

    No session calls it (``SessionOutcome`` derives both parties' keys in
    one product), but it stays public: the benchmark's tracer
    (``perfbench/tracer.py``) looks its span up by name, and the tests
    check session keys against it.
    """
    raw = as_bits(raw)
    if len(raw) < 1:
        raise ValueError("raw key is empty")
    out_len = _check_size("out_len", out_len, len(raw))
    seed = as_bits(pa_seed)
    if len(seed) == 0:
        raise ValueError("cannot expand an empty seed")
    return _toeplitz_product(_expand(seed, len(raw) + out_len - 1), raw)


# -- trusted cores ----------------------------------------------------------
#
# The functions below skip every check: callers pass 0/1 arrays of
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


# Largest block of T's transpose that one step of _toeplitz_product copies
# and multiplies: 256 KiB of float64.
_BLOCK_ITEMS = 32 * 1024


def _toeplitz_product(key: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T·x over GF(2) as uint8, for a 0/1 matrix key of in_len + out_len - 1 bits.

    ``x`` holds inputs of in_len bits along its last axis, with any leading
    axes (a strided view is taken as it is); the result holds out_len bits
    per input in their place.  Both are multiplied as float64 with
    ``np.matmul``, which numpy hands to BLAS, against ``T``'s transpose in
    blocks of at most _BLOCK_ITEMS entries.  Each block is a
    negative-stride view of the key (entry (c, r) of ``Tᵀ`` is
    ``key[out_len - 1 + c - r]``), so the sums come out in T's row order
    with no reversal.  The block is copied to contiguous memory first: a
    matrix product on the overlapping-stride view itself does not reach
    BLAS and is several times slower.  A row block's sums start as the
    product of its first column block, and the later column blocks add to
    them.  The float64 sums are exact: each counts at most in_len ones, an
    integer far below 2**53.
    """
    key = np.ascontiguousarray(key, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    in_len = x.shape[-1]
    out_len = len(key) - in_len + 1
    cols = min(max(in_len, 1), _BLOCK_ITEMS)  # an empty input runs one empty block: its sums are 0
    rows = _BLOCK_ITEMS // cols
    step = key.itemsize
    sums = np.empty(x.shape[:-1] + (out_len,))
    for row in range(0, out_len, rows):
        height = min(rows, out_len - row)
        target = sums[..., row : row + height]
        for col in range(0, max(in_len, 1), cols):
            part = x[..., col : col + cols]
            # Rows col.. and columns row.. of Tᵀ: entry (c, r) is key[out_len - 1 + col + c - row - r].
            offset = (out_len - 1 + col - row) * step
            block = np.ascontiguousarray(np.ndarray((part.shape[-1], height), np.float64, key, offset, (step, -step)))
            if col == 0:
                np.matmul(part, block, out=target)
            else:
                target += np.matmul(part, block)
    return (sums.astype(np.int64) & 1).astype(np.uint8)

