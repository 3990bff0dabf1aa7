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

The matrix is never materialized on the hashing path: row i of ``T·x`` is
the sliding correlation of the key with ``x`` at offset ``out_len - 1 - i``,
computed exactly in int64 with O(in_len + out_len) memory.  The test
suite keeps the materialized matrix as the reference form.

Validation happens once, where bits enter.  The public functions
(``ToeplitzSpec``, ``toeplitz_hash``, ``expand_key_bits``,
``derive_hash_spec``, ``privacy_amplify``) check every argument and then
call private cores (``_expand``, ``_toeplitz_product``, ``_digest_keys``)
that trust theirs: uint8 0/1 arrays of consistent lengths.  A session
(``protocol.run_session``) calls the cores directly on arrays it built.
Because the expanded stream is prefix-stable, one expansion of a hash key,
to the longer direction's length, yields both directions' specs, and one
expansion of the public seed serves both parties' privacy amplification.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from .bits import as_bits

MIN_HASH_KEY_BITS = 128


@dataclass(frozen=True)
class ToeplitzSpec:
    """One fully expanded keyed hash: matrix key bits plus an XOR mask."""

    key_bits: np.ndarray
    mask_bits: np.ndarray
    in_len: int
    out_len: int

    def __post_init__(self):
        object.__setattr__(self, "key_bits", as_bits(self.key_bits))
        object.__setattr__(self, "mask_bits", as_bits(self.mask_bits))
        if self.in_len < 0 or self.out_len < 1:
            raise ValueError("need in_len >= 0 and out_len >= 1")
        if len(self.key_bits) != self.in_len + self.out_len - 1:
            raise ValueError(
                f"key must be in_len + out_len - 1 = {self.in_len + self.out_len - 1} bits, "
                f"got {len(self.key_bits)}"
            )
        if len(self.mask_bits) != self.out_len:
            raise ValueError(f"mask must be out_len = {self.out_len} bits, got {len(self.mask_bits)}")


def toeplitz_hash(spec: ToeplitzSpec, x) -> np.ndarray:
    """T·x xor mask over GF(2); input length must equal spec.in_len."""
    x = as_bits(x)
    if len(x) != spec.in_len:
        raise ValueError(f"input is {len(x)} bits, spec expects {spec.in_len}")
    return _toeplitz_product(spec.key_bits.astype(np.int64), x) ^ spec.mask_bits


def expand_key_bits(seed_bits, count: int) -> np.ndarray:
    """Deterministic counter-mode expansion of a bit seed into ``count`` bits.

    Block i is SHA-256(seed_len || packed seed || i); blocks are concatenated
    and truncated, so a shorter stream is a prefix of a longer one from the
    same seed.  Same seed, same stream; no other guarantees intended.
    """
    seed = as_bits(seed_bits)
    if len(seed) == 0:
        raise ValueError("cannot expand an empty seed")
    if count < 0:
        raise ValueError("count must be >= 0")
    return _expand(seed, count)


def derive_hash_spec(hash_key, in_len: int, out_len: int) -> ToeplitzSpec:
    """Expand a pre-shared hash key into a concrete ToeplitzSpec.

    The first in_len+out_len-1 stream bits become the matrix key, the next
    out_len bits the mask.  Deterministic in (hash_key, in_len, out_len).
    """
    hk = _checked_hash_key(hash_key)
    if in_len < 0 or out_len < 1:
        raise ValueError("need in_len >= 0 and out_len >= 1")
    stream = _expand(hk, in_len + 2 * out_len - 1)
    split = in_len + out_len - 1
    return ToeplitzSpec(stream[:split], stream[split:], in_len, out_len)


def _checked_hash_key(hash_key) -> np.ndarray:
    """The hash key as a fresh bit array; rejects keys shorter than MIN_HASH_KEY_BITS."""
    hk = as_bits(hash_key)
    if len(hk) < MIN_HASH_KEY_BITS:
        raise ValueError(f"hash key must be at least {MIN_HASH_KEY_BITS} bits, got {len(hk)}")
    return hk


def privacy_amplify(raw, pa_seed, out_len: int) -> np.ndarray:
    """Compress a raw key to out_len bits with a seed-expanded Toeplitz map.

    No mask: equal raw keys under the same public seed give equal outputs.
    Requires 1 <= out_len <= len(raw).
    """
    raw = as_bits(raw)
    if len(raw) < 1:
        raise ValueError("raw key is empty")
    if not 1 <= out_len <= len(raw):
        raise ValueError(f"out_len must be in 1..{len(raw)}, got {out_len}")
    key = expand_key_bits(pa_seed, len(raw) + out_len - 1)
    return _toeplitz_product(key.astype(np.int64), raw)


# -- trusted cores ----------------------------------------------------------
#
# The functions below skip every check: callers pass uint8 0/1 arrays of
# consistent lengths, a non-empty seed and counts >= 0.  The public
# functions above check their arguments and then call these; the session
# path (protocol.run_session) calls them directly on arrays it built.


def _expand(seed: np.ndarray, count: int) -> np.ndarray:
    """expand_key_bits without the checks."""
    prefix = len(seed).to_bytes(8, "big") + np.packbits(seed).tobytes()
    blocks = b"".join(
        hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest() for counter in range((count + 255) // 256)
    )
    return np.unpackbits(np.frombuffer(blocks, dtype=np.uint8), count=count)


def _toeplitz_product(key: np.ndarray, x: np.ndarray) -> np.ndarray:
    """T·x over GF(2) as uint8, for an int64 matrix key of len(x) + out_len - 1 bits."""
    if len(x) == 0:  # empty sum; np.correlate rejects empty input
        return np.zeros(len(key) + 1, dtype=np.uint8)
    return (np.correlate(key, x, "valid")[::-1] & 1).astype(np.uint8)


def _digest_keys(hash_key: np.ndarray, in_lens, out_len: int) -> list:
    """``(int64 matrix key, mask)`` of ``derive_hash_spec(hash_key, in_len, out_len)`` per in_len.

    One stream, expanded to the longest in_len, serves every in_len: each
    spec reads a prefix of it, and the stream is prefix-stable.
    """
    stream = _expand(hash_key, max(in_lens) + 2 * out_len - 1)
    return [
        (stream[: in_len + out_len - 1].astype(np.int64), stream[in_len + out_len - 1 : in_len + 2 * out_len - 1])
        for in_len in in_lens
    ]
