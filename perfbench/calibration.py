"""A fixed reference computation that measures how fast the machine runs right now.

On a shared machine a core's speed drifts by tens of percent over tens of
seconds, and every timing in a run drifts with it.  ``kernel`` does a
session-sized mix of the kind of work sqkdlab does (small numpy arrays,
Python-level calls, SHA-256) without using any sqkdlab code, so a change
to the program does not change it.  Timed alongside the workload, it
gives the machine's speed during the run relative to REFERENCE_S.
"""

import hashlib
import time

import numpy as np

# Median seconds of one kernel call on the machine the bounds were set on
# (2-vCPU Intel Xeon, Python 3.11, numpy 2.4).  Only a scale: it cancels
# when two runs are compared.
REFERENCE_S = 0.003

_SPIN_FLIP_ON_B = np.kron(np.eye(2, dtype=complex), np.array([[0, 1], [-1, 0]], dtype=complex)).T
_BELL = np.array([0.5**0.5, 0, 0, 0.5**0.5], dtype=complex)
_ZERO_ON_A = np.array([True, True, False, False])
_DIAGONALS = np.arange(64)[None, :] - np.arange(64)[:, None] + 63


def kernel() -> None:
    rng = np.random.default_rng(0)
    for _ in range(40):
        bits = rng.integers(0, 2, size=512, dtype=np.uint8)
        states = np.tile(_BELL, (512, 1)) @ _SPIN_FLIP_ON_B
        p_zero = (np.abs(states) ** 2)[:, _ZERO_ON_A].sum(axis=1)
        outcomes = (rng.random(512) >= p_zero).astype(np.uint8)
        hashlib.sha256(np.packbits(outcomes[np.flatnonzero(bits)]).tobytes()).digest()
        matrix = bits[_DIAGONALS].astype(np.int64)
        (matrix @ outcomes[:64].astype(np.int64)) & 1


def timed_kernel() -> float:
    """Seconds one kernel call takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started
