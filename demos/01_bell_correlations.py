"""Bell-pair correlations, the raw material of the protocol.

Z-measurements on the halves of (|00> + |11>)/sqrt(2) always agree, and the
agreement survives both parties applying H.  A spin flip on the flying half
turns the pair into the singlet, whose halves disagree in both bases.
That sign change is the engine of the modification attack.
"""

import numpy as np

from sqkdlab.qsim import ALICE, BOB, apply_gate_batch, bell_batch, standard_gate, z_branches

SHOTS = 20_000
rng = np.random.default_rng(1)


def agreement(states) -> float:
    # Bob measures first.  After his outcome b a pair is |b> on his side
    # times one qubit on Alice's, rest[row, b], and she reads 0 with
    # probability abs(rest[row, b, 0]) ** 2.
    p_zero, rest, _ = z_branches(states, BOB)
    rows = np.arange(len(p_zero))
    bob = (rng.random(len(rows)) >= p_zero).astype(np.uint8)
    alice = rng.random(len(rows)) >= np.abs(rest[rows, bob, 0]) ** 2
    return float(np.mean(alice == bob))


print(f"{SHOTS} Bell pairs per row; 'agreement' = fraction of equal Z outcomes\n")
print(f"{'preparation':<42}agreement")

plain = bell_batch(SHOTS)
print(f"{'|phi+>':<42}{agreement(plain):.4f}")

h_both = apply_gate_batch(apply_gate_batch(bell_batch(SHOTS), standard_gate('H'), ALICE), standard_gate('H'), BOB)
print(f"{'(H x H)|phi+>  (both parties in X basis)':<42}{agreement(h_both):.4f}")

flipped = apply_gate_batch(bell_batch(SHOTS), standard_gate("SPIN_FLIP"), BOB)
print(f"{'(I x SPIN_FLIP)|phi+>  (singlet)':<42}{agreement(flipped):.4f}")

flipped_h = apply_gate_batch(bell_batch(SHOTS), standard_gate("SPIN_FLIP"), BOB)
flipped_h = apply_gate_batch(apply_gate_batch(flipped_h, standard_gate("H"), ALICE), standard_gate("H"), BOB)
print(f"{'(H x H)(I x SPIN_FLIP)|phi+>':<42}{agreement(flipped_h):.4f}")

print(
    "\nThe spin flip anti-correlates the pair in the Z basis *and* in the H"
    "\nbasis, so flipping every flying qubit complements all of Bob's"
    "\nmeasurement results no matter which gates the honest parties used."
)
