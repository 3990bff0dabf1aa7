"""Baseline eavesdropper: intercept-resend in the Z basis.

Eve measures each flying qubit and forwards the observed basis state.  On
positions where the parties used I she learns the bit and stays invisible;
where they used H her measurement destroys the X-basis correlation and
each compared check bit flags her with probability 1/2.  Averaged over a
uniform operation key that is a 25% per-bit mismatch rate, easily caught
by the original variant's plain comparison, no hashing needed.
"""

from sqkdlab.adversary import intercept_resend_attack
from sqkdlab.bits import TrialStreams
from sqkdlab.harness import RunConfig, run_batch
from sqkdlab.protocol import ProtocolParams, count_sessions

params = ProtocolParams(n=32, variant="original", tau=0.0)
counts = count_sessions(params, intercept_resend_attack(), TrialStreams((5,), 600))
rate = counts.mismatched_bits / counts.compared_bits
print(f"per-compared-bit mismatch rate: {rate:.4f} over {counts.compared_bits} bits (analytic 0.25)")

report = run_batch(RunConfig(protocol="original", attack="intercept-resend", n=32, trials=600, seed=5))
print(f"session detection rate at tau=0 : {report.detection_rate}")

relaxed = run_batch(
    RunConfig(protocol="original", attack="intercept-resend", n=32, trials=600, seed=5, tau=0.4)
)
print(f"session detection rate at tau=0.4: {relaxed.detection_rate} (a loose threshold lets some runs through)")
