"""One honest session, step by step, then a thousand in aggregate.

Alice prepares 2n Bell pairs, gates her halves per the operation key, and
sends the other halves to Bob; Bob mirrors the gates and Z-measures; Alice
measures after his done notice.  The partition key routes each bit to the
raw key or the check set, alternating check halves are compared, and a
passing run ends with privacy amplification into matching session keys.
"""

from sqkdlab.bits import to01
from sqkdlab.harness import RunConfig, render_report_json, run_batch
from sqkdlab.protocol import ProtocolParams, run_session

params = ProtocolParams(n=8, variant="original", tau=0.0)
out = run_session(params, adversary=None, seed=42)

print("single honest session (n=8, original variant, seed 42)")
print(f"  alice measured bits : {to01(out.alice_bits)}")
print(f"  bob measured bits   : {to01(out.bob_bits)}")
print(f"  compared bits       : {out.compared_bits_alice} by alice, {out.compared_bits_bob} by bob")
print(f"  check mismatches    : {out.check_mismatches_alice + out.check_mismatches_bob}")
print(f"  raw keys            : alice {to01(out.alice_raw_key)} / bob {to01(out.bob_raw_key)}")
print(f"  session keys        : alice {to01(out.alice_session_key)} / bob {to01(out.bob_session_key)}")
print(f"  aborted             : {out.aborted}")

print("\n1000-trial aggregate (n=32):")
report = run_batch(RunConfig(protocol="original", attack="none", n=32, trials=1000, seed=42))
print(render_report_json(report))
