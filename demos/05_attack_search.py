"""Brute-force sweep of the strategy space.

Every per-qubit gate from {I, X, Y, Z, H, SPIN_FLIP} is paired with each
classical policy {none, flip_all} and scored over fresh-key trials.  Only
the spin flip (and Y, its global-phase twin) anti-correlates both bases at
once, so only those gates survive the check when the announcements are
flipped, and against the improved variant nothing does.
"""

from sqkdlab.harness import RunConfig, run_search

for variant in ("original", "improved"):
    results = run_search(RunConfig(protocol=variant, n=16, trials=300, seed=3))
    print(f"\n{variant} variant, 300 trials per strategy, n=16")
    print(f"  {'quantum':<22}{'classical':<11}{'detection':<11}key corruption")
    for r in results:
        d = r.strategy.describe()
        print(
            f"  {d['quantum']:<22}{d['classical']:<11}"
            f"{r.detection_rate:<11.3f}{r.key_corruption_rate:.3f}"
        )
    dangerous = [
        r.strategy.describe()["quantum"]
        for r in results
        if r.detection_rate == 0.0 and r.key_corruption_rate == 1.0
    ]
    print(f"  undetected full-corruption strategies: {dangerous or 'none'}")
