"""The benchmark's workloads: the call each one times and what its results must satisfy.

Every workload drives the public API the way a researcher does.  A timed
call is one ``harness.run_batch`` or ``harness.run_search`` with the
workload's RunConfig; the latency phase calls ``protocol.run_session`` once
per sample with the same session parameters.  The invariants are the
paper's, as the acceptance suite states them, and hold for any seed.
"""

import hashlib
import json
from dataclasses import dataclass

from sqkdlab import harness
from sqkdlab.adversary import CLASSICAL_POLICIES, QUANTUM_GATE_ALL, SEARCH_GATE_NAMES, AdversaryStrategy

# Seed of the warm-up call whose rates must hash to ``pinned_digest``
# (the determinism contract: same config, same report).
PINNED_SEED = 20201020

RATE_FIELDS = (
    "detection_rate",
    "abort_rate",
    "key_match_rate",
    "raw_key_complement_rate",
    "mean_check_error_rate",
    "vacuous_check_sessions",
)

# The (gate, classical) strategies that corrupt the original variant's key
# without ever being detected (acceptance criterion 6).
UNDETECTED_CORRUPTING = {("Y", "flip_all"), ("SPIN_FLIP", "flip_all")}

MATCH = "match"
COMPLEMENT = "complement"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config`` holds the RunConfig fields of one timed call; the seed is
    set per call.  ``expected_rates`` must hold in every run_batch report.
    ``session_invariant`` says how Alice's and Bob's raw keys relate in a
    single undetected session (for search it applies only to the
    undetected-corrupting strategies).  ``pinned_digest`` is
    ``rates_digest`` of the report at PINNED_SEED, or None when unpinned.
    """

    name: str
    entry: str
    config: dict
    expected_rates: dict
    session_invariant: str
    pinned_digest: str | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="honest-improved-n32",
            entry="run_batch",
            config={"protocol": "improved", "attack": "none", "n": 32, "trials": 1000},
            expected_rates={"detection_rate": 0.0, "key_match_rate": 1.0},
            session_invariant=MATCH,
            pinned_digest="9ef2e74a25f28d70aea96178a65f96ca10f867b1da3e73972ef83f087d6e63ee",
        ),
        Workload(
            name="modification-original-n256",
            entry="run_batch",
            config={"protocol": "original", "attack": "modification", "n": 256, "trials": 2000},
            expected_rates={"detection_rate": 0.0, "raw_key_complement_rate": 1.0, "key_match_rate": 0.0},
            session_invariant=COMPLEMENT,
            pinned_digest="9aa273f441c919c8eb3692753b0e0334f1440fc85cffcdfdd2ba4991fd2e5157",
        ),
        # Unpinned: its numbers depend on how strategies are seeded, which
        # is expected to change.
        Workload(
            name="search-original-n16",
            entry="run_search",
            config={"protocol": "original", "n": 16, "trials": 100},
            expected_rates={},
            session_invariant=COMPLEMENT,
            pinned_digest=None,
        ),
    )
}


def run_config(workload: Workload, seed: int) -> harness.RunConfig:
    return harness.RunConfig(**workload.config, seed=seed)


def session_plan(workload: Workload):
    """``(params, strategies)`` for the latency phase; samples rotate through the strategies."""
    config = run_config(workload, 0)
    if workload.entry == "run_search":
        strategies = [
            AdversaryStrategy(quantum=QUANTUM_GATE_ALL, gate=gate, classical=classical)
            for gate in SEARCH_GATE_NAMES
            for classical in CLASSICAL_POLICIES
        ]
    else:
        strategies = [config.resolve_strategy()]
    return config.to_params(), strategies


def sessions_in(result) -> int:
    """Sessions a run_batch report or run_search result list stands for."""
    if isinstance(result, list):
        return sum(r.trials for r in result)
    return result.config["trials"]


def comparable(result):
    """The report with its wall-clock field dropped, for equality checks."""
    if isinstance(result, list):
        return [r.to_dict() for r in result]
    data = result.to_dict()
    data.pop("wall_time_ms")
    return data


def rates_digest(report) -> str:
    """SHA-256 of the six rate fields of a run_batch report, in RATE_FIELDS order."""
    data = report.to_dict()
    return hashlib.sha256(json.dumps([data[f] for f in RATE_FIELDS]).encode()).hexdigest()


def check_call(workload: Workload, result) -> str | None:
    """None when a timed call's result meets the paper invariants, else what is wrong."""
    if workload.entry == "run_search":
        found = {
            (r.strategy.gate, r.strategy.classical)
            for r in result
            if r.detection_rate == 0.0 and r.key_corruption_rate == 1.0
        }
        if found != UNDETECTED_CORRUPTING:
            return f"zero-detection full-corruption strategies are {sorted(found)}"
        return None
    data = result.to_dict()
    wrong = {field: data[field] for field, value in workload.expected_rates.items() if data[field] != value}
    return f"rates break the invariants: {wrong}" if wrong else None


def check_session(workload: Workload, strategy, outcome) -> str | None:
    """None when one run_session outcome meets the workload's invariant, else what is wrong."""
    if workload.entry == "run_search" and (strategy.gate, strategy.classical) not in UNDETECTED_CORRUPTING:
        return None
    if outcome.detected_by_alice or outcome.detected_by_bob:
        return "session was detected"
    alice, bob = outcome.alice_raw_key, outcome.bob_raw_key
    if workload.session_invariant == MATCH:
        keys_ok = (
            alice.shape == bob.shape
            and bool((alice == bob).all())
            and outcome.alice_session_key is not None
            and outcome.alice_session_key.shape == outcome.bob_session_key.shape
            and bool((outcome.alice_session_key == outcome.bob_session_key).all())
        )
    else:
        keys_ok = alice.size > 0 and alice.shape == bob.shape and bool((bob == 1 - alice).all())
    return None if keys_ok else f"raw keys do not {workload.session_invariant}"
