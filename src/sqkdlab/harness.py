"""Monte-Carlo batches, the attack-space sweep, reports, and the worked-example replay.

run_batch executes ``trials`` independent sessions with per-trial rng
streams derived from (seed, trial index), a splittable scheme under which
serial and parallel execution aggregate identically, and reduces the
outcomes to trial frequencies.  run_search runs every (gate, classical)
strategy of ``adversary``'s search space the same way, strategy ``index``
on the streams of (seed, index), and reports detection and key-corruption
frequencies.  Both take a RunConfig, check it once (``validate``, which
returns the params and strategy it checked), count in
``protocol.count_sessions`` and turn the counts into rates in ``_rates``.
Reports render to JSON or CSV (one writer) with the same numeric values;
two runs of the same config produce byte-identical JSON apart from
wall_time_ms.
"""

import csv
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .adversary import (
    CLASSICAL_POLICIES,
    QUANTUM_GATE_ALL,
    SEARCH_GATE_NAMES,
    AdversaryStrategy,
    AttackSearchResult,
    intercept_resend_attack,
    modification_attack,
)
from .bits import TrialStreams, as_bits, to01
from .protocol import (
    VARIANT_ORIGINAL,
    VARIANTS,
    MasterKeys,
    ProtocolParams,
    SessionCounts,
    SessionOutcome,
    count_sessions,
    run_session,
)

ATTACK_NONE = "none"
ATTACK_MODIFICATION = "modification"
ATTACK_INTERCEPT_RESEND = "intercept-resend"
ATTACK_CUSTOM = "custom"
ATTACKS = (ATTACK_NONE, ATTACK_MODIFICATION, ATTACK_INTERCEPT_RESEND, ATTACK_CUSTOM)

MAX_SEED = 2**64 - 1  # a run's master seed is an unsigned 64-bit integer


@dataclass
class RunConfig:
    """Everything one batch or sweep needs; validate() reports the offending field.

    ProtocolParams (through to_params) checks the session values.  trials
    and seed must be Python ints, not numpy integers: a report echoes them
    to JSON as they are.
    """

    protocol: str = VARIANT_ORIGINAL
    attack: str = ATTACK_NONE
    custom_strategy: dict | None = None
    n: int = 32
    trials: int = 1000
    seed: int = 0
    tau: float = 0.0
    hash_bits: int = 64
    pa_bits: int | None = None  # None = auto (half the raw key)
    balanced_k2: bool = False

    def validate(self) -> tuple[ProtocolParams, AdversaryStrategy | None]:
        """Check every field; return ``(to_params(), resolve_strategy())``."""
        if self.protocol not in VARIANTS:
            raise ValueError(f"protocol: must be one of {VARIANTS}, got {self.protocol!r}")
        if self.attack not in ATTACKS:
            raise ValueError(f"attack: must be one of {ATTACKS}, got {self.attack!r}")
        if self.attack == ATTACK_CUSTOM and self.custom_strategy is None:
            raise ValueError("custom_strategy: required when attack is 'custom'")
        if self.attack != ATTACK_CUSTOM and self.custom_strategy is not None:
            raise ValueError(f"custom_strategy: only applies when attack is 'custom', got attack {self.attack!r}")
        strategy = self.resolve_strategy()  # a custom strategy's errors name the field at fault
        for name in ("trials", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name}: must be a Python int, got {value!r}")
        if self.trials < 1:
            raise ValueError(f"trials: must be >= 1, got {self.trials}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed: must be an unsigned 64-bit integer, got {self.seed}")
        return self.to_params(), strategy

    def to_params(self) -> ProtocolParams:
        return ProtocolParams(
            n=self.n,
            variant=self.protocol,
            tau=self.tau,
            hash_bits=self.hash_bits,
            pa_bits=self.pa_bits,
            balanced_k2=self.balanced_k2,
        )

    def resolve_strategy(self) -> AdversaryStrategy | None:
        if self.attack == ATTACK_NONE:
            return None
        if self.attack == ATTACK_MODIFICATION:
            return modification_attack()
        if self.attack == ATTACK_INTERCEPT_RESEND:
            return intercept_resend_attack()
        return AdversaryStrategy.from_description(self.custom_strategy)

    def echo(self, params: ProtocolParams, strategy: AdversaryStrategy | None) -> dict:
        """Config summary embedded in reports (fixed key order), from what validate() returned."""
        return {
            "protocol": self.protocol,
            "attack": self.attack,
            "strategy": None if strategy is None else strategy.describe(),
            "n": params.n,
            "trials": self.trials,
            "seed": self.seed,
            "tau": params.tau,
            "hash_bits": params.hash_bits,
            "pa_bits": params.pa_bits,
            "balanced_k2": params.balanced_k2,
        }


@dataclass
class AggregateReport:
    """Trial frequencies over one batch.

    key_match_rate / raw_key_complement_rate compare the raw keys bit-wise
    over all trials (both hold when the raw keys are empty, otherwise they
    are disjoint).  mean_check_error_rate pools mismatched over compared
    bits across the whole batch (check bits for the original variant,
    digest bits for the improved one); it is 0.0 when nothing was compared.
    """

    config: dict
    detection_rate: float
    abort_rate: float
    key_match_rate: float
    raw_key_complement_rate: float
    mean_check_error_rate: float
    vacuous_check_sessions: int
    wall_time_ms: int

    def to_dict(self) -> dict:
        """Every field, in declaration order."""
        return dict(vars(self))


def _rates(counts: SessionCounts) -> dict:
    """Every rate a report gives, as frequencies over ``counts.sessions`` trials.

    key_corruption_rate is (trials - matched) / trials, which differs from
    1 - key_match_rate in the last bit for some counts (3 trials, 1 matched).
    mean_check_error_rate is 0.0 when nothing was compared.
    """
    trials = counts.sessions
    return {
        "detection_rate": counts.detected / trials,
        "abort_rate": counts.aborted / trials,
        "key_match_rate": counts.matched / trials,
        "key_corruption_rate": (trials - counts.matched) / trials,
        "raw_key_complement_rate": counts.complemented / trials,
        "mean_check_error_rate": counts.mismatched_bits / counts.compared_bits if counts.compared_bits else 0.0,
    }


def run_batch(config: RunConfig) -> AggregateReport:
    """Run ``config.trials`` independent sessions and aggregate them.

    Deterministic for a fixed config: trial t uses the stream derived from
    (config.seed, t) regardless of execution order.
    """
    params, strategy = config.validate()

    started = time.perf_counter()
    counts = count_sessions(params, strategy, TrialStreams((config.seed,), config.trials))
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    rates = _rates(counts)
    del rates["key_corruption_rate"]  # a batch reports key_match_rate and raw_key_complement_rate
    echo = config.echo(params, strategy)
    return AggregateReport(echo, **rates, vacuous_check_sessions=counts.vacuous, wall_time_ms=elapsed_ms)


def run_search(config: RunConfig) -> list[AttackSearchResult]:
    """Evaluate every (gate, classical) strategy over fresh keys per trial.

    detection_rate counts trials where some party failed its check;
    key_corruption_rate counts trials where the raw keys disagree.  Results
    come back sorted by (detection_rate ascending, key_corruption_rate
    descending, strategy label), most dangerous strategies first.

    The sweep picks its own strategies and runs every session with auto
    privacy amplification and uniform partitions, so a config that sets
    any of those fields is rejected rather than echoed unused.
    """
    params, _ = config.validate()
    for name in ("attack", "custom_strategy", "pa_bits", "balanced_k2"):
        value, default = getattr(config, name), getattr(RunConfig, name)
        if value != default:
            raise ValueError(f"{name}: run_search does not use it; leave it at {default!r}, got {value!r}")
    trials = config.trials
    strategies = [
        AdversaryStrategy(quantum=QUANTUM_GATE_ALL, gate=g, classical=c)
        for g in SEARCH_GATE_NAMES
        for c in CLASSICAL_POLICIES
    ]
    results = []
    for index, strategy in enumerate(strategies):
        rates = _rates(count_sessions(params, strategy, TrialStreams((config.seed, index), trials)))
        results.append(AttackSearchResult(strategy, rates["detection_rate"], rates["key_corruption_rate"], trials))
    # describe() lists the quantum label, then the classical one.
    results.sort(key=lambda r: (r.detection_rate, -r.key_corruption_rate, *r.strategy.describe().values()))
    return results


# -- rendering -------------------------------------------------------------


def render_report_json(report: AggregateReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def _render_csv(rows: list[dict]) -> str:
    """``rows`` as CSV under a header of the first row's keys."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def render_report_csv(report: AggregateReport) -> str:
    data = report.to_dict()
    cfg = data.pop("config")
    cfg = {**cfg, "strategy": json.dumps(cfg["strategy"])}
    return _render_csv([{**{f"config_{k}": v for k, v in cfg.items()}, **data}])


def render_search_json(results: list[AttackSearchResult], config: RunConfig) -> str:
    payload = {"config": config.echo(*config.validate()), "results": [r.to_dict() for r in results]}
    return json.dumps(payload, indent=2) + "\n"


def render_search_csv(results: list[AttackSearchResult]) -> str:
    return _render_csv([r.to_dict() for r in results])


# -- worked-example replay ---------------------------------------------------


class ReplayMismatch(AssertionError):
    """A replayed transcript value differs from its expected value."""


# Canonical four-pair modification-attack walkthrough: the first two
# positions are check bits, Alice measures 0011, Bob (under attack) 1100.
WALKTHROUGH_OP_KEY = "0000"
WALKTHROUGH_PARTITION_KEY = "1100"
WALKTHROUGH_EXPECTED = {
    "alice_bits": "0011",
    "bob_bits": "1100",
    "alice_check": "00",
    "bob_check": "11",
    "alice_check_odd": "0",
    "alice_check_even": "0",
    "bob_check_odd": "1",
    "bob_check_even": "1",
    "announced_by_alice": "0",
    "announced_by_bob": "1",
    "received_by_alice": "0",
    "received_by_bob": "1",
    "alice_pass": True,
    "bob_pass": True,
    "aborted": False,
    "alice_raw_key": "11",
    "bob_raw_key": "00",
}


def _find_walkthrough_outcome() -> SessionOutcome:
    """Deterministically locate a session whose forced-key transcript hits the
    walkthrough's measured bits (the protocol itself is untouched; only the
    per-session seed is searched)."""
    keys = MasterKeys(
        op_key=WALKTHROUGH_OP_KEY,
        partition_key=WALKTHROUGH_PARTITION_KEY,
        hash_key=np.zeros(128, dtype=np.uint8),
    )
    params = ProtocolParams(n=2, variant=VARIANT_ORIGINAL, tau=0.0)
    attack = modification_attack()
    for candidate in range(10_000):
        outcome = run_session(params, attack, seed=np.random.SeedSequence((candidate,)), keys=keys)
        if to01(outcome.alice_bits) == WALKTHROUGH_EXPECTED["alice_bits"]:
            return outcome
    raise RuntimeError("no candidate seed reproduced the walkthrough measurements")


def replay_paper_example(stream=None) -> dict:
    """Replay the four-pair modification-attack walkthrough and assert every
    intermediate value; prints the full transcript to ``stream``.

    Raises ReplayMismatch if any value differs from its expected constant.
    """
    stream = stream if stream is not None else sys.stdout
    outcome = _find_walkthrough_outcome()

    transcript = outcome.to_dict()
    is_check = as_bits(WALKTHROUGH_PARTITION_KEY) == 1
    alice_check, bob_check = to01(outcome.alice_bits[is_check]), to01(outcome.bob_bits[is_check])
    computed = {
        "alice_check": alice_check,
        "bob_check": bob_check,
        # Odd and even are 1-based positions in the check sequence.
        "alice_check_odd": alice_check[0::2],
        "alice_check_even": alice_check[1::2],
        "bob_check_odd": bob_check[0::2],
        "bob_check_even": bob_check[1::2],
        "alice_pass": not outcome.detected_by_alice,
        "bob_pass": not outcome.detected_by_bob,
    }
    observed = {name: computed[name] if name in computed else transcript[name] for name in WALKTHROUGH_EXPECTED}

    print("four-pair modification-attack walkthrough (original variant)", file=stream)
    print(f"  op key (0=I, 1=H)           : {WALKTHROUGH_OP_KEY}", file=stream)
    print(f"  partition key (1=check)     : {WALKTHROUGH_PARTITION_KEY}", file=stream)
    print("  attack: spin-flip every flying qubit, complement every announcement", file=stream)
    failures = []
    for name, expected in WALKTHROUGH_EXPECTED.items():
        got = observed[name]
        ok = got == expected
        if not ok:
            failures.append(name)
        print(f"  {name:<22}: {got}  (expected {expected}) {'ok' if ok else 'MISMATCH'}", file=stream)
    if failures:
        raise ReplayMismatch(f"walkthrough values differ from expectations: {', '.join(failures)}")
    print("  result: checks passed on both sides, raw keys are complementary", file=stream)
    return observed
