"""Monte-Carlo batches, aggregate reports, and the worked-example replay.

run_batch executes ``trials`` independent sessions with per-trial rng
streams derived from (seed, trial index), a splittable scheme under which
serial and parallel execution aggregate identically, and reduces the
outcomes to trial frequencies.  Reports render to JSON or CSV with the
same numeric values; two runs of the same config produce byte-identical
JSON apart from wall_time_ms.
"""

import csv
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from .adversary import (
    AdversaryStrategy,
    AttackSearchResult,
    intercept_resend_attack,
    modification_attack,
    search_attacks,
)
from .bits import as_bits, to01
from .protocol import (
    VARIANT_ORIGINAL,
    VARIANTS,
    MasterKeys,
    ProtocolParams,
    SessionOutcome,
    _check_trials_and_seed,
    count_sessions,
    run_session,
)

ATTACK_NONE = "none"
ATTACK_MODIFICATION = "modification"
ATTACK_INTERCEPT_RESEND = "intercept-resend"
ATTACK_CUSTOM = "custom"
ATTACKS = (ATTACK_NONE, ATTACK_MODIFICATION, ATTACK_INTERCEPT_RESEND, ATTACK_CUSTOM)

OUTPUT_FORMATS = ("json", "csv")


@dataclass
class RunConfig:
    """Everything one batch needs; validate() reports the offending field.

    ProtocolParams (through to_params) checks the session values.
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
    output_format: str = "json"
    output_path: str | None = None

    def validate(self) -> None:
        if self.protocol not in VARIANTS:
            raise ValueError(f"protocol: must be one of {VARIANTS}, got {self.protocol!r}")
        if self.attack not in ATTACKS:
            raise ValueError(f"attack: must be one of {ATTACKS}, got {self.attack!r}")
        if self.attack == ATTACK_CUSTOM and self.custom_strategy is None:
            raise ValueError("custom_strategy: required when attack is 'custom'")
        if self.attack != ATTACK_CUSTOM and self.custom_strategy is not None:
            raise ValueError(f"custom_strategy: only applies when attack is 'custom', got attack {self.attack!r}")
        if self.attack == ATTACK_CUSTOM:
            AdversaryStrategy.from_description(self.custom_strategy)  # its errors name the field at fault
        _check_trials_and_seed(self.trials, self.seed)
        self.to_params()
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"output_format: must be one of {OUTPUT_FORMATS}, got {self.output_format!r}")

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

    def echo(self) -> dict:
        """Config summary embedded in reports (fixed key order)."""
        strategy = self.resolve_strategy()
        params = self.to_params()
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


def trial_seed(master_seed: int, trial_index: int) -> np.random.SeedSequence:
    """Per-trial rng stream root: SeedSequence entropy (master seed, index)."""
    return np.random.SeedSequence((master_seed, trial_index))


def run_batch(config: RunConfig) -> AggregateReport:
    """Run ``config.trials`` independent sessions and aggregate them.

    Deterministic for a fixed config: trial t uses the stream derived from
    (config.seed, t) regardless of execution order.
    """
    config.validate()
    params = config.to_params()
    strategy = config.resolve_strategy()

    started = time.perf_counter()
    seeds = (trial_seed(config.seed, trial) for trial in range(config.trials))
    counts = count_sessions(params, strategy, seeds)
    elapsed_ms = int((time.perf_counter() - started) * 1000)

    trials = config.trials
    return AggregateReport(
        config=config.echo(),
        detection_rate=counts.detected / trials,
        abort_rate=counts.aborted / trials,
        key_match_rate=counts.matched / trials,
        raw_key_complement_rate=counts.complemented / trials,
        mean_check_error_rate=(counts.mismatched_bits / counts.compared_bits) if counts.compared_bits else 0.0,
        vacuous_check_sessions=counts.vacuous,
        wall_time_ms=elapsed_ms,
    )


def run_search(config: RunConfig) -> list[AttackSearchResult]:
    """Sweep the full gate x classical strategy space under this config.

    The sweep picks its own strategies and runs every session with auto
    privacy amplification and uniform partitions, so a config that sets
    any of those fields is rejected rather than echoed unused.
    """
    config.validate()
    for name in ("attack", "custom_strategy", "pa_bits", "balanced_k2"):
        value, default = getattr(config, name), getattr(RunConfig, name)
        if value != default:
            raise ValueError(f"{name}: run_search does not use it; leave it at {default!r}, got {value!r}")
    return search_attacks(
        variant=config.protocol,
        trials=config.trials,
        n=config.n,
        seed=config.seed,
        tau=config.tau,
        hash_bits=config.hash_bits,
    )


# -- rendering -------------------------------------------------------------


def render_report_json(report: AggregateReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def render_report_csv(report: AggregateReport) -> str:
    data = report.to_dict()
    cfg = data.pop("config")
    cfg = {**cfg, "strategy": json.dumps(cfg["strategy"])}
    row = {**{f"config_{k}": v for k, v in cfg.items()}, **data}
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(row), lineterminator="\n")
    writer.writeheader()
    writer.writerow(row)
    return buf.getvalue()


def render_search_json(results: list[AttackSearchResult], config: RunConfig) -> str:
    payload = {"config": config.echo(), "results": [r.to_dict() for r in results]}
    return json.dumps(payload, indent=2) + "\n"


def render_search_csv(results: list[AttackSearchResult], config: RunConfig) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf,
        fieldnames=["quantum", "classical", "detection_rate", "key_corruption_rate", "trials"],
        lineterminator="\n",
    )
    writer.writeheader()
    for result in results:
        writer.writerow(result.to_dict())
    return buf.getvalue()


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

    is_check = as_bits(WALKTHROUGH_PARTITION_KEY) == 1
    alice_check, bob_check = outcome.alice_bits[is_check], outcome.bob_bits[is_check]
    observed = {
        "alice_bits": to01(outcome.alice_bits),
        "bob_bits": to01(outcome.bob_bits),
        "alice_check": to01(alice_check),
        "bob_check": to01(bob_check),
        # Odd and even are 1-based positions in the check sequence.
        "alice_check_odd": to01(alice_check[0::2]),
        "alice_check_even": to01(alice_check[1::2]),
        "bob_check_odd": to01(bob_check[0::2]),
        "bob_check_even": to01(bob_check[1::2]),
        "announced_by_alice": to01(outcome.check.announced_by_alice),
        "announced_by_bob": to01(outcome.check.announced_by_bob),
        "received_by_alice": to01(outcome.check.received_by_alice),
        "received_by_bob": to01(outcome.check.received_by_bob),
        "alice_pass": not outcome.detected_by_alice,
        "bob_pass": not outcome.detected_by_bob,
        "aborted": outcome.aborted,
        "alice_raw_key": to01(outcome.alice_raw_key),
        "bob_raw_key": to01(outcome.bob_raw_key),
    }

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
