"""Channel-interposition strategies and the attack-space sweep.

An AdversaryStrategy pairs a quantum-channel policy (do nothing, apply one
fixed gate to every flying qubit, or intercept-resend in the Z basis) with
a classical-channel policy (do nothing, or complement every announced bit).
The quantum tap only ever touches the flying Bob-side qubit; Alice's lab is
out of reach.  The classical tap cannot tell check bits from digests, so in
the improved variant flip_all complements the announced digests.

``modification_attack()`` is the strategy that corrupts the original
variant undetected: spin-flip every flying qubit (making the halves of
every pair disagree in both bases) and complement every announcement (so
each received half again matches the receiver's retained half).

``search_attacks`` brute-forces the (gate, classical) strategy space with
fresh keys per trial and reports detection and key-corruption frequencies.
"""

from dataclasses import dataclass

import numpy as np

from .bits import as_bits, flip
from .protocol import ProtocolParams, _check_trials_and_seed, count_sessions
from .qsim import BOB, apply_gate_batch, measure_z_batch, standard_gate

QUANTUM_NONE = "none"
QUANTUM_GATE_ALL = "gate_all"
QUANTUM_INTERCEPT_RESEND_Z = "intercept_resend_z"
QUANTUM_POLICIES = (QUANTUM_NONE, QUANTUM_GATE_ALL, QUANTUM_INTERCEPT_RESEND_Z)

CLASSICAL_NONE = "none"
CLASSICAL_FLIP_ALL = "flip_all"
CLASSICAL_POLICIES = (CLASSICAL_NONE, CLASSICAL_FLIP_ALL)

SEARCH_GATE_NAMES = ("I", "X", "Y", "Z", "H", "SPIN_FLIP")


@dataclass(frozen=True)
class AdversaryStrategy:
    """Immutable (quantum policy, classical policy) pair.

    ``gate`` names the gate applied per flying qubit when quantum is
    ``gate_all`` and must come from the standard gate set.
    """

    quantum: str = QUANTUM_NONE
    gate: str | None = None
    classical: str = CLASSICAL_NONE

    def __post_init__(self):
        if self.quantum not in QUANTUM_POLICIES:
            raise ValueError(f"quantum policy must be one of {QUANTUM_POLICIES}, got {self.quantum!r}")
        if self.classical not in CLASSICAL_POLICIES:
            raise ValueError(f"classical policy must be one of {CLASSICAL_POLICIES}, got {self.classical!r}")
        if self.quantum == QUANTUM_GATE_ALL:
            if self.gate is None:
                raise ValueError("gate_all needs a gate name")
            object.__setattr__(self, "gate", self.gate.upper())
            standard_gate(self.gate)  # validates the name
        elif self.gate is not None:
            raise ValueError(f"gate only applies to the {QUANTUM_GATE_ALL!r} policy")

    # -- quantum channel -------------------------------------------------

    def tap_quantum_batch(self, states, rng: np.random.Generator) -> np.ndarray:
        """Tamper with every flying qubit (the Bob half of each pair) of a (n, 4) batch, in order."""
        if self.quantum == QUANTUM_GATE_ALL:
            return apply_gate_batch(states, standard_gate(self.gate), BOB)
        if self.quantum == QUANTUM_INTERCEPT_RESEND_Z:
            # Measuring a flying qubit collapses it to the observed basis
            # state, which is exactly the fresh qubit Eve forwards.
            return measure_z_batch(states, BOB, rng)[1]
        return np.asarray(states, dtype=complex)

    # -- classical channel -----------------------------------------------

    def tap_classical(self, bits) -> np.ndarray:
        """Tamper with one classical announcement."""
        if self.classical == CLASSICAL_FLIP_ALL:
            return flip(bits)
        return as_bits(bits)

    # -- wire format -----------------------------------------------------

    def describe(self) -> dict:
        """JSON wire form, e.g. {"quantum": "gate_all:spin_flip", "classical": "flip_all"}."""
        quantum = self.quantum
        if self.quantum == QUANTUM_GATE_ALL:
            quantum = f"{QUANTUM_GATE_ALL}:{self.gate.lower()}"
        return {"quantum": quantum, "classical": self.classical}

    @classmethod
    def from_description(cls, description: dict) -> "AdversaryStrategy":
        """Parse the JSON wire form produced by describe()."""
        if not isinstance(description, dict):
            raise ValueError("strategy description must be a mapping")
        unknown = set(description) - {"quantum", "classical"}
        if unknown:
            raise ValueError(f"unknown strategy fields: {sorted(unknown)}")
        quantum = str(description.get("quantum", QUANTUM_NONE)).lower()
        classical = str(description.get("classical", CLASSICAL_NONE)).lower()
        gate = None
        if quantum.startswith(QUANTUM_GATE_ALL + ":"):
            quantum, gate = quantum.split(":", 1)
        return cls(quantum=quantum, gate=gate, classical=classical)


def modification_attack() -> AdversaryStrategy:
    """Spin-flip every flying qubit and complement every announcement."""
    return AdversaryStrategy(quantum=QUANTUM_GATE_ALL, gate="SPIN_FLIP", classical=CLASSICAL_FLIP_ALL)


def intercept_resend_attack() -> AdversaryStrategy:
    """Z-measure every flying qubit and forward the observed basis state."""
    return AdversaryStrategy(quantum=QUANTUM_INTERCEPT_RESEND_Z)


@dataclass(frozen=True)
class AttackSearchResult:
    """Trial-frequency estimates for one strategy."""

    strategy: AdversaryStrategy
    detection_rate: float
    key_corruption_rate: float
    trials: int

    def to_dict(self) -> dict:
        return {
            **self.strategy.describe(),
            "detection_rate": self.detection_rate,
            "key_corruption_rate": self.key_corruption_rate,
            "trials": self.trials,
        }


def search_attacks(
    variant: str,
    trials: int = 1000,
    n: int = 16,
    seed: int = 0,
    tau: float = 0.0,
    hash_bits: int = 64,
) -> list[AttackSearchResult]:
    """Evaluate every (gate, classical) strategy over fresh keys per trial.

    detection_rate counts trials where some party failed its check;
    key_corruption_rate counts trials where the raw keys disagree.  Results
    come back sorted by (detection_rate ascending, key_corruption_rate
    descending, strategy label), most dangerous strategies first.  trials
    and seed follow the rules of RunConfig and are checked before any
    session runs.
    """
    _check_trials_and_seed(trials, seed)
    params = ProtocolParams(n=n, variant=variant, tau=tau, hash_out_len=hash_bits)
    strategies = [
        AdversaryStrategy(quantum=QUANTUM_GATE_ALL, gate=g, classical=c)
        for g in SEARCH_GATE_NAMES
        for c in CLASSICAL_POLICIES
    ]
    results = []
    for index, strategy in enumerate(strategies):
        counts = count_sessions(params, strategy, (np.random.SeedSequence((seed, index, t)) for t in range(trials)))
        results.append(
            AttackSearchResult(
                strategy=strategy,
                detection_rate=counts.detected / trials,
                key_corruption_rate=(trials - counts.matched) / trials,
                trials=trials,
            )
        )
    # describe() lists the quantum label, then the classical one.
    results.sort(key=lambda r: (r.detection_rate, -r.key_corruption_rate, *r.strategy.describe().values()))
    return results
