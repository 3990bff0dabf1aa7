"""Channel-interposition strategies and their wire form.

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

``SEARCH_GATE_NAMES`` x ``CLASSICAL_POLICIES`` is the strategy space that
``harness.run_search`` sweeps, and ``AttackSearchResult`` is one row of
its report.  This module holds only the strategies, their wire form and
the sweep space; it imports no numpy and takes only ``GATE_NAMES`` from
``qsim``.  ``protocol._compile`` is the one function that turns a
strategy into the channel a session runs through (its taps on the class
rows and its constant flip), and the harness runs the sweep.
"""

from dataclasses import dataclass

from .qsim import GATE_NAMES

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
            raise ValueError(f"quantum: must be one of {QUANTUM_POLICIES}, got {self.quantum!r}")
        if self.classical not in CLASSICAL_POLICIES:
            raise ValueError(f"classical: must be one of {CLASSICAL_POLICIES}, got {self.classical!r}")
        if self.quantum == QUANTUM_GATE_ALL:
            if self.gate is None:
                raise ValueError(f"gate: required for {QUANTUM_GATE_ALL}")
            if not isinstance(self.gate, str):
                raise ValueError(f"gate: must be a string, got {self.gate!r}")
            object.__setattr__(self, "gate", self.gate.upper())
            if self.gate not in GATE_NAMES:
                raise ValueError(f"gate: must be one of {GATE_NAMES}, got {self.gate!r}")
        elif self.gate is not None:
            raise ValueError(f"gate: only applies to the {QUANTUM_GATE_ALL!r} quantum policy, got {self.gate!r}")

    # -- wire format -----------------------------------------------------

    def describe(self) -> dict:
        """JSON wire form, e.g. {"quantum": "gate_all:spin_flip", "classical": "flip_all"}."""
        quantum = self.quantum
        if self.quantum == QUANTUM_GATE_ALL:
            quantum = f"{QUANTUM_GATE_ALL}:{self.gate.lower()}"
        return {"quantum": quantum, "classical": self.classical}

    @classmethod
    def from_description(cls, description: dict) -> "AdversaryStrategy":
        """Parse the JSON wire form produced by describe().

        A description is what RunConfig.custom_strategy holds, so errors
        about the description as a whole name that field.
        """
        if not isinstance(description, dict):
            raise ValueError(f"custom_strategy: must be a mapping, got {description!r}")
        unknown = set(description) - {"quantum", "classical"}
        if unknown:
            raise ValueError(f"custom_strategy: unknown fields {sorted(unknown)}")
        policies = {"quantum": QUANTUM_NONE, "classical": CLASSICAL_NONE, **description}
        for name, value in policies.items():
            if not isinstance(value, str):
                raise ValueError(f"{name}: must be a string, got {value!r}")
        quantum, classical = policies["quantum"].lower(), policies["classical"].lower()
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
