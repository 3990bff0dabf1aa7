"""Desk-scale lab for an authenticated semi-quantum key distribution protocol.

Simulates honest runs over Bell pairs, reproduces the modification attack
that corrupts the agreed key without tripping the plain check-bit
comparison, and demonstrates that announcing keyed universal-hash digests
of the check bits detects it.
"""

from .adversary import AdversaryStrategy, AttackSearchResult, intercept_resend_attack, modification_attack
from .harness import AggregateReport, RunConfig, replay_paper_example, run_batch, run_search
from .hashing import privacy_amplify
from .protocol import (
    VARIANT_IMPROVED,
    VARIANT_ORIGINAL,
    MasterKeys,
    ProtocolParams,
    SessionOutcome,
    generate_master_keys,
    run_session,
)
from .qsim import standard_gate

__version__ = "0.1.0"

__all__ = [
    "AdversaryStrategy",
    "AggregateReport",
    "AttackSearchResult",
    "MasterKeys",
    "ProtocolParams",
    "RunConfig",
    "SessionOutcome",
    "VARIANT_IMPROVED",
    "VARIANT_ORIGINAL",
    "generate_master_keys",
    "intercept_resend_attack",
    "modification_attack",
    "privacy_amplify",
    "replay_paper_example",
    "run_batch",
    "run_search",
    "run_session",
    "standard_gate",
]
