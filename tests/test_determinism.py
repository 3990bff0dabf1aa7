"""Determinism pins: reports and transcripts are fixed functions of the config.

Each pin is the SHA-256 of a canonical JSON rendering (sorted keys, no
wall_time_ms).  The pins were computed once and must never move: a
speed-up that changes a single bit of a report or transcript is a
behaviour change, not an optimisation.
"""

import hashlib
import json

import pytest

from sqkdlab.adversary import intercept_resend_attack, modification_attack
from sqkdlab.bits import trial_stream
from sqkdlab.harness import RunConfig, run_batch, run_search
from sqkdlab.protocol import ProtocolParams, run_session


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def report_digest(config: RunConfig) -> str:
    data = run_batch(config).to_dict()
    data.pop("wall_time_ms")
    return digest(data)


BATCH_PINS = {
    ("original", "none"): "3ac4d465604b715c44e2b2e686f1b7c925e51b0b0e51b80e4ef21e500012cd2c",
    ("original", "modification"): "d69a0c0c8a9fb94f54f314aa7b3540982d44f7e2e1dfdc98c985d8bfb01be1cf",
    ("original", "intercept-resend"): "ac812307743eead0076af80d9e20d6dc87cfb5af01a772a50857fb15e564368c",
    ("improved", "none"): "c59b230e241fd2fac98a956ae5b9313e19d7074e0dd4542b034b12fb526bbdbc",
    ("improved", "modification"): "a8df9e0f941016de14db7966c242fa58d656cd54a3b5a45b271a994cd54fe919",
    ("improved", "intercept-resend"): "ea3027f60fe563c35af690979007fdd3e2cfddc3174a4487e481c9b58b739927",
}


@pytest.mark.parametrize("protocol, attack", sorted(BATCH_PINS))
def test_batch_report_pinned(protocol, attack):
    config = RunConfig(protocol=protocol, attack=attack, n=12, trials=60, seed=20201020, tau=0.1, hash_bits=16)
    assert report_digest(config) == BATCH_PINS[(protocol, attack)]


def test_search_report_pinned():
    config = RunConfig(protocol="improved", n=6, trials=8, seed=5, hash_bits=8)
    results = [r.to_dict() for r in run_search(config)]
    assert digest(results) == "a281fca4539f69304d862c7af9c86d9c295006ea2105846e2ad92bf4d01e5015"


# Full per-session transcripts (measured bits, announcements, digests,
# session keys, PA seeds) pin far more than the batch rates do.
TRANSCRIPT_CASES = {
    "original-honest-pa": (
        ProtocolParams(n=16, variant="original", pa_bits=3),
        None,
        "249c27c077e46dde842c84f7efdb025508ada7bdad0c7c33cfeeaa53226a5d86",
    ),
    "original-modification": (
        ProtocolParams(n=16, variant="original"),
        modification_attack(),
        "1c4847c1b98c58220565eb3be053f781ae4b7ae37ac19a2386d4852cfad41c3d",
    ),
    "improved-honest": (
        ProtocolParams(n=16, variant="improved", hash_bits=24),
        None,
        "27e04560eb7c48208838cc151ac52eebf5002e97bb0171bb853a6c710f9bbc27",
    ),
    "improved-intercept": (
        ProtocolParams(n=16, variant="improved", hash_bits=5),
        intercept_resend_attack(),
        "946f2fde3e666d28a809c2ada08c4ae63be95f8acbc0c18acc5aa84d6b27d266",
    ),
}


@pytest.mark.parametrize("case", sorted(TRANSCRIPT_CASES))
def test_session_transcripts_pinned(case):
    params, adversary, pin = TRANSCRIPT_CASES[case]
    transcripts = [run_session(params, adversary, seed=trial_stream((11,), t)).to_dict() for t in range(24)]
    assert digest(transcripts) == pin
