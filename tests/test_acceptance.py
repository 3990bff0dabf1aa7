"""Acceptance suite: one test per release criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they pass.  Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import time

import numpy as np

from sqkdlab.bits import as_bits, random_bits, trial_stream
from sqkdlab.cli import main
from sqkdlab.harness import WALKTHROUGH_EXPECTED, RunConfig, replay_paper_example, run_batch, run_search
from sqkdlab.hashing import _toeplitz_product
from sqkdlab.adversary import intercept_resend_attack
from sqkdlab.protocol import ProtocolParams, run_session
from sqkdlab.qsim import (
    ALICE,
    ATOL,
    BOB,
    GATE_NAMES,
    apply_gate_batch,
    bell_batch,
    standard_gate,
)

from oracles import measure_z_batch


def report(line: str) -> None:
    print(f"[PASS] {line}")


def test_criterion_1_walkthrough_replay(capsys):
    started = time.perf_counter()
    observed = replay_paper_example()
    assert observed == WALKTHROUGH_EXPECTED
    assert observed["alice_bits"] == "0011"
    assert observed["bob_bits"] == "1100"
    assert observed["received_by_alice"] == "0" == observed["alice_check_odd"]
    assert observed["received_by_bob"] == "1" == observed["bob_check_even"]
    assert observed["alice_raw_key"] == "11"
    assert observed["bob_raw_key"] == "00"
    assert main(["paper-example"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    capsys.readouterr()
    with capsys.disabled():
        report(f"criterion 1: walkthrough replay bit-exact, exit 0, {elapsed:.2f}s < 1s")


def test_criterion_2_honest_completeness(capsys):
    started = time.perf_counter()
    for protocol in ("original", "improved"):
        rep = run_batch(RunConfig(protocol=protocol, attack="none", n=32, trials=1000, tau=0.0, seed=11))
        assert rep.detection_rate == 0.0, protocol
        assert rep.key_match_rate == 1.0, protocol
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    with capsys.disabled():
        report(f"criterion 2: honest runs, both variants: detection 0.0, key match 1.0, {elapsed:.2f}s < 5s")


def test_criterion_3_attack_beats_original(capsys):
    rep = run_batch(RunConfig(protocol="original", attack="modification", n=32, trials=1000, seed=12))
    assert rep.detection_rate == 0.0
    assert rep.raw_key_complement_rate == 1.0
    assert rep.key_match_rate == 0.0
    with capsys.disabled():
        report("criterion 3: modification attack vs original: undetected, keys complemented, never matching")


def test_criterion_4_countermeasure_detects(capsys):
    rep = run_batch(
        RunConfig(protocol="improved", attack="modification", n=32, trials=10_000, hash_bits=64, seed=13)
    )
    assert rep.detection_rate == 1.0
    with capsys.disabled():
        report("criterion 4: modification attack vs improved (64-bit digests): detection rate 1.0 over 10^4 trials")


def test_criterion_5_intercept_resend_baseline(capsys):
    params = ProtocolParams(n=64, variant="original", tau=0.0)
    strategy = intercept_resend_attack()
    mismatched = compared = 0
    for trial in range(1700):
        out = run_session(params, strategy, seed=trial_stream((14,), trial))
        mismatched += out.check_mismatches_alice + out.check_mismatches_bob
        compared += out.compared_bits_alice + out.compared_bits_bob
    assert compared >= 100_000
    rate = mismatched / compared
    assert 0.23 <= rate <= 0.27
    with capsys.disabled():
        report(f"criterion 5: intercept-resend per-bit mismatch {rate:.4f} in 0.25±0.02 over {compared} bits")


def test_criterion_6_attack_search(capsys):
    dangerous = {}
    for variant in ("original", "improved"):
        results = run_search(RunConfig(protocol=variant, n=16, trials=1000, seed=15, tau=0.0, hash_bits=64))
        dangerous[variant] = {
            (r.strategy.gate, r.strategy.classical)
            for r in results
            if r.detection_rate == 0.0 and r.key_corruption_rate == 1.0
        }
    assert dangerous["original"] == {("Y", "flip_all"), ("SPIN_FLIP", "flip_all")}
    assert dangerous["improved"] == set()
    with capsys.disabled():
        report("criterion 6: sweep finds exactly {Y, SPIN_FLIP} x flip_all vs original, nothing vs improved")


def test_criterion_7_quantum_core_invariants(capsys):
    for name in GATE_NAMES:
        g = standard_gate(name)
        assert np.max(np.abs(g.conj().T @ g - np.eye(2))) <= ATOL, name

    rng = np.random.default_rng(16)
    states = rng.normal(size=(10_000, 4)) + 1j * rng.normal(size=(10_000, 4))
    states /= np.linalg.norm(states, axis=1)[:, None]
    for name in GATE_NAMES:
        for target in (ALICE, BOB):
            applied = apply_gate_batch(states, standard_gate(name), target)
            assert np.max(np.abs(np.sum(np.abs(applied) ** 2, axis=1) - 1.0)) <= ATOL

    rng = np.random.default_rng(17)
    for gate_name in ("I", "H"):
        g = standard_gate(gate_name)
        matched = apply_gate_batch(apply_gate_batch(bell_batch(10_000), g, ALICE), g, BOB)
        b, matched = measure_z_batch(matched, BOB, rng)
        a, _ = measure_z_batch(matched, ALICE, rng)
        assert np.array_equal(a, b), gate_name

        flipped = apply_gate_batch(bell_batch(10_000), standard_gate("SPIN_FLIP"), BOB)
        flipped = apply_gate_batch(apply_gate_batch(flipped, g, ALICE), g, BOB)
        b, flipped = measure_z_batch(flipped, BOB, rng)
        a, _ = measure_z_batch(flipped, ALICE, rng)
        assert np.array_equal(a, 1 - b), gate_name
    with capsys.disabled():
        report("criterion 7: unitarity/normalization within 1e-12; 10^4-shot correlations exact for I and H")


def test_criterion_8_universal_hash_suite(capsys):
    # exhaustive pairwise collision bound at 4 bits in, 4 bits out
    in_len = out_len = 4
    key_len = in_len + out_len - 1
    inputs = [as_bits(list(bits)) for bits in itertools.product((0, 1), repeat=in_len)]
    bound = 2**key_len * 2**-out_len
    pair_collisions = {}
    for key_value in range(2**key_len):
        key = as_bits([(key_value >> i) & 1 for i in range(key_len)]).astype(np.float64)
        digests = [tuple(_toeplitz_product(key, x)) for x in inputs]
        for i, j in itertools.combinations(range(len(inputs)), 2):
            pair_collisions[(i, j)] = pair_collisions.get((i, j), 0) + (digests[i] == digests[j])
    assert max(pair_collisions.values()) <= bound

    # linearity of the matrix part over 10^4 random triples
    rng = np.random.default_rng(18)
    for _ in range(10_000):
        in_len = int(rng.integers(1, 20))
        out_len = int(rng.integers(1, 20))
        key = random_bits(rng, in_len + out_len - 1).astype(np.float64)
        mask = random_bits(rng, out_len)
        x, y = random_bits(rng, in_len), random_bits(rng, in_len)
        hx, hy, hxy = (_toeplitz_product(key, z) ^ mask for z in (x, y, x ^ y))
        assert np.array_equal(hx ^ hy ^ mask, hxy)
    with capsys.disabled():
        report("criterion 8: exhaustive 4x4 collision bound <= 2^-4 per pair; linearity over 10^4 triples")


def test_criterion_9_determinism_at_scale(capsys):
    started = time.perf_counter()
    config = RunConfig(protocol="original", attack="modification", n=256, trials=10_000, seed=19)
    first = run_batch(config).to_dict()
    second = run_batch(config).to_dict()
    first.pop("wall_time_ms")
    second.pop("wall_time_ms")
    assert first == second
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    with capsys.disabled():
        report(f"criterion 9: identical reports at n=256, 10^4 trials, twice in {elapsed:.1f}s < 60s")
