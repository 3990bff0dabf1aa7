"""Adversary tests: taps, strategy wire format, the attack, the sweep."""

import numpy as np
import pytest

from sqkdlab import protocol
from sqkdlab.adversary import (
    SEARCH_GATE_NAMES,
    AdversaryStrategy,
    intercept_resend_attack,
    modification_attack,
)
from sqkdlab.bits import TrialStreams, to01
from sqkdlab.harness import RunConfig, run_search
from sqkdlab.protocol import (
    VARIANT_ORIGINAL,
    MasterKeys,
    ProtocolParams,
    count_sessions,
    generate_master_keys,
    run_session,
)
from sqkdlab.qsim import ALICE, BOB, bell_batch, standard_gate

from oracles import apply_gate, measure_z, tap_quantum

SQRT_HALF = 1 / np.sqrt(2)


# -- strategy values -------------------------------------------------------------


def test_strategy_validation():
    # Every error names the field it is about, as the rest of the package does.
    with pytest.raises(ValueError, match=r"^quantum: must be one of \('none', 'gate_all', 'intercept_resend_z'\), got 'noisy'$"):
        AdversaryStrategy(quantum="noisy")
    with pytest.raises(ValueError, match=r"^classical: must be one of \('none', 'flip_all'\), got 'drop'$"):
        AdversaryStrategy(classical="drop")
    with pytest.raises(ValueError, match="^gate: required for gate_all$"):
        AdversaryStrategy(quantum="gate_all")
    with pytest.raises(ValueError, match=r"^gate: must be one of \(.*'SPIN_FLIP'\), got 'CNOT'$"):
        AdversaryStrategy(quantum="gate_all", gate="CNOT")
    with pytest.raises(ValueError, match="^gate: must be a string, got 5$"):
        AdversaryStrategy(quantum="gate_all", gate=5)
    with pytest.raises(ValueError, match="^gate: only applies to the 'gate_all' quantum policy, got 'X'$"):
        AdversaryStrategy(quantum="none", gate="X")


def test_description_round_trip():
    for strategy in (
        AdversaryStrategy(),
        modification_attack(),
        intercept_resend_attack(),
        AdversaryStrategy(quantum="gate_all", gate="Z", classical="none"),
    ):
        assert AdversaryStrategy.from_description(strategy.describe()) == strategy


def test_description_parsing():
    strategy = AdversaryStrategy.from_description(
        {"quantum": "gate_all:spin_flip", "classical": "flip_all"}
    )
    assert strategy == modification_attack()
    with pytest.raises(ValueError, match=r"^custom_strategy: unknown fields \['extra'\]$"):
        AdversaryStrategy.from_description({"quantum": "none", "extra": 1})
    with pytest.raises(ValueError, match="^custom_strategy: must be a mapping, got 'flip_all'$"):
        AdversaryStrategy.from_description("flip_all")
    with pytest.raises(ValueError, match="^quantum: must be one of "):
        AdversaryStrategy.from_description({"quantum": "gate_some:x"})
    with pytest.raises(ValueError, match="^gate: must be one of "):
        AdversaryStrategy.from_description({"quantum": "gate_all:cnot"})
    # str(None) would read as the "none" policy; a policy must be a string.
    with pytest.raises(ValueError, match="^quantum: must be a string, got None$"):
        AdversaryStrategy.from_description({"quantum": None, "classical": None})
    with pytest.raises(ValueError, match="^classical: must be a string, got 0$"):
        AdversaryStrategy.from_description({"quantum": "none", "classical": 0})


def test_modification_attack_composition():
    strategy = modification_attack()
    assert strategy.quantum == "gate_all"
    assert strategy.gate == "SPIN_FLIP"
    assert strategy.classical == "flip_all"


# -- classical tap ----------------------------------------------------------------


def test_tap_classical_policies():
    # The classical tap XORs one constant onto every announced bit: 0 for
    # none, 1 for flip_all.  The compiled channel keeps only that constant,
    # and each side receives the other's announcement XOR it.
    params = ProtocolParams(n=4, variant=VARIANT_ORIGINAL)
    for strategy, flip in (
        (AdversaryStrategy(), 0),
        (intercept_resend_attack(), 0),
        (modification_attack(), 1),
        (AdversaryStrategy("intercept_resend_z", classical="flip_all"), 1),
    ):
        assert protocol._compile(strategy).flip == flip
        out = run_session(params, strategy, seed=2)
        assert to01(out.received_by_bob) == to01(out.announced_by_alice ^ flip)
        assert to01(out.received_by_alice) == to01(out.announced_by_bob ^ flip)


# -- quantum tap ------------------------------------------------------------------


def test_tap_quantum_none_is_identity():
    state = bell_batch(1)[0]
    tapped = tap_quantum(AdversaryStrategy(), state, np.random.default_rng(0))
    assert np.array_equal(tapped, state)


def test_tap_quantum_spin_flip_gives_singlet():
    tapped = tap_quantum(modification_attack(), bell_batch(1)[0], np.random.default_rng(0))
    singlet = np.array([0, SQRT_HALF, -SQRT_HALF, 0], dtype=complex)
    ratio = tapped[np.abs(singlet) > 0] / singlet[np.abs(singlet) > 0]
    assert np.allclose(ratio, ratio[0], rtol=0, atol=1e-12)  # equal up to global phase
    assert abs(abs(ratio[0]) - 1) <= 1e-12


def test_tap_quantum_intercept_collapses_to_product_state():
    rng = np.random.default_rng(3)
    for _ in range(20):
        tapped = tap_quantum(intercept_resend_attack(), bell_batch(1)[0], rng)
        assert np.allclose(tapped, [1, 0, 0, 0], rtol=0, atol=1e-12) or np.allclose(
            tapped, [0, 0, 0, 1], rtol=0, atol=1e-12
        )


def test_tap_quantum_batch_matches_single():
    # The class-row tap the compile runs, drawn once per pair, against the one-pair tap.
    rng_batch = np.random.default_rng(9)
    rng_single = np.random.default_rng(9)
    strategy = intercept_resend_attack()
    p_eve, tapped, ops = protocol._intercept_resend_z(bell_batch(1), np.array([0]))
    assert tapped.shape == (2, 4)
    assert np.array_equal(ops, [0, 0])
    batched = tapped[(rng_batch.random(32) >= p_eve[0]).astype(int)]
    singles = np.array([tap_quantum(strategy, bell_batch(1)[0], rng_single) for _ in range(32)])
    assert np.allclose(batched, singles, rtol=0, atol=1e-12)


def test_intercept_resend_breaks_hadamard_basis_agreement():
    # On an H-prepared pair, a Z-basis intercept makes the final outcomes
    # independent: agreement probability 1/2 (exact value 1/2 by Born rule).
    rng = np.random.default_rng(17)
    agree = 0
    trials = 4000
    for _ in range(trials):
        state = apply_gate(bell_batch(1)[0], standard_gate("H"), ALICE)
        state = tap_quantum(intercept_resend_attack(), state, rng)
        state = apply_gate(state, standard_gate("H"), BOB)
        bob = measure_z(state, BOB, rng)
        alice = measure_z(bob.post_state, ALICE, rng)
        agree += alice.outcome == bob.outcome
    assert 0.46 < agree / trials < 0.54


# -- interaction with sessions ------------------------------------------------------


def test_none_policies_match_absent_adversary():
    params = ProtocolParams(n=6, variant=VARIANT_ORIGINAL)
    idle = AdversaryStrategy()
    for seed in range(20):
        assert run_session(params, idle, seed=seed).to_dict() == run_session(params, None, seed=seed).to_dict()


def test_y_gate_equals_spin_flip_in_every_session():
    # Pauli Y is the spin flip times a global phase, so outcome transcripts
    # agree trial by trial.
    params = ProtocolParams(n=2, variant=VARIANT_ORIGINAL)
    y_attack = AdversaryStrategy(quantum="gate_all", gate="Y", classical="flip_all")
    flip_attack = modification_attack()
    for seed in range(10_000):
        assert run_session(params, y_attack, seed=seed).to_dict() == run_session(
            params, flip_attack, seed=seed
        ).to_dict()


@pytest.mark.parametrize("gate,detecting_bit", [("X", 1), ("Z", 0)])
def test_x_and_z_attacks_detected_conditionally(gate, detecting_bit):
    # X preserves agreement exactly on H positions, Z exactly on I positions;
    # with flipped announcements a session is detected iff some compared
    # check position carries the other op-key bit.
    params = ProtocolParams(n=8, variant=VARIANT_ORIGINAL, tau=0.0)
    strategy = AdversaryStrategy(quantum="gate_all", gate=gate, classical="flip_all")
    for seed in range(200):
        keys = generate_master_keys(8, rng=np.random.default_rng(seed))
        out = run_session(params, strategy, seed=seed, keys=keys)
        check_positions = np.flatnonzero(keys.partition_key == 1)
        expect_detection = bool(np.any(keys.op_key[check_positions] == detecting_bit))
        assert out.aborted == expect_detection, seed
    # forced keys pin both branches: compared positions all-I vs all-H
    hash_key = np.zeros(128, dtype=np.uint8)
    all_i = MasterKeys(np.zeros(16, np.uint8), np.ones(16, np.uint8), hash_key)
    all_h = MasterKeys(np.ones(16, np.uint8), np.ones(16, np.uint8), hash_key)
    detected_with = {0: all_i, 1: all_h}[detecting_bit]
    clean_with = {0: all_h, 1: all_i}[detecting_bit]
    assert run_session(params, strategy, seed=1, keys=detected_with).aborted
    assert not run_session(params, strategy, seed=1, keys=clean_with).aborted


def test_intercept_resend_quarter_mismatch_rate():
    params = ProtocolParams(n=16, variant=VARIANT_ORIGINAL, tau=0.0)
    strategy = intercept_resend_attack()
    counts = count_sessions(params, strategy, TrialStreams((), 800))
    assert counts.compared_bits > 10_000
    assert 0.22 < counts.mismatched_bits / counts.compared_bits < 0.28


# -- search -------------------------------------------------------------------------


def test_search_smoke():
    results = run_search(RunConfig(protocol=VARIANT_ORIGINAL, n=8, trials=40, seed=7))
    assert len(results) == len(SEARCH_GATE_NAMES) * 2
    by_strategy = {(r.strategy.gate, r.strategy.classical): r for r in results}
    honest = by_strategy[("I", "none")]
    assert honest.detection_rate == 0.0 and honest.key_corruption_rate == 0.0
    for gate in ("Y", "SPIN_FLIP"):
        dangerous = by_strategy[(gate, "flip_all")]
        assert dangerous.detection_rate == 0.0
        assert dangerous.key_corruption_rate == 1.0
    # sorted by detection ascending, corruption descending
    rates = [(r.detection_rate, -r.key_corruption_rate) for r in results]
    assert rates == sorted(rates)


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", 0),
        ("trials", True),
        ("trials", 2.5),
        ("trials", "3"),
        ("seed", 2.5),
        ("seed", -1),
        ("seed", 2**64),
        ("seed", True),
        ("trials", np.int64(3)),
    ],
)
def test_search_rejects_bad_trials(field, value, monkeypatch):
    def no_sessions(*args, **kwargs):
        raise AssertionError("a session ran before the inputs were checked")

    monkeypatch.setattr("sqkdlab.harness.count_sessions", no_sessions)
    with pytest.raises(ValueError, match=rf"^{field}:"):
        run_search(RunConfig(protocol=VARIANT_ORIGINAL, n=2, **{field: value}))


def test_numpy_trials_and_seed_are_refused_as_not_python_ints():
    # The report echoes trials and seed to JSON as they are, so a numpy
    # integer is refused, and the message says which kind of int is meant.
    for field in ("trials", "seed"):
        with pytest.raises(ValueError, match=rf"^{field}: must be a Python int, got np.int64\(3\)$"):
            run_search(RunConfig(protocol=VARIANT_ORIGINAL, n=2, **{field: np.int64(3)}))


def test_search_result_wire_format():
    result = run_search(RunConfig(protocol=VARIANT_ORIGINAL, n=2, trials=2, seed=0))[0]
    data = result.to_dict()
    assert set(data) == {"quantum", "classical", "detection_rate", "key_corruption_rate", "trials"}
