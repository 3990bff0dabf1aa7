"""Simulator tests: gate catalog, Bell pairs, Born-rule measurement, batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkdlab.qsim import (
    ALICE,
    ATOL,
    BOB,
    GATE_NAMES,
    apply_gate_batch,
    bell_batch,
    is_unitary,
    standard_gate,
    z_branches,
)

from oracles import (
    apply_gate,
    born_probability_zero,
    measure_qubits_z,
    measure_z,
    measure_z_batch,
    measure_z_collapse,
    prepare,
)

SQRT_HALF = 1 / np.sqrt(2)


def phase_equal(a, b, atol=1e-9):
    """State equality up to a global phase."""
    a, b = np.asarray(a, complex), np.asarray(b, complex)
    k = int(np.argmax(np.abs(b)))
    if abs(b[k]) < atol:
        return np.allclose(a, b, rtol=0, atol=atol)
    phase = a[k] / b[k]
    return abs(abs(phase) - 1) <= atol and np.allclose(a, phase * b, rtol=0, atol=atol)


# -- gates -------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, expected",
    [
        ("I", [[1, 0], [0, 1]]),
        ("X", [[0, 1], [1, 0]]),
        ("Y", [[0, -1j], [1j, 0]]),
        ("Z", [[1, 0], [0, -1]]),
        ("H", [[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]]),
        ("SPIN_FLIP", [[0, 1], [-1, 0]]),
    ],
)
def test_gate_catalog(name, expected):
    assert np.allclose(standard_gate(name), expected, rtol=0, atol=ATOL)


def test_gate_names_case_insensitive():
    assert np.array_equal(standard_gate("spin_flip"), standard_gate("SPIN_FLIP"))


def test_unknown_gate_rejected():
    with pytest.raises(ValueError, match="unknown gate"):
        standard_gate("CNOT")
    with pytest.raises(ValueError, match="^unknown gate name 5;"):
        standard_gate(5)


def test_all_gates_unitary():
    for name in GATE_NAMES:
        g = standard_gate(name)
        assert np.all(np.abs(g.conj().T @ g - np.eye(2)) <= ATOL), name


def test_spin_flip_action_on_basis():
    g = standard_gate("SPIN_FLIP")
    assert np.allclose(g @ [1, 0], [0, -1], rtol=0, atol=ATOL)  # |0> -> -|1>
    assert np.allclose(g @ [0, 1], [1, 0], rtol=0, atol=ATOL)  # |1> -> |0>


# -- bell preparation ---------------------------------------------------------


def test_bell_amplitudes():
    assert np.allclose(bell_batch(3), [SQRT_HALF, 0, 0, SQRT_HALF], rtol=0, atol=ATOL)


def test_bell_normalized():
    assert np.all(np.abs(np.sum(np.abs(bell_batch(3)) ** 2, axis=1) - 1.0) <= ATOL)


def test_bell_measurement_statistics():
    # Z-measuring both halves gives only 00 and 11, each about half the time.
    rng = np.random.default_rng(2024)
    states = bell_batch(100_000)
    b, states = measure_z_batch(states, BOB, rng)
    a, _ = measure_z_batch(states, ALICE, rng)
    assert np.array_equal(a, b)
    freq00 = np.mean((a == 0) & (b == 0))
    assert 0.49 < freq00 < 0.51


# -- gate application ---------------------------------------------------------


def test_apply_hadamard_to_alice():
    state = apply_gate(bell_batch(1)[0], standard_gate("H"), ALICE)
    assert np.allclose(state, [0.5, 0.5, 0.5, -0.5], rtol=0, atol=ATOL)


def test_apply_identity_is_noop():
    state = np.array([0.5, 0.5, 0.5, -0.5], dtype=complex)
    assert np.allclose(apply_gate(state, standard_gate("I"), BOB), state, rtol=0, atol=ATOL)


def test_hadamard_both_qubits_restores_bell():
    state = apply_gate(bell_batch(1)[0], standard_gate("H"), ALICE)
    state = apply_gate(state, standard_gate("H"), BOB)
    assert np.allclose(state, bell_batch(1)[0], rtol=0, atol=ATOL)


def test_spin_flip_on_bob_gives_singlet():
    state = apply_gate(bell_batch(1)[0], standard_gate("SPIN_FLIP"), BOB)
    singlet = np.array([0, SQRT_HALF, -SQRT_HALF, 0], dtype=complex)
    assert phase_equal(state, singlet)


def test_non_unitary_gate_rejected():
    with pytest.raises(ValueError, match="unitary"):
        apply_gate_batch(bell_batch(2), np.array([[1, 0], [0, 0.5]]), BOB)


def test_invalid_target_rejected():
    with pytest.raises(ValueError, match="selector"):
        apply_gate_batch(bell_batch(2), standard_gate("I"), "C")
    with pytest.raises(ValueError, match="selector"):
        measure_z_batch(bell_batch(2), "C", np.random.default_rng(0))


def test_norm_preserved_for_random_states_and_gates():
    rng = np.random.default_rng(11)
    states = rng.normal(size=(10_000, 4)) + 1j * rng.normal(size=(10_000, 4))
    states /= np.linalg.norm(states, axis=1)[:, None]
    for name in GATE_NAMES:
        for target in (ALICE, BOB):
            applied = apply_gate_batch(states, standard_gate(name), target)
            norms = np.sum(np.abs(applied) ** 2, axis=1)
            assert np.max(np.abs(norms - 1.0)) <= 1e-12, (name, target)


# -- measurement --------------------------------------------------------------


def test_born_probability_zero():
    assert born_probability_zero(bell_batch(1)[0], ALICE) == pytest.approx(0.5, abs=ATOL)
    plus_zero = apply_gate(bell_batch(1)[0], standard_gate("H"), ALICE)
    assert born_probability_zero(plus_zero, BOB) == pytest.approx(0.5, abs=ATOL)


def test_measure_collapse_invariants():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rec = measure_z(bell_batch(1)[0], BOB, rng)
        assert rec.outcome in (0, 1)
        assert abs(np.linalg.norm(rec.post_state) - 1.0) <= 1e-12
        # components inconsistent with the outcome on qubit B are exactly zero
        for idx in range(4):
            if (idx & 1) != rec.outcome:
                assert rec.post_state[idx] == 0


def test_measure_rejects_unnormalized_state():
    states = np.array([bell_batch(1)[0], [1.0, 1.0, 0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="normalized"):
        measure_z_batch(states, ALICE, np.random.default_rng(0))


@pytest.mark.parametrize("target", [ALICE, BOB])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_measure_rejects_non_finite_states_before_any_draw(target, bad):
    states = bell_batch(3)
    states[1, 0] = bad
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="state is not normalized"):
        measure_z_batch(states, target, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("gate_name", ["I", "H"])
def test_matched_gates_keep_z_correlation(gate_name):
    # (U x U)|phi+> measures to equal bits, with certainty.
    rng = np.random.default_rng(77)
    g = standard_gate(gate_name)
    states = bell_batch(2000)
    states = apply_gate_batch(states, g, ALICE)
    states = apply_gate_batch(states, g, BOB)
    b, states = measure_z_batch(states, BOB, rng)
    a, _ = measure_z_batch(states, ALICE, rng)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("gate_name", ["I", "H"])
def test_spin_flip_makes_outcomes_opposite(gate_name):
    # (U x U)(I x SPIN_FLIP)|phi+> measures to opposite bits, with certainty.
    rng = np.random.default_rng(78)
    g = standard_gate(gate_name)
    states = apply_gate_batch(bell_batch(2000), standard_gate("SPIN_FLIP"), BOB)
    states = apply_gate_batch(states, g, ALICE)
    states = apply_gate_batch(states, g, BOB)
    b, states = measure_z_batch(states, BOB, rng)
    a, _ = measure_z_batch(states, ALICE, rng)
    assert np.array_equal(a, 1 - b)


def test_measurement_deterministic_given_seed():
    outcomes = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        outcomes.append([measure_z(bell_batch(1)[0], ALICE, rng).outcome for _ in range(50)])
    assert outcomes[0] == outcomes[1]


# -- batch/single equivalence -------------------------------------------------


def test_vector_draws_match_scalar_draws():
    # measure_z_batch relies on Generator.random(n) consuming the stream
    # exactly like n scalar draws; pin that numpy behavior here.
    r1, r2 = np.random.default_rng(3), np.random.default_rng(3)
    assert np.array_equal(r1.random(16), np.array([r2.random() for _ in range(16)]))


def test_apply_gate_batch_matches_single():
    rng = np.random.default_rng(21)
    states = rng.normal(size=(40, 4)) + 1j * rng.normal(size=(40, 4))
    states /= np.linalg.norm(states, axis=1)[:, None]
    mask = rng.random(40) < 0.5
    g = standard_gate("H")
    batched = np.where(mask[:, None], apply_gate_batch(states, g, BOB), states)
    looped = np.array([apply_gate(s, g, BOB) if m else s for s, m in zip(states, mask)])
    assert np.allclose(batched, looped, rtol=0, atol=1e-12)


def test_measure_batch_matches_single():
    states = bell_batch(64)
    states = np.where((np.arange(64) % 2 == 0)[:, None], apply_gate_batch(states, standard_gate("H"), ALICE), states)
    out_b, post_b = measure_z_batch(states.copy(), BOB, np.random.default_rng(55))
    rng = np.random.default_rng(55)
    singles = [measure_z(s, BOB, rng) for s in states]
    assert np.array_equal(out_b, [rec.outcome for rec in singles])
    assert np.allclose(post_b, [rec.post_state for rec in singles], rtol=0, atol=1e-12)


def random_unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_states(rng, count) -> np.ndarray:
    states = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
    return states / np.linalg.norm(states, axis=1)[:, None]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([ALICE, BOB]), st.booleans(), st.sampled_from([None, *GATE_NAMES]))
def test_apply_gate_batch_equals_kron_formula(seed, target, masked, gate_name):
    # A standard gate comes from the import-time table of lifted gates, any
    # other unitary is lifted on the call: the same product either way.
    rng = np.random.default_rng(seed)
    gate = random_unitary(rng) if gate_name is None else standard_gate(gate_name)
    states = random_states(rng, 9)
    eye = np.eye(2, dtype=complex)
    op_t = (np.kron(gate, eye) if target == ALICE else np.kron(eye, gate)).T
    expected = states @ op_t
    got = apply_gate_batch(states, gate, target)
    assert np.array_equal(got, expected)
    assert not np.shares_memory(got, states)
    if masked:
        # Gating some rows picks them from the full product.
        where = rng.integers(0, 2, size=9).astype(bool)[:, None]
        assert np.array_equal(np.where(where, got, states), np.where(where, expected, states))


@pytest.mark.parametrize("target", [ALICE, BOB])
def test_bad_gates_raise_on_every_call(target):
    rng = np.random.default_rng(17)
    states = bell_batch(3)
    for name in GATE_NAMES:
        apply_gate_batch(states, standard_gate(name), target)
    for _ in range(3):
        apply_gate_batch(states, random_unitary(rng), target)
    hadamard = standard_gate("H")
    for bad in (2 * hadamard, hadamard + 1e-6, hadamard.reshape(4), np.eye(4, dtype=complex)):
        for _ in range(3):
            with pytest.raises(ValueError, match="not unitary"):
                apply_gate_batch(states, bad, target)


def measure_z_batch_by_reduction(states, target, rng):
    """measure_z_batch as a reduction: sum(axis=1) for the probability, linalg.norm for the collapse."""
    component_bit = np.array([0, 0, 1, 1] if target == ALICE else [0, 1, 0, 1])
    weights = np.abs(states) ** 2
    p_zero = weights[:, component_bit == 0].sum(axis=1)
    outcomes = (rng.random(states.shape[0]) >= p_zero).astype(np.uint8)
    post = np.where(component_bit[None, :] == outcomes[:, None], states, 0.0)
    return outcomes, post / np.linalg.norm(post, axis=1)[:, None]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([ALICE, BOB]), st.integers(1, 70), st.booleans())
def test_measure_z_batch_equals_reduction_formula(seed, target, count, sparse):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
    if sparse:  # exact zeros, as in prepared Bell pairs
        states[rng.random((count, 4)) < 0.4] = 0
        states[:, 0] += np.all(states == 0, axis=1)
    states /= np.linalg.norm(states, axis=1)[:, None]
    draw = int(rng.integers(2**32))
    expected_outcomes, expected_post = measure_z_batch_by_reduction(states, target, np.random.default_rng(draw))
    outcomes, post = measure_z_batch(states, target, np.random.default_rng(draw))
    assert outcomes.dtype == np.uint8
    assert np.array_equal(outcomes, expected_outcomes)
    assert np.array_equal(post, expected_post)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([ALICE, BOB]), st.integers(1, 70))
def test_collapse_is_byte_equal_to_complex_division(seed, target, count):
    # The collapse multiplies by 1 / norm; complex division by norm + 0j
    # gives the same bytes wherever no kept part is -0.0.  The states the
    # session measures (prepared pairs, a tapped gate, Bob's H) are among them.
    rng = np.random.default_rng(seed)
    tapped = [apply_gate_batch(prepare([0, 1]), standard_gate(name), BOB) for name in GATE_NAMES]
    session_like = np.concatenate(tapped + [apply_gate_batch(rows, standard_gate("H"), BOB) for rows in tapped])
    states = rng.normal(size=(count, 4)) + 1j * rng.normal(size=(count, 4))
    states /= np.linalg.norm(states, axis=1)[:, None]
    for batch in (states, session_like[rng.integers(len(session_like), size=count)]):
        draw = int(rng.integers(2**32))
        _, expected_post = measure_z_batch_by_reduction(batch, target, np.random.default_rng(draw))
        _, post = measure_z_batch(batch, target, np.random.default_rng(draw))
        assert post.tobytes() == expected_post.tobytes()


def mixed_states(rng, count) -> np.ndarray:
    """Random normalized rows, some with exact zeros, some the rows a session measures."""
    states = random_states(rng, count)
    sparse = rng.random((count, 4)) < 0.4
    states[sparse] = 0
    states[:, 0] += np.all(states == 0, axis=1)
    states /= np.linalg.norm(states, axis=1)[:, None]
    tapped = [apply_gate_batch(prepare([0, 1]), standard_gate(name), BOB) for name in GATE_NAMES]
    session_like = np.concatenate(tapped + [apply_gate_batch(rows, standard_gate("H"), BOB) for rows in tapped])
    pick = rng.random(count) < 0.5
    states[pick] = session_like[rng.integers(len(session_like), size=int(pick.sum()))]
    return states


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([ALICE, BOB]), st.integers(1, 700))
def test_split_collapse_is_byte_equal_to_the_four_term_collapse(seed, target, count):
    rng = np.random.default_rng(seed)
    states = mixed_states(rng, count)
    draw = int(rng.integers(2**32))
    expected_outcomes, expected_post = measure_z_collapse(states, target, np.random.default_rng(draw))

    outcomes, collapsed = measure_z_batch(states, target, np.random.default_rng(draw))
    assert outcomes.dtype == np.uint8 and np.array_equal(outcomes, expected_outcomes)
    assert collapsed.shape == (count, 4) and collapsed.tobytes() == expected_post.tobytes()

    # z_branches draws nothing; drawing on its p_zero gives the outcomes,
    # and its rest of each drawn outcome is the kept pair of components,
    # ordered by the other qubit's bit.
    p_zero, rest, drawable = z_branches(states, target)
    assert np.array_equal(np.random.default_rng(draw).random(count) >= p_zero, expected_outcomes)
    kept = expected_post.reshape(count, 2, 2)
    rows = np.arange(count)
    kept = kept[rows, :, outcomes] if target == BOB else kept[rows, outcomes, :]
    assert drawable[rows, outcomes].all()
    assert rest.shape == (count, 2, 2) and rest[rows, outcomes].tobytes() == kept.tobytes()


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([ALICE, BOB]), st.integers(1, 700))
def test_measuring_the_rest_equals_measuring_the_collapsed_pair(seed, target, count):
    rng = np.random.default_rng(seed)
    states = mixed_states(rng, count)
    first, second = int(rng.integers(2**32)), int(rng.integers(2**32))
    outcomes, collapsed = measure_z_collapse(states, target, np.random.default_rng(first))
    rest = z_branches(states, target)[1][np.arange(count), outcomes]
    other = BOB if target == ALICE else ALICE
    expected, _ = measure_z_collapse(collapsed, other, np.random.default_rng(second))
    got = measure_qubits_z(rest, np.random.default_rng(second))
    assert got.dtype == np.uint8 and np.array_equal(got, expected)
    # The session's table for the second measurement is abs(q0) ** 2.
    assert np.array_equal(np.random.default_rng(second).random(count) >= np.abs(rest[:, 0]) ** 2, expected)


def test_measure_qubits_z_follows_the_born_rule():
    rng = np.random.default_rng(8)
    zero, one, plus = [1, 0], [0, 1j], [SQRT_HALF, -SQRT_HALF]
    assert np.array_equal(measure_qubits_z(np.array([zero, one] * 50), rng), [0, 1] * 50)
    assert 0.45 < measure_qubits_z(np.array([plus] * 4000), rng).mean() < 0.55
    assert measure_qubits_z(np.zeros((0, 2)), rng).shape == (0,)


@pytest.mark.parametrize(
    "bad", [[1.0, 1.0], [0.5, 0.5], [np.nan, 0.0], [np.inf, 0.0], [1.0, complex(0, np.nan)], [-np.inf, 1.0]]
)
def test_measure_qubits_z_rejects_bad_qubits_before_any_draw(bad):
    qubits = np.array([[1, 0], bad, [0, 1]], dtype=complex)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="state is not normalized"):
        measure_qubits_z(qubits, rng)
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 2, 2)])
def test_measure_qubits_z_needs_a_stack_of_qubits(shape):
    with pytest.raises(ValueError, match=r"\(m, 2\) array"):
        measure_qubits_z(np.ones(shape, dtype=complex), np.random.default_rng(0))
