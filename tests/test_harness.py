"""Harness tests: config validation, aggregation, rendering, CLI, replay."""

import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqkdlab.adversary import (
    CLASSICAL_POLICIES,
    QUANTUM_GATE_ALL,
    SEARCH_GATE_NAMES,
    AdversaryStrategy,
    AttackSearchResult,
)
from sqkdlab.bits import TrialStreams, trial_stream
from sqkdlab.cli import main
from sqkdlab.harness import (
    WALKTHROUGH_EXPECTED,
    AggregateReport,
    ReplayMismatch,
    RunConfig,
    _rates,
    render_report_csv,
    render_report_json,
    render_search_csv,
    render_search_json,
    replay_paper_example,
    run_batch,
    run_search,
)
from sqkdlab.protocol import (
    MAX_HASH_BITS,
    MAX_N,
    VARIANTS,
    ProtocolParams,
    SessionCounts,
    count_sessions,
    run_session,
)


def drop_wall_time(report: AggregateReport) -> dict:
    data = report.to_dict()
    data.pop("wall_time_ms")
    return data


# -- config ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"protocol": "both"}, "protocol"),
        ({"attack": "replay"}, "attack"),
        ({"attack": "custom"}, "custom_strategy"),
        ({"n": 0}, "n"),
        ({"trials": 0}, "trials"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"tau": 1.0}, "tau"),
        ({"hash_bits": 0}, "hash_bits"),
        ({"pa_bits": 0}, "pa_bits"),
        ({"seed": np.int64(3)}, "seed"),
        ({"n": True}, "n"),
        ({"n": 2.5}, "n"),
        ({"n": "8"}, "n"),
        ({"trials": 2.5}, "trials"),
        ({"seed": 1.0}, "seed"),
        ({"seed": True}, "seed"),
        ({"hash_bits": 8.5}, "hash_bits"),
        ({"pa_bits": 4.0}, "pa_bits"),
        ({"pa_bits": True}, "pa_bits"),
        ({"tau": "0.1"}, "tau"),
        ({"tau": False}, "tau"),
        ({"tau": 0.1j}, "tau"),
        ({"custom_strategy": {"quantum": "none"}}, "custom_strategy"),
        ({"n": MAX_N + 1}, "n"),
        ({"n": 10**9}, "n"),
        ({"hash_bits": MAX_HASH_BITS + 1}, "hash_bits"),
        ({"attack": "custom", "custom_strategy": {"quantum": "noisy"}}, "quantum"),
        ({"attack": "custom", "custom_strategy": {"quantum": "gate_all:cnot"}}, "gate"),
        ({"attack": "custom", "custom_strategy": {"classical": "drop"}}, "classical"),
        ({"attack": "custom", "custom_strategy": ["flip_all"]}, "custom_strategy"),
    ],
)
def test_config_validation_names_the_field(overrides, field):
    config = RunConfig(**overrides)
    with pytest.raises(ValueError, match=f"^{field}:"):
        config.validate()


def test_config_accepts_integral_tau():
    RunConfig(tau=0).validate()


def test_config_caps_only_what_allocates():
    # n and hash_bits size per-session arrays and are capped; trials and
    # pa_bits size nothing that grows with them and are not.
    RunConfig(n=MAX_N, hash_bits=MAX_HASH_BITS, trials=10**12, pa_bits=10**12).validate()


def test_validate_returns_the_params_and_strategy_it_checked():
    config = RunConfig(
        attack="custom", custom_strategy={"quantum": "gate_all:y", "classical": "flip_all"}, n=6, hash_bits=16
    )
    params, strategy = config.validate()
    assert isinstance(params, ProtocolParams)
    assert isinstance(strategy, AdversaryStrategy)
    assert (params, strategy) == (config.to_params(), config.resolve_strategy())


def test_run_batch_builds_the_params_and_strategy_once():
    # validate() returns both, and the report's config echo renders them.
    config = RunConfig(attack="custom", custom_strategy={"quantum": "gate_all:y"}, n=4, trials=2)
    with (
        mock.patch.object(RunConfig, "to_params", autospec=True, side_effect=RunConfig.to_params) as to_params,
        mock.patch.object(RunConfig, "resolve_strategy", autospec=True, side_effect=RunConfig.resolve_strategy) as resolve,
    ):
        report = run_batch(config)
    assert (to_params.call_count, resolve.call_count) == (1, 1)
    assert report.config["strategy"] == {"quantum": "gate_all:y", "classical": "none"}


@pytest.mark.parametrize(
    "field, value",
    [
        ("n", 0),
        ("n", 2.5),
        ("n", True),
        ("n", MAX_N + 1),
        ("tau", 1.0),
        ("tau", -0.5),
        ("tau", float("nan")),
        ("tau", True),
        ("tau", "0.1"),
        ("hash_bits", 0),
        ("hash_bits", 8.0),
        ("hash_bits", MAX_HASH_BITS + 1),
        ("pa_bits", 0),
        ("pa_bits", 2.5),
        ("pa_bits", True),
        ("balanced_k2", "no"),
        ("balanced_k2", 1),
        ("balanced_k2", None),
    ],
)
def test_entry_points_reject_a_session_value_alike(field, value):
    # RunConfig and ProtocolParams reach one check, so a bad value gets one
    # message, naming the field as the caller wrote it.
    with pytest.raises(ValueError, match=f"^{field}:") as from_params:
        ProtocolParams(**{"n": 4, field: value})
    with pytest.raises(ValueError) as from_config:
        RunConfig(**{field: value}).validate()
    assert str(from_config.value) == str(from_params.value)


def test_reports_from_numpy_and_fraction_inputs_render_like_plain_ones():
    # Accepted numpy and Fraction values are stored as int / float / bool,
    # so a report built from them renders to JSON and equals the plain one.
    odd = dict(n=np.int64(4), tau=np.float32(0.25), hash_bits=np.int32(8), pa_bits=np.int64(2), balanced_k2=np.True_)
    plain = dict(n=4, tau=0.25, hash_bits=8, pa_bits=2, balanced_k2=True)
    for protocol in VARIANTS:
        report = run_batch(RunConfig(protocol=protocol, attack="modification", trials=6, seed=3, **odd))
        json.loads(render_report_json(report))
        expected = run_batch(RunConfig(protocol=protocol, attack="modification", trials=6, seed=3, **plain))
        assert drop_wall_time(report) == drop_wall_time(expected)
    config = RunConfig(n=np.int64(2), tau=Fraction(1, 4), hash_bits=np.int64(4), trials=2, seed=1)
    rendered = json.loads(render_search_json(run_search(config), config))
    assert rendered["config"]["tau"] == 0.25 and type(rendered["config"]["n"]) is int


def test_trial_seed_derivation_is_stable():
    a = np.random.default_rng(trial_stream((7,), 3)).integers(0, 2**32)
    b = np.random.default_rng(trial_stream((7,), 3)).integers(0, 2**32)
    c = np.random.default_rng(trial_stream((7,), 4)).integers(0, 2**32)
    assert a == b
    assert a != c


# -- batches -----------------------------------------------------------------------


def test_honest_batch_rates():
    report = run_batch(RunConfig(protocol="original", attack="none", n=8, trials=200, seed=1))
    assert report.detection_rate == 0.0
    assert report.abort_rate == 0.0
    assert report.key_match_rate == 1.0
    assert report.mean_check_error_rate == 0.0


def test_modification_batch_rates():
    report = run_batch(RunConfig(protocol="original", attack="modification", n=8, trials=200, seed=1))
    assert report.detection_rate == 0.0
    assert report.key_match_rate == 0.0
    assert report.raw_key_complement_rate == 1.0


def test_improved_batch_detects_modification():
    report = run_batch(RunConfig(protocol="improved", attack="modification", n=8, trials=200, seed=1))
    assert report.detection_rate == 1.0
    assert report.abort_rate == 1.0


def test_oversized_pa_request_aborts_every_session_undetected():
    # The raw key of n=4 has at most 8 bits: every honest session passes its
    # check, then aborts on the PA length, and no party detected anything.
    report = run_batch(RunConfig(protocol="original", attack="none", n=4, trials=10, seed=0, pa_bits=100))
    assert report.detection_rate == 0.0
    assert report.abort_rate == 1.0
    assert report.key_match_rate == 1.0
    assert report.mean_check_error_rate == 0.0


def test_rates_are_exact_trial_frequencies():
    report = run_batch(
        RunConfig(protocol="original", attack="intercept-resend", n=8, trials=157, seed=3)
    )
    for rate in (
        report.detection_rate,
        report.abort_rate,
        report.key_match_rate,
        report.raw_key_complement_rate,
    ):
        assert (rate * 157) == pytest.approx(round(rate * 157), abs=1e-9)


def test_rates_divide_each_count_by_the_trials():
    counts = SessionCounts(
        sessions=3, detected=2, aborted=1, matched=1, complemented=0, vacuous=1, mismatched_bits=0, compared_bits=0
    )
    rates = _rates(counts)
    # (trials - matched) / trials, not 1 - matched / trials: at 3 trials and 1 match they differ in the last bit.
    assert rates["key_corruption_rate"] == 2 / 3
    assert rates["key_corruption_rate"] != 1 - 1 / 3
    assert rates == {
        "detection_rate": 2 / 3,
        "abort_rate": 1 / 3,
        "key_match_rate": 1 / 3,
        "key_corruption_rate": 2 / 3,
        "raw_key_complement_rate": 0.0,
        "mean_check_error_rate": 0.0,
    }
    pooled = SessionCounts(
        sessions=4, detected=0, aborted=0, matched=4, complemented=0, vacuous=0, mismatched_bits=3, compared_bits=8
    )
    assert _rates(pooled)["mean_check_error_rate"] == 3 / 8


def test_batch_determinism_modulo_wall_time():
    config = RunConfig(protocol="improved", attack="modification", n=8, trials=100, seed=9)
    assert drop_wall_time(run_batch(config)) == drop_wall_time(run_batch(config))


def test_custom_strategy_matches_named_attack():
    custom = RunConfig(
        protocol="original",
        attack="custom",
        custom_strategy={"quantum": "gate_all:spin_flip", "classical": "flip_all"},
        n=8,
        trials=60,
        seed=4,
    )
    named = RunConfig(protocol="original", attack="modification", n=8, trials=60, seed=4)
    # configs echo different attack labels; the numbers must agree exactly
    custom_metrics = {k: v for k, v in drop_wall_time(run_batch(custom)).items() if k != "config"}
    named_metrics = {k: v for k, v in drop_wall_time(run_batch(named)).items() if k != "config"}
    assert custom_metrics == named_metrics


def test_balanced_k2_gives_fixed_raw_length():
    config = RunConfig(protocol="original", attack="none", n=8, trials=50, seed=2, balanced_k2=True, pa_bits=4)
    report = run_batch(config)
    assert report.detection_rate == 0.0
    assert report.key_match_rate == 1.0
    assert report.vacuous_check_sessions == 0


def test_search_batches():
    config = RunConfig(protocol="original", n=8, trials=30, seed=5)
    results = run_search(config)
    assert len(results) == 12
    zero_detection = {
        (r.strategy.gate, r.strategy.classical)
        for r in results
        if r.detection_rate == 0.0 and r.key_corruption_rate == 1.0
    }
    assert zero_detection == {("Y", "flip_all"), ("SPIN_FLIP", "flip_all")}


@pytest.mark.parametrize(
    "field, value",
    [("attack", "modification"), ("custom_strategy", {"quantum": "none"}), ("pa_bits", 100), ("balanced_k2", True)],
)
def test_search_rejects_fields_it_does_not_use(field, value):
    with pytest.raises(ValueError, match=rf"^{field}:"):
        run_search(RunConfig(n=6, trials=2, seed=5, **{field: value}))


def test_search_single_trial_rates_are_boolean():
    results = run_search(RunConfig(protocol="original", n=4, trials=1, seed=6))
    for result in results:
        assert result.detection_rate in (0.0, 1.0)
        assert result.key_corruption_rate in (0.0, 1.0)


def test_search_rows_are_the_rates_of_their_strategies_counts():
    # Strategy ``index`` runs on the streams of (seed, index).
    config = RunConfig(protocol="original", n=2, trials=7, seed=0)
    params, _ = config.validate()
    strategies = [
        AdversaryStrategy(quantum=QUANTUM_GATE_ALL, gate=g, classical=c)
        for g in SEARCH_GATE_NAMES
        for c in CLASSICAL_POLICIES
    ]
    rows = {row.strategy: row for row in run_search(config)}
    assert set(rows) == set(strategies)
    for index, strategy in enumerate(strategies):
        rates = _rates(count_sessions(params, strategy, TrialStreams((config.seed, index), 7)))
        expected = AttackSearchResult(strategy, rates["detection_rate"], rates["key_corruption_rate"], 7)
        assert rows[strategy] == expected


# -- rendering ---------------------------------------------------------------------


def test_json_and_csv_report_values_agree():
    report = run_batch(RunConfig(protocol="original", attack="modification", n=8, trials=40, seed=6))
    from_json = json.loads(render_report_json(report))
    row = next(csv.DictReader(io.StringIO(render_report_csv(report))))
    for name in (
        "detection_rate",
        "abort_rate",
        "key_match_rate",
        "raw_key_complement_rate",
        "mean_check_error_rate",
    ):
        assert float(row[name]) == from_json[name]
    assert int(row["vacuous_check_sessions"]) == from_json["vacuous_check_sessions"]
    assert row["config_protocol"] == from_json["config"]["protocol"]
    assert int(row["config_trials"]) == from_json["config"]["trials"]


def test_json_report_field_names():
    report = run_batch(RunConfig(n=4, trials=10, seed=0))
    data = json.loads(render_report_json(report))
    assert list(data) == [
        "config",
        "detection_rate",
        "abort_rate",
        "key_match_rate",
        "raw_key_complement_rate",
        "mean_check_error_rate",
        "vacuous_check_sessions",
        "wall_time_ms",
    ]


def test_search_renderings_agree():
    config = RunConfig(protocol="original", n=4, trials=20, seed=8)
    results = run_search(config)
    from_json = json.loads(render_search_json(results, config))["results"]
    rows = list(csv.DictReader(io.StringIO(render_search_csv(results))))
    assert len(rows) == len(from_json)
    for row, entry in zip(rows, from_json):
        assert row["quantum"] == entry["quantum"]
        assert float(row["detection_rate"]) == entry["detection_rate"]
        assert float(row["key_corruption_rate"]) == entry["key_corruption_rate"]


# -- walkthrough replay --------------------------------------------------------------


def test_replay_reproduces_every_value(capsys):
    observed = replay_paper_example()
    assert observed == WALKTHROUGH_EXPECTED
    printed = capsys.readouterr().out
    assert "alice_raw_key" in printed
    assert "MISMATCH" not in printed


def test_replay_writes_to_custom_stream():
    buffer = io.StringIO()
    replay_paper_example(stream=buffer)
    assert "raw keys are complementary" in buffer.getvalue()


# -- CLI -----------------------------------------------------------------------------


def test_cli_run_json(capsys):
    rc = main(["run", "--protocol", "original", "--attack", "modification", "--n", "4", "--trials", "20", "--seed", "1"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["detection_rate"] == 0.0
    assert data["raw_key_complement_rate"] == 1.0


def test_cli_run_csv_to_file(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(["run", "--n", "4", "--trials", "10", "--format", "csv", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["key_match_rate"] == "1.0"


def test_cli_run_pa_bits_auto(capsys):
    rc = main(["run", "--n", "4", "--trials", "5", "--pa-bits", "auto"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["config"]["pa_bits"] is None


def test_cli_custom_strategy_file(tmp_path, capsys):
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({"quantum": "intercept_resend_z", "classical": "none"}))
    rc = main(
        ["run", "--attack", "custom", "--strategy-file", str(strategy), "--n", "4", "--trials", "10"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["strategy"]["quantum"] == "intercept_resend_z"


@pytest.mark.parametrize(
    "description, field",
    [({"quantum": "noisy"}, "quantum"), ({"quantum": "gate_all"}, "gate"), (["flip_all"], "custom_strategy")],
)
def test_cli_bad_strategy_file_names_the_field(tmp_path, capsys, description, field):
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps(description))
    rc = main(["run", "--attack", "custom", "--strategy-file", str(strategy), "--n", "4", "--trials", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(f"sqkdlab: error: {field}: ")


@pytest.mark.parametrize("text", ["", "{oops", "quantum: none"])
def test_cli_malformed_strategy_file_names_the_field(tmp_path, capsys, text):
    strategy = tmp_path / "strategy.json"
    strategy.write_text(text)
    rc = main(["run", "--attack", "custom", "--strategy-file", str(strategy), "--n", "4", "--trials", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(f"sqkdlab: error: custom_strategy: {strategy} is not valid JSON (")
    assert captured.err.count("\n") == 1


def test_cli_bad_pa_bits_names_the_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["run", "--pa-bits", "x"])
    assert err.value.code == 1
    message = capsys.readouterr().err.splitlines()[-1]
    assert message == "sqkdlab run: error: argument --pa-bits: must be an integer or 'auto', got 'x'"


def test_cli_search(capsys):
    rc = main(["search", "--protocol", "original", "--n", "4", "--trials", "10", "--seed", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["results"]) == 12


def test_cli_negative_zero_tau_reports_like_zero(capsys):
    # -0.0 == 0.0 and both run the same sessions, so the reports are the
    # same bytes once the wall-clock line is dropped.
    for command in (["run", "--n", "4", "--trials", "10"], ["search", "--n", "2", "--trials", "2"]):
        reports = []
        for tau in ("-0.0", "0"):
            assert main([*command, "--tau", tau]) == 0
            lines = capsys.readouterr().out.splitlines(keepends=True)
            reports.append("".join(line for line in lines if '"wall_time_ms"' not in line))
        assert reports[0] == reports[1]


def test_cli_paper_example(capsys):
    assert main(["paper-example"]) == 0
    assert "walkthrough" in capsys.readouterr().out


def test_cli_usage_error_exits_1():
    with pytest.raises(SystemExit) as err:
        main(["run", "--protocol", "quantum"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["run", "--format", "yaml"])
    assert err.value.code == 1


def test_cli_invalid_config_exits_1(capsys):
    rc = main(["run", "--trials", "0"])
    assert rc == 1
    assert "trials" in capsys.readouterr().err


def test_cli_missing_strategy_file_exits_1(tmp_path, capsys):
    rc = main(["run", "--attack", "custom", "--strategy-file", "/nonexistent.json"])
    assert rc == 1
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith("sqkdlab: error: custom_strategy: cannot read /nonexistent.json (")
    # A file that is not UTF-8 cannot be read either.
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"quantum": "none", "classical": "\xe9"}')
    assert main(["run", "--attack", "custom", "--strategy-file", str(path)]) == 1
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith(f"sqkdlab: error: custom_strategy: cannot read {path} (")


def test_cli_rejects_custom_without_strategy_file(capsys):
    rc = main(["run", "--attack", "custom"])
    assert rc == 1
    assert "custom_strategy" in capsys.readouterr().err


def test_cli_rejects_strategy_file_without_custom_attack(tmp_path, capsys):
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({"quantum": "intercept_resend_z", "classical": "none"}))
    rc = main(["run", "--attack", "modification", "--strategy-file", str(strategy), "--n", "4", "--trials", "2"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "custom_strategy" in captured.err


def test_cli_unwritable_out_path_exits_1_without_a_traceback(tmp_path):
    out = tmp_path / "missing" / "r.json"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = [sys.executable, "-m", "sqkdlab", "run", "--n", "2", "--trials", "2", "--out", str(out)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("sqkdlab: error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv, field",
    [
        (["run", "--n", str(10**9)], "n"),
        (["run", "--protocol", "improved", "--hash-bits", str(10**12)], "hash_bits"),
        (["search", "--n", str(10**9)], "n"),
    ],
)
def test_cli_rejects_oversized_inputs_before_allocating(argv, field, capsys):
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"sqkdlab: error: {field}: must be <= ")
    assert peak < 2**20


@pytest.mark.parametrize("flag, value", [("--n", "2.5"), ("--trials", "true"), ("--hash-bits", "8.5")])
def test_cli_rejects_non_integer_flags(flag, value):
    with pytest.raises(SystemExit) as err:
        main(["run", flag, value])
    assert err.value.code == 1


# -- report invariants over random configs ------------------------------------------

RATE_FIELDS = ("detection_rate", "abort_rate", "key_match_rate", "raw_key_complement_rate", "mean_check_error_rate")


CUSTOM_STRATEGIES = st.fixed_dictionaries(
    {
        "quantum": st.sampled_from(
            ["none", "intercept_resend_z"] + [f"gate_all:{g}" for g in ("i", "x", "y", "z", "h", "spin_flip")]
        ),
        "classical": st.sampled_from(["none", "flip_all"]),
    }
)


@st.composite
def small_configs(draw) -> RunConfig:
    attack = draw(st.sampled_from(["none", "modification", "intercept-resend", "custom"]))
    return RunConfig(
        protocol=draw(st.sampled_from(VARIANTS)),
        attack=attack,
        custom_strategy=draw(CUSTOM_STRATEGIES) if attack == "custom" else None,
        n=draw(st.integers(1, 6)),
        trials=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**64 - 1)),
        tau=draw(st.sampled_from([0.0, 0.25, 0.5, 0.99])),
        hash_bits=draw(st.integers(1, 16)),
        pa_bits=draw(st.none() | st.integers(1, 8)),
        balanced_k2=draw(st.booleans()),
    )


@settings(max_examples=100, deadline=None)
@given(small_configs())
def test_report_invariants_over_random_configs(config):
    report = run_batch(config)
    for name in RATE_FIELDS:
        assert 0.0 <= getattr(report, name) <= 1.0, name
    assert 0 <= report.vacuous_check_sessions <= config.trials

    # Replay the batch's sessions to see what the rates cannot show.
    params, strategy = config.to_params(), config.resolve_strategy()
    outcomes = [run_session(params, strategy, seed=trial_stream((config.seed,), t)) for t in range(config.trials)]
    empty_raw = sum(len(out.alice_raw_key) == 0 for out in outcomes)
    pa_aborts = sum(out.abort_reason == "pa-output-exceeds-raw-key" for out in outcomes)
    matched = round(report.key_match_rate * config.trials)
    complemented = round(report.raw_key_complement_rate * config.trials)
    # Empty raw keys both match and complement; any other session does at most one.
    assert empty_raw <= min(matched, complemented)
    assert matched + complemented <= config.trials + empty_raw
    # Every detection aborts, and every abort but a PA abort is a detection.
    assert report.detection_rate <= report.abort_rate
    assert round(report.detection_rate * config.trials) == round(report.abort_rate * config.trials) - pa_aborts

    assert drop_wall_time(run_batch(config)) == drop_wall_time(report)
