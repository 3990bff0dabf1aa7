"""Harness tests: config validation, aggregation, rendering, CLI, replay."""

import csv
import io
import json

import numpy as np
import pytest

from sqkdlab.cli import main
from sqkdlab.harness import (
    WALKTHROUGH_EXPECTED,
    AggregateReport,
    ReplayMismatch,
    RunConfig,
    render_report_csv,
    render_report_json,
    render_search_csv,
    render_search_json,
    replay_paper_example,
    run_batch,
    run_search,
    trial_seed,
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
        ({"output_format": "yaml"}, "output_format"),
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
    ],
)
def test_config_validation_names_the_field(overrides, field):
    config = RunConfig(**overrides)
    with pytest.raises(ValueError, match=f"^{field}:"):
        config.validate()


def test_config_accepts_integral_tau():
    RunConfig(tau=0).validate()


def test_trial_seed_derivation_is_stable():
    a = np.random.default_rng(trial_seed(7, 3)).integers(0, 2**32)
    b = np.random.default_rng(trial_seed(7, 3)).integers(0, 2**32)
    c = np.random.default_rng(trial_seed(7, 4)).integers(0, 2**32)
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
    rows = list(csv.DictReader(io.StringIO(render_search_csv(results, config))))
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


def test_cli_search(capsys):
    rc = main(["search", "--protocol", "original", "--n", "4", "--trials", "10", "--seed", "2"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["results"]) == 12


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


def test_cli_invalid_config_exits_1(capsys):
    rc = main(["run", "--trials", "0"])
    assert rc == 1
    assert "trials" in capsys.readouterr().err


def test_cli_missing_strategy_file_exits_1(capsys):
    rc = main(["run", "--attack", "custom", "--strategy-file", "/nonexistent.json"])
    assert rc == 1
    assert capsys.readouterr().err != ""


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


@pytest.mark.parametrize("flag, value", [("--n", "2.5"), ("--trials", "true"), ("--hash-bits", "8.5")])
def test_cli_rejects_non_integer_flags(flag, value):
    with pytest.raises(SystemExit) as err:
        main(["run", flag, value])
    assert err.value.code == 1
