"""The benchmark's tracer must find every span it reads, each under one name,
and count a traced batch's and sweep's sessions."""

import importlib.util
import math
from pathlib import Path

from sqkdlab import harness  # imports every layer the tracer looks in

TRACER_PATH = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_are_unique_and_include_the_session_and_pa_spans():
    tracer = load_tracer()
    names = [name for name, _, _ in tracer.find_targets()]
    assert len(names) == len(set(names))
    # pa_sessions() looks the privacy-amplification span up by name, and
    # the session span counts the sessions.
    assert {"hashing.privacy_amplify", "protocol.run_session"} <= set(names)
    assert {tracer.PA_SPAN, tracer.SESSION_SPAN} <= set(names)


def test_a_traced_batch_and_sweep_count_their_sessions_and_every_layer_metric():
    # The traced benchmark path: the tracer counts sessions by run_session
    # calls, so count_sessions must call it once per trial, and every
    # per-layer metric must come out finite from what it recorded.
    tracer = load_tracer()
    targets = tracer.find_targets()
    calls = (
        (harness.run_batch, harness.RunConfig(protocol="original", attack="modification", n=8, trials=7), 7),
        (harness.run_search, harness.RunConfig(protocol="original", n=2, trials=3), 3 * 12),
    )
    for entry, config, sessions in calls:
        traced = tracer.Tracer(targets)
        with traced.active():
            entry(config)
        assert traced.sessions == sessions
        values = tracer.layer_metrics([traced], [2.0], [1.0])
        assert set(values) == {name for name, _, _, _ in tracer.PER_LAYER}
        assert all(math.isfinite(value) for value in values.values())
