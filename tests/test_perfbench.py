"""The benchmark's tracer must find every span it reads, each under one name."""

import importlib.util
from pathlib import Path

import sqkdlab  # noqa: F401  (imports every layer the tracer looks in)

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
