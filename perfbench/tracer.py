"""Per-layer spans recorded from outside the program.

``Tracer.active()`` replaces every public function of the six layer
modules, and every public method of their classes, by a wrapper that
records one span per call.  A function is replaced in every sqkdlab
namespace that binds it, because callers look names up there
(``protocol.toeplitz_hash``, ``harness.run_session``,
``adversary.run_session`` ...).  Leaving the block restores the originals.

A span is (name, start, end, parent span, trial index).  Spans stay in
memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are sequential on one thread, so
children never overlap.
"""

import functools
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("bits", "qsim", "hashing", "protocol", "adversary", "harness")

SESSION_SPAN = "protocol.run_session"
PA_SPAN = "hashing.privacy_amplify"
CHECK_SPANS = ("protocol.exchange_and_check_original", "protocol.exchange_and_check_improved")

E2E_HONEST = "trials_per_s, session_us_p50 on honest-improved-n32"
E2E_N256 = "trials_per_s on modification-original-n256"
E2E_SESSION = "session_us_p50 on all three workloads"
E2E_SEARCH = "trials_per_s on search-original-n16"

# Per-layer metrics: name, unit, kind, and the end-to-end metric and
# workload each is expected to move.  "counted" values are exact call
# counts and "computed" values are derived from argument and result
# shapes; both come from the first traced call, so they repeat exactly for
# a seed.  "timed" values average over every traced call.
PER_LAYER = (
    ("bits.as_bits.calls", "calls/session", "counted", E2E_HONEST),
    ("bits.as_bits.self_us", "us/session", "timed", E2E_HONEST),
    ("bits.random_bits.self_us", "us/session", "timed", E2E_HONEST),
    ("qsim.apply_gate_batch.calls", "calls/session", "counted", E2E_N256),
    ("qsim.apply_gate_batch.self_us", "us/session", "timed", E2E_N256),
    ("qsim.measure_z_batch.self_us", "us/session", "timed", E2E_N256),
    ("qsim.bell_batch.self_us", "us/session", "timed", E2E_N256),
    ("qsim.state_bytes", "B", "computed", "peak_rss_mb on modification-original-n256"),
    ("hashing.derive_hash_spec.self_us", "us/session", "timed", E2E_HONEST),
    ("hashing.expand_key_bits.self_us", "us/session", "timed", E2E_HONEST),
    ("hashing.sha256_blocks", "blocks/session", "computed", E2E_HONEST),
    ("hashing.toeplitz_matrix.self_us", "us/session", "timed", E2E_HONEST),
    ("hashing.toeplitz_hash.calls", "calls/session", "counted", E2E_HONEST),
    ("hashing.toeplitz_hash.self_us", "us/session", "timed", E2E_HONEST),
    ("hashing.toeplitz_bytes", "B/session", "computed", E2E_HONEST),
    ("hashing.privacy_amplify.calls", "calls/session", "counted", E2E_N256),
    ("hashing.privacy_amplify.us", "us/session", "timed", E2E_N256),
    ("protocol.run_session.self_us", "us/session", "timed", E2E_SESSION),
    ("protocol.generate_master_keys.us", "us/session", "timed", E2E_SESSION),
    ("protocol.alice_prepare.us", "us/session", "timed", E2E_SESSION),
    ("protocol.bob_receive_measure.us", "us/session", "timed", E2E_SESSION),
    ("protocol.alice_measure.us", "us/session", "timed", E2E_SESSION),
    ("protocol.partition_measurements.us", "us/session", "timed", E2E_SESSION),
    ("protocol.check.us", "us/session", "timed", E2E_SESSION),
    ("protocol.pa_reached_ratio", "ratio", "counted", E2E_SESSION),
    ("adversary.tap_quantum_batch.us", "us/session", "timed", E2E_SEARCH),
    ("adversary.tap_classical.us", "us/session", "timed", E2E_SEARCH),
    ("adversary.search_attacks.self_us", "us/session", "timed", E2E_SEARCH),
    ("harness.run_batch.self_us", "us/session", "timed", "trials_per_s on both run_batch workloads"),
    ("trace.overhead_trials_per_s", "1/s", "timed", "untraced minus traced trials_per_s, same calls"),
    ("trace.overhead_pct", "%", "timed", "trace.overhead_trials_per_s over untraced trials_per_s"),
)


def find_targets():
    """``(span name, original, [(namespace, attribute), ...])`` for every traced callable.

    Call before any tracer is active, so the originals are found.
    """
    namespaces = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "sqkdlab"]
    targets = []
    for layer in LAYERS:
        module = sys.modules[f"sqkdlab.{layer}"]
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                bound = [(ns, name) for ns in namespaces for name, v in vars(ns).items() if v is value]
                targets.append((f"{layer}.{attr}", value, bound))
            elif inspect.isclass(value):
                for method, fn in vars(value).items():
                    if not method.startswith("_") and inspect.isfunction(fn):
                        targets.append((f"{layer}.{method}", fn, [(value, method)]))
    names = [name for name, _, _ in targets]
    if len(set(names)) != len(names):
        raise RuntimeError("two traced callables share a span name")
    return targets


def _add_sha256_blocks(tracer, args, kwargs, result):
    # expand_key_bits hashes one SHA-256 block per 256 output bits.
    tracer.sha256_blocks += (result.size + 255) // 256


def _add_toeplitz_bytes(tracer, args, kwargs, result):
    # toeplitz_hash materializes an out_len x in_len int64 matrix.
    spec = args[0] if args else kwargs["spec"]
    tracer.toeplitz_bytes += spec.out_len * spec.in_len * 8


def _note_state_bytes(tracer, args, kwargs, result):
    states = result[1] if isinstance(result, tuple) else result
    tracer.state_bytes = max(tracer.state_bytes, states.nbytes)


_MEASURES = {
    "hashing.expand_key_bits": _add_sha256_blocks,
    "hashing.toeplitz_hash": _add_toeplitz_bytes,
    "qsim.bell_batch": _note_state_bytes,
    "qsim.apply_gate_batch": _note_state_bytes,
    "qsim.measure_z_batch": _note_state_bytes,
}


class Tracer:
    """Spans and work counts of one traced call.

    While ``active()`` runs, spans accumulate in lists; afterwards
    ``spans`` holds them as arrays, one entry per span.
    """

    def __init__(self, targets):
        self.targets = targets
        self.names = [name for name, _, _ in targets]
        self.spans = None
        self.sessions = 0
        self.sha256_blocks = 0
        self.toeplitz_bytes = 0
        self.state_bytes = 0
        self._columns = {"code": [], "parent": [], "trial": [], "start_ns": [], "end_ns": []}
        self._stack = [-1]
        self._trial = -1

    def _wrap(self, code, name, fn):
        measure = _MEASURES.get(name)
        is_session = name == SESSION_SPAN
        columns = self._columns
        codes, parents, trials = columns["code"], columns["parent"], columns["trial"]
        starts, ends = columns["start_ns"], columns["end_ns"]
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_session:
                self._trial = self.sessions
                self.sessions += 1
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            trials.append(self._trial)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                if is_session:
                    self._trial = -1
            if measure is not None:
                measure(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Trace every target inside the block; the originals are back afterwards."""
        replaced = []
        try:
            for code, (name, fn, bound) in enumerate(self.targets):
                wrapper = self._wrap(code, name, fn)
                for namespace, attr in bound:
                    setattr(namespace, attr, wrapper)
                    replaced.append((namespace, attr, fn))
            yield self
        finally:
            for namespace, attr, fn in reversed(replaced):
                setattr(namespace, attr, fn)
            self.spans = {
                key: np.asarray(values, dtype=np.int64 if key.endswith("_ns") else np.int32)
                for key, values in self._columns.items()
            }
            self._columns = None

    def totals(self) -> dict:
        """Per span name: (calls, inclusive ns, self ns), for names called at least once."""
        code, parent = self.spans["code"], self.spans["parent"]
        duration = (self.spans["end_ns"] - self.spans["start_ns"]).astype(np.float64)
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=duration[nested], minlength=len(code))
        size = len(self.names)
        calls = np.bincount(code, minlength=size)
        inclusive = np.bincount(code, weights=duration, minlength=size)
        own = np.bincount(code, weights=duration - children, minlength=size)
        return {
            name: (int(calls[i]), float(inclusive[i]), float(own[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def pa_sessions(self) -> int:
        """Sessions that reached privacy amplification."""
        reached = self.spans["code"] == self.names.index(PA_SPAN)
        return np.unique(self.spans["trial"][reached]).size


def layer_metrics(tracers, untraced_rates, traced_rates) -> dict:
    """Every PER_LAYER metric from the traced calls, as name -> value."""
    first = tracers[0]
    first_totals = first.totals()
    sessions = sum(t.sessions for t in tracers)
    timed = {}
    for tracer in tracers:
        for name, (_, inclusive, own) in tracer.totals().items():
            previous = timed.get(name, (0.0, 0.0))
            timed[name] = (previous[0] + inclusive, previous[1] + own)

    def per_session_us(name, stat):
        inclusive, own = timed.get(name, (0.0, 0.0))
        return (inclusive if stat == "us" else own) / sessions / 1000

    untraced = float(np.median(untraced_rates))
    overhead = untraced - float(np.median(traced_rates))
    special = {
        "qsim.state_bytes": float(first.state_bytes),
        "hashing.sha256_blocks": first.sha256_blocks / first.sessions,
        "hashing.toeplitz_bytes": first.toeplitz_bytes / first.sessions,
        "protocol.check.us": sum(per_session_us(name, "us") for name in CHECK_SPANS),
        "protocol.pa_reached_ratio": first.pa_sessions() / first.sessions,
        "trace.overhead_trials_per_s": overhead,
        "trace.overhead_pct": 100 * overhead / untraced,
    }
    values = {}
    for name, _, _, _ in PER_LAYER:
        if name in special:
            values[name] = special[name]
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "calls":
            values[name] = first_totals.get(span, (0, 0.0, 0.0))[0] / first.sessions
        else:
            values[name] = per_session_us(span, stat)
    return values


def write_spans(tracers, path) -> None:
    """Save every traced call's spans to one .npz file (column ``call`` tells calls apart)."""
    merged = {key: np.concatenate([t.spans[key] for t in tracers]) for key in tracers[0].spans}
    merged["call"] = np.concatenate(
        [np.full(len(t.spans["code"]), i, dtype=np.int32) for i, t in enumerate(tracers)]
    )
    np.savez(path, names=np.array(tracers[0].names), **merged)
