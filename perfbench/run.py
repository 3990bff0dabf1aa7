"""sqkdlab benchmark: one workload per process, on one thread, inputs from --seed.

    python3 perfbench/run.py --workload honest-improved-n32 --seed 1 --seconds 36 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped: set-up
time in fresh interpreters, sessions per second over timed run_batch /
run_search calls, latency of single run_session calls, and the peak
resident memory of this process; rates and times are scaled to a
reference machine speed timed alongside (calibration.py).  --trace 1 runs
the same timed calls in pairs, one bare and one traced (tracer.py), checks
that both give the same report, and prints the per-layer metrics and the
tracing overhead.

Every call's result is checked against the paper invariants
(workloads.py); a call that raises or fails its check counts in "failed".
The lines before the last give the environment stamp and each metric with
how it was obtained; the last line is the JSON result.
"""

import os

# Set before numpy is first imported, here or in the set-up probes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

if not (SRC / "sqkdlab" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC} holds no sqkdlab sources; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from sqkdlab import harness, protocol  # noqa: E402
from tracer import PER_LAYER, Tracer, find_targets, layer_metrics, write_spans  # noqa: E402
from workloads import (  # noqa: E402
    PINNED_SEED,
    WORKLOADS,
    check_call,
    check_session,
    comparable,
    rates_digest,
    run_config,
    session_plan,
    sessions_in,
)

END_TO_END = (
    ("trials_per_s", "1/s"),
    ("session_us_p50", "us"),
    ("session_us_p90", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Shares of the measuring time in an untraced run.  Batch calls, single
# sessions and the calibration kernel alternate for the whole run, and the
# set-up probes are spread over it, so every metric sees the same drift in
# machine speed.
SHARES = {"batch": 0.57, "session": 0.38, "kernel": 0.05}
NEAR_KERNELS = 3
MIN_CALLS = 3
MIN_TRACE_PAIRS = 2
MIN_SESSIONS = 200
WARMUP_SESSIONS = 24
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60

# Seed streams: each kind of call draws its seeds from its own stream.
BATCH_STREAM, SESSION_STREAM, SETUP_STREAM = 0, 1, 2


def call_seed(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence((seed, stream, index)).generate_state(1, np.uint64)[0])


class Tally:
    """Calls attempted and failed; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {what}: {problem}", file=sys.stderr)


def timed_call(workload, seed: int, tally: Tally):
    """One timed run_batch / run_search call; returns (result or None, seconds)."""
    config = run_config(workload, seed)
    entry = getattr(harness, workload.entry)  # looked up per call, so a tracer's wrapper is used
    started = time.perf_counter()
    try:
        result = entry(config)
    except Exception:
        tally.record(f"{workload.entry} seed {seed}", traceback.format_exc(limit=4))
        return None, time.perf_counter() - started
    elapsed = time.perf_counter() - started
    tally.record(f"{workload.entry} seed {seed}", check_call(workload, result))
    return result, elapsed


def warm_up_and_pin(workload, tally: Tally) -> None:
    """Untimed first call at PINNED_SEED; its rates must match the pinned digest."""
    result, _ = timed_call(workload, PINNED_SEED, tally)
    if workload.pinned_digest is not None and result is not None:
        digest = rates_digest(result)
        problem = None if digest == workload.pinned_digest else f"got {digest}, pinned {workload.pinned_digest}"
        tally.record(f"rates digest at seed {PINNED_SEED}", problem)


def setup_time(workload, seed: int, index: int, tally: Tally) -> float | None:
    """Seconds a fresh interpreter needs to import sqkdlab and finish one single-trial call."""
    config = {**workload.config, "trials": 1, "seed": call_seed(seed, SETUP_STREAM, index)}
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.entry, json.dumps(config)]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        tally.record("set-up probe", f"no result within {PROBE_TIMEOUT_S} s")
        return None
    if proc.returncode != 0:
        tally.record("set-up probe", proc.stderr.strip()[-800:])
        return None
    tally.record("set-up probe", None)
    return float(proc.stdout.split()[-1])


def session_latency_us(workload, plan, seed: int, index: int, tally: Tally) -> float | None:
    """Latency of one run_session call, or None when it raised or broke the invariant.

    Samples rotate through the workload's strategies.
    """
    params, strategies = plan
    strategy = strategies[index % len(strategies)]
    session_seed = np.random.SeedSequence((seed, SESSION_STREAM, index))
    what = f"run_session seed ({seed}, {SESSION_STREAM}, {index})"
    begin = time.perf_counter_ns()
    try:
        outcome = protocol.run_session(params, strategy, seed=session_seed)
    except Exception:
        tally.record(what, traceback.format_exc(limit=4))
        return None
    latency_us = (time.perf_counter_ns() - begin) / 1000
    problem = check_session(workload, strategy, outcome)
    tally.record(what, problem)
    return None if problem else latency_us


def untraced_run(workload, args, tally: Tally):
    """End-to-end metrics as name -> (value, how it was obtained).

    Rates and times are scaled to the reference machine speed, measured
    where they were taken: speed is REFERENCE_S / the median seconds of
    nearby calibration kernels.  A session's latency is multiplied by the
    speed of the NEAR_KERNELS kernels timed just before it and just after
    it; a call's rate is divided by the speed of all kernels timed between
    the calls before and after it; set-up time is multiplied by the speed
    of the whole run.
    """
    warm_up_and_pin(workload, tally)
    calibration.kernel()
    plan = session_plan(workload)
    kernel_s = []
    call_marks = []  # kernels timed before each call
    rates = []  # (sessions per second, index of the call)
    latencies = []  # (microseconds, kernels timed before the session)
    setups = []
    spent = dict.fromkeys(SHARES, 0.0)
    calls = sessions = probes = 0
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if probes < SETUP_REPEATS and elapsed >= probes * args.seconds / SETUP_REPEATS:
            setups.append(setup_time(workload, args.seed, probes, tally))
            probes += 1
            continue
        if elapsed >= args.seconds and calls >= MIN_CALLS and sessions >= WARMUP_SESSIONS + MIN_SESSIONS:
            break
        activity = min(SHARES, key=lambda name: spent[name] / SHARES[name])
        begin = time.perf_counter()
        if activity == "batch":
            result, call_s = timed_call(workload, call_seed(args.seed, BATCH_STREAM, calls), tally)
            call_marks.append(len(kernel_s))
            if result is not None:
                rates.append((sessions_in(result) / call_s, calls))
            calls += 1
        elif activity == "session":
            latency = session_latency_us(workload, plan, args.seed, sessions, tally)
            if latency is not None and sessions >= WARMUP_SESSIONS:
                latencies.append((latency, len(kernel_s)))
            sessions += 1
        else:
            kernel_s.append(calibration.timed_kernel())
        spent[activity] += time.perf_counter() - begin

    run_speed = calibration.REFERENCE_S / statistics.median(kernel_s)

    def speed(kernels):
        return calibration.REFERENCE_S / statistics.median(kernels) if kernels else run_speed

    marks = [0, *call_marks, len(kernel_s)]
    print(f"machine speed {run_speed:.4f} over the run ({len(kernel_s)} calibration kernels)")
    measured_rates = [rate for rate, _ in rates]
    measured_latencies = [latency for latency, _ in latencies]
    scaled_rates = [rate / speed(kernel_s[marks[call] : marks[call + 2]]) for rate, call in rates]
    scaled_latencies = [
        latency * speed(kernel_s[max(0, before - NEAR_KERNELS) : before + NEAR_KERNELS])
        for latency, before in latencies
    ]
    setups = [s for s in setups if s is not None]
    setup = statistics.median(setups) if setups else 0.0

    def p50(values):
        return statistics.median(values) if values else 0.0

    def p90(values):
        return statistics.quantiles(values, n=10)[8] if len(values) > 1 else 0.0

    sessions_note = f"{len(latencies)} sessions"
    return {
        "trials_per_s": (p50(scaled_rates), f"measured {p50(measured_rates):.6g}, median of {len(rates)} calls"),
        "session_us_p50": (p50(scaled_latencies), f"measured {p50(measured_latencies):.6g}, {sessions_note}"),
        "session_us_p90": (p90(scaled_latencies), f"measured {p90(measured_latencies):.6g}, {sessions_note}"),
        "setup_s": (setup * run_speed, f"measured {setup:.6g}, median of {len(setups)} interpreters"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "ru_maxrss"),
    }


def traced_run(workload, args, tally: Tally):
    """Per-layer metrics as name -> (value, how it was obtained); spans go to perfbench/out/."""
    warm_up_and_pin(workload, tally)
    targets = find_targets()
    untraced_rates, traced_rates, tracers = [], [], []
    started = time.perf_counter()
    index = 0
    while index < MIN_TRACE_PAIRS or time.perf_counter() - started < args.seconds:
        seed = call_seed(args.seed, BATCH_STREAM, index)
        results = {}
        # Alternate which side runs first, so drift in machine speed
        # does not land on one side.
        for traced in (False, True) if index % 2 == 0 else (True, False):
            if traced:
                tracer = Tracer(targets)
                with tracer.active():
                    result, elapsed = timed_call(workload, seed, tally)
            else:
                result, elapsed = timed_call(workload, seed, tally)
            results[traced] = result
            if result is not None:
                (traced_rates if traced else untraced_rates).append(sessions_in(result) / elapsed)
                if traced:
                    tracers.append(tracer)
        if results[False] is not None and results[True] is not None:
            same = comparable(results[False]) == comparable(results[True])
            tally.record(f"traced report at seed {seed}", None if same else "differs from the untraced report")
        index += 1
    if not tracers or not untraced_rates:
        return {name: (0.0, "no traced call succeeded") for name, _, _, _ in PER_LAYER}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.npz"
    write_spans(tracers, spans_path)
    count = sum(len(t.spans["code"]) for t in tracers)
    print(f"spans {spans_path.relative_to(ROOT)} ({count} spans, {len(tracers)} calls)")
    values = layer_metrics(tracers, untraced_rates, traced_rates)
    return {name: (values[name], f"{kind}; moves {moves}") for name, _, kind, moves in PER_LAYER}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sqkdlab").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
        timeout=30,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    """(name, unit) of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    ours = [(name, unit) for name, unit, *_ in PER_LAYER] if args.trace else list(END_TO_END)
    if ours != declared_metrics(args.trace):
        sys.exit("perfbench: BENCHMARK.json and perfbench disagree on the metric names or units")
    units = dict(ours)

    print("env " + json.dumps(environment(args)))
    workload = WORKLOADS[args.workload]
    tally = Tally()
    measured = traced_run(workload, args, tally) if args.trace else untraced_run(workload, args, tally)
    for name, (value, how) in measured.items():
        print(f"metric {name} = {value:.6g} {units[name]} ({how})")
    print(f"metric failure_rate = {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed}/{tally.attempted} calls)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in measured.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
