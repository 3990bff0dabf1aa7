"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--trace 0|1]
                                [--first-seed 1] [--seconds S]

Each run is ``perfbench/run.py --workload W --seed s --seconds S --trace T``
in its own process, one after another, with seeds first-seed,
first-seed+1, ...  Spread is (Q3 - Q1) / median over the runs, with the
quartiles of ``statistics.quantiles(values, n=4)``; with --trace 0 it is
compared with a third of the metric's bound in BENCHMARK.json.  Every raw
result, with its environment stamp, is saved under perfbench/out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 900


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {
        "workload": workload,
        "seed": seed,
        "exit_code": proc.returncode,
        "wall_s": time.perf_counter() - started,
        "env": env,
        "log": [line for line in lines[:-1] if not line.startswith("env ")],
        "result": result,
        "stderr": proc.stderr[-2000:],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["per_layer" if args.trace else "end_to_end"]}

    runs = []
    ok = True
    for workload in args.workload or names:
        mine = [run_once(workload, args.first_seed + i, args.seconds, args.trace) for i in range(args.runs)]
        runs += mine
        good = [r["result"] for r in mine if r["result"] is not None]
        bad = [r for r in mine if r["result"] is None or not r["result"]["correct"]]
        ok = ok and not bad
        walls = [r["wall_s"] for r in mine]
        print(f"{workload}: {len(good)}/{len(mine)} runs gave a result, {len(bad)} failed or incorrect; "
              f"wall {min(walls):.1f}-{max(walls):.1f} s per run")
        for r in bad:
            print(f"  seed {r['seed']}: exit {r['exit_code']} {r['stderr'][-300:]}")
        if len(good) < 2:
            continue
        for name, bound in bounds.items():
            values = [g["metrics"][name]["value"] for g in good]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            verdict = ""
            if bound is not None:
                verdict = "ok" if spread < bound / 3 else "WIDE"
                verdict = f"bound/3 {bound / 3:.3f} {verdict}"
            unit = good[0]["metrics"][name]["unit"]
            print(f"  {name:36} median {median:12.6g} {unit:14} Q1 {q1:12.6g} Q3 {q3:12.6g} "
                  f"spread {spread:7.4f} {verdict}")

    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spread-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"raw results: {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
