"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads example2-zubov --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/BENCH_baseline.json

Runs ``run.py --trace 0`` once per (workload, seed), one after another, with
the ``run_seconds`` of BENCHMARK.json. For each metric it prints the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and their distance
as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} seed {seed} failed its output checks")
    env = next(json.loads(line.split(":", 1)[1]) for line in lines if line.startswith("environment:"))
    return {name: m["value"] for name, m in result["metrics"].items()}, env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--out", help="write the values and their spread here as JSON")
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report, env = {}, {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            values, env = run_once(workload, seed)
            runs.append(values)
            print(f"{workload} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                  flush=True)
        report[workload] = {}
        for name in runs[0]:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            report[workload][name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds.get(name)}", flush=True)
    if args.out:
        out = {"environment": env, "run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": report}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
