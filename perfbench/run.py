"""koopcert benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run from anywhere; the program under test is the ``src/koopcert`` package of
the checkout this file sits in. Each workload runs in a fresh child process
(worker.py) with no more BLAS threads than cores, so peak RSS and warm caches
do not carry over between workloads.

``--trace 0`` prints the end-to-end metrics: pipeline_s (median pass),
setup_s (median of several cold interpreter starts that import the CLI and
load the workload's config), peak_rss_mb (the worker's own peak) and
heldout_risk. ``--trace 1`` prints the per-layer metrics of a traced pass.
The last stdout line is the JSON result; lines before it are for people.
Exits nonzero without a result when the program is missing or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("example1-lyapunov", "example2-zubov", "fit-sweep")
SETUP_REPEATS = 5
SETUP_CODE = (
    "import sys\n"
    "import koopcert.cli\n"
    "from koopcert.config import load_config\n"
    "load_config(sys.argv[1])\n"
)
# A run must end within 180 s; the cold starts for setup_s follow the worker.
WORKER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 30


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    return env


def measure_setup(config: Path, env: dict[str, str]) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(workload: str, seed: int, seconds: int, trace: int, tiny: bool = False,
                 spans: Path | None = None) -> dict:
    """Run one workload in a fresh worker process and return its result."""
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    env = child_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", str(work)]
    if tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans.resolve())]
    try:
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"error: {workload} worker took longer than {WORKER_TIMEOUT_S} s") from None
        if proc.returncode != 0:
            raise SystemExit(f"error: {workload} worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not trace:
            setup = measure_setup(work / "setup.ini", env)
            result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            result["info"]["samples"]["setup_s"] = len(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return result


def describe(result: dict) -> list[str]:
    info = result["info"]
    samples = info.get("samples", {})
    lines = [f"# workload {info['workload']} seed {info['seed']}",
             f"environment: {json.dumps(info['environment'], sort_keys=True)}",
             f"warm-up pass {info['warmup_s']:.3f} s; passes (s): "
             + ", ".join(f"{t:.3f}" for t in info["pass_s"]),
             f"lyapunov horizon {info['horizon']}, decay-ratio fallbacks "
             f"{info.get('alpha_fallback', '-')}"]
    if info.get("oracle_err") is not None:
        lines.append(f"oracle_err {info['oracle_err']:.6g} (mean |certificate - oracle| inside the domain)")
    failed_frac = result["failed"] / result["attempted"]
    lines.append(f"passes attempted {result['attempted']}, failed {result['failed']}, "
                 f"failed_frac {failed_frac:.3g}")
    for error in info["errors"]:
        lines.append(f"FAILED: {error}")
    if info.get("missing_targets"):
        lines.append(f"functions not found, their metrics read 0: {info['missing_targets']}")
    for name, metric in result["metrics"].items():
        n = samples.get(name)
        count = f"  (n={n})" if n is not None else ""
        lines.append(f"{name:44s} {metric['value']!s:>22} {metric['unit']}{count}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test size: every m / 10, rank 10")
    p.add_argument("--spans", type=Path, help="with --trace 1 and one workload, write the traced "
                   "pass's spans here as JSON lines")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "koopcert" / "cli.py").is_file():
        print(f"error: no koopcert package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.tiny, args.spans)
        print("\n".join(describe(results[name])), flush=True)
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps({k: final[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
