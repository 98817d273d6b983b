"""Fast self-test of the benchmark harness at self-test size (every m / 10, rank 10).

    python3 perfbench/selftest.py

It checks that:
- a traced run puts back every function it wrapped, in every koopcert module,
  and writes spans that nest inside their parents;
- the traced run emits exactly the per-layer metrics of BENCHMARK.json with
  their units on every workload, and passes its own output checks;
- run.py emits exactly the end-to-end metrics with their units;
- run.py exits nonzero without a result where the program is missing.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
    if not ok:
        failures.append(message)


def bindings() -> dict:
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "koopcert" or name.startswith("koopcert.")
            for attr, value in vars(mod).items() if callable(value)}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def check_traced(work: Path) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in worker.WORKLOADS:
        before = bindings()
        spans_path = work / f"{name}.spans.jsonl"
        result = worker.run(name, seed=3, seconds=0, traced=True, work=work / name, tiny=True,
                            spans_path=spans_path)
        after = bindings()
        changed = sorted(".".join(key) for key, value in before.items() if after.get(key) is not value)
        check(not changed, f"{name}: traced run restored every wrapped function {changed or ''}")
        check(result["correct"], f"{name}: traced pass matches the untraced pass ({result['info']['errors']})")
        check(units(result["metrics"]) == expected, f"{name}: every per-layer metric emitted with its unit")
        top = result["metrics"]["trace.pass_s"]["value"] - result["metrics"]["trace.uncovered_s"]["value"]
        check(top > 0, f"{name}: top-level spans cover part of the traced pass")
        spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
        nested = all(s["parent"] is None or (spans[s["parent"]]["start"] <= s["start"] <= s["end"]
                                             <= spans[s["parent"]]["end"]) for s in spans)
        check(bool(spans) and nested, f"{name}: {len(spans)} spans written, each inside its parent")


def check_untraced() -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
           "--seconds", "1", "--trace", "0", "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    check(proc.returncode == 0, "run.py --trace 0 exits 0")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"], "result has exactly the contract keys")
    check(result["correct"] and result["failed"] == 0, "untraced passes pass their output checks")
    expected = {f"{w}.{m['name']}": m["unit"] for w in worker.WORKLOADS for m in SPEC["end_to_end"]}
    check(units(result["metrics"]) == expected, "every end-to-end metric emitted with its unit")
    check(all(m["value"] > 0 for m in result["metrics"].values()), "no end-to-end metric reads 0")


def check_missing_program(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "fit-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=170)
    check(proc.returncode != 0 and "{" not in proc.stdout, "without the program run.py fails and prints no result")


def main() -> int:
    work = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    try:
        check_traced(work)
        check_untraced()
        check_missing_program(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("self-test " + ("failed: " + "; ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
