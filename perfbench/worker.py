"""One benchmark run of one workload, in a fresh interpreter.

run.py starts this file with PYTHONPATH pointing at the checkout's ``src``
and ``--work`` naming a scratch directory inside the checkout. A pass runs
the workload's koopcert CLI calls in-process, one after another; the loop is
closed, so the next pass starts when the previous one ends. Every pass uses
the run's seed, so every pass must write byte-identical artifacts.

Untraced (``--trace 0``): a warm-up pass, then passes until ``--seconds``
have elapsed. Traced (``--trace 1``): a warm-up pass, one untraced pass and
one traced pass, whose artifacts must match the untraced ones byte for byte.
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import koopcert.cli as cli
from koopcert.config import EXAMPLE1_CONFIG, EXAMPLE2_CONFIG, load_config
from tracer import Tracer, self_times

WORKLOADS = ("example1-lyapunov", "example2-zubov", "fit-sweep")
SWEEP_SIZES = (500, 1000, 2000)
SWEEP_LEGS = tuple(f"m{m}" for m in SWEEP_SIZES)

EXAMPLE_FILES = {
    "example1": {"config.ini", "dataset.csv", "dataset.csv.meta", "model.txt", "report.txt",
                 "lyapunov_grid.csv", "lyapunov_oracle_grid.csv", "observables.csv"},
    "example2": {"config.ini", "dataset.csv", "dataset.csv.meta", "model.txt", "report.txt",
                 "zubov_grid.csv", "zubov_oracle_grid.csv", "doa.txt"},
}
SWEEP_FILES = {"dataset.csv", "dataset.csv.meta", "model.txt", "report.txt"}


def _gram_attrs(args, kwargs, result):
    # Computed from shapes: the (m, n, dim) difference array that Gram
    # assembly broadcasts, in MB, and the entries of the result.
    dim = np.shape(args[1])[-1] if len(args) > 1 else np.shape(kwargs["A"])[-1]
    return {"entries": result.size, "temp_mb": result.size * dim * 8 / 1e6}


def _lyapunov_attrs(args, kwargs, result):
    fallback = getattr(result, "alpha_source", "op_norm") != "op_norm"
    return {"horizon": getattr(result, "horizon", 0), "alpha_fallback": int(fallback)}


LYAPUNOV_TARGET = {("koopcert.certificates", "build_lyapunov"): ("certificates.build_lyapunov", _lyapunov_attrs)}

# (defining module, public function) -> (span name, attribute hook).
TARGETS = {
    ("koopcert.cli", "cmd_sample"): ("cli.sample", None),
    ("koopcert.cli", "cmd_fit"): ("cli.fit", None),
    ("koopcert.cli", "cmd_report"): ("cli.report", None),
    ("koopcert.cli", "cmd_reproduce"): ("cli.reproduce", None),
    ("koopcert.config", "load_config"): ("config.load_config", None),
    ("koopcert.dynsys", "make_dataset"): ("dynsys.make_dataset", None),
    ("koopcert.dynsys", "oracle_lyapunov_batch"): ("dynsys.oracle", None),
    ("koopcert.dynsys", "oracle_zubov_batch"): ("dynsys.oracle", None),
    ("koopcert.dynsys", "step"): ("dynsys.step", None),
    ("koopcert.kernels", "gram"): ("kernels.gram", _gram_attrs),
    ("koopcert.eigsolve", "generalized_eig_topr"): ("eigsolve.pencil", None),
    ("koopcert.eigsolve", "symmetric_eig"): ("eigsolve.symmetric_eig", None),
    ("koopcert.estimator", "fit_koopman"): ("estimator.fit", None),
    ("koopcert.estimator", "fit_zubov_koopman"): ("estimator.fit", None),
    ("koopcert.estimator", "predict_observable"): ("estimator.predict_observable", None),
    ("koopcert.estimator", "heldout_risk"): ("estimator.heldout_risk", None),
    **LYAPUNOV_TARGET,
    ("koopcert.certificates", "lyapunov_values"): ("certificates.lyapunov_values", None),
    ("koopcert.certificates", "zubov_values"): ("certificates.zubov_values", None),
    ("koopcert.certificates", "estimate_mu_table"): ("certificates.mu_table", None),
    ("koopcert.certificates", "accumulated_costs"): ("certificates.accumulated_costs", None),
    ("koopcert.certificates", "bound_report"): ("certificates.bound_report", None),
    ("koopcert.io", "write_model"): ("io.write_model", None),
    ("koopcert.io", "read_model"): ("io.read_model", None),
    ("koopcert.io", "write_grid"): ("io.write_grid", None),
}

# metric -> (unit, span name, reduction). Times are inclusive unless the
# reduction is "self"; mu_table_s includes the accumulated_costs calls it makes.
SPAN_METRICS = {
    "dynsys.make_dataset_s": ("s", "dynsys.make_dataset", "total"),
    "dynsys.oracle_s": ("s", "dynsys.oracle", "total"),
    "dynsys.step_calls": ("count", "dynsys.step", "calls"),
    "kernels.gram_s": ("s", "kernels.gram", "total"),
    "kernels.gram_calls": ("count", "kernels.gram", "calls"),
    "kernels.gram_entries": ("count-computed", "kernels.gram", "sum:entries"),
    "kernels.gram_temp_mb": ("MB-computed", "kernels.gram", "max:temp_mb"),
    "eigsolve.pencil_s": ("s", "eigsolve.pencil", "total"),
    "eigsolve.symmetric_eig_s": ("s", "eigsolve.symmetric_eig", "total"),
    "eigsolve.symmetric_eig_calls": ("count", "eigsolve.symmetric_eig", "calls"),
    "estimator.fit_s": ("s", "estimator.fit", "total"),
    "estimator.fit_self_s": ("s", "estimator.fit", "self"),
    "estimator.predict_observable_s": ("s", "estimator.predict_observable", "total"),
    "estimator.predict_observable_calls": ("count", "estimator.predict_observable", "calls"),
    "estimator.heldout_risk_s": ("s", "estimator.heldout_risk", "total"),
    "certificates.lyapunov_values_self_s": ("s", "certificates.lyapunov_values", "self"),
    "certificates.horizon": ("steps", "certificates.build_lyapunov", "max:horizon"),
    "certificates.alpha_fallback": ("count", "certificates.build_lyapunov", "sum:alpha_fallback"),
    "certificates.zubov_values_s": ("s", "certificates.zubov_values", "total"),
    "certificates.mu_table_s": ("s", "certificates.mu_table", "total"),
    "certificates.accumulated_costs_s": ("s", "certificates.accumulated_costs", "total"),
    "certificates.bound_report_s": ("s", "certificates.bound_report", "total"),
    "io.write_model_s": ("s", "io.write_model", "total"),
    "io.read_model_self_s": ("s", "io.read_model", "self"),
    "io.write_grid_s": ("s", "io.write_grid", "total"),
    "config.load_config_s": ("s", "config.load_config", "total"),
    "cli.sample_s": ("s", "cli.sample", "total"),
    "cli.fit_s": ("s", "cli.fit", "total"),
    "cli.report_s": ("s", "cli.report", "total"),
    "cli.reproduce_s": ("s", "cli.reproduce", "total"),
}
# Metrics read from the traced pass's artifacts and wall clock.
PASS_METRICS = {
    "io.model_bytes": "bytes",
    "io.bytes_written": "bytes",
    "certificates.oracle_err": "1",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}
# Metrics that fit-sweep also reports per sample size, as "<name>.m500" etc.;
# on the example workloads these read zero.
LEG_METRICS = (
    "dynsys.make_dataset_s", "dynsys.step_calls", "kernels.gram_s", "kernels.gram_calls",
    "kernels.gram_entries", "kernels.gram_temp_mb", "eigsolve.pencil_s",
    "eigsolve.symmetric_eig_s", "eigsolve.symmetric_eig_calls", "estimator.fit_s",
    "estimator.fit_self_s", "estimator.heldout_risk_s", "certificates.bound_report_s",
    "io.write_model_s", "io.read_model_self_s", "io.model_bytes", "io.bytes_written",
    "config.load_config_s", "cli.sample_s", "cli.fit_s", "cli.report_s",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {name: spec[0] for name, spec in SPAN_METRICS.items()}
    units.update(PASS_METRICS)
    for name in LEG_METRICS:
        for leg in SWEEP_LEGS:
            units[f"{name}.{leg}"] = units[name]
    return units


END_TO_END_UNITS = {"pipeline_s": "s", "peak_rss_mb": "MB", "heldout_risk": "1"}


@dataclass
class Leg:
    """CLI calls that write into one output directory."""

    label: str | None
    out: Path
    calls: list[list[str]]
    expected: set[str]


@dataclass
class Pass:
    wall: float
    error: str | None = None
    hashes: dict[str, str] = field(default_factory=dict)
    heldout_risk: float = math.nan
    oracle_err: float = math.nan
    sizes: dict[str | None, dict[str, int]] = field(default_factory=dict)


def _set(text: str, **values) -> str:
    """A run config with the given `key = value` lines replaced."""
    for key, value in values.items():
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        if n != 1:
            raise RuntimeError(f"config has no single `{key} = ...` line")
    return text


# Self-test size: every m / 10, small rank and grid.
TINY = {"rank": 10, "grid_resolution": 11}


class Workload:
    def __init__(self, name: str, seed: int, work: Path, tiny: bool = False):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name, self.seed, self.tiny = name, seed, tiny
        self.pass_dir = work / "pass"
        self.example = "example2" if name == "example2-zubov" else "example1"
        text = EXAMPLE2_CONFIG if self.example == "example2" else EXAMPLE1_CONFIG
        self.sweep_configs = {}
        if name == "fit-sweep":
            (work / "configs").mkdir(parents=True, exist_ok=True)
            for m, leg in zip(SWEEP_SIZES, SWEEP_LEGS):
                path = work / "configs" / f"{leg}.ini"
                path.write_text(_set(text, m=m // 10, **TINY) if tiny else _set(text, m=m))
                self.sweep_configs[leg] = path
            text = path.read_text()
        elif tiny:
            text = _set(text, m=50, **TINY)
        # run.py times cold starts that import the CLI and load this config.
        work.mkdir(parents=True, exist_ok=True)
        (work / "setup.ini").write_text(text)

    def legs(self) -> list[Leg]:
        seed = ["--seed", str(self.seed)]
        if self.name != "fit-sweep":
            out = self.pass_dir / self.example
            return [Leg(None, out, [["reproduce", self.example, "--out", str(out), *seed]],
                        EXAMPLE_FILES[self.example])]
        legs = []
        for leg, cfg in self.sweep_configs.items():
            out = self.pass_dir / leg
            args = ["--config", str(cfg), "--out", str(out), *seed]
            legs.append(Leg(leg, out, [["sample", *args], ["fit", *args], ["report", *args]], SWEEP_FILES))
        return legs

    def warmup_legs(self) -> list[Leg]:
        # fit-sweep warms up on its smallest size only: a full sweep pass
        # costs more than the rest of the run.
        return self.legs()[:1]

    @contextlib.contextmanager
    def program_config(self):
        """At self-test size, shrink the configs `reproduce` writes."""
        if not self.tiny:
            yield
            return
        saved = cli.EXAMPLE1_CONFIG, cli.EXAMPLE2_CONFIG
        cli.EXAMPLE1_CONFIG, cli.EXAMPLE2_CONFIG = (_set(t, m=50, **TINY) for t in saved)
        try:
            yield
        finally:
            cli.EXAMPLE1_CONFIG, cli.EXAMPLE2_CONFIG = saved


def run_pass(workload: Workload, legs: list[Leg], tracer: Tracer | None = None) -> Pass:
    """Run one pass, time it, then check its outputs outside the timing."""
    shutil.rmtree(workload.pass_dir, ignore_errors=True)
    log = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            for leg in legs:
                if tracer is not None:
                    tracer.leg = leg.label
                for argv in leg.calls:
                    code = cli.main(argv)
                    if code != 0:
                        raise RuntimeError(f"koopcert {argv[0]} exited with code {code}")
    except (Exception, SystemExit) as exc:  # a failed pass is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    result = Pass(wall=time.perf_counter() - t0, error=error)
    if error is None:
        try:
            _check_outputs(workload, legs, result)
        except Exception as exc:
            result.error = f"output check: {type(exc).__name__}: {exc}"
    if result.error is not None:
        result.error += "\n" + log.getvalue()[-2000:]
    return result


def _check_outputs(workload: Workload, legs: list[Leg], result: Pass) -> None:
    for leg in legs:
        missing = leg.expected - {p.name for p in leg.out.iterdir()}
        if missing:
            raise RuntimeError(f"missing artifacts {sorted(missing)} in {leg.out.name}")
        result.sizes[leg.label] = {p.name: p.stat().st_size for p in leg.out.iterdir()}
        for path in sorted(leg.out.iterdir()):
            key = str(path.relative_to(workload.pass_dir))
            with open(path, "rb") as fh:
                result.hashes[key] = hashlib.file_digest(fh, "sha256").hexdigest()
    report = configparser.ConfigParser()
    report.read(legs[-1].out / "report.txt")
    result.heldout_risk = float(report["bounds"]["heldout_risk"])
    if not math.isfinite(result.heldout_risk):
        raise RuntimeError(f"held-out risk is {result.heldout_risk}")
    if workload.name != "fit-sweep":
        result.oracle_err = _oracle_err(legs[0].out, "lyapunov" if workload.example == "example1" else "zubov")
        if not math.isfinite(result.oracle_err):
            raise RuntimeError(f"oracle error is {result.oracle_err}")


def _oracle_err(out: Path, kind: str) -> float:
    """Mean |certificate - oracle| over the grid points inside the domain."""
    grid = np.loadtxt(out / f"{kind}_grid.csv", delimiter=",", skiprows=1)
    oracle = np.loadtxt(out / f"{kind}_oracle_grid.csv", delimiter=",", skiprows=1)
    if grid.shape != oracle.shape or not np.array_equal(grid[:, :-1], oracle[:, :-1]):
        raise RuntimeError("certificate and oracle grids disagree on their points")
    domain = load_config(out / "config.ini").domain
    pts = grid[:, :-1]
    if domain.kind == "ball":
        inside = np.sum(pts * pts, axis=1) <= domain.radius**2
    else:
        inside = np.all((pts >= domain.lo) & (pts <= domain.hi), axis=1)
    return float(np.mean(np.abs(grid[inside, -1] - oracle[inside, -1])))


def _compare(ref: dict[str, str], new: Pass) -> None:
    """Fail the pass when an artifact differs from the same file of an earlier pass."""
    if new.error is not None:
        return
    differ = sorted(k for k, h in new.hashes.items() if k in ref and ref[k] != h)
    if differ:
        new.error = f"artifacts differ from an earlier pass at the same seed: {differ}"
    else:
        for k, h in new.hashes.items():
            ref.setdefault(k, h)


def _reduce(spans: list, selfs: list, span_name: str, how: str, leg) -> float:
    picked = [i for i, s in enumerate(spans) if s.name == span_name and (leg is None or s.leg == leg)]
    if how == "total":
        return float(sum(spans[i].duration for i in picked))
    if how == "self":
        return float(sum(selfs[i] for i in picked))
    if how == "calls":
        return float(len(picked))
    op, attr = how.split(":")
    values = [spans[i].attrs.get(attr, 0) for i in picked]
    return float(max(values, default=0) if op == "max" else sum(values))


def layer_metrics(tracer: Tracer, traced: Pass, untraced: Pass) -> dict[str, float]:
    spans = tracer.spans
    selfs = self_times(spans)

    def span_values(leg):
        return {name: _reduce(spans, selfs, span, how, leg) for name, (_, span, how) in SPAN_METRICS.items()}

    def io_values(labels):
        files = [traced.sizes.get(label, {}) for label in labels]
        return {"io.model_bytes": float(sum(f.get("model.txt", 0) for f in files)),
                "io.bytes_written": float(sum(sum(f.values()) for f in files))}

    values = span_values(None)
    values.update(io_values(list(traced.sizes)))
    top = sum(s.duration for s in spans if s.parent is None)
    values.update({
        "certificates.oracle_err": 0.0 if math.isnan(traced.oracle_err) else traced.oracle_err,
        "trace.pass_s": traced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
        "trace.uncovered_s": traced.wall - top,
    })
    for leg in SWEEP_LEGS:
        leg_values = span_values(leg)
        leg_values.update(io_values([leg]))
        for name in LEG_METRICS:
            values[f"{name}.{leg}"] = leg_values[name] if leg in traced.sizes else 0.0
    return values


def environment() -> dict:
    threads = {}
    for lib_dir in ("numpy.libs", "scipy.libs"):
        for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", lib_dir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[lib_dir] = fn()
                    break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or os.environ.get("OPENBLAS_NUM_THREADS", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def write_spans(spans: list, path: Path) -> None:
    """One JSON line per span; times in seconds from the first span's start."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start - t0, "end": s.end - t0,
                                 "parent": s.parent, "leg": s.leg, **s.attrs}) + "\n")


def run(name: str, seed: int, seconds: float, traced: bool, work: Path, tiny: bool = False,
        spans_path: Path | None = None) -> dict:
    workload = Workload(name, seed, work, tiny)
    legs = workload.legs()
    with workload.program_config():
        warm = run_pass(workload, workload.warmup_legs())
        ref = dict(warm.hashes)
        passes: list[Pass] = []
        if traced:
            untraced = run_pass(workload, legs)
            _compare(ref, untraced)
            with Tracer(TARGETS) as tracer:
                traced_pass = run_pass(workload, legs, tracer)
            if traced_pass.error is None and set(traced_pass.hashes) != set(untraced.hashes):
                traced_pass.error = "traced pass wrote a different artifact set"
            _compare(ref, traced_pass)
            passes = [untraced, traced_pass]
        else:
            # Only build_lyapunov is wrapped here, once per pass, to record
            # the series horizon and whether it fell back to the decay ratio.
            recorder = Tracer(LYAPUNOV_TARGET)
            deadline = time.perf_counter() + seconds
            with recorder:
                while not passes or time.perf_counter() < deadline:
                    passes.append(run_pass(workload, legs, recorder))
                    _compare(ref, passes[-1])
    good = [p for p in passes if p.error is None]
    failed = len(passes) - len(good) + (warm.error is not None)
    info = {
        "workload": name, "seed": seed, "environment": environment(),
        "warmup_s": warm.wall, "pass_s": [p.wall for p in passes],
        "errors": [p.error for p in [warm, *passes] if p.error is not None],
    }
    if traced:
        info["missing_targets"] = tracer.missing
        if spans_path is not None:
            write_spans(tracer.spans, spans_path)
        metrics = layer_metrics(tracer, traced_pass, untraced)
        units = per_layer_units()
        info["horizon"] = metrics["certificates.horizon"]
        info["alpha_fallback"] = metrics["certificates.alpha_fallback"]
    else:
        lyap = [s.attrs for s in recorder.spans]
        info["horizon"] = sorted({a.get("horizon", 0) for a in lyap})
        info["alpha_fallback"] = sum(a.get("alpha_fallback", 0) for a in lyap)
        timed = good or passes
        metrics = {
            "pipeline_s": statistics.median(p.wall for p in timed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "heldout_risk": (good[0] if good else warm).heldout_risk,
        }
        units = END_TO_END_UNITS
        info["samples"] = {"pipeline_s": len(good), "peak_rss_mb": 1, "heldout_risk": 1}
        info["oracle_err"] = good[0].oracle_err if good else math.nan
    return {
        "correct": failed == 0,
        "attempted": len(passes) + 1,
        "failed": failed,
        "metrics": {k: {"value": _finite(metrics[k]), "unit": u} for k, u in units.items()},
        "info": {k: _finite(v) for k, v in info.items()},
    }


def _finite(value):
    """JSON has no NaN: a quantity a failed pass never produced reads null."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--work", required=True, help="scratch directory for artifacts")
    p.add_argument("--tiny", action="store_true", help="self-test size: every m / 10, rank 10")
    p.add_argument("--spans", type=Path, help="with --trace 1, write the traced pass's spans here")
    args = p.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(args.work), args.tiny,
                 args.spans)
    print(json.dumps(result, allow_nan=False, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
