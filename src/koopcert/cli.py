"""Command line front end: sample, fit, certify, report, reproduce.

Exit codes: 0 success, 1 configuration or validation problem (an output
location that cannot be written included), 2 degenerate sampling domain,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .certificates import (
    bound_report,
    build_lyapunov,
    build_zubov,
    doa_levels,
    estimate_doa,
    lyapunov_grid_values,
    regular_grid,
    zubov_error_bound,
    zubov_grid_values,
)
from .config import EXAMPLE1_CONFIG, EXAMPLE2_CONFIG, RunConfig, load_config
from .dynsys import (
    check_decay_ratio,
    make_dataset,
    oracle_lyapunov_batch,
    oracle_zubov_batch,
    sample_uniform,
    trajectory,
)
from .errors import (
    ContractionViolatedError,
    DegenerateDomainError,
    InvalidInputError,
    KoopcertError,
)
from .estimator import fit_koopman, predict_observables
from .io import (
    _write_rows,
    fmt,
    grid_text,
    read_dataset,
    read_model,
    write_dataset,
    write_doa,
    write_grid,
    write_model,
    write_report,
)
from .kernels import weight_values


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve that
    for degenerate-domain failures, so remap usage problems to 1. Like every
    other failure, a usage error writes one `error:` line and no usage text
    (`--help` still prints it)."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _outdir(args, cfg: RunConfig | None = None) -> Path:
    raw = args.out or (cfg.output.dir if cfg is not None else "out")
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args) -> RunConfig:
    return load_config(args.config, seed_override=args.seed)


def _draw(cfg: RunConfig, seed: int):
    return make_dataset(cfg.system, cfg.domain, cfg.sampling.m, cfg.sampling.dt, seed, cfg.kw.weight)


def _sample(cfg: RunConfig, path: Path):
    """Draw the training pairs, write them, and return them with their decay ratio."""
    ds = _draw(cfg, cfg.sampling.seed)
    write_dataset(ds, path)
    return ds, check_decay_ratio(ds.X, ds.Y, cfg.kw.weight, eta=cfg.eta)


def cmd_sample(args) -> int:
    cfg = _load(args)
    path = _outdir(args, cfg) / "dataset.csv"
    ds, alpha = _sample(cfg, path)
    _say(args, f"wrote {path} ({len(ds)} pairs, {ds.rejected_count} rejected)")
    _say(args, f"decay ratio alpha_hat = {fmt(alpha)}")
    if alpha >= 1:
        print("warning: alpha_hat >= 1: the weight does not contract on this sample", file=sys.stderr)
    return 0


def _fit(cfg: RunConfig, ds, path: Path):
    model = fit_koopman(ds, cfg.kw, cfg.rrr, eta=cfg.eta)
    write_model(model, path)
    return model


def cmd_fit(args) -> int:
    cfg = _load(args)
    out = _outdir(args, cfg)
    data = Path(args.dataset) if args.dataset else out / "dataset.csv"
    ds = read_dataset(data)
    if ds.dt is not None and ds.dt != cfg.sampling.dt:
        raise InvalidInputError(
            f"dataset {data} was sampled at dt={ds.dt!r}, but the config has dt={cfg.sampling.dt!r}"
        )
    path = out / "model.txt"
    model = _fit(cfg, ds, path)
    d = model.diagnostics
    _say(args, f"wrote {path} (mode={model.mode}, m={len(model)}, rank={model.rank})")
    _say(args, f"empirical risk   = {fmt(d.risk)}")
    _say(args, f"hs norm          = {fmt(d.hs_norm)}")
    _say(args, f"operator norm    = {fmt(d.op_norm)}")
    _say(args, f"norm bound       = {fmt(d.norm_bound)}")
    head = ", ".join(fmt(v) for v in d.sigma_sq[:5])
    _say(args, f"sigma^2 head     = {head}")
    return 0


def _read_model(args, out: Path):
    return read_model(Path(args.model) if args.model else out / "model.txt")


def _report(cfg: RunConfig, model, path: Path, heldout: bool = False, series=None):
    """Write the bound report, with the held-out risk on a fresh draw if asked."""
    cert = cfg.certificate
    sample = _draw(cfg, cfg.sampling.seed + 1) if heldout else None
    report = bound_report(model, delta=cert.delta, heldout=sample, nu=cert.nu, varsigma=cert.varsigma)
    write_report(report, path, series)
    return report


def _write_grids(grid, files: dict) -> None:
    """Write each path's values on the grid; the files share one grid text."""
    text = grid_text(grid.axes)
    for path, values in files.items():
        write_grid(text, values, path)


def _lyapunov_grid(cfg: RunConfig, model):
    """Build the series certificate; returns it, the run's grid and its values there."""
    est = build_lyapunov(model, horizon=cfg.certificate.horizon)
    grid = regular_grid(cfg.domain, cfg.output.grid_resolution)
    return est, grid, lyapunov_grid_values(est, grid)


def _series(cfg: RunConfig, est) -> str:
    """What the certificate sums: the full series, or the configured horizon."""
    if cfg.certificate.horizon is None:
        return f"full series ({est.horizon} terms)"
    return f"series truncated at {est.horizon} terms"


def _zubov_grid(cfg: RunConfig, model):
    """Build the t-step indicator; returns t, the run's grid and its values there."""
    cert = cfg.certificate
    steps = cert.zubov_steps(cfg.sampling.dt)
    est = build_zubov(model, steps, nu=cert.nu, varsigma=cert.varsigma)
    grid = regular_grid(cfg.domain, cfg.output.grid_resolution)
    return steps, grid, zubov_grid_values(est, grid)


def cmd_lyapunov(args) -> int:
    cfg = _load(args)
    out = _outdir(args, cfg)
    model = _read_model(args, out)
    grid_path, report_path = out / "lyapunov_grid.csv", out / "report.txt"
    est, grid, values = _lyapunov_grid(cfg, model)
    _write_grids(grid, {grid_path: values})
    _report(cfg, model, report_path, series=est)
    _say(args, f"wrote {grid_path} and {report_path}")
    _say(args, f"{_series(cfg, est)}, tail bound = {fmt(est.tail_bound)}")
    return 0


def cmd_zubov(args) -> int:
    cfg = _load(args)
    out = _outdir(args, cfg)
    model = _read_model(args, out)
    grid_path, report_path = out / "zubov_grid.csv", out / "report.txt"
    steps, grid, values = _zubov_grid(cfg, model)
    _write_grids(grid, {grid_path: values})
    report = _report(cfg, model, report_path)
    cert = cfg.certificate
    err = zubov_error_bound(
        steps, report.alpha_plug, report.empirical_risk, cert.nu, cert.varsigma
    )
    _say(args, f"wrote {grid_path} and {report_path}")
    _say(args, f"steps = {steps}, plug-in error bound = {fmt(err)}")
    return 0


def cmd_report(args) -> int:
    cfg = _load(args)
    out = _outdir(args, cfg)
    path = out / "report.txt"
    report = _report(cfg, _read_model(args, out), path, heldout=True)
    _say(args, f"wrote {path}")
    _say(args, f"empirical risk = {fmt(report.empirical_risk)}")
    _say(args, f"held-out risk  = {fmt(report.heldout_risk)}")
    _say(args, f"excess bound   = {fmt(report.excess_risk)} (delta={cfg.certificate.delta:g})")
    _say(args, f"plug-in alpha  = {fmt(report.alpha_plug)}")
    return 0


def _reproduce_lyapunov(args, cfg: RunConfig, model, out: Path):
    """Write the Lyapunov grids and observables.csv; returns the series."""
    est, grid, values = _lyapunov_grid(cfg, model)
    oracle = oracle_lyapunov_batch(cfg.system, cfg.kw, grid.coords(), cfg.sampling.dt)
    _write_grids(grid, {out / "lyapunov_grid.csv": values, out / "lyapunov_oracle_grid.csv": oracle})
    res = cfg.output.grid_resolution
    _say(args, f"wrote lyapunov grids ({res}x{res}, {_series(cfg, est)})")

    # Observable tracking from one seeded start: truth w(x_t) q(x_t) against
    # the model's t-step prediction, for two quadratics.
    rng = np.random.default_rng(cfg.sampling.seed + 3)
    x0 = sample_uniform(cfg.domain, 8, cfg.sampling.seed + 3)[int(rng.integers(8))]
    horizon = 100
    traj = trajectory(cfg.system, x0, cfg.sampling.dt, horizon)
    quads = {
        "q1": lambda pts: np.sum(pts * pts, axis=-1),
        "q2": lambda pts: (pts[..., 0] - pts[..., 1]) ** 2,
    }
    w_traj = weight_values(cfg.kw.weight, traj)
    steps = np.arange(horizon + 1)
    cols = [steps, steps * cfg.sampling.dt]
    for q in quads.values():
        cols += [w_traj * q(traj), predict_observables(model, q, x0, horizon)]
    header = "step,time," + ",".join(f"truth_{n},pred_{n}" for n in quads)
    _write_rows(out / "observables.csv", header, np.column_stack(cols))
    _say(args, f"wrote observables.csv (start {fmt(x0[0])}, {fmt(x0[1])})")
    return est


def _reproduce_zubov(args, cfg: RunConfig, model, out: Path) -> None:
    cert = cfg.certificate
    steps, grid, values = _zubov_grid(cfg, model)
    oracle = oracle_zubov_batch(
        cfg.system, cfg.kw.weight, cfg.eta, grid.coords(), cfg.sampling.dt, steps, cert.nu, cert.varsigma
    )
    _write_grids(grid, {out / "zubov_grid.csv": values, out / "zubov_oracle_grid.csv": oracle})
    res = cfg.output.grid_resolution
    _say(args, f"wrote zubov grids ({res}x{res}, {steps} steps)")

    # Attraction-level certificate: estimate the cost table and the decay
    # floor from simulation, then take the largest certified level.
    doa = estimate_doa(
        cfg.system, cfg.domain, cfg.kw.weight, cfg.eta, doa_levels(cfg.domain, cfg.kw.weight), 500,
        cfg.sampling.dt, cfg.sampling.seed + 2, cert.varsigma,
    )
    write_doa(doa, out / "doa.txt")
    if doa.a_star is None:
        _say(args, "doa: no level in the bracket certified")
    else:
        _say(args, f"doa: certified weight level a* = {fmt(doa.a_star)}")


def cmd_reproduce(args) -> int:
    text = EXAMPLE1_CONFIG if args.example == "example1" else EXAMPLE2_CONFIG
    out = Path(args.out) if args.out else Path(f"out-{args.example}")
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.ini"
    cfg_path.write_text(text)
    cfg = load_config(cfg_path, seed_override=args.seed)

    ds, alpha = _sample(cfg, out / "dataset.csv")
    _say(args, f"sampled {len(ds)} pairs, alpha_hat = {fmt(alpha)}")
    model = _fit(cfg, ds, out / "model.txt")
    _say(args, f"fit: risk = {fmt(model.diagnostics.risk)}, op norm = {fmt(model.diagnostics.op_norm)}")

    reproduce = _reproduce_lyapunov if args.example == "example1" else _reproduce_zubov
    series = reproduce(args, cfg, model, out)
    _report(cfg, model, out / "report.txt", heldout=True, series=series)
    _say(args, f"artifacts in {out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="koopcert", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, help="override the sampling seed")
    common.add_argument("--out", help="output directory (default from config)")
    common.add_argument("--quiet", action="store_true", help="suppress status lines")
    configured = _Parser(add_help=False, parents=[common])
    configured.add_argument("--config", required=True, help="run configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[configured], help="draw a snapshot dataset")
    p.set_defaults(func=cmd_sample)
    p = sub.add_parser("fit", parents=[configured], help="fit the operator from a dataset")
    p.add_argument("dataset", nargs="?", help="dataset CSV (default <out>/dataset.csv)")
    p.set_defaults(func=cmd_fit)
    p = sub.add_parser("lyapunov", parents=[configured], help="evaluate the stability certificate grid")
    p.add_argument("model", nargs="?", help="model file (default <out>/model.txt)")
    p.set_defaults(func=cmd_lyapunov)
    p = sub.add_parser("zubov", parents=[configured], help="evaluate the attraction indicator grid")
    p.add_argument("model", nargs="?", help="model file (default <out>/model.txt)")
    p.set_defaults(func=cmd_zubov)
    p = sub.add_parser("report", parents=[configured], help="write the bound report")
    p.add_argument("model", nargs="?", help="model file (default <out>/model.txt)")
    p.set_defaults(func=cmd_report)
    p = sub.add_parser("reproduce", parents=[common], help="run a benchmark pipeline end to end")
    p.add_argument("example", choices=("example1", "example2"))
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(over="raise"):
            return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # input files are read through InvalidInputError, so this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except DegenerateDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractionViolatedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: raise beta (rrr.beta_scale)", file=sys.stderr)
        return 3
    except (KoopcertError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
