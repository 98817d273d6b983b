"""Persistence round trips, config parsing, and the command line flows."""

import configparser
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import koopcert
from koopcert import (
    CertificateConfig,
    DomainSpec,
    EtaSpec,
    InvalidInputError,
    RRRConfig,
    SnapshotDataset,
    SystemSpec,
    bound_report,
    fit_koopman,
    fit_zubov_koopman,
    fmt,
    load_config,
    make_dataset,
    read_dataset,
    read_model,
    write_dataset,
    write_grid,
    write_model,
    write_report,
)
from koopcert.certificates import HORIZON_CAP
from koopcert.cli import main
from koopcert.config import WORK_BYTES_CAP
from koopcert.io import CHECKED_DIAGNOSTICS, DIAGNOSTICS_RTOL, _write_rows

from helpers import example2_model, kw_gaussian, linear_model


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(7)
    samples = list(rng.standard_normal(50) * np.exp(rng.uniform(-30, 30, 50)))
    samples += [0.0, -0.0, 1e-308, -1e-308, 1.7e308, 0.05, 1 / 3]
    for x in samples:
        assert float(fmt(x)) == float(x)


def test_dataset_round_trip_with_meta(tmp_path):
    ds, _, _ = linear_model(a=0.4, m=25, rank=5, seed=9)
    path = tmp_path / "dataset.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.Y, ds.Y)
    assert back.eta_x is None
    assert back.seed == ds.seed
    assert back.dt == ds.dt
    assert back.rejected_count == ds.rejected_count


def test_dataset_round_trip_with_eta(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (12, 2))
    ds = SnapshotDataset(X=X, Y=0.5 * X, dt=0.1, seed=11, eta_x=0.5 * np.sum(X * X, axis=1))
    path = tmp_path / "damped.csv"
    write_dataset(ds, path)
    back = read_dataset(path)
    np.testing.assert_array_equal(back.eta_x, ds.eta_x)
    np.testing.assert_array_equal(back.X, ds.X)


def test_read_dataset_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y1\n1.0,2.0,3.0\n")
    with pytest.raises(InvalidInputError):
        read_dataset(path)
    path.write_text("x1,x2,y1,y2\n1.0,2.0\n1.0\n")
    with pytest.raises(InvalidInputError):
        read_dataset(path)


def assert_same_factors(back, model):
    """The reloaded model holds bit-equal factors and diagnostics."""
    for name in ("U", "W", "H", "Q"):
        np.testing.assert_array_equal(getattr(back, name), getattr(model, name))
    for name in ("risk", "hs_norm", "op_norm", "norm_bound"):
        assert getattr(back.diagnostics, name) == getattr(model.diagnostics, name)
    np.testing.assert_array_equal(back.diagnostics.sigma_sq, model.diagnostics.sigma_sq)


def test_model_round_trip_koopman(tmp_path):
    _, _, model = linear_model(a=0.5, m=30, rank=6, seed=2)
    path = tmp_path / "model.txt"
    write_model(model, path)
    back = read_model(path)
    np.testing.assert_array_equal(back.theta, model.theta)
    np.testing.assert_array_equal(back.anchors_x, model.anchors_x)
    np.testing.assert_array_equal(back.anchors_y, model.anchors_y)
    assert back.beta == model.beta
    assert back.rank == model.rank
    assert back.mode == "koopman"
    assert back.kw == model.kw
    assert back.diagnostics.risk == model.diagnostics.risk
    assert_same_factors(back, model)
    # a stored diagnostic that differs from the recomputed one in its last
    # digit, as another BLAS build may round it, still loads
    nudged = fmt(np.nextafter(model.diagnostics.norm_bound, np.inf))
    text = re.sub(r"^norm_bound=.*$", f"norm_bound={nudged}", path.read_text(), flags=re.M)
    path.write_text(text)
    assert_same_factors(read_model(path), model)


def test_model_round_trip_zubov(tmp_path):
    _, _, _, model = example2_model()
    path = tmp_path / "model.txt"
    write_model(model, path)
    back = read_model(path)
    assert back.mode == "zubov"
    assert back.eta is not None and back.eta.scale == model.eta.scale
    np.testing.assert_array_equal(back.damping, model.damping)
    assert_same_factors(back, model)


def test_read_model_makes_no_m_by_m_eigensolve(tmp_path, monkeypatch):
    # a fit makes one top-(r+1) subset solve, of the k x k reduced matrix, and
    # full solves only of r x r matrices; reading a model back only needs r x r solves
    m = 40
    calls = []
    eigh = scipy.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append((np.shape(a) == (m, m), kwargs.get("subset_by_index") is not None))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counting_eigh)
    kw = kw_gaussian()
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    ds = make_dataset(
        SystemSpec.linear_contraction(0.5), DomainSpec.ball(2.0), m, 1.0, 7, kw.weight, eta=eta
    )
    cfg = RRRConfig(rank=6)
    for fit in (lambda: fit_koopman(ds, kw, cfg), lambda: fit_zubov_koopman(ds, kw, eta, cfg)):
        calls.clear()
        model = fit()
        assert calls
        assert not any(square and not subset for square, subset in calls)
        assert sum(subset for _, subset in calls) <= 1
        write_model(model, tmp_path / "model.txt")
        calls.clear()
        read_model(tmp_path / "model.txt")
        assert calls and not any(square for square, _ in calls)


def test_read_model_loads_a_file_from_numpy_blas_products():
    """tests/data/model.txt is an example2-config fit (m = 60, rank 5, seed 42)
    written when the fit's products ran in numpy's BLAS; the rebuild in
    scipy's BLAS must still reproduce its stored diagnostics."""
    path = Path(__file__).parent / "data" / "model.txt"
    text = path.read_text()
    model = read_model(path)
    assert (len(model), model.rank, model.mode) == (60, 5, "zubov")
    for name in CHECKED_DIAGNOSTICS:
        stored = float(re.search(rf"^{name}=(.*)$", text, flags=re.M).group(1))
        recomputed = getattr(model.diagnostics, name)
        assert abs(recomputed - stored) <= DIAGNOSTICS_RTOL * abs(recomputed)


def test_read_model_missing_section(tmp_path):
    _, _, model = linear_model(a=0.5, m=10, rank=3, seed=4)
    path = tmp_path / "model.txt"
    write_model(model, path)
    text = path.read_text()
    start = text.index("[U]")
    (tmp_path / "broken.txt").write_text(text[:start])
    with pytest.raises(InvalidInputError, match=r"\[U\]"):
        read_model(tmp_path / "broken.txt")


def test_write_grid_layout(tmp_path):
    coords = np.array([[0.0, 1.0], [2.0, 3.0]])
    vals = np.array([0.5, 0.25])
    path = tmp_path / "grid.csv"
    write_grid(coords, vals, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,value"
    row = lines[1].split(",")
    assert float(row[0]) == 0.0 and float(row[2]) == 0.5


def test_report_round_trip(tmp_path):
    ds, _, model = linear_model(a=0.5, m=30, rank=6, seed=2)
    report = bound_report(model, delta=0.05, heldout=ds)
    path = tmp_path / "report.txt"
    write_report(report, path)
    cp = configparser.ConfigParser()
    cp.read(path)
    assert cp.getint("inputs", "m") == report.m
    assert float(cp.get("bounds", "excess_risk")) == report.excess_risk
    assert float(cp.get("bounds", "alpha_plug")) == report.alpha_plug
    assert float(cp.get("bounds", "heldout_risk")) == report.heldout_risk
    assert not cp.has_option("bounds", "zubov_const")


LINEAR_CONFIG = """\
[system]
kind = linear-contraction
a = 0.5

[domain]
kind = ball
radius = 2.0

[sampling]
m = 60
seed = 3
dt = 1.0

[kernel]
kind = gaussian
gamma = 4.0

[weight]
kind = norm-power
exponent = 1.0

[rrr]
rank = 8

[certificate]
mode = lyapunov
tol = 1e-6

[output]
grid_resolution = 5
"""

ZUBOV_CONFIG = """\
[system]
kind = example2

[domain]
kind = box
lo = -1.0, -1.0
hi = 1.0, 1.0

[sampling]
m = 60
seed = 5
dt = 0.025

[kernel]
gamma = 4.0

[weight]
kind = norm-power
exponent = 0.5

[eta]
scale = 0.5

[rrr]
rank = 8

[certificate]
mode = zubov
horizon = 3

[output]
grid_resolution = 4
"""


def test_config_defaults_and_seed_override(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(LINEAR_CONFIG)
    cfg = load_config(path)
    assert cfg.kw.kernel.gamma == 4.0
    assert cfg.kw.weight.floor == 1e-8
    assert cfg.certificate.delta == 0.05
    assert load_config(path, seed_override=99).sampling.seed == 99


def test_config_validation_errors(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(LINEAR_CONFIG.replace("[rrr]\nrank = 8\n\n", ""))
    with pytest.raises(InvalidInputError, match="rrr"):
        load_config(path)
    path.write_text(ZUBOV_CONFIG.replace("[eta]\nscale = 0.5\n\n", ""))
    with pytest.raises(InvalidInputError, match="eta"):
        load_config(path)
    with pytest.raises(InvalidInputError, match="not found"):
        load_config(tmp_path / "absent.ini")


def test_config_work_size_caps(tmp_path):
    # m = 8192 makes the m x m Gram exactly WORK_BYTES_CAP; a 90 x 90 grid is smaller
    path = tmp_path / "run.ini"
    at_cap = LINEAR_CONFIG.replace("m = 60", "m = 8192")
    at_cap = at_cap.replace("resolution = 5", "resolution = 90")
    at_cap = at_cap.replace("tol = 1e-6", f"tol = 1e-6\nhorizon = {HORIZON_CAP}")
    path.write_text(at_cap)
    cfg = load_config(path)
    assert 8 * cfg.sampling.m**2 == WORK_BYTES_CAP and cfg.certificate.horizon == HORIZON_CAP
    for over in (("m = 8192", "m = 8193"), ("resolution = 90", "resolution = 8193")):
        path.write_text(at_cap.replace(*over))
        with pytest.raises(InvalidInputError, match="cap"):
            load_config(path)
    for horizon in (HORIZON_CAP + 1, -1):
        path.write_text(at_cap.replace(f"horizon = {HORIZON_CAP}", f"horizon = {horizon}"))
        with pytest.raises(InvalidInputError, match="horizon"):
            load_config(path)


@pytest.mark.parametrize(
    "command, text",
    [
        ("lyapunov", LINEAR_CONFIG.replace("grid_resolution = 5", "grid_resolution = 99999999999")),
        ("sample", LINEAR_CONFIG.replace("m = 60", "m = 99999999999")),
        ("zubov", ZUBOV_CONFIG.replace("horizon = 3", "horizon = 99999999999")),
        ("zubov", ZUBOV_CONFIG.replace("horizon = 3", "time = 1e300")),
        ("zubov", ZUBOV_CONFIG.replace("horizon = 3", "time = nan")),
    ],
    ids=["grid-gram", "fit-gram", "horizon", "time-over-dt", "time-nan"],
)
def test_cli_oversized_run_exits_1_with_one_error_line(tmp_path, capsys, command, text):
    cfg = _write_config(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error:"), lines


def test_zubov_steps_resolution():
    assert CertificateConfig(mode="zubov", time=0.15).zubov_steps(0.025) == 6
    assert CertificateConfig(mode="zubov", horizon=4, time=0.15).zubov_steps(0.025) == 4
    with pytest.raises(InvalidInputError):
        CertificateConfig(mode="zubov").zubov_steps(0.025)


def _write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_cli_lyapunov_pipeline(tmp_path, capsys):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    out = str(tmp_path / "out")
    assert main(["sample", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "dataset.csv").exists()
    assert (tmp_path / "out" / "dataset.csv.meta").exists()
    capsys.readouterr()
    assert main(["fit", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert (tmp_path / "out" / "model.txt").exists()
    assert capsys.readouterr().out == ""
    assert main(["lyapunov", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "lyapunov_grid.csv").exists()
    assert (tmp_path / "out" / "report.txt").exists()
    assert main(["report", "--config", cfg, "--out", out]) == 0
    grid = (tmp_path / "out" / "lyapunov_grid.csv").read_text().strip().split("\n")
    assert len(grid) == 1 + 5 * 5


def test_cli_zubov_pipeline(tmp_path):
    cfg = _write_config(tmp_path, ZUBOV_CONFIG)
    out = str(tmp_path / "out")
    assert main(["sample", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["fit", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["zubov", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert (tmp_path / "out" / "zubov_grid.csv").exists()


def test_cli_missing_config_is_usage_error(tmp_path):
    # reproduce writes its built-in config, so it takes no --config at all.
    for argv in (["fit"], ["reproduce", "example2", "--config", str(tmp_path / "absent.ini")]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_cli_invalid_config_exits_1(tmp_path):
    bad = _write_config(tmp_path, LINEAR_CONFIG.replace("rank = 8", "rank = -1"))
    assert main(["sample", "--config", bad, "--out", str(tmp_path / "o"), "--quiet"]) == 1


def test_cli_degenerate_domain_exits_2(tmp_path):
    text = LINEAR_CONFIG.replace(
        "kind = ball\nradius = 2.0", "kind = box\nlo = -1e-12, -1e-12\nhi = 1e-12, 1e-12"
    )
    cfg = _write_config(tmp_path, text)
    assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_cli_contraction_violated_exits_3(tmp_path):
    # A dataset whose weight doubles along every pair admits no contraction
    # certificate; fitting still works, the certificate build must refuse.
    rng = np.random.default_rng(13)
    X = rng.uniform(-1.0, 1.0, (30, 2))
    ds = SnapshotDataset(X=X, Y=2.0 * X, dt=1.0, seed=13)
    out = tmp_path / "out"
    out.mkdir()
    write_dataset(ds, out / "dataset.csv")
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    assert main(["fit", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert main(["lyapunov", "--config", cfg, "--out", str(out), "--quiet"]) == 3


def _edited_model(edit, m=10):
    """Report on the reference model file after a text edit."""

    def prepare(tmp_path):
        _, _, model = linear_model(a=0.5, m=m, rank=3, seed=4)
        path = tmp_path / "model.txt"
        write_model(model, path)
        path.write_text(edit(path.read_text()))
        return ["report", str(path)]

    return prepare


def _overflowing_weight(text):
    """exponent=300 with the anchors tripled: w(a) w(b) overflows in the Grams."""
    lines, section = [], None
    for line in text.split("\n"):
        if line.startswith("["):
            section = line
        elif section in ("[anchors_x]", "[anchors_y]") and line:
            line = ",".join(fmt(3 * float(v)) for v in line.split(","))
        elif section == "[weight]" and line.startswith("exponent="):
            line = "exponent=300"
        lines.append(line)
    return "\n".join(lines)


def _dataset_with_bad_meta(tmp_path):
    ds, _, _ = linear_model(a=0.5, m=10, rank=3, seed=4)
    write_dataset(ds, tmp_path / "dataset.csv")
    (tmp_path / "dataset.csv.meta").write_text("[dataset]\nseed = abc\n")
    return ["fit", str(tmp_path / "dataset.csv")]


@pytest.mark.parametrize(
    "prepare, reason",
    [
        (
            _edited_model(lambda text: re.sub(r"^beta=.*$", "beta=abc", text, flags=re.M)),
            "malformed model file",
        ),
        (_edited_model(lambda text: re.sub(r"^rank=.*\n", "", text, flags=re.M)), "lacks the rank="),
        (lambda tmp_path: ["report", str(tmp_path / "absent.txt")], "cannot read model file"),
        (lambda tmp_path: ["fit", str(tmp_path / "absent.csv")], "cannot read dataset file"),
        (
            _edited_model(lambda text: text.replace("model v2", "model v1").replace("[U]", "[theta]")),
            "is a v1 model file",
        ),
        (
            _edited_model(lambda text: re.sub(r"^risk=.*$", "risk=0.5", text, flags=re.M)),
            "stores risk=0.5 but its factors give",
        ),
        (
            _edited_model(
                lambda text: re.sub(
                    r"^norm_bound=(.*)$",
                    lambda mo: f"norm_bound={fmt(float(mo.group(1)) * (1 + 1e-9))}",
                    text,
                    flags=re.M,
                )
            ),
            "stores norm_bound=",
        ),
        (
            _edited_model(lambda text: re.sub(r"(\[U\]\n)[^,]*", r"\g<1>1e999", text)),
            "has non-finite U entries",
        ),
        # 300 anchors, so the Grams span more than one block
        (
            _edited_model(_overflowing_weight, m=300),
            "does not rebuild: overflow encountered in multiply",
        ),
        (_dataset_with_bad_meta, "malformed dataset metadata"),
    ],
    ids=[
        "model-beta-not-a-number",
        "model-rank-missing",
        "model-path-missing",
        "dataset-path-missing",
        "model-v1",
        "model-risk-tampered",
        "model-norm-bound-off-1e-9",
        "model-U-infinite",
        "model-weight-overflows",
        "dataset-meta-malformed",
    ],
)
def test_cli_bad_input_file_exits_1_with_one_error_line(tmp_path, prepare, reason):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    command, path = prepare(tmp_path)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet", path]
    line = _cli_error_line(1, *argv)
    assert path in line and reason in line, line


def _cli_error_line(code, *argv):
    """Run the CLI in a fresh interpreter; assert exit code and a one-line stderr, return it."""
    env = {**os.environ, "PYTHONPATH": str(Path(koopcert.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "koopcert.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    lines = proc.stderr.strip().split("\n")
    assert proc.returncode == code, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    return lines[0]


@pytest.mark.parametrize(
    "targets, rank, code, text",
    [(0.5, 5, 1, "exceeds sample count"), (0.0, 1, 3, "effective rank")],
    ids=["rank-above-m", "rank-above-effective-rank"],
)
def test_cli_fit_rank_contract(tmp_path, targets, rank, code, text):
    # four pairs; targets at the origin have zero weight, so L = 0
    X = np.array([[0.5, 0.1], [1.0, -0.3], [-0.7, 0.4], [0.2, 0.9]])
    data = tmp_path / "dataset.csv"
    write_dataset(SnapshotDataset(X=X, Y=targets * X, dt=1.0, seed=0), data)
    cfg = _write_config(tmp_path, LINEAR_CONFIG.replace("rank = 8", f"rank = {rank}"))
    argv = ["fit", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet", str(data)]
    assert text in _cli_error_line(code, *argv)


def test_cli_reproduce_smoke(tmp_path):
    out = tmp_path / "repro"
    assert main(["reproduce", "example1", "--out", str(out), "--quiet"]) == 0
    for name in (
        "config.ini",
        "dataset.csv",
        "model.txt",
        "report.txt",
        "lyapunov_grid.csv",
        "lyapunov_oracle_grid.csv",
        "observables.csv",
    ):
        assert (out / name).exists()


def test_write_rows_matches_savetxt(tmp_path):
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((40, 3)) * np.exp(rng.uniform(-300, 300, (40, 3)))
    rows[0] = [np.nan, np.inf, -np.inf]
    rows[1] = [-0.0, 0.0, 5e-324]
    for i, block in enumerate([rows, rows[:, :1], rows[:0]]):
        ref, new = tmp_path / f"ref{i}.csv", tmp_path / f"new{i}.csv"
        np.savetxt(ref, block, fmt="%.17g", delimiter=",", header="a,b,c", comments="")
        _write_rows(new, "a,b,c", block)
        assert new.read_bytes() == ref.read_bytes()
