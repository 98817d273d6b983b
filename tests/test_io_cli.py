"""Persistence round trips, config parsing, and the command line flows."""

import configparser
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import koopcert
from koopcert import (
    CertificateConfig,
    DomainSpec,
    EtaSpec,
    InvalidInputError,
    KernelSpec,
    OutputConfig,
    RRRConfig,
    RunConfig,
    SamplingConfig,
    SnapshotDataset,
    SystemSpec,
    WeightedKernelSpec,
    WeightSpec,
    bound_report,
    fit_koopman,
    fmt,
    gram,
    grid_text,
    load_config,
    make_dataset,
    read_dataset,
    read_model,
    regular_grid,
    write_dataset,
    write_grid,
    write_model,
    write_report,
)
from koopcert.certificates import HORIZON_CAP
from koopcert.cli import main
from koopcert.config import EXAMPLE1_CONFIG, EXAMPLE2_CONFIG, SECTIONS, WORK_BYTES_CAP
from koopcert.eigsolve import pivoted_cholesky
from koopcert.io import CHECKED_DIAGNOSTICS, CONVERTERS, DIAGNOSTICS_RTOL, _write_rows

from helpers import dense_theta, example2_model, kw_gaussian, linear_model, traced_peak


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
    assert back.seed == ds.seed
    assert back.dt == ds.dt
    assert back.rejected_count == ds.rejected_count
    # pairs without their sidecar load with no dt, so fit does not compare it
    path.with_suffix(".csv.meta").unlink()
    assert read_dataset(path).dt is None


def test_read_dataset_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y1\n1.0,2.0,3.0\n")
    with pytest.raises(InvalidInputError):
        read_dataset(path)
    path.write_text("x1,x2,y1,y2\n1.0,2.0\n1.0\n")
    with pytest.raises(InvalidInputError):
        read_dataset(path)
    # one value would fill the whole row
    path.write_text("x1,x2,y1,y2\n1.0,2.0,3.0,4.0\n0.5\n")
    with pytest.raises(InvalidInputError, match="a row holds 1 values, not 4"):
        read_dataset(path)


def test_read_model_rejects_a_row_of_one_value(tmp_path):
    _, _, model = linear_model(a=0.5, m=10, rank=3, seed=4)
    path = tmp_path / "model.txt"
    write_model(model, path)
    text = path.read_text()
    for section, width in (("U", 3), ("anchors_x", 2), ("anchors_y", 2)):
        # the section's second row cut to its first value, which would fill the row
        path.write_text(re.sub(rf"(\[{section}\]\n[^\n]*\n[^,\n]*)[^\n]*", r"\g<1>", text))
        with pytest.raises(InvalidInputError, match=f"malformed model file .*: a row holds 1 values, not {width}"):
            read_model(path)


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
    np.testing.assert_array_equal(dense_theta(back), dense_theta(model))
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
    nudged = fmt(np.nextafter(model.diagnostics.risk, np.inf))
    text = re.sub(r"^risk=.*$", f"risk={nudged}", path.read_text(), flags=re.M)
    path.write_text(text)
    assert_same_factors(read_model(path), model)
    # the norm bound is not recomputed: a looser one is still a bound, and it
    # loads as stored
    looser = 2.0 * model.diagnostics.norm_bound
    path.write_text(re.sub(r"^norm_bound=.*$", f"norm_bound={fmt(looser)}", text, flags=re.M))
    back = read_model(path)
    assert back.diagnostics.norm_bound == looser
    for name in ("U", "W", "H", "Q"):
        np.testing.assert_array_equal(getattr(back, name), getattr(model, name))


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
    # every pair appears twice, so K has numerical rank k = 40 below m = 80. A
    # fit makes one dense k x k solve, of the reduced matrix, and otherwise
    # solves r x r matrices and the tridiagonals of the Lanczos Perron root;
    # reading a model back makes only the r x r solves
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        a = np.asarray(a)
        calls.append((len(a), np.array_equal(a, np.triu(np.tril(a, 1), -1))))
        return eigh(a, *args, **kwargs)

    kw = kw_gaussian()
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    base = make_dataset(
        SystemSpec(kind="linear-contraction", a=0.5), DomainSpec.ball(2.0), 40, 1.0, 7, kw.weight
    )
    X, Y = np.tile(base.X, (2, 1)), np.tile(base.Y, (2, 1))
    ds = SnapshotDataset(X=X, Y=Y, dt=base.dt, seed=base.seed)
    K = gram(kw, X)
    m, k, r = 80, pivoted_cholesky(K.diagonal(), K.__getitem__).shape[1], 6
    assert k == 40
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    cfg = RRRConfig(rank=r)
    for fit in (lambda: fit_koopman(ds, kw, cfg), lambda: fit_koopman(ds, kw, cfg, eta=eta)):
        calls.clear()
        model = fit()
        assert len(model) == m
        assert sorted(n for n, tridiagonal in calls if not tridiagonal) == [r, r, k]
        write_model(model, tmp_path / "model.txt")
        calls.clear()
        read_model(tmp_path / "model.txt")
        assert [n for n, tridiagonal in calls if not tridiagonal] == [r, r]


def test_read_model_holds_one_gram_at_a_time(tmp_path):
    # factor_model streams K U and E W and reads no L, the model's numbers
    # are parsed row by row, and the parsed text is dropped before
    # factor_model, so reading peaks at about 0.19 m x m arrays here, with
    # one Gram block beside the m x r factors; holding L's lower block
    # triangle took 0.84, building L whole 1.15, building K, L and E whole,
    # one at a time, 1.31, and together 3.32
    m = 2000
    kw = kw_gaussian()
    ds = make_dataset(SystemSpec(kind="example1"), DomainSpec.ball(2.0), m, 0.05, 1, kw.weight)
    write_model(fit_koopman(ds, kw, RRRConfig(rank=50)), tmp_path / "model.txt")
    peak = traced_peak(lambda: read_model(tmp_path / "model.txt"))
    assert peak < 0.2 * 8 * m * m, f"peak {peak / (8 * m * m):.2f} m x m arrays"


def test_read_model_loads_a_file_from_numpy_blas_products():
    """tests/data/model.txt is an example2-config fit (m = 60, rank 5, seed 42)
    written by an earlier version, whose factor came from LAPACK's dpstrf
    through scipy; the rebuild in numpy's BLAS and LAPACK alone must still
    reproduce its stored diagnostics."""
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
    axes = (np.array([0.0, 2.0]), np.array([1.0, 3.0]))
    vals = np.array([0.5, 0.25, -1.0, 0.1])
    path = tmp_path / "grid.csv"
    write_grid(grid_text(axes), vals, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,value"
    assert lines[1:] == ["0,1,0.5", "0,3,0.25", "2,1,-1", "2,3,0.10000000000000001"]


@pytest.mark.parametrize(
    "lo, hi, res",
    [((-1.0,), (2.5,), 7), ((0.3, -2.0), (1.7, 0.1), 11), ((0.3, -2.0), (1.7, 0.1), 12),
     ((-1.0, 0.0, -0.5), (1.0, 1e-3, 2.0), 5)],
    ids=["1d", "2d-off-centre-odd", "2d-off-centre-even", "3d"],
)
def test_write_grid_bytes_equal_the_row_writer(tmp_path, lo, hi, res):
    # each axis value is formatted once, yet the file is the row writer's text
    grid = regular_grid(DomainSpec(kind="box", lo=lo, hi=hi), res)
    rng = np.random.default_rng(res)
    vals = rng.normal(size=res ** len(lo)) * 10.0 ** rng.integers(-12, 12, size=res ** len(lo))
    write_grid(grid_text(grid.axes), vals, tmp_path / "grid.csv")
    header = ",".join([f"x{i + 1}" for i in range(len(lo))] + ["value"])
    _write_rows(tmp_path / "rows.csv", header, np.column_stack([grid.coords(), vals]))
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


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
    assert float(cp.get("bounds", "decay_ratio")) == report.decay_ratio
    assert report.alpha_plug == max(report.op_norm, report.decay_ratio)
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


def _parsed(system, domain, sampling, exponent, rank, certificate, output, eta=None):
    """A reference config as it parses, the defaults it leaves out spelled out."""
    return RunConfig(
        system=system,
        domain=domain,
        sampling=sampling,
        kw=WeightedKernelSpec(
            KernelSpec(kind="gaussian", gamma=4.0),
            WeightSpec(kind="norm-power", exponent=exponent, floor=1e-8),
        ),
        rrr=RRRConfig(rank=rank, beta=None, beta_scale=0.01),
        certificate=certificate,
        output=output,
        eta=eta,
    )


def test_config_defaults_and_seed_override(tmp_path):
    ball = DomainSpec(kind="ball", radius=2.0, lo=(0.0, 0.0), hi=(0.0, 0.0))
    eta = EtaSpec(scale=0.5, kind="quadratic-norm")
    lyapunov = CertificateConfig(
        mode="lyapunov", horizon=None, time=None, nu=1.0, varsigma=0.1, delta=0.05
    )
    parsed = {
        EXAMPLE1_CONFIG: _parsed(
            SystemSpec(kind="example1", dim=2, a=None),
            ball,
            SamplingConfig(m=500, dt=0.05, seed=42),
            1.0,
            50,
            lyapunov,
            OutputConfig(dir="out-example1", grid_resolution=101),
        ),
        EXAMPLE2_CONFIG: _parsed(
            SystemSpec(kind="example2", dim=2, a=None),
            DomainSpec(kind="box", radius=0.0, lo=(-2.0, -2.0), hi=(2.0, 2.0)),
            SamplingConfig(m=500, dt=0.025, seed=42),
            0.5,
            50,
            dataclasses.replace(lyapunov, mode="zubov", time=0.15),
            OutputConfig(dir="out-example2", grid_resolution=101),
            eta,
        ),
        LINEAR_CONFIG: _parsed(
            SystemSpec(kind="linear-contraction", dim=2, a=0.5),
            ball,
            SamplingConfig(m=60, dt=1.0, seed=3),
            1.0,
            8,
            lyapunov,
            OutputConfig(dir="out", grid_resolution=5),
        ),
        ZUBOV_CONFIG: _parsed(
            SystemSpec(kind="example2", dim=2, a=None),
            DomainSpec(kind="box", radius=0.0, lo=(-1.0, -1.0), hi=(1.0, 1.0)),
            SamplingConfig(m=60, dt=0.025, seed=5),
            0.5,
            8,
            dataclasses.replace(lyapunov, mode="zubov", horizon=3),
            OutputConfig(dir="out", grid_resolution=4),
            eta,
        ),
    }
    path = tmp_path / "run.ini"
    for text, expected in parsed.items():
        path.write_text(text)
        assert load_config(path) == expected
    assert load_config(path, seed_override=99).sampling.seed == 99
    # every field of every section class has a parser for its annotation
    annotations = {f.type for cls in SECTIONS.values() for f in dataclasses.fields(cls)}
    assert annotations <= set(CONVERTERS)


def _without_key(text, section, key):
    """The config text with the key's line in [section] removed."""
    lines, current = [], None
    for line in text.split("\n"):
        if line.startswith("["):
            current = line[1:-1]
        if not (current == section and line.startswith(f"{key} =")):
            lines.append(line)
    assert len(lines) == len(text.split("\n")) - 1
    return "\n".join(lines)


def test_readme_config_sample_is_example1(tmp_path):
    # the sample is read verbatim, its ; comment lines included
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sample,) = re.findall(r"^```ini\n(.*?)^```$", readme, flags=re.M | re.S)
    assert "\n; " in sample
    (tmp_path / "readme.ini").write_text(sample)
    (tmp_path / "example1.ini").write_text(EXAMPLE1_CONFIG)
    assert load_config(tmp_path / "readme.ini") == load_config(tmp_path / "example1.ini")


def test_config_validation_errors(tmp_path):
    path = tmp_path / "run.ini"
    for text, section, key in (
        (LINEAR_CONFIG, "system", "kind"),
        (LINEAR_CONFIG, "domain", "kind"),
        (LINEAR_CONFIG, "sampling", "m"),
        (LINEAR_CONFIG, "sampling", "dt"),
        (LINEAR_CONFIG, "weight", "kind"),
        (LINEAR_CONFIG, "rrr", "rank"),
        (ZUBOV_CONFIG, "eta", "scale"),
    ):
        path.write_text(_without_key(text, section, key))
        with pytest.raises(InvalidInputError, match=re.escape(f"required key '{key}' in [{section}]")):
            load_config(path)
    path.write_text(LINEAR_CONFIG.replace("[rrr]\nrank = 8\n\n", ""))
    with pytest.raises(InvalidInputError, match="rrr"):
        load_config(path)
    path.write_text(ZUBOV_CONFIG.replace("[eta]\nscale = 0.5\n\n", ""))
    with pytest.raises(InvalidInputError, match="eta"):
        load_config(path)
    with pytest.raises(InvalidInputError, match="not found"):
        load_config(tmp_path / "absent.ini")


def test_config_work_size_caps(tmp_path):
    # m = 8192 makes the m x m target Gram exactly WORK_BYTES_CAP; a 90 x 90 grid is
    # smaller, and so is the 4729 x 4729 grid's 4729^2 x 3 array of
    # coordinates and values, while a 4730 x 4730 grid's passes the cap
    path = tmp_path / "run.ini"
    at_cap = LINEAR_CONFIG.replace("m = 60", "m = 8192")
    at_cap = at_cap.replace("resolution = 5", "resolution = 90")
    at_cap = at_cap.replace("mode = lyapunov", f"mode = lyapunov\nhorizon = {HORIZON_CAP}")
    path.write_text(at_cap)
    cfg = load_config(path)
    assert 8 * cfg.sampling.m**2 == WORK_BYTES_CAP and cfg.certificate.horizon == HORIZON_CAP
    path.write_text(at_cap.replace("resolution = 90", "resolution = 4729"))
    assert 24 * load_config(path).output.grid_resolution ** 2 <= WORK_BYTES_CAP
    # the grid path contracts two 500 x 400 axis factors slab by slab, so m = 500
    # with a 400 x 400 grid holds no 640 MB m x 160000 Gram
    path.write_text(LINEAR_CONFIG.replace("m = 60", "m = 500").replace("resolution = 5", "resolution = 400"))
    assert 8 * load_config(path).sampling.m * 400**2 > WORK_BYTES_CAP
    for over, array in (
        (("m = 8192", "m = 8193"), "the 8193 x 8193 target Gram of the fit and reload"),
        (("resolution = 90", "resolution = 4730"), "the 22372900 x 3 coordinates and values"),
    ):
        path.write_text(at_cap.replace(*over))
        with pytest.raises(InvalidInputError, match=f"^{array} .* over the {WORK_BYTES_CAP}-byte cap$"):
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


@pytest.mark.parametrize(
    "edit",
    [("horizon = 3", "horizon = 0"), ("horizon = 3", "time = 0.01")],
    ids=["horizon-0", "time-rounds-to-0"],
)
def test_cli_zubov_of_no_step_exits_1_before_writing(tmp_path, capsys, edit):
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, ZUBOV_CONFIG)
    for command in ("sample", "fit"):
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    written = sorted(out.iterdir())
    # time = 0.01 is 0.4 steps of dt = 0.025, which rounds to 0
    cfg = _write_config(tmp_path, ZUBOV_CONFIG.replace(*edit))
    assert main(["zubov", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: zubov certificate horizon"), lines
    assert sorted(out.iterdir()) == written
    # a Lyapunov run of horizon 0 is still valid
    path = tmp_path / "lyapunov.ini"
    path.write_text(LINEAR_CONFIG.replace("mode = lyapunov", "mode = lyapunov\nhorizon = 0"))
    assert load_config(path).certificate.horizon == 0


def test_cli_lyapunov_with_time_exits_1_before_writing(tmp_path, capsys):
    # build_lyapunov reads horizon alone, so a time would be silently ignored
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    for command in ("sample", "fit"):
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    written = sorted(out.iterdir())
    cfg = _write_config(tmp_path, LINEAR_CONFIG.replace("mode = lyapunov", "mode = lyapunov\ntime = 2.0"))
    assert main(["lyapunov", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: [certificate] time"), lines
    assert "Lyapunov run takes horizon" in lines[0]
    assert sorted(out.iterdir()) == written


def test_cli_lyapunov_of_a_damped_model_exits_1_before_writing(tmp_path):
    # the series of a zubov run's damped fit is not the flow's Lyapunov function
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, ZUBOV_CONFIG)
    for command in ("sample", "fit"):
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
    written = sorted(out.iterdir())
    line = _cli_error_line(1, "lyapunov", "--config", cfg, "--out", str(out), "--quiet")
    assert line == "error: the Lyapunov series needs a plain fit, not a zubov-mode one"
    assert sorted(out.iterdir()) == written


def test_config_refuses_unknown_sections_and_keys(tmp_path):
    path = tmp_path / "run.ini"
    for text in (LINEAR_CONFIG, ZUBOV_CONFIG, EXAMPLE1_CONFIG, EXAMPLE2_CONFIG):
        path.write_text(text)
        load_config(path)
    for edit, named in (
        (("beta_scale = 0.01", "beta_sclae = 0.5"), "'beta_sclae' in [rrr]"),
        # the series is the model's full sum, so there is no tolerance to set
        (("mode = lyapunov", "mode = lyapunov\ntol = 1e-6"), "'tol' in [certificate]"),
        (("[certificate]", "[certficate]"), "[certficate]"),
        (("[sampling]", "[DEFAULT]\nm = 60\n\n[sampling]"), "[DEFAULT]"),
    ):
        path.write_text(EXAMPLE1_CONFIG.replace(*edit))
        with pytest.raises(InvalidInputError, match="unknown") as exc:
            load_config(path)
        assert named in str(exc.value)


@pytest.mark.parametrize(
    "argv, edit, text",
    [
        (["sample"], ("seed = 3", "seed = -3"), "seed must be nonnegative, got -3"),
        (["reproduce", "example1", "--seed", "-1"], None, "seed must be nonnegative, got -1"),
        (["sample"], ("rank = 8", "rank = 8\nbeta_sclae = 0.5"), "unknown key 'beta_sclae' in [rrr]"),
        (
            ["sample"],
            ("mode = lyapunov", "mode = lyapunov\ndelta = nan"),
            "'delta' in [certificate]: 'nan' is not a finite",
        ),
        (["sample"], ("mode = lyapunov", "mode = lyapunov\nnu = nan"), "'nu' in [certificate]: 'nan' is not"),
        (
            ["sample"],
            ("mode = lyapunov", "mode = lyapunov\nvarsigma = inf"),
            "'varsigma' in [certificate]: 'inf' is not a finite",
        ),
        (["sample"], ("dt = 1.0", "dt = nan"), "'dt' in [sampling]: 'nan' is not a finite"),
        (
            ["sample"],
            ("mode = lyapunov", "mode = zubov\nhorizon = 40\ntime = 0.15"),
            "sets both horizon and time; give one of them",
        ),
        # the reader takes key=value lines as written: no case folding, no ':' and no continuation
        (["sample"], ("m = 60", "M = 60"), "unknown key 'M' in [sampling]"),
        (["sample"], ("m = 60", "m: 60"), "expected key=value, got 'm: 60'"),
        (["sample"], ("gamma = 4.0", "gamma =\n    4.0"), "expected key=value, got '4.0'"),
        (
            ["sample"],
            ("[rrr]", "[eta]\nscale = 0.5\n\n[rrr]"),
            "a zubov run needs an [eta] section and a Lyapunov run takes none",
        ),
        (["sample"], None, "the following arguments are required: --config"),
        (["sample", "--config", "x", "--seed", "abc"], None, "argument --seed: invalid int value: 'abc'"),
        (["frobnicate"], None, "invalid choice: 'frobnicate'"),
    ],
    ids=[
        "config-seed",
        "reproduce-seed",
        "config-key-misspelled",
        "delta-nan",
        "nu-nan",
        "varsigma-inf",
        "dt-nan",
        "zubov-horizon-and-time",
        "key-uppercase",
        "key-colon",
        "value-continuation-line",
        "lyapunov-with-eta",
        "usage-config-missing",
        "usage-seed-not-an-int",
        "usage-unknown-command",
    ],
)
def test_cli_refused_setting_exits_1_with_one_error_line(tmp_path, argv, edit, text):
    if edit is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(LINEAR_CONFIG.replace(*edit))
        argv = [*argv, "--config", str(cfg)]
    assert text in _cli_error_line(1, *argv, "--out", str(tmp_path / "out"), "--quiet")


def test_zubov_steps_resolution():
    assert CertificateConfig(mode="zubov", time=0.15).zubov_steps(0.025) == 6
    with pytest.raises(InvalidInputError, match="both horizon"):
        CertificateConfig(mode="zubov", horizon=4, time=0.15)
    with pytest.raises(InvalidInputError):
        CertificateConfig(mode="zubov").zubov_steps(0.025)


def _write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def _spy_reports(monkeypatch) -> list:
    """The BoundReports that the CLI writes from now on, in order."""
    written = []

    def spy(report, path, series=None):
        written.append(report)
        write_report(report, path, series)

    monkeypatch.setattr(koopcert.cli, "write_report", spy)
    return written


# The sources a [certified_by] entry may name (README, "Report files")
SOURCES = {"run input", "closed form on the fit", "plug-in", "held-out sample", "simulation of the known system"}


def _assert_ledger(path, report=None) -> configparser.ConfigParser:
    """A report or doa file as a stock ConfigParser reads it, after checking
    that [certified_by] names a declared source for exactly its numbers,
    that each number a source uses is in the file, and that each [bounds]
    value is fmt of report's field, every number of report being in the file."""
    cp = configparser.ConfigParser()
    cp.read(path)
    numbers = {"mu_table"} if cp.has_section("mu_table") else set()
    for section in set(cp.sections()) - {"certified_by", "mu_table"}:
        numbers.update(cp[section])
    assert set(cp["certified_by"]) == numbers
    for entry in cp["certified_by"].values():
        source, _, uses = entry.partition("; uses ")
        assert source in SOURCES
        assert set(uses.split(", ")) - {""} <= numbers, entry
    if report is not None:
        reported = {f.name for f in dataclasses.fields(report) if getattr(report, f.name) is not None}
        assert set(cp["inputs"]) | set(cp["bounds"]) == reported
        for key, value in cp["bounds"].items():
            assert value == fmt(getattr(report, key))
    return cp


def test_cli_lyapunov_pipeline(tmp_path, capsys, monkeypatch):
    reports = _spy_reports(monkeypatch)
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
    report = _assert_ledger(tmp_path / "out" / "report.txt", reports[-1])
    assert set(report["series"]) == {"horizon", "tail_bound"}
    assert main(["report", "--config", cfg, "--out", out]) == 0
    report = _assert_ledger(tmp_path / "out" / "report.txt", reports[-1])
    assert report.has_option("bounds", "heldout_risk") and not report.has_section("series")
    grid = (tmp_path / "out" / "lyapunov_grid.csv").read_text().strip().split("\n")
    assert len(grid) == 1 + 5 * 5


def test_cli_lyapunov_configured_horizon_is_a_run_input(tmp_path):
    # the full series' term count comes from the fit; a configured horizon is the run's
    out = str(tmp_path / "out")
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    for cmd in ("sample", "fit"):
        assert main([cmd, "--config", cfg, "--out", out, "--quiet"]) == 0
    for extra, source in (("", "closed form on the fit"), ("\nhorizon = 20", "run input")):
        cfg = _write_config(tmp_path, LINEAR_CONFIG.replace("mode = lyapunov", "mode = lyapunov" + extra))
        assert main(["lyapunov", "--config", cfg, "--out", out, "--quiet"]) == 0
        report = _assert_ledger(tmp_path / "out" / "report.txt")
        assert report["certified_by"]["horizon"] == source
        assert report["certified_by"]["tail_bound"] == "closed form on the fit; uses horizon"
    assert report["series"]["horizon"] == "20"


def test_cli_zubov_pipeline(tmp_path, monkeypatch):
    reports = _spy_reports(monkeypatch)
    cfg = _write_config(tmp_path, ZUBOV_CONFIG)
    out = str(tmp_path / "out")
    assert main(["sample", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["fit", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["zubov", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert (tmp_path / "out" / "zubov_grid.csv").exists()
    assert _assert_ledger(tmp_path / "out" / "report.txt", reports[-1]).has_option("bounds", "zubov_const")


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


def test_cli_lyapunov_of_expanding_data_exits_3_with_one_error_line(tmp_path, capsys):
    # at dt = 5 the example1 map expands the weight along the sampled pairs,
    # which no ridge repairs: the refusal says so in one line and gives no advice
    cfg = _write_config(tmp_path, EXAMPLE1_CONFIG.replace("dt = 0.05", "dt = 5"))
    out = str(tmp_path / "out")
    for command in ("sample", "fit"):
        assert main([command, "--config", cfg, "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    assert main(["lyapunov", "--config", cfg, "--out", out, "--quiet"]) == 3
    lines = capsys.readouterr().err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("error: the sampled map expands the weight"), lines
    assert "observed decay ratio 3024.76" in lines[0] and "beta" not in lines[0], lines


@pytest.mark.parametrize("name, value, text", [("STEP_CAP", 5, "hit the step cap 5"), ("GUARD_RADIUS", 1.0, "escaped")])
def test_cli_lyapunov_oracle_failure_exits_3_and_says_why(tmp_path, capsys, monkeypatch, name, value, text):
    monkeypatch.setattr(koopcert.dynsys, name, value)
    assert main(["reproduce", "example1", "--out", str(tmp_path / "o"), "--quiet"]) == 3
    lines = capsys.readouterr().err.strip().split("\n")
    assert lines[-1].startswith("error: ") and text in lines[-1], lines
    assert not (tmp_path / "o" / "lyapunov_oracle_grid.csv").exists()


def _edited_model(edit, m=10):
    """Report on the reference model file after a text edit."""

    def prepare(tmp_path):
        _, _, model = linear_model(a=0.5, m=m, rank=3, seed=4)
        path = tmp_path / "model.txt"
        write_model(model, path)
        path.write_text(edit(path.read_text()))
        return ["report", str(path)]

    return prepare


def _norm_bound(value_of):
    """Store the norm bound value_of(the stored operator norm)."""

    def edit(text):
        op_norm = float(re.search(r"^op_norm=(.*)$", text, flags=re.M).group(1))
        return re.sub(r"^norm_bound=.*$", f"norm_bound={fmt(value_of(op_norm))}", text, flags=re.M)

    return edit


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


def _report_on_dataset(tmp_path):
    """Report on a dataset file given as the model file."""
    ds, _, _ = linear_model(a=0.5, m=10, rank=3, seed=4)
    write_dataset(ds, tmp_path / "dataset.csv")
    return ["report", str(tmp_path / "dataset.csv")]


def _out_blocked(under_file):
    """Sample into an --out that is an existing file, or a directory under one."""

    def prepare(tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return ["sample", "--out", str(blocker / "sub" if under_file else blocker)]

    return prepare


def _dataset_with_eta_column(tmp_path):
    """Fit a dataset in the old format, with an eta column after the pairs."""
    ds, _, _ = linear_model(a=0.5, m=10, rank=3, seed=4)
    eta = 0.5 * np.sum(ds.X * ds.X, axis=1)
    _write_rows(tmp_path / "dataset.csv", "x1,x2,y1,y2,eta", np.column_stack([ds.X, ds.Y, eta]))
    return ["fit", str(tmp_path / "dataset.csv")]


def _dataset_with_meta(edit):
    """Fit a reference dataset (m=10, dim=2, dt=1) after a text edit of its .meta sidecar."""

    def prepare(tmp_path):
        ds, _, _ = linear_model(a=0.5, m=10, rank=3, seed=4)
        write_dataset(ds, tmp_path / "dataset.csv")
        meta = tmp_path / "dataset.csv.meta"
        meta.write_text(edit(meta.read_text()))
        return ["fit", str(tmp_path / "dataset.csv")]

    return prepare


def _config_bytes(data):
    """Sample with a config file holding the given bytes (a later --config wins)."""

    def prepare(tmp_path):
        path = tmp_path / "bad.ini"
        path.write_bytes(data)
        return ["sample", "--config", str(path)]

    return prepare


@pytest.mark.parametrize(
    "prepare, reason",
    [
        (
            _edited_model(lambda text: re.sub(r"^beta=.*$", "beta=abc", text, flags=re.M)),
            "has a bad 'beta' in [meta]",
        ),
        (
            _edited_model(lambda text: re.sub(r"^rank=.*\n", "", text, flags=re.M)),
            "lacks the required key 'rank' in [meta]",
        ),
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
            _edited_model(_norm_bound(lambda op_norm: op_norm * (1 - 1e-9))),
            "below its operator norm",
        ),
        # above the operator norm 0.61, below max_i L_ii / (beta m) = 14.3
        (_edited_model(_norm_bound(lambda op_norm: 1.0)), "below max_i L_ii / (beta m)"),
        (
            _edited_model(lambda text: re.sub(r"(\[U\]\n)[^,]*", r"\g<1>1e999", text)),
            "has non-finite U entries",
        ),
        (_report_on_dataset, "malformed model file"),
        (
            _edited_model(lambda text: re.sub(r"^m=.*$", "m=11", text, flags=re.M)),
            "arrays disagree with the declared sizes",
        ),
        (
            _edited_model(lambda text: text.replace("mode=koopman", "mode=zubov")),
            "does not match its [eta] section",
        ),
        (
            _edited_model(lambda text: re.sub(r"^beta=.*$", "beta=-1", text, flags=re.M)),
            "beta must be positive",
        ),
        (
            _edited_model(lambda text: text.replace("[meta]\n", "[meta]\nrank 3\n")),
            "expected key=value, got 'rank 3'",
        ),
        (
            _edited_model(lambda text: text.replace("[kernel]\n", "[kernel]\ngamma\n")),
            "expected key=value, got 'gamma'",
        ),
        (
            _edited_model(lambda text: text.replace("# koopcert model v2\n", "# koopcert model v2\nstray\n")),
            "malformed model file",
        ),
        (_edited_model(lambda text: text + "[meta]\nm=10\n"), "malformed model file"),
        (
            _edited_model(lambda text: re.sub(r"^(beta=.*)$", r"\1\n\1", text, flags=re.M)),
            "malformed model file",
        ),
        (_edited_model(lambda text: text + "[bogus]\nfoo=1\n"), "unknown section [bogus]"),
        # 300 anchors, so the Grams span more than one block
        (
            _edited_model(_overflowing_weight, m=300),
            "does not rebuild: overflow encountered in multiply",
        ),
        (_dataset_with_eta_column, "has the header 'x1,x2,y1,y2,eta'"),
        (_dataset_with_meta(lambda _: "[dataset]\nseed = abc\n"), "has a bad 'seed' in [dataset]"),
        (_dataset_with_meta(lambda _: "seed = 4\n"), "malformed dataset metadata"),
        (_dataset_with_meta(lambda _: "[dataset]\nseed\n"), "malformed dataset metadata"),
        (_dataset_with_meta(lambda text: text.replace("m=10", "m=7")), "says m=7, dim=2, but"),
        (_dataset_with_meta(lambda text: text.replace("dim=2", "dim=5")), "says m=10, dim=5, but"),
        (_dataset_with_meta(lambda text: text + "bogus=1\n"), "unknown key 'bogus' in [dataset]"),
        (_dataset_with_meta(lambda text: text + "[other]\nm=10\n"), "unknown section [other]"),
        (
            _dataset_with_meta(lambda text: text.replace("dt=1\n", "dt=0.5\n")),
            "was sampled at dt=0.5, but the config has dt=1.0",
        ),
        (_config_bytes(b"[system]\nkind = ex\xff\xfe\n"), "cannot read config"),
        (_config_bytes(b"kind = example1\n"), "malformed config"),
        (_config_bytes(b"[system]\nkind\n"), "malformed config"),
        (_out_blocked(under_file=False), "cannot write output"),
        (_out_blocked(under_file=True), "cannot write output"),
    ],
    ids=[
        "model-beta-not-a-number",
        "model-rank-missing",
        "model-path-missing",
        "dataset-path-missing",
        "model-v1",
        "model-risk-tampered",
        "model-norm-bound-off-1e-9",
        "model-norm-bound-below-the-largest-diagonal",
        "model-U-infinite",
        "model-is-a-dataset",
        "model-sizes-disagree",
        "model-mode-disagrees-with-eta",
        "model-beta-negative",
        "model-meta-line-not-key-value",
        "model-kernel-line-not-key-value",
        "model-line-before-first-section",
        "model-section-repeated",
        "model-key-repeated",
        "model-unknown-section",
        "model-weight-overflows",
        "dataset-with-eta-column",
        "dataset-meta-malformed",
        "dataset-meta-no-section-header",
        "dataset-meta-parsing-error",
        "dataset-meta-m-disagrees",
        "dataset-meta-dim-disagrees",
        "dataset-meta-unknown-key",
        "dataset-meta-extra-section",
        "dataset-sampled-at-another-dt",
        "config-not-utf8",
        "config-no-section-header",
        "config-parsing-error",
        "out-is-a-file",
        "out-under-a-file",
    ],
)
def test_cli_bad_input_file_exits_1_with_one_error_line(tmp_path, prepare, reason):
    cfg = _write_config(tmp_path, LINEAR_CONFIG)
    # the last argument is the path the error line must name; a later --out wins
    command, *extra, path = prepare(tmp_path)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet", *extra, path]
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


@pytest.mark.parametrize(
    "example, written",
    [
        ("example1", ("lyapunov_grid.csv", "lyapunov_oracle_grid.csv", "observables.csv")),
        ("example2", ("zubov_grid.csv", "zubov_oracle_grid.csv", "doa.txt")),
    ],
    ids=["example1", "example2"],
)
def test_cli_reproduce_smoke(tmp_path, monkeypatch, example, written):
    reports = _spy_reports(monkeypatch)
    out = tmp_path / "repro"
    assert main(["reproduce", example, "--out", str(out), "--quiet"]) == 0
    for name in ("config.ini", "dataset.csv", "dataset.csv.meta", "model.txt", "report.txt", *written):
        assert (out / name).exists()
    assert (out / "report.txt").read_text().startswith("# koopcert report v1\n")
    report = _assert_ledger(out / "report.txt", reports[-1])
    assert report.has_section("series") == (example == "example1")
    if example == "example2":
        assert (out / "doa.txt").read_text().startswith("# koopcert doa v1\n")
        assert _assert_ledger(out / "doa.txt")["certified_by"]["a_star"].startswith("simulation")


def test_cli_zubov_fit_of_a_plain_sample_equals_reproduce(tmp_path):
    # sampling does not read eta: pairs drawn under a plain copy of example2's
    # config fit under the zubov config to reproduce's model, byte for byte
    plain = re.sub(r"\[eta\]\n.*?\n\n", "", EXAMPLE2_CONFIG, flags=re.S)
    plain = plain.replace("mode = zubov", "mode = lyapunov").replace("time = 0.15\n", "")
    assert "[eta]" not in plain and "zubov" not in plain and "time" not in plain
    (tmp_path / "plain.ini").write_text(plain)
    (tmp_path / "zubov.ini").write_text(EXAMPLE2_CONFIG)
    staged, repro = str(tmp_path / "staged"), tmp_path / "repro"
    assert main(["sample", "--config", str(tmp_path / "plain.ini"), "--out", staged, "--quiet"]) == 0
    assert main(["fit", "--config", str(tmp_path / "zubov.ini"), "--out", staged, "--quiet"]) == 0
    assert main(["reproduce", "example2", "--out", str(repro), "--quiet"]) == 0
    for name in ("dataset.csv", "model.txt"):
        assert (tmp_path / "staged" / name).read_bytes() == (repro / name).read_bytes(), name


def test_cli_fit_of_example1_writes_no_stderr(tmp_path, capsys):
    # the fitted op norm is 1.025 while the series certifies (rho(H) = 0.930)
    cfg = _write_config(tmp_path, EXAMPLE1_CONFIG)
    out = str(tmp_path / "out")
    assert main(["sample", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert main(["fit", "--config", cfg, "--out", out, "--quiet"]) == 0
    assert capsys.readouterr().err == ""


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
