"""End-to-end acceptance checks, one test per release criterion.

Every test measures first, records its verdict line through the acceptance
fixture, and only then asserts, so a full run always prints one line per
criterion in the terminal summary. Tolerances are part of the contract and
must not be loosened.
"""

import time

import numpy as np

from koopcert import (
    DomainSpec,
    RRRConfig,
    SnapshotDataset,
    SystemSpec,
    bound_report,
    build_lyapunov,
    build_zubov,
    check_decay_ratio,
    fit_koopman,
    generalization_bound,
    gram,
    heldout_risk,
    lyapunov_error_bound,
    lyapunov_grid_values,
    lyapunov_values,
    make_dataset,
    regular_grid,
    step,
    zubov_error_bound,
    zubov_values,
)
from koopcert.cli import main
from koopcert.dynsys import oracle_zubov_batch

from helpers import (
    dense_grams,
    dense_pencil_topr,
    dense_theta,
    factored_objective,
    example1_model,
    example2_model,
    fit_pencil_eig,
    kw_gaussian,
    linear_lyapunov_truth,
    linear_model,
    model_matrix,
    mp_generalization_bound,
    normalize_columns,
    ring_points,
    theta_from_factors,
)


def test_criterion_01_single_pair_closed_form(acceptance):
    kw = kw_gaussian()
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        x1 = rng.uniform(0.3, 1.5, size=1)
        y1 = rng.uniform(0.3, 1.5, size=1)
        beta = float(rng.uniform(0.01, 1.0))
        ds = SnapshotDataset(X=x1[None, :], Y=y1[None, :], dt=1.0, seed=0)
        model = fit_koopman(ds, kw, RRRConfig(rank=1, beta=beta))
        expect = 1.0 / (gram(kw, x1, x1)[0, 0] + beta)
        worst = max(worst, abs(float(dense_theta(model)[0, 0]) - expect))
    elapsed = time.perf_counter() - t0
    acceptance(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"max |theta - closed form| = {worst:.3g}, {elapsed:.2f}s",
    )


def _planted_pencil(rng, m: int):
    A = rng.standard_normal((m, m))
    B = A @ A.T + m * np.eye(m)
    Lc = np.linalg.cholesky(B)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = np.sort(rng.uniform(0.1, 3.0, m))[::-1]
    M = Lc @ (Q * lam) @ Q.T @ Lc.T
    M = 0.5 * (M + M.T)
    return M, B, lam


def test_criterion_02_pencil_recovery(acceptance):
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_eig, worst_res = 0.0, 0.0
    for _ in range(50):
        m = int(rng.integers(2, 51))
        r = int(rng.integers(1, m + 1))
        M, B, lam = _planted_pencil(rng, m)
        vals, _, V = fit_pencil_eig(M, B, r)
        worst_eig = max(worst_eig, float(np.max(np.abs(vals - lam[:r]))))
        scale = np.linalg.norm(M) + np.linalg.norm(B)
        V = V / np.linalg.norm(V, axis=0)[None, :]
        res = M @ V - B @ V * vals[None, :]
        worst_res = max(worst_res, float(np.max(np.linalg.norm(res, axis=0))) / scale)
    elapsed = time.perf_counter() - t0
    acceptance(
        2,
        worst_eig <= 1e-8 and worst_res <= 1e-8 and elapsed < 10.0,
        f"max eig err = {worst_eig:.3g}, max rel residual = {worst_res:.3g}, {elapsed:.2f}s",
    )


def test_criterion_03_operator_norm_bound(acceptance):
    margin = -np.inf
    for model in model_matrix():
        margin = max(margin, model.diagnostics.op_norm - model.diagnostics.norm_bound)
    acceptance(3, margin <= 1e-8, f"max (op_norm - bound) = {margin:.3g} over 12 fits")


def test_criterion_04_contraction_premise(acceptance):
    kw = kw_gaussian()
    t0 = time.perf_counter()
    ds = make_dataset(
        SystemSpec(kind="example1"), DomainSpec.ball(2.0), 10_000, 0.05, 7, kw.weight
    )
    alpha = check_decay_ratio(ds.X, ds.Y, kw.weight)
    elapsed = time.perf_counter() - t0
    acceptance(
        4,
        alpha < 1.0 and elapsed < 30.0,
        f"alpha_hat = {alpha:.6f} on 10^4 samples, {elapsed:.2f}s",
    )


def test_criterion_05_perturbations_never_improve(acceptance):
    worst = np.inf
    for idx, model in enumerate(model_matrix()):
        m = len(model)
        K, L = dense_grams(model)[:2]
        _, U = dense_pencil_topr((L @ K) / (m * m), K / m + model.beta * np.eye(m), model.rank)
        U = normalize_columns(U, K, model.beta)
        np.testing.assert_allclose(
            theta_from_factors(U, K), dense_theta(model), atol=1e-10
        )
        obj0 = factored_objective(model, model.U)
        rng = np.random.default_rng(5000 + idx)
        for _ in range(100):
            U_p = U + 1e-3 * rng.standard_normal(U.shape)
            obj_p = factored_objective(model, U_p)
            worst = min(worst, obj_p - obj0)
    acceptance(
        5,
        worst >= -1e-9,
        f"min objective change over 1200 perturbations = {worst:.3g}",
    )


def test_criterion_06_lyapunov_oracle_agreement(acceptance):
    t0 = time.perf_counter()
    ds, kw, model = linear_model(a=0.5, m=200, rank=20, seed=6)
    est = build_lyapunov(model)
    pts = ring_points(100, 0.5, 1.5, seed=123)
    v_hat = lyapunov_values(est, pts)
    v_true = linear_lyapunov_truth(pts, 0.5)
    rel = float(np.mean(np.abs(v_hat - v_true) / v_true))
    heldout = make_dataset(
        SystemSpec(kind="linear-contraction", a=0.5), DomainSpec.ball(2.0), 200, 1.0, 1006, kw.weight
    )
    report = bound_report(model, delta=0.05, heldout=heldout)
    bound = lyapunov_error_bound(report.alpha_plug, 1.0, report.heldout_risk)
    mae = float(np.mean(np.abs(v_hat - v_true)))
    elapsed = time.perf_counter() - t0
    acceptance(
        6,
        rel <= 0.15 and mae <= bound and elapsed < 120.0,
        f"mean rel err = {rel:.4f}, MAE = {mae:.4f} vs bound {bound:.4f}, {elapsed:.1f}s",
    )


def test_criterion_07_sinusoidal_system_certificate(acceptance):
    t0 = time.perf_counter()
    _, _, model = example1_model()
    est = build_lyapunov(model)
    grid = regular_grid(DomainSpec.ball(2.0), 101)
    coords, vals = grid.coords(), lyapunov_grid_values(est, grid)
    rad = np.linalg.norm(coords, axis=1)
    positive = bool(np.all(vals[rad > 0.25] > 0.0))
    mapped = step(SystemSpec(kind="example1"), coords, 0.05)
    vals_next = lyapunov_values(est, mapped)
    ring = (rad >= 0.5) & (rad <= 1.8)
    frac = float(np.mean(vals_next[ring] < vals[ring]))
    elapsed = time.perf_counter() - t0
    acceptance(
        7,
        positive and frac >= 0.90 and elapsed < 300.0,
        f"positive everywhere outside 0.25: {positive}, "
        f"decrease fraction = {frac:.4f} on {int(ring.sum())} ring points, {elapsed:.1f}s",
    )


def _region_samples(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = []
    while sum(len(b) for b in out) < n:
        draw = rng.uniform(-2.0, 2.0, (2000, 2))
        out.append(draw[draw[:, 0] * draw[:, 1] >= 2.0])
    return np.concatenate(out)[:n]


def test_criterion_08_non_attracting_region_suppressed(acceptance):
    t0 = time.perf_counter()
    _, _, _, model = example2_model()
    est = build_zubov(model, 6, nu=1.0, varsigma=0.1)
    inside_r = _region_samples(200, seed=88)
    ring = ring_points(200, 0.2, 0.6, seed=99)
    mean_r = float(np.mean(zubov_values(est, inside_r)))
    mean_ring = float(np.mean(zubov_values(est, ring)))
    elapsed = time.perf_counter() - t0
    acceptance(
        8,
        mean_r <= 0.2 * mean_ring and elapsed < 300.0,
        f"mean in invariant region = {mean_r:.5f}, "
        f"mean on ring = {mean_ring:.5f}, ratio = {mean_r / mean_ring:.3f}, {elapsed:.1f}s",
    )


def test_criterion_09_excess_risk_formula_and_coverage(acceptance):
    t0 = time.perf_counter()
    worst_rel = 0.0
    for m in (50, 100, 500, 2000, 100_000):
        for gamma in (0.5, 2.0):
            for r in (5, 50):
                got = generalization_bound(m, gamma, r, 0.05)
                ref = mp_generalization_bound(m, gamma, r, 0.05)
                worst_rel = max(worst_rel, abs(got - ref) / ref)
    kw = kw_gaussian()
    sys = SystemSpec(kind="linear-contraction", a=0.5)
    dom = DomainSpec.ball(2.0)
    violations = 0
    for seed in range(50):
        ds = make_dataset(sys, dom, 100, 1.0, seed, kw.weight)
        model = fit_koopman(ds, kw, RRRConfig(rank=10))
        heldout = make_dataset(sys, dom, 100, 1.0, seed + 1000, kw.weight)
        bound = model.diagnostics.risk + generalization_bound(
            100, model.diagnostics.hs_norm, 10, 0.05
        )
        if heldout_risk(model, heldout) > bound:
            violations += 1
    elapsed = time.perf_counter() - t0
    acceptance(
        9,
        worst_rel <= 1e-10 and violations <= 2 and elapsed < 300.0,
        f"max formula rel err = {worst_rel:.3g}, "
        f"coverage violations = {violations}/50, {elapsed:.1f}s",
    )


def test_criterion_10_damped_value_error_within_bound(acceptance):
    t0 = time.perf_counter()
    ds, kw, eta, model = example2_model()
    rng = np.random.default_rng(77)
    pts = rng.uniform(-2.0, 2.0, (200, 2))
    heldout = make_dataset(
        SystemSpec(kind="example2"),
        DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0)),
        500,
        0.025,
        43,
        kw.weight,
    )
    report = bound_report(model, delta=0.05, heldout=heldout, nu=1.0, varsigma=0.1)
    details = []
    ok = True
    for t in (1, 3, 6):
        est = build_zubov(model, t, nu=1.0, varsigma=0.1)
        z_hat = zubov_values(est, pts)
        z_true = oracle_zubov_batch(
            SystemSpec(kind="example2"), kw.weight, eta, pts, 0.025, t, 1.0, 0.1
        )
        mae = float(np.mean(np.abs(z_hat - z_true)))
        bound = zubov_error_bound(t, report.alpha_plug, report.heldout_risk, 1.0, 0.1)
        ok = ok and mae <= bound
        details.append(f"t={t}: MAE {mae:.4f} vs bound {bound:.2f}")
    elapsed = time.perf_counter() - t0
    acceptance(10, ok and elapsed < 180.0, "; ".join(details) + f", {elapsed:.1f}s")


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def test_criterion_11_truncation_tail_and_determinism(acceptance, tmp_path):
    worst_excess = -np.inf
    for model in (example1_model()[2], linear_model(a=0.5, m=200, rank=20, seed=6)[2]):
        est = build_lyapunov(model)
        longer = build_lyapunov(model, horizon=est.horizon + 10)
        rng = np.random.default_rng(555)
        pts = rng.uniform(-1.0, 1.0, (50, 2)) * 2.0
        gap = np.abs(lyapunov_values(est, pts) - lyapunov_values(longer, pts))
        worst_excess = max(worst_excess, float(np.max(gap)) - est.tail_bound)
    tail_ok = worst_excess <= 1e-15

    identical = True
    for example in ("example1", "example2"):
        d1, d2 = tmp_path / f"{example}-a", tmp_path / f"{example}-b"
        assert main(["reproduce", example, "--out", str(d1), "--quiet"]) == 0
        assert main(["reproduce", example, "--out", str(d2), "--quiet"]) == 0
        identical = identical and _dir_bytes(d1) == _dir_bytes(d2)
    acceptance(
        11,
        tail_ok and identical,
        f"max (tail gap - bound) = {worst_excess:.3g}, reruns byte-identical: {identical}",
    )
