"""Series certificates, closed-form bounds, and basin thresholds."""

import dataclasses
import math

import numpy as np
import pytest

from koopcert import certificates
from koopcert.eigsolve import stein_solve
from koopcert import (
    ContractionViolatedError,
    DomainSpec,
    EtaSpec,
    InvalidInputError,
    RRRConfig,
    SystemSpec,
    WeightSpec,
    accumulated_costs,
    bound_report,
    build_lyapunov,
    build_zubov,
    c_nu,
    concentration_epsilons,
    doa_level_threshold,
    doa_levels,
    estimate_doa,
    fit_koopman,
    generalization_bound,
    lyapunov_error_bound,
    lyapunov_grid_values,
    lyapunov_values,
    make_dataset,
    regular_grid,
    sample_uniform,
    step,
    weight_values,
    zubov_error_bound,
    zubov_grid_values,
    zubov_values,
)

from helpers import (
    dense_forward_coeffs,
    dense_lyapunov_value,
    example1_model,
    example2_model,
    kw_gaussian,
    linear_lyapunov_truth,
    linear_model,
    mp_generalization_bound,
    ring_points,
    traced_peak,
)


def _series_sum(model, horizon):
    """sum_{t < horizon} (H')^t Q H^t, term by term."""
    P, S = np.zeros_like(model.Q), model.Q
    for _ in range(horizon):
        P = P + S
        S = model.H.T @ S @ model.H
    return P


def test_build_lyapunov_contractive_fit():
    # an explicit horizon is the finite sum, and its tail bound the largest
    # eigenvalue of the exact rest (H^T)' P_inf H^T
    _, _, model = linear_model(0.5, 200, 20, 11)
    assert model.diagnostics.op_norm < 1.0
    full = build_lyapunov(model)
    for horizon in (0, 3, 50):
        est = build_lyapunov(model, horizon=horizon)
        assert est.horizon == horizon
        S = _series_sum(model, horizon)
        assert np.linalg.norm(est.P - S, 2) <= 1e-13 * np.linalg.norm(full.P, 2)
        rest = np.linalg.eigvalsh(full.P - S)[-1]
        assert abs(est.tail_bound - rest) <= 1e-13 * np.linalg.norm(full.P, 2)
    # the doubling stops once |H^T|_F^2 <= eps, so the rest is below rounding in P
    assert full.tail_bound <= np.finfo(float).eps * np.linalg.norm(full.P, 2)


def test_build_lyapunov_is_the_full_stein_sum():
    # example1's fitted norm is 1.025 but rho(H) = 0.930, so the series
    # converges; 430 terms (where a geometric horizon stopped) already reach it
    _, _, model = example1_model()
    assert model.diagnostics.op_norm > 1.0
    est = build_lyapunov(model)
    P, terms = stein_solve(model.H, model.Q)
    assert np.array_equal(est.P, P) and est.horizon == terms
    loop = dataclasses.replace(est, P=_series_sum(model, 430))
    pts = ring_points(40, 0.3, 1.8, seed=4)
    np.testing.assert_allclose(lyapunov_values(est, pts), lyapunov_values(loop, pts), rtol=1e-12)
    assert est.tail_bound <= np.finfo(float).eps * np.linalg.norm(est.P, 2)


def test_build_lyapunov_refuses_a_spectral_radius_of_one_or_more():
    _, _, model = linear_model(0.5, 200, 20, 11)
    rho = np.max(np.abs(np.linalg.eigvals(model.H)))
    planted = dataclasses.replace(model, H=model.H * (1.05 / rho))
    with pytest.raises(ContractionViolatedError, match=r"rho\(H\) = 1\.05; raise beta \(rrr\.beta_scale\)"):
        build_lyapunov(planted)


@pytest.mark.parametrize(
    "horizon", [-3, -1, 2.5, 12.0, "12"], ids=["negative", "minus-one", "fractional", "float", "string"]
)
def test_build_lyapunov_refuses_a_bad_horizon(horizon):
    _, _, model = linear_model(0.5, 200, 20, 11)
    with pytest.raises(InvalidInputError, match="horizon"):
        build_lyapunov(model, horizon=horizon)


def test_build_lyapunov_refuses_expanding_anchors():
    # hand-expanded pairs: both the fitted norm and the observed ratio
    # exceed one, so no geometric envelope exists
    from koopcert import RRRConfig, SnapshotDataset, fit_koopman

    from helpers import kw_gaussian

    rng = np.random.default_rng(13)
    X = rng.uniform(-1.0, 1.0, size=(30, 2))
    ds = SnapshotDataset(X=X, Y=2.0 * X, dt=1.0, seed=13)
    kw = kw_gaussian()
    model = fit_koopman(ds, kw, RRRConfig(rank=8))
    with pytest.raises(ContractionViolatedError, match="the sampled map expands the weight"):
        build_lyapunov(model)


def test_lyapunov_batch_matches_scalar():
    _, _, model = linear_model(0.5, 200, 20, 11)
    est = build_lyapunov(model)
    pts = ring_points(7, 0.4, 1.6, seed=2)
    batch = lyapunov_values(est, pts)
    for i, p in enumerate(pts):
        np.testing.assert_allclose(lyapunov_values(est, p[None, :])[0], batch[i], rtol=1e-10)


def test_lyapunov_series_matches_term_recursion():
    _, _, model = linear_model(0.5, 200, 20, 11)
    est = build_lyapunov(model, horizon=12)
    x = np.array([0.9, -0.2])
    np.testing.assert_allclose(
        lyapunov_values(est, x[None, :])[0], dense_lyapunov_value(model, x, 12), rtol=1e-10
    )
    # the r x r series form against the dense theta recursion, on the plain
    # reference fits (build_lyapunov refuses a damped one)
    for ref in (linear_model(0.5, 40, 6, 3)[2], example1_model()[2]):
        for horizon in (1, 12, 60):
            est = build_lyapunov(ref, horizon=horizon)
            for p in ring_points(3, 0.3, 1.8, seed=horizon):
                np.testing.assert_allclose(
                    lyapunov_values(est, p[None, :])[0],
                    dense_lyapunov_value(ref, p, horizon),
                    rtol=1e-12,
                )


def test_lyapunov_close_to_linear_truth():
    _, _, model = linear_model(0.5, 200, 20, 11)
    est = build_lyapunov(model)
    pts = ring_points(50, 0.5, 1.5, seed=5)
    vals = lyapunov_values(est, pts)
    truth = linear_lyapunov_truth(pts, 0.5)
    rel = np.abs(vals - truth) / truth
    assert float(np.mean(rel)) <= 0.10


def test_build_zubov_requires_damped_fit():
    _, _, model = linear_model(0.5, 200, 20, 11)
    with pytest.raises(InvalidInputError):
        build_zubov(model, steps=3)


def test_build_lyapunov_refuses_a_damped_fit():
    # the series of the damped operator is not the flow's Lyapunov function
    _, _, _, model = example2_model()
    for horizon in (None, 5):
        with pytest.raises(InvalidInputError, match="needs a plain fit, not a zubov-mode one"):
            build_lyapunov(model, horizon=horizon)


def test_zubov_steps_zero_is_observable():
    _, _, _, model = example2_model()
    est = build_zubov(model, steps=0, nu=1.0, varsigma=0.1)
    pts = ring_points(5, 0.3, 0.8, seed=6)
    wv = weight_values(model.kw.weight, pts)
    np.testing.assert_allclose(zubov_values(est, pts), wv / (wv + 0.1), rtol=1e-12)


def test_zubov_batch_matches_scalar():
    _, _, _, model = example2_model()
    est = build_zubov(model, steps=6, nu=1.0, varsigma=0.1)
    pts = ring_points(6, 0.2, 1.0, seed=7)
    batch = zubov_values(est, pts)
    for i, p in enumerate(pts):
        np.testing.assert_allclose(zubov_values(est, p[None, :])[0], batch[i], rtol=1e-10)
    # Zubov coefficients against the dense theta recursion
    for steps in (1, 6, 40):
        coeffs = build_zubov(model, steps=steps, nu=1.0, varsigma=0.1).coeffs
        dense = dense_forward_coeffs(model, est.g0, steps)
        np.testing.assert_allclose(coeffs, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense)))


def test_zubov_invalid_parameters():
    _, _, _, model = example2_model()
    with pytest.raises(InvalidInputError):
        build_zubov(model, steps=-1)
    with pytest.raises(InvalidInputError):
        build_zubov(model, steps=2, nu=0.5)
    with pytest.raises(InvalidInputError):
        build_zubov(model, steps=2, varsigma=0.0)


def test_c_nu_frozen_values():
    np.testing.assert_allclose(c_nu(1.0, 0.1), 10.0, rtol=1e-15)
    np.testing.assert_allclose(c_nu(2.0, 0.1), 5.0, rtol=1e-15)
    with pytest.raises(InvalidInputError):
        c_nu(0.9, 0.1)


def test_generalization_bound_matches_high_precision():
    for m, gamma, r, delta in ((100, 1.0, 10, 0.05), (5000, 3.5, 40, 0.01)):
        np.testing.assert_allclose(
            generalization_bound(m, gamma, r, delta),
            mp_generalization_bound(m, gamma, r, delta),
            rtol=1e-12,
        )
    np.testing.assert_allclose(
        generalization_bound(100, 1.0, 10, 0.05), 15.545283158035630, rtol=1e-13
    )


def test_generalization_bound_monotonicity():
    base = generalization_bound(1000, 1.0, 10, 0.05)
    assert generalization_bound(4000, 1.0, 10, 0.05) < base
    assert generalization_bound(1000, 2.0, 10, 0.05) > base
    assert generalization_bound(1000, 1.0, 40, 0.05) > base
    with pytest.raises(InvalidInputError):
        generalization_bound(0, 1.0, 10, 0.05)
    with pytest.raises(InvalidInputError):
        generalization_bound(100, 1.0, 10, 1.5)


def test_concentration_epsilons_formulas():
    m, delta = 200, 0.05
    l6 = math.log(6.0 / delta)
    l12 = math.log(12.0 * m * m / delta)
    eps_x, eps_y = concentration_epsilons(m, delta)
    np.testing.assert_allclose(eps_x, 6.0 * l12 / m + 3.0 * math.sqrt(l12 / m), rtol=1e-15)
    np.testing.assert_allclose(eps_y, l6 / m + math.sqrt(8.0 * l6 / m), rtol=1e-15)


def test_error_bound_frozen_values():
    np.testing.assert_allclose(lyapunov_error_bound(0.9, 1.0, 1.0), 49.86149584487538, rtol=1e-12)
    np.testing.assert_allclose(zubov_error_bound(3, 0.9, 0.01, 1.0, 0.1), 24.3, rtol=1e-12)
    with pytest.raises(InvalidInputError):
        lyapunov_error_bound(1.0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        zubov_error_bound(0, 0.9, 1.0, 1.0, 0.1)


def test_doa_threshold_bracket_edges():
    # every level feasible: the top level
    assert doa_level_threshold(5.0, {0.5: 0.0, 1.0: 0.0}, 0.99, 0.01) == 1.0
    # nothing feasible: None
    assert doa_level_threshold(1e-3, {0.1: 50.0, 1.0: 50.0}, 0.5, 0.1) is None
    # a one-level table
    assert doa_level_threshold(5.0, {0.5: 0.0}, 0.99, 0.01) == 0.5
    assert doa_level_threshold(1e-3, {0.5: 50.0}, 0.5, 0.1) is None
    # alpha_lower = 1 drops the cost term: feasible exactly from a = varsigma up
    assert doa_level_threshold(1.0, {0.05: 9.0, 0.1: 9.0, 0.2: 9.0}, 1.0, 0.1) == 0.2
    assert doa_level_threshold(1.0, {0.05: 9.0}, 1.0, 0.1) is None
    # refused before any division, so never a ZeroDivisionError
    for eta_lower, table, alpha, vs in (
        (0.0, {0.5: 0.0}, 0.9, 0.1),
        (-1.0, {0.5: 0.0}, 0.9, 0.1),
        (1.0, {0.5: 0.0}, 0.0, 0.1),
        (1.0, {0.5: 0.0}, 1.5, 0.1),
        (1.0, {0.5: 0.0}, 0.9, 0.0),
        (1.0, {0.5: 0.0}, 0.9, -0.1),
        (1.0, {}, 0.9, 0.1),
        (1.0, {1.0: 0.0, 0.1: 0.0}, 0.9, 0.1),
        (1.0, {0.0: 0.0, 0.5: 0.0}, 0.9, 0.1),
    ):
        with pytest.raises(InvalidInputError):
            doa_level_threshold(eta_lower, table, alpha, vs)


def test_doa_threshold_finds_the_top_of_a_feasible_band():
    # Feasible on [0.3, 0.8] only: at small a log(alpha a / varsigma) is too
    # negative, above 0.8 the cost is prohibitive. The scan finds the top of
    # the band; the table's two ends alone are both infeasible.
    eta_lower, alpha, vs = 50.0, 0.9, 0.25
    levels = (np.arange(1, 11) / 10.0).tolist()
    table = {a: 0.0 if a <= 0.8 else 1e6 for a in levels}
    assert doa_level_threshold(eta_lower, table, alpha, vs) == 0.8
    assert doa_level_threshold(eta_lower, {a: table[a] for a in (0.1, 1.0)}, alpha, vs) is None
    # no level of the band in the table
    assert doa_level_threshold(eta_lower, {a: table[a] for a in (0.1, 0.2, 0.9)}, alpha, vs) is None
    # infeasible at 0.5 but feasible again at 1.7: the highest feasible level wins
    assert doa_level_threshold(eta_lower, {0.3: 0.0, 0.5: 500.0, 1.7: 500.0}, alpha, vs) == 1.7


def test_doa_levels_cover_the_domain():
    box = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    # the largest weight on the box is |(2, 2)|^0.5 = 8^0.25 ~ 1.68
    levels = doa_levels(box, WeightSpec(kind="norm-power", exponent=0.5))
    np.testing.assert_array_equal(levels, np.arange(1, 18) / 10.0)
    w1 = WeightSpec(kind="norm-power", exponent=1.0)
    ball = doa_levels(DomainSpec.ball(2.0), w1)
    assert ball[-1] == 2.0 and len(ball) == 20
    # a box away from the origin: its far corner is (3, -2), at weight sqrt(13) ~ 3.61
    assert doa_levels(DomainSpec(kind="box", lo=(1.0, -2.0), hi=(3.0, 1.0)), w1)[-1] == 3.7


def _example2_doa(levels):
    """estimate_doa at the settings `reproduce example2` uses for its config seed."""
    sys, eta = SystemSpec(kind="example2"), EtaSpec(kind="quadratic-norm", scale=0.5)
    dom = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    weight = WeightSpec(kind="norm-power", exponent=0.5)
    if levels is None:
        levels = doa_levels(dom, weight)
    return estimate_doa(sys, dom, weight, eta, levels, 500, 0.025, 44, 0.1)


def test_example2_doa_level_lies_between_one_and_the_invariant_region():
    # {w <= a} = {|x| <= a^2} first touches the invariant region x1 x2 >= 2
    # at a = sqrt(2); the old grid stopped at 1.0 and reported its top.
    doa = _example2_doa(None)
    assert doa.a_star in doa.mu_table and 1.0 < doa.a_star < math.sqrt(2.0)
    # a* is the highest feasible level: no level above it is feasible
    above = {a: mu for a, mu in doa.mu_table.items() if a > doa.a_star}
    assert above and doa_level_threshold(doa.eta_lower, above, doa.alpha_lower, 0.1) is None


def test_widening_the_doa_level_grid_never_lowers_a_star():
    box = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    full = doa_levels(box, WeightSpec(kind="norm-power", exponent=0.5))
    found = [_example2_doa(full[:top]).a_star for top in (10, 12, 14, len(full))]
    assert None not in found
    assert all(b >= a for a, b in zip(found, found[1:])), found


def test_doa_table_entries_do_not_depend_on_the_level_grid():
    box = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    full = doa_levels(box, WeightSpec(kind="norm-power", exponent=0.5))
    part, whole = (_example2_doa(full[:top]).mu_table for top in (10, len(full)))
    assert len(part) == 10 < len(whole)
    assert all(whole[a] == mu for a, mu in part.items()), (part, whole)


def test_accumulated_costs_linear_closed_form():
    sys = SystemSpec(kind="linear-contraction", a=0.6)
    eta = EtaSpec(kind="quadratic-norm", scale=0.25)
    pts = np.array([[1.0, 0.0], [0.5, -0.5]])
    costs = accumulated_costs(sys, eta, pts, dt=1.0, tail_tol=1e-12)
    truth = 0.25 * np.sum(pts * pts, axis=1) / (1.0 - 0.36)
    # c = 0 for the linear map, so its tail is exact from the first step.
    np.testing.assert_allclose(costs, truth, rtol=1e-13)


def test_accumulated_costs_divergent_orbit_is_infinite():
    sys = SystemSpec(kind="example2")
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    pts = np.array([[1.9, 1.9], [0.1, 0.1]])
    costs = accumulated_costs(sys, eta, pts, dt=0.025)
    assert math.isinf(costs[0]) and math.isfinite(costs[1])
    # At zero cost an orbit still retires only inside the tail ball, so escape still shows.
    costs = accumulated_costs(sys, EtaSpec(kind="quadratic-norm", scale=0.0), pts, dt=0.025)
    assert math.isinf(costs[0]) and costs[1] == 0.0


def test_estimate_mu_table_monotone_and_bounded():
    sys = SystemSpec(kind="linear-contraction", a=0.6)
    weight = kw_gaussian().weight
    eta = EtaSpec(kind="quadratic-norm", scale=0.25)
    levels = np.linspace(0.25, 1.0, 4)
    table = estimate_doa(sys, DomainSpec.ball(1.0), weight, eta, levels, 50, 1.0, 3, 0.1).mu_table
    vals = [table[a] for a in sorted(table)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # sup over the sublevel set w <= a is 0.25 a^2 / (1 - 0.36)
    for a in sorted(table):
        assert table[a] <= 0.25 * a * a / (1.0 - 0.36) + 1e-9


def test_estimate_doa_one_simulation_matches_per_level_runs(monkeypatch):
    sys, eta = SystemSpec(kind="example2"), EtaSpec(kind="quadratic-norm", scale=0.5)
    dom, weight = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0)), kw_gaussian(power=0.5).weight
    levels, samples, dt, seed = np.linspace(0.1, 1.0, 10), 200, 0.025, 44
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return accumulated_costs(*args, **kwargs)

    monkeypatch.setattr(certificates, "accumulated_costs", counting)
    doa = estimate_doa(sys, dom, weight, eta, levels, samples, dt, seed, 0.1)
    assert len(calls) == 1

    # The floors on the box, computed directly on a fresh draw of samples states.
    pool = sample_uniform(dom, samples, seed)
    attracted = np.isfinite(accumulated_costs(sys, eta, pool, dt))
    wx, wy = weight_values(weight, pool), weight_values(weight, step(sys, pool, dt))
    ok = attracted & (wx > 0)
    assert doa.eta_lower == float(np.min(eta.values(pool)[~attracted]))
    assert doa.alpha_lower == min(float(np.min(wy[ok] / wx[ok])), 1.0)

    # One run per level: each orbit stops on its own tail, so the joint run
    # gives every entry bit for bit.
    big = sample_uniform(dom, 4 * samples, seed)
    wv = weight_values(weight, big)
    ref, mu = [], 0.0
    for a in levels:
        pts = big[wv <= a][:samples]
        if len(pts):
            mu = max(mu, float(np.max(accumulated_costs(sys, eta, pts, dt))))
        ref.append(mu)
    got = [doa.mu_table[a] for a in levels.tolist()]
    assert got == ref
    assert doa.a_star == doa_level_threshold(
        doa.eta_lower, dict(zip(levels.tolist(), ref)), doa.alpha_lower, 0.1
    )


def test_bound_report_fields():
    ds, _, model = linear_model(0.5, 100, 10, 7)
    from koopcert import make_dataset

    sys = SystemSpec(kind="linear-contraction", a=0.5)
    held = make_dataset(sys, DomainSpec.ball(2.0), 100, 1.0, 8, model.kw.weight)
    rep = bound_report(model, delta=0.05, heldout=held)
    assert rep.m == 100 and rep.rank == 10 and rep.delta == 0.05
    # the observed decay ratio of the exact map x -> 0.5 x is exactly 0.5
    np.testing.assert_allclose(rep.alpha_plug, max(rep.op_norm, 0.5), rtol=1e-12)
    assert rep.heldout_risk is not None and rep.heldout_risk >= 0.0
    assert rep.lyapunov_const > 0.0 and rep.zubov_const is None
    assert rep.excess_risk == generalization_bound(100, rep.gamma, 10, 0.05)
    _, _, _, zmodel = example2_model()
    zrep = bound_report(zmodel, delta=0.05, nu=1.0, varsigma=0.1)
    np.testing.assert_allclose(zrep.zubov_const, c_nu(1.0, 0.1) / 0.1, rtol=1e-15)


def test_regular_grid_row_major_coords():
    dom = DomainSpec(kind="box", lo=(0.0, 0.0), hi=(1.0, 2.0))
    coords = regular_grid(dom, resolution=3).coords()
    assert coords.shape == (9, 2)
    np.testing.assert_allclose(coords[0], [0.0, 0.0])
    np.testing.assert_allclose(coords[1], [0.0, 1.0])
    np.testing.assert_allclose(coords[3], [0.5, 0.0])
    with pytest.raises(InvalidInputError):
        regular_grid(dom, resolution=1)


def test_regular_grid_axes_are_exactly_symmetric_with_exact_ends():
    square = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    for dom in (square, DomainSpec.ball(2.0), DomainSpec.ball(1.7, dim=3)):
        for res in (100, 101):
            coords = regular_grid(dom, res).coords()
            lo, hi = dom.bounding_box()
            assert np.array_equal(coords[::-1], -coords)
            assert np.array_equal(coords[0], lo) and np.array_equal(coords[-1], hi)
    off = DomainSpec(kind="box", lo=(0.0, 0.0), hi=(1.0, 2.0))
    coords = regular_grid(off, 101).coords()
    assert np.array_equal(coords[0], [0.0, 0.0]) and np.array_equal(coords[-1], [1.0, 2.0])
    assert np.array_equal(coords[100], [0.0, 2.0]) and np.array_equal(coords[-101], [1.0, 0.0])
    np.testing.assert_allclose(coords[::101, 0], np.linspace(0.0, 1.0, 101), rtol=0, atol=2.3e-16)


def _linear_fits(dim: int):
    """A plain and a damped fit of x -> 0.6 x on the radius-1.5 ball in dim dimensions."""
    kw, eta = kw_gaussian(), EtaSpec(kind="quadratic-norm", scale=0.5)
    sys, dom = SystemSpec(kind="linear-contraction", dim=dim, a=0.6), DomainSpec.ball(1.5, dim=dim)
    ds = make_dataset(sys, dom, 80, 1.0, 5, kw.weight)
    return fit_koopman(ds, kw, RRRConfig(rank=8)), fit_koopman(ds, kw, RRRConfig(rank=8), eta=eta)


def test_certificate_grids_match_the_point_path(monkeypatch):
    # The grid path contracts per-axis kernel factors instead of building the
    # m x N Gram, so it rounds differently: normwise within 1e-13 of the point path.
    def close(grid_vals, point_vals):
        assert np.max(np.abs(grid_vals - point_vals)) <= 1e-13 * np.max(np.abs(point_vals))

    _, _, model1 = example1_model()
    lyap = build_lyapunov(model1)
    grid = regular_grid(DomainSpec.ball(2.0), 101)
    close(lyapunov_grid_values(lyap, grid), lyapunov_values(lyap, grid.coords()))
    # the slabs hold one 2 MB lead factor, not the 500 x 2048 Gram of a block (9.5 MB traced)
    assert traced_peak(lambda: lyapunov_grid_values(lyap, grid)) < 5e6
    _, _, _, model2 = example2_model()
    box = regular_grid(DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0)), 101)
    for steps in (1, 6):
        est = build_zubov(model2, steps)
        close(zubov_grid_values(est, box), zubov_values(est, box.coords()))
    # at steps = 0 both paths are the saturating observable of the same weights
    est = build_zubov(model2, 0)
    assert np.array_equal(zubov_grid_values(est, box), zubov_values(est, box.coords()))
    for dim, res in ((1, 301), (3, 17)):
        plain, damped = _linear_fits(dim)
        # an off-centre box, so no axis is the mirror of itself
        grid = regular_grid(DomainSpec(kind="box", lo=(-1.5, -0.5, -1.0)[:dim], hi=(1.0, 1.5, 0.5)[:dim]), res)
        lyap, est = build_lyapunov(plain), build_zubov(damped, 2)
        # one slab for the whole grid, then one grid row per slab
        for entries in (certificates.GRID_SLAB_ENTRIES, 1):
            monkeypatch.setattr(certificates, "GRID_SLAB_ENTRIES", entries)
            close(lyapunov_grid_values(lyap, grid), lyapunov_values(lyap, grid.coords()))
            close(zubov_grid_values(est, grid), zubov_values(est, grid.coords()))

