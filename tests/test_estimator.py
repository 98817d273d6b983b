"""Reduced-rank operator fit: closed forms, optimality, and predictions."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from koopcert import (
    EtaSpec,
    InvalidInputError,
    RRRConfig,
    SnapshotDataset,
    SolverFailureError,
    fit_koopman,
    forward_coeffs,
    gram,
    heldout_risk,
    make_dataset,
    predict_observables,
    weight_values,
)
from koopcert import DomainSpec, SystemSpec
from koopcert import estimator, kernels
from koopcert.eigsolve import pivoted_cholesky
from koopcert.io import read_model, write_model

from helpers import (
    dense_diagnostics,
    dense_forward_coeffs,
    dense_grams,
    dense_heldout_risk,
    dense_pencil_topr,
    dense_reference_fits,
    dense_theta,
    example1_model,
    example2_model,
    factored_objective,
    kw_gaussian,
    linear_model,
    model_matrix,
    normalize_columns,
    regularized_objective,
    theta_from_factors,
    traced_peak,
)


def one_point_dataset(x, y):
    return SnapshotDataset(X=np.array([[x]]), Y=np.array([[y]]), dt=1.0, seed=0)


def test_single_pair_closed_form():
    kw = kw_gaussian(gamma=2.0, power=1.0)
    ds = one_point_dataset(0.7, 0.35)
    beta = 0.37
    model = fit_koopman(ds, kw, RRRConfig(rank=1, beta=beta))
    k = gram(kw, ds.X[0], ds.X[0])[0, 0]
    np.testing.assert_allclose(dense_theta(model)[0, 0], 1.0 / (k + beta), atol=1e-13)
    # risk and norms reduce to scalar formulas
    ell = gram(kw, ds.Y[0], ds.Y[0])[0, 0]
    theta = dense_theta(model)[0, 0]
    np.testing.assert_allclose(model.diagnostics.risk, (theta * k - 1.0) ** 2 * ell, atol=1e-13)
    np.testing.assert_allclose(model.diagnostics.hs_norm**2, theta**2 * k * ell, atol=1e-13)
    np.testing.assert_allclose(model.diagnostics.op_norm, model.diagnostics.hs_norm, atol=1e-13)


def test_fit_is_exact_minimizer_dense_reference():
    # rebuild the rank-r minimizer by whitened SVD and compare objectives
    ds, kw, model = linear_model(0.5, 40, 6, 3)
    m = len(ds)
    K, L, _, _ = dense_grams(model)
    beta = model.beta

    def psd_power(S, p, cut=1e-12):
        vals, vecs = np.linalg.eigh(S)
        top = float(vals.max())
        safe = np.where(vals > cut * top, vals, np.inf if p < 0 else 0.0)
        out = np.where(np.isfinite(safe), np.power(np.where(safe > 0, safe, 1.0), p), 0.0)
        out = np.where(safe > 0, out, 0.0)
        return (vecs * out[None, :]) @ vecs.T

    Kh = psd_power(K, 0.5)
    Rinv = psd_power(K + m * beta * np.eye(m), -0.5)
    A0 = psd_power(L, 0.5) @ Kh @ Rinv
    _, _, vt = np.linalg.svd(A0)
    Y = psd_power(K, -0.5) @ Rinv @ vt[: model.rank].T
    theta_ref = (Y @ Y.T) @ K
    np.testing.assert_allclose(
        regularized_objective(model), regularized_objective(model, theta_ref), rtol=1e-9
    )


def test_factored_objective_matches_the_dense_reference():
    # Criterion 05 evaluates the objective at theta = U_p U_p' K / m from m x r
    # products; it must agree with the dense O(m^3) reference there.
    for idx, model in enumerate(model_matrix()[:4]):
        K = dense_grams(model)[0]
        np.testing.assert_allclose(factored_objective(model, model.U), regularized_objective(model), rtol=1e-12)
        rng = np.random.default_rng(idx)
        for _ in range(2):
            U_p = model.U + 1e-3 * rng.standard_normal(model.U.shape)
            dense = regularized_objective(model, theta=theta_from_factors(U_p, K))
            np.testing.assert_allclose(factored_objective(model, U_p), dense, rtol=1e-12)


def general_pencil_fit(model):
    """sigma_sq and theta of a model's pencil (L K / m^2, K / m + beta I)
    from the dense QZ solver."""
    K, L, _, _ = dense_grams(model)
    m = len(model)
    sigma_sq, U = dense_pencil_topr((L @ K) / (m * m), K / m + model.beta * np.eye(m), model.rank)
    return sigma_sq, theta_from_factors(normalize_columns(U, K, model.beta), K)


def test_fit_matches_general_pencil_solver():
    kw = kw_gaussian()
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    ds = make_dataset(
        SystemSpec(kind="linear-contraction", a=0.5), DomainSpec.ball(2.0), 8, 1.0, 5, kw.weight
    )
    models = list(dense_reference_fits())
    for rank in (3, 8):
        for beta in (None, 0.02):
            cfg = RRRConfig(rank=rank, beta=beta)
            models += [fit_koopman(ds, kw, cfg), fit_koopman(ds, kw, cfg, eta=eta)]
    for model in models:
        sigma_sq, theta = general_pencil_fit(model)
        np.testing.assert_allclose(model.diagnostics.sigma_sq, sigma_sq, rtol=1e-12, atol=0)
        np.testing.assert_allclose(dense_theta(model), theta, rtol=0, atol=1e-10)


def test_fit_on_repeated_anchors_truncates_the_input_gram():
    # six distinct snapshot pairs repeated five times: K has exact rank 6 < m = 30,
    # so the pivoted Cholesky of K stops after six columns
    kw = kw_gaussian()
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    base = make_dataset(
        SystemSpec(kind="linear-contraction", a=0.5), DomainSpec.ball(2.0), 6, 1.0, 5, kw.weight
    )
    X, Y = np.tile(base.X, (5, 1)), np.tile(base.Y, (5, 1))
    ds = SnapshotDataset(X=X, Y=Y, dt=base.dt, seed=base.seed)
    K = gram(kw, X, X)
    assert pivoted_cholesky(K.diagonal(), K.__getitem__).shape[1] == 6
    for rank in (3, 6):
        for beta in (None, 0.02):
            cfg = RRRConfig(rank=rank, beta=beta)
            for model in (fit_koopman(ds, kw, cfg), fit_koopman(ds, kw, cfg, eta=eta)):
                sigma_sq, theta = general_pencil_fit(model)
                np.testing.assert_allclose(model.diagnostics.sigma_sq, sigma_sq, rtol=1e-12, atol=0)
                np.testing.assert_allclose(dense_theta(model), theta, rtol=0, atol=1e-10)
    cfg = RRRConfig(rank=7)
    for fit in (lambda: fit_koopman(ds, kw, cfg), lambda: fit_koopman(ds, kw, cfg, eta=eta)):
        with pytest.raises(SolverFailureError, match="effective rank"):
            fit()


def test_rank_tie_warns_from_fit():
    # the square's symmetry gives sigma_sq[1] == sigma_sq[2]
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    ds = SnapshotDataset(X=X, Y=0.5 * X, dt=1.0, seed=0)
    with pytest.warns(RuntimeWarning, match="tie"):
        fit_koopman(ds, kw_gaussian(), RRRConfig(rank=2))


def test_rank_above_effective_rank_raises():
    X = np.array([[0.5, 0.1], [1.0, -0.3], [-0.7, 0.4], [0.2, 0.9]])
    # targets at the origin give L = 0; one shared target gives rank(L) = 1
    for Y, rank in ((np.zeros_like(X), 1), (np.full_like(X, 0.3), 2)):
        ds = SnapshotDataset(X=X, Y=Y, dt=1.0, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverFailureError, match="effective rank"):
                fit_koopman(ds, kw_gaussian(), RRRConfig(rank=rank))


def test_regularized_objective_reuses_grams_per_model():
    def dense_objective(model):
        K, L, _, _ = dense_grams(model)
        theta = dense_theta(model)
        R = theta.T @ K - np.eye(len(model))
        quad = theta.T @ K @ theta
        return float(np.sum(R * (L @ R))) / len(model) + model.beta * float(np.sum(quad * L))

    kw = kw_gaussian()
    models = []
    for seed in (3, 4):
        sys = SystemSpec(kind="linear-contraction", a=0.5)
        ds = make_dataset(sys, DomainSpec.ball(2.0), 40, 1.0, seed, kw.weight)
        models.append(fit_koopman(ds, kw, RRRConfig(rank=6)))
    expected = [dense_objective(model) for model in models]
    for _ in range(2):
        for model, value in zip(models, expected):
            np.testing.assert_allclose(regularized_objective(model), value, rtol=1e-12)
    # the kept Grams do not keep the model alive
    ref = weakref.ref(models[0])
    del model, models
    gc.collect()
    assert ref() is None


def test_fitted_eigenvectors_have_unit_quadratic_forms():
    # the closed form scales each u to u' K (K / m + beta I) u = 1 (beta_scale 0.01)
    for model in (example1_model()[2], example2_model()[3]):
        K, m, U = dense_grams(model)[0], len(model), model.U
        forms = np.einsum("ji,jk,ki->i", U, K @ (K / m + model.beta * np.eye(m)), U)
        np.testing.assert_allclose(forms, np.ones(model.rank), rtol=1e-10)


def test_rank_exceeding_samples_raises():
    kw = kw_gaussian()
    sys = SystemSpec(kind="linear-contraction", a=0.5)
    ds = make_dataset(sys, DomainSpec.ball(2.0), 10, 1.0, 5, kw.weight)
    with pytest.raises(InvalidInputError):
        fit_koopman(ds, kw, RRRConfig(rank=11))


def test_zero_scale_damping_matches_plain_fit():
    kw = kw_gaussian()
    eta = EtaSpec(kind="quadratic-norm", scale=0.0)
    ds = make_dataset(
        SystemSpec(kind="linear-contraction", a=0.5), DomainSpec.ball(2.0), 30, 1.0, 6, kw.weight
    )
    damped = fit_koopman(ds, kw, RRRConfig(rank=8), eta=eta)
    reference = fit_koopman(ds, kw, RRRConfig(rank=8))
    np.testing.assert_array_equal(dense_theta(damped), dense_theta(reference))
    for name in ("U", "W", "H", "Q"):
        np.testing.assert_array_equal(getattr(damped, name), getattr(reference, name))
    assert damped.mode == "zubov" and reference.mode == "koopman"


def test_eta_damping_is_the_exponential_of_minus_the_cost():
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    X = np.random.default_rng(4).normal(size=(7, 2))
    np.testing.assert_array_equal(eta.damping(X), np.exp(-0.5 * np.sum(X * X, axis=1)))


def test_damped_target_gram_is_exactly_symmetric():
    # symmetric_eig reads only the lower triangle of L, perron_root all of it
    L = dense_grams(example2_model()[3])[1]
    assert np.array_equal(L, L.T)


def test_diagnostics_accessors_match():
    # the rank-space diagnostics against the dense m x m formulas
    for model in dense_reference_fits():
        dense = dense_diagnostics(model)
        np.testing.assert_allclose(model.diagnostics.risk, dense["risk"], rtol=1e-12)
        np.testing.assert_allclose(model.diagnostics.hs_norm, dense["hs_norm"], rtol=1e-12)
        np.testing.assert_allclose(model.diagnostics.op_norm, dense["op_norm"], rtol=1e-12)
        np.testing.assert_allclose(model.diagnostics.norm_bound, dense["norm_bound"], rtol=1e-12)
        assert model.diagnostics.op_norm <= model.diagnostics.hs_norm + 1e-12
        assert model.diagnostics.op_norm <= model.diagnostics.norm_bound + 1e-12


def test_heldout_risk_on_training_data_is_empirical_risk():
    ds, _, model = linear_model(0.5, 40, 6, 3)
    np.testing.assert_allclose(heldout_risk(model, ds), model.diagnostics.risk, rtol=1e-10)
    fresh = make_dataset(
        SystemSpec(kind="linear-contraction", a=0.5), DomainSpec.ball(2.0), 40, 1.0, 1003, model.kw.weight
    )
    np.testing.assert_allclose(
        heldout_risk(model, fresh), dense_heldout_risk(model, fresh), rtol=1e-12
    )
    ds2, _, _, model2 = example2_model()
    np.testing.assert_allclose(heldout_risk(model2, ds2), model2.diagnostics.risk, rtol=1e-10)
    box = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    fresh2 = make_dataset(SystemSpec(kind="example2"), box, 200, 0.025, 43, model2.kw.weight)
    np.testing.assert_allclose(
        heldout_risk(model2, fresh2), dense_heldout_risk(model2, fresh2), rtol=1e-12
    )


def test_heldout_risk_takes_every_pair_in_one_pass(monkeypatch):
    # 4500 fresh pairs, more than the 500 anchors; the risk is one mean over
    # every pair, from one streamed product per Gram against the anchors, so
    # the peak (about 0.36 m x 4500 Grams) is one 2 MB Gram block at a time and
    # the r x 4500 rank-space arrays (1.8 MB each at rank 50), not an m x 4500
    # Gram; with two blocks alive at once it was 0.47
    model1 = example1_model()[2]
    model2 = example2_model()[3]
    box = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    cases = (
        (model1, make_dataset(SystemSpec(kind="example1"), DomainSpec.ball(2.0), 4500, 0.05, 43, model1.kw.weight)),
        (model2, make_dataset(SystemSpec(kind="example2"), box, 4500, 0.025, 43, model2.kw.weight)),
    )
    rows = []

    def spy(kw, A, *args, **kwargs):
        rows.append(len(A))
        return kernels.gram_product(kw, A, *args, **kwargs)

    monkeypatch.setattr(estimator, "gram_product", spy)
    for model, fresh in cases:
        rows.clear()
        np.testing.assert_allclose(heldout_risk(model, fresh), dense_heldout_risk(model, fresh), rtol=1e-12)
        assert rows == [4500, 4500]
        peak = traced_peak(lambda: heldout_risk(model, fresh))
        assert peak < 0.4 * 8 * len(model) * len(fresh), f"peak {peak / (8 * len(model) * len(fresh)):.2f} Grams"


def test_predict_observable_linear_one_step():
    ds, kw, model = linear_model(0.5, 200, 20, 11)

    def g(pts):
        return np.sum(pts * pts, axis=-1)

    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.0, 1.0, size=(20, 2))
    for x in pts:
        fx = 0.5 * x
        truth = float(weight_values(kw.weight, fx[None, :])[0] * g(fx[None, :])[0])
        got = predict_observables(model, g, x, 1)[1]
        assert abs(got - truth) <= 0.05 * max(1.0, abs(truth))
    # the rank-space recursion against the dense theta recursion
    x = np.array([0.6, -0.3])
    for ref in dense_reference_fits():
        wy = weight_values(ref.kw.weight, ref.anchors_y)
        g0 = wy * g(ref.anchors_y)
        kx = gram(ref.kw, ref.anchors_x, x[None, :])[:, 0]
        for t in (1, 2, 7, 30):
            dense = dense_forward_coeffs(ref, g0, t)
            scale = np.max(np.abs(dense))
            np.testing.assert_allclose(
                forward_coeffs(ref, g0, t), dense, rtol=0, atol=1e-12 * scale
            )
            np.testing.assert_allclose(predict_observables(ref, g, x, t)[t], dense @ kx, rtol=1e-12)
        # the batch path against one dense recursion per step, t = 0..30
        batch = predict_observables(ref, g, x, 30)
        dense = [float(weight_values(ref.kw.weight, x[None, :])[0] * g(x[None, :])[0])]
        dense += [dense_forward_coeffs(ref, g0, t) @ kx for t in range(1, 31)]
        np.testing.assert_allclose(batch, dense, rtol=0, atol=1e-12 * np.max(np.abs(dense)))
        assert predict_observables(ref, g, x, 0)[0] == batch[0]
    with pytest.raises(InvalidInputError):
        predict_observables(model, g, x, -1)


def test_fit_holds_no_cross_gram_through_the_pencil_solve():
    # K is never built and L J, K U and E W are streamed, so the one m x m
    # array is L in factor_model. At m = 1000 the fit peaks at about 2.24
    # m x m arrays in the pencil solve, holding the m x k J and L J with the
    # k x k J'LJ and its eigenvectors (k = 674); at m = 2000 (k = 716) L sets
    # the peak, about 1.14 (1.72 while K and L were each built whole twice).
    # The held-out risk at m = 2000 peaks at about 0.20 (1.05 with m x 2048
    # held-out Grams).
    kw = kw_gaussian()
    models = []
    for m, bound in ((1000, 2.4), (2000, 1.3)):
        ds = make_dataset(SystemSpec(kind="example1"), DomainSpec.ball(2.0), m, 0.05, 1, kw.weight)
        peak = traced_peak(lambda: models.append(fit_koopman(ds, kw, RRRConfig(rank=50))))
        assert peak < bound * 8 * m * m, f"m = {m}: peak {peak / (8 * m * m):.2f} m x m arrays"
    fresh = make_dataset(SystemSpec(kind="example1"), DomainSpec.ball(2.0), m, 0.05, 2, kw.weight)
    peak = traced_peak(lambda: heldout_risk(models[-1], fresh))
    assert peak < 0.3 * 8 * m * m, f"held-out risk: peak {peak / (8 * m * m):.2f} m x m arrays"


def test_damped_fit_holds_at_most_two_grams():
    # the damped target Gram is scaled in row blocks, without an m x m
    # outer product, and L J is streamed, so the fit peaks at about 1.28
    # m x m arrays in the pencil solve, holding the m x k J and L J with the
    # k x k J'LJ and its eigenvectors (k = 882); holding L beside J and L J
    # made it 1.88
    m = 2000
    kw = kw_gaussian(power=0.5)
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    box = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    ds = make_dataset(SystemSpec(kind="example2"), box, m, 0.025, 1, kw.weight)
    peak = traced_peak(lambda: fit_koopman(ds, kw, RRRConfig(rank=50), eta=eta))
    assert peak < 1.4 * 8 * m * m, f"peak {peak / (8 * m * m):.2f} m x m arrays"


def test_fit_and_reload_build_no_gram_but_the_target_gram(monkeypatch, tmp_path):
    # K and the cross Gram E are never built, and every product with a Gram
    # is streamed in blocks of PRODUCT_BLOCK_ENTRIES, so the one array above
    # a block that gram returns is the damped target Gram L, once per
    # factor_model call: once in the fit and once in the reload
    m = 1200
    kw = kw_gaussian(power=0.5)
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    box = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
    ds = make_dataset(SystemSpec(kind="example2"), box, m, 0.025, 1, kw.weight)
    L = gram(kw, ds.Y, scale_a=eta.damping(ds.X))
    built = []

    def spy(*args, **kwargs):
        G = gram(*args, **kwargs)
        built.append(G if G.size > kernels.PRODUCT_BLOCK_ENTRIES else G.shape)
        return G

    monkeypatch.setattr(kernels, "gram", spy)
    monkeypatch.setattr(estimator, "gram", spy)
    for run in (
        lambda: write_model(fit_koopman(ds, kw, RRRConfig(rank=50), eta=eta), tmp_path / "model.txt"),
        lambda: read_model(tmp_path / "model.txt"),
    ):
        built.clear()
        run()
        large = [G for G in built if isinstance(G, np.ndarray)]
        assert len(large) == 1 and large[0].tobytes() == L.tobytes()
        # the streamed blocks and the factor's rows, several per product
        assert len(built) > 10


def test_beta_resolution_from_scale():
    ds, _, model = linear_model(0.5, 40, 6, 3)
    K = gram(model.kw, model.anchors_x)
    lam_max = float(np.linalg.eigvalsh(K).max())
    np.testing.assert_allclose(model.beta, 0.01 * lam_max / len(ds), rtol=1e-10)
