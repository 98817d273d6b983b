"""Shared fixtures for the test suite: cached fitted models and oracles.

The builders are cached so the first test that needs a model pays the fit
once and later tests reuse it; every builder is fully seeded.
"""

from __future__ import annotations

import math
import tracemalloc
import weakref
from functools import lru_cache

import mpmath
import numpy as np
import scipy.linalg

from koopcert import (
    DomainSpec,
    EtaSpec,
    KernelSpec,
    RRRConfig,
    SystemSpec,
    WeightSpec,
    WeightedKernelSpec,
    fit_koopman,
    gram,
    make_dataset,
    step,
    weight_values,
)
from koopcert.dynsys import GUARD_RADIUS, _linear_tail, saturating
from koopcert.eigsolve import input_factor, pencil_vectors, pivoted_cholesky, reduced_rank_eig


def kw_gaussian(gamma: float = 4.0, power: float = 1.0) -> WeightedKernelSpec:
    return WeightedKernelSpec(
        kernel=KernelSpec(kind="gaussian", gamma=gamma),
        weight=WeightSpec(kind="norm-power", exponent=power),
    )


@lru_cache(maxsize=None)
def example1_model():
    """Planar sinusoidal system at its reference settings (m=500, seed 42)."""
    kw = kw_gaussian()
    ds = make_dataset(SystemSpec(kind="example1"), DomainSpec.ball(2.0), 500, 0.05, 42, kw.weight)
    model = fit_koopman(ds, kw, RRRConfig(rank=50))
    return ds, kw, model


@lru_cache(maxsize=None)
def example2_model():
    """Damped fit of the finite-basin system at its reference settings."""
    kw = kw_gaussian(power=0.5)
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    ds = make_dataset(
        SystemSpec(kind="example2"),
        DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0)),
        500,
        0.025,
        42,
        kw.weight,
    )
    model = fit_koopman(ds, kw, RRRConfig(rank=50), eta=eta)
    return ds, kw, eta, model


@lru_cache(maxsize=None)
def linear_model(a: float, m: int, rank: int, seed: int):
    """Fit of the exact contraction map x -> a x on the radius-2 ball."""
    kw = kw_gaussian()
    sys = SystemSpec(kind="linear-contraction", a=a)
    ds = make_dataset(sys, DomainSpec.ball(2.0), m, 1.0, seed, kw.weight)
    model = fit_koopman(ds, kw, RRRConfig(rank=rank))
    return ds, kw, model


@lru_cache(maxsize=None)
def random_linear_models():
    """Ten seeded linear-contraction fits with randomized factor and size."""
    rng = np.random.default_rng(1234)
    fits = []
    for seed in range(10):
        a = float(rng.uniform(0.2, 0.9))
        m = int(rng.integers(60, 121))
        fits.append(linear_model(a, m, 10, seed))
    return fits


def model_matrix():
    """All reference fits: both example systems plus ten linear fits."""
    models = [example1_model()[2], example2_model()[3]]
    models.extend(model for _, _, model in random_linear_models())
    return models


def dense_reference_fits():
    """The two fits the rank-space algebra is checked on against the dense formulas."""
    return [linear_model(0.5, 40, 6, 3)[2], example2_model()[3]]


def dense_grams(model):
    """The m x m Grams of a fitted model, K, damped target L and damped cross
    E, with the damping vector (None in plain mode)."""
    X, Y = model.anchors_x, model.anchors_y
    d = None if model.eta is None else model.eta.damping(X)
    return gram(model.kw, X), gram(model.kw, Y, scale_a=d), gram(model.kw, X, Y, scale_b=d), d


def traced_peak(fn) -> int:
    """Peak of the memory traced while fn runs, in bytes above the traced
    memory at entry."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_theta(model) -> np.ndarray:
    """Dense m x m coefficient matrix U W' of a fitted model."""
    return model.U @ model.W.T


def theta_from_factors(U: np.ndarray, gram_x: np.ndarray) -> np.ndarray:
    """Coefficient matrix (1/m) U U' K_w from normalized eigenvectors."""
    m = gram_x.shape[0]
    return (U @ (U.T @ gram_x)) / m


def dense_pencil_topr(left: np.ndarray, right: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Top r eigenpairs of left u = s right u by real part, from the dense QZ
    solver; the fit's pencil solve is checked against it."""
    vals, U = scipy.linalg.eig(left, right)
    order = np.argsort(-vals.real, kind="stable")[:r]
    return vals[order].real, U[:, order].real


def normalize_columns(U: np.ndarray, K: np.ndarray, beta: float) -> np.ndarray:
    """Columns of U rescaled to u' K (K / m + beta I) u = 1, from the dense K.

    This scaling makes theta = U U' K / m the minimizer of the regularized
    empirical risk; the fit's solve returns eigenvectors already scaled so.
    """
    KU = K @ U
    return U / np.sqrt(np.sum(KU * KU, axis=0) / len(K) + beta * np.sum(U * KU, axis=0))[None, :]


def as_fit_pencil(M: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """K, L and beta whose fit pencil (L K / m^2) u = s (K / m + beta I) u is
    M v = s B v with v = K u, for symmetric M and SPD B with B - I / m SPD:
    K = (B - I / m)^-1, L = m^2 M and beta = 1. Then K / m + I = K B, and K
    commutes with B, so M K u = s K B u = s B K u."""
    m = len(B)
    mu, V = np.linalg.eigh(B)
    K = (V / (mu - 1.0 / m)[None, :]) @ V.T
    return 0.5 * (K + K.T), m * m * (0.5 * (M + M.T)), 1.0


def fit_pencil_eig(M: np.ndarray, B: np.ndarray, r: int):
    """Top-r eigenvalues of M v = s B v from the fit's solve on
    as_fit_pencil(M, B), with its eigenvectors U and the pencil's V = K U."""
    K, L, beta = as_fit_pencil(M, B)
    Psi = pivoted_cholesky(K.diagonal(), K.__getitem__)
    J = input_factor(Psi, beta, Psi.T @ Psi)
    m = len(K)
    vals, Y = reduced_rank_eig(J.T @ L @ J / (m * m), r)
    JY = J @ Y
    U = pencil_vectors(L @ JY, JY, vals, beta)
    return vals, U, K @ U


# K and L of the models regularized_objective has seen, dropped with the model.
_OBJECTIVE_GRAMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def regularized_objective(model, theta: np.ndarray | None = None) -> float:
    """Empirical risk plus beta times squared HS norm, for any theta.

    Dense O(m^3) reference. The Grams are assembled from the anchors on the
    first call for a model and reused while the model is alive.
    """
    if theta is None:
        theta = dense_theta(model)
    m = len(model)
    if model not in _OBJECTIVE_GRAMS:
        _OBJECTIVE_GRAMS[model] = dense_grams(model)[:2]
    K, L = _OBJECTIVE_GRAMS[model]
    C = theta.T @ K
    R = C - np.eye(m)
    risk = float(np.sum(R * (L @ R))) / m
    quad = theta.T @ K @ theta
    hs_sq = float(np.sum(quad * L))
    return risk + model.beta * hs_sq


def factored_objective(model, U: np.ndarray) -> float:
    """regularized_objective at theta = U U' K / m, from m x r products in O(m^2 r).

    With B = K U, theta' K = B B' / m, so R = B B' / m - I is symmetric and, for
    G = B' L B, S = B' B and N = U' B, the risk tr(R L R) / m is
    (sum(G * S) / m^2 - 2 tr(G) / m + tr(L)) / m and the squared HS norm
    tr(theta' K theta L) is sum(N * G) / m^2.
    """
    m = len(model)
    if model not in _OBJECTIVE_GRAMS:
        _OBJECTIVE_GRAMS[model] = dense_grams(model)[:2]
    K, L = _OBJECTIVE_GRAMS[model]
    B = K @ U
    G = B.T @ (L @ B)
    risk = (float(np.sum(G * (B.T @ B))) / (m * m) - 2.0 * float(np.trace(G)) / m + float(np.trace(L))) / m
    hs_sq = float(np.sum((U.T @ B) * G)) / (m * m)
    return risk + model.beta * hs_sq


def dense_diagnostics(model) -> dict[str, float]:
    """Risk, HS norm, operator norm and a-priori bound from m x m formulas."""
    K, L, _, _ = dense_grams(model)
    m = len(model)
    theta = dense_theta(model)
    R = theta.T @ K - np.eye(m)
    quad = theta.T @ K @ theta
    vals, vecs = np.linalg.eigh(L)
    Lh = (vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]) @ vecs.T
    S = Lh @ quad @ Lh
    return {
        "risk": max(float(np.sum(R * (L @ R))) / m, 0.0),
        "hs_norm": math.sqrt(max(float(np.sum(quad * L)), 0.0)),
        "op_norm": math.sqrt(max(float(np.linalg.eigvalsh((S + S.T) / 2.0)[-1]), 0.0)),
        "norm_bound": float(vals[-1]) / (model.beta * m),
    }


def dense_heldout_risk(model, ds) -> float:
    """Held-out section error with the m-dimensional coefficients theta' k_x."""
    _, L, _, _ = dense_grams(model)
    C = dense_theta(model).T @ gram(model.kw, model.anchors_x, ds.X)
    G = gram(model.kw, model.anchors_y, ds.Y)
    t_norm = weight_values(model.kw.weight, ds.Y) ** 2
    if model.eta is not None:
        dh = np.exp(-model.eta.values(ds.X))
        G = model.damping[:, None] * G * dh[None, :]
        t_norm = dh**2 * t_norm
    per_point = np.sum(C * (L @ C), axis=0) - 2.0 * np.sum(C * G, axis=0) + t_norm
    return float(np.mean(per_point))


def dense_lyapunov_value(model, x, horizon: int) -> float:
    """k_w(x, x) + sum_{t=1..horizon} b_t' L b_t, b_1 = theta' k_x, b_{t+1} = theta' E b_t."""
    _, L, E, _ = dense_grams(model)
    x = np.asarray(x, dtype=float)[None, :]
    total = float(weight_values(model.kw.weight, x)[0] ** 2)
    b = dense_theta(model).T @ gram(model.kw, model.anchors_x, x)[:, 0]
    for _ in range(horizon):
        total += float(b @ (L @ b))
        b = dense_theta(model).T @ (E @ b)
    return total


def dense_forward_coeffs(model, g0: np.ndarray, t: int) -> np.ndarray:
    """a_1 = theta (d * g0), a_{s+1} = theta E' a_s, d the target damping."""
    _, _, E, d = dense_grams(model)
    a = dense_theta(model) @ (g0 if d is None else d * g0)
    for _ in range(t - 1):
        a = dense_theta(model) @ (E.T @ a)
    return a


def einsum_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Squared distances [|a_i - b_j|^2] by one einsum over the full
    (len(A), len(B), n) difference array; base_gram's reference."""
    D = A[:, None, :] - B[None, :, :]
    return np.einsum("ijk,ijk->ij", D, D)


def ring_points(n: int, r_lo: float, r_hi: float, seed: int) -> np.ndarray:
    """n planar points with radius uniform in [r_lo, r_hi], seeded."""
    rng = np.random.default_rng(seed)
    radius = rng.uniform(r_lo, r_hi, n)
    angle = rng.uniform(0.0, 2.0 * math.pi, n)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def fine_step(sys: SystemSpec, x: np.ndarray, dt: float, substeps: int = 100) -> np.ndarray:
    """Reference flow map: the same step composed over many substeps."""
    out = np.asarray(x, dtype=float)
    for _ in range(substeps):
        out = step(sys, out, dt / substeps)
    return out


def scalar_weighted_kernel(gamma: float, power: float, x, y) -> float:
    """Loop-free scalar oracle for the weighted Gaussian kernel."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    wx = float(np.linalg.norm(x)) ** power
    wy = float(np.linalg.norm(y)) ** power
    return wx * wy * math.exp(-gamma * float(np.sum((x - y) ** 2)))


def mp_generalization_bound(m: int, gamma: float, r: int, delta: float) -> float:
    """High-precision replica of the excess-risk radius formula."""
    with mpmath.workdps(60):
        mm = mpmath.mpf(m)
        g = mpmath.mpf(gamma)
        rr = mpmath.mpf(r)
        d = mpmath.mpf(delta)
        l6 = mpmath.log(6 / d)
        l12 = mpmath.log(12 * mm * mm / d)
        val = (
            l6 / mm
            + mpmath.sqrt(8 * l6 / mm)
            + g * (g + 2 * mpmath.sqrt(rr)) * (6 * l12 / mm + mpmath.sqrt(9 * l12 / mm))
        )
        return float(val)


def linear_lyapunov_truth(X: np.ndarray, a: float) -> np.ndarray:
    """Closed-form series value for the contraction map with w = |x|."""
    X = np.asarray(X, dtype=float)
    return np.sum(X * X, axis=-1) / (1.0 - a * a)


def stacked_vector_field(sys: SystemSpec, x: np.ndarray) -> np.ndarray:
    """The planar vector field on one stacked (..., 2) array; the component kernel's reference."""
    x1 = x[..., 0]
    x2 = x[..., 1]
    if sys.kind == "example1":
        d1 = -3.0 * x1 + x2 + np.sin(2.0 * np.pi * x1) / (2.0 * np.pi)
        d2 = x1 - x2
    else:
        s = x1 * x2 - 1.0
        d1 = -x1
        d2 = s * (x2 * x2 * x2) + (s + x1**2) * x2
    return np.stack([d1, d2], axis=-1)


def stacked_step(sys: SystemSpec, x: np.ndarray, dt: float) -> np.ndarray:
    """One map step on the stacked (N, n) array, written as plain RK4."""
    if sys.kind == "linear-contraction":
        return sys.a * x
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = stacked_vector_field(sys, x)
        k2 = stacked_vector_field(sys, x + 0.5 * dt * k1)
        k3 = stacked_vector_field(sys, x + 0.5 * dt * k2)
        k4 = stacked_vector_field(sys, x + dt * k3)
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _park_escaped(state: np.ndarray, dead: np.ndarray) -> None:
    """Add rows that are non-finite or past GUARD_RADIUS to dead and move every dead row to the origin."""
    with np.errstate(over="ignore", invalid="ignore"):
        dead |= ~(np.sqrt(np.sum(state * state, axis=-1)) <= GUARD_RADIUS)
    state[dead] = 0.0


def stacked_sq_norm_series(sys: SystemSpec, X: np.ndarray, dt: float, scale: float, tail_tol: float, cap: int):
    """The tail-bounded orbit sum on the stacked state, every row simulated: escaped
    rows parked at the origin, squared norms by np.sum and stacked_step each step. A
    row is done at its first step with |x|^2 <= min(rho^2, sqrt(tail_tol / (scale C))),
    where its value is scale (sum of its earlier |x|^2 + x' P x), the quadratic form
    summed in index order. Escaped rows and rows not done within cap steps get +inf."""
    P, C, rho = _linear_tail(sys, dt)
    stop = min(rho * rho, math.sqrt(tail_tol / (scale * C))) if scale * C > 0 else rho * rho
    state = np.asarray(X, dtype=float).copy()
    total = np.full(len(state), np.inf)
    acc = np.zeros(len(state))
    dead = np.zeros(len(state), dtype=bool)
    done = np.zeros(len(state), dtype=bool)
    for _ in range(cap):
        _park_escaped(state, dead)
        sq = np.sum(state * state, axis=-1)
        now = ~dead & ~done & (sq <= stop)
        quad = 0
        for i in range(state.shape[1]):
            inner = 0
            for j in range(state.shape[1]):
                inner = inner + P[j, i] * state[:, j]
            quad = quad + state[:, i] * inner
        total[now] = scale * (acc[now] + quad[now])
        done |= now
        if np.all(dead | done):
            break
        acc += sq
        state = stacked_step(sys, state, dt)
    total[dead] = np.inf
    return total


def stacked_oracle_zubov(sys: SystemSpec, weight, eta, X: np.ndarray, dt: float, steps: int, nu, varsigma):
    """The Zubov oracle loop on the stacked state: escaped rows parked at the origin,
    eta.values and stacked_step each step, then the damped saturating weight."""
    state = np.asarray(X, dtype=float).copy()
    cost = np.zeros(len(state))
    dead = np.zeros(len(state), dtype=bool)
    for _ in range(steps):
        _park_escaped(state, dead)
        cost += eta.values(state)
        dead |= cost > 745.0
        state = stacked_step(sys, state, dt)
    _park_escaped(state, dead)
    out = np.exp(-cost) * saturating(weight_values(weight, state), nu, varsigma)
    out[dead] = 0.0
    return out
