"""Reduced-rank regression of transfer operators in the weighted RKHS.

Snapshot pairs (x_i, y_i) define input sections k_w(x_i, .) and target
sections k_w(y_i, .); in damped mode target i is scaled by the damping
d_i = exp(-eta(x_i)), which kernels.gram takes as a per-point scale of the
weight. The fitted operator is A = sum_ij theta_ij k_w(x_i, .) (x) psi_j
with a rank-r coefficient matrix theta = U W', W = K U / m. The columns
of U are the top eigenvectors of the pencil (L K / m^2) u =
s (K / m + beta I) u over the Gram matrices, found as a symmetric top-r
eigenproblem in a pivoted Cholesky factor of K, with U in closed form
from the same factor, so no m x m matrix is eigendecomposed or
Cholesky-factored; the default beta comes from lam_max(K), the Lanczos
top eigenvalue of the factor's k x k Gram Psi'Psi. The model keeps only
these factors and two r x r matrices, H = U' E W and Q = W' L W, so the
coefficient recursions that push kernel sections through powers of A and
its adjoint run in rank-r coordinates. fit_koopman makes both fits, the
damped one when it is given an eta, from which it computes d at the pairs'
states: a dataset holds only its pairs.

Neither K nor the cross Gram E is ever held. The fit reads K's diagonal,
(w(x_i))^2 since the base kernel is 1 at zero distance, and the rows
pivoted_cholesky asks for; it turns the m x k factor Psi into J in Psi's
own memory, and L J, like every other product with a Gram (K U, E W, and
the held-out products), is streamed: kernels.gram_product builds the
Gram's rows a 2 MB block at a time and drops each block after its
product. The one m x m array is the damped target Gram L, which
factor_model, where the fit and read_model both end, builds once for
W' L and its Perron root in the a-priori bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynsys import SnapshotDataset
from .eigsolve import input_factor, perron_root, pivoted_cholesky, reduced_rank_eig, symmetric_eig
from .errors import InvalidInputError
from .kernels import WeightedKernelSpec, gram, gram_product, weight_values


@dataclass(frozen=True)
class EtaSpec:
    """State cost damping the target sections, eta(x) = scale * |x|^2.

    scale = 0 is allowed and makes the damped fit coincide with the plain
    one, which is a useful consistency check.
    """

    scale: float
    kind: str = "quadratic-norm"

    def __post_init__(self):
        if self.kind != "quadratic-norm":
            raise InvalidInputError(f"unknown eta kind {self.kind!r}")
        if not np.isfinite(self.scale) or self.scale < 0:
            raise InvalidInputError("eta scale must be a nonnegative real")

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        return self.of_sq_norm(np.sum(X * X, axis=-1))

    def of_sq_norm(self, sq: np.ndarray) -> np.ndarray:
        """The cost of states whose squared norms are sq."""
        return self.scale * sq

    def damping(self, X: np.ndarray) -> np.ndarray:
        """The damping exp(-eta(x)) of each state."""
        return np.exp(-self.values(X))


@dataclass(frozen=True)
class RRRConfig:
    """Hyperparameters of the reduced-rank fit.

    beta is the ridge strength; when None it is resolved to
    beta_scale * lam_max((1/m) K_w) at fit time.
    """

    rank: int
    beta: float | None = None
    beta_scale: float = 0.01

    def __post_init__(self):
        if self.rank < 1:
            raise InvalidInputError("rank must be >= 1")
        if self.beta is not None and (not np.isfinite(self.beta) or self.beta <= 0):
            raise InvalidInputError("beta must be positive when given")
        if self.beta is None and (not np.isfinite(self.beta_scale) or self.beta_scale <= 0):
            raise InvalidInputError("beta_scale must be positive")


@dataclass(frozen=True)
class FitDiagnostics:
    """Empirical risk, HS and operator norms of the fitted operator, the a-priori
    norm bound lam_max(L) / (beta m), and last the retained pencil eigenvalues."""

    risk: float
    hs_norm: float
    op_norm: float
    norm_bound: float
    sigma_sq: np.ndarray


@dataclass(frozen=True, eq=False)
class KoopmanModel:
    """Fitted finite-rank transfer operator held as its rank-r factors.

    U and W = K U / m are m x r; H = U' E W and Q = W' L W are r x r, where
    K is the input Gram, E the damped cross Gram and L the damped target
    Gram. damping holds exp(-eta(x_i)) in zubov mode and is None otherwise.
    Models compare and hash by identity.
    """

    anchors_x: np.ndarray
    anchors_y: np.ndarray
    kw: WeightedKernelSpec
    eta: EtaSpec | None
    beta: float
    rank: int
    U: np.ndarray
    W: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    damping: np.ndarray | None
    diagnostics: FitDiagnostics

    def __len__(self) -> int:
        return len(self.anchors_x)

    @property
    def mode(self) -> str:
        """The fit's mode, read off eta: "zubov" when damped, "koopman" otherwise."""
        return "koopman" if self.eta is None else "zubov"


def _section_losses(kw, Y, damping, Z, Q, WG) -> np.ndarray:
    """Squared section errors |A* k_w(x_i, .) - d_i k_w(y_i, .)|^2 of pairs i.

    Column i of Z is U' k_w(anchors_x, x_i) and column i of WG is W' times
    the damped Gram column of target i against the anchor targets. The
    base kernel is 1 on the diagonal, so target i's squared norm, the
    diagonal entry of its damped Gram, is (w(y_i) d_i)^2.
    """
    s = weight_values(kw.weight, Y, damping)
    return np.sum(Z * (Q @ Z), axis=0) - 2.0 * np.sum(Z * WG, axis=0) + s * s


def factor_model(
    kw: WeightedKernelSpec,
    X: np.ndarray,
    Y: np.ndarray,
    eta: EtaSpec | None,
    beta: float,
    U: np.ndarray,
    sigma_sq: np.ndarray,
) -> KoopmanModel:
    """Model from the anchors and normalized eigenvectors U.

    Builds W, H and Q and every fit diagnostic. K U and E W, with E the
    cross Gram damped in its target (column) index, are streamed
    (kernels.gram_product), so the damped target Gram L, built once for
    W' L and its Perron root, is the one m x m array held. The fit and
    read_model both end in this call with the same arguments, so a reloaded
    model is bit-identical to the fitted one. There is no m x m eigensolve:
    lam_max(L) in the a-priori bound is the Lanczos Perron root of the
    nonnegative L, and the operator norm is lam_max(M^1/2 Q M^1/2)^1/2 with
    M = U' K U, an r x r solve.
    """
    m = len(X)
    Z = gram_product(kw, X, None, U).T
    W = Z.T / m
    damping = None if eta is None else eta.damping(X)
    L = gram(kw, Y, scale_a=damping)
    WL = W.T @ L
    Q = WL @ W
    norm_bound = perron_root(L) / (beta * m)
    del L
    H = U.T @ gram_product(kw, X, Y, W, scale_b=damping)
    M = Z @ U
    vals, vecs = symmetric_eig((M + M.T) / 2.0)
    Mh = (vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :]) @ vecs.T
    S = Mh @ Q @ Mh
    diagnostics = FitDiagnostics(
        sigma_sq=sigma_sq,
        risk=max(float(np.mean(_section_losses(kw, Y, damping, Z, Q, WL))), 0.0),
        hs_norm=float(np.sqrt(max(np.sum(M * Q), 0.0))),
        op_norm=float(np.sqrt(max(symmetric_eig((S + S.T) / 2.0)[0][0], 0.0))),
        norm_bound=norm_bound,
    )
    return KoopmanModel(
        anchors_x=X,
        anchors_y=Y,
        kw=kw,
        eta=eta,
        beta=float(beta),
        rank=U.shape[1],
        U=U,
        W=W,
        H=H,
        Q=Q,
        damping=damping,
        diagnostics=diagnostics,
    )


def fit_koopman(
    ds: SnapshotDataset, kw: WeightedKernelSpec, cfg: RRRConfig, *, eta: EtaSpec | None = None
) -> KoopmanModel:
    """Reduced-rank fit of the one-step operator from snapshot pairs.

    With eta given, the fit is of the cost-damped operator: only the target
    Gram changes, section j becoming exp(-eta(x_j)) k_w(y_j, .), and with
    eta identically zero the result matches the plain fit bit for bit. The
    same pairs serve both fits: sampling does not depend on eta.
    """
    X, Y = ds.X, ds.Y
    m = len(X)
    if cfg.rank > m:
        raise InvalidInputError(f"rank {cfg.rank} exceeds sample count {m}")
    damping = None if eta is None else eta.damping(X)
    # K's diagonal, w(x_i)^2: the base kernel is 1 at zero distance
    w = weight_values(kw.weight, X)
    diag = w * w
    if float(diag.max()) == 0.0:
        raise InvalidInputError("all-zero Gram matrix; weight floor is misconfigured")
    Psi = pivoted_cholesky(diag, lambda idx: gram(kw, X[idx], X))
    PtP = Psi.T @ Psi
    # lam_max(K) = lam_max(Psi'Psi); Lanczos starts from Psi'1, which overlaps
    # the top eigenvector Psi'u / |Psi'u|, since (Psi'1)'(Psi'u) = 1'Ku = lam 1'u > 0
    # for the nonnegative Perron vector u of K
    beta = cfg.beta if cfg.beta is not None else cfg.beta_scale * perron_root(PtP, Psi.sum(axis=0)) / m
    # J takes over Psi's memory
    J = input_factor(Psi, beta, PtP)
    del PtP
    sigma_sq, U = reduced_rank_eig(J, gram_product(kw, Y, None, J, scale_a=damping), beta, cfg.rank)
    del Psi, J
    return factor_model(kw, X, Y, eta, beta, U, sigma_sq)


def _forward_rank_coeffs(model: KoopmanModel, g0: np.ndarray, t: int) -> np.ndarray:
    """Rows s_1..s_t with s_1 = W' (d * g0) and s_(k+1) = H' s_k.

    A^k h = sum_i (U s_k)_i k_w(x_i, .) for the observable h with section
    values g0 at the anchors_y; d is the damping (1 in plain mode).
    """
    S = np.empty((t, model.rank))
    S[0] = model.W.T @ (g0 if model.damping is None else model.damping * g0)
    for k in range(1, t):
        S[k] = model.H.T @ S[k - 1]
    return S


def forward_coeffs(model: KoopmanModel, g0: np.ndarray, t: int) -> np.ndarray:
    """Input-basis coefficients of A^t h for h with section values g0.

    g0 holds the raw values of the weighted observable at the anchors_y;
    in damped mode the exp(-eta) factors are applied internally, matching
    the fitted targets. A^t h = sum_i a_i k_w(x_i, .) with
    a = U (H')^(t-1) W' g0.
    """
    if t < 1:
        raise InvalidInputError("forward power t must be >= 1")
    g0 = np.asarray(g0, dtype=float)
    if g0.shape != (len(model),):
        raise InvalidInputError("g0 must hold one value per anchor")
    return model.U @ _forward_rank_coeffs(model, g0, t)[-1]


def predict_observables(model: KoopmanModel, g, x: np.ndarray, horizon: int) -> np.ndarray:
    """Estimates of (w g)(f^t(x)) for t = 0..horizon from the fitted operator.

    g maps a batch of states, shape (k, n), to k reals; it is evaluated
    once at x and once on all anchors_y. t = 0 gives w(x) g(x) itself, and
    t >= 1 gives (A^t (w g))(x) = s_t' U' k_x in rank coordinates.
    """
    if horizon < 0:
        raise InvalidInputError("prediction horizon must be >= 0")
    x = np.asarray(x, dtype=float)[None, :]
    out = np.empty(horizon + 1)
    out[0] = weight_values(model.kw.weight, x)[0] * g(x)[0]
    if horizon >= 1:
        g0 = weight_values(model.kw.weight, model.anchors_y) * g(model.anchors_y)
        z = gram_product(model.kw, x, model.anchors_x, model.U)[0]
        out[1:] = _forward_rank_coeffs(model, g0, horizon) @ z
    return out


def heldout_risk(model: KoopmanModel, ds: SnapshotDataset) -> float:
    """Mean squared section error of the fitted operator on fresh pairs.

    The pairs' products with the Grams against the anchors are streamed
    (kernels.gram_product), so no Gram of the anchors with the pairs is
    held: the largest arrays are a 2 MB Gram block and the r x m_h
    rank-space ones, the size of U for the CLI's m_h = m held-out pairs.
    A damped model damps the pairs by its own eta.
    """
    d = None if model.eta is None else model.eta.damping(ds.X)
    kw, Y = model.kw, ds.Y
    Z = gram_product(kw, ds.X, model.anchors_x, model.U).T
    WG = gram_product(kw, Y, model.anchors_y, model.W, scale_a=d, scale_b=model.damping).T
    return max(float(np.mean(_section_losses(kw, Y, d, Z, model.Q, WG))), 0.0)
