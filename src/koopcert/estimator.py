"""Reduced-rank regression of transfer operators in the weighted RKHS.

Snapshot pairs (x_i, y_i) define input sections k_w(x_i, .) and target
sections k_w(y_i, .); in damped mode the targets are scaled by
exp(-eta(x_i)). The fitted operator is A = sum_ij theta_ij
k_w(x_i, .) (x) psi_j with a rank-r coefficient matrix theta = U W',
W = K U / m. The columns of U are the top eigenvectors of the pencil
(L K / m^2) u = s (K / m + beta I) u over the Gram matrices, found as a
symmetric top-r eigenproblem in a pivoted Cholesky factor of K, so no
m x m matrix is eigendecomposed; the default beta comes from the Lanczos
Perron root of K. The model keeps only these
factors and two r x r matrices, H = U' E W and Q = W' L W, so the
coefficient recursions that push kernel sections through powers of A and
its adjoint run in rank-r coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynsys import SnapshotDataset
from .eigsolve import matmul, perron_root, reduced_rank_eig, symmetric_eig
from .errors import EtaMismatchError, InvalidInputError, SolverFailureError
from .kernels import WeightedKernelSpec, gram, weight_values


@dataclass(frozen=True)
class EtaSpec:
    """State cost damping the target sections, eta(x) = scale * |x|^2.

    scale = 0 is allowed and makes the damped fit coincide with the plain
    one, which is a useful consistency check.
    """

    kind: str = "quadratic-norm"
    scale: float = 0.5

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
    """Retained pencil eigenvalues, empirical risk, HS and operator norms of
    the fitted operator, and the a-priori norm bound lam_max(L) / (beta m)."""

    sigma_sq: np.ndarray
    risk: float
    hs_norm: float
    op_norm: float
    norm_bound: float


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
    mode: str
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
    def theta(self) -> np.ndarray:
        """Dense m x m coefficient matrix U W'; costs O(m^2 r), for inspection."""
        return matmul(self.U, self.W.T)


def assemble_grams(
    kw: WeightedKernelSpec, X: np.ndarray, Y: np.ndarray, eta: EtaSpec | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Input Gram K, target Gram L, cross Gram E and the damping vector.

    In damped mode target section j carries exp(-eta(x_j)), which scales
    both indices of L and the target (column) index of E; the damping
    vector is None in plain mode.
    """
    K = gram(kw, X, X)
    L = gram(kw, Y, Y)
    E = gram(kw, X, Y)
    if eta is None:
        return K, L, E, None
    damping = np.exp(-eta.values(X))
    # one product per pair keeps L exactly symmetric (L_ij d_i d_j == L_ji d_j d_i)
    L *= np.multiply.outer(damping, damping)
    E *= damping[None, :]
    return K, L, E, damping


def normalize_columns(U: np.ndarray, gram_x: np.ndarray, beta: float) -> np.ndarray:
    """Rescale eigenvector columns to u' K_w ((1/m) K_w + beta I) u = 1.

    This scaling makes theta = (1/m) U U' K_w the minimizer of the
    regularized empirical risk.
    """
    m = gram_x.shape[0]
    KU = matmul(gram_x, U)
    nrm_sq = np.sum(KU * KU, axis=0) / m + beta * np.sum(U * KU, axis=0)
    if np.any(nrm_sq <= 0) or not np.all(np.isfinite(nrm_sq)):
        raise SolverFailureError(
            "an eigenvector has vanishing Gram seminorm; rank exceeds the "
            "effective rank of the data"
        )
    return U / np.sqrt(nrm_sq)[None, :]


def _section_risk(Z: np.ndarray, Q: np.ndarray, WG: np.ndarray, target_sq: np.ndarray) -> float:
    """Mean squared section error |A* k_w(x_i, .) - target_i|^2 over points i.

    Column i of Z is U' k_w(anchors_x, x_i), column i of WG is W' times the
    damped Gram column of target i against the anchor targets, and
    target_sq[i] is that target's squared norm.
    """
    per_point = np.sum(Z * matmul(Q, Z), axis=0) - 2.0 * np.sum(Z * WG, axis=0) + target_sq
    return max(float(np.mean(per_point)), 0.0)


def factor_model(
    kw: WeightedKernelSpec,
    X: np.ndarray,
    Y: np.ndarray,
    eta: EtaSpec | None,
    grams: tuple,
    beta: float,
    U: np.ndarray,
    sigma_sq: np.ndarray,
) -> KoopmanModel:
    """Model from normalized eigenvectors U and the Grams of assemble_grams.

    Builds W, H and Q and every fit diagnostic. The fit and read_model both
    come through here, so a reloaded model is bit-identical to the fitted
    one. There is no m x m eigensolve: lam_max(L) in the a-priori bound is
    the Lanczos Perron root of the nonnegative L, and the operator norm is
    lam_max(M^1/2 Q M^1/2)^1/2 with M = U' K U, an r x r solve.
    """
    K, L, E, damping = grams
    m = len(K)
    U = np.ascontiguousarray(U)
    Z = matmul(U.T, K)
    W = Z.T / m
    WL = matmul(W.T, L)
    Q = matmul(WL, W)
    H = matmul(matmul(U.T, E), W)
    M = matmul(Z, U)
    vals, vecs = symmetric_eig((M + M.T) / 2.0)
    Mh = matmul(vecs * np.sqrt(np.clip(vals, 0.0, None))[None, :], vecs.T)
    S = matmul(matmul(Mh, Q), Mh)
    diagnostics = FitDiagnostics(
        sigma_sq=sigma_sq,
        risk=_section_risk(Z, Q, WL, np.diag(L)),
        hs_norm=float(np.sqrt(max(np.sum(M * Q), 0.0))),
        op_norm=float(np.sqrt(max(symmetric_eig((S + S.T) / 2.0)[0][0], 0.0))),
        norm_bound=perron_root(L) / (beta * m),
    )
    return KoopmanModel(
        anchors_x=X,
        anchors_y=Y,
        kw=kw,
        mode="koopman" if eta is None else "zubov",
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


def _checked_eta(ds: SnapshotDataset, eta: EtaSpec) -> np.ndarray:
    """The dataset's stored eta values, once they are checked against the spec."""
    if ds.eta_x is None:
        raise InvalidInputError("damped mode needs eta values stored in the dataset")
    if np.max(np.abs(ds.eta_x - eta.values(ds.X))) > 1e-12:
        raise EtaMismatchError("dataset eta values disagree with the eta spec")
    return ds.eta_x


def _fit(
    ds: SnapshotDataset,
    kw: WeightedKernelSpec,
    cfg: RRRConfig,
    eta: EtaSpec | None,
) -> KoopmanModel:
    X, Y = ds.X, ds.Y
    m = len(X)
    if cfg.rank > m:
        raise InvalidInputError(f"rank {cfg.rank} exceeds sample count {m}")
    if eta is not None:
        _checked_eta(ds, eta)
    grams = assemble_grams(kw, X, Y, eta)
    K, L, _, _ = grams
    if float(np.max(np.abs(K))) == 0.0:
        raise InvalidInputError("all-zero Gram matrix; weight floor is misconfigured")
    beta = cfg.beta
    if beta is None:
        # K is entrywise nonnegative, like L, so lam_max(K) is its Perron root
        beta = cfg.beta_scale * perron_root(K) / m
    sigma_sq, U = reduced_rank_eig(K, L, beta, cfg.rank)
    U = normalize_columns(U, K, beta)
    return factor_model(kw, X, Y, eta, grams, beta, U, sigma_sq)


def fit_koopman(ds: SnapshotDataset, kw: WeightedKernelSpec, cfg: RRRConfig) -> KoopmanModel:
    """Reduced-rank fit of the one-step operator from snapshot pairs."""
    return _fit(ds, kw, cfg, eta=None)


def fit_zubov_koopman(
    ds: SnapshotDataset, kw: WeightedKernelSpec, eta: EtaSpec, cfg: RRRConfig
) -> KoopmanModel:
    """Reduced-rank fit of the cost-damped operator from snapshot pairs.

    Only the target Gram changes relative to the plain fit: section j
    becomes exp(-eta(x_j)) k_w(y_j, .). With eta identically zero the
    result matches fit_koopman bit for bit.
    """
    if eta is None:
        raise InvalidInputError("damped fit needs an eta spec")
    return _fit(ds, kw, cfg, eta=eta)


def operator_norm_bound(model: KoopmanModel) -> float:
    """A-priori operator norm bound lam_max(L_w) / (beta m)."""
    return model.diagnostics.norm_bound


def _forward_rank_coeffs(model: KoopmanModel, g0: np.ndarray, t: int) -> np.ndarray:
    """Rows s_1..s_t with s_1 = W' (d * g0) and s_(k+1) = H' s_k.

    A^k h = sum_i (U s_k)_i k_w(x_i, .) for the observable h with section
    values g0 at the anchors_y; d is the damping (1 in plain mode).
    """
    d = model.damping
    S = np.empty((t, model.rank))
    S[0] = matmul(model.W.T, g0 if d is None else d * g0)
    for k in range(1, t):
        S[k] = matmul(model.H.T, S[k - 1])
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
    return matmul(model.U, _forward_rank_coeffs(model, g0, t)[-1])


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
        z = matmul(model.U.T, gram(model.kw, model.anchors_x, x)[:, 0])
        out[1:] = matmul(_forward_rank_coeffs(model, g0, horizon), z)
    return out


def heldout_risk(model: KoopmanModel, ds: SnapshotDataset) -> float:
    """Mean squared section error of the fitted operator on fresh pairs."""
    Xh, Yh = ds.X, ds.Y
    Z = matmul(model.U.T, gram(model.kw, model.anchors_x, Xh))
    G = gram(model.kw, model.anchors_y, Yh)
    # k_w(y, y) = w(y)^2 since the base kernel is 1 on the diagonal.
    t_norm = weight_values(model.kw.weight, Yh) ** 2
    if model.mode == "zubov":
        dh = np.exp(-_checked_eta(ds, model.eta))
        G *= model.damping[:, None]
        G *= dh[None, :]
        t_norm = dh**2 * t_norm
    return _section_risk(Z, model.Q, matmul(model.W.T, G), t_norm)
