"""Symmetric and pencil eigensolvers used by the operator fit.

The regression step needs the top eigenpairs of the pencil
(L K / m^2) u = s (K / m + beta I) u, whose left side is a product of two
Gram matrices and therefore not symmetric. reduced_rank_eig solves it as a
symmetric problem: in the eigenbasis of K = V diag(lam) V' the congruence
by diag(sqrt(lam / (lam / m + beta))) turns it into a symmetric matrix
whose top eigenpairs give s and, after one back-substitution, u.

perron_root gives lam_max of the target Gram for the a-priori norm bound
without a dense eigensolve: the Gram is entrywise nonnegative, so by
Perron-Frobenius its top eigenvector is nonnegative and Lanczos from the
all-ones vector finds lam_max in a few dozen matrix-vector products.

generalized_eig_topr is the general solver for any pencil with a symmetric
positive definite right side: a Cholesky congruence C = L^-1 M L^-T handed
to a dense nonsymmetric eigensolver. True eigenvalues of such pencils are
real; a materially complex value in the retained block is reported as an
anomaly rather than silently truncated.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    InvalidInputError,
    NotPositiveDefiniteError,
    SolverFailureError,
    SpectralAnomalyError,
)

REALNESS_TOL = 1e-6
TIE_TOL = 1e-12
NULL_TOL = 1e-12


@dataclass(frozen=True)
class Pencil:
    """Generalized eigenproblem left M u = lam (right) B u.

    The right-hand matrix must be symmetric (to 1e-12 relative) positive
    definite; the left-hand matrix may be nonsymmetric.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        M, B = self.left, self.right
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape != B.shape:
            raise InvalidInputError("pencil needs two square matrices of equal size")
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(B))):
            raise InvalidInputError("pencil matrices contain non-finite entries")
        scale = max(1.0, float(np.max(np.abs(B))))
        if np.max(np.abs(B - B.T)) > 1e-12 * scale:
            raise InvalidInputError("right-hand pencil matrix is not symmetric")


def cholesky_spd(B: np.ndarray) -> np.ndarray:
    """Lower-triangular factor with B = L L^T."""
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise InvalidInputError("cholesky needs a square matrix")
    if not np.all(np.isfinite(B)):
        raise InvalidInputError("cholesky input contains non-finite entries")
    try:
        return scipy.linalg.cholesky(B, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from exc


def symmetric_eig(S: np.ndarray, top: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric S.

    With top = k only the k largest eigenpairs are computed. Only the lower
    triangle of S is read.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError("symmetric_eig needs a square matrix")
    if not np.all(np.isfinite(S)):
        raise InvalidInputError("symmetric_eig input contains non-finite entries")
    m = S.shape[0]
    if top is not None and not 1 <= top <= m:
        raise InvalidInputError(f"top={top} must lie in [1, {m}]")
    subset = None if top is None else [m - top, m - 1]
    try:
        vals, vecs = scipy.linalg.eigh(S, subset_by_index=subset, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverFailureError(str(exc)) from exc
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def perron_root(S: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric, entrywise nonnegative matrix S.

    Lanczos from the all-ones vector, which overlaps the nonnegative
    Perron eigenvector, with full reorthogonalization (twice) each step.
    It stops once the Ritz residual |b_k y_k| is at most 1e-15 theta, on
    breakdown (b_k = 0), or when the Krylov space reaches dimension m,
    where theta is exact. The basis grows one vector per matrix product.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1] or S.shape[0] == 0:
        raise InvalidInputError("perron_root needs a nonempty square matrix")
    if not np.all(np.isfinite(S)):
        raise InvalidInputError("perron_root input contains non-finite entries")
    if np.any(S < 0):
        raise InvalidInputError("perron_root needs an entrywise nonnegative matrix")
    m = len(S)
    basis = [np.full(m, 1.0 / np.sqrt(m))]
    diag, offdiag = [], []
    while True:
        w = S @ basis[-1]
        diag.append(float(basis[-1] @ w))
        theta, y = scipy.linalg.eigh_tridiagonal(
            diag, offdiag, select="i", select_range=(len(diag) - 1, len(diag) - 1)
        )
        B = np.array(basis)
        w -= B.T @ (B @ w)
        w -= B.T @ (B @ w)
        b = float(np.linalg.norm(w))
        # theta >= 1' S 1 / m >= 0, so breakdown (b = 0) also stops here.
        if b * abs(y[-1, 0]) <= 1e-15 * theta[0] or len(basis) == m:
            return float(theta[0])
        offdiag.append(b)
        basis.append(w / b)


def _warn_on_rank_tie(vals: np.ndarray, r: int) -> None:
    """Warn when the r-th and (r+1)-th of the descending vals tie."""
    if len(vals) > r and abs(vals[r - 1] - vals[r]) <= TIE_TOL * (1.0 + abs(vals[r - 1])):
        warnings.warn(
            f"eigenvalues {r - 1} and {r} tie within {TIE_TOL:g}; "
            "retention order falls back to index order",
            RuntimeWarning,
            stacklevel=3,
        )


def reduced_rank_eig(
    lam: np.ndarray, V: np.ndarray, L: np.ndarray, beta: float, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenpairs of (L K / m^2) u = s (K / m + beta I) u, 1 <= r <= m.

    K = V diag(lam) V' comes as its eigendecomposition; L is the symmetric
    target Gram. With G = V' L V, b = lam / m + beta and d = sqrt(lam / b),
    each eigenpair (s, y) of the symmetric diag(d) G diag(d) / m^2 gives the
    eigenvector u = V (G (d * y) / b). Returns s descending and the m x r
    eigenvectors, unnormalized. Raises SolverFailureError when a retained s
    is numerically zero: r exceeds the effective rank of the data.
    """
    m = len(lam)
    G = V.T @ (L @ V)
    b = lam / m + beta
    d = np.sqrt(np.clip(lam, 0.0, None) / b)
    s, Y = symmetric_eig(d[:, None] * G * d[None, :] / (m * m), top=min(r + 1, m))
    if not s[r - 1] > NULL_TOL * s[0]:
        raise SolverFailureError(
            f"rank {r} exceeds the effective rank of the data: retained "
            f"eigenvalue {r - 1} is {s[r - 1]:.3g} against a top eigenvalue of {s[0]:.3g}"
        )
    _warn_on_rank_tie(s, r)
    U = V @ ((G @ (d[:, None] * Y[:, :r])) / b[:, None])
    return s[:r], U


def generalized_eig_topr(
    pencil: Pencil, r: int, realness_tol: float = REALNESS_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenpairs of left u = lam right u, sorted by real part.

    Returns (vals, U) with vals descending and U the m-by-r eigenvector
    matrix, back-transformed so that left @ u = lam * right @ u. Retained
    eigenvalues with imaginary part above realness_tol * (1 + |real|)
    raise a spectral anomaly; small imaginary dust is truncated and tiny
    negative real parts are clamped to zero.
    """
    M, B = pencil.left, pencil.right
    m = M.shape[0]
    if not 1 <= r <= m:
        raise InvalidInputError(f"rank r={r} must lie in [1, {m}]")
    L = cholesky_spd(B)
    # C = L^-1 M L^-T via two triangular solves.
    T = scipy.linalg.solve_triangular(L, M, lower=True)
    C = scipy.linalg.solve_triangular(L, T.T, lower=True).T
    try:
        vals, Z = scipy.linalg.eig(C)
    except scipy.linalg.LinAlgError as exc:
        raise SolverFailureError(str(exc)) from exc
    order = np.argsort(-vals.real, kind="stable")
    vals = vals[order]
    Z = Z[:, order]
    top = vals[:r]
    bad = np.abs(top.imag) > realness_tol * (1.0 + np.abs(top.real))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise SpectralAnomalyError(
            f"retained eigenvalue {i} is complex: {top[i]:.6g} "
            "(matrices are inconsistent with a definite pencil)"
        )
    _warn_on_rank_tie(vals.real, r)
    lam = np.clip(top.real, 0.0, None)
    Zr = Z[:, :r].real
    U = scipy.linalg.solve_triangular(L, Zr, lower=True, trans="T")
    return lam, U
