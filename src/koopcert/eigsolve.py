"""Symmetric eigensolvers used by the operator fit.

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
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, SolverFailureError

TIE_TOL = 1e-12
NULL_TOL = 1e-12


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
    if len(s) > r and abs(s[r - 1] - s[r]) <= TIE_TOL * (1.0 + abs(s[r - 1])):
        warnings.warn(
            f"eigenvalues {r - 1} and {r} tie within {TIE_TOL:g}; "
            "retention order falls back to index order",
            RuntimeWarning,
            stacklevel=2,
        )
    U = V @ ((G @ (d[:, None] * Y[:, :r])) / b[:, None])
    return s[:r], U
