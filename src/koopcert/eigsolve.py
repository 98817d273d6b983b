"""Symmetric eigensolvers used by the operator fit.

The regression step needs the top eigenpairs of the pencil
(L K / m^2) u = s (K / m + beta I) u, whose left side is a product of two
Gram matrices and therefore not symmetric. reduced_rank_eig solves it as a
symmetric problem in a low-rank factor of K: the pivoted Cholesky factor
K = Psi Psi', with k columns for the numerical rank k of K (well below m
for the smooth Gaussian Grams at large m), turns it into a k x k symmetric
matrix whose top eigenpairs give s and, after one Cholesky solve with
K / m + beta I, u. No m x m matrix is eigendecomposed.

The solve takes builders of K and L rather than the Grams, so it owns
each Gram and holds it only from its build to its last read, and so at
most two m x m arrays at once.

perron_root gives lam_max of a Gram, for the default ridge and the
a-priori norm bound, without a dense eigensolve: the Gram is entrywise
nonnegative, so by Perron-Frobenius its top eigenvector is nonnegative
and Lanczos from the all-ones vector finds lam_max in a few dozen
matrix-vector products.

Every dense product in the package goes through matmul, which calls
scipy's BLAS, the library behind scipy's LAPACK. numpy and scipy each
ship their own OpenBLAS, each with its own thread pool, so a numpy `@`
between two LAPACK calls hands the work from one pool to the other; the
pool just left keeps its threads spinning for a while and they compete
with the busy pool's threads for the cores. On a 2-core machine a
200 x 200 product followed by a Cholesky took 13 ms this way against
0.9 ms with both in scipy's BLAS. So the package uses no `@`, np.dot or
np.linalg: tests/test_eigsolve.py checks the source for them.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import InvalidInputError, SolverFailureError

TIE_TOL = 1e-12
NULL_TOL = 1e-12


def _finite_square(S: np.ndarray, who: str) -> np.ndarray:
    """S as a float array once it is checked to be square and finite."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError(f"{who} needs a square matrix")
    if not np.all(np.isfinite(S)):
        raise InvalidInputError(f"{who} input contains non-finite entries")
    return S


def _transposed(x: np.ndarray) -> tuple[np.ndarray, int]:
    """x' as a column-major BLAS operand and its transpose flag: the view x.T,
    untransposed, when x is row-major; otherwise x itself, transposed (the
    BLAS wrapper copies it first unless it is column-major)."""
    return (x.T, 0) if x.flags.c_contiguous else (x, 1)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for nonempty float arrays of one or two dimensions, in scipy's BLAS.

    A 2-D product is formed as (a b)' = b' a' in column-major order and
    returned as its row-major transpose, which is how numpy's matmul calls
    BLAS: row-major and column-major operands and their .T views enter
    without a copy. A vector on either side is a dgemv, two vectors a ddot.
    """
    blas = scipy.linalg.blas
    if a.ndim == 1 and b.ndim == 1:
        return blas.ddot(a, b)
    if b.ndim == 1:
        A, t = _transposed(a)
        return blas.dgemv(1.0, A, b, trans=1 - t)
    if a.ndim == 1:
        B, t = _transposed(b)
        return blas.dgemv(1.0, B, a, trans=t)
    B, tb = _transposed(b)
    A, ta = _transposed(a)
    return blas.dgemm(1.0, B, A, trans_a=tb, trans_b=ta).T


def symmetric_eig(S: np.ndarray, top: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric S.

    With top = k only the k largest eigenpairs are computed. Only the lower
    triangle of S is read.
    """
    S = _finite_square(S, "symmetric_eig")
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
    S = _finite_square(S, "perron_root")
    if S.shape[0] == 0:
        raise InvalidInputError("perron_root needs a nonempty matrix")
    if np.any(S < 0):
        raise InvalidInputError("perron_root needs an entrywise nonnegative matrix")
    m = len(S)
    basis = [np.full(m, 1.0 / np.sqrt(m))]
    diag, offdiag = [], []
    while True:
        w = matmul(S, basis[-1])
        diag.append(float(matmul(basis[-1], w)))
        theta, y = scipy.linalg.eigh_tridiagonal(
            diag, offdiag, select="i", select_range=(len(diag) - 1, len(diag) - 1)
        )
        B = np.array(basis)
        w -= matmul(matmul(B, w), B)
        w -= matmul(matmul(B, w), B)
        b = float(scipy.linalg.blas.dnrm2(w))
        # theta >= 1' S 1 / m >= 0, so breakdown (b = 0) also stops here.
        if b * abs(y[-1, 0]) <= 1e-15 * theta[0] or len(basis) == m:
            return float(theta[0])
        offdiag.append(b)
        basis.append(w / b)


def _cholesky(A: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of SPD A, in A's memory when A is Fortran-ordered."""
    try:
        return scipy.linalg.cholesky(A, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverFailureError(str(exc)) from exc


def _input_factor(K: np.ndarray, beta: float) -> np.ndarray:
    """The m x k J = Psi R^-1 of reduced_rank_eig; K is overwritten by its factor."""
    m = len(K)
    # K is exactly symmetric, so K.T is K in Fortran order and dpstrf factors
    # it in place
    c, piv, k, _ = scipy.linalg.lapack.dpstrf(K.T, lower=1, overwrite_a=1)
    rows = np.argsort(piv)
    Psi = c[rows, :k]
    # the strict upper triangle of c still holds K's entries
    Psi[rows[:, None] < np.arange(k)] = 0.0
    # N = Psi' Psi / m + beta I in its upper triangle (a rank-k update, half
    # a product's work) and in Fortran order, so R is factored in N's
    # memory; J = Psi R^-1 is solved in Psi's
    N = scipy.linalg.blas.dsyrk(1.0, Psi.T)
    N /= m
    N.flat[:: k + 1] += beta
    R = _cholesky(N)
    return scipy.linalg.solve_triangular(
        R, Psi.T, trans="T", overwrite_b=True, check_finite=False
    ).T


def reduced_rank_eig(
    build_k: Callable[[], np.ndarray],
    build_l: Callable[[], np.ndarray],
    ridge: Callable[[np.ndarray], float],
    r: int,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Top-r eigenpairs of (L K / m^2) u = s (K / m + beta I) u, 1 <= r <= m.

    build_k() and build_l() build the symmetric input and target Grams K
    and L, and ridge(K) gives beta. LAPACK's pivoted Cholesky at its
    default tolerance gives K = Psi Psi' with Psi m x k; with
    N = Psi' Psi / m + beta I = R'R and J = Psi R^-1, K (K / m + beta I)^-1
    = J J', so the pencil's nonzero eigenvalues s are those of the k x k
    symmetric J' L J / m^2 and each eigenpair (s, y) gives the eigenvector
    u = (K / m + beta I)^-1 L J y.

    Each m x m array lives from its build to its last read, so at most two
    are held at once: K is factored in its own memory and dropped, L is
    built once the factor exists and dropped after L J, and K is built once
    more for K / m + beta I. Returns beta, s descending, the m x r
    eigenvectors, unnormalized, each signed so that its largest-magnitude
    entry is positive, and that last K. Raises SolverFailureError when r
    exceeds k or a retained s is numerically zero: r exceeds the effective
    rank of the data.
    """
    K = _finite_square(build_k(), "reduced_rank_eig")
    m = len(K)
    if not 1 <= r <= m:
        raise InvalidInputError(f"rank {r} must lie in [1, {m}]")
    beta = ridge(K)
    J = _input_factor(K, beta)
    del K
    L = _finite_square(build_l(), "reduced_rank_eig")
    if L.shape != (m, m):
        raise InvalidInputError("reduced_rank_eig needs K and L of the same shape")
    LJ = matmul(L, J)
    del L
    T = matmul(J.T, LJ)
    T /= m * m
    del J
    k = len(T)
    if k < r:
        raise SolverFailureError(
            f"rank {r} exceeds the effective rank of the data: the input Gram "
            f"has numerical rank {k}"
        )
    s, Y = symmetric_eig(T, top=min(r + 1, k))
    del T
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
    LJY = matmul(LJ, Y[:, :r])
    del LJ
    K = build_k()
    # C = K / m + beta I, factored in place like N; its condition is at
    # most 1 + lam_max(K) / (m beta)
    C = K / m
    C.flat[:: m + 1] += beta
    U = scipy.linalg.cho_solve((_cholesky(C.T), False), LJY, check_finite=False)
    # the eigensolver's sign choice is arbitrary: fix it by the largest entry
    U *= np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(r)])
    return beta, s[:r], U, K
