"""Symmetric eigensolvers used by the operator fit.

The regression step needs the top eigenpairs of the pencil
(L K / m^2) u = s (K / m + beta I) u, whose left side is a product of two
Gram matrices and therefore not symmetric. input_factor and
reduced_rank_eig solve it as a symmetric problem in a low-rank factor of
K: the pivoted Cholesky factor K = Psi Psi', with k columns for the
numerical rank k of K (well below m for the smooth Gaussian Grams at
large m), turns it into a k x k symmetric matrix whose top eigenpairs give
s and, in closed form from the same factor, u. No m x m matrix is
eigendecomposed or Cholesky-factored, and the solve needs K only through
its factor, which is computed in K's own memory.

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


def input_factor(K: np.ndarray, beta: float) -> np.ndarray:
    """The m x k J = Psi R^-1 of reduced_rank_eig, where K = Psi Psi' and
    N = Psi' Psi / m + beta I = R'R.

    K must be exactly symmetric; when it is a C-ordered float array it is
    overwritten by its factor. LAPACK's pivoted Cholesky stops at its
    default tolerance, so k is the numerical rank of K.
    """
    K = _finite_square(K, "input_factor")
    m = len(K)
    # K is exactly symmetric, so K.T is K in Fortran order and dpstrf factors
    # it in place
    c, piv, k, _ = scipy.linalg.lapack.dpstrf(K.T, lower=1, overwrite_a=1)
    rows = np.argsort(piv)
    Psi = c[rows, :k]
    # the strict upper triangle of c still holds K's entries
    Psi[rows[:, None] < np.arange(k)] = 0.0
    # N in its upper triangle (a rank-k update, half a product's work) and in
    # Fortran order, so R is factored in N's memory; J = Psi R^-1 is solved
    # in Psi's
    N = scipy.linalg.blas.dsyrk(1.0, Psi.T)
    N /= m
    N.flat[:: k + 1] += beta
    try:
        R = scipy.linalg.cholesky(N, overwrite_a=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SolverFailureError(str(exc)) from exc
    return scipy.linalg.solve_triangular(
        R, Psi.T, trans="T", overwrite_b=True, check_finite=False
    ).T


def reduced_rank_eig(
    J: np.ndarray, LJ: np.ndarray, beta: float, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenpairs of (L K / m^2) u = s (K / m + beta I) u, 1 <= r <= m.

    J = input_factor(K, beta) for the symmetric input Gram K, LJ is the
    m x k product L J with the symmetric target Gram L, and beta > 0 the
    ridge. With K = Psi Psi' and J = Psi R^-1, K (K / m + beta I)^-1 = J J'
    and (K / m + beta I)^-1 = (I - J J' / m) / beta, so the pencil's nonzero
    eigenvalues s are those of the k x k symmetric T = J' L J / m^2, and an
    eigenpair (s, y) of T, where J' L J y = m^2 s y, gives the eigenvector

        u = (L J y / s - m J y) / (beta m^2),

    scaled so that u' K (K / m + beta I) u = |J' L J y|^2 / (m^4 s^2) = 1,
    the scaling that makes theta = U U' K / m the minimizer of the
    regularized empirical risk. The closed form subtracts two nearly equal
    terms, so its relative error grows like 1 / beta.

    The solve needs L only through L J, so it takes that product and holds
    no m x m array: a caller that forms it from a Gram it does not keep
    holds that Gram only for the product. Returns s descending and the
    m x r eigenvectors, each signed so that its largest-magnitude entry is
    positive. Raises SolverFailureError when r exceeds k or a retained s is
    numerically zero: r exceeds the effective rank of the data.
    """
    m = len(J)
    if not 1 <= r <= m:
        raise InvalidInputError(f"rank {r} must lie in [1, {m}]")
    if not (np.isfinite(beta) and beta > 0):
        raise InvalidInputError(f"reduced_rank_eig needs a positive ridge, got beta={beta}")
    if np.shape(LJ) != J.shape:
        raise InvalidInputError("reduced_rank_eig needs L J of the shape of J")
    T = matmul(J.T, LJ)
    T /= m * m
    k = len(T)
    if k < r:
        raise SolverFailureError(
            f"rank {r} exceeds the effective rank of the data: the input Gram "
            f"has numerical rank {k}"
        )
    # symmetric_eig refuses a non-finite T, so a non-finite L J
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
    s, Y = s[:r], Y[:, :r]
    U = matmul(LJ, Y)
    U /= s
    U -= m * matmul(J, Y)
    U /= beta * m * m
    # the eigensolver's sign choice is arbitrary: fix it by the largest entry
    U *= np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(r)])
    return s, U
