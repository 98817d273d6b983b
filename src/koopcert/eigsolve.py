"""Symmetric eigensolvers and the pivoted Cholesky factor used by the operator fit.

The regression step needs the top eigenpairs of the pencil
(L K / m^2) u = s (K / m + beta I) u, whose left side is a product of two
Gram matrices and therefore not symmetric. pivoted_cholesky,
input_factor and reduced_rank_eig solve it as a symmetric problem in a
low-rank factor of K: the pivoted Cholesky factor K = Psi Psi', with k
columns for the numerical rank k of K (well below m for the smooth
Gaussian Grams at large m), turns it into a k x k symmetric matrix whose
top eigenpairs give s and, in closed form from the same factor, u. No
m x m matrix is eigendecomposed or Cholesky-factored, and K is never
held: pivoted_cholesky reads K's diagonal and asks for the rows it pivots
on, input_factor reuses the fit's Psi'Psi, and the solve reads L only
through the product L J.

perron_root gives the largest eigenvalue of a symmetric matrix by Lanczos
from a start vector that overlaps its top eigenvector, in a few dozen
matrix-vector products. It serves the a-priori norm bound, on the
entrywise nonnegative L from the all-ones vector (by Perron-Frobenius the
top eigenvector is nonnegative), and the default ridge, on the k x k
Psi'Psi, whose top eigenvalue is K's. Every product and factorization runs
in numpy's own BLAS and LAPACK.

stein_solve gives the Gramian P = sum_t (A^t)' Q A^t of a stable linear
map by the doubling iteration, for the Lyapunov oracle's exact linear tail.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InvalidInputError, SolverFailureError

TIE_TOL = 1e-12
NULL_TOL = 1e-12
# pivoted_cholesky's candidates per product and pivot-acceptance ratio: taking
# every candidate of a block loses the factor's accuracy
PIVOT_BLOCK = 32
PIVOT_RATIO = 0.1
# rows of J that input_factor solves for per product
SOLVE_BLOCK = 128
# stein_solve's doublings: 2^64 terms of the series
STEIN_DOUBLINGS = 64


def _finite_square(S: np.ndarray, who: str) -> np.ndarray:
    """S as a float array once it is checked to be square and finite.

    The check reads S's least and largest entries, which are non-finite
    when any entry is (a NaN propagates), so it allocates no mask of S.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError(f"{who} needs a square matrix")
    if S.size and not (np.isfinite(S.min()) and np.isfinite(S.max())):
        raise InvalidInputError(f"{who} input contains non-finite entries")
    return S


def symmetric_eig(S: np.ndarray, top: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of symmetric S.

    With top = k only the k largest eigenpairs are returned. Only the lower
    triangle of S is read.
    """
    S = _finite_square(S, "symmetric_eig")
    m = S.shape[0]
    if top is not None and not 1 <= top <= m:
        raise InvalidInputError(f"top={top} must lie in [1, {m}]")
    try:
        vals, vecs = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(str(exc)) from exc
    top = m if top is None else top
    return vals[::-1][:top].copy(), vecs[:, ::-1][:, :top].copy()


def perron_root(S: np.ndarray, start: np.ndarray | None = None) -> float:
    """Largest eigenvalue of a symmetric S that is positive semidefinite or
    entrywise nonnegative.

    Lanczos from start, which must overlap the top eigenvector, with full
    reorthogonalization (twice) each step. Omitted, start is the all-ones
    vector, and then S must be entrywise nonnegative: its Perron eigenvector
    is nonnegative and overlaps it. It stops once the Ritz residual
    |b_k y_k| is at most 1e-15 theta, on breakdown (b_k = 0), or when the
    Krylov space reaches dimension m, where theta is exact. The basis grows
    one vector per matrix product.
    """
    S = _finite_square(S, "perron_root")
    if S.shape[0] == 0:
        raise InvalidInputError("perron_root needs a nonempty matrix")
    if start is None:
        if S.min() < 0:
            raise InvalidInputError("perron_root needs an entrywise nonnegative matrix")
        start = np.ones(len(S))
    m = len(S)
    basis = [start / np.linalg.norm(start)]
    diag, offdiag = [], []
    while True:
        w = S @ basis[-1]
        diag.append(float(basis[-1] @ w))
        # the Ritz pair from the dense tridiagonal, one row per step taken
        tri = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        vals, vecs = np.linalg.eigh(tri)
        theta, y_last = vals[-1], vecs[-1, -1]
        B = np.array(basis)
        w -= (B @ w) @ B
        w -= (B @ w) @ B
        b = float(np.linalg.norm(w))
        # theta >= 0 under the precondition (theta >= 1' S 1 / m for a
        # nonnegative S), so breakdown (b = 0) also stops here.
        if b * abs(y_last) <= 1e-15 * theta or len(basis) == m:
            return float(theta)
        offdiag.append(b)
        basis.append(w / b)


def stein_solve(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, int]:
    """The solution P = sum_{t>=0} (A^t)' Q A^t of the Stein equation P = A'PA + Q,
    with the number of terms summed.

    The doubling iteration P <- P + A_k' P A_k, A_k <- A_k^2 from P = Q and
    A_0 = A: after k doublings P holds the first 2^k terms, and what is left
    is A_k' P_inf A_k, at most |A_k|_2^2 |P_inf|_2 in norm. It stops once
    |A_k|_F^2 <= eps, so the rest is below rounding in P, and returns P with
    the count 2^k. Raises
    SolverFailureError when that does not happen within STEIN_DOUBLINGS
    doublings, as for a spectral radius of A not below 1.
    """
    A = _finite_square(A, "stein_solve")
    P = _finite_square(Q, "stein_solve").copy()
    if P.shape != A.shape:
        raise InvalidInputError("stein_solve needs A and Q of one shape")
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, STEIN_DOUBLINGS + 1):
            P += A.T @ P @ A
            A = A @ A
            # a non-finite A fails the test and the cap, since nan <= eps is false
            if np.sum(A * A) <= np.finfo(float).eps:
                return P, 2**k
    raise SolverFailureError("the Stein iteration did not converge: A is not stable")


def pivoted_cholesky(d: np.ndarray, rows) -> np.ndarray:
    """The m x k factor Psi of a symmetric positive semidefinite K = Psi Psi'.

    K is read through its diagonal d and rows(idx), which returns the rows
    idx of K as a len(idx) x m array, so it need never be held. The greedy
    pivoted Cholesky of Harbrecht, Peters & Schneider (2012), stopped as
    LAPACK's dpstrf is at its default tolerance, once every residual
    diagonal entry is at most m eps max d, so k is the numerical rank of K.
    As in the block pivoting of Chen, Epperly, Tropp & Webber
    (arXiv:2207.06503), one product gives the residual rows of the
    PIVOT_BLOCK largest residual diagonals; they are then taken largest
    first while the residual is at least PIVOT_RATIO times the largest one.
    A candidate a block rejects is fetched again if a later block takes it:
    on the example Grams at m = 2000 at most 2 of ~840 return in the next
    block, and keeping rejected rows over several blocks costs more in
    updates than the rows it saves. Psi is the transpose of a row-major k x
    m array grown by doubling.
    """
    d = np.array(d, dtype=float)
    if not np.all(np.isfinite(d)):
        raise InvalidInputError("pivoted_cholesky input contains non-finite entries")
    m = len(d)
    tol = m * np.finfo(float).eps * d.max(initial=0.0)
    F = np.empty((min(2 * PIVOT_BLOCK, m), m))
    k = 0
    while k < m and d.max() > tol:
        b = min(PIVOT_BLOCK, m - k)
        cand = np.argpartition(d, m - b)[m - b :]
        res = rows(cand) - F[:k, cand].T @ F[:k]
        if k + b > len(F):
            # no view of F is alive here, so F may move
            F.resize((min(2 * len(F), m), m), refcheck=False)
        start = k
        while k < start + b:
            i = int(np.argmax(d[cand]))
            c, piv = cand[i], d[cand[i]]
            if not (piv > tol and piv >= PIVOT_RATIO * d.max()):
                break
            F[k] = (res[i] - F[start:k, c] @ F[start:k]) / np.sqrt(piv)
            d -= F[k] * F[k]
            d[c] = 0.0
            k += 1
    F.resize((k, m), refcheck=False)
    return F.T


def input_factor(Psi: np.ndarray, beta: float, PtP: np.ndarray) -> np.ndarray:
    """The m x k J = Psi R^-1 of reduced_rank_eig, where K = Psi Psi',
    PtP = Psi' Psi and PtP / m + beta I = R'R.

    J' solves R' J' = Psi' by blocked forward substitution, in Psi's memory
    when Psi is column-major, as pivoted_cholesky returns it.
    """
    m, k = Psi.shape
    F = np.ascontiguousarray(Psi.T)
    try:
        Rt = np.linalg.cholesky(PtP / m + beta * np.eye(k))
    except np.linalg.LinAlgError as exc:
        raise SolverFailureError(str(exc)) from exc
    for start in range(0, k, SOLVE_BLOCK):
        rows = slice(start, min(start + SOLVE_BLOCK, k))
        F[rows] -= Rt[rows, :start] @ F[:start]
        F[rows] = np.linalg.inv(Rt[rows, rows]) @ F[rows]
    return F.T


def reduced_rank_eig(
    J: np.ndarray, LJ: np.ndarray, beta: float, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-r eigenpairs of (L K / m^2) u = s (K / m + beta I) u, 1 <= r <= m.

    J = input_factor(Psi, beta, Psi'Psi) for the factor Psi of the symmetric input
    Gram K, LJ is the m x k product L J with the symmetric target Gram L,
    and beta > 0 the ridge. With K = Psi Psi' and J = Psi R^-1,
    K (K / m + beta I)^-1 = J J' and (K / m + beta I)^-1 = (I - J J' / m) / beta,
    so the pencil's nonzero eigenvalues s are those of the k x k symmetric
    T = J' L J / m^2, and an eigenpair (s, y) of T, where J' L J y = m^2 s y,
    gives the eigenvector

        u = (L J y / s - m J y) / (beta m^2),

    scaled so that u' K (K / m + beta I) u = |J' L J y|^2 / (m^4 s^2) = 1,
    the scaling that makes theta = U U' K / m the minimizer of the
    regularized empirical risk. The closed form subtracts two nearly equal
    terms, so its relative error grows like 1 / beta.

    The solve needs L only through L J, so it takes that product and holds
    no m x m array: a caller that forms it from a Gram it does not keep
    holds that Gram only for the product. numpy has no solver for a subset
    of the eigenpairs, so T is solved in full and the top r + 1 are kept.
    Returns s descending and the m x r eigenvectors, each signed so that its
    largest-magnitude entry is positive. Raises SolverFailureError when r
    exceeds k or a retained s is numerically zero: r exceeds the effective
    rank of the data.
    """
    m = len(J)
    if not 1 <= r <= m:
        raise InvalidInputError(f"rank {r} must lie in [1, {m}]")
    if not (np.isfinite(beta) and beta > 0):
        raise InvalidInputError(f"reduced_rank_eig needs a positive ridge, got beta={beta}")
    if np.shape(LJ) != J.shape:
        raise InvalidInputError("reduced_rank_eig needs L J of the shape of J")
    T = J.T @ LJ
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
    U = LJ @ Y
    U /= s
    U -= m * (J @ Y)
    U /= beta * m * m
    # the eigensolver's sign choice is arbitrary: fix it by the largest entry
    U *= np.sign(U[np.argmax(np.abs(U), axis=0), np.arange(r)])
    return s, U
