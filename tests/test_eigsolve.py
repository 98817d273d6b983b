"""Dense symmetric eigensolves, the fit's reduced-rank pencil solve, and the Lanczos Perron root."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from koopcert import InvalidInputError, symmetric_eig
from koopcert.eigsolve import perron_root, reduced_rank_eig

from helpers import as_fit_pencil, dense_grams, example1_model, example2_model


def random_spd(rng, m, cond_lo=0.5, cond_hi=2.0):
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    vals = rng.uniform(cond_lo, cond_hi, m)
    return (Q * vals[None, :]) @ Q.T


def planted_pencil(rng, m):
    """Pencil M u = lam B u with known eigenvalues and eigenvectors."""
    B = random_spd(rng, m)
    L = np.linalg.cholesky(B)
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    lam = np.sort(rng.uniform(0.1, 10.0, m))[::-1]
    M = L @ (Q * lam[None, :]) @ Q.T @ L.T
    return M, B, lam


def test_symmetric_eig_reconstructs_descending():
    rng = np.random.default_rng(1)
    S = random_spd(rng, 9)
    vals, vecs = symmetric_eig(S)
    assert np.all(np.diff(vals) <= 0)
    np.testing.assert_allclose((vecs * vals[None, :]) @ vecs.T, S, atol=1e-12)
    for k in (1, 4, 9):
        top_vals, top_vecs = symmetric_eig(S, top=k)
        np.testing.assert_allclose(top_vals, vals[:k], rtol=1e-13)
        np.testing.assert_allclose(S @ top_vecs, top_vecs * top_vals[None, :], atol=1e-12)
    for bad in (0, 10):
        with pytest.raises(InvalidInputError):
            symmetric_eig(S, top=bad)


def test_generalized_eig_recovers_planted_spectrum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = int(rng.integers(3, 30))
        r = int(rng.integers(1, m + 1))
        M, B, lam = planted_pencil(rng, m)
        vals, U = reduced_rank_eig(*as_fit_pencil(M, B), 0.0, r)
        np.testing.assert_allclose(vals, lam[:r], rtol=1e-9, atol=1e-9)
        assert np.all(U[np.argmax(np.abs(U), axis=0), np.arange(r)] > 0)
        U = U / np.linalg.norm(U, axis=0)[None, :]
        resid = M @ U - B @ U * vals[None, :]
        scale = np.linalg.norm(M) + np.linalg.norm(B)
        assert np.linalg.norm(resid) <= 1e-9 * scale


def test_tied_eigenvalues_warn():
    with pytest.warns(RuntimeWarning, match="tie"):
        reduced_rank_eig(*as_fit_pencil(np.eye(3), np.eye(3)), 0.0, 1)


def test_reduced_rank_eig_refuses_bad_input():
    K = np.eye(4)
    bad = np.eye(4)
    bad[2, 1] = np.nan
    pairs = ((bad, K), (K, bad), (np.ones((4, 3)), K), (K, np.ones((4, 3))), (K, np.eye(3)), (np.ones(4), K))
    for K_, L_ in pairs:
        with pytest.raises(InvalidInputError):
            reduced_rank_eig(K_, L_, 0.1, 1)
    for r in (0, 5):
        with pytest.raises(InvalidInputError):
            reduced_rank_eig(K, K, 0.1, r)


def test_perron_root_matches_dense_eigh_on_fitted_target_grams():
    for model in (example1_model()[2], example2_model()[3]):
        L = dense_grams(model)[1]
        top = scipy.linalg.eigh(L, eigvals_only=True)[-1]
        np.testing.assert_allclose(perron_root(L), top, rtol=1e-13)


def test_perron_root_on_reducible_matrix():
    # two decoupled blocks; the larger root lives in the second
    rng = np.random.default_rng(3)
    blocks = []
    for scale in (1.0, 3.0):
        A = scale * rng.uniform(size=(6, 6))
        blocks.append(A + A.T)
    S = scipy.linalg.block_diag(*blocks)
    np.testing.assert_allclose(perron_root(S), np.linalg.eigvalsh(S)[-1], rtol=1e-13)


def test_perron_root_breakdown_zero_and_scalar():
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        # rank 1 along the start vector: the first residual is exactly zero
        assert perron_root(np.full((4, 4), 2.0)) == 8.0
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(perron_root(np.outer(v, v)), v @ v, rtol=1e-14)
        assert perron_root(np.zeros((5, 5))) == 0.0
        assert perron_root(np.array([[3.5]])) == 3.5


def test_perron_root_refuses_outside_its_precondition():
    bad = np.ones((3, 3))
    bad[1, 2] = np.inf
    for S in (bad, np.ones((2, 3)), np.ones(3), np.zeros((0, 0))):
        with pytest.raises(InvalidInputError):
            perron_root(S)
    # the all-ones start is the eigenvector of the smaller eigenvalue 1 here,
    # so Lanczos would stop at once and return 1 instead of 2
    with pytest.raises(InvalidInputError, match="nonnegative"):
        perron_root(np.array([[1.5, -0.5], [-0.5, 1.5]]))
