"""Dense symmetric eigensolves, the pivoted Cholesky factor, the fit's
reduced-rank pencil solve, the Lanczos Perron root, and a package that
runs on numpy alone."""

import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import koopcert
from koopcert import InvalidInputError, SolverFailureError, SystemSpec, symmetric_eig
from koopcert.dynsys import linearization
from koopcert.eigsolve import input_factor, perron_root, pivoted_cholesky, reduced_rank_eig, stein_solve

from helpers import dense_grams, example1_model, example2_model, fit_pencil_eig


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
        vals, U, V = fit_pencil_eig(M, B, r)
        np.testing.assert_allclose(vals, lam[:r], rtol=1e-9, atol=1e-9)
        assert np.all(U[np.argmax(np.abs(U), axis=0), np.arange(r)] > 0)
        V = V / np.linalg.norm(V, axis=0)[None, :]
        resid = M @ V - B @ V * vals[None, :]
        scale = np.linalg.norm(M) + np.linalg.norm(B)
        assert np.linalg.norm(resid) <= 1e-9 * scale


def test_tied_eigenvalues_warn():
    with pytest.warns(RuntimeWarning, match="tie"):
        fit_pencil_eig(np.eye(3), np.eye(3), 1)


def test_reduced_rank_eig_refuses_bad_input():
    K = np.eye(4)
    bad = np.eye(4)
    bad[2, 1] = np.nan
    with pytest.raises(InvalidInputError):
        pivoted_cholesky(np.array([1.0, 1.0, np.nan, 1.0]), K.__getitem__)
    Psi = pivoted_cholesky(K.diagonal(), K.__getitem__)
    J = input_factor(Psi, 0.1, Psi.T @ Psi)
    # L J for a non-finite L, L J of the wrong shapes, and a ridge that is not positive
    inputs = ((bad @ J, 0.1), (J[:, :3], 0.1), (J[:3], 0.1), (np.ones(4), 0.1), (J, 0.0), (J, -0.1))
    for LJ, beta in inputs:
        with pytest.raises(InvalidInputError):
            reduced_rank_eig(J, LJ, beta, 1)
    for r in (0, 5):
        with pytest.raises(InvalidInputError):
            reduced_rank_eig(J, J, 0.1, r)


def test_pivoted_cholesky_stops_at_lapack_tolerance():
    # on the example Grams the factor reproduces K to LAPACK dpstrf's default
    # tolerance m eps max diag(K), within 5 % of dpstrf's column count
    for model in (example1_model()[2], example2_model()[3]):
        K = dense_grams(model)[0]
        Psi = pivoted_cholesky(K.diagonal(), K.__getitem__)
        k_lapack = scipy.linalg.lapack.dpstrf(K, lower=1)[2]
        assert Psi.flags.f_contiguous
        assert abs(Psi.shape[1] - k_lapack) <= 0.05 * k_lapack
        assert np.max(np.abs(Psi @ Psi.T - K)) <= len(K) * np.finfo(float).eps * K.diagonal().max()
    # exact ranks zero, one and full
    v = np.array([1.0, 2.0, 3.0])
    for S, k in ((np.zeros((3, 3)), 0), (np.outer(v, v), 1), (np.diag(v), 3)):
        Psi = pivoted_cholesky(S.diagonal(), S.__getitem__)
        assert Psi.shape == (3, k)
        np.testing.assert_allclose(Psi @ Psi.T, S, rtol=0, atol=1e-15)


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


def _scipy_imports(tree: ast.AST) -> list[int]:
    """Lines of a module that import scipy or anything under it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            found.append(node.lineno)
    return found


def test_package_imports_no_scipy():
    """numpy's BLAS and LAPACK run every product and factorization, so the
    package needs no second library and no second thread pool."""
    snippet = "import scipy.linalg\nfrom scipy import linalg\nimport numpy, scipy\nimport scipyx"
    assert _scipy_imports(ast.parse(snippet)) == [1, 2, 3]
    src = Path(koopcert.__file__).parent
    users = {
        path.name: lines
        for path in sorted(src.glob("*.py"))
        if (lines := _scipy_imports(ast.parse(path.read_text())))
    }
    assert users == {}


def test_cli_import_leaves_scipy_unloaded():
    """A cold start of the CLI loads no scipy module, not even through numpy."""
    env = {**os.environ, "PYTHONPATH": str(Path(koopcert.__file__).resolve().parents[1])}
    code = "import sys, koopcert.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


THREAD_MODULES = ("concurrent", "threading")


def _thread_uses(tree: ast.AST) -> list[str]:
    """The thread modules a module imports, and any os.register_at_fork it calls."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in THREAD_MODULES:
                found.append(node.module)
        elif isinstance(node, ast.Attribute) and node.attr == "register_at_fork":
            found.append("register_at_fork")
    return sorted(found)


def test_package_starts_no_threads():
    """No module imports concurrent or threading or hooks a fork: every
    Gram is built in the caller's thread, so BLAS runs the package's only
    thread pool."""
    snippet = "import threading\nfrom concurrent.futures import wait\nos.register_at_fork(f)"
    assert _thread_uses(ast.parse(snippet)) == [
        "concurrent.futures", "register_at_fork", "threading"
    ]
    src = Path(koopcert.__file__).parent
    users = {
        path.name: names
        for path in sorted(src.glob("*.py"))
        if (names := _thread_uses(ast.parse(path.read_text())))
    }
    assert users == {}


def _stein_series(A: np.ndarray, Q: np.ndarray, terms: int) -> np.ndarray:
    """sum_{t<terms} (A^t)' Q A^t, term by term."""
    S = np.zeros_like(Q)
    B = np.eye(len(A))
    for _ in range(terms):
        S += B.T @ Q @ B
        B = B @ A
    return S


def test_stein_solve_matches_the_series():
    # example1's RK4 Jacobian at the origin (dt = 0.05, |A|_2 = 0.981), and the
    # transposed r x r H of the reference example1 fit, whose series is the
    # rank-space Lyapunov series sum_t (H^t) Q (H^t)'
    A = linearization(SystemSpec(kind="example1"), 0.05)[0]
    model = example1_model()[2]
    H = model.H.T
    assert np.max(np.abs(np.linalg.eigvals(H))) == pytest.approx(0.930, abs=5e-4)
    for A, Q in ((A, np.eye(2)), (H, model.Q)):
        P, terms = stein_solve(A, Q)
        # the count is the 2^k terms of k doublings, past which A^(2^k) is below rounding
        assert terms & (terms - 1) == 0
        assert np.sum(np.linalg.matrix_power(A, terms) ** 2) <= np.finfo(float).eps
        S = _stein_series(A, Q, 10_000)
        assert np.linalg.norm(P - S) <= 1e-12 * np.linalg.norm(S)
        assert np.linalg.norm(A.T @ P @ A + Q - P) <= 1e-12 * np.linalg.norm(P)


def test_stein_solve_refuses_an_unstable_map():
    with pytest.raises(SolverFailureError):
        stein_solve(np.array([[1.0, 0.0], [0.0, 0.5]]), np.eye(2))
    with pytest.raises(InvalidInputError):
        stein_solve(np.eye(2), np.eye(3))
