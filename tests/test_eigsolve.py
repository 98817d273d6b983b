"""Dense symmetric eigensolves, the fit's reduced-rank pencil solve, the Lanczos
Perron root, and the one BLAS library behind every dense product."""

import ast
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import koopcert
from koopcert import InvalidInputError, symmetric_eig
from koopcert.eigsolve import matmul, perron_root, reduced_rank_eig

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


def _layouts(rng, rows, cols):
    """One rows x cols matrix in every layout the package passes to matmul."""
    X = rng.standard_normal((rows, cols))
    wide = rng.standard_normal((rows, cols + 3))
    wide[:, :cols] = X
    return {
        "C": X,
        "F": np.asfortranarray(X),
        "T view of C": np.ascontiguousarray(X.T).T,
        "T view of F": np.asfortranarray(X.T).T,
        "column slice": wide[:, :cols],
    }


def _vectors(rng, n):
    x = rng.standard_normal(n)
    strided = np.repeat(x[:, None], 2, axis=1)[:, 0]
    return {"contiguous": x, "strided": strided}


def _assert_matches_numpy(a, b, what):
    got, want = matmul(a, b), a @ b
    assert np.shape(got) == np.shape(want), what
    err = np.linalg.norm(np.asarray(got) - want) / np.linalg.norm(want)
    assert err <= 1e-14, f"{what}: relative error {err:.2e}"


def test_matmul_matches_numpy_for_every_operand_layout():
    rng = np.random.default_rng(11)
    left, right = _layouts(rng, 37, 23), _layouts(rng, 23, 9)
    for ka, a in left.items():
        for kb, b in right.items():
            _assert_matches_numpy(a, b, f"{ka} @ {kb}")
    for kv, v in _vectors(rng, 23).items():
        for ka, a in left.items():
            _assert_matches_numpy(a, v, f"{ka} @ {kv} vector")
    for kv, v in _vectors(rng, 37).items():
        for kb, b in left.items():
            _assert_matches_numpy(v, b, f"{kv} vector @ {kb}")
        for kw, w in _vectors(rng, 37).items():
            _assert_matches_numpy(v, w, f"{kv} vector @ {kw} vector")


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matmul_does_not_copy_a_row_major_operand():
    m = 1000
    rng = np.random.default_rng(12)
    K = rng.standard_normal((m, m))
    U = rng.standard_normal((m, 5))
    v = rng.standard_normal(m)
    # the measurement sees a copy of K when there is one
    assert _peak_bytes(lambda: np.asfortranarray(K)) >= K.nbytes
    for f in (
        lambda: matmul(U.T, K),
        lambda: matmul(K, U),
        lambda: matmul(K, np.asfortranarray(U)),
        lambda: matmul(K, v),
        lambda: matmul(v, K),
    ):
        assert _peak_bytes(f) < K.nbytes


# numpy names that run a product in numpy's own BLAS
NUMPY_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot", "linalg"}


def _numpy_blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and (
            node.attr == "dot"
            or (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                and node.attr in NUMPY_PRODUCTS)
        ):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            if node.module == "numpy.linalg" or names & NUMPY_PRODUCTS:
                found.append((node.lineno, f"from {node.module} import"))
    return sorted(found)


def test_package_makes_every_dense_product_in_scipy_blas():
    """No `@`, np.dot, np.matmul, np.einsum, np.inner, np.tensordot or
    np.linalg in the package: numpy's OpenBLAS is a second library with its
    own thread pool, and switching pools between LAPACK calls costs more
    than the products (see the eigsolve module docstring)."""
    assert _numpy_blas_uses(ast.parse("x = a @ b\ny = np.linalg.norm(x)\nz = x.dot(y)")) == [
        (1, "@"), (2, "linalg"), (3, "dot")
    ]
    src = Path(koopcert.__file__).parent
    offenders = {
        f"{path.name}:{line}": what
        for path in sorted(src.glob("*.py"))
        for line, what in _numpy_blas_uses(ast.parse(path.read_text()))
    }
    assert offenders == {}


THREAD_MODULES = ("concurrent", "threading")


def _thread_imports(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(node.module or "")
    return sorted(name for name in found if name.split(".")[0] in THREAD_MODULES)


def test_only_gram_assembly_starts_threads():
    """concurrent.futures and threading are imported in kernels.py alone:
    Gram assembly's one pool is the package's only thread pool besides BLAS."""
    assert _thread_imports(ast.parse("import threading\nfrom concurrent.futures import wait")) == [
        "concurrent.futures", "threading"
    ]
    src = Path(koopcert.__file__).parent
    users = {
        path.name: names
        for path in sorted(src.glob("*.py"))
        if (names := _thread_imports(ast.parse(path.read_text())))
    }
    assert users == {"kernels.py": ["concurrent.futures"]}
