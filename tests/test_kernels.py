"""Weighted kernel evaluations and Gram assembly."""

import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from koopcert import (
    InvalidInputError,
    KernelSpec,
    WeightSpec,
    WeightedKernelSpec,
    base_gram,
    gram,
    weight_values,
)
from koopcert import kernels
from koopcert.kernels import GRAM_BLOCK_ENTRIES, PRODUCT_BLOCK_ENTRIES, WEIGHT_KINDS, gram_product, gram_quadratic

from helpers import einsum_sq_dists, kw_gaussian, scalar_weighted_kernel


def test_weight_norm_power_hand_values():
    w = WeightSpec(kind="norm-power", exponent=1.0)
    vals = weight_values(w, np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_allclose(vals, [5.0, 0.0, 1.0], rtol=0.0, atol=0.0)
    w_half = WeightSpec(kind="norm-power", exponent=0.5)
    np.testing.assert_allclose(weight_values(w_half, np.array([[3.0, 4.0]]))[0], math.sqrt(5.0))


def test_weight_exp_norm_power_hand_value():
    w = WeightSpec(kind="exp-norm-power", exponent=0.5)
    val = weight_values(w, np.array([[3.0, 4.0]]))[0]
    np.testing.assert_allclose(val, 8.356469016601148, rtol=1e-15)
    # expm1 keeps precision near the origin where exp(x) - 1 cancels
    tiny = weight_values(w, np.array([[1e-20, 0.0]]))[0]
    np.testing.assert_allclose(tiny, 1e-10, rtol=1e-9)


def test_weighted_kernel_frozen_value():
    kw = kw_gaussian(gamma=4.0, power=1.0)
    val = gram(kw, np.array([0.3, 0.4]), np.array([0.0, 1.0]))[0, 0]
    np.testing.assert_allclose(val, 0.08264944411079327, rtol=1e-15)


def test_gram_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 2))
    B = rng.normal(size=(4, 2))
    kw = kw_gaussian(gamma=2.5, power=1.0)
    G = gram(kw, A, B)
    for i in range(len(A)):
        for j in range(len(B)):
            np.testing.assert_allclose(
                G[i, j], scalar_weighted_kernel(2.5, 1.0, A[i], B[j]), rtol=1e-13
            )


def test_gram_symmetric_positive_semidefinite():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 3))
    kw = kw_gaussian(gamma=1.5, power=1.0)
    K = gram(kw, X)
    np.testing.assert_allclose(K, K.T, atol=1e-14)
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


def test_base_gram_unit_diagonal():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(10, 2))
    K = base_gram(KernelSpec(kind="gaussian", gamma=4.0), X, X)
    np.testing.assert_allclose(np.diag(K), np.ones(10), atol=1e-15)


def test_base_gram_matches_einsum_reference():
    rng = np.random.default_rng(17)
    k = KernelSpec(kind="gaussian", gamma=2.5)
    for n in (1, 2, 5):
        A = rng.normal(size=(30, n))
        B = rng.normal(size=(20, n))
        G = base_gram(k, A, B)
        np.testing.assert_array_equal(base_gram(k, B, A), G.T)
        sq = einsum_sq_dists(A, B)
        ref = np.exp(-k.gamma * sq)
        if n <= 2:
            np.testing.assert_array_equal(G, ref)
        else:
            # Summation order differs past two coordinates, so the squared
            # distances agree to 1e-15 relative; exp scales that by gamma |a-b|^2.
            tol = 1e-15 * ref * np.maximum(1.0, k.gamma * sq)
            assert np.all(np.abs(G - ref) <= tol)


def test_weight_floor_not_applied_by_kernel():
    # the raw weight is reported exactly; flooring is a sampling concern
    w = WeightSpec(kind="norm-power", exponent=1.0)
    assert weight_values(w, np.array([[1e-12, 0.0]]))[0] == 1e-12


def test_invalid_specs_raise():
    with pytest.raises(InvalidInputError):
        KernelSpec(kind="gaussian", gamma=0.0)
    with pytest.raises(InvalidInputError):
        KernelSpec(kind="laplace", gamma=1.0)
    with pytest.raises(InvalidInputError):
        WeightSpec(kind="norm-power", exponent=-1.0)
    with pytest.raises(InvalidInputError):
        WeightSpec(kind="polynomial", exponent=1.0)


def test_non_finite_points_raise():
    kw = kw_gaussian()
    bad = np.array([[np.nan, 0.0]])
    good = np.array([[1.0, 0.0]])
    with pytest.raises(InvalidInputError):
        gram(kw, bad, good)
    with pytest.raises(InvalidInputError):
        weight_values(kw.weight, np.array([[np.inf, 1.0]]))


def _reference_gram(kw, A, B, scale_a=None, scale_b=None):
    """One unblocked product: the base Gram times the outer product of the
    weights, each times its side's per-point scale when one is given."""
    wa, wb = weight_values(kw.weight, A), weight_values(kw.weight, B)
    if scale_a is not None:
        wa = wa * scale_a
    if scale_b is not None:
        wb = wb * scale_b
    return base_gram(kw.kernel, A, B) * np.multiply.outer(wa, wb)


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@pytest.mark.parametrize("n", (1, 2, 5))
def test_gram_is_bit_identical_to_one_unblocked_product(kind, n):
    kw = WeightedKernelSpec(KernelSpec(gamma=2.5), WeightSpec(kind=kind, exponent=1.5))
    rng = np.random.default_rng(n)
    # damping-like scales in (0, 1], from their own stream so A and B stay put
    scales = np.random.default_rng(100 + n)

    def damping(size):
        return np.exp(-scales.uniform(0.0, 5.0, size))

    width = GRAM_BLOCK_ENTRIES // 64  # 64-row blocks
    shapes = [
        (1, 1),
        (1, width),
        (width, 1),
        (64, width),  # one full block
        (5 * 64 + 3, width),  # not a multiple of the block: a short last block
        (101, 3001),
        (7, GRAM_BLOCK_ENTRIES + 1),  # wider than the budget: one-row blocks
    ]
    for rows, cols in shapes:
        A = rng.normal(size=(rows, n))
        B = rng.normal(size=(cols, n))
        G = gram(kw, A, B)
        assert G.shape == (rows, cols)
        assert G.tobytes() == _reference_gram(kw, A, B).tobytes(), (rows, cols)
        s, t = damping(rows), damping(cols)
        ref = _reference_gram(kw, A, B, s, t).tobytes()
        assert gram(kw, A, B, scale_a=s, scale_b=t).tobytes() == ref, (rows, cols)
        assert gram(kw, A, B, scale_b=t).tobytes() == _reference_gram(kw, A, B, None, t).tobytes()
        # unit scales give the unscaled Gram's bytes
        ones_a, ones_b = np.ones(rows), np.ones(cols)
        assert gram(kw, A, B, scale_a=ones_a, scale_b=ones_b).tobytes() == G.tobytes(), (rows, cols)
    X = rng.normal(size=(5 * 64 + 3, n)) * 0.5
    K = gram(kw, X)
    assert len(X) ** 2 > GRAM_BLOCK_ENTRIES
    assert np.array_equal(K, K.T)
    assert gram(kw, X).tobytes() == K.tobytes()
    d = damping(len(X))
    L = gram(kw, X, scale_a=d)
    assert np.array_equal(L, L.T)
    assert L.tobytes() == _reference_gram(kw, X, X, d, d).tobytes()
    assert gram(kw, X, scale_a=np.ones(len(X))).tobytes() == K.tobytes()


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_gram_product_is_the_gram_times_v(kind):
    kw = WeightedKernelSpec(KernelSpec(gamma=2.5), WeightSpec(kind=kind, exponent=1.5))
    rng = np.random.default_rng(11)
    cols = 600
    step = PRODUCT_BLOCK_ENTRIES // cols
    # three blocks of rows and a short last one
    A, B = rng.normal(size=(3 * step + 17, 2)), rng.normal(size=(cols, 2))
    s, t = np.exp(-rng.uniform(0.0, 5.0, len(A))), np.exp(-rng.uniform(0.0, 5.0, cols))
    V = rng.normal(size=(cols, 5))
    for scale_a, scale_b in ((None, None), (s, t), (None, t), (s, None)):
        G = gram(kw, A, B, scale_a, scale_b)
        GV = gram_product(kw, A, B, V, scale_a, scale_b)
        np.testing.assert_allclose(GV, G @ V, rtol=0, atol=1e-13 * np.max(np.abs(G @ V)))
        # against the identity each block gives gram's entries bit for bit
        assert gram_product(kw, A, B, np.eye(cols), scale_a, scale_b).tobytes() == G.tobytes()
    # the Gram of A with itself, scaled on both sides by scale_a
    V = rng.normal(size=(len(A), 4))
    for scale in (None, s):
        G = gram(kw, A, scale_a=scale)
        GV = gram_product(kw, A, None, V, scale_a=scale)
        np.testing.assert_allclose(GV, G @ V, rtol=0, atol=1e-13 * np.max(np.abs(G @ V)))
    with pytest.raises(InvalidInputError):
        gram_product(kw, A, None, V, scale_b=s)
    with pytest.raises(InvalidInputError):
        gram_product(kw, A, B, V)


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_gram_product_of_a_gram_with_itself_builds_its_lower_blocks(kind, monkeypatch):
    kw = WeightedKernelSpec(KernelSpec(gamma=2.5), WeightSpec(kind=kind, exponent=1.5))
    rng = np.random.default_rng(12)
    built = []

    def spy_gram(*args, **kwargs):
        G = gram(*args, **kwargs)
        built.append(G.shape)
        return G

    monkeypatch.setattr(kernels, "gram", spy_gram)
    # five row blocks, the last one short, and a Gram of one block
    for m in (2 * 512 + 37, 500):
        A = rng.normal(size=(m, 2))
        s = np.exp(-rng.uniform(0.0, 5.0, m))
        V = rng.normal(size=(m, 5))
        step = PRODUCT_BLOCK_ENTRIES // m
        for scale in (None, s):
            G = gram(kw, A, scale_a=scale)
            built.clear()
            GV = gram_product(kw, A, None, V, scale_a=scale)
            np.testing.assert_allclose(GV, G @ V, rtol=0, atol=1e-13 * np.max(np.abs(G @ V)))
            # row block i:j is built up to the diagonal only, G[i:j, :j]
            starts = range(0, m, step)
            assert built == [(min(i + step, m) - i, min(i + step, m)) for i in starts]
            if m <= step:
                # one block is the whole Gram, and its product is G V itself
                assert GV.tobytes() == (G @ V).tobytes()


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
def test_gram_quadratic_is_v_transpose_g_v(kind):
    kw = WeightedKernelSpec(KernelSpec(gamma=2.5), WeightSpec(kind=kind, exponent=1.5))
    rng = np.random.default_rng(13)
    # several product blocks, and a Gram of one block
    for m in (1100, 400):
        A = rng.normal(size=(m, 2))
        s = np.exp(-rng.uniform(0.0, 5.0, m))
        V = rng.normal(size=(m, 7))
        for scale in (None, s):
            G = gram(kw, A, scale_a=scale)
            T = gram_quadratic(kw, A, V, scale)
            np.testing.assert_allclose(T, V.T @ G @ V, rtol=0, atol=1e-13 * np.max(np.abs(V.T @ G @ V)))
            if m * m <= PRODUCT_BLOCK_ENTRIES:
                assert T.tobytes() == (V.T @ (G @ V)).tobytes()


def test_gram_rejects_a_scale_of_the_wrong_length():
    kw = kw_gaussian()
    X = np.random.default_rng(2).normal(size=(6, 2))
    with pytest.raises(InvalidInputError):
        gram(kw, X, scale_a=np.ones(5))
    with pytest.raises(InvalidInputError):
        gram(kw, X, X[:4], scale_b=np.ones(6))
    with pytest.raises(InvalidInputError):
        gram(kw, X, scale_b=np.ones(6))


def test_gram_raises_overflow_under_the_callers_errstate():
    # w(x) = |x|^300 is ~1e253 at |x| = 7, so w(a) w(b) overflows there.
    # The other rows of A sit at |x| = 0.7, so only the last block overflows.
    kw = kw_gaussian(power=300.0)
    rng = np.random.default_rng(5)
    B = rng.normal(size=(2048, 2))
    B *= 7.0 / np.sqrt(np.sum(B * B, axis=1, keepdims=True))
    A = 0.1 * B[:200]
    A[-1] = B[-1]
    assert len(A) * len(B) > GRAM_BLOCK_ENTRIES
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            gram(kw, A, B)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # the block that holds the last row was the one that overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        G = gram(kw, A, B)
    assert np.isfinite(G[:-1]).all() and not np.isfinite(G[-1]).any()


def test_gram_gives_each_concurrent_caller_its_own_gram():
    kw = kw_gaussian()
    X = np.random.default_rng(9).normal(size=(300, 2))
    ref = _reference_gram(kw, X, X).tobytes()
    # six callers switching often: each still gets its own Gram
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as callers:
            grams = [callers.submit(gram, kw, X) for _ in range(20)]
            assert all(g.result(timeout=60).tobytes() == ref for g in grams)
    finally:
        sys.setswitchinterval(interval)
