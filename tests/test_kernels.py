"""Weighted kernel evaluations and Gram assembly."""

import math

import numpy as np
import pytest

from koopcert import (
    InvalidInputError,
    KernelSpec,
    WeightSpec,
    WeightedKernelSpec,
    base_gram,
    eval_weighted_kernel,
    gram,
    weight_values,
)

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
    val = eval_weighted_kernel(kw, np.array([0.3, 0.4]), np.array([0.0, 1.0]))
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
