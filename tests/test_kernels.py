"""Weighted kernel evaluations and Gram assembly."""

import math
import os
import signal
import sys
import threading
import time
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
    eval_weighted_kernel,
    gram,
    weight_values,
)
from koopcert import kernels
from koopcert.kernels import CORES, GRAM_BLOCK_ENTRIES, WEIGHT_KINDS

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


def _reference_gram(kw, A, B):
    """One unblocked product: the base Gram times the outer product of the weights."""
    wa, wb = weight_values(kw.weight, A), weight_values(kw.weight, B)
    return base_gram(kw.kernel, A, B) * np.multiply.outer(wa, wb)


@pytest.fixture
def three_shares(monkeypatch):
    # gram reads CORES per call: split large Grams three ways on any machine,
    # so the pool runs shares even where only one core is usable
    monkeypatch.setattr(kernels, "CORES", 3)


@pytest.mark.parametrize("kind", WEIGHT_KINDS)
@pytest.mark.parametrize("n", (1, 2, 5))
def test_gram_is_bit_identical_to_one_unblocked_product(kind, n, three_shares):
    kw = WeightedKernelSpec(KernelSpec(gamma=2.5), WeightSpec(kind=kind, exponent=1.5))
    rng = np.random.default_rng(n)
    width = GRAM_BLOCK_ENTRIES // 64  # 64-row blocks
    shapes = [
        (1, 1),
        (1, width),
        (width, 1),
        (64, width),  # one full block
        (5 * 64 + 3, width),  # not a multiple of the block, so share edges fall mid-block
        (101, 3001),
        (7, GRAM_BLOCK_ENTRIES + 1),  # wider than the budget: one-row blocks
    ]
    for rows, cols in shapes:
        A = rng.normal(size=(rows, n))
        B = rng.normal(size=(cols, n))
        G = gram(kw, A, B)
        assert G.shape == (rows, cols)
        assert G.tobytes() == _reference_gram(kw, A, B).tobytes(), (rows, cols)
    X = rng.normal(size=(5 * 64 + 3, n)) * 0.5
    K = gram(kw, X)
    assert len(X) ** 2 > GRAM_BLOCK_ENTRIES
    assert np.array_equal(K, K.T)
    assert gram(kw, X).tobytes() == K.tobytes()


def test_gram_raises_overflow_under_the_callers_errstate_in_every_share(three_shares):
    # w(x) = |x|^300 is ~1e253 at |x| = 7, so w(a) w(b) overflows there.
    # The other rows of A sit at |x| = 0.7, so only the last share, which a
    # pool thread runs, overflows.
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
    # the share that holds the last row was the one that overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        G = gram(kw, A, B)
    assert np.isfinite(G[:-1]).all() and not np.isfinite(G[-1]).any()


def test_gram_shares_one_thread_pool_between_callers():
    kw = kw_gaussian()
    X = np.random.default_rng(9).normal(size=(300, 2))
    ref = _reference_gram(kw, X, X).tobytes()
    for _ in range(50):
        gram(kw, X)
    assert threading.active_count() <= 1 + CORES
    # more callers than cores, switching often: each still gets its own Gram
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2 * CORES + 2) as callers:
            grams = [callers.submit(gram, kw, X) for _ in range(20)]
            assert all(g.result(timeout=60).tobytes() == ref for g in grams)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_gram_runs_in_a_forked_child(three_shares):
    # the child inherits the pool object but not its threads
    kw = kw_gaussian()
    X = np.random.default_rng(9).normal(size=(300, 2))
    ref = gram(kw, X).tobytes()
    pid = os.fork()
    if pid == 0:
        try:
            os._exit(0 if gram(kw, X).tobytes() == ref else 1)
        finally:
            os._exit(2)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0
