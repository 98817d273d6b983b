"""Weighted kernel basics: Gram matrices, positivity, and the weight factor.

The package multiplies a Gaussian kernel by a state weight w on both
arguments, k_w(x, y) = w(x) w(y) k(x, y). The weight vanishes at the origin,
which is what later forces every certificate value to vanish there too.
"""

import numpy as np

from koopcert import (
    KernelSpec,
    WeightSpec,
    WeightedKernelSpec,
    gram,
    weight_values,
)

kw = WeightedKernelSpec(
    KernelSpec(kind="gaussian", gamma=4.0),
    WeightSpec(kind="norm-power", exponent=1.0),
)

rng = np.random.default_rng(0)
X = rng.uniform(-1.0, 1.0, (200, 2))

K = gram(kw, X, X)
eigvals = np.linalg.eigvalsh(K)
print(f"Gram matrix on 200 points: min eigenvalue {eigvals[0]:.3e}")
print(f"symmetric to machine precision: {np.array_equal(K, K.T)}")

# On the diagonal the Gaussian factor is one, so k_w(x, x) = w(x)^2.
w = weight_values(kw.weight, X)
print(f"max |K_ii - w(x_i)^2| = {np.max(np.abs(np.diag(K) - w * w)):.3e}")

# The weight pulls values toward zero near the origin.
near = np.array([0.01, 0.0])
far = np.array([1.0, 1.0])
print(f"k_w(near, far) = {gram(kw, near, far)[0, 0]:.6f}")
print(f"k_w(far, far)  = {gram(kw, far, far)[0, 0]:.6f}")

# A steeper weight exaggerates the same effect.
kw_exp = WeightedKernelSpec(kw.kernel, WeightSpec(kind="exp-norm-power", exponent=2.0))
print(f"exp-norm-power weight at far point: {weight_values(kw_exp.weight, far[None, :])[0]:.6f}")
