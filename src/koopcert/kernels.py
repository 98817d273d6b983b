"""Weight functions, base kernels, and weighted Gram assembly.

A weight ``w`` vanishes at the origin and scales a base kernel into
``k_w(x, y) = w(x) w(y) k(x, y)``, which is the reproducing kernel of the
weighted space in which the transfer operator is learned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

WEIGHT_KINDS = ("norm-power", "exp-norm-power")
KERNEL_KINDS = ("gaussian",)


@dataclass(frozen=True)
class WeightSpec:
    """Radially increasing weight with w(0) = 0.

    Parameters
    ----------
    kind : str
        "norm-power" gives ``|x|^p``; "exp-norm-power" gives
        ``exp(|x|^p) - 1`` (the -1 keeps the origin at zero).
    exponent : float
        The power ``p``; must be positive.
    floor : float
        Samples with ``w(x)`` below this are dropped when building
        datasets, since they carry no information in the weighted space.
    """

    kind: str = "norm-power"
    exponent: float = 1.0
    floor: float = 1e-8

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise InvalidInputError(f"unknown weight kind {self.kind!r}")
        if not np.isfinite(self.exponent) or self.exponent <= 0:
            raise InvalidInputError("weight exponent must be a positive real")
        if not np.isfinite(self.floor) or self.floor < 0:
            raise InvalidInputError("weight floor must be nonnegative")

    def of_sq_norm(self, sq: np.ndarray) -> np.ndarray:
        """The weight of states whose squared norms are sq."""
        r = np.sqrt(sq)
        return r**self.exponent if self.kind == "norm-power" else np.expm1(r**self.exponent)


@dataclass(frozen=True)
class KernelSpec:
    """Base kernel; only the Gaussian ``exp(-gamma |x-y|^2)`` is provided."""

    kind: str = "gaussian"
    gamma: float = 4.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise InvalidInputError(f"unknown kernel kind {self.kind!r}")
        if not np.isfinite(self.gamma) or self.gamma <= 0:
            raise InvalidInputError("kernel gamma must be a positive real")


@dataclass(frozen=True)
class WeightedKernelSpec:
    """Base kernel together with the weight that scales it."""

    kernel: KernelSpec
    weight: WeightSpec


def _check_points(X: np.ndarray, name: str) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise InvalidInputError(f"{name} must be a nonempty (m, n) array of states")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return X


def weight_values(w: WeightSpec, X: np.ndarray) -> np.ndarray:
    """Evaluate the weight on a batch of states, shape (m, n) -> (m,)."""
    X = _check_points(X, "X")
    return w.of_sq_norm(np.sum(X * X, axis=-1))


def base_gram(
    k: KernelSpec, A: np.ndarray, B: np.ndarray, scratch: np.ndarray | None = None
) -> np.ndarray:
    """Unweighted kernel matrix [k(a_i, b_j)].

    Squared distances are formed by direct differencing (not the expanded
    dot-product identity) so that transposing the arguments gives the
    bit-identical transposed matrix. The result starts as coordinate 0's
    squared difference; each later coordinate's difference is formed in
    one reused len(A) x len(B) scratch array (allocated when not given)
    and summed in, so no (m, m, n) difference array is built.
    """
    sq = A[:, 0, None] - B[:, 0]
    sq *= sq
    if scratch is None:
        scratch = np.empty_like(sq)
    for j in range(1, A.shape[1]):
        d = np.subtract(A[:, j, None], B[:, j], out=scratch)
        d *= d
        sq += d
    sq *= -k.gamma
    return np.exp(sq, out=sq)


def eval_weighted_kernel(kw: WeightedKernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate ``k_w(x, y) = w(x) w(y) k(x, y)`` at a single pair."""
    x = _check_points(x, "x")
    y = _check_points(y, "y")
    wx = weight_values(kw.weight, x)[0]
    wy = weight_values(kw.weight, y)[0]
    return float(wx * wy * base_gram(kw.kernel, x, y)[0, 0])


def gram(kw: WeightedKernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Weighted Gram matrix [k_w(a_i, b_j)].

    With ``B`` omitted the result is the symmetric Gram of ``A`` with
    itself. Entries are w(a_i) w(b_j) k(a_i, b_j); no weight floor is
    applied here (that belongs to dataset assembly).
    """
    A = _check_points(A, "A")
    B = A if B is None else _check_points(B, "B")
    if A.shape[1] != B.shape[1]:
        raise InvalidInputError("A and B must have matching state dimension")
    wa = weight_values(kw.weight, A)
    wb = weight_values(kw.weight, B)
    scratch = np.empty((len(A), len(B)))
    out = base_gram(kw.kernel, A, B, scratch)
    # k (wa wb); (k wa) wb would round differently
    out *= np.multiply(wa[:, None], wb[None, :], out=scratch)
    return out
