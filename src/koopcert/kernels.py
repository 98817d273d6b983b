"""Weight functions, base kernels, and weighted Gram assembly.

A weight ``w`` vanishes at the origin and scales a base kernel into
``k_w(x, y) = w(x) w(y) k(x, y)``, which is the reproducing kernel of the
weighted space in which the transfer operator is learned.

``gram`` assembles every weighted Gram entry of the package, damped ones
too (a per-point scale multiplies the weight). It walks the rows of its
first argument in blocks of at most GRAM_BLOCK_ENTRIES entries, so a block
and its one scratch array stay in cache and no second full-size array is
built. Each entry goes through the same ufunc sequence however the rows
are blocked, so the Gram of a set with itself is exactly symmetric. It runs
in the calling thread, under the caller's numpy error state, so an
``np.errstate(over="raise")`` around a call turns an overflow into a
FloatingPointError.

A product G V with a Gram never needs G whole: ``gram_product`` has ``gram``
build G's rows PRODUCT_BLOCK_ENTRIES entries at a time, multiplies each
block by V and drops it, so each product holds one 2 MB block however large
G is, and its entries are gram's bit for bit. Of the symmetric Gram of a set
with itself it builds only each row block's part up to the diagonal, about
half the entries, and takes the rest by symmetry. ``gram_quadratic`` sums
V' G V over the same blocks, so G V is not held either.

On a tensor grid no Gram is built: the Gaussian is a product over
coordinates, so ``axis_factors`` gives one small factor per axis, and the
Gram of the anchors with the grid is their row-wise Kronecker
(Khatri-Rao) product, which the certificates contract axis by axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

WEIGHT_KINDS = ("norm-power", "exp-norm-power")
KERNEL_KINDS = ("gaussian",)

# Entries per Gram block: 32 rows at 2048 columns, 512 KB per array.
GRAM_BLOCK_ENTRIES = 1 << 16
# Entries per block of a streamed Gram product (gram_product): 2 MB, 131 rows
# at 2000 columns; a Gram of up to 512 x 512 is one block.
PRODUCT_BLOCK_ENTRIES = 1 << 18


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

    kind: str
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


def weight_values(w: WeightSpec, X: np.ndarray, scale: np.ndarray | None = None) -> np.ndarray:
    """The weight of a batch of states, shape (m, n) -> (m,), times a per-point scale if given."""
    X = _check_points(X, "X")
    wx = w.of_sq_norm(np.sum(X * X, axis=-1))
    if scale is not None and np.shape(scale) != wx.shape:
        raise InvalidInputError("a scale must hold one value per point")
    return wx if scale is None else wx * scale


def grid_weight_values(w: WeightSpec, axes) -> np.ndarray:
    """The weight at every point of the tensor grid of axes, shape (len(axes[0]), ...).

    Squared norms are summed one coordinate at a time, in order, which is
    np.sum's order below 8 coordinates; so there each value equals
    weight_values at the grid point bit for bit.
    """
    sq = axes[0] * axes[0]
    for t in axes[1:]:
        sq = np.add.outer(sq, t * t)
    return w.of_sq_norm(sq)


def axis_factors(k: KernelSpec, A: np.ndarray, axes) -> list[np.ndarray]:
    """Per-axis factors E_d = [exp(-gamma (a_d - t_i)^2)], len(A) x len(t), for
    each axis t = axes[d] of a tensor grid.

    At the grid point (axes[0][i_0], ..., axes[n-1][i_(n-1)]) the base kernel
    is prod_d E_d[a, i_d]: n arrays of len(A) x len(t) entries stand in for
    the len(A) x N Gram of the N-point grid.
    """
    factors = []
    for d, t in enumerate(axes):
        e = np.subtract(A[:, d, None], t)
        e *= e
        e *= -k.gamma
        factors.append(np.exp(e, out=e))
    return factors


def base_gram(
    k: KernelSpec,
    A: np.ndarray,
    B: np.ndarray,
    scratch: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Unweighted kernel matrix [k(a_i, b_j)], written to out when given.

    Squared distances are formed by direct differencing (not the expanded
    dot-product identity) so that transposing the arguments gives the
    bit-identical transposed matrix. The result starts as coordinate 0's
    squared difference; each later coordinate's difference is formed in
    one reused len(A) x len(B) scratch array (allocated when not given)
    and summed in, so no (m, m, n) difference array is built.
    """
    sq = np.subtract(A[:, 0, None], B[:, 0], out=out)
    sq *= sq
    if scratch is None:
        scratch = np.empty_like(sq)
    for j in range(1, A.shape[1]):
        d = np.subtract(A[:, j, None], B[:, j], out=scratch)
        d *= d
        sq += d
    sq *= -k.gamma
    return np.exp(sq, out=sq)


def gram(
    kw: WeightedKernelSpec, A: np.ndarray, B: np.ndarray | None = None,
    scale_a: np.ndarray | None = None, scale_b: np.ndarray | None = None,
) -> np.ndarray:
    """Weighted Gram matrix [k(a_i, b_j) ((w(a_i) s_i) (w(b_j) t_j))].

    The per-point scales s = scale_a and t = scale_b are skipped when
    omitted, so an unscaled Gram is [k_w(a_i, b_j)] bit for bit. With ``B``
    omitted the result is the exactly symmetric Gram of ``A`` with itself,
    both sides scaled by scale_a. No weight floor is applied here (that
    belongs to dataset assembly). Rows are taken in cache-sized blocks, in
    the calling thread (see the module docstring).
    """
    A = _check_points(A, "A")
    if B is None and scale_b is not None:
        raise InvalidInputError("a Gram of A with itself takes one scale, scale_a")
    B, scale_b = (A, scale_a) if B is None else (_check_points(B, "B"), scale_b)
    if A.shape[1] != B.shape[1]:
        raise InvalidInputError("A and B must have matching state dimension")
    wa = weight_values(kw.weight, A, scale_a)
    wb = weight_values(kw.weight, B, scale_b)
    out = np.empty((len(A), len(B)))
    step = max(1, GRAM_BLOCK_ENTRIES // len(B))
    scratch = np.empty((min(step, len(A)), len(B)))
    for i in range(0, len(A), step):
        j = min(i + step, len(A))
        s = scratch[: j - i]
        block = base_gram(kw.kernel, A[i:j], B, s, out=out[i:j])
        # k (wa wb); (k wa) wb would round differently
        block *= np.multiply(wa[i:j, None], wb[None, :], out=s)
    return out


def gram_product(
    kw: WeightedKernelSpec, A: np.ndarray, B: np.ndarray | None, V: np.ndarray,
    scale_a: np.ndarray | None = None, scale_b: np.ndarray | None = None,
) -> np.ndarray:
    """The product G V of the Gram G = gram(kw, A, B, scale_a, scale_b) with the
    len(B) x c matrix V, without G.

    The rows of A are taken PRODUCT_BLOCK_ENTRIES / len(B) at a time (at
    least one); gram builds each block, whose entries equal G's bit for bit,
    and the block is multiplied by V and dropped. With B omitted, G is the
    symmetric Gram of A with itself, and only the block's part G[i:j, :j]
    up to the diagonal is built: it gives rows i:j as G[i:j, :j] V[:j], and
    rows :i the term G[i:j, :i]' V[i:j] of the part above the diagonal. A G
    of one block (at most 512 x 512) is built whole, one product.
    """
    A = _check_points(A, "A")
    if B is None and scale_b is not None:
        raise InvalidInputError("a Gram of A with itself takes one scale, scale_a")
    symmetric = B is None
    B, scale_b = (A, scale_a) if symmetric else (_check_points(B, "B"), scale_b)
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or len(V) != len(B):
        raise InvalidInputError("a Gram product needs one row of V per column of the Gram")
    out = np.empty((len(A), V.shape[1]))
    step = max(1, PRODUCT_BLOCK_ENTRIES // len(B))
    for i in range(0, len(A), step):
        j = min(i + step, len(A))
        cols = slice(0, j if symmetric else len(B))
        block = gram(
            kw, A[i:j], B[cols],
            None if scale_a is None else scale_a[i:j], None if scale_b is None else scale_b[cols],
        )
        np.matmul(block, V[cols], out=out[i:j])
        if symmetric and i:
            out[:i] += block[:, :i].T @ V[i:j]
        # else this block lives on while gram builds the next
        del block
    return out


def gram_quadratic(
    kw: WeightedKernelSpec, A: np.ndarray, V: np.ndarray, scale: np.ndarray | None = None
) -> np.ndarray:
    """V' G V for the Gram G = gram(kw, A, scale_a=scale) of A with itself,
    without G or G V.

    G's rows are taken in gram_product's blocks, and each block b adds
    V[b]' (G[b] V), formed in one reused buffer, so one block, its product
    with V and two c x c arrays are held. A G of one block (at most
    512 x 512) gives V' (G V), the same two products.
    """
    A = _check_points(A, "A")
    step = max(1, PRODUCT_BLOCK_ENTRIES // len(A))
    out = part = None
    for i in range(0, len(A), step):
        rows = slice(i, i + step)
        GV = gram_product(kw, A[rows], A, V, None if scale is None else scale[rows], scale)
        if out is None:
            out = V[rows].T @ GV
        else:
            part = np.matmul(V[rows].T, GV, out=part)
            out += part
        # else this product lives on while gram_product forms the next
        del GV
    return out
