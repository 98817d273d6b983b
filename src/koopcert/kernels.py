"""Weight functions, base kernels, and weighted Gram assembly.

A weight ``w`` vanishes at the origin and scales a base kernel into
``k_w(x, y) = w(x) w(y) k(x, y)``, which is the reproducing kernel of the
weighted space in which the transfer operator is learned.

``gram`` assembles every weighted Gram of the package. It splits the rows
of its first argument into one contiguous share per usable core and walks
each share in blocks of at most GRAM_BLOCK_ENTRIES entries, so a block and
its one scratch array stay in the core's cache and no second full-size
array is built. Each entry goes through the same ufunc sequence however
the rows are blocked or shared out, so the Gram is bit-identical on any
core count, and the Gram of a set with itself is exactly symmetric. The
caller's thread runs the first share and one module-level thread pool runs
the others; its threads start with the first Gram that needs them, and
numpy releases the GIL inside its loops. Each share runs under the
caller's numpy error state, passed to it explicitly (numpy 1 keeps that
state per thread), so an ``np.errstate(over="raise")`` around a call turns
an overflow in any share into a FloatingPointError.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

WEIGHT_KINDS = ("norm-power", "exp-norm-power")
KERNEL_KINDS = ("gaussian",)

# Entries per Gram block: 32 rows at 2048 columns, 512 KB per array.
GRAM_BLOCK_ENTRIES = 1 << 16
CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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


def eval_weighted_kernel(kw: WeightedKernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate ``k_w(x, y) = w(x) w(y) k(x, y)`` at a single pair."""
    x = _check_points(x, "x")
    y = _check_points(y, "y")
    wx = weight_values(kw.weight, x)[0]
    wy = weight_values(kw.weight, y)[0]
    return float(wx * wy * base_gram(kw.kernel, x, y)[0, 0])


def _make_pool() -> None:
    # An executor starts its threads on submit, so none runs before the
    # first Gram of more than one share. A forked child gets a new pool:
    # it inherits the old one without its threads.
    global _pool
    _pool = ThreadPoolExecutor(max_workers=max(1, CORES - 1), thread_name_prefix="koopcert-gram")


_make_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_make_pool)


def _fill_rows(err, k, A, B, wa, wb, out, start, stop, step):
    """Rows start:stop of the weighted Gram, step rows at a time, under error state err."""
    scratch = np.empty((min(step, stop - start), len(B)))
    with np.errstate(**err):
        for i in range(start, stop, step):
            j = min(i + step, stop)
            s = scratch[: j - i]
            block = base_gram(k, A[i:j], B, s, out=out[i:j])
            # k (wa wb); (k wa) wb would round differently
            block *= np.multiply(wa[i:j, None], wb[None, :], out=s)


def gram(kw: WeightedKernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Weighted Gram matrix [k_w(a_i, b_j)].

    With ``B`` omitted the result is the symmetric Gram of ``A`` with
    itself. Entries are w(a_i) w(b_j) k(a_i, b_j); no weight floor is
    applied here (that belongs to dataset assembly). The rows are shared
    out over the cores in cache-sized blocks (see the module docstring);
    a Gram of one block runs in the caller's thread alone.
    """
    A = _check_points(A, "A")
    B = A if B is None else _check_points(B, "B")
    if A.shape[1] != B.shape[1]:
        raise InvalidInputError("A and B must have matching state dimension")
    wa = weight_values(kw.weight, A)
    wb = weight_values(kw.weight, B)
    out = np.empty((len(A), len(B)))
    step = max(1, GRAM_BLOCK_ENTRIES // len(B))
    shares = min(CORES, -(-len(A) // step))
    edges = [len(A) * s // shares for s in range(shares + 1)]
    args = (dict(np.geterr(), call=np.geterrcall()), kw.kernel, A, B, wa, wb, out)
    futures = [
        _pool.submit(_fill_rows, *args, lo, hi, step) for lo, hi in zip(edges[1:-1], edges[2:])
    ]
    try:
        _fill_rows(*args, edges[0], edges[1], step)
    finally:
        wait(futures)
    for f in futures:
        f.result()
    return out
