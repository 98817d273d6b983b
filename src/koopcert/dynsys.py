"""Benchmark systems, snapshot sampling, and brute-force oracles.

The discrete map under study is the fixed-step RK4 flow of a stable ODE.
Everything here is deterministic given the seed, and the oracles evaluate
the true Lyapunov / stability-boundary series by direct simulation so the
operator-based estimates elsewhere can be checked against ground truth.
A batch of N orbits is held as one contiguous length-N array per state
component; `_rk4` steps it with the stacked (N, n) step's operations in
the same order, so every row is bit-identical, and `step` is a stacked
wrapper of the same kernel. The field's powers are products, not libm pow,
and each step writes its stages into a few arrays it allocates once. The
oracles and the cost accumulation take the weight, the state cost and the
escape test (non-finite, or past GUARD_RADIUS) from one sum of squares per
step. Every system's step is odd bit for bit, step(-x) = -step(x), so the
oracles simulate one orbit per {x, -x} pair of their states.
`saturating` is the one form of the observable w^nu / (w^nu + varsigma^nu).

Near the origin the map is g(x) = A x + N(x): `linearization` gives the
Jacobian A of each kind's RK4 map at the origin, sum_{j<=4} (dt M)^j / j!
for the field's Jacobian M (a I for linear-contraction), and a constant c
with |N(x)| <= c |x|^3 on the ball |x| <= rho (c = 0 for
linear-contraction). With a = |A|_2 and q = a + c rho^2, an orbit that
reaches x_T in that ball stays in it while q < 1, and when also q^3 < a
the rest of the series sum_{t>=T} |x_t|^2 differs from the linearized
orbit's x_T' P x_T, P = A'PA + I, by at most C |x_T|^4 with

    C = 2 c q / ((1 - q a) (1 - q^3 / a)).

Proof: on the ball |g(x)| <= (a + c |x|^2) |x| <= q |x|, so
|x_{T+s}| <= q^s |x_T|. The gap e_s = x_{T+s} - A^s x_T has e_0 = 0 and
e_{s+1} = A e_s + N(x_{T+s}), so |e_s| <= c |x_T|^3 sum_{j<s} a^(s-1-j) q^(3j)
<= c |x_T|^3 a^(s-1) / (1 - q^3 / a); and
||x_{T+s}|^2 - |A^s x_T|^2| <= |e_s| 2 q^s |x_T|, whose sum over s >= 1 is
C |x_T|^4. `_sq_norm_series` ends every orbit of the Lyapunov oracle and
of the DOA cost table with that tail, and refuses where the bound does not
apply (a >= 1 or q^3 >= a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigsolve import stein_solve
from .errors import (
    DegenerateDomainError,
    DivergenceError,
    IntegrationBlowupError,
    InvalidInputError,
)
from .kernels import WeightedKernelSpec, WeightSpec, _check_points, weight_values

SYSTEM_KINDS = ("example1", "example2", "linear-contraction")
DOMAIN_KINDS = ("ball", "box")

# Trajectories are aborted once the state norm passes this guard; the
# benchmark systems are stable inside their domains, so hitting it means
# the initial point was outside the basin (or dt is far too coarse).
GUARD_RADIUS = 1e6
STEP_CAP = 100_000
# The radius rho of the ball on which linearization bounds an ODE map's remainder.
TAIL_RADIUS = 0.01


@dataclass(frozen=True)
class SystemSpec:
    """One of the built-in test systems.

    "example1" is a planar globally stable ODE with a sinusoidal
    nonlinearity, "example2" is a planar ODE whose basin of attraction
    excludes the invariant region x1*x2 >= 2, and "linear-contraction"
    is the exact map x -> a*x used for closed-form checks.
    """

    kind: str
    dim: int = 2
    a: float | None = None

    def __post_init__(self):
        if self.kind not in SYSTEM_KINDS:
            raise InvalidInputError(f"unknown system kind {self.kind!r}")
        if self.kind == "linear-contraction":
            if self.a is None or not (0 < self.a < 1):
                raise InvalidInputError("linear contraction needs a factor in (0, 1)")
            if self.dim < 1:
                raise InvalidInputError("state dimension must be >= 1")
        elif self.dim != 2:
            raise InvalidInputError(f"{self.kind} is a planar system")


@dataclass(frozen=True)
class DomainSpec:
    """Sampling region: a centered ball or an axis-aligned box."""

    kind: str
    radius: float = 0.0
    lo: tuple = ()
    hi: tuple = ()

    def __post_init__(self):
        if self.kind not in DOMAIN_KINDS:
            raise InvalidInputError(f"unknown domain kind {self.kind!r}")
        if self.kind == "ball":
            if not np.isfinite(self.radius) or self.radius <= 0:
                raise InvalidInputError("ball radius must be positive")
        else:
            lo = np.asarray(self.lo, dtype=float)
            hi = np.asarray(self.hi, dtype=float)
            if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
                raise InvalidInputError("box needs matching lo/hi tuples")
            if not np.all(np.isfinite(lo)) or not np.all(np.isfinite(hi)):
                raise InvalidInputError("box bounds must be finite")
            if not np.all(lo < hi):
                raise InvalidInputError("box needs lo < hi componentwise")

    @staticmethod
    def ball(radius: float, dim: int = 2) -> "DomainSpec":
        return DomainSpec(kind="ball", radius=radius, lo=(0.0,) * dim, hi=(0.0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "ball":
            n = self.dim
            return -self.radius * np.ones(n), self.radius * np.ones(n)
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


@dataclass(frozen=True)
class SnapshotDataset:
    """Paired snapshots (x_i, y_i = f(x_i)) and the settings they were drawn with."""

    X: np.ndarray
    Y: np.ndarray
    dt: float | None  # None for pairs read without their .meta sidecar
    seed: int
    rejected_count: int = 0

    def __post_init__(self):
        if self.X.shape != self.Y.shape or self.X.ndim != 2 or len(self.X) == 0:
            raise InvalidInputError("X and Y must be matching nonempty (m, n) arrays")

    def __len__(self) -> int:
        return len(self.X)


def _field(sys: SystemSpec, x1, x2, d1, d2, tmp) -> None:
    """Right-hand side of a planar ODE at (x1, x2), written into d1 and d2;
    tmp is scratch. x2^3 is x2*x2*x2, a fraction of libm pow's cost."""
    if sys.kind == "example1":
        np.sin(np.multiply(2.0 * np.pi, x1, out=d1), out=d1)
        np.divide(d1, 2.0 * np.pi, out=d1)
        np.add(np.add(np.multiply(-3.0, x1, out=d2), x2, out=d2), d1, out=d1)
        np.subtract(x1, x2, out=d2)
        return
    s = np.subtract(np.multiply(x1, x2, out=tmp), 1.0, out=tmp)
    np.multiply(np.add(np.multiply(x1, x1, out=d1), s, out=d1), x2, out=d1)
    np.multiply(s, np.multiply(np.multiply(x2, x2, out=d2), x2, out=d2), out=d2)
    np.add(d2, d1, out=d2)
    np.negative(x1, out=d1)


def _rk4(sys: SystemSpec, xs: list, dt: float) -> list:
    """One step of the discrete map on a list of component arrays.

    Each element goes through x + (0.5*dt)*k1, ..., x + (dt/6)*(((k1 + 2k2)
    + 2k3) + k4) with that association, so a row's bits do not depend on the
    batch it is stepped in or on its layout. The stages, stage states and
    running sum are written into arrays allocated once per step.
    """
    if sys.kind == "linear-contraction":
        return [sys.a * x for x in xs]
    out, k, y = ([np.empty_like(x) for x in xs] for _ in range(3))
    tmp = np.empty_like(xs[0])
    # Diverging orbits (example2 outside its basin) can overflow inside a
    # single RK4 cascade; the callers' escape checks catch the inf/nan.
    with np.errstate(over="ignore", invalid="ignore"):
        _field(sys, *xs, *out, tmp)  # k1 starts the running sum
        stage = out
        for h in (0.5 * dt, 0.5 * dt, dt):
            for xi, ki, yi in zip(xs, stage, y):
                np.add(xi, np.multiply(h, ki, out=yi), out=yi)
            if stage is k:  # k2 and k3 join the sum once their stage state is built
                for oi, ki in zip(out, k):
                    np.add(oi, np.multiply(2.0, ki, out=ki), out=oi)
            _field(sys, *y, *k, tmp)
            stage = k
        for xi, oi, ki in zip(xs, out, k):
            np.add(xi, np.multiply(dt / 6.0, np.add(oi, ki, out=oi), out=oi), out=oi)
    return out


def _sq_norm(xs: list) -> np.ndarray:
    """Squared state norms from component arrays, in np.sum's order (pairwise from 8 terms)."""
    if len(xs) < 8:
        return sum(x * x for x in xs)
    return np.sum(np.square(np.stack(xs, axis=-1)), axis=-1)


def _escaped(sq: np.ndarray) -> np.ndarray:
    """Mask of states, given their squared norms, that are non-finite or beyond GUARD_RADIUS."""
    return ~(np.sqrt(sq) <= GUARD_RADIUS)


def _orbit_start(sys: SystemSpec, X: np.ndarray, dt: float) -> list:
    """Contiguous copies of the components of a nonempty (N, n) batch of states."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size == 0:
        raise InvalidInputError("states must be a nonempty (N, n) array")
    if sys.kind != "linear-contraction" and dt <= 0:
        raise InvalidInputError("dt must be positive")
    return [X[:, i].copy() for i in range(X.shape[1])]


def _settle(xs: list, dead: np.ndarray) -> np.ndarray:
    """Squared norms, after adding escaped orbits to dead and parking dead ones at the origin."""
    with np.errstate(over="ignore", invalid="ignore"):
        sq = _sq_norm(xs)
    # sqrt is monotone and sqrt(GUARD_RADIUS^2) = GUARD_RADIUS exactly; a nan makes the max nan.
    if np.max(sq) <= GUARD_RADIUS * GUARD_RADIUS and not dead.any():
        return sq
    dead |= _escaped(sq)
    for x in xs + [sq]:
        np.copyto(x, 0.0, where=dead)
    return sq


def step(sys: SystemSpec, x: np.ndarray, dt: float) -> np.ndarray:
    """One step of the discrete map: classical RK4 for the ODE systems."""
    x = np.asarray(x, dtype=float)
    xs = _orbit_start(sys, x.reshape(-1, x.shape[-1]), dt)
    return np.stack(_rk4(sys, xs, dt), axis=-1).reshape(x.shape)


def _field_bounds(sys: SystemSpec) -> tuple[np.ndarray, float, float, float]:
    """(M, b, L, R) of a planar field f(y) = M y + h(y): |h(y)| <= b |y|^3 and |f(y)| <= L |y| on |y| <= R.

    example1: h = ((sin(2 pi y1) - 2 pi y1) / (2 pi), 0), and |sin u - u| <= |u|^3 / 6
    gives b = (2 pi)^2 / 6; |sin u| <= |u| gives L = |[[-3, 1], [1, -1]]|_2 + 1 = 3 + sqrt 2;
    both hold on every ball. example2: M = -I and h = (0, y1 y2 (y1 + y2) - y2^3 + y1 y2^4),
    where |y1 y2| <= |y|^2 / 2 and |y1 + y2| <= sqrt 2 |y|, so b = 1 + 1 / sqrt 2 + R^2
    and L = 1 + b R^2 on the ball of R = 10 TAIL_RADIUS, which holds the RK4 stage
    states of a step from TAIL_RADIUS up to dt ~ 2.
    """
    if sys.kind == "example1":
        return np.array([[-2.0, 1.0], [1.0, -1.0]]), (2.0 * np.pi) ** 2 / 6.0, 3.0 + np.sqrt(2.0), np.inf
    R = 10.0 * TAIL_RADIUS
    b = 1.0 + 1.0 / np.sqrt(2.0) + R * R
    return -np.eye(2), b, 1.0 + b * R * R, R


def linearization(sys: SystemSpec, dt: float) -> tuple[np.ndarray, float, float]:
    """(A, c, rho): the map's Jacobian A at the origin and |g(x) - A x| <= c |x|^3 on |x| <= rho.

    For linear-contraction A = a I, c = 0 and rho = inf. For an ODE kind with
    field f = M y + h(y) (_field_bounds, on |y| <= R), A is RK4
    on the linear field, sum_{j<=4} (dt M)^j / j!, and rho = TAIL_RADIUS.
    The RK4 stage states y_i of a step from x satisfy |y_i| <= g_i |x|, with
    g_1 = 1, g_2 = 1 + (dt/2) L, g_3 = 1 + (dt/2) L g_2, g_4 = 1 + dt L g_3.
    A stage's gap to the linear field's stage, |k_i - k_i^lin| <= e_i |x|^3,
    has e_1 = b and e_i = h_i |M|_2 e_(i-1) + b g_i^3 for the stage weights
    h = (dt/2, dt/2, dt), so c = (dt/6) (e_1 + 2 e_2 + 2 e_3 + e_4). Where
    g_4 rho exceeds R, c = inf: no bound is claimed.
    """
    if sys.kind == "linear-contraction":
        return sys.a * np.eye(sys.dim), 0.0, np.inf
    if not dt > 0:
        raise InvalidInputError("dt must be positive")
    rho = TAIL_RADIUS
    M, b, L, R = _field_bounds(sys)
    Z = dt * M
    eye = np.eye(len(M))
    A = eye + Z @ (eye + Z @ (eye + Z @ (eye + Z / 4.0) / 3.0) / 2.0)
    norm_m = float(np.linalg.norm(M, 2))
    g, e = 1.0, b
    total = e
    for h, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
        g = 1.0 + h * L * g
        e = h * norm_m * e + b * g**3
        total += weight * e
    c = dt / 6.0 * total if g * rho <= R else np.inf
    return A, c, rho


def _linear_tail(sys: SystemSpec, dt: float) -> tuple[np.ndarray, float, float] | None:
    """(P, C, rho) of the tail bound in the module docstring, or None unless a < 1 and q^3 < a."""
    A, c, rho = linearization(sys, dt)
    a = float(np.linalg.norm(A, 2))
    q = a if c == 0 else a + c * rho * rho
    if not (a < 1 and q**3 < a):
        return None
    return stein_solve(A, np.eye(len(A)))[0], float(2.0 * c * q / ((1.0 - q * a) * (1.0 - q**3 / a))), rho


def _quad_form(P: np.ndarray, xs: list) -> np.ndarray:
    """x' P x of each state from component arrays, as sum_i x_i (sum_j P_ji x_j) in index order."""
    return sum(xi * sum(P[j, i] * xj for j, xj in enumerate(xs)) for i, xi in enumerate(xs))


def saturating(w: np.ndarray, nu: float, varsigma: float) -> np.ndarray:
    """The saturating observable w^nu / (w^nu + varsigma^nu) of weight values w."""
    p = w**nu
    return p / (p + varsigma**nu)


def trajectory(sys: SystemSpec, x0: np.ndarray, dt: float, steps: int) -> np.ndarray:
    """States x[0..steps] of the discrete map, shape (steps+1, n)."""
    x0 = np.asarray(x0, dtype=float)
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
    out = np.empty((steps + 1,) + x0.shape)
    out[0] = x0
    rows = out.reshape(steps + 1, -1, x0.shape[-1])
    xs = _orbit_start(sys, rows[0], dt)
    for t in range(steps + 1):
        with np.errstate(over="ignore"):
            if np.any(_escaped(_sq_norm(xs))):
                raise IntegrationBlowupError("trajectory escaped the guard radius 1e6")
        if t < steps:
            xs = _rk4(sys, xs, dt)
            for i, x in enumerate(xs):
                rows[t + 1, :, i] = x
    return out


def sample_uniform(dom: DomainSpec, m: int, seed: int) -> np.ndarray:
    """m points uniform over the domain; ball sampling rejects from its box."""
    if m < 1:
        raise InvalidInputError("need at least one sample")
    rng = np.random.default_rng(seed)
    lo, hi = dom.bounding_box()
    if dom.kind == "box":
        return rng.uniform(lo, hi, size=(m, dom.dim))
    pts = []
    have = 0
    while have < m:
        chunk = rng.uniform(lo, hi, size=(max(2 * (m - have), 64), dom.dim))
        keep = chunk[np.sqrt(np.sum(chunk * chunk, axis=1)) <= dom.radius]
        pts.append(keep)
        have += len(keep)
    return np.concatenate(pts, axis=0)[:m]


def make_dataset(
    sys: SystemSpec,
    dom: DomainSpec,
    m: int,
    dt: float,
    seed: int,
    weight: WeightSpec,
) -> SnapshotDataset:
    """Draw snapshot pairs, dropping candidates below the weight floor.

    Points with w(x) < floor give an all-but-zero row in the weighted Gram
    and are discarded (the count is recorded). Fewer than m/2 survivors
    means the floor and the domain are incompatible.
    """
    X = sample_uniform(dom, m, seed)
    keep = weight_values(weight, X) >= weight.floor
    X = X[keep]
    rejected = int(m - len(X))
    if len(X) < m / 2:
        raise DegenerateDomainError(
            f"weight floor {weight.floor:g} rejected {rejected} of {m} samples"
        )
    Y = step(sys, X, dt)
    return SnapshotDataset(X=X, Y=Y, dt=float(dt), seed=int(seed), rejected_count=rejected)


def check_decay_ratio(X: np.ndarray, Y: np.ndarray, weight: WeightSpec, eta=None) -> float:
    """Largest observed one-step weight ratio max_i w(y_i) / w(x_i) over pairs (x_i, y_i).

    A value below 1 is evidence the map contracts the weight on the sampled
    region. When a state cost is supplied the ratio is damped by
    exp(-eta(x_i)), matching the operator actually fitted in that mode.
    """
    wx = weight_values(weight, X)
    wy = weight_values(weight, Y)
    if np.any(wx <= 0):
        raise InvalidInputError("decay ratio needs w(x_i) > 0 for every sample")
    ratios = wy / wx
    if eta is not None:
        ratios = eta.damping(X) * ratios
    return float(np.max(ratios))


def _mirror_pairs(xs: list) -> tuple[list, np.ndarray]:
    """One orbit start per {x, -x} pair of states, and each state's index into them.

    Takes and returns component arrays. A state's representative is the
    state signed so that its first nonzero entry is positive, with -0.0
    folded to +0.0; equal representatives are found on their bytes.
    """
    X = np.stack(xs, axis=1)
    lead = X[np.arange(len(X)), np.argmax(X != 0, axis=1)]
    np.negative(X, out=X, where=(lead < 0)[:, None])
    X += 0.0
    keys = X.view(np.dtype((np.void, X.itemsize * X.shape[1]))).ravel()
    reps, inverse = np.unique(keys, return_inverse=True)
    reps = reps.view(float).reshape(len(reps), X.shape[1])
    return [reps[:, i].copy() for i in range(X.shape[1])], inverse


def _sq_norm_series(
    sys: SystemSpec, X: np.ndarray, dt: float, scale: float, tail_tol: float, cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """scale sum_t |x_t|^2 along the orbit of each row of X, within tail_tol of the series.

    Each orbit retires at its own first step T with |x_T| <= rho and
    scale C |x_T|^4 <= tail_tol (one threshold on |x_T|^2, so up to the
    rounding of a square root), with the value scale (sum_{t<T} |x_t|^2 +
    x_T' P x_T), P, C and rho from _linear_tail (the bound is in the module
    docstring); so a row's value does not depend on its batch. An orbit that
    escapes (_settle) or does not retire within cap steps gets +inf; the
    second array marks the rows whose orbit escaped. Refuses where
    _linear_tail gives no bound. One orbit is simulated per {x, -x} pair of
    rows (_mirror_pairs): the step is odd bit for bit, and the terms, the
    escape test, the stop and the tail are even in x.
    """
    xs, inverse = _mirror_pairs(_orbit_start(sys, X, dt))
    tail = _linear_tail(sys, dt)
    if tail is None:
        raise InvalidInputError(f"{sys.kind} at dt = {dt:g} has no bounded linear tail: a >= 1 or q^3 >= a")
    P, C, rho = tail
    stop = min(rho * rho, np.sqrt(tail_tol / (scale * C))) if scale * C > 0 else rho * rho
    total = np.full(len(xs[0]), np.inf)
    escaped = np.zeros(len(total), dtype=bool)
    live = np.arange(len(total))  # the orbits in the batch, in batch order,
    acc = np.zeros(len(total))  # their sums of squared norms
    summing = np.ones(len(total), dtype=bool)  # and which of them have neither retired nor escaped
    for _ in range(cap):
        dead = np.zeros(len(live), dtype=bool)
        sq = _settle(xs, dead)
        done = summing & (sq <= stop)
        ended = dead.any()
        if ended:
            escaped[live[dead]] = True
            summing &= ~dead
            done &= ~dead
        if done.any():
            i = np.flatnonzero(done)
            total[live[i]] = scale * (acc[i] + _quad_form(P, [x[i] for x in xs]))
            summing[i] = False
            ended = True
        # Finished orbits step on, unread, until they are an eighth of the
        # batch: dropping one or two at a time costs more than stepping them.
        if ended and np.count_nonzero(summing) * 8 <= 7 * len(summing):
            if not summing.any():
                break
            xs, live, acc, sq = [x[summing] for x in xs], live[summing], acc[summing], sq[summing]
            summing = summing[summing]
        acc += sq
        xs = _rk4(sys, xs, dt)
    return total[inverse], escaped[inverse]


def oracle_lyapunov_batch(
    sys: SystemSpec, kw: WeightedKernelSpec, X: np.ndarray, dt: float, tail_tol: float = 1e-10
) -> np.ndarray:
    """True Lyapunov value sum_t k_w(x_t, x_t) at each row of X by direct simulation.

    The weight must be |x| (norm-power, exponent 1), so that the term
    k_w(x, x) is |x|^2; any other weight is refused, since only that series
    has a bounded tail. Each value is _sq_norm_series's: sum_{t<T} |x_t|^2
    + x_T' P x_T, within tail_tol of the series, with T the orbit's own
    stop step. Identity observable matrix assumed, matching the estimator
    side. An orbit that escapes raises IntegrationBlowupError, and one that
    does not reach the bound within STEP_CAP steps raises DivergenceError.
    """
    if not (kw.weight.kind == "norm-power" and kw.weight.exponent == 1):
        raise InvalidInputError("the Lyapunov oracle bounds its tail only for the weight |x|")
    vals, escaped = _sq_norm_series(sys, _check_points(X, "X"), dt, 1.0, tail_tol, STEP_CAP)
    if escaped.any():
        raise IntegrationBlowupError(f"a Lyapunov oracle orbit escaped the guard radius {GUARD_RADIUS:g}")
    if not np.all(np.isfinite(vals)):
        raise DivergenceError(f"a Lyapunov oracle orbit hit the step cap {STEP_CAP} before its tail bound")
    return vals


def oracle_zubov_batch(
    sys: SystemSpec,
    weight: WeightSpec,
    eta,
    X: np.ndarray,
    dt: float,
    steps: int,
    nu: float,
    varsigma: float,
) -> np.ndarray:
    """True t-step damped stability value at each row of X by direct simulation.

    Returns exp(-sum_{s<t} eta(x_s)) * saturating(w(x_t), nu, varsigma).
    Trajectories that escape the guard radius contribute zero: the
    accumulated cost has already driven the damping factor below double
    precision by then. Rows are simulated independently, one orbit per
    {x, -x} pair of rows; as in _sq_norm_series, the odd step and the
    sum-of-squares cost, weight and escape test make that bit-exact.
    """
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
    xs, inverse = _mirror_pairs(_orbit_start(sys, X, dt))
    cost = np.zeros(len(xs[0]))
    dead = np.zeros(len(cost), dtype=bool)
    for _ in range(steps):
        cost += eta.of_sq_norm(_settle(xs, dead))
        dead |= cost > 745.0
        xs = _rk4(sys, xs, dt)
    out = np.exp(-cost) * saturating(weight.of_sq_norm(_settle(xs, dead)), nu, varsigma)
    out[dead] = 0.0
    return out[inverse]
