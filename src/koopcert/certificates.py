"""Lyapunov and stability-boundary estimates with computable error bounds.

A fitted operator of spectral radius below one yields a Lyapunov function
as the full sum of its operator series, the solution of a Stein equation
in rank space, and a damped fit yields the t-step Zubov-style value whose
sublevel sets bound the domain of attraction. The closed-form finite-sample bounds collected
here turn the fitted diagnostics into certified error radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynsys import (
    DomainSpec,
    SnapshotDataset,
    SystemSpec,
    _sq_norm_series,
    check_decay_ratio,
    sample_uniform,
    saturating,
    step,
)
from .eigsolve import stein_solve
from .errors import ContractionViolatedError, InvalidInputError, SolverFailureError
from .estimator import EtaSpec, KoopmanModel, forward_coeffs, heldout_risk
from .kernels import WeightSpec, axis_factors, gram_product, grid_weight_values, weight_values

# Largest certificate horizon a run may configure, in steps
HORIZON_CAP = 100_000
COST_STEP_CAP = 10_000
# Entries of a grid slab's lead factor (see _grid_values): 2 MB.
GRID_SLAB_ENTRIES = 1 << 18

# Where a reported number comes from (see reported).
RUN_INPUT = "run input"
CLOSED_FORM = "closed form on the fit"
PLUG_IN = "plug-in"
HELDOUT = "held-out sample"
SIMULATION = "simulation of the known system"


def reported(source, *uses: str):
    """A certificate record's field whose number comes from source and is computed from the
    reported numbers named in uses, delta among them wherever it holds only with probability.
    A source that depends on the run is a function of the record that returns one."""
    return field(metadata={"source": source, "uses": uses})


@dataclass(frozen=True)
class LyapunovEstimate:
    """The Lyapunov series of a fitted operator, summed in rank space.

    P is the r x r form sum_{t < horizon} (H')^t Q H^t, so the value is
    v(x) = k_w(x, x) + z' P z with z = U' k_w(anchors_x, x). tail_bound is
    lambda_max((H^T)' P_inf H^T) at T = horizon, where P_inf is the model's
    full series: the value the horizon leaves out is at most tail_bound |z|^2.
    horizon is the run's input when configured, and otherwise the 2^k terms
    in which the doubling summed the full series.
    """

    model: KoopmanModel
    horizon: int = reported(lambda est: RUN_INPUT if est.configured else CLOSED_FORM)
    tail_bound: float = reported(CLOSED_FORM, "horizon")
    P: np.ndarray = field(repr=False)
    configured: bool = False


def _anchor_decay_ratio(model: KoopmanModel) -> float:
    """Observed one-step weight decay on the training anchors, damped as fitted."""
    return check_decay_ratio(model.anchors_x, model.anchors_y, model.kw.weight, eta=model.eta)


def build_lyapunov(model: KoopmanModel, horizon: int | None = None) -> LyapunovEstimate:
    """The model's Lyapunov series: its full sum, or its first horizon terms.

    The full sum P_inf solves P = H'PH + Q (eigsolve.stein_solve), and with
    no horizon P = P_inf, whose horizon is the 2^k terms the doubling
    summed. An explicit horizon T gives the exact finite sum P_inf -
    (H^T)' P_inf H^T. Refuses (InvalidInputError) a damped model, whose
    series is not the flow's, and (ContractionViolatedError) a fit whose
    operator norm and anchors' observed decay ratio are both >= 1, where
    the data expand whatever the fitted spectrum says, or whose rho(H) >= 1,
    where the series diverges; then raise beta.
    """
    if model.mode != "koopman":
        raise InvalidInputError(f"the Lyapunov series needs a plain fit, not a {model.mode}-mode one")
    if horizon is not None and (not isinstance(horizon, (int, np.integer)) or horizon < 0):
        raise InvalidInputError(f"horizon must be a nonnegative integer, got {horizon!r}")
    op_norm = model.diagnostics.op_norm
    if op_norm >= 1.0:
        decay = _anchor_decay_ratio(model)
        if decay >= 1.0:
            raise ContractionViolatedError(
                f"fitted operator norm {op_norm:.6g} and observed decay ratio "
                f"{decay:.6g} are both >= 1; raise beta"
            )
    try:
        P, terms = stein_solve(model.H, model.Q)
    except SolverFailureError as exc:
        rho = float(np.max(np.abs(np.linalg.eigvals(model.H))))
        raise ContractionViolatedError(
            f"the Lyapunov series does not converge: fitted operator spectral radius rho(H) = {rho:.6g}"
        ) from exc
    T = terms if horizon is None else int(horizon)
    HT = np.linalg.matrix_power(model.H, T)
    tail = HT.T @ P @ HT
    if horizon is not None:
        P = P - tail
    return LyapunovEstimate(
        model=model, horizon=T, tail_bound=float(np.linalg.eigvalsh(tail)[-1]), P=P, configured=horizon is not None
    )


def _lyapunov_value(est: LyapunovEstimate, wx: np.ndarray, products) -> np.ndarray:
    """The series value w(x)^2 + z'Pz at points of weight wx, where
    z = U' k_w(anchors_x, x) is products(U), r along axis -2."""
    Z = products(est.model.U)
    return wx * wx + np.sum(Z * (est.P @ Z), axis=-2)


def lyapunov_values(est: LyapunovEstimate, X: np.ndarray) -> np.ndarray:
    """Series value at each row of X through the precomputed r x r form."""
    model = est.model
    X = np.asarray(X, dtype=float)
    return _lyapunov_value(
        est, weight_values(model.kw.weight, X), lambda C: gram_product(model.kw, X, model.anchors_x, C).T
    )


@dataclass(frozen=True)
class ZubovEstimate:
    """t-step damped stability value from a zubov-mode fit."""

    model: KoopmanModel
    steps: int
    nu: float
    varsigma: float
    g0: np.ndarray
    coeffs: np.ndarray


def build_zubov(model: KoopmanModel, steps: int, nu: float = 1.0, varsigma: float = 0.1) -> ZubovEstimate:
    """Precompute the forward coefficients of the saturating observable.

    The observable section values are g0_j = w(y_j)^nu / (w(y_j)^nu +
    varsigma^nu); damping lives inside the fitted operator application.
    """
    if model.mode != "zubov":
        raise InvalidInputError("zubov estimate needs a damped (zubov-mode) fit")
    if steps < 0:
        raise InvalidInputError("steps must be >= 0")
    if nu < 1 or varsigma <= 0:
        raise InvalidInputError("need nu >= 1 and varsigma > 0")
    g0 = saturating(weight_values(model.kw.weight, model.anchors_y), nu, varsigma)
    coeffs = forward_coeffs(model, g0, steps) if steps >= 1 else np.zeros(len(model))
    return ZubovEstimate(model=model, steps=steps, nu=nu, varsigma=varsigma, g0=g0, coeffs=coeffs)


def _zubov_value(est: ZubovEstimate, wx: np.ndarray, products) -> np.ndarray:
    """The t-step value at points of weight wx: c' k_w(anchors_x, x), which
    products(c) gives for c as one column, or the saturating observable
    itself at steps = 0."""
    if est.steps == 0:
        return saturating(wx, est.nu, est.varsigma)
    return products(est.coeffs[:, None])[..., 0, :]


def zubov_values(est: ZubovEstimate, X: np.ndarray) -> np.ndarray:
    """Estimated t-step damped stability value at each row of X."""
    model = est.model
    X = np.asarray(X, dtype=float)
    return _zubov_value(
        est, weight_values(model.kw.weight, X), lambda C: gram_product(model.kw, X, model.anchors_x, C).T
    )


def c_nu(nu: float, varsigma: float) -> float:
    """Lipschitz-type constant of the saturating observable.

    1/varsigma for nu = 1; for nu > 1 the stationary-point value
    nu^-1 (nu-1)^((nu-1)/nu) / varsigma.
    """
    if nu < 1 or varsigma <= 0:
        raise InvalidInputError("need nu >= 1 and varsigma > 0")
    if nu == 1:
        return 1.0 / varsigma
    return (nu - 1.0) ** ((nu - 1.0) / nu) / (nu * varsigma)


def generalization_bound(m: int, gamma: float, r: int, delta: float) -> float:
    """High-probability excess-risk radius eps_y + gamma (gamma + 2 sqrt(r)) eps_x.

    Valid for any fitted operator with HS norm at most gamma; decreasing
    in m, increasing in gamma and r. The radii are concentration_epsilons.
    """
    if r < 1 or gamma < 0:
        raise InvalidInputError("need r >= 1 and gamma >= 0")
    eps_x, eps_y = concentration_epsilons(m, delta)
    return eps_y + gamma * (gamma + 2.0 * math.sqrt(r)) * eps_x


def concentration_epsilons(m: int, delta: float) -> tuple[float, float]:
    """The two concentration radii feeding the excess-risk bound (natural logs)."""
    if m < 1:
        raise InvalidInputError("need m >= 1")
    if not 0 < delta < 1:
        raise InvalidInputError("delta must lie in (0, 1)")
    l6 = math.log(6.0 / delta)
    l12 = math.log(12.0 * m * m / delta)
    eps_x = 6.0 * l12 / m + 3.0 * math.sqrt(l12 / m)
    eps_y = l6 / m + math.sqrt(8.0 * l6 / m)
    return eps_x, eps_y


def lyapunov_error_bound(alpha: float, q_norm: float, rho: float) -> float:
    """Mean absolute Lyapunov error bound 2 a q / (1-a^2)^2 * sqrt(rho)."""
    if not 0 <= alpha < 1:
        raise InvalidInputError("alpha must lie in [0, 1)")
    if q_norm < 0 or rho < 0:
        raise InvalidInputError("q_norm and rho must be nonnegative")
    return 2.0 * alpha * q_norm / (1.0 - alpha * alpha) ** 2 * math.sqrt(rho)


def zubov_error_bound(t: int, alpha: float, rho: float, nu: float, varsigma: float) -> float:
    """Mean absolute t-step damped-value error bound."""
    if t < 1:
        raise InvalidInputError("t must be >= 1")
    if alpha < 0 or rho < 0:
        raise InvalidInputError("alpha and rho must be nonnegative")
    return t * alpha ** (t - 1) * math.sqrt(rho) * c_nu(nu, varsigma) / varsigma


def _check_levels(levels) -> np.ndarray:
    """The levels as a float array, refused unless nonempty, positive and strictly increasing."""
    levels = np.asarray(levels, dtype=float)
    if not levels.size or not np.all(np.diff(levels, prepend=0.0) > 0):
        raise InvalidInputError("levels must be nonempty, positive and strictly increasing")
    return levels


def doa_level_threshold(
    eta_lower: float, table: dict[float, float], alpha_lower: float, varsigma: float
) -> float | None:
    """Largest weight level of a simulated table (level -> mu) certified to
    sit inside the attraction basin.

    A level a is feasible when log(alpha_lower * a / varsigma) >=
    (table[a] + log 2) / eta_lower * log(1 / alpha_lower), which fails at
    small a. Returns the highest feasible level, a key of the table, or
    None when no level is feasible.
    """
    if eta_lower <= 0 or varsigma <= 0 or not 0 < alpha_lower <= 1:
        raise InvalidInputError("need eta_lower > 0, varsigma > 0, alpha_lower in (0, 1]")
    _check_levels(list(table))
    log_inv = math.log(1.0 / alpha_lower)
    a_star = None
    for a, mu in table.items():
        if math.log(alpha_lower * a / varsigma) >= (mu + math.log(2.0)) / eta_lower * log_inv:
            a_star = a
    return a_star


def doa_levels(dom: DomainSpec, weight: WeightSpec) -> np.ndarray:
    """Weight levels 0.1, 0.2, ... up to the first at or above the domain's
    largest weight, so the levels cover the whole domain."""
    far = np.maximum(*np.abs(dom.bounding_box()))
    top = weight.of_sq_norm(dom.radius**2 if dom.kind == "ball" else np.sum(far * far))
    return np.arange(1, math.ceil(10.0 * top) + 1) / 10.0


@dataclass(frozen=True)
class DoaEstimate:
    """Simulated cost table, escape and decay floors, and certified level a*."""

    mu_table: dict[float, float] = reported(SIMULATION)
    eta_lower: float = reported(SIMULATION)
    alpha_lower: float = reported(SIMULATION)
    a_star: float | None = reported(SIMULATION, "eta_lower", "alpha_lower", "mu_table")


def estimate_doa(
    sys: SystemSpec,
    dom: DomainSpec,
    weight: WeightSpec,
    eta: EtaSpec,
    levels: np.ndarray,
    samples: int,
    dt: float,
    seed: int,
    varsigma: float,
) -> DoaEstimate:
    """Attraction-level certificate from one simulation of sampled states.

    From one pool of 4 * samples states drawn at seed, level a takes the
    first samples states with w(x) <= a and the floors take the first
    samples states; one accumulated_costs run simulates them all. mu_a is
    the running maximum over levels up to a of a level's largest cost (a
    capped level need not hold a smaller level's states). eta_lower is the
    least state cost off the basin, alpha_lower the least one-step weight
    ratio on it, capped at 1; a_star is the table's highest feasible level
    (doa_level_threshold).
    """
    levels = _check_levels(levels)
    pool = sample_uniform(dom, samples * 4, seed)
    wv = weight_values(weight, pool)
    picks = [np.flatnonzero(wv <= a)[:samples] for a in levels]
    sim = np.union1d(np.arange(samples), np.concatenate(picks))
    costs = np.zeros(len(pool))
    costs[sim] = accumulated_costs(sys, eta, pool[sim], dt)
    level_max = [np.max(costs[pick], initial=0.0) for pick in picks]
    table = dict(zip(levels.tolist(), np.maximum.accumulate(level_max).tolist()))

    floor, wx, attracted = pool[:samples], wv[:samples], np.isfinite(costs[:samples])
    eta_lower = float(np.min(eta.values(floor[~attracted]), initial=np.inf))
    ok = attracted & (wx > 0)
    ratios = weight_values(weight, step(sys, floor[ok], dt)) / wx[ok] if np.any(ok) else []
    alpha_lower = float(np.min(ratios, initial=1.0))
    a_star = None
    if alpha_lower > 0 and math.isfinite(eta_lower):
        a_star = doa_level_threshold(eta_lower, table, alpha_lower, varsigma)
    return DoaEstimate(table, eta_lower, alpha_lower, a_star)


def accumulated_costs(sys, eta, X, dt, tail_tol: float = 1e-6) -> np.ndarray:
    """Accumulated cost sum_t eta(x_t), eta = s |x|^2, along the orbit of each row of X.

    Each value is within tail_tol of the series (dynsys._sq_norm_series at
    scale s), bit for bit the same whatever batch the row is in. A row whose
    orbit escapes or does not reach the tail bound within COST_STEP_CAP
    steps gets +inf: its level cannot certify anything. Finite entries mark
    attracted starts."""
    return _sq_norm_series(sys, X, dt, eta.scale, tail_tol, COST_STEP_CAP)[0]


@dataclass(frozen=True)
class BoundReport:
    """Closed-form certificate inputs and outputs for a fitted model.

    alpha_plug is max(op_norm, decay_ratio) and stands in for the true
    operator norm, which is not observable. lyapunov_const is inf when
    alpha_plug >= 1; op_norm and decay_ratio show which factor did it.
    """

    m: int = reported(RUN_INPUT)
    rank: int = reported(RUN_INPUT)
    delta: float = reported(RUN_INPUT)
    gamma: float = reported(CLOSED_FORM)
    eps_x: float = reported(CLOSED_FORM, "m", "delta")
    eps_y: float = reported(CLOSED_FORM, "m", "delta")
    excess_risk: float = reported(CLOSED_FORM, "m", "gamma", "rank", "delta")
    empirical_risk: float = reported(CLOSED_FORM)
    op_norm: float = reported(CLOSED_FORM)
    norm_bound: float = reported(CLOSED_FORM)
    decay_ratio: float = reported(PLUG_IN)
    alpha_plug: float = reported(PLUG_IN, "op_norm", "decay_ratio")
    lyapunov_const: float = reported(PLUG_IN, "alpha_plug")
    heldout_risk: float | None = reported(HELDOUT)
    zubov_const: float | None = reported(PLUG_IN, "alpha_plug")


def bound_report(
    model: KoopmanModel,
    delta: float = 0.05,
    heldout: SnapshotDataset | None = None,
    nu: float = 1.0,
    varsigma: float = 0.1,
) -> BoundReport:
    """Assemble every closed-form bound for a fitted model."""
    m = len(model)
    gamma = model.diagnostics.hs_norm
    eps_x, eps_y = concentration_epsilons(m, delta)
    rho_check = generalization_bound(m, gamma, model.rank, delta)
    decay = _anchor_decay_ratio(model)
    alpha = max(model.diagnostics.op_norm, decay)
    h_risk = None if heldout is None else heldout_risk(model, heldout)
    # The constants are the error bounds at unit norm and risk (and t = 1).
    lyap_const = lyapunov_error_bound(alpha, 1.0, 1.0) if alpha < 1 else float("inf")
    zub_const = None
    if model.mode == "zubov":
        zub_const = zubov_error_bound(1, alpha, 1.0, nu, varsigma)
    return BoundReport(
        m=m,
        gamma=gamma,
        rank=model.rank,
        delta=delta,
        eps_x=eps_x,
        eps_y=eps_y,
        excess_risk=rho_check,
        empirical_risk=model.diagnostics.risk,
        heldout_risk=h_risk,
        op_norm=model.diagnostics.op_norm,
        norm_bound=model.diagnostics.norm_bound,
        decay_ratio=decay,
        alpha_plug=alpha,
        lyapunov_const=lyap_const,
        zubov_const=zub_const,
    )


@dataclass(frozen=True)
class Grid:
    """A regular tensor grid, one array of values per axis. Its points are
    in row-major order (first axis slowest); a grid row is the line of
    points along the last axis."""

    axes: tuple[np.ndarray, ...]

    def coords(self) -> np.ndarray:
        """The (N, n) array of the grid's points."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def regular_grid(dom: DomainSpec, resolution: int = 101) -> Grid:
    """The resolution^n grid over the bounding box of the domain.

    Each axis is c + h*t with c = (lo + hi)/2, h = (hi - lo)/2 and
    t = (2i - (res-1))/(res-1), its ends set to exactly lo and hi. So on a box
    symmetric about the origin (any ball's box) point N-1-p of the grid is
    exactly -(point p), and the oracles simulate one orbit per such pair.
    """
    if resolution < 2:
        raise InvalidInputError("grid resolution must be >= 2")
    lo, hi = dom.bounding_box()
    t = np.arange(1 - resolution, resolution, 2) / (resolution - 1)
    axes = ((lo + hi) / 2)[:, None] + ((hi - lo) / 2)[:, None] * t
    axes[:, 0], axes[:, -1] = lo, hi
    return Grid(tuple(axes))


def grid_slab_rows(m: int, width: int) -> int:
    """Grid rows per slab for m anchors and a coefficient matrix of width columns."""
    return max(1, GRID_SLAB_ENTRIES // (m * width))


def _grid_values(value, est, grid: Grid, width: int) -> np.ndarray:
    """value(est, wx, products) at every point of the grid, in row-major order.

    No Gram of the anchors with the grid is built. The grid rows are taken
    in slabs of grid_slab_rows(m, width). For C of width columns, products(C)
    gives C' K_w(anchors_x, x) at the slab's points, (rows, width, points per
    row), as one GEMM F' E_last scaled by w(x): E_d are the axis factors and
    F[a, (row, j)] = w(a) C[a, j] prod_(d < n-1) E_d[a, i_d(row)] is the
    slab's lead factor. F and the product live in two buffers that every slab
    reuses, so the stage allocates no array per slab above m x rows.
    """
    model = est.model
    *lead, last = axis_factors(model.kw.kernel, model.anchors_x, grid.axes)
    wa = weight_values(model.kw.weight, model.anchors_x)
    wx = grid_weight_values(model.kw.weight, grid.axes).reshape(-1, last.shape[1])
    values = np.empty_like(wx)
    step = grid_slab_rows(len(wa), width)
    F_buf, G_buf = np.empty(len(wa) * step * width), np.empty(step * width * last.shape[1])
    for start in range(0, len(wx), step):
        rows = np.arange(start, min(start + step, len(wx)))
        lead_w = np.repeat(wa[:, None], len(rows), axis=1)
        if lead:
            for E, i in zip(lead, np.unravel_index(rows, [len(t) for t in grid.axes[:-1]])):
                lead_w *= E[:, i]

        def products(C, lead_w=lead_w, rows=rows):
            F = F_buf[: lead_w.size * width].reshape(lead_w.shape + (width,))
            np.multiply(lead_w[:, :, None], C[:, None, :], out=F)
            G = G_buf[: len(rows) * width * last.shape[1]].reshape(len(rows), width, -1)
            np.matmul(F.reshape(len(C), -1).T, last, out=G.reshape(-1, last.shape[1]))
            G *= wx[rows, None, :]
            return G

        values[rows] = value(est, wx[rows], products)
    return values.ravel()


def lyapunov_grid_values(est: LyapunovEstimate, grid: Grid) -> np.ndarray:
    """lyapunov_values at the grid's points, from the axis factors."""
    return _grid_values(_lyapunov_value, est, grid, est.model.rank)


def zubov_grid_values(est: ZubovEstimate, grid: Grid) -> np.ndarray:
    """zubov_values at the grid's points, from the axis factors."""
    return _grid_values(_zubov_value, est, grid, 1)
