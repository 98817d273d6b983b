"""Built-in systems, sampling, and trajectory oracles."""

import ast
import inspect
import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from koopcert import (
    DegenerateDomainError,
    DomainSpec,
    EtaSpec,
    IntegrationBlowupError,
    InvalidInputError,
    SystemSpec,
    WeightSpec,
    accumulated_costs,
    check_decay_ratio,
    make_dataset,
    oracle_lyapunov_batch,
    oracle_zubov_batch,
    regular_grid,
    sample_uniform,
    step,
    trajectory,
)
from koopcert.certificates import COST_STEP_CAP
from koopcert.dynsys import (
    STEP_CAP,
    SYSTEM_KINDS,
    _field,
    _linear_tail,
    _mirror_pairs,
    _orbit_start,
    _quad_form,
    _rk4,
    _settle,
    linearization,
)

from helpers import (
    fine_step,
    kw_gaussian,
    linear_lyapunov_truth,
    stacked_oracle_zubov,
    stacked_sq_norm_series,
    stacked_step,
)


W1 = WeightSpec(kind="norm-power", exponent=1.0)


def test_linear_contraction_is_exact_map():
    sys = SystemSpec(kind="linear-contraction", dim=3, a=0.5)
    x = np.array([1.0, -2.0, 4.0])
    np.testing.assert_array_equal(step(sys, x, 0.05), 0.5 * x)
    np.testing.assert_array_equal(step(sys, x, 123.0), 0.5 * x)


def test_example1_step_matches_fine_integration():
    sys = SystemSpec(kind="example1")
    rng = np.random.default_rng(5)
    for x0 in rng.uniform(-2.0, 2.0, size=(5, 2)):
        coarse = step(sys, x0, 0.05)
        fine = fine_step(sys, x0, 0.05, substeps=200)
        np.testing.assert_allclose(coarse, fine, atol=5e-5)


def test_example1_vector_field_hand_value():
    # x1' = -3 x1 + x2 + sin(2 pi x1) / (2 pi), x2' = x1 - x2, at (0.25, 1)
    sys = SystemSpec(kind="example1")
    x = np.array([0.25, 1.0])
    expect = np.array([-0.75 + 1.0 + 1.0 / (2.0 * math.pi), 0.25 - 1.0])
    fine = fine_step(sys, x, 1e-7, substeps=1)
    np.testing.assert_allclose((fine - x) / 1e-7, expect, atol=1e-5)


def test_example2_vector_field_hand_value():
    # x1' = -x1, x2' = s x2^3 + (s + x1^2) x2 with s = x1 x2 - 1, against 50-digit arithmetic
    x1 = np.array([0.5, -1.2, 1.9, 0.0, 3.0])
    x2 = np.array([-0.3, 0.8, 1.9, -4.0, 3.0])
    d1, d2, tmp = (np.empty(len(x1)) for _ in range(3))
    _field(SystemSpec(kind="example2"), x1, x2, d1, d2, tmp)
    with mpmath.workdps(50):
        for a, b, got1, got2 in zip(map(mpmath.mpf, x1), map(mpmath.mpf, x2), d1, d2):
            s = a * b - 1
            for got, want in ((got1, -a), (got2, s * b**3 + (s + a**2) * b)):
                assert abs(mpmath.mpf(got) - want) <= 4 * np.finfo(float).eps * abs(want)


def test_trajectory_shape_and_decay():
    sys = SystemSpec(kind="example1")
    traj = trajectory(sys, np.array([1.5, -1.0]), 0.05, 600)
    assert traj.shape == (601, 2)
    norms = np.linalg.norm(traj, axis=1)
    assert norms[-1] < 1e-3 * norms[0]
    # trajectory steps component arrays; each row is the public step of the last, bit for bit
    x = traj[0]
    for row in traj[1:]:
        x = step(sys, x, 0.05)
        assert np.array_equal(row, x)


def test_trajectory_blowup_raises():
    sys = SystemSpec(kind="example2")
    with pytest.raises(IntegrationBlowupError):
        trajectory(sys, np.array([1.9, 1.9]), 0.025, 2000)


def test_sample_uniform_ball_and_box():
    ball = sample_uniform(DomainSpec.ball(2.0), 500, 3)
    assert ball.shape == (500, 2)
    assert np.all(np.linalg.norm(ball, axis=1) <= 2.0)
    box = sample_uniform(DomainSpec(kind="box", lo=(-1.0, 0.0), hi=(0.5, 2.0)), 300, 3)
    assert np.all(box >= [-1.0, 0.0]) and np.all(box <= [0.5, 2.0])


def test_sample_uniform_seeding():
    dom = DomainSpec.ball(1.0)
    np.testing.assert_array_equal(sample_uniform(dom, 50, 9), sample_uniform(dom, 50, 9))
    assert not np.array_equal(sample_uniform(dom, 50, 9), sample_uniform(dom, 50, 10))


def test_make_dataset_pairs_are_one_step():
    sys = SystemSpec(kind="example1")
    ds = make_dataset(sys, DomainSpec.ball(2.0), 40, 0.05, 21, W1)
    assert len(ds) == 40 and ds.dt == 0.05 and ds.seed == 21
    for i in range(len(ds)):
        np.testing.assert_allclose(ds.Y[i], step(sys, ds.X[i], 0.05), atol=1e-14)


def test_make_dataset_degenerate_domain():
    tiny = DomainSpec(kind="box", lo=(-1e-12, -1e-12), hi=(1e-12, 1e-12))
    with pytest.raises(DegenerateDomainError):
        make_dataset(SystemSpec(kind="example1"), tiny, 20, 0.05, 0, W1)


def test_check_decay_ratio_linear_exact():
    sys = SystemSpec(kind="linear-contraction", a=0.6)
    ds = make_dataset(sys, DomainSpec.ball(2.0), 100, 1.0, 2, W1)
    np.testing.assert_allclose(check_decay_ratio(ds.X, ds.Y, W1), 0.6, rtol=1e-12)


def test_check_decay_ratio_with_damping():
    sys = SystemSpec(kind="linear-contraction", a=0.6)
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    ds = make_dataset(sys, DomainSpec.ball(2.0), 100, 1.0, 2, W1)
    expect = float(np.max(np.exp(-0.5 * np.sum(ds.X * ds.X, axis=1)) * 0.6))
    np.testing.assert_allclose(check_decay_ratio(ds.X, ds.Y, W1, eta=eta), expect, rtol=1e-12)


def test_oracle_lyapunov_linear_closed_form():
    sys = SystemSpec(kind="linear-contraction", a=0.5)
    kw = kw_gaussian()
    pts = np.array([[0.8, -0.3], [1.2, 0.5], [0.0, 1.4]])
    vals = oracle_lyapunov_batch(sys, kw, pts, 1.0, tail_tol=1e-12)
    np.testing.assert_allclose(vals, linear_lyapunov_truth(pts, 0.5), rtol=1e-13)
    single = oracle_lyapunov_batch(sys, kw, pts[1:2], 1.0, tail_tol=1e-12)[0]
    np.testing.assert_allclose(single, vals[1], rtol=1e-12)


def test_oracle_lyapunov_batch_matches_scalar_on_example1():
    sys = SystemSpec(kind="example1")
    kw = kw_gaussian()
    pts = np.array([[0.9, 0.4], [-1.1, 0.7]])
    batch = oracle_lyapunov_batch(sys, kw, pts, 0.05, tail_tol=1e-10)
    for i, p in enumerate(pts):
        # Each orbit stops on its own bound, so a row's value does not depend on its batch.
        assert oracle_lyapunov_batch(sys, kw, p[None, :], 0.05, tail_tol=1e-10)[0] == batch[i]


def test_oracle_zubov_linear_closed_form():
    # x_t = a^t x, eta(x_t) = c a^(2t) |x|^2, finite-horizon damped value
    sys = SystemSpec(kind="linear-contraction", a=0.7)
    w = WeightSpec(kind="norm-power", exponent=1.0)
    eta = EtaSpec(kind="quadratic-norm", scale=0.3)
    x = np.array([1.1, -0.4])
    t, nu, vs = 5, 1.0, 0.1
    r2 = float(np.sum(x * x))
    cost = sum(0.3 * r2 * 0.7 ** (2 * s) for s in range(t))
    wt = (0.7**t) * math.sqrt(r2)
    expect = math.exp(-cost) * wt / (wt + vs)
    batch = oracle_zubov_batch(sys, w, eta, x[None, :], 1.0, t, nu, vs)
    np.testing.assert_allclose(batch, [expect], rtol=1e-12)


def test_oracle_zubov_escaping_orbit_scores_zero():
    sys = SystemSpec(kind="example2")
    w = WeightSpec(kind="norm-power", exponent=0.5)
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    val = oracle_zubov_batch(sys, w, eta, np.array([[1.9, 1.9]]), 0.025, 400, 1.0, 0.1)[0]
    assert val == 0.0
    # Rows are simulated independently, so one-row batches of mixed
    # attracted and escaping starts agree exactly with the full batch.
    X = np.array([[1.9, 1.9], [0.5, -0.3], [1.5, 1.6], [-1.2, 0.8], [2.5, 1.0], [0.0, 0.0]])
    for steps in (0, 1, 6, 400):
        batch = oracle_zubov_batch(sys, w, eta, X, 0.025, steps, 1.0, 0.1)
        rows = [oracle_zubov_batch(sys, w, eta, x[None, :], 0.025, steps, 1.0, 0.1)[0] for x in X]
        assert rows == list(batch)
        if steps == 400:
            assert np.any(batch == 0.0) and np.any(batch > 0.0)
    # Both starts escape; the oracle must say so without a RuntimeWarning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x0 in ([1.9, 1.9], [1.62000904, 0.90343163]):
            with pytest.raises(IntegrationBlowupError, match="escaped"):
                oracle_lyapunov_batch(sys, kw_gaussian(), np.array([x0]), 0.025)


@pytest.mark.parametrize(
    "sys, dt, starts",
    [
        (SystemSpec(kind="example1"), 0.05, [[1.5, -1.0], [-2.0, 2.0], [0.0, 0.0], [0.3, 1e-9]]),
        # The last example2 start escapes within the 50 steps: [3, 3] to x2 = inf,
        # and [0, -4] at the coarse dt = 0.25 to nan.
        (SystemSpec(kind="example2"), 0.025, [[1.9, 1.9], [0.5, -0.3], [-1.2, 0.8], [3.0, 3.0]]),
        (SystemSpec(kind="example2"), 0.25, [[0.5, -0.3], [0.0, -4.0]]),
        (SystemSpec(kind="linear-contraction", dim=1, a=0.7), 1.0, [[1.0], [-0.4], [2.5]]),
        (SystemSpec(kind="linear-contraction", dim=3, a=0.7), 1.0, [[1.0, -2.0, 4.0], [0.1, 0.2, -0.3]]),
    ],
)
def test_component_kernel_bit_identical_to_stacked_step(sys, dt, starts):
    ref = np.array(starts, dtype=float)
    comps = [c.copy() for c in ref.T]
    for _ in range(50):
        ref = stacked_step(sys, ref, dt)
        comps = _rk4(sys, comps, dt)
        assert np.array_equal(np.stack(comps, axis=-1), ref, equal_nan=True)
    x0 = np.array(starts, dtype=float)
    assert np.array_equal(step(sys, x0, dt), stacked_step(sys, x0, dt))
    if sys.kind == "example2":
        assert not np.all(np.isfinite(ref[-1]))


MIRROR_BATCH = [
    [0.5, -0.3], [-0.5, 0.3], [0.5, -0.3],  # a pair and an exact duplicate
    [0.0, 0.0], [-0.0, 0.0], [0.0, -0.0],  # the origin with signed zeros
    [-0.0, 0.7], [0.0, -0.7], [0.0, 0.7],  # a pair on an axis, one with -0.0
    [1.3, 0.2], [-1.1, 0.9], [0.4, 1.6],  # unpaired rows
]


def test_mirror_pairs_keep_one_start_per_pair():
    X = np.array(MIRROR_BATCH)
    xs, inverse = _mirror_pairs(_orbit_start(SystemSpec(kind="example1"), X, 0.05))
    reps = np.stack(xs, axis=1)
    assert len(reps) == 6
    assert np.all((reps[inverse] == X).all(axis=1) | (reps[inverse] == -X).all(axis=1))
    assert not np.any(np.signbit(reps) & (reps == 0.0))


def test_oracle_lyapunov_bit_identical_to_stacked_loop():
    kw = kw_gaussian()
    coords = regular_grid(DomainSpec.ball(2.0), 21).coords()
    new = oracle_lyapunov_batch(SystemSpec(kind="example1"), kw, coords, 0.05, tail_tol=1e-10)
    assert np.array_equal(new, stacked_sq_norm_series(SystemSpec(kind="example1"), coords, 0.05, 1.0, 1e-10, STEP_CAP))
    # Squared norms keep np.sum's order: sequential below 8 components, pairwise from 8.
    for dim in (3, 9):
        sys = SystemSpec(kind="linear-contraction", dim=dim, a=0.8)
        X = np.random.default_rng(dim).uniform(-2.0, 2.0, (50, dim))
        new = oracle_lyapunov_batch(sys, kw, X, 1.0, tail_tol=1e-10)
        assert np.array_equal(new, stacked_sq_norm_series(sys, X, 1.0, 1.0, 1e-10, STEP_CAP))
    # Mirrored, duplicate and signed-zero rows share one orbit per pair.
    X = np.array(MIRROR_BATCH)
    for sys in (SystemSpec(kind="example1"), SystemSpec(kind="example2"),
                SystemSpec(kind="linear-contraction", a=0.7)):
        for dt in (0.025, 0.25):
            new = oracle_lyapunov_batch(sys, kw, X, dt, tail_tol=1e-10)
            assert np.array_equal(new, stacked_sq_norm_series(sys, X, dt, 1.0, 1e-10, STEP_CAP))


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_every_system_steps_odd_bit_for_bit(kind):
    # The oracles simulate one orbit per {x, -x} pair of states, which is exact
    # only while step(-x) == -step(x) bit for bit; a kind that breaks it fails here.
    sys = SystemSpec(kind=kind, a=0.7 if kind == "linear-contraction" else None)
    coords = regular_grid(DomainSpec.ball(2.0), 101).coords()
    # example2 sends [3, 3] to x2 = inf and, at dt = 0.25, [0, -4] to nan
    X0 = np.concatenate([coords, [[3.0, 3.0], [0.0, -4.0]]])
    for dt in (0.025, 0.25):
        X = X0
        for _ in range(200):
            Y = step(sys, X, dt)
            assert np.array_equal(step(sys, -X, dt), -Y, equal_nan=True)
            X = Y
        if kind == "example2":
            assert np.isinf(X[-2]).any() or np.isnan(X[-2]).any()
            assert dt != 0.25 or np.isnan(X[-1]).any()


# Every system kind at the configs' dt and at a coarse one.
KIND_DTS = [
    (SystemSpec(kind="example1"), 0.05),
    (SystemSpec(kind="example1"), 0.25),
    (SystemSpec(kind="example2"), 0.025),
    (SystemSpec(kind="example2"), 0.25),
    (SystemSpec(kind="linear-contraction", dim=3, a=0.7), 1.0),
]


def _ball_states(dim: int, radius: float, count: int, seed: int) -> np.ndarray:
    """count seeded states uniform in the ball |x| <= radius."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((count, dim))
    d /= np.linalg.norm(d, axis=1)[:, None]
    return d * (radius * rng.uniform(size=count) ** (1.0 / dim))[:, None]


def _long_sum(sys: SystemSpec, xs: list, dt: float, steps: int = 2000) -> np.ndarray:
    """sum_{t<steps} |x_t|^2 of each orbit, from component arrays; +inf where the orbit escapes."""
    total, dead = np.zeros(len(xs[0])), np.zeros(len(xs[0]), dtype=bool)
    for _ in range(steps):
        total += _settle(xs, dead)
        xs = _rk4(sys, xs, dt)
    total[dead] = np.inf
    return total


@pytest.mark.parametrize("sys, dt", KIND_DTS)
def test_linearization_remainder_is_cubic_on_its_ball(sys, dt):
    A, c, rho = linearization(sys, dt)
    assert np.isfinite(c) and (c == 0) == (sys.kind == "linear-contraction")
    X = _ball_states(sys.dim, min(rho, 2.0), 100_000, seed=7)
    r = np.linalg.norm(X, axis=1)
    gap = np.linalg.norm(step(sys, X, dt) - X @ A.T, axis=1)
    # The bound is for exact arithmetic; step(x) and A x each round at a few ulp of |x|.
    assert np.all(gap <= c * r**3 + 8 * np.finfo(float).eps * r)


@pytest.mark.parametrize("sys, dt", KIND_DTS)
def test_linear_tail_error_within_the_stated_bound(sys, dt):
    P, C, rho = _linear_tail(sys, dt)
    X = _ball_states(sys.dim, min(rho, 2.0), 1000, seed=11)
    xs = [X[:, i].copy() for i in range(sys.dim)]
    ref = _long_sum(sys, xs, dt)
    r2 = np.sum(X * X, axis=1)
    # The reference rounds at a few ulp of its sum; far below C |x|^4 on this sample.
    assert np.all(np.abs(_quad_form(P, xs) - ref) <= C * r2 * r2 + 64 * np.finfo(float).eps * ref)


def test_linear_tail_refused_where_the_bound_fails():
    # example1 at dt = 0.8 contracts at the origin (|A|_2 = 0.74), but its
    # remainder constant is so large that q^3 >= a; at dt = 3 the
    # linearization itself expands.
    sys = SystemSpec(kind="example1")
    A, c, rho = linearization(sys, 0.8)
    a = np.linalg.norm(A, 2)
    assert a < 1 and (a + c * rho * rho) ** 3 >= a
    assert np.linalg.norm(linearization(sys, 3.0)[0], 2) >= 1
    for dt in (0.8, 3.0):
        assert _linear_tail(sys, dt) is None


def test_oracle_lyapunov_within_tail_tol_of_a_long_sum_on_the_example1_grid():
    sys = SystemSpec(kind="example1")
    coords = regular_grid(DomainSpec.ball(2.0), 101).coords()
    vals = oracle_lyapunov_batch(sys, kw_gaussian(), coords, 0.05, tail_tol=1e-10)
    xs, inverse = _mirror_pairs(_orbit_start(sys, coords, 0.05))
    assert np.max(np.abs(vals - _long_sum(sys, xs, 0.05)[inverse])) <= 1e-10


def test_oracle_and_costs_refuse_where_no_tail_bound_exists():
    # w = |x|^0.5 makes the oracle's term |x|, not |x|^2: no tail bound applies.
    pts = np.array([[1.5, -1.0], [-0.3, 0.8]])
    for kw in (kw_gaussian(power=0.5), replace(kw_gaussian(), weight=WeightSpec(kind="exp-norm-power"))):
        with pytest.raises(InvalidInputError, match="weight"):
            oracle_lyapunov_batch(SystemSpec(kind="linear-contraction", a=0.7), kw, pts, 1.0)
    # example1 at dt = 0.8 has q^3 >= |A|_2 (test_linear_tail_refused_where_the_bound_fails).
    sys, eta = SystemSpec(kind="example1"), EtaSpec(kind="quadratic-norm", scale=0.5)
    with pytest.raises(InvalidInputError, match="no bounded linear tail"):
        oracle_lyapunov_batch(sys, kw_gaussian(), pts, 0.8)
    with pytest.raises(InvalidInputError, match="no bounded linear tail"):
        accumulated_costs(sys, eta, pts, 0.8)


def test_accumulated_costs_within_tail_tol_of_a_long_sum_on_an_example2_pool():
    sys, eta, dt = SystemSpec(kind="example2"), EtaSpec(kind="quadratic-norm", scale=0.5), 0.025
    pool = sample_uniform(DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0)), 2000, 44)
    costs = accumulated_costs(sys, eta, pool, dt)
    ref = eta.scale * _long_sum(sys, [pool[:, i].copy() for i in range(2)], dt, 4000)
    assert np.array_equal(np.isfinite(costs), np.isfinite(ref))
    assert np.any(np.isinf(costs)) and np.any(np.isfinite(costs))
    fin = np.isfinite(ref)
    assert np.max(np.abs(costs[fin] - ref[fin])) <= 1e-6


@pytest.mark.parametrize("dt", [0.025, 0.25])
def test_cost_and_zubov_loops_bit_identical_to_stacked_loops(dt):
    # [3, 3] escapes to x2 = inf and, at dt = 0.25, [0, -4] to nan while the
    # other orbits keep stepping, so _settle parks rows mid-run.
    sys = SystemSpec(kind="example2")
    eta = EtaSpec(kind="quadratic-norm", scale=0.5)
    # The mirror rows, [-3, -3] and [-0.0, 4] share orbits with other rows.
    X = np.array([[0.5, -0.3], [3.0, 3.0], [-1.2, 0.8], [0.0, -4.0], [1.9, 1.9], [0.0, 0.0]]
                 + MIRROR_BATCH + [[-3.0, -3.0], [-0.0, 4.0]])
    costs = accumulated_costs(sys, eta, X, dt)
    assert np.array_equal(costs, stacked_sq_norm_series(sys, X, dt, eta.scale, 1e-6, COST_STEP_CAP))
    assert np.isinf(costs[1]) and np.all(np.isfinite(costs[[0, 2, 5]]))
    weight = WeightSpec(kind="norm-power", exponent=0.5)
    for steps in (0, 1, 6, 40):
        new = oracle_zubov_batch(sys, weight, eta, X, dt, steps, 1.0, 0.1)
        assert np.array_equal(new, stacked_oracle_zubov(sys, weight, eta, X, dt, steps, 1.0, 0.1))
    assert new[1] == new[-2] == 0.0


POW_NAMES = {"power", "float_power"}


def _pow_uses(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            found.append((node.lineno, "**"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and node.attr in POW_NAMES
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_stepping_kernel_makes_no_pow_call():
    """No `**`, np.power or np.float_power in the field or the RK4 step: a
    float power goes to libm pow element by element, where x2 * x2 * x2 costs
    a fraction of it."""
    assert _pow_uses(ast.parse("a = x**3\nb = np.power(a, 2)\nc **= 2\nd = x * x")) == [
        (1, "**"), (2, "power"), (3, "**")
    ]
    for fn in (_field, _rk4):
        assert _pow_uses(ast.parse(inspect.getsource(fn))) == [], fn.__name__
