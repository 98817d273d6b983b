"""Lyapunov certificate for the planar sinusoidal benchmark system.

Fits the one-step operator from snapshot data, sums its full value series
in rank space, and checks the two properties that make the result a
discrete Lyapunov function on the sampled region: positivity away from the
origin and decrease along the flow.
"""

import numpy as np

from koopcert import (
    DomainSpec,
    KernelSpec,
    RRRConfig,
    SystemSpec,
    WeightSpec,
    WeightedKernelSpec,
    build_lyapunov,
    fit_koopman,
    lyapunov_grid_values,
    lyapunov_values,
    make_dataset,
    regular_grid,
    step,
)

kw = WeightedKernelSpec(
    KernelSpec(kind="gaussian", gamma=4.0),
    WeightSpec(kind="norm-power", exponent=1.0),
)
sys = SystemSpec(kind="example1")
dom = DomainSpec.ball(2.0)
dt = 0.05

ds = make_dataset(sys, dom, 500, dt, 42, kw.weight)
model = fit_koopman(ds, kw, RRRConfig(rank=50))
print(f"risk {model.diagnostics.risk:.6f}, operator norm {model.diagnostics.op_norm:.6f}")

# The fitted operator norm sits slightly above one here, but the series
# converges at the spectral radius of H, so its full sum exists.
rho = np.max(np.abs(np.linalg.eigvals(model.H)))
est = build_lyapunov(model)
print(f"spectral radius rho(H) = {rho:.6f}; full series: {est.horizon} terms")

# On the grid the value comes from per-axis kernel factors, with no Gram of
# the anchors against the grid; off it (the mapped points) from the Gram.
grid = regular_grid(dom, 61)
coords, vals = grid.coords(), lyapunov_grid_values(est, grid)
rad = np.linalg.norm(coords, axis=1)
print(f"min value outside |x| > 0.25: {vals[rad > 0.25].min():.6f}")

mapped = step(sys, coords, dt)
vals_next = lyapunov_values(est, mapped)
ring = (rad >= 0.5) & (rad <= 1.8)
frac = np.mean(vals_next[ring] < vals[ring])
print(f"decrease along the flow at {frac:.1%} of {ring.sum()} ring points")

level = np.quantile(vals[rad <= 1.0], 0.5)
inside = vals <= level
print(f"median level set on the unit ball encloses {inside.mean():.1%} of the grid")
