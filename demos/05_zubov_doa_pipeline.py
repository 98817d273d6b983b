"""Attraction indicator and certified level set for a finite basin.

The second benchmark system blows up outside the region bounded by the
hyperbola x1 x2 = 2, so its basin of attraction is a strict subset of the
sampling box. A cost-damped fit drives the t-step indicator toward zero on
the non-attracting side, and a scan of the simulated cost table picks its
highest certified weight level. The pairs are sampled as for a plain fit;
the cost enters only the fit, which computes the damping from eta.
"""

import numpy as np

from koopcert import (
    DomainSpec,
    EtaSpec,
    KernelSpec,
    RRRConfig,
    SystemSpec,
    WeightSpec,
    WeightedKernelSpec,
    build_zubov,
    doa_levels,
    estimate_doa,
    fit_koopman,
    make_dataset,
    zubov_values,
)

kw = WeightedKernelSpec(
    KernelSpec(kind="gaussian", gamma=4.0),
    WeightSpec(kind="norm-power", exponent=0.5),
)
eta = EtaSpec(kind="quadratic-norm", scale=0.5)
sys = SystemSpec(kind="example2")
dom = DomainSpec(kind="box", lo=(-2.0, -2.0), hi=(2.0, 2.0))
dt = 0.025

ds = make_dataset(sys, dom, 500, dt, 42, kw.weight)
model = fit_koopman(ds, kw, RRRConfig(rank=50), eta=eta)
print(f"damped fit: risk {model.diagnostics.risk:.6f}")

est = build_zubov(model, 6, nu=1.0, varsigma=0.1)
rng = np.random.default_rng(88)
box = rng.uniform(-2.0, 2.0, (4000, 2))
outside = box[box[:, 0] * box[:, 1] >= 2.0][:200]
inside = box[np.linalg.norm(box, axis=1) <= 0.6][:200]
print(f"mean indicator in the non-attracting region: {zubov_values(est, outside).mean():.5f}")
print(f"mean indicator near the equilibrium:         {zubov_values(est, inside).mean():.5f}")

# Certify a weight sublevel set. The cost table mu(a) comes from simulated
# trajectories, the decay floor alpha and the escape rate floor eta come
# from the same simulation of a sample of the box.
doa = estimate_doa(sys, dom, kw.weight, eta, doa_levels(dom, kw.weight), 500, dt, 44, 0.1)
print(f"eta floor off the basin {doa.eta_lower:.4f}, weight decay floor {doa.alpha_lower:.4f}")
print(f"certified weight level a* = {doa.a_star}")
print(f"largest simulated cost inside that level: {doa.mu_table[doa.a_star]:.4f}")
