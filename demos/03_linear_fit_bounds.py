"""Reduced-rank fit on an exactly solvable system.

For the contraction map x -> a x with weight w = |x| the Lyapunov series
has the closed form |x|^2 / (1 - a^2), so this demo can show the whole
chain against ground truth: fit, diagnostics, certificate, and the
closed-form error bounds.
"""

import numpy as np

from koopcert import (
    DomainSpec,
    KernelSpec,
    RRRConfig,
    SystemSpec,
    WeightSpec,
    WeightedKernelSpec,
    bound_report,
    build_lyapunov,
    fit_koopman,
    lyapunov_error_bound,
    lyapunov_values,
    make_dataset,
)

a = 0.5
kw = WeightedKernelSpec(
    KernelSpec(kind="gaussian", gamma=4.0),
    WeightSpec(kind="norm-power", exponent=1.0),
)
sys = SystemSpec(kind="linear-contraction", a=a)
dom = DomainSpec.ball(2.0)

ds = make_dataset(sys, dom, 200, 1.0, 6, kw.weight)
model = fit_koopman(ds, kw, RRRConfig(rank=20))
d = model.diagnostics
print(f"empirical risk {d.risk:.6f}, operator norm {d.op_norm:.6f}")
print(f"operator norm bound max_i (L 1)_i/(beta m) >= lambda_max(L)/(beta m): {d.norm_bound:.3f}")

est = build_lyapunov(model)
print(f"full series: {est.horizon} terms, tail bound {est.tail_bound:.3e} per unit |z|^2")

rng = np.random.default_rng(123)
radius = rng.uniform(0.5, 1.5, 100)
angle = rng.uniform(0.0, 2.0 * np.pi, 100)
pts = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
v_hat = lyapunov_values(est, pts)
v_true = np.sum(pts * pts, axis=1) / (1.0 - a * a)
rel = np.abs(v_hat - v_true) / v_true
print(f"mean relative error against the closed form: {rel.mean():.4f}")

heldout = make_dataset(sys, dom, 200, 1.0, 1006, kw.weight)
report = bound_report(model, delta=0.05, heldout=heldout)
print(f"held-out risk {report.heldout_risk:.6f}, plug-in alpha {report.alpha_plug:.4f}")
bound = lyapunov_error_bound(report.alpha_plug, 1.0, report.heldout_risk)
print(f"mean absolute error {np.abs(v_hat - v_true).mean():.4f} vs bound {bound:.4f}")
