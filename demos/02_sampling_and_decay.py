"""Snapshot sampling and the contraction premise.

Certificates in this package rest on one measurable property of the data:
the weight must shrink along every sampled transition. The observed worst
ratio alpha_hat = max w(y_i)/w(x_i) is the empirical stand-in for that
premise, and everything downstream refuses to run when it fails.
"""

import numpy as np

from koopcert import (
    DomainSpec,
    SystemSpec,
    WeightSpec,
    check_decay_ratio,
    make_dataset,
    step,
    trajectory,
)

weight = WeightSpec(kind="norm-power", exponent=1.0)
sys = SystemSpec(kind="example1")
dom = DomainSpec.ball(2.0)

ds = make_dataset(sys, dom, 2000, 0.05, 42, weight)
print(f"sampled {len(ds)} pairs, {ds.rejected_count} rejected by the weight floor")

alpha = check_decay_ratio(ds.X, ds.Y, weight)
print(f"observed decay ratio alpha_hat = {alpha:.6f}")

# A single trajectory shows the slow mode: the state contracts at roughly
# alpha_hat per step once the fast direction has died out.
x0 = np.array([1.5, -1.0])
traj = trajectory(sys, x0, 0.05, 400)
norms = np.linalg.norm(traj, axis=1)
print(f"|x_0| = {norms[0]:.4f}, |x_100| = {norms[100]:.6f}, |x_400| = {norms[400]:.8f}")
print(f"per-step ratio late in the run: {norms[400] / norms[399]:.6f}")

# The same map pushed through one RK4 step agrees with the trajectory.
print(f"one-step check: {np.allclose(step(sys, x0, 0.05), traj[1])}")
