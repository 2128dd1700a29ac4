"""Under- and over-fitting of a noisy recovery-probability series.

The single-qubit toy signal R(t) = cos^2(t) is sampled with Gaussian
noise; the minimax estimator is run with three noise weights r around the
balanced point r0.  Small r distrusts the data (under-fit), large r
chases it (over-fit).  The balanced fit also carries a worst-case
certificate for the reconstructed derivative.
"""

import numpy as np

import superkrylov as sk

T_STAR, DELTA_T, TAU, D, THETA = 0.5, 0.15, 1.0, 15, 1e-2

spec = sk.eigendecompose(np.diag([1.0, -1.0]))
v = np.ones(2) / np.sqrt(2)

grid = sk.sample_grid(T_STAR, DELTA_T, D)
y = sk.measure_series(spec, v, 0, 1, grid, THETA, seed=7)

x_in = np.array([1.0, 0.0, sk.recovery_derivative(spec, v, 0, 1, 0.0, 2)])
f_norm = sk.forcing_norm_sq(spec, v, 0, 1, TAU, order=len(x_in))
eta0 = sk.estimated_eta_norm_sq(D, THETA)

print(f"signal curvature at 0  {x_in[2]:+.4f}  (exactly -2 for cos^2)")
print(f"smoothness bound       {f_norm:.4f}")
print()

truth = -np.sin(2 * T_STAR)
# r = 1/(2 ||eta||^2), so ten times the noise bound gives r0/10
for tag, eta_scale in (("under-fit (r0/10)", 10.0),
                       ("balanced  (r0)  ", 1.0),
                       ("over-fit  (10r0)", 0.1)):
    budget = sk.NoiseBudget(f_norm, eta0 * eta_scale)
    model = sk.EstimatorModel(x_in, TAU, budget)
    fitted = sk.fit(model, grid, y)
    x1 = sk.evaluate_x1(fitted, T_STAR)
    x0 = np.array([sk.evaluate_x0(fitted, t) for t in grid])
    misfit = np.sum((y - x0) ** 2)
    print(f"{tag}: x1(t*) = {x1:+.5f}  (truth {truth:+.5f})  "
          f"data misfit = {misfit:.2e}")

budget = sk.NoiseBudget(f_norm, eta0)
model = sk.EstimatorModel(x_in, TAU, budget)
fitted = sk.fit(model, grid, y)
sigma = sk.error_certificate(model, grid, T_STAR, 1)
err = abs(sk.evaluate_x1(fitted, T_STAR) - truth)
print()
print(f"balanced-fit derivative error  {err:.2e}")
print(f"worst-case certificate sigma   {sigma:.2e}  (bound holds: "
      f"{sigma >= err})")
