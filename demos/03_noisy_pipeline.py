"""End-to-end noisy ground-energy estimation.

Measures noisy recovery-probability series for every index gap, fits each
with the minimax estimator, assembles the projected pair from the fitted
values and derivatives at t*, and solves the thresholded eigenproblem for
a range of Krylov dimensions.  The noise rate omega tracks how far the
estimated pair sits from the exact one.
"""

import numpy as np

import superkrylov as sk

THETA, D, M_MAX, GAMMA0 = 1e-3, 15, 20, 0.25

ham = sk.heisenberg_chain(6, seed=42)
spec = sk.eigendecompose(sk.assemble_dense(ham))
v = sk.build_initial_state(spec, GAMMA0)
lam0 = spec.eigenvalues[0]
t_star = sk.choose_timestep(spec)
delta_t = 0.15 * t_star
tau = 1.5 * (t_star + delta_t)
grid = sk.sample_grid(t_star, delta_t, D)

fits = []  # fits[g - 1] is the fit for gap g
for gap in range(1, M_MAX):
    y = sk.measure_series(spec, v, 0, gap, grid, THETA, seed=1000 + gap)
    x_in = np.array([1.0, 0.0, sk.recovery_derivative(spec, v, 0, gap, 0.0, 2)])
    budget = sk.NoiseBudget(
        sk.forcing_norm_sq(spec, v, 0, gap, tau, order=len(x_in)),
        sk.estimated_eta_norm_sq(D, THETA),
    )
    model = sk.EstimatorModel(x_in, tau, budget)
    fits.append(sk.fit(model, grid, y))

j_norm = 2 * spec.spectral_width
print(f"theta = {THETA}, D = {D}, gamma0 = {GAMMA0}")
print(f"{'m':>4} {'estimate':>12} {'rel error':>10} {'omega':>9} {'kept':>5}")
for m in (2, 5, 10, 15, 20):
    pair = sk.assemble_pair_minimax(fits[:m - 1], t_star)
    exact = sk.assemble_pair_exact(spec, v, m, t_star)
    omega = sk.noise_rate(pair, exact, j_norm)
    result = sk.threshold_solve(pair, m * THETA)
    estimate = sk.ground_energy(result, ham.class_tag, ham.top_energy)
    rel = abs(estimate - lam0) / abs(lam0)
    print(f"{m:>4} {estimate:>12.6f} {rel:>10.2e} {omega:>9.2e} "
          f"{result.kept_dim:>5}")
print(f"\nexact ground energy {lam0:+.6f}")
