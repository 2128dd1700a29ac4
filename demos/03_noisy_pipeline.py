"""End-to-end noisy ground-energy estimation.

Measures noisy recovery-probability series for every index gap, fits each
with the minimax estimator, assembles the projected pair from the fitted
values and derivatives at t*, and solves the thresholded eigenproblem for
a range of Krylov dimensions.  The noise rate omega tracks how far the
estimated pair sits from the exact one.
"""

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

gaps = range(1, M_MAX)
models = sk.GapModels(spec, v, tau, M=3).models(
    gaps, [sk.estimated_eta_norm_sq(D, THETA)])
fits = []  # fits[g - 1] is the fit for gap g
for gap, model in zip(gaps, models):
    y = sk.measure_series(spec, v, 0, gap, grid, THETA, seed=1000 + gap)
    fits.append(sk.fit(model, grid, y))

print(f"theta = {THETA}, D = {D}, gamma0 = {GAMMA0}")
print(f"{'m':>4} {'estimate':>12} {'rel error':>10} {'omega':>9} {'kept':>5}")
for m in (2, 5, 10, 15, 20):
    pair = sk.assemble_pair_minimax(fits[:m - 1], t_star)
    exact = sk.assemble_pair_exact(spec, v, m, t_star)
    omega = sk.noise_rate(pair, exact, spec)
    result = sk.threshold_solve(pair, m * THETA)
    estimate = sk.ground_energy(result, ham)
    rel = abs(estimate - lam0) / abs(lam0)
    print(f"{m:>4} {estimate:>12.6f} {rel:>10.2e} {omega:>9.2e} "
          f"{result.kept_dim:>5}")
print(f"\nexact ground energy {lam0:+.6f}")
