"""Noise-free ground-energy convergence on a random spin chain.

Builds a 6-qubit Heisenberg chain, forms the exact projected pair
(J_hat, R_hat) at the optimal timestep, and watches the lowest Ritz value
converge to the true gap as the Krylov dimension m grows -- fast for a
large initial overlap, slower for a small one.
"""

import numpy as np

import superkrylov as sk

ham = sk.heisenberg_chain(6, seed=42)
spec = sk.eigendecompose(sk.assemble_dense(ham))
lam0, lam_top = spec.eigenvalues[0], spec.eigenvalues[-1]
t_star = sk.choose_timestep(spec)

print(f"exact ground energy   {lam0:+.8f}")
print(f"known top energy      {ham.top_energy:+.8f}")
print(f"Krylov timestep t*    {t_star:.6f}")
print()

for gamma0 in (0.05, 0.25, 0.5):
    v = sk.build_initial_state(spec, gamma0)
    print(f"initial overlap gamma0 = {gamma0}")
    for m in (2, 5, 10, 20, 30, 40):
        pair = sk.assemble_pair_exact(spec, v, m, t_star)
        result = sk.threshold_solve(pair, 1e-12 * m)
        estimate = sk.ground_energy(result, ham.class_tag, ham.top_energy)
        rel = abs(estimate - lam0) / abs(lam0)
        print(f"  m = {m:3d}   estimate = {estimate:+.8f}   "
              f"rel error = {rel:.2e}   kept = {result.kept_dim}")
    print()
