"""Acceptance suite: one test per acceptance criterion, in order.

Each test prints a single PASS line (visible with -v via the test name,
and in captured output) and enforces its stated runtime budget.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm

import superkrylov as sk
from superkrylov.experiments import (
    ExperimentConfig,
    _convergence,
    _derivative_scaling,
    build_context,
)

from _bvp_oracle import certificate_oracle
from _phase_oracle import vectorized_commutator_matrix


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def toy_setup():
    """H = Z and the equal superposition: R_01(t) = cos^2(t)."""
    spec = sk.eigendecompose(np.diag([1.0, -1.0]))
    v = np.ones(2) / np.sqrt(2)
    return spec, v


TOY_T, TOY_DT, TOY_TAU = 0.5, 0.15, 1.0
TOY_X_IN = np.array([1.0, 0.0, -2.0])


def toy_fit(D, theta=0.0, rng=None, budget=None):
    spec, v = toy_setup()
    ts = sk.sample_grid(TOY_T, TOY_DT, D)
    y = np.cos(ts) ** 2
    eta = np.zeros(D)
    if theta > 0:
        eta = rng.normal(0, theta, D)
    if budget is None:
        f_norm = sk.forcing_norm_sq(spec, v, 0, 1, TOY_TAU, order=3)
        budget = sk.NoiseBudget(f_norm, float(eta @ eta))
    model = sk.EstimatorModel(TOY_X_IN, TOY_TAU, budget)
    return model, ts, sk.fit(model, ts, y + eta), eta


def report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_vectorization_identity():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for trial in range(20):
        n = int(rng.choice([2, 4, 8]))
        h = random_hermitian(rng, n)
        lam = np.linalg.eigvalsh(h)
        j_mat = vectorized_commutator_matrix(h)
        diffs = np.sort((lam[:, None] - lam[None, :]).ravel())
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(j_mat)), diffs,
                                   atol=1e-9)
        # the commutator propagator factorizes into forward/backward pair
        # evolutions: e^{-iktJ} = conj(U^k) (x) U^k with U = e^{-iHt}
        k = int(rng.integers(1, 4))
        t = float(rng.uniform(0.1, 1.0))
        left = expm(-1j * k * t * j_mat)
        uk = expm(-1j * k * t * h)
        right = np.kron(uk.conj(), uk)
        assert np.max(np.abs(left - right)) < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"vectorization spectrum + propagator factorization "
              f"(20 cases, {elapsed:.2f}s < 5s)")


def test_criterion_02_derivative_identity():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    h_step = 1e-5
    checked = 0
    while checked < 50:
        n = int(rng.choice([8, 16, 32, 64]))
        spec = sk.eigendecompose(random_hermitian(rng, n))
        v = random_state(rng, n)
        j, k = sorted(rng.choice(5, size=2, replace=False))
        t = float(rng.uniform(0.2, 1.0))
        val = (1j * (j - k) * sk.exact_J_entry(spec, v, j, k, t)).real
        if abs(val) < 1e-2:
            continue  # relative error is meaningless near the zeros of dR/dt
        fd = (sk.recovery_probability(spec, v, j, k, t + h_step)
              - sk.recovery_probability(spec, v, j, k, t - h_step)) / (2 * h_step)
        assert abs(fd - val) / abs(val) < 1e-5
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, f"dR/dt = i(j-k)J_jk vs central differences "
              f"(50 cases, {elapsed:.2f}s < 10s)")


def test_criterion_03_toy_closed_form():
    spec, v = toy_setup()
    for t in np.linspace(0.0, 1.0, 101):
        r = sk.recovery_probability(spec, v, 0, 1, t)
        dr = (1j * (0 - 1) * sk.exact_J_entry(spec, v, 0, 1, t)).real
        assert abs(r - np.cos(t) ** 2) < 1e-12
        assert abs(dr - (-np.sin(2 * t))) < 1e-12
    report(3, "single-qubit closed form R=cos^2(t), dR/dt=-sin(2t) to 1e-12")


def test_criterion_04_class_properties():
    rng = np.random.default_rng(404)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        take = rng.choice(len(pairs), size=min(len(pairs), n), replace=False)
        couplings = {pairs[i]: float(rng.uniform(0, 1)) for i in take}
        ham = sk.build_heisenberg(n, couplings)
        lam_max = np.linalg.eigvalsh(sk.assemble_dense(ham))[-1]
        assert abs(lam_max - ham.top_energy) < 1e-9
    for _ in range(20):
        nps = int(rng.integers(1, 4))
        jy = {(i, nps + j): float(rng.uniform(-1, 1))
              for i in range(nps) for j in range(nps)}
        jz = {e: float(rng.uniform(-1, 1)) for e in jy}
        hx = {v_: float(rng.uniform(-1, 1)) for v_ in range(2 * nps)}
        ham = sk.build_bipartite(nps, jy, jz, hx)
        lam = np.sort(np.linalg.eigvalsh(sk.assemble_dense(ham)))
        np.testing.assert_allclose(lam, -lam[::-1], atol=1e-10)
    report(4, "known-top max eigenvalue (20 cases) and symmetric spectra "
              "(20 cases)")


def test_criterion_05_kernel_unit_value_and_psd():
    budget = sk.NoiseBudget(0.5, 0.5)
    model = sk.EstimatorModel(TOY_X_IN, 2.0, budget)
    k_mat = sk.kernel_matrix(model, np.array([1.0]))
    assert abs(k_mat[0, 0] - (1 + 1 / 3 + 1 / 20)) < 1e-12
    rng = np.random.default_rng(505)
    for _ in range(20):
        ts = np.sort(rng.uniform(0.05, 1.9, size=int(rng.integers(4, 12))))
        ts = ts + np.arange(ts.size) * 1e-9  # break exact ties
        eig_min = np.linalg.eigvalsh(sk.kernel_matrix(model, ts))[0]
        assert eig_min >= -1e-12
    report(5, "K_ii(t=1) = 1.3833... to 1e-12; PSD on 20 random grids")


def test_criterion_06_derivative_estimation_regime():
    start = time.monotonic()
    # zero-noise consistency on the toy problem
    zero_budget = None
    errs = []
    for D in (5, 10, 20, 40):
        _, _, f, _ = toy_fit(D, budget=zero_budget)
        errs.append(abs(sk.evaluate_x1(f, TOY_T) - (-np.sin(2 * TOY_T))))
    assert all(a > b for a, b in zip(errs, errs[1:])), errs
    assert errs[-1] < 1e-3
    # noise-floor ordering on the 64-dimensional spin chain
    cfg = ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25,
                           d_values=[5, 10, 20, 40, 80],
                           theta_values=[1e-3, 1e-2], trials=30, master_seed=0)
    [(_, _, rows)] = _derivative_scaling(build_context(cfg), cfg)
    # the summary rows (trial = -1) hold each (D, theta)'s mean error
    floors = {theta: min(r[3] for r in rows if r[1] == theta and r[2] == -1)
              for theta in cfg.theta_values}
    ratio = floors[1e-2] / floors[1e-3]
    assert 2.0 <= ratio <= 50.0, floors
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, f"zero-noise errors strictly decreasing {['%.1e' % e for e in errs]}; "
              f"noise floors ratio {ratio:.1f} in [2, 50] ({elapsed:.1f}s < 120s)")


def test_criterion_07_certificate_soundness_and_oracle():
    spec, v = toy_setup()
    truth = -np.sin(2 * TOY_T)
    f_norm = sk.forcing_norm_sq(spec, v, 0, 1, TOY_TAU, order=3)
    # exact-norm budgets: the bound must hold in every trial
    rng = np.random.default_rng(707)
    for theta, trials in ((1e-3, 50), (1e-2, 50)):
        for _ in range(trials):
            model, ts, f, eta = toy_fit(15, theta=theta, rng=rng)
            err = abs(sk.evaluate_x1(f, TOY_T) - truth)
            sigma = sk.error_certificate(model, ts, TOY_T, 1)
            assert sigma >= err
    # estimated budgets: allow the chi-square tail to break at most 5 trials
    rng = np.random.default_rng(708)
    sound = 0
    for _ in range(100):
        budget = sk.NoiseBudget(f_norm, sk.estimated_eta_norm_sq(15, 1e-3))
        model, ts, f, _ = toy_fit(15, theta=1e-3, rng=rng, budget=budget)
        err = abs(sk.evaluate_x1(f, TOY_T) - truth)
        sound += sk.error_certificate(model, ts, TOY_T, 1) >= err
    assert sound >= 95
    # closed-form certificate vs the independent dense boundary-value solve
    rng = np.random.default_rng(709)
    worst = 0.0
    for _ in range(10):
        D = int(rng.integers(6, 14))
        ts = np.sort(rng.uniform(0.15, 0.85, size=D))
        ts = ts + np.arange(D) * 1e-6
        q = float(10.0 ** rng.uniform(-1.5, 0.5))
        r = float(10.0 ** rng.uniform(0.0, 2.0))
        comp = int(rng.integers(0, 2))
        t_eval = float(rng.uniform(0.2, 0.8))
        budget = sk.NoiseBudget(1 / (2 * q), 1 / (2 * r))
        model = sk.EstimatorModel(TOY_X_IN, TOY_TAU, budget)
        sigma = sk.error_certificate(model, ts, t_eval, comp)
        oracle = certificate_oracle(ts, q, r, TOY_TAU, t_eval, comp,
                                    n_cells=2000)
        worst = max(worst, abs(sigma - oracle) / oracle)
    assert worst < 0.01
    report(7, f"soundness 100/100 exact budgets, {sound}/100 estimated; "
              f"oracle mismatch max {worst:.2e} < 1%")


def test_criterion_08_noise_free_end_to_end():
    start = time.monotonic()
    ham = sk.heisenberg_chain(6, seed=42)
    spec = sk.eigendecompose(sk.assemble_dense(ham))
    lam0 = float(spec.eigenvalues[0])
    t_star = sk.choose_timestep(spec)

    def error_curve(gamma0, m_max=40):
        v = sk.build_initial_state(spec, gamma0)
        errs = []
        for m in range(2, m_max + 1):
            pair = sk.assemble_pair_exact(spec, v, m, t_star)
            res = sk.threshold_solve(pair, 1e-12 * m)
            est = sk.ground_energy(res, ham)
            errs.append(abs(est - lam0) / abs(lam0))
        return np.array(errs)

    errs = error_curve(0.5)
    hit = np.argmax(errs < 1e-6)
    assert errs[hit] < 1e-6
    assert all(errs[i + 1] <= errs[i] * (1 + 1e-9) for i in range(hit))
    m_needed = []
    for gamma0 in (0.05, 0.25, 0.5):
        curve = error_curve(gamma0)
        below = np.nonzero(curve < 1e-3)[0]
        assert below.size > 0
        m_needed.append(2 + int(below[0]))
    assert all(a >= b for a, b in zip(m_needed, m_needed[1:]))
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(8, f"exact pipeline < 1e-6 at m={2 + int(hit)}, nonincreasing; "
              f"m to 1e-3 per overlap {m_needed} ({elapsed:.1f}s < 60s)")


def test_criterion_09_noisy_end_to_end():
    start = time.monotonic()
    cfg = ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25,
                           m_values=list(range(2, 31)),
                           theta_values=[1e-4, 1e-3], D=15, M=3,
                           eps_rule="m-theta", trials=10, master_seed=0)
    [(_, _, rows)] = _convergence(build_context(cfg), cfg)
    # rel_error at the largest m, one row per trial
    medians = {theta: float(np.median([r[6] for r in rows if r[1] == theta
                                       and r[0] == max(cfg.m_values)]))
               for theta in cfg.theta_values}
    assert medians[1e-4] <= medians[1e-3]
    assert medians[1e-4] < 1e-2
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(9, f"median final errors {medians[1e-4]:.1e} (1e-4) <= "
              f"{medians[1e-3]:.1e} (1e-3), below 1e-2 ({elapsed:.1f}s < 600s)")


def test_criterion_10_thresholding_behaviour():
    ham = sk.heisenberg_chain(4, seed=42)
    spec = sk.eigendecompose(sk.assemble_dense(ham))
    v = sk.build_initial_state(spec, 0.5)
    # zero timestep: the Gram matrix is the all-ones rank-1 matrix
    pair = sk.assemble_pair_exact(spec, v, 5, 0.0)
    res = sk.threshold_solve(pair, 1e-12 * 5)
    assert res.kept_dim == 1
    assert abs(res.ground_gap) < 1e-12
    with pytest.raises(sk.AllModesThresholded):
        sk.threshold_solve(pair, float(pair.m) + 1.0)
    report(10, "rank-1 Gram handled (kept_dim=1, gap 0); "
               "over-thresholding raises")


def test_criterion_11_determinism(tmp_path):
    from superkrylov.cli import main

    cfg_text = (
        "model = heisenberg\nn = 4\nmodel_seed = 42\ngamma0 = 0.25\n"
        "m_values = 2,4,6\ntheta_values = 0.001\nD = 10\ntrials = 2\n"
        "master_seed = 5\n"
    )
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text(cfg_text)
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["convergence", "--config", str(cfg_file),
                     "--out", str(out)]) == 0
        outputs.append((out / "convergence.csv").read_bytes())
    assert outputs[0] == outputs[1]
    report(11, "rerun with identical config + seed is byte-identical")
