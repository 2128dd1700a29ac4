import pytest

from superkrylov import SingularSystem, error_certificate, estimated_eta_norm_sq
from superkrylov.experiments import (
    ExperimentConfig,
    _fit_series,
    _scaling_cell,
    _theta_key,
    build_context,
)
from superkrylov.measurement import sample_grid


@pytest.mark.parametrize("theta", [0.0, 1e-4])
@pytest.mark.parametrize("M", [5, 6, 8])
def test_certificate_holds_with_high_order_initial_condition(M, theta):
    # x_in must carry every even derivative R^(p)(0) for p < M; with the
    # higher ones left at 0 the true signal lies outside the budget
    # ellipsoid and the worst-case bound fails
    cfg = ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25,
                           D=15, M=M, theta_values=[theta], master_seed=0)
    *_, abs_error, sigma = _scaling_cell(build_context(cfg), cfg, 15, theta, 0)
    assert abs_error <= sigma


def test_ill_conditioned_certificate_raises():
    # the noisy-convergence sweep at M = 6: at gap 15 the ridge system is so
    # ill-conditioned that rounding drives the certificate variance negative,
    # which must not be reported as sigma = 0
    theta, gap = 1e-4, 15
    cfg = ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25,
                           D=15, M=6, theta_values=[theta], eps_rule="m-theta",
                           master_seed=0)
    ctx = build_context(cfg)
    grid = sample_grid(ctx.t_star, ctx.delta_t, cfg.D)
    _, [f] = _fit_series(ctx, cfg, gap, grid, theta,
                         (1, _theta_key(theta), 0, gap),
                         [estimated_eta_norm_sq(cfg.D, theta)])
    with pytest.raises(SingularSystem, match="component 1"):
        error_certificate(f.model, grid, ctx.t_star, 1)
