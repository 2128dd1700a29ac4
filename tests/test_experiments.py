import pytest

from superkrylov.experiments import ExperimentConfig, _scaling_cell, build_context


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
