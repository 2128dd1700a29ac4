"""Config-driven experiment runners emitting CSV tables and run manifests.

``run(command, config)`` wires the full pipeline -- Hamiltonian assembly,
exact diagonalization reference, (noisy) recovery-probability
measurement, minimax fitting, pair assembly, thresholded eigensolve --
for one family of sweeps, the ``COMMANDS`` entry of that name:

* ``convergence``: ground-energy error versus Krylov dimension m, for one
  or more noise levels theta.
* ``deriv-scaling``: pointwise derivative error and certificate versus
  the number of datapoints D.
* ``minimax-demo``: dense traces of the exact signal, noisy samples, and
  reconstructions under three noise-weight choices (under-fit, balanced,
  over-fit).
* ``gram``: dump of the exact (and, with noise, estimated) projected
  matrices.

All floating output is formatted with 17 significant digits so reruns
with identical config and seed are byte-identical.
"""

from __future__ import annotations

import json
import os
import math
import time
import typing
from dataclasses import dataclass, field, asdict

import numpy as np

from .dynamics import (
    build_initial_state,
    eigendecompose,
    recovery_derivative,
    recovery_probability,
)
from .errors import ConfigParse
from .measurement import (
    estimated_eta_norm_sq,
    forcing_norm_sq,
    measure_series,
    sample_grid,
    select_qr,
)
from .minimax import (
    EstimatorModel,
    error_certificate,
    evaluate_x0,
    evaluate_x1,
    fit,
)
from .pauli import (
    MAX_QUBITS_DENSE,
    assemble_dense,
    build_bipartite,
    heisenberg_chain,
)
from .solver import (
    KrylovPair,
    assemble_pair_exact,
    assemble_pair_minimax,
    choose_timestep,
    ground_energy,
    noise_rate,
    threshold_solve,
)

SCHEMA_VERSION = 1
# Gram threshold per Krylov dimension for noise-free data: eps = 1e-12 m.
NOISE_FREE_EPS_PER_M = 1e-12


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters (defaults are desk scale: n=6)."""

    model: str = "heisenberg"
    n: int = 6
    model_seed: int = 42
    gamma0: float = 0.25
    m_values: list[int] = field(default_factory=lambda: list(range(2, 31)))
    theta_values: list[float] = field(default_factory=lambda: [0.0])
    D: int = 15
    d_values: list[int] = field(default_factory=lambda: [5, 10, 20, 40])
    M: int = 3
    delta_t_fraction: float = 0.15
    # auto | m-theta | fixed.  m-theta gives the same threshold as auto on
    # every config validate accepts (all theta > 0); it stays because the
    # benchmark's noisy-convergence workload config sets it.
    eps_rule: str = "auto"
    eps_fixed: float = 0.0
    trials: int = 1
    master_seed: int = 0
    out: str = "."

    def validate(self):
        if self.model not in ("heisenberg", "bipartite"):
            raise ConfigParse(f"unknown model {self.model!r}")
        if not self.m_values or not self.theta_values or not self.d_values:
            raise ConfigParse("m_values, theta_values, d_values must be nonempty")
        if not 0.0 < self.gamma0 <= 0.5:
            raise ConfigParse("gamma0 must lie in (0, 0.5]")
        if self.eps_rule not in ("auto", "m-theta", "fixed"):
            raise ConfigParse(f"unknown eps_rule {self.eps_rule!r}")
        if self.trials < 1 or self.D < 2 or self.M < 2:
            raise ConfigParse("trials >= 1, D >= 2, M >= 2 required")
        if self.n < (2 if self.model == "heisenberg" else 1):
            raise ConfigParse("n must be >= 2 (heisenberg) or >= 1 (bipartite)")
        qubits = self.n if self.model == "heisenberg" else 2 * self.n
        if qubits > MAX_QUBITS_DENSE:
            raise ConfigParse(
                f"{qubits} qubits exceed the dense cap {MAX_QUBITS_DENSE}")
        if self.model_seed < 0 or self.master_seed < 0:
            raise ConfigParse("model_seed and master_seed must be nonnegative")
        if not (math.isfinite(self.eps_fixed) and self.eps_fixed >= 0):
            raise ConfigParse("eps_fixed must be finite and nonnegative")
        # a threshold below the noise-free floor keeps the numerically
        # null Gram modes
        floor = NOISE_FREE_EPS_PER_M * max(self.m_values)
        if self.eps_rule == "fixed" and self.eps_fixed < floor:
            raise ConfigParse(
                f"eps_rule = fixed needs eps_fixed >= {floor:g}, the "
                "noise-free floor at the largest m")
        if min(self.m_values) < 2 or min(self.d_values) < 2:
            raise ConfigParse("m_values and d_values entries must be >= 2")
        if not all(math.isfinite(t) and t >= 0 for t in self.theta_values):
            raise ConfigParse("theta_values must be finite and nonnegative")
        if self.eps_rule == "m-theta" and 0.0 in self.theta_values:
            raise ConfigParse("eps_rule = m-theta needs every theta > 0")
        if not 0.0 < self.delta_t_fraction < 1.0:
            raise ConfigParse("delta_t_fraction must lie in (0, 1)")
        return self


def parse_config(path: str) -> ExperimentConfig:
    """Read a ``key = value`` config file (comma-separated lists, # comments).

    Each key's type is its ``ExperimentConfig`` annotation.
    """
    cfg = ExperimentConfig()
    types = typing.get_type_hints(ExperimentConfig)
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParse(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise ConfigParse(f"{path}:{lineno}: unknown key {key!r}")
        kind = types[key]
        try:
            if typing.get_origin(kind) is list:
                [item] = typing.get_args(kind)
                setattr(cfg, key, [item(x) for x in val.split(",") if x.strip()])
            else:
                setattr(cfg, key, kind(val))
        except ValueError as exc:
            raise ConfigParse(f"{path}:{lineno}: bad value for {key}") from exc
    return cfg.validate()


@dataclass(frozen=True)
class PipelineContext:
    """Diagonalized model plus reference quantities shared by all cells."""

    spec: object
    v: np.ndarray
    lam0: float
    class_tag: object
    top_energy: float | None
    t_star: float
    delta_t: float
    tau: float


def build_context(config: ExperimentConfig) -> PipelineContext:
    """Assemble, diagonalize, and fix the timestep and measurement window."""
    if config.model == "heisenberg":
        ham = heisenberg_chain(config.n, seed=config.model_seed)
    else:
        rng = np.random.default_rng(config.model_seed)
        npair = config.n
        edges = {(i, npair + i): float(rng.uniform(0, 1)) for i in range(npair)}
        jz = {e: float(rng.uniform(0, 1)) for e in edges}
        h = {i: float(rng.uniform(0, 1)) for i in range(2 * npair)}
        ham = build_bipartite(npair, edges, jz, h)
    spec = eigendecompose(assemble_dense(ham))
    v = build_initial_state(spec, config.gamma0)
    width_j = 2.0 * spec.spectral_width
    t_star = choose_timestep(width_j)
    delta_t = config.delta_t_fraction * t_star
    tau = 1.5 * (t_star + delta_t)
    return PipelineContext(
        spec=spec, v=v, lam0=float(spec.eigenvalues[0]),
        class_tag=ham.class_tag, top_energy=ham.top_energy,
        t_star=t_star, delta_t=delta_t, tau=tau,
    )


def _theta_key(theta: float) -> int:
    return int(np.float64(theta).view(np.uint64))


def _cell_seed(master_seed: int, *parts) -> np.random.SeedSequence:
    return np.random.SeedSequence((int(master_seed),) + tuple(int(p) for p in parts))


def _eps(config: ExperimentConfig, m: int, theta: float) -> float:
    if config.eps_rule == "fixed":
        return config.eps_fixed
    return NOISE_FREE_EPS_PER_M * m if theta == 0.0 else m * theta


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _fit_series(ctx: PipelineContext, config: ExperimentConfig, gap: int,
                grid: np.ndarray, theta: float, seed_parts: tuple,
                eta_bounds: list) -> tuple:
    """Measure one seeded noisy series of R_{0,gap} on the grid and fit it
    once per noise bound ||eta||^2; returns the series and the fits.

    The initial condition x_in and the forcing norm are computed once and
    shared; only the budget's r differs between the fits' models.
    """
    seed = np.random.default_rng(_cell_seed(config.master_seed, *seed_parts))
    series = measure_series(ctx.spec, ctx.v, 0, gap, grid, theta, seed=seed)
    x_in = np.zeros(config.M)
    x_in[0] = 1.0
    # R is even in t, so its odd derivatives vanish at 0
    for p in range(2, config.M, 2):
        x_in[p] = recovery_derivative(ctx.spec, ctx.v, 0, gap, 0.0, p)
    f_norm = forcing_norm_sq(ctx.spec, ctx.v, 0, gap, ctx.tau, order=config.M)
    fits = [fit(EstimatorModel(config.M, x_in, ctx.tau, select_qr(f_norm, eta)),
                series) for eta in eta_bounds]
    return series, fits


def _fit_gaps(ctx: PipelineContext, config: ExperimentConfig, theta: float,
              trial: int, m_max: int) -> dict:
    """One minimax fit per index gap, on a freshly sampled noisy series."""
    grid = sample_grid(ctx.t_star, ctx.delta_t, config.D)
    eta_bound = estimated_eta_norm_sq(config.D, theta)
    fits = {}
    for gap in range(1, m_max):
        _, [fits[gap]] = _fit_series(ctx, config, gap, grid, theta,
                                     (1, _theta_key(theta), trial, gap),
                                     [eta_bound])
    return fits


def _convergence_cell(ctx: PipelineContext, config: ExperimentConfig,
                      theta: float, trial: int) -> list[tuple]:
    m_max = max(config.m_values)
    exact_full = assemble_pair_exact(ctx.spec, ctx.v, m_max, ctx.t_star)
    fits = None if theta == 0.0 else _fit_gaps(ctx, config, theta, trial, m_max)
    j_norm = 2.0 * ctx.spec.spectral_width
    rows = []
    for m in sorted(config.m_values):
        # leading principal submatrices of the m_max pair are the m-pair
        exact_m = KrylovPair(m=m, R_hat=exact_full.R_hat[:m, :m],
                             J_hat=exact_full.J_hat[:m, :m])
        if theta == 0.0:
            pair = exact_m
            omega = 0.0
        else:
            pair = assemble_pair_minimax(fits, m, ctx.t_star)
            omega = noise_rate(pair, exact_m, j_norm)
        result = threshold_solve(pair, _eps(config, m, theta))
        estimate = ground_energy(result, ctx.class_tag,
                                 top_energy=ctx.top_energy)
        rel_error = abs(estimate - ctx.lam0) / abs(ctx.lam0)
        rows.append((m, theta, config.gamma0, trial, result.ground_gap,
                     estimate, rel_error, omega, result.kept_dim))
    return rows


def _convergence(ctx: PipelineContext, config: ExperimentConfig) -> list:
    """Ground-energy error versus Krylov dimension m, per noise level."""
    rows = [row for theta in config.theta_values
            for trial in range(config.trials)
            for row in _convergence_cell(ctx, config, theta, trial)]
    header = ["m", "theta", "gamma0", "trial", "delta0_prime", "estimate",
              "rel_error", "omega", "kept_dim"]
    return [("convergence.csv", header, rows)]


def _scaling_cell(ctx: PipelineContext, config: ExperimentConfig,
                  D: int, theta: float, trial: int) -> tuple:
    gap = 1
    grid = sample_grid(ctx.t_star, ctx.delta_t, D)
    _, [f] = _fit_series(ctx, config, gap, grid, theta,
                         (2, _theta_key(theta), trial, D),
                         [estimated_eta_norm_sq(D, theta)])
    truth = recovery_derivative(ctx.spec, ctx.v, 0, gap, ctx.t_star, 1)
    abs_error = abs(evaluate_x1(f, ctx.t_star) - truth)
    sigma = error_certificate(f.model, grid, ctx.t_star, 1)
    return (D, theta, trial, abs_error, sigma)


def _derivative_scaling(ctx: PipelineContext, config: ExperimentConfig) -> list:
    """Derivative error and certificate versus datapoint count D.

    Per-trial rows are followed by summary rows (trial = -1) holding the
    trial-averaged error and certificate for each (D, theta).
    """
    rows = [_scaling_cell(ctx, config, D, theta, trial)
            for D in config.d_values
            for theta in config.theta_values
            for trial in range(config.trials)]
    summary = []
    for D in config.d_values:
        for theta in config.theta_values:
            sel = [r for r in rows if r[0] == D and r[1] == theta]
            summary.append((D, theta, -1,
                            float(np.mean([r[3] for r in sel])),
                            float(np.mean([r[4] for r in sel]))))
    header = ["D", "theta", "trial", "abs_error", "sigma_certificate"]
    return [("deriv_scaling.csv", header, rows + summary)]


def _minimax_demo(ctx: PipelineContext, config: ExperimentConfig) -> list:
    """Under-, balanced and over-fitted traces with derivative certificates.

    The r sweep {r0/10, r0, 10 r0} with fixed q shows under-, balanced,
    and over-fitting; the derivative reconstruction at the balanced point
    is accompanied by its worst-case certificate on a dense time grid.
    The data carry the largest noise level, max(theta_values).
    """
    gap = 1
    theta = max(config.theta_values)
    grid = sample_grid(ctx.t_star, ctx.delta_t, config.D)
    eta0 = estimated_eta_norm_sq(config.D, theta)
    # the r variants come from scaled noise bounds so each budget stays valid
    series, [fit_low, fit0, fit_high] = _fit_series(
        ctx, config, gap, grid, theta, (3, _theta_key(theta), 0, gap),
        [10.0 * eta0, eta0, 0.1 * eta0])
    dense = np.linspace(0.0, ctx.tau, 201)
    exact_r = recovery_probability(ctx.spec, ctx.v, 0, gap, dense)
    exact_dr = recovery_derivative(ctx.spec, ctx.v, 0, gap, dense, 1)
    rows = []
    for t, r, dr in zip(dense.tolist(), exact_r.tolist(), exact_dr.tolist()):
        rows.append((
            t, r, dr,
            evaluate_x0(fit_low, t),
            evaluate_x0(fit0, t),
            evaluate_x0(fit_high, t),
            evaluate_x1(fit0, t),
            error_certificate(fit0.model, grid, t, 1),
        ))
    header = ["t", "exact_R", "exact_dR", "xhat0_rlow", "xhat0_r0",
              "xhat0_rhigh", "xhat1", "sigma"]
    points = [(float(t), float(y)) for t, y in zip(grid, series.values)]
    return [("minimax_demo.csv", header, rows),
            ("minimax_demo_points.csv", ["t", "y"], points)]


def _gram(ctx: PipelineContext, config: ExperimentConfig) -> list:
    """Projected pair matrices, exact and (with noise) estimated.

    The estimated pair is fitted at the largest noise level, max(theta_values).
    """
    m = max(config.m_values)
    pairs = {"exact": assemble_pair_exact(ctx.spec, ctx.v, m, ctx.t_star)}
    theta = max(config.theta_values)
    if theta > 0:
        fits = _fit_gaps(ctx, config, theta, 0, m)
        pairs["minimax"] = assemble_pair_minimax(fits, m, ctx.t_star)
    rows = []
    for source, pair in pairs.items():
        for j in range(m):
            for k in range(m):
                rows.append((
                    source, j, k,
                    float(pair.R_hat[j, k].real), float(pair.R_hat[j, k].imag),
                    float(pair.J_hat[j, k].real), float(pair.J_hat[j, k].imag),
                ))
    header = ["source", "row", "col", "R_re", "R_im", "J_re", "J_im"]
    return [("gram.csv", header, rows)]


# subcommand -> runner (ctx, config) -> [(csv_name, header, rows), ...]
COMMANDS = {
    "convergence": _convergence,
    "deriv-scaling": _derivative_scaling,
    "minimax-demo": _minimax_demo,
    "gram": _gram,
}


def run(command: str, config: ExperimentConfig) -> str:
    """Run one ``COMMANDS`` entry and write its CSV tables and manifest.

    Returns the first table's path; the manifest counts its records.  An
    output directory that cannot be created raises ``ConfigParse`` before
    any cell is computed.
    """
    start = time.time()
    config.validate()
    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        raise ConfigParse(
            f"cannot write output directory {config.out!r}: {exc}") from exc
    tables = COMMANDS[command](build_context(config), config)
    paths = []
    for name, header, rows in tables:
        path = os.path.join(config.out, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        paths.append(path)
    manifest = {"schema_version": SCHEMA_VERSION, "command": command,
                "config": asdict(config), "outputs": paths,
                "n_records": len(tables[0][2]),
                "wall_time_s": round(time.time() - start, 3)}
    with open(os.path.join(config.out, f"{command}_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths[0]
