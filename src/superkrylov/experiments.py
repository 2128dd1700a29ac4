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

Every runner measures and fits a list of gaps in two parts:
``_exact_data``, once per D, builds the D-point grid and evaluates what
no noise level or trial changes, and ``_fit_noisy``, once per cell, adds
the seeded noise (``measurement._noisy_series``) and fits every gap in
one stacked ridge solve (``minimax.fit_batch``), its fits flat.
``convergence`` and ``gram`` pass the gaps 1..m_max - 1, ``deriv-scaling``
gap 1 on one grid per D, and ``minimax-demo`` gap 1 with three budgets.

All floating output is formatted with 17 significant digits so reruns
with identical config and seed are byte-identical.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .dynamics import (
    SpectralDecomposition,
    _F,
    _is_integer,
    build_initial_state,
    eigenbasis_weights,
    eigendecompose,
    recovery_derivative,
    recovery_probability,
    spectral_measure,
)
from .errors import ConfigParse, SuperKrylovError
from .measurement import (
    NoiseBudget,
    _noisy_series,
    estimated_eta_norm_sq,
    forcing_norm_sq,
    sample_grid,
)
from .minimax import (
    MAX_CHAIN_ORDER,
    EstimatorModel,
    error_certificate,
    evaluate_x0,
    evaluate_x1,
    fit_batch,
)
from .pauli import (
    MAX_QUBITS_DENSE,
    HamiltonianClass,
    PauliHamiltonian,
    assemble_dense,
    build_bipartite,
    heisenberg_chain,
    qubit_factors,
)
from .solver import (
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


# a config key's kind: its value test, its name in errors, its text parser
_Kind = collections.namedtuple("_Kind", "accepts noun parse")


def _list_of(item: _Kind, noun: str) -> _Kind:
    # a repeated entry would read as an independent trial or cell
    return _Kind(
        lambda xs: (isinstance(xs, (list, tuple)) and len(xs) > 0
                    and all(map(item.accepts, xs)) and len(set(xs)) == len(xs)),
        f"a nonempty list of distinct {noun}",
        lambda text: [item.parse(x) for x in text.split(",") if x.strip()])


# numpy's integers and reals count, a bool is neither, and a real is finite
INTEGER = _Kind(_is_integer, "an integer", int)
REAL = _Kind(lambda x: isinstance(x, numbers.Real) and not isinstance(x, bool)
             and math.isfinite(x), "a finite real number", float)
STRING = _Kind(lambda x: isinstance(x, str), "a string", str)
INTEGERS = _list_of(INTEGER, "integers")
REALS = _list_of(REAL, "finite real numbers")


def _setting(default, kind: _Kind, ok=None, rule: str = ""):
    """The field of one config key: its default, kind, range test and rule."""
    meta = {"setting": (kind, ok, rule)}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=meta)
    return field(default=default, metadata=meta)


def _at_least(lo: int) -> tuple:
    return (lambda x: x >= lo), f"be >= {lo}"


def _one_of(*names: str) -> tuple:
    return (lambda x: x in names), "be one of " + ", ".join(names)


@dataclass
class ExperimentConfig:
    """Resolved experiment parameters (defaults are desk scale: n=6).

    Each field declares one config key's default, kind and range (of its
    value, or of each entry of a list) through ``_setting``; ``validate``
    checks every key against its declaration, then the rules that span keys.
    """

    model: str = _setting("heisenberg", STRING, *_one_of("heisenberg", "bipartite"))
    n: int = _setting(6, INTEGER, *_at_least(1))
    model_seed: int = _setting(42, INTEGER, *_at_least(0))
    gamma0: float = _setting(0.25, REAL, lambda x: 0.0 < x <= 0.5,
                             "lie in (0, 0.5]")
    m_values: list[int] = _setting(list(range(2, 31)), INTEGERS, *_at_least(2))
    theta_values: list[float] = _setting([0.0], REALS, *_at_least(0))
    D: int = _setting(15, INTEGER, *_at_least(2))
    d_values: list[int] = _setting([5, 10, 20, 40], INTEGERS, *_at_least(2))
    M: int = _setting(3, INTEGER, lambda x: 2 <= x <= MAX_CHAIN_ORDER,
                      f"lie in [2, {MAX_CHAIN_ORDER}]")
    delta_t_fraction: float = _setting(0.15, REAL, lambda x: 0.0 < x < 1.0,
                                       "lie in (0, 1)")
    # m-theta gives the same threshold as auto on every config validate
    # accepts (all theta > 0); it stays because the benchmark's
    # noisy-convergence workload config sets it.
    eps_rule: str = _setting("auto", STRING, *_one_of("auto", "m-theta", "fixed"))
    eps_fixed: float = _setting(0.0, REAL, *_at_least(0))
    trials: int = _setting(1, INTEGER, *_at_least(1))
    master_seed: int = _setting(0, INTEGER, *_at_least(0))
    out: str = _setting(".", STRING)

    def validate(self):
        # the kind first: a string or None would fail a range test with a
        # bare TypeError, and a float seed would be truncated
        for key, (kind, ok, rule) in _SETTINGS.items():
            value = getattr(self, key)
            if not kind.accepts(value):
                raise ConfigParse(f"{key} must be {kind.noun}, not {value!r}")
            entries = value if isinstance(value, (list, tuple)) else [value]
            if ok is not None and not all(map(ok, entries)):
                raise ConfigParse(f"{key} must {rule}, not {value!r}")
        # a chain needs two sites; the dense cap bounds both models
        qubits = self.n if self.model == "heisenberg" else 2 * self.n
        if not 2 <= qubits <= MAX_QUBITS_DENSE:
            raise ConfigParse(f"n = {self.n} gives {qubits} qubits; the "
                              f"{self.model} model needs 2 to {MAX_QUBITS_DENSE}")
        # a threshold below the noise-free floor keeps the numerically
        # null Gram modes
        floor = NOISE_FREE_EPS_PER_M * max(self.m_values)
        if self.eps_rule == "fixed" and self.eps_fixed < floor:
            raise ConfigParse(
                f"eps_rule = fixed needs eps_fixed >= {floor:g}, the "
                "noise-free floor at the largest m")
        if self.eps_rule == "m-theta" and 0.0 in self.theta_values:
            raise ConfigParse("eps_rule = m-theta needs every theta > 0")
        return self


# config key -> (kind, range test, rule), read once per process
_SETTINGS = {f.name: f.metadata["setting"] for f in fields(ExperimentConfig)}


def parse_config(path: str) -> ExperimentConfig:
    """Read a ``key = value`` config file (comma-separated lists, # comments).

    Each key's kind and range are declared on its ``ExperimentConfig``
    field: the kind parses the value, and ``validate`` checks both.  A key
    may appear only once.  A file that cannot be read or is not UTF-8
    raises ``ConfigParse``.
    """
    cfg = ExperimentConfig()
    seen: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParse(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SETTINGS:
            raise ConfigParse(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigParse(
                f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            setattr(cfg, key, _SETTINGS[key][0].parse(val))
        except ValueError as exc:
            raise ConfigParse(f"{path}:{lineno}: bad value for {key}") from exc
    return cfg.validate()


@dataclass(frozen=True, eq=False)
class PipelineContext:
    """Diagonalized model plus reference quantities shared by all cells.

    ``spec`` and ``v`` are the levels of the initial state's spectral
    measure (``dynamics.spectral_measure``): ``spec`` holds one eigenvalue
    per distinct level of H, and ``v``, the state's amplitude vector over
    that eigenbasis, the square roots of its weight on each level, so
    ``spec.dim`` counts levels, not states.  ``lam0`` is the lowest
    eigenvalue of H itself.  ``factor_qubits`` is the qubit count of each
    qubit-disjoint factor H was diagonalized by, in order.
    """

    spec: SpectralDecomposition
    v: np.ndarray
    lam0: float
    class_tag: HamiltonianClass
    top_energy: float | None
    t_star: float
    delta_t: float
    tau: float
    factor_qubits: tuple[int, ...]


def _hamiltonian(config: ExperimentConfig) -> PauliHamiltonian:
    """The config's model; the bipartite one couples qubit i to n + i only."""
    if config.model == "heisenberg":
        return heisenberg_chain(config.n, seed=config.model_seed)
    rng = np.random.default_rng(config.model_seed)
    npair = config.n
    edges = {(i, npair + i): float(rng.uniform(0, 1)) for i in range(npair)}
    jz = {e: float(rng.uniform(0, 1)) for e in edges}
    h = {i: float(rng.uniform(0, 1)) for i in range(2 * npair)}
    return build_bipartite(npair, edges, jz, h)


def _factored_spectrum(factors: tuple[PauliHamiltonian, ...]) -> np.ndarray:
    """Ascending spectrum of a sum of qubit-disjoint factors: every sum of
    one eigenvalue per factor.  Each factor is assembled and checked for
    Hermiticity on its own; a single factor's spectrum comes back as is."""
    spectra = [eigendecompose(assemble_dense(part)).eigenvalues
               for part in factors]
    return np.sort(functools.reduce(
        lambda a, b: np.add.outer(a, b).ravel(), spectra))


def build_context(config: ExperimentConfig) -> PipelineContext:
    """Assemble, diagonalize, and fix the timestep and measurement window.

    Each qubit-disjoint factor of H is assembled and diagonalized on its
    own, and H's spectrum is the sorted Kronecker sum of theirs; a
    connected model is one factor, H itself.  The context then keeps only
    the levels of the state's spectral measure.
    """
    ham = _hamiltonian(config)
    factors = qubit_factors(ham)
    spec = SpectralDecomposition(eigenvalues=_factored_spectrum(factors))
    lam0 = float(spec.eigenvalues[0])
    spec, v = spectral_measure(spec, build_initial_state(spec, config.gamma0))
    t_star = choose_timestep(spec)
    delta_t = config.delta_t_fraction * t_star
    tau = 1.5 * (t_star + delta_t)
    return PipelineContext(
        spec=spec, v=v, lam0=lam0,
        class_tag=ham.class_tag, top_energy=ham.top_energy,
        t_star=t_star, delta_t=delta_t, tau=tau,
        factor_qubits=tuple(part.n_qubits for part in factors),
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


_ExactData = collections.namedtuple("_ExactData", "grid gaps values x_in")


def _initial_condition(ctx: PipelineContext, config: ExperimentConfig):
    """x_in of gap 1, R_01^(p)(0) for p < M, from one call of F at 0 that
    every grid and gap shares; R(0) = 1 and, as R is even, R^(odd)(0) = 0."""
    x_in = _F(ctx.spec.eigenvalues, eigenbasis_weights(ctx.spec, ctx.v), 0.0,
              range(config.M))[:, 0]
    x_in[0], x_in[1::2] = 1.0, 0.0
    return x_in


def _exact_data(ctx: PipelineContext, D: int, gaps,
                x_in_1: np.ndarray) -> _ExactData:
    """The D-point grid around t*, and on it the exact series of R_0g and
    the initial condition x_in, one row each per gap g, which no noise
    level or trial changes.  The series of every gap is one oracle call,
    R_0g(t) = R_01(g t), and x_in[p] = g^p R_01^(p)(0) scales ``x_in_1``
    (``_initial_condition``)."""
    grid = sample_grid(ctx.t_star, ctx.delta_t, D)
    gaps = list(gaps)
    values = recovery_probability(ctx.spec, ctx.v, 0, 1,
                                  np.multiply.outer(gaps, grid))
    x_in = x_in_1 * np.array([[g ** p for p in range(x_in_1.size)]
                              for g in gaps], dtype=float)
    return _ExactData(grid, gaps, values, x_in)


def _fit_noisy(ctx: PipelineContext, config: ExperimentConfig,
               exact: _ExactData, theta: float, seeds, eta_bounds) -> tuple:
    """Add seeded noise to each gap's exact series (``_noisy_series``) and
    fit each noisy series once per noise bound ||eta||^2, in one batch.

    ``seeds[i]`` holds the ``_cell_seed`` parts of gap ``exact.gaps[i]``'s
    noise, and either the gaps or the bounds are one.  Returns the noisy
    values, one row per gap on ``exact.grid``, and the fits, flat: gap by
    gap and, within a gap, bound by bound.  The gaps' forcing norms read
    shared panel tables; an error from a gap's norm, budget or model names
    the gap and M.
    """
    values = _noisy_series(exact.values, theta,
                           [_cell_seed(config.master_seed, *parts)
                            for parts in seeds])
    models = []
    for g, x in zip(exact.gaps, exact.x_in):
        with _cell(f"gap={g} M={config.M}"):
            f_norm = forcing_norm_sq(ctx.spec, ctx.v, 0, g, ctx.tau, order=config.M)
            models += [EstimatorModel(x, ctx.tau, NoiseBudget(f_norm, eta))
                       for eta in eta_bounds]
    return values, fit_batch(models, exact.grid, values)


@contextlib.contextmanager
def _cell(name: str):
    """Prefix a SuperKrylovError leaving the block with the cell's name."""
    try:
        yield
    except SuperKrylovError as exc:
        exc.args = (f"{name}: {exc}",)  # the type, so the exit code, stays
        raise


def _fit_gaps(ctx: PipelineContext, config: ExperimentConfig,
              exact: _ExactData, theta: float, trial: int) -> list:
    """One minimax fit per gap of ``exact``, the gaps 1..max(m_values) - 1,
    each on a freshly sampled noisy series; fits[g - 1] is the fit for gap g."""
    seeds = [(1, _theta_key(theta), trial, g) for g in exact.gaps]
    return _fit_noisy(ctx, config, exact, theta, seeds,
                      [estimated_eta_norm_sq(config.D, theta)])[1]


def _convergence(ctx: PipelineContext, config: ExperimentConfig) -> list:
    """Ground-energy error versus Krylov dimension m, per noise level.

    The exact m-pairs, leading blocks of the m_max pair, and with noise the
    exact data of every gap, are evaluated once, before the theta and
    trial loops; a noise-free m-pair is solved once and its row repeated
    for every trial.
    """
    m_max = max(config.m_values)
    exact_full = assemble_pair_exact(ctx.spec, ctx.v, m_max, ctx.t_star)
    exact_pairs = {m: exact_full.leading(m) for m in config.m_values}
    exact = (_exact_data(ctx, config.D, range(1, m_max), _initial_condition(ctx, config))
             if max(config.theta_values) > 0 else None)
    j_norm = 2.0 * ctx.spec.spectral_width
    m_values = sorted(config.m_values)
    rows = []
    for theta in config.theta_values:
        for trial in range(config.trials):
            # a noise-free cell draws nothing: trial 0's results serve them all
            if theta > 0.0 or trial == 0:
                with _cell(f"theta={theta} trial={trial}"):
                    fits = (None if theta == 0.0
                            else _fit_gaps(ctx, config, exact, theta, trial))
                solved = []
                for m in m_values:
                    with _cell(f"theta={theta} trial={trial} m={m}"):
                        pair, omega = exact_pairs[m], 0.0
                        if theta > 0.0:
                            pair = assemble_pair_minimax(fits[:m - 1], ctx.t_star)
                            omega = noise_rate(pair, exact_pairs[m], j_norm)
                        result = threshold_solve(pair, _eps(config, m, theta))
                        estimate = ground_energy(result, ctx.class_tag,
                                                 top_energy=ctx.top_energy)
                    rel_error = abs(estimate - ctx.lam0) / abs(ctx.lam0)
                    solved.append((result.ground_gap, estimate, rel_error,
                                   omega, result.kept_dim))
            rows += [(m, theta, config.gamma0, trial, *cells)
                     for m, cells in zip(m_values, solved)]
    header = ["m", "theta", "gamma0", "trial", "delta0_prime", "estimate",
              "rel_error", "omega", "kept_dim"]
    return [("convergence.csv", header, rows)]


def _derivative_scaling(ctx: PipelineContext, config: ExperimentConfig) -> list:
    """Derivative error and certificate versus datapoint count D.

    Per-trial rows are followed by summary rows (trial = -1) holding the
    trial-averaged error and certificate for each (D, theta).  The true
    derivative of gap 1 at t* and x_in are found once, its series once per D,
    and a noise-free cell's fit and certificate once for every trial.
    """
    truth = recovery_derivative(ctx.spec, ctx.v, 0, 1, ctx.t_star, 1)
    x_in_1 = _initial_condition(ctx, config)
    rows, summary = [], []
    for D in config.d_values:
        exact = _exact_data(ctx, D, [1], x_in_1)
        for theta in config.theta_values:
            cell = []
            for trial in range(config.trials):
                # a noise-free cell draws nothing: trial 0's fit serves them all
                if theta > 0.0 or trial == 0:
                    with _cell(f"D={D} theta={theta} trial={trial}"):
                        _, [f] = _fit_noisy(ctx, config, exact, theta,
                                            [(2, _theta_key(theta), trial, D)],
                                            [estimated_eta_norm_sq(D, theta)])
                        error = abs(evaluate_x1(f, ctx.t_star) - truth)
                        sigma = error_certificate(f.model, exact.grid,
                                                  ctx.t_star, 1)
                cell.append((D, theta, trial, error, sigma))
            rows += cell
            summary.append((D, theta, -1,
                            float(np.mean([r[3] for r in cell])),
                            float(np.mean([r[4] for r in cell]))))
    header = ["D", "theta", "trial", "abs_error", "sigma_certificate"]
    return [("deriv_scaling.csv", header, rows + summary)]


def _minimax_demo(ctx: PipelineContext, config: ExperimentConfig) -> list:
    """Under-, balanced and over-fitted traces with derivative certificates.

    The r sweep {r0/10, r0, 10 r0} with fixed q shows under-, balanced,
    and over-fitting; the derivative reconstruction at the balanced point
    is accompanied by its worst-case certificate on a dense time grid.
    The data carry the largest noise level, max(theta_values) > 0.
    """
    gap = 1
    theta = max(config.theta_values)
    eta0 = estimated_eta_norm_sq(config.D, theta)
    exact = _exact_data(ctx, config.D, [gap], _initial_condition(ctx, config))
    # the r variants come from scaled noise bounds so each budget stays valid
    values, [fit_low, fit0, fit_high] = _fit_noisy(
        ctx, config, exact, theta,
        [(3, _theta_key(theta), 0, gap)], [10.0 * eta0, eta0, 0.1 * eta0])
    dense = np.linspace(0.0, ctx.tau, 201)
    # R_0g(t) = F(g t) and R_0g'(t) = g F'(g t), from one call of F
    w = eigenbasis_weights(ctx.spec, ctx.v)
    exact_r, exact_f1 = _F(ctx.spec.eigenvalues, w, gap * dense, (0, 1))
    rows = []
    for t, r, f1 in zip(dense.tolist(), exact_r.tolist(), exact_f1.tolist()):
        rows.append((
            t, r, gap * f1,
            evaluate_x0(fit_low, t),
            evaluate_x0(fit0, t),
            evaluate_x0(fit_high, t),
            evaluate_x1(fit0, t),
            error_certificate(fit0.model, exact.grid, t, 1),
        ))
    header = ["t", "exact_R", "exact_dR", "xhat0_rlow", "xhat0_r0",
              "xhat0_rhigh", "xhat1", "sigma"]
    points = [(float(t), float(y)) for t, y in zip(exact.grid, values[0])]
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
        exact = _exact_data(ctx, config.D, range(1, m), _initial_condition(ctx, config))
        pairs["minimax"] = assemble_pair_minimax(
            _fit_gaps(ctx, config, exact, theta, 0), ctx.t_star)
    # R_hat is real and J_hat = i A_hat imaginary: one column each
    rows = [(source, j, k, R[j][k], A[j][k])
            for source, pair in pairs.items()
            for R, A in [(pair.R_hat.tolist(), pair.A_hat.tolist())]
            for j in range(m) for k in range(m)]
    header = ["source", "row", "col", "R_re", "J_im"]
    return [("gram.csv", header, rows)]


# command -> runner (ctx, config) -> [(csv_name, header, rows), ...]
COMMANDS = {
    "convergence": _convergence,
    "deriv-scaling": _derivative_scaling,
    "minimax-demo": _minimax_demo,
    "gram": _gram,
}


def _blas() -> dict | None:
    """Name and version of the BLAS numpy was built with; None on numpy
    < 1.25, whose show_config has no mode and cannot return them."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": info.get("name"), "version": info.get("version")}


def run(command: str, config: ExperimentConfig) -> str:
    """Run one ``COMMANDS`` entry and write its CSV tables and manifest.

    Returns the first table's path; the manifest counts its records and
    splits ``wall_time_s`` into ``stage_s``, both read from the monotonic
    ``time.perf_counter``, which a step of the wall clock cannot turn
    negative.  An output directory that cannot be created raises
    ``ConfigParse`` before any cell is computed.
    """
    if command not in COMMANDS:
        raise ConfigParse(f"unknown command {command!r}: not in {list(COMMANDS)}")
    # validation and the output directory count toward build_context
    start = time.perf_counter()
    config.validate()
    if command == "minimax-demo" and max(config.theta_values) == 0:
        raise ConfigParse("minimax-demo needs max(theta_values) > 0: "
                          "with no noise its three fits coincide")
    try:
        os.makedirs(config.out, exist_ok=True)
    except OSError as exc:
        raise ConfigParse(
            f"cannot write output directory {config.out!r}: {exc}") from exc
    ctx = build_context(config)
    built = time.perf_counter()
    tables = COMMANDS[command](ctx, config)
    computed = time.perf_counter()
    paths = []
    for name, header, rows in tables:
        path = os.path.join(config.out, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        paths.append(path)
    written = time.perf_counter()
    manifest = {"schema_version": SCHEMA_VERSION, "command": command,
                "config": asdict(config), "outputs": paths,
                # sys.version_info, not the platform module, which is slow
                # to import
                "environment": {
                    "python": "%d.%d.%d" % sys.version_info[:3],
                    "numpy": np.__version__,
                    "blas": _blas()},
                "factor_qubits": list(ctx.factor_qubits),
                "spectral_atoms": ctx.spec.dim,
                # more than gamma0 where an extremal level is degenerate
                "extremal_level_weights": [float(ctx.v[0] ** 2),
                                           float(ctx.v[-1] ** 2)],
                "n_records": len(tables[0][2]),
                "stage_s": {"build_context": round(built - start, 3),
                            "cells": round(computed - built, 3),
                            "write": round(written - computed, 3)},
                "wall_time_s": round(written - start, 3)}
    with open(os.path.join(config.out, f"{command}_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths[0]
