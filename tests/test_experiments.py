import collections
import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from superkrylov import (
    ConfigParse,
    SingularSystem,
    assemble_dense,
    assemble_pair_exact,
    build_initial_state,
    eigendecompose,
    error_certificate,
    estimated_eta_norm_sq,
    recovery_derivative,
)
from superkrylov import dynamics, experiments, measurement, minimax, solver
from superkrylov.dynamics import SpectralDecomposition
from superkrylov.experiments import (
    ExperimentConfig,
    _exact_data,
    _fit_noisy,
    _fmt,
    _initial_condition,
    _hamiltonian,
    _theta_key,
    build_context,
)
from superkrylov.measurement import sample_grid
from superkrylov.pauli import qubit_factors


@pytest.mark.parametrize("theta", [0.0, 1e-4])
@pytest.mark.parametrize("M", [5, 6, 8])
def test_certificate_holds_with_high_order_initial_condition(M, theta):
    # x_in must carry every even derivative R^(p)(0) for p < M; with the
    # higher ones left at 0 the true signal lies outside the budget
    # ellipsoid and the worst-case bound fails
    cfg = ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25,
                           d_values=[15], M=M, theta_values=[theta], master_seed=0)
    [(_, _, [row, _])] = experiments._derivative_scaling(build_context(cfg), cfg)
    *_, abs_error, sigma = row
    assert abs_error <= sigma


def test_noise_free_fit_follows_its_data_at_high_order():
    # at M = 6 the forcing Gram's mean diagonal is about 1e-13, so a bare
    # ridge ratio of 1e-12 outweighed it and the fit ignored its exact data
    # (abs_error 0.081); a ridge relative to trace(G) / D keeps the data
    cfg = ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25,
                           d_values=[15], M=6, theta_values=[0.0], master_seed=0)
    [(_, _, [row, _])] = experiments._derivative_scaling(build_context(cfg), cfg)
    *_, abs_error, sigma = row
    assert abs_error < 1e-6 and abs_error <= sigma


def test_ill_conditioned_certificate_raises():
    # the noisy-convergence sweep at M = 6: at gap 15 the ridge system is so
    # ill-conditioned that rounding drives the certificate variance negative,
    # which must not be reported as sigma = 0
    theta, gap = 1e-4, 15
    cfg = ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25,
                           D=15, M=6, theta_values=[theta], eps_rule="m-theta",
                           master_seed=0)
    ctx = build_context(cfg)
    exact = _exact_data(ctx, cfg.D, [gap], _initial_condition(ctx, cfg))
    _, [f] = _fit_noisy(ctx, cfg, exact, theta,
                        [(1, _theta_key(theta), 0, gap)],
                        [estimated_eta_norm_sq(cfg.D, theta)])
    with pytest.raises(SingularSystem, match="component 1"):
        error_certificate(f.model, exact.grid, ctx.t_star, 1)


@pytest.mark.parametrize("command, name, cell", [
    ("convergence", "_fit_gaps", "theta=0.001 trial=0: "),
    ("deriv-scaling", "error_certificate", "D=5 theta=0.001 trial=0: "),
])
def test_failing_cell_names_itself(command, name, cell, tmp_path, monkeypatch):
    # a SuperKrylovError leaving a cell keeps its type and gains the cell;
    # tests/test_cli.py checks an m-cell of convergence through the CLI
    def fail(*args, **kwargs):
        raise SingularSystem("stop")

    monkeypatch.setattr(experiments, name, fail)
    cfg = ExperimentConfig(model="heisenberg", n=4, m_values=[2, 3],
                           theta_values=[1e-3], d_values=[5], trials=2,
                           out=str(tmp_path))
    with pytest.raises(SingularSystem) as info:
        experiments.run(command, cfg)
    assert str(info.value) == cell + "stop"


FRAME_CONFIGS = [
    ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25),
    ExperimentConfig(model="bipartite", n=3, model_seed=42, gamma0=0.25),
]


@pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=["heisenberg6", "bipartite3"])
def test_context_never_forms_eigenvectors(cfg, monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("build_context must not compute eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    build_context(cfg)


def _close(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("cfg", FRAME_CONFIGS, ids=["heisenberg6", "bipartite3"])
def test_context_matches_the_whole_spectrum(cfg):
    # the eigenbasis frame, built from qubit-disjoint factors, must
    # reproduce every oracle of the full eigendecomposition of the whole
    # Hamiltonian
    ctx = build_context(cfg)
    ref_spec = eigendecompose(assemble_dense(_hamiltonian(cfg)))
    ref_v = build_initial_state(ref_spec, cfg.gamma0)
    assert abs(ctx.lam0 - ref_spec.eigenvalues[0]) <= 1e-12 * abs(ctx.lam0)
    times = np.append(sample_grid(ctx.t_star, ctx.delta_t, cfg.D), ctx.t_star)
    for gap in range(1, 30):
        for order in range(3):
            _close(recovery_derivative(ctx.spec, ctx.v, 0, gap, times, order),
                   recovery_derivative(ref_spec, ref_v, 0, gap, times, order))
    pair = assemble_pair_exact(ctx.spec, ctx.v, 30, ctx.t_star)
    ref = assemble_pair_exact(ref_spec, ref_v, 30, ctx.t_star)
    _close(pair.R_hat, ref.R_hat)
    _close(pair.A_hat, ref.A_hat)


def test_levels_reproduce_the_full_spectrum_at_every_pipeline_time(monkeypatch):
    # every scaled time a noisy sweep evaluates -- the series grids, the
    # forcing-norm panel nodes and g t* -- recorded at the amplitude kernel,
    # which only the oracle behind every value of F calls
    cfg = ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25,
                           theta_values=[1e-3], d_values=[5, 15, 40])
    ctx = build_context(cfg)
    full = SpectralDecomposition(
        eigenvalues=experiments._factored_spectrum(
            qubit_factors(_hamiltonian(cfg))))
    full_v = build_initial_state(full, cfg.gamma0)
    assert (ctx.spec.dim, full.dim) == (20, 64)
    times = []

    kernel = dynamics._amplitudes

    def record(lam, w, s, order):
        times.append(np.atleast_1d(np.asarray(s, dtype=float)).ravel())
        return kernel(lam, w, s, order)

    monkeypatch.setattr(dynamics, "_amplitudes", record)
    measurement._panel_table.cache_clear()
    experiments._convergence(ctx, cfg)
    experiments._derivative_scaling(ctx, cfg)
    monkeypatch.undo()
    s = np.unique(np.concatenate(times))
    # the series of every gap is one call on a 2-D (gap, grid) table
    gaps = np.arange(1, max(cfg.m_values))
    grids = [np.multiply.outer(gaps, sample_grid(ctx.t_star, ctx.delta_t, cfg.D))]
    grids += [sample_grid(ctx.t_star, ctx.delta_t, D) for D in cfg.d_values]
    # the largest table's panels; every smaller table is a prefix of it
    per_unit = math.ceil(ctx.tau * ctx.spec.spectral_width / measurement.PANEL_PHASE)
    h = ctx.tau / per_unit
    panels = 1 << int(per_unit * gaps[-1] - 1).bit_length()
    nodes = h * np.arange(panels)[:, None] + 0.5 * h * (measurement._GL_NODES + 1.0)
    for want in grids + [nodes]:
        assert np.all(np.isin(want, s))
    for order in range(3):
        ref = recovery_derivative(full, full_v, 0, 1, s, order)
        got = recovery_derivative(ctx.spec, ctx.v, 0, 1, s, order)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), order


@pytest.mark.parametrize("cfg, shapes, factor_qubits, levels", [
    # the bipartite model couples qubit i to n + i only: five 4 x 4 factors,
    # and its 1024 eigenvalues are distinct
    (ExperimentConfig(model="bipartite", n=5, model_seed=42, gamma0=0.25),
     [(4, 4)] * 5, (2, 2, 2, 2, 2), 1024),
    # SU(2) multiplets: 5 singlets, 9 triplets, 5 quintets and 1 septet
    (ExperimentConfig(model="heisenberg", n=6, model_seed=42, gamma0=0.25),
     [(64, 64)], (6,), 20),
], ids=["bipartite5", "heisenberg6"])
def test_context_assembles_only_factors(cfg, shapes, factor_qubits, levels,
                                        monkeypatch):
    assembled = []

    def record(ham):
        h = assemble_dense(ham)
        assembled.append(h.shape)
        return h

    monkeypatch.setattr(experiments, "assemble_dense", record)
    ctx = build_context(cfg)
    assert assembled == shapes
    assert ctx.factor_qubits == factor_qubits
    assert ctx.spec.dim == levels
    assert abs(np.sum(ctx.v ** 2) - 1.0) <= 1e-15


CACHES = (measurement._panel_table, minimax._kernel_overlaps)


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def _csv_bytes(cfg, out) -> dict:
    """Run convergence and deriv-scaling into out; CSV name -> bytes."""
    cfg.out = str(out)
    paths = [experiments.run(command, cfg)
             for command in ("convergence", "deriv-scaling")]
    return {Path(p).name: Path(p).read_bytes() for p in paths}


def _noisy4(**overrides):
    base = dict(model="heisenberg", n=4, model_seed=42, gamma0=0.25,
                m_values=[2, 4, 6, 8], theta_values=[1e-3, 1e-2], D=9,
                d_values=[5, 9], trials=2, master_seed=3)
    return ExperimentConfig(**{**base, **overrides})


def test_caches_never_leak_between_configs(tmp_path):
    # each config's CSVs are the same whether its run starts cold or after
    # another model filled every cache
    _clear_caches()
    first = _csv_bytes(_noisy4(), tmp_path / "first-cold")
    other = _csv_bytes(_noisy4(model_seed=7), tmp_path / "other-warm")
    _clear_caches()
    assert _csv_bytes(_noisy4(), tmp_path / "first-again") == first
    _clear_caches()
    assert _csv_bytes(_noisy4(model_seed=7), tmp_path / "other-cold") == other
    assert other != first


def _record_kernel_calls(monkeypatch) -> collections.Counter:
    """Count the evaluations of F (``dynamics._F``) by the module that made
    them: the oracles (dynamics), the initial conditions and the demo's
    exact traces (experiments), the exact pair (solver) and the
    forcing-norm panel tables (measurement)."""
    calls = collections.Counter()
    oracle = dynamics._F
    for module in (dynamics, experiments, solver, measurement):
        def record(*args, _name=module.__name__.rsplit(".", 1)[-1]):
            calls[_name] += 1
            return oracle(*args)
        monkeypatch.setattr(module, "_F", record)
    return calls


@pytest.mark.parametrize("M", [3, 6])
def test_convergence_reuses_amplitudes_across_theta(M, tmp_path, monkeypatch):
    # the sweep evaluates F once for the series of every gap on the grid
    # (R_0g(t) = R_01(g t)), once at 0 for every derivative R_01^(p)(0),
    # p < M, which every gap shares (R_0g^(p)(0) = g^p R_01^(p)(0)), and
    # once for the exact pair; each gap's forcing norm reads a prefix of one
    # panel table per power of two up to the largest gap.  None depends on
    # theta, so the second theta computes nothing new
    cfg = _noisy4(M=M, out=str(tmp_path))
    gaps = max(cfg.m_values) - 1
    cells = len(cfg.theta_values) * cfg.trials
    tables = math.ceil(math.log2(gaps)) + 1
    _clear_caches()
    calls = _record_kernel_calls(monkeypatch)
    experiments.run("convergence", cfg)
    assert calls == {"dynamics": 1, "experiments": 1, "solver": 1,
                     "measurement": tables}
    info = measurement._panel_table.cache_info()
    assert (info.misses, info.hits) == (tables, gaps * cells - tables)


def test_convergence_takes_each_exact_pair_once(tmp_path, monkeypatch):
    # the exact m-pairs are leading blocks of the m_max pair, taken before
    # the theta and trial loops rather than once per cell
    cfg = _noisy4(out=str(tmp_path))
    assert len(cfg.theta_values) == cfg.trials == 2
    calls = collections.Counter()
    leading = solver.KrylovPair.leading

    def record(pair, m):
        calls[m] += 1
        return leading(pair, m)

    monkeypatch.setattr(solver.KrylovPair, "leading", record)
    experiments._convergence(build_context(cfg), cfg)
    assert calls == {m: 1 for m in cfg.m_values}


@pytest.mark.parametrize("command, name, overrides, want", [
    ("convergence", "threshold_solve", dict(m_values=[2, 3, 4, 5, 6]), 5),
    ("deriv-scaling", "error_certificate", dict(d_values=[5, 9]), 2),
], ids=["convergence", "deriv-scaling"])
def test_noise_free_cell_is_computed_once_for_every_trial(
        command, name, overrides, want, tmp_path, monkeypatch):
    # a theta = 0 cell draws no noise, so its trials share one solve per m,
    # or one fit and certificate per D, and write the same rows
    cfg = _noisy4(out=str(tmp_path), theta_values=[0.0], trials=3, **overrides)
    calls = []
    original = getattr(experiments, name)
    monkeypatch.setattr(experiments, name,
                        lambda *args: calls.append(args) or original(*args))
    header, *rows = Path(experiments.run(command, cfg)).read_text().splitlines()
    assert len(calls) == want
    column = header.split(",").index("trial")
    by_trial = collections.defaultdict(list)
    for row in rows:
        cells = row.split(",")
        by_trial[cells.pop(column)].append(cells)
    assert by_trial["0"] == by_trial["1"] == by_trial["2"]


@pytest.mark.parametrize("command, overrides", [
    ("convergence", dict(theta_values=[1e-3], trials=1)),
    ("convergence", dict(theta_values=[0.0, 1e-3, 1e-2], trials=3, M=6)),
    ("convergence", dict(theta_values=[0.0], trials=2)),
    ("deriv-scaling", dict(theta_values=[1e-3], trials=1)),
    ("deriv-scaling", dict(d_values=[5, 9, 12], trials=3, M=6)),
    ("minimax-demo", dict(theta_values=[1e-3], M=6)),
], ids=["noisy-one-cell", "noisy-nine-cells", "noise-free", "scaling-one-cell",
        "scaling-many-cells", "demo"])
def test_kernel_evaluations_per_sweep(command, overrides, tmp_path, monkeypatch):
    # outside the panel tables, a sweep evaluates F a number of times that
    # no theta, trial or M changes: the exact pair, and with noise the
    # series and the x_in derivatives once; deriv-scaling the true F'(t*)
    # and the x_in derivatives once, and the series once per D;
    # minimax-demo the series, the x_in derivatives and, in one call, the
    # exact R and R' traces
    cfg = _noisy4(out=str(tmp_path), **overrides)
    if command == "deriv-scaling":
        want = 2 + len(cfg.d_values)
    else:
        want = 3 if max(cfg.theta_values) > 0 else 1
    calls = _record_kernel_calls(monkeypatch)
    experiments.run(command, cfg)
    assert calls["dynamics"] + calls["experiments"] + calls["solver"] == want


def test_no_cell_writes_into_the_shared_exact_series(tmp_path):
    # every cell of a sweep adds its noise to one exact series of every
    # gap, so each theta's rows must be byte for byte those of a sweep of
    # that theta alone
    def lines(cfg, out):
        cfg.out = str(out)
        return Path(experiments.run("convergence", cfg)).read_text().splitlines()

    header, *rows = lines(_noisy4(), tmp_path / "both")
    for theta in _noisy4().theta_values:
        alone = lines(_noisy4(theta_values=[theta]), tmp_path / _fmt(theta))
        assert alone[0] == header
        assert [r for r in rows if r.split(",")[1] == _fmt(theta)] == alone[1:]


def test_stage_times_survive_a_backward_wall_clock_step(monkeypatch, tmp_path):
    # NTP may step the wall clock back mid-run: here every reading is 10 s
    # earlier than the one before, which a wall-clock timer reads as
    # negative stages
    readings = itertools.count(1e9, -10.0)
    monkeypatch.setattr(experiments.time, "time", lambda: next(readings))
    experiments.run("convergence", _noisy4(out=str(tmp_path)))
    manifest = json.loads((tmp_path / "convergence_manifest.json").read_text())
    assert manifest["wall_time_s"] >= 0
    assert all(v >= 0 for v in manifest["stage_s"].values())


@pytest.mark.parametrize("command", ["convergence", "deriv-scaling"])
@pytest.mark.parametrize("key, value", [
    ("master_seed", 1.5),  # would be truncated to seed 1
    ("D", 2.5),
    ("d_values", [5, 7.5]),
    ("trials", 1.5),
    ("M", 3.0),
    ("n", 4.0),
    ("model_seed", 42.5),
    ("m_values", [2, 3.5]),
    ("trials", True),
])
def test_integer_fields_must_be_integers(key, value, command, tmp_path):
    cfg = _noisy4(**{key: value}, out=str(tmp_path / "out"))
    with pytest.raises(ConfigParse, match=key):
        experiments.run(command, cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["convergence", "deriv-scaling"])
@pytest.mark.parametrize("key, value", [
    ("gamma0", "0.25"),
    ("gamma0", True),
    ("delta_t_fraction", None),
    ("eps_fixed", "0"),
    ("theta_values", ["0.001"]),
    ("theta_values", [0.001, None]),
])
def test_float_fields_must_be_real_numbers(key, value, command, tmp_path):
    cfg = _noisy4(**{key: value}, out=str(tmp_path / "out"))
    with pytest.raises(ConfigParse, match=key):
        experiments.run(command, cfg)
    assert not (tmp_path / "out").exists()


def test_numpy_floats_are_real_numbers():
    cfg = _noisy4(gamma0=np.float64(0.25), delta_t_fraction=np.float32(0.15),
                  theta_values=[np.float64(1e-3), 0])
    assert cfg.validate() is cfg


def test_numpy_integers_are_integers():
    cfg = _noisy4(n=np.int64(4), D=np.int32(9), trials=np.int64(2),
                  m_values=[np.int64(2), np.int64(4)])
    assert cfg.validate() is cfg


def test_tuple_lists_are_accepted(tmp_path):
    # a tuple list runs the same sweep as the list it holds
    as_lists = _csv_bytes(_noisy4(), tmp_path / "lists")
    as_tuples = _csv_bytes(_noisy4(m_values=(2, 4, 6, 8),
                                   theta_values=(1e-3, 1e-2), d_values=(5, 9)),
                           tmp_path / "tuples")
    assert as_tuples == as_lists


# Every config key, written out by hand rather than read from the
# declarations, so a key whose declaration loses its kind or its range
# test is caught: key -> (values of the wrong kind, values out of range).
KEY_CASES = {
    "model": ([3, None], ["tetrahedral"]),
    "n": ([4.0, "4"], [0, -1]),
    "model_seed": (["42", 42.5], [-1]),
    "gamma0": (["0.25", True, None], [0.0, 0.9]),
    "m_values": ([5, [2, 3.5], [], [2, 3, 3], "2,4"], [[1, 2, 4]]),
    "theta_values": ([0.001, ["0.001"], [0.001, None], [np.nan], [np.inf],
                      [1e-3, 1e-3]], [[-1e-3]]),
    "D": ([9.0, None], [1]),
    "d_values": ([10, [5, 7.5], (5, 5), []], [[1, 5]]),
    "M": ([None, 3.0], [1]),
    "delta_t_fraction": ([True, None, np.nan], [0.0, 1.0]),
    "eps_rule": ([None, 1], ["noise-free"]),
    "eps_fixed": (["0", np.inf], [-1.0]),
    "trials": ([True, 1.5], [0]),
    "master_seed": ([1.5, np.float64(3.0)], [-3]),
    "out": ([None, 3, b"out"], []),
}


def test_key_cases_cover_every_config_key():
    assert list(KEY_CASES) == [f.name for f in dataclasses.fields(ExperimentConfig)]


@pytest.mark.parametrize("key, value", [
    (key, value) for key, (wrong, out_of_range) in KEY_CASES.items()
    for value in wrong + out_of_range])
def test_every_bad_value_names_its_key(key, value, tmp_path):
    # out = None, out = 3 and a bare number for a list key used to reach
    # the sweep and fail there with a bare TypeError
    out = tmp_path / "out"
    cfg = _noisy4(**{"out": str(out), key: value})
    with pytest.raises(ConfigParse, match=rf"^{key}\b"):
        experiments.run("convergence", cfg)
    assert not out.exists()


def test_unknown_command_is_rejected_before_any_work(tmp_path):
    # a bad config too: the command is checked before validation, and no
    # output directory is created
    cfg = _noisy4(n=0, out=str(tmp_path / "out"))
    with pytest.raises(ConfigParse, match="'convergenc'") as info:
        experiments.run("convergenc", cfg)
    assert all(command in str(info.value) for command in experiments.COMMANDS)
    assert not (tmp_path / "out").exists()
