"""Metamorphic relations of the experiment runners.

Each test runs ``experiments.run`` on a model and on a transformed copy of
it, built by ``experiments._hamiltonian`` and then rewritten term by term,
and compares the CSVs.  No reference output is needed: the relations
follow from the units and symmetries of the pipeline.

* H -> 2^k H, k = +-1: times scale by 2^-k and energies, energy rates and
  the anti-Hermitian pair matrix J by 2^k.  Scaling by a power of two is
  exact in floating point, so the relation holds with no tolerance.
* Reversing the chain's qubit order, and H -> -H on a bipartite model
  (whose spectrum is symmetric about zero), leave the spectrum unchanged
  up to rounding: the estimate agrees to 1e-7 |lam0| and kept_dim exactly.
"""

import csv
import dataclasses
from pathlib import Path

import pytest

from superkrylov import experiments
from superkrylov.experiments import ExperimentConfig, build_context
from superkrylov.pauli import PauliString

# CSV -> {column: the power of 2^k it scales by}; every other column,
# rel_error, omega and kept_dim among them, is identical
SCALED_COLUMNS = {
    "convergence.csv": {"delta0_prime": 1, "estimate": 1},
    "deriv_scaling.csv": {"abs_error": 1, "sigma_certificate": 1},
    "minimax_demo.csv": {"t": -1, "exact_dR": 1, "xhat1": 1, "sigma": 1},
    "minimax_demo_points.csv": {"t": -1},
    "gram.csv": {"J_im": 1},
}

# noise-free and noisy cells in every sweep; minimax-demo and gram fit at
# the largest theta
SWEEP = dict(model_seed=42, gamma0=0.25, m_values=list(range(2, 13)),
             theta_values=[0.0, 1e-3], d_values=[5, 20], trials=2,
             master_seed=0)
MODELS = {
    "heisenberg6-M3": dict(model="heisenberg", n=6, M=3),
    "heisenberg6-M6": dict(model="heisenberg", n=6, M=6),
    "bipartite4": dict(model="bipartite", n=4),
}


def _transformed(ham, coefficient=lambda c: c, label=lambda s: s):
    terms = tuple(PauliString(label(t.label), coefficient(t.coefficient))
                  for t in ham.terms)
    top = ham.top_energy
    return dataclasses.replace(
        ham, terms=terms, top_energy=None if top is None else coefficient(top))


def _tables(command, cfg, out, monkeypatch, **transform) -> dict:
    """Run command on the config's model, rewritten by ``_transformed``;
    CSV name -> (header, rows), every field as written."""
    hamiltonian = experiments._hamiltonian
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "_hamiltonian",
                      lambda config: _transformed(hamiltonian(config),
                                                  **transform))
        experiments.run(command, dataclasses.replace(cfg, out=str(out)))
    tables = {}
    for path in sorted(Path(out).glob("*.csv")):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        tables[path.name] = (header, rows)
    return tables


@pytest.mark.parametrize("command", list(experiments.COMMANDS))
@pytest.mark.parametrize("model", MODELS)
def test_power_of_two_energy_scale_is_exact(model, command, tmp_path,
                                            monkeypatch):
    cfg = ExperimentConfig(**SWEEP, **MODELS[model])
    base = _tables(command, cfg, tmp_path / "base", monkeypatch)
    assert base
    for k in (1, -1):
        s = 2.0 ** k
        scaled = _tables(command, cfg, tmp_path / f"scaled{k}", monkeypatch,
                         coefficient=lambda c: s * c)
        assert scaled.keys() == base.keys()
        for name, (header, rows) in base.items():
            got_header, got_rows = scaled[name]
            assert got_header == header and len(got_rows) == len(rows)
            powers = [SCALED_COLUMNS[name].get(col) for col in header]
            for row, got in zip(rows, got_rows):
                for col, p, want, value in zip(header, powers, row, got):
                    if p is None:
                        assert value == want, (name, col, k, row)
                    else:
                        assert float(value) == float(want) * s ** p, (
                            name, col, k, row)


def _estimates(cfg, out, monkeypatch, **transform) -> list:
    """(estimate, kept_dim) of every convergence row."""
    header, rows = _tables("convergence", cfg, out, monkeypatch,
                           **transform)["convergence.csv"]
    estimate, kept = header.index("estimate"), header.index("kept_dim")
    return [(float(row[estimate]), row[kept]) for row in rows]


@pytest.mark.parametrize("model, transform", [
    ("heisenberg6-M3", dict(label=lambda s: s[::-1])),
    ("bipartite4", dict(coefficient=lambda c: -c)),
], ids=["reversed-chain", "negated-bipartite"])
def test_spectrum_preserving_transform_keeps_the_estimate(model, transform,
                                                          tmp_path,
                                                          monkeypatch):
    cfg = ExperimentConfig(**SWEEP, **MODELS[model])
    lam0 = build_context(cfg).lam0
    base = _estimates(cfg, tmp_path / "base", monkeypatch)
    other = _estimates(cfg, tmp_path / "other", monkeypatch, **transform)
    assert len(other) == len(base)
    for (want, want_kept), (got, got_kept) in zip(base, other):
        assert got_kept == want_kept
        assert abs(got - want) <= 1e-7 * abs(lam0)
