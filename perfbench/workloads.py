"""Workload definitions and output checks for the sweep benchmark.

Everything here is plain Python (no numpy): the harness process that
imports it never loads BLAS, so its threads cannot compete with the
sweep process it is timing.

A run of one workload is a sequence of sweeps.  Sweep 0 always uses
``REFERENCE_SEED`` as its ``master_seed`` so its output can be compared
with the committed ``reference.json``; sweep i >= 1 uses
``seed * 1000 + i``, so the benchmark's ``--seed`` chooses every other
noise realisation.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_SEED = 0
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Tolerances for comparing a sweep against the committed reference.  Speed
# rewrites must reproduce the numbers to these, not bit for bit: changing the
# BLAS thread count alone moves noise-free estimates by ~4e-8 (5e-9 of |lam0|).
ENERGY_TOL = 1e-6      # |estimate - reference| <= ENERGY_TOL * |lam0|
DERIV_TOL = 1e-6       # |abs_error - reference| <= DERIV_TOL * |true derivative|
SIGMA_RTOL = 1e-6      # relative tolerance on certificates

# Accuracy bounds, in the style of the acceptance criteria.
CRIT09_MEDIAN_MAX = 1e-2   # median final rel_error at the smallest theta
CRIT08_FINAL_MAX = 1e-4    # noise-free final rel_error (1.8e-5 at the seed)
# Criterion 06 bounds the noise-floor ratio (largest over smallest theta) to
# [2, 50] at 30 trials.  A run pools only 8 to 20 trials; at 18 the ratio is
# about 29 with a 99th percentile of 47, so only the lower bound is applied.
CRIT06_RATIO_MIN = 2.0
CRIT07_SOUND_MIN = 0.95    # share of trial rows with sigma >= abs_error

CONVERGENCE_HEADER = ["m", "theta", "gamma0", "trial", "delta0_prime",
                      "estimate", "rel_error", "omega", "kept_dim"]
SCALING_HEADER = ["D", "theta", "trial", "abs_error", "sigma_certificate"]


@dataclass(frozen=True)
class Workload:
    """One CLI sweep: subcommand, config (minus master_seed) and output name."""

    name: str
    command: str
    csv_name: str
    config: dict = field(default_factory=dict)

    @property
    def thetas(self) -> list:
        return self.config["theta_values"]

    @property
    def noise_free(self) -> bool:
        return all(t == 0 for t in self.thetas)

    @property
    def trials(self) -> int:
        return self.config.get("trials", 1)

    def config_text(self, master_seed: int) -> str:
        lines = []
        for key, val in self.config.items():
            if isinstance(val, list):
                val = ",".join(repr(x) for x in val)
            lines.append(f"{key} = {val}")
        lines.append(f"master_seed = {master_seed}")
        return "\n".join(lines) + "\n"

    def expected_keys(self) -> list[tuple]:
        """Structural columns of every data row, in the order the CLI writes them."""
        if self.command == "convergence":
            return [(m, th, t) for th in self.thetas for t in range(self.trials)
                    for m in sorted(self.config["m_values"])]
        rows = [(d, th, t) for d in self.config["d_values"] for th in self.thetas
                for t in range(self.trials)]
        return rows + [(d, th, -1) for d in self.config["d_values"]
                       for th in self.thetas]


M_RANGE = list(range(2, 31))

WORKLOADS = {w.name: w for w in (
    Workload("noisy-convergence", "convergence", "convergence.csv", {
        "model": "heisenberg", "n": 6, "model_seed": 42, "gamma0": 0.25,
        "m_values": M_RANGE, "theta_values": [1e-4, 1e-3], "D": 15, "M": 3,
        "eps_rule": "m-theta", "trials": 1,
    }),
    Workload("deriv-scaling", "deriv-scaling", "deriv_scaling.csv", {
        "model": "heisenberg", "n": 6, "model_seed": 42, "gamma0": 0.25,
        "d_values": [5, 10, 20, 40, 80], "theta_values": [1e-3, 1e-2],
        "trials": 1,
    }),
    Workload("exact-large", "convergence", "convergence.csv", {
        "model": "bipartite", "n": 5, "model_seed": 42, "gamma0": 0.25,
        "m_values": M_RANGE, "theta_values": [0.0], "trials": 1,
    }),
)}


def master_seed(seed: int, sweep: int) -> int:
    return REFERENCE_SEED if sweep == 0 else seed * 1000 + sweep


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(row, problems) -> list[float]:
    vals = [float(x) for x in row]
    if not all(math.isfinite(x) for x in vals):
        problems.append(f"non-finite value in row {row}")
    return vals


def _compares_to_reference(workload: Workload, seed: int) -> bool:
    # noise-free output does not depend on master_seed at all
    return workload.noise_free or seed == REFERENCE_SEED


def check_sweep(workload: Workload, csv_path, seed: int, ref: dict):
    """Check one sweep's CSV.  Returns (problems, extract) where ``extract``
    holds the values that the run-level checks and metrics pool."""
    problems: list[str] = []
    try:
        header, rows = read_csv(csv_path)
    except (OSError, IndexError) as exc:
        return [f"cannot read {csv_path}: {exc}"], {}
    want = CONVERGENCE_HEADER if workload.command == "convergence" else SCALING_HEADER
    if header != want:
        return [f"header {header} != {want}"], {}
    try:
        table = [_floats(r, problems) for r in rows]
    except ValueError as exc:
        return [f"unparseable value: {exc}"], {}
    keys = [(int(r[0]), r[1], int(r[3] if workload.command == "convergence" else r[2]))
            for r in table]
    if keys != workload.expected_keys():
        return [f"rows {keys[:3]}... do not match the sweep structure"], {}
    if problems:
        return problems, {}
    compare = ref["rows"] if _compares_to_reference(workload, seed) else None
    check = _check_convergence if workload.command == "convergence" else _check_scaling
    problems, extract = check(workload, table, ref, compare, problems)
    extract["rows"] = len(table)
    return problems, extract


def _check_convergence(workload, table, ref, compare, problems):
    lam0, top = ref["lam0"], ref["top_energy"]
    finals: dict[float, list[float]] = {}
    m_max = max(workload.config["m_values"])
    for i, (m, theta, _g, _t, d0, est, rel, omega, kept) in enumerate(table):
        if not 1 <= kept <= m:
            problems.append(f"m={m}: kept_dim {kept} outside [1, {m}]")
        if abs(rel - abs(est - lam0) / abs(lam0)) > 1e-12 + 1e-9 * rel:
            problems.append(f"m={m}: rel_error {rel} inconsistent with lam0 {lam0}")
        # ground-energy post-processing: known top, or symmetric spectrum
        shifted = d0 + top if top is not None else d0 / 2.0
        if abs(est - shifted) > 1e-9 * abs(lam0):
            problems.append(f"m={m}: estimate {est} != post-processed gap {shifted}")
        if (omega != 0.0) if theta == 0.0 else (omega < 0.0):
            problems.append(f"m={m}, theta={theta}: omega {omega}")
        if compare is not None:
            r_est, r_kept = compare[i]
            if abs(est - r_est) > ENERGY_TOL * abs(lam0):
                problems.append(f"m={m}, theta={theta}: estimate {est} vs reference {r_est}")
            if abs(kept - r_kept) > 1:
                problems.append(f"m={m}: kept_dim {kept} vs reference {r_kept}")
        if m == m_max:
            finals.setdefault(theta, []).append(rel)
    if workload.noise_free:
        rel = [r[6] for r in table]
        kept = [r[8] for r in table]
        if rel[-1] >= CRIT08_FINAL_MAX:
            problems.append(f"noise-free final rel_error {rel[-1]} >= {CRIT08_FINAL_MAX}")
        for i in range(1, len(rel)):
            if kept[i] < table[i][0]:
                break  # past the full-rank prefix the thresholding takes over
            if rel[i] > rel[i - 1] * (1 + 1e-9):
                problems.append(f"rel_error rises at full rank m={table[i][0]}")
    return problems, {"finals": finals}


def _check_scaling(workload, table, ref, compare, problems):
    truth = abs(ref["true_derivative"])
    n_trial = len(table) - len(workload.config["d_values"]) * len(workload.thetas)
    trial_rows, summary = table[:n_trial], table[n_trial:]
    cells: dict[tuple, list] = {}
    for D, theta, _t, err, sigma in trial_rows:
        if err < 0 or sigma <= 0:
            problems.append(f"D={D}, theta={theta}: abs_error {err}, sigma {sigma}")
        cells.setdefault((D, theta), []).append((err, sigma))
    for D, theta, _t, mean_err, mean_sigma in summary:
        errs, sigmas = zip(*cells[(D, theta)])
        if abs(mean_err - statistics.fmean(errs)) > 1e-12 * truth:
            problems.append(f"D={D}, theta={theta}: summary error is not the trial mean")
        # the certificate depends on the model and grid only, never on the noise
        if max(sigmas) - min(sigmas) > 1e-12 * max(sigmas) or \
                abs(mean_sigma - sigmas[0]) > 1e-12 * sigmas[0]:
            problems.append(f"D={D}, theta={theta}: certificate varies across trials")
    if compare is not None:
        for (D, theta, _t, err, sigma), (r_err, r_sigma) in zip(table, compare):
            if abs(err - r_err) > DERIV_TOL * truth:
                problems.append(f"D={D}, theta={theta}: abs_error {err} vs reference {r_err}")
            if abs(sigma - r_sigma) > SIGMA_RTOL * r_sigma:
                problems.append(f"D={D}, theta={theta}: sigma {sigma} vs reference {r_sigma}")
    d_max, th_min = max(workload.config["d_values"]), min(workload.thetas)
    return problems, {
        "errors": {key: [e for e, _ in v] for key, v in cells.items()},
        "sound": sum(s >= e for v in cells.values() for e, s in v),
        "trial_rows": len(trial_rows),
        "final_rel": [e / truth for e, _ in cells[(d_max, th_min)]],
    }


def check_run(workload: Workload, extracts: list[dict]) -> tuple[list[str], dict]:
    """Accuracy bounds over every sweep of a run.  Returns (problems, stats)."""
    problems: list[str] = []
    stats: dict = {}
    if not extracts:
        return ["no sweep passed its checks"], stats
    if workload.command == "convergence" and not workload.noise_free:
        lo, hi = min(workload.thetas), max(workload.thetas)
        med = {th: statistics.median(f for e in extracts for f in e["finals"][th])
               for th in (lo, hi)}
        stats["median_final_rel_error"] = {str(k): v for k, v in med.items()}
        if not med[lo] < CRIT09_MEDIAN_MAX:
            problems.append(f"criterion 09: median final rel_error {med[lo]} at "
                            f"theta={lo} is not below {CRIT09_MEDIAN_MAX}")
        if not med[lo] <= med[hi]:
            problems.append(f"criterion 09: median final rel_error {med[lo]} at "
                            f"theta={lo} exceeds {med[hi]} at theta={hi}")
    if workload.command == "deriv-scaling":
        rows = sum(e["trial_rows"] for e in extracts)
        sound = sum(e["sound"] for e in extracts) / rows
        stats["cert_sound_frac"] = sound
        if sound < CRIT07_SOUND_MIN:
            problems.append(f"certificate sound in {sound:.3f} of rows < {CRIT07_SOUND_MIN}")
        floors = {}
        for th in workload.thetas:
            floors[th] = min(
                statistics.fmean(x for e in extracts for x in e["errors"][(D, th)])
                for D in workload.config["d_values"])
        ratio = floors[max(floors)] / floors[min(floors)]
        stats["noise_floor_ratio"] = ratio
        if not ratio >= CRIT06_RATIO_MIN:
            problems.append(f"criterion 06: noise-floor ratio {ratio} < {CRIT06_RATIO_MIN}")
    return problems, stats


def final_rel_error(workload: Workload, extract: dict) -> float:
    """Median relative error of the sweep's estimate at its largest resource
    (m or D) and smallest theta, over the trials of one sweep."""
    if workload.command == "convergence":
        return statistics.median(extract["finals"][min(workload.thetas)])
    return statistics.median(extract["final_rel"])
