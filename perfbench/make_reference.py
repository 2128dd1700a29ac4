"""Regenerate ``reference.json``: the committed outputs the benchmark checks.

    python3 perfbench/make_reference.py

For each workload this runs the reference sweep (``master_seed`` =
``workloads.REFERENCE_SEED``) exactly as the benchmark does and stores
the compared columns of its CSV, plus the exact quantities the checks
need: the ground energy ``lam0`` (cross-checked against
``scipy.linalg.eigvalsh``), the known top energy, and for
``deriv-scaling`` the exact derivative at ``t*``.  Run it only when a
change is meant to alter the numbers, and say so in the change.
"""

from __future__ import annotations

import json
import re
import shutil

import workloads as wl
from run import WORK, _call
from sweep import _import_package


def exact_quantities(config_path: str) -> dict:
    _, experiments = _import_package()
    import scipy.linalg
    from superkrylov import pauli
    from superkrylov.dynamics import recovery_derivative

    config = experiments.parse_config(config_path)
    ctx = experiments.build_context(config)
    if config.model == "heisenberg":
        ham = pauli.heisenberg_chain(config.n, seed=config.model_seed)
        lam0 = float(scipy.linalg.eigvalsh(pauli.assemble_dense(ham))[0])
        if abs(lam0 - ctx.lam0) > 1e-10 * abs(lam0):
            raise SystemExit(f"eigh disagrees with scipy: {ctx.lam0} vs {lam0}")
    return {
        "lam0": ctx.lam0,
        "top_energy": ctx.top_energy,
        "true_derivative": recovery_derivative(ctx.spec, ctx.v, 0, 1, ctx.t_star, 1),
    }


def main():
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = {}
    for name, workload in wl.WORKLOADS.items():
        cfg = work / f"{name}.cfg"
        cfg.write_text(workload.config_text(wl.REFERENCE_SEED))
        out = work / name
        _, error = _call("sweep.py", ["--config", str(cfg), "--command",
                                      workload.command, "--out", str(out)], 170)
        if error:
            raise SystemExit(error)
        _, rows = wl.read_csv(out / workload.csv_name)
        cols = (5, 8) if workload.command == "convergence" else (3, 4)
        entry = exact_quantities(str(cfg))
        entry["rows"] = [[float(r[cols[0]]), float(r[cols[1]])] for r in rows]
        reference[name] = entry
        print(name, {k: v for k, v in entry.items() if k != "rows"})
    # one line per CSV row keeps the file reviewable as a diff
    text = json.dumps(reference, indent=1)
    text = re.sub(r"\[\s+(\S+),\s+(\S+)\s+\]", r"[\1, \2]", text)
    wl.REFERENCE_FILE.write_text(text + "\n")


if __name__ == "__main__":
    main()
