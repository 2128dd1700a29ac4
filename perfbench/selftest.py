"""Self-test of the outside-in tracer on tiny configs (about a second).

    python3 perfbench/selftest.py

Runs small CLI sweeps (Heisenberg n=4) with and without the tracer and
checks, exactly:

* ``measurement.forcing_norm_sq.calls`` = (m_max - 1) |theta| trials
* ``minimax.evaluate_component.calls`` = sum_m 2 (m - 1) per noisy cell
  (870 at m = 2..30)
* ``minimax.forcing_gram.calls`` = 2 per ``deriv-scaling`` cell
* no minimax span at all on a noise-free ``convergence`` sweep
* a traced sweep writes the same CSV bytes as an untraced one
* the layer self times add up to the traced ``cli.main`` time
* a ``SuperKrylovError`` is counted once, at the layer it leaves
* every original function is back in place afterwards

Prints one line per check and, last, ``{"passed": ..., "checks": ...}``;
exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

from sweep import _import_package
from tracer import GROUPS, Tracer
from workloads import Workload

WORK = Path(__file__).resolve().parent / "_work" / "selftest"

BASE = {"model": "heisenberg", "n": 4, "model_seed": 42, "gamma0": 0.25}
NOISY = dict(BASE, m_values=[2, 3, 4, 5, 6], theta_values=[1e-3], D=8, trials=2)
SCALING = dict(BASE, d_values=[5, 8], theta_values=[1e-3, 1e-2], trials=2)
EXACT = dict(BASE, m_values=[2, 3, 4, 5, 6], theta_values=[0.0])
# eps larger than any Gram eigenvalue: threshold_solve must raise
FAILING = dict(EXACT, eps_rule="fixed", eps_fixed=100.0)


def evaluate_component_calls(m_values) -> int:
    return sum(2 * (m - 1) for m in m_values)


def _sweep(cli, command: str, config: dict, tag: str, traced: bool):
    out = WORK / tag
    cfg = WORK / f"{tag}.cfg"
    cfg.write_text(Workload(tag, command, "", config).config_text(master_seed=7))
    argv = [command, "--config", str(cfg), "--out", str(out)]
    tracer = Tracer(tag).install() if traced else None
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.restore()
    return rc, out, tracer, elapsed


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    cli, _ = _import_package()
    checks: dict[str, bool] = {}

    def check(name: str, ok: bool, detail=""):
        checks[name] = bool(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())

    cases = (("noisy", "convergence", NOISY, "convergence.csv"),
             ("scaling", "deriv-scaling", SCALING, "deriv_scaling.csv"),
             ("exact", "convergence", EXACT, "convergence.csv"))
    originals = {}
    for short in GROUPS:
        mod = sys.modules[f"superkrylov.{short}"]
        originals.update({(short, k): v for k, v in vars(mod).items()
                          if callable(v)})
    layers, tracers = {}, {}
    for tag, command, config, csv_name in cases:
        rc0, plain, _, _ = _sweep(cli, command, config, tag, traced=False)
        rc1, traced, tracer, elapsed = _sweep(cli, command, config, tag + "-traced",
                                              traced=True)
        check(f"{tag}: both sweeps exit 0", rc0 == rc1 == 0, f"({rc0}, {rc1})")
        check(f"{tag}: traced CSV bytes identical",
              (plain / csv_name).read_bytes() == (traced / csv_name).read_bytes())
        tracers[tag] = tracer
        m = layers[tag] = tracer.metrics()
        accounted = sum(v for k, v in m.items() if k.endswith(".self_s")) / elapsed
        check(f"{tag}: self times account for run_s", 0.95 <= accounted <= 1.0 + 1e-9,
              f"({accounted:.4f})")
        check(f"{tag}: spans nest under one root",
              sum(1 for s in tracer.spans if s[3] < 0) == 1
              and tracer.spans[0][0] == "cli.main")

    cells = len(NOISY["theta_values"]) * NOISY["trials"]
    want = (max(NOISY["m_values"]) - 1) * cells
    got = layers["noisy"]["measurement.forcing_norm_sq.calls"]
    check("forcing_norm_sq.calls = (m_max-1)|theta|trials", got == want, f"({got} vs {want})")
    want = evaluate_component_calls(NOISY["m_values"]) * cells
    got = layers["noisy"]["minimax.evaluate_component.calls"]
    check("evaluate_component.calls = sum_m 2(m-1) per cell", got == want,
          f"({got} vs {want}; {evaluate_component_calls(range(2, 31))} at m=2..30)")
    want = 2 * len(SCALING["d_values"]) * len(SCALING["theta_values"]) * SCALING["trials"]
    got = layers["scaling"]["minimax.forcing_gram.calls"]
    check("forcing_gram.calls = 2 per deriv-scaling cell", got == want, f"({got} vs {want})")
    spans = [s for s in tracers["exact"].spans if s[0].startswith("minimax.")]
    check("exact: no minimax spans", not spans, f"({len(spans)})")
    # solver binds evaluate_x0 at import time: its calls must be traced too
    noisy = tracers["noisy"].spans
    check("names bound by importing modules are traced",
          any(s[0] == "minimax.evaluate_x0" and noisy[s[3]][0] == "solver.assemble_pair_minimax"
              for s in noisy))

    rc, _, tracer, _ = _sweep(cli, "convergence", FAILING, "failing", traced=True)
    errors = {k: v for k, v in tracer.metrics().items() if k.endswith(".errors")}
    check("error counted once, at the solver boundary",
          rc == 3 and errors.pop("solver.errors") == 1 and not any(errors.values()),
          f"(rc {rc})")

    restored = all(getattr(sys.modules[f"superkrylov.{short}"], k) is v
                   for (short, k), v in originals.items())
    check("original functions restored", restored and not tracer.patches)

    passed = all(checks.values())
    print(json.dumps({"passed": passed, "checks": checks}))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
