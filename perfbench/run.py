"""Sweep benchmark for superkrylov.

    python3 perfbench/run.py --workload noisy-convergence --seed 1 --seconds 30 --trace 0

Closed loop with one caller: the harness starts one fresh process per
sweep (``sweep.py``), waits for it, checks its CSV, and starts the next
until ``--seconds`` are used up.  The sweep processes run with
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
cleared, so OpenBLAS uses its own default thread count; the harness
itself never loads numpy.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the tracer self-test, then alternates an untraced and a traced sweep of
the same config (their CSVs must be byte-identical) and reports the
per-layer metrics.  The last line of standard output is the result
object; the environment, every sample and every check go to
``perfbench/_work/<workload>-seed<seed>-trace<t>/result.json``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a run, set-up included, must end within 180 s


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env.pop("PYTHONPATH", None)
    return env


def _call(script: str, args: list[str], timeout: float):
    """Run one child to completion; returns (last-line JSON or None, error)."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), *args], cwd=ROOT,
            env=_child_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"{script} timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    if proc.returncode != 0 or record is None:
        tail = (proc.stderr.strip() or proc.stdout.strip())[-400:]
        return record, f"{script} exited {proc.returncode}: {tail}"
    return record, None


def _host() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "inherited_blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: wl.Workload, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.reference = wl.load_reference()[workload.name]
        self.work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.samples: list[dict] = []
        self.traced: list[dict] = []
        self.started = time.monotonic()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def sweep(self, i: int, traced: bool) -> dict:
        """Run sweep ``i`` in a fresh process and check its output."""
        seed = wl.master_seed(self.seed, i)
        tag = f"sweep{i}" + ("-traced" if traced else "")
        cfg = self.work / f"sweep{i}.cfg"
        cfg.write_text(self.workload.config_text(seed))
        out = self.work / tag
        args = ["--config", str(cfg), "--command", self.workload.command,
                "--out", str(out)]
        if traced:
            args += ["--spans", str(self.work / f"{tag}-spans.csv"),
                     "--run-id", f"{self.workload.name}-{self.seed}-{i}"]
        record, error = _call("sweep.py", args, self.remaining())
        sample = {"sweep": i, "master_seed": seed, "traced": traced,
                  "problems": [error] if error else [], "extract": {}}
        if record:
            sample.update(record)
        if not error:
            sample["problems"], sample["extract"] = wl.check_sweep(
                self.workload, out / self.workload.csv_name, seed, self.reference)
        return sample

    def loop(self):
        """Closed loop: sweeps back to back until the run's seconds are used."""
        t0 = time.monotonic()
        i = 0
        while True:
            sample = self.sweep(i, traced=False)
            self.samples.append(sample)
            if self.trace:
                traced = self.sweep(i, traced=True)
                name = self.workload.csv_name
                if not traced["problems"] and (
                        (self.work / f"sweep{i}" / name).read_bytes()
                        != (self.work / f"sweep{i}-traced" / name).read_bytes()):
                    traced["problems"].append("traced CSV differs from untraced CSV")
                self.traced.append(traced)
            i += 1
            elapsed = time.monotonic() - t0
            per_sweep = elapsed / i
            # start another sweep only if it should end within half a sweep
            # of --seconds, so runs last --seconds on average
            if elapsed + per_sweep / 2 > self.seconds or per_sweep > self.remaining() - 5:
                break


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def main() -> int:
    parser = argparse.ArgumentParser(description="superkrylov sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "superkrylov" / "cli.py").is_file():
        print(f"no superkrylov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    # also the warm-up: byte-compiles the package and pages in numpy
    env, error = _call("sweep.py", ["--env"], run.remaining())
    if error:
        print(f"cannot start the program: {error}", file=sys.stderr)
        return 2
    env.update(_host())
    selftest = None
    if run.trace:
        selftest, error = _call("selftest.py", [], run.remaining())
        selftest = selftest or {"passed": False, "error": error}

    run.loop()

    workload = run.workload
    everything = run.samples + run.traced
    failed = sum(1 for s in everything if s["problems"])
    good = [s for s in run.samples if not s["problems"]]
    if not good:
        print("no sweep succeeded:", run.samples[0]["problems"][:3], file=sys.stderr)
        return 1
    run_problems, stats = wl.check_run(workload, [s["extract"] for s in good])
    if selftest is not None and not selftest.get("passed"):
        run_problems.append(f"tracer self-test failed: {selftest}")

    run_s = [s["run_s"] for s in good]
    summary = {
        "run_s_max": max(run_s),
        "run_s_samples": len(run_s),
        "failed_frac": failed / len(everything),
        **stats,
    }
    if run.trace:
        metrics = _layer_metrics(run, good)
    else:
        # the reference sweep's accuracy; if it failed, correct is false anyway
        reference = run.samples[0] if not run.samples[0]["problems"] else good[0]
        metrics = {
            "setup_s": _median(good, "setup_s"),
            "run_s": statistics.median(run_s),
            "rows_per_s": statistics.median(s["extract"]["rows"] / s["run_s"] for s in good),
            "peak_rss_mb": _median(good, "peak_rss_mb"),
            "final_rel_error": wl.final_rel_error(workload, reference["extract"]),
        }
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if run.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    correct = failed == 0 and not run_problems

    with open(run.work / "result.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "correct": correct, "metrics": metrics,
                   "summary": summary, "run_problems": run_problems,
                   "selftest": selftest,
                   "samples": [{k: v for k, v in s.items() if k != "extract"}
                               for s in everything]},
                  fh, indent=1)

    print(f"# workload {workload.name}, seed {args.seed}, {len(everything)} sweeps, "
          f"closed loop, 1 caller")
    print("# environment " + json.dumps(env))
    problems = run_problems + [p for s in everything for p in s["problems"]]
    for problem in problems[:20]:
        print(f"# FAILED CHECK: {problem}")
    for key, value in summary.items():
        print(f"# {key} {value}")
    for key in units:
        print(f"{key} {metrics[key]} {units[key]}")
    print(json.dumps({
        "correct": correct, "attempted": len(everything), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def _layer_metrics(run: Run, good: list[dict]) -> dict:
    """Means over the traced sweeps, so the self times add up to run_s."""
    traced = [s for s in run.traced if not s["problems"]] or run.traced
    layers = [s["layers"] for s in traced if "layers" in s]
    if not layers:
        return {}
    out = {k: statistics.fmean(layer[k] for layer in layers) for k in layers[0]}
    traced_run_s = statistics.fmean(s["run_s"] for s in traced)
    out["trace.run_s"] = traced_run_s
    out["trace.accounted_frac"] = sum(
        v for k, v in out.items() if k.endswith(".self_s")) / traced_run_s
    out["trace.overhead_frac"] = (
        statistics.median(s["run_s"] for s in traced)
        / statistics.median(s["run_s"] for s in good) - 1.0)
    return out


if __name__ == "__main__":
    sys.exit(main())
