"""The demos, the README Quick start, the CLI help and the benchmark's
tracer self-test run against the package as it stands, each in a fresh
interpreter where a RuntimeWarning is an error, as in CI's package step;
the console script's target runs in this one, and the README's config
table is checked against the config's fields.  Sweeps in child processes
also check that the BLAS thread count leaves the CSV bytes alone."""

import dataclasses
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from superkrylov.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent


def _run(args, **env_overrides):
    # a numerical warning fails a child process as it fails pytest here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONWARNINGS": "error::RuntimeWarning", **env_overrides}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _assert_ok(proc):
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    _assert_ok(_run([str(ROOT / "demos" / demo)]))


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    _assert_ok(_run(["-c", code]))


def test_cli_help_lists_every_command():
    proc = _run(["-m", "superkrylov.cli", "--help"])
    _assert_ok(proc)
    for command in ("convergence", "deriv-scaling", "minimax-demo", "gram"):
        # listed with a help text, the first line of its runner's docstring
        assert re.search(rf"^ +{command} +\S", proc.stdout, re.M), command


def test_readme_config_table_lists_every_key_in_order():
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    keys = re.findall(r"^\| `(\w+)` \|", section.split("\n## ", 1)[0], re.M)
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]


def test_console_script_target_runs():
    # the installed `superkrylov` command calls this target
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1]
    module, func = re.search(r'^superkrylov\s*=\s*"([\w.]+):(\w+)"', scripts,
                             re.M).groups()
    main = getattr(importlib.import_module(module), func)
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0


def test_tracer_selftest_passes():
    # pins the names, arities and call counts the benchmark tracer binds
    _assert_ok(_run([str(ROOT / "perfbench" / "selftest.py")]))


def test_forcing_norm_sweep_never_imports_numpy_polynomial(tmp_path):
    # the forcing-norm rule is tabulated: a deriv-scaling sweep with noise
    # must not pay for importing numpy.polynomial or building leggauss
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("model = heisenberg\nn = 4\nmodel_seed = 42\n"
                   "theta_values = 0.001\nd_values = 5,9\ntrials = 1\n"
                   f"out = {tmp_path / 'out'}\n")
    code = ("import sys\n"
            "from superkrylov import cli\n"
            f"assert cli.main(['deriv-scaling', '--config', {str(cfg)!r}]) == 0\n"
            "assert 'numpy.polynomial' not in sys.modules\n")
    _assert_ok(_run(["-c", code]))


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("command, csv_name", [
    ("convergence", "convergence.csv"),
    ("deriv-scaling", "deriv_scaling.csv"),
])
def test_csv_bytes_do_not_depend_on_blas_threads(command, csv_name, tmp_path):
    # the stacked ridge solve and the eigensolves must not round differently
    # when the BLAS runs on more threads
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("model = heisenberg\nn = 4\nmodel_seed = 42\n"
                   "m_values = 2,3,4,5,6,7,8\ntheta_values = 0.0001,0.001\n"
                   "D = 15\nd_values = 5,10,20,40\ntrials = 2\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        _assert_ok(_run(["-m", "superkrylov.cli", command, "--config", str(cfg),
                         "--out", str(out)],
                        **{name: threads for name in BLAS_THREADS}))
        outputs.append((out / csv_name).read_bytes())
    assert outputs[0] == outputs[1]
