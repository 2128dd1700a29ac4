"""Write the golden CSVs: each ``<name>.cfg`` here, run through
``experiments.run`` for each of its commands, gives every CSV those runs
write, as ``<name>/<table>.csv``.

Three configs are copies of the benchmark's workloads at
``master_seed = 0``, so a change to the benchmark cannot move them; each
runs its workload's one command.  ``n4-M3`` and ``n4-M5`` (a four-site
Heisenberg chain at chain order M = 3 and M = 5) run all four commands.
``tests/test_golden.py`` reruns each config and compares every table with
the file written here.
Regenerate only for a change that is meant to move the numbers, and record
the deviations it quotes::

    PYTHONPATH=src python tests/golden/make.py
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from superkrylov import experiments

HERE = Path(__file__).resolve().parent

# config name -> the CLI commands it runs
COMMANDS = {
    "noisy-convergence": ("convergence",),
    "deriv-scaling": ("deriv-scaling",),
    "exact-large": ("convergence",),
    "n4-M3": tuple(experiments.COMMANDS),
    "n4-M5": tuple(experiments.COMMANDS),
}


def run(name: str, out: str) -> list[Path]:
    """Run each command of the config ``name`` with its CSVs and manifests
    going to ``out``; returns the paths of the CSVs, sorted."""
    config = experiments.parse_config(str(HERE / f"{name}.cfg"))
    config.out = out
    for command in COMMANDS[name]:
        experiments.run(command, config)
    return sorted(Path(out).glob("*.csv"))


def main():
    for name in COMMANDS:
        golden = HERE / name
        golden.mkdir(exist_ok=True)
        for stale in golden.glob("*.csv"):
            stale.unlink()
        with tempfile.TemporaryDirectory() as out:
            for path in run(name, out):
                shutil.copyfile(path, golden / path.name)
                print(golden / path.name)


if __name__ == "__main__":
    main()
