"""Write the golden CSVs: each ``<name>.cfg`` here, run through
``experiments.run``, gives ``<name>.csv`` beside it.

The configs are copies of the benchmark's three workloads at
``master_seed = 0``, so a change to the benchmark cannot move them.
``tests/test_golden.py`` reruns each one and compares its CSV with the file
written here.  Regenerate only for a change that is meant to move the
numbers, and record the deviations it quotes::

    PYTHONPATH=src python tests/golden/make.py
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from superkrylov import experiments

HERE = Path(__file__).resolve().parent

# config name -> CLI command
COMMANDS = {
    "noisy-convergence": "convergence",
    "deriv-scaling": "deriv-scaling",
    "exact-large": "convergence",
}


def run(name: str, out: str) -> Path:
    """Run the config ``name`` with its CSV and manifest going to ``out``;
    returns the CSV's path."""
    config = experiments.parse_config(str(HERE / f"{name}.cfg"))
    config.out = out
    return Path(experiments.run(COMMANDS[name], config))


def main():
    for name in COMMANDS:
        with tempfile.TemporaryDirectory() as out:
            shutil.copyfile(run(name, out), HERE / f"{name}.csv")
        print(HERE / f"{name}.csv")


if __name__ == "__main__":
    main()
