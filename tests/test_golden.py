"""The benchmark's three workload configs, copied into ``tests/golden``,
must reproduce the CSVs ``tests/golden/make.py`` wrote for them: integer
columns exactly, every real column to a relative 1e-12, so a zero stays
zero.  A failure names the file, the column and its largest deviation."""

import csv

import numpy as np
import pytest

from golden.make import COMMANDS, HERE, run

INTEGER_COLUMNS = {"m", "trial", "kept_dim", "D"}
RTOL = 1e-12


def _columns(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, len(rows), dict(zip(header, zip(*rows)))


def _relative_deviation(got, want):
    """|got - want| / |want| by entry; 0 where equal, inf where a zero moved."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(got == want, 0.0, np.abs(got - want) / np.abs(want))


@pytest.mark.parametrize("name", COMMANDS)
def test_workload_reproduces_its_golden_csv(name, tmp_path):
    golden = HERE / f"{name}.csv"
    header, rows, want = _columns(golden)
    *shape, got = _columns(run(name, str(tmp_path)))
    assert shape == [header, rows], golden.name
    for column in header:
        if column in INTEGER_COLUMNS:
            assert got[column] == want[column], f"{golden.name}: {column} differs"
            continue
        deviation = _relative_deviation(got[column], want[column])
        worst = int(np.argmax(deviation))
        assert deviation[worst] <= RTOL, (
            f"{golden.name}: {column} deviates by a relative "
            f"{deviation[worst]:.3g} at data row {worst + 1}")
