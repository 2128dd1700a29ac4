"""Each config in ``tests/golden`` (the benchmark's three workloads and the
four-site chain at M = 3) must reproduce every CSV
``tests/golden/make.py`` wrote for it: integer and string columns exactly,
every real column to a relative 1e-12, so a zero stays zero.  A failure
names the file, the column and its largest deviation."""

import csv

import numpy as np
import pytest

from golden.make import COMMANDS, HERE, run

EXACT_COLUMNS = {"m", "trial", "kept_dim", "D", "row", "col", "source"}
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
    written = {path.name: path for path in run(name, str(tmp_path))}
    goldens = sorted((HERE / name).glob("*.csv"))
    assert sorted(written) == [golden.name for golden in goldens], name
    for golden in goldens:
        label = f"{name}/{golden.name}"
        header, rows, want = _columns(golden)
        *shape, got = _columns(written[golden.name])
        assert shape == [header, rows], label
        for column in header:
            if column in EXACT_COLUMNS:
                assert got[column] == want[column], f"{label}: {column} differs"
                continue
            deviation = _relative_deviation(got[column], want[column])
            worst = int(np.argmax(deviation))
            assert deviation[worst] <= RTOL, (
                f"{label}: {column} deviates by a relative "
                f"{deviation[worst]:.3g} at data row {worst + 1}")
