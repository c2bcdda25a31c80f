"""Scenario-output regression gate: each scenario at its default grid must
reproduce the CSV committed under ``tests/golden``.

Verdicts, conclusions and boolean columns compare exactly; numbers compare
within ``1e-12 + 1e-9 * |golden|``, which is round-off for these tables and
far below any value a refactor may move.
"""

import csv
from pathlib import Path

import pytest

from cohpert import ScenarioConfig, run_scenario

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("depolarizing-n2", "platypus-ad", "gap-depolarizing", "dephrasure-gap", "hashing-curve")
EXACT_COLUMNS = {"verdict", "conclusion", "below_positive_ic_boundary"}


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_reproduces_golden_csv(name, tmp_path):
    run_scenario(ScenarioConfig(name, output=str(tmp_path), fmt="csv"))
    want = read_rows(GOLDEN / f"{name}.csv")
    got = read_rows(tmp_path / f"{name}.csv")
    assert got[0] == want[0]
    assert len(got) == len(want)
    for line, (got_row, want_row) in enumerate(zip(got[1:], want[1:]), start=2):
        assert len(got_row) == len(want_row)
        for column, g, w in zip(want[0], got_row, want_row):
            where = f"{name}.csv line {line}, column {column}"
            if column in EXACT_COLUMNS or not w:
                assert g == w, where
            else:
                assert abs(float(g) - float(w)) <= 1e-12 + 1e-9 * abs(float(w)), where
