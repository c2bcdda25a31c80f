"""Scenario-output regression gate: each scenario at its default grid must
reproduce the CSV and the JSON ``report`` block committed under
``tests/golden``.

Verdicts, conclusions, boolean columns and every JSON string compare
exactly; numbers compare within ``1e-12 + 1e-9 * |golden|``, which is
round-off for these tables and far below any value a refactor may move.
The JSON comparison skips only each detector's ``criteria`` list, which
the golden files predate.

``eig_counts.json`` holds the number of calls each default run makes to
each numpy eigensolver and to ``complement``, machine-independent costs: a
change that moves a count updates that file and says why.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from cohpert import ScenarioConfig, info, perturbation, run_scenario
from cohpert.channels import complement
from cohpert.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("depolarizing-n2", "platypus-ad", "gap-depolarizing", "dephrasure-gap", "hashing-curve")
EIG_SOLVERS = ("eigh", "eigvalsh", "eigvals", "eig")
EXACT_COLUMNS = {"verdict", "conclusion", "below_positive_ic_boundary"}
IGNORED_JSON_KEYS = {"criteria"}


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def close(got, want):
    return abs(got - want) <= 1e-12 + 1e-9 * abs(want)


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
                assert close(float(g), float(w)), where


def assert_json_matches(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert set(got) - IGNORED_JSON_KEYS == set(want) - IGNORED_JSON_KEYS, where
        for key in want.keys() - IGNORED_JSON_KEYS:
            assert_json_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)) and close(float(got), want), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_reproduces_golden_json_report(name, tmp_path):
    run_scenario(ScenarioConfig(name, output=str(tmp_path), fmt="json"))
    with open(tmp_path / f"{name}.json", encoding="utf-8") as fh:
        got = json.load(fh)["report"]
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        want = json.load(fh)
    assert_json_matches(got, want, name)


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_eig_counts_match_golden(name, tmp_path, monkeypatch):
    counts = dict.fromkeys(EIG_SOLVERS + ("complement",), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    for solver in EIG_SOLVERS:
        monkeypatch.setattr(np.linalg, solver, counting(solver, getattr(np.linalg, solver)))
    # both modules import complement by name, so each holds its own binding
    for module in (info, perturbation):
        monkeypatch.setattr(module, "complement", counting("complement", complement))
    run_scenario(ScenarioConfig(name, output=str(tmp_path), fmt="csv"))
    with open(GOLDEN / "eig_counts.json", encoding="utf-8") as fh:
        assert counts == json.load(fh)[name]


def test_help_schemas_match_golden_headers(capsys):
    # the schema lines in `cohpert --help` come from the same table as the
    # columns each scenario writes
    with pytest.raises(SystemExit):
        main(["--help"])
    epilog = capsys.readouterr().out.split("CSV column schemas:\n")[1]
    schemas = dict(line.strip().split(": ") for line in epilog.splitlines())
    assert schemas == {name: ",".join(read_rows(GOLDEN / f"{name}.csv")[0]) for name in SCENARIOS}
