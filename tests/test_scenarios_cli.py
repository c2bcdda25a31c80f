import json
import os

import numpy as np
import pytest

from cohpert import RankCaseError, ScenarioConfig, run_custom, run_scenario
from cohpert.cli import main
from cohpert.perturbation import FamilyEvaluator
from cohpert.scenarios import GridSpec, dephrasure_positive_ic_boundary, family_from_json

from conftest import (
    matrix_to_pairs,
    plain_images,
    plain_kernel_trace,
    plain_log_trace,
    plain_second_derivative_nats,
    plain_w0,
    random_channel,
    random_density,
    random_pure,
    random_traceless,
)


def identity_check_config():
    return {
        "channel": {"family": "identity", "params": {"dim": 2}},
        "family": {
            "base": matrix_to_pairs(np.eye(2) / 2),
            "a1": matrix_to_pairs(np.zeros((2, 2))),
            "a2": None,
            "max_order": 2,
        },
        "criterion": "C3",
        "sense": "positive_f",
    }


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(0.3, 0.2, 5)
    with pytest.raises(ValueError):
        GridSpec(0.1, 0.2, 1)


def test_scenario_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="warp-drive")
    with pytest.raises(ValueError):
        ScenarioConfig(scenario="hashing-curve", fmt="xml")


def test_hashing_curve_scenario(tmp_path):
    cfg = ScenarioConfig(
        scenario="hashing-curve",
        grid=GridSpec(0.2, 0.3, 11),
        output=str(tmp_path),
    )
    summary = run_scenario(cfg)
    report = summary["report"]["report"]
    assert report["zero_crossing"] == pytest.approx(0.25239, abs=2e-4)
    csv_text = read(summary["csv"])
    assert csv_text.splitlines()[0] == "p,ic_bits"
    assert len(csv_text.splitlines()) == 12


def test_hashing_curve_deterministic_csv(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run_scenario(
            ScenarioConfig(
                scenario="hashing-curve", grid=GridSpec(0.0, 0.3, 7), output=str(out)
            )
        )
    assert read(out_a / "hashing-curve.csv") == read(out_b / "hashing-curve.csv")


def test_gap_depolarizing_scenario(tmp_path):
    cfg = ScenarioConfig(
        scenario="gap-depolarizing", params={"p": 0.1}, output=str(tmp_path)
    )
    summary = run_scenario(cfg)
    rows = summary["report"]["rows"]
    assert len(rows) == 1
    row = rows[0]
    assert row["conclusion"] == "gap_detected"
    assert row["admissible_r"] == pytest.approx(0.5, abs=2e-6)
    assert row["kernel_trace_env"] == pytest.approx(row["kernel_trace_env_analytic"], abs=1e-12)
    detections = summary["report"]["report"]["detections"]
    assert detections[0]["conclusion"] == "gap_detected"


def test_depolarizing_n2_scenario_reports_absent_threshold(tmp_path):
    cfg = ScenarioConfig(
        scenario="depolarizing-n2", grid=GridSpec(0.18, 0.22, 3), output=str(tmp_path)
    )
    summary = run_scenario(cfg)
    report = summary["report"]["report"]
    assert report["threshold"] is None
    assert report["superadditive_detections"] == []
    for row in summary["report"]["rows"]:
        assert row["margin"] < 0
        assert row["conclusion"] == "inconclusive"


def test_platypus_ad_scenario(tmp_path):
    cfg = ScenarioConfig(
        scenario="platypus-ad",
        params={"gamma": 0.5, "a": 0.99, "w": 0.3},
        grid=GridSpec(0.2, 0.3, 2),
        output=str(tmp_path),
    )
    summary = run_scenario(cfg)
    rows = summary["report"]["rows"]
    assert all(row["conclusion"] == "superadditive" for row in rows)
    assert summary["report"]["report"]["superadditive_detections"]


def test_dephrasure_gap_scenario(tmp_path):
    boundary = dephrasure_positive_ic_boundary(0.1)
    cfg = ScenarioConfig(
        scenario="dephrasure-gap",
        params={"p": 0.1},
        grid=GridSpec(0.25, 0.45, 3),
        output=str(tmp_path),
    )
    summary = run_scenario(cfg)
    rows = summary["report"]["rows"]
    inside = [r for r in rows if r["q"] < boundary]
    outside = [r for r in rows if r["q"] > boundary + 0.02]
    assert inside and all(r["conclusion"] == "gap_detected" for r in inside)
    assert outside and all(r["ic_primary"] <= 1e-6 for r in outside)


def test_run_custom_identity_zero_perturbation():
    cfg = identity_check_config()
    report = run_custom(cfg["channel"], cfg["family"], cfg["criterion"], cfg["sense"])
    assert report.verdict == "fails"
    assert report.margin == pytest.approx(0.0, abs=1e-12)


CUSTOM_CASES = [
    ("full", "C3", "positive_f"),
    ("full", "C3", "negative_f"),
    ("pure", "C1", "positive_f"),
    ("pure", "C1", "negative_f"),
    ("pure", "C2", "positive_f"),
    ("pure", "C2", "negative_f"),
]


@pytest.mark.parametrize("d_out", [4, 16])
@pytest.mark.parametrize("base_kind, criterion, sense", CUSTOM_CASES)
def test_run_custom_matches_plain_numpy_references(rng, d_out, base_kind, criterion, sense):
    # d_in = d_env = sqrt(d_out): a full-rank base keeps both outputs full
    # rank (C3), a pure base leaves a kernel on the output side (C1, C2)
    d = int(round(d_out ** 0.5))
    kraus = np.array(random_channel(rng, d, d_out, d).kraus)
    if base_kind == "full":
        base = 0.5 * random_density(rng, d).matrix + 0.5 * np.eye(d) / d
        a1 = random_traceless(rng, d).matrix
        a1 = a1 * (0.1 / d / np.linalg.norm(a1))
    else:
        base = random_pure(rng, d).matrix
        a1 = random_density(rng, d).matrix - base
    a2 = random_traceless(rng, d).matrix
    a2 = a2 * (0.05 / d / np.linalg.norm(a2))
    report = run_custom(
        {"family": "custom_kraus", "params": {"kraus": [matrix_to_pairs(k) for k in kraus]}},
        {"base": matrix_to_pairs(base), "a1": matrix_to_pairs(a1), "a2": matrix_to_pairs(a2)},
        criterion,
        sense,
    )
    assert report.verdict != "inapplicable"
    flip = 1.0 if sense == "positive_f" else -1.0
    (out0, env0), (out1, env1), (out2, env2) = (plain_images(kraus, m) for m in (base, a1, a2))
    if criterion == "C3":
        fd = plain_second_derivative_nats(kraus, base, a1, a2)
        assert flip * report.margin == pytest.approx(fd, rel=1e-5, abs=1e-7)
        checks = dict(report.first_order_checks)
        assert checks["out[log_a1]"] == pytest.approx(plain_log_trace(out0, out1), rel=1e-8, abs=1e-9)
        assert checks["env[log_a1]"] == pytest.approx(plain_log_trace(env0, env1), rel=1e-8, abs=1e-9)
        return
    if criterion == "C1":
        out_side, env_side = plain_kernel_trace(out0, out1), plain_kernel_trace(env0, env1)
    else:
        out_side, env_side = plain_w0(out0, out1, out2), plain_w0(env0, env1, env2)
    lhs, rhs = (out_side, env_side) if flip > 0 else (env_side, out_side)
    assert report.lhs == pytest.approx(lhs, rel=1e-8, abs=1e-9)
    assert report.rhs == pytest.approx(rhs, rel=1e-8, abs=1e-9)


def test_family_from_json_validation():
    with pytest.raises(ValueError):
        family_from_json({"base": matrix_to_pairs(np.eye(2) / 2)})
    with pytest.raises(ValueError):
        family_from_json("not an object")


def test_cli_scenario_verb(tmp_path, capsys):
    code = main(
        [
            "scenario",
            "hashing-curve",
            "--grid",
            "0.2:0.3:5",
            "--out",
            str(tmp_path),
            "--format",
            "csv",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "hashing-curve.csv" in out
    assert os.path.exists(tmp_path / "hashing-curve.csv")


def test_cli_check_verb(tmp_path, capsys):
    config = tmp_path / "check.json"
    config.write_text(json.dumps(identity_check_config()))
    assert main(["check", str(config)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["verdict"] == "fails"
    assert body["criterion"] == "C3"


def test_cli_check_malformed_json(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text("{not json")
    assert main(["check", str(config)]) == 1
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {config} (line 1, column 2)")


@pytest.mark.parametrize("verb", ["check", "scan"])
def test_cli_unreadable_config_is_an_error(tmp_path, capsys, verb):
    missing = tmp_path / "missing.json"
    assert main([verb, str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_cli_check_missing_field_is_an_error(tmp_path, capsys):
    config = identity_check_config()
    del config["criterion"]
    path = tmp_path / "check.json"
    path.write_text(json.dumps(config))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == "error: config is missing field 'criterion'\n"


def test_cli_scan_verb(tmp_path, capsys):
    config = tmp_path / "scan.json"
    config.write_text(
        json.dumps(
            {
                "scenario": "hashing-curve",
                "grid": {"lo": 0.2, "hi": 0.3, "steps": 5},
                "output": str(tmp_path),
                "format": "json",
            }
        )
    )
    assert main(["scan", str(config)]) == 0
    assert os.path.exists(tmp_path / "hashing-curve.json")


def test_cli_rejects_unknown_scenario_config(tmp_path, capsys):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"scenario": "warp-drive"}))
    assert main(["scan", str(config)]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_scan_rejects_custom_scenario(tmp_path, capsys):
    # a single criterion from JSON runs through `cohpert check`, not a scan
    config = tmp_path / "scan.json"
    payload = {"scenario": "custom", "output": str(tmp_path / "out"), **identity_check_config()}
    config.write_text(json.dumps(payload))
    assert main(["scan", str(config)]) == 1
    assert capsys.readouterr().err.startswith("error: unknown scenario 'custom'")
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("steps", [2.9, "3", True])
def test_cli_scan_rejects_non_whole_grid_steps(tmp_path, capsys, steps):
    config = tmp_path / "scan.json"
    out = tmp_path / "out"
    grid = {"lo": 0.2, "hi": 0.3, "steps": steps}
    config.write_text(json.dumps({"scenario": "hashing-curve", "grid": grid, "output": str(out)}))
    assert main(["scan", str(config)]) == 1
    assert capsys.readouterr().err == f"error: grid steps must be a whole number, got {steps!r}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("grid", [{"lo": 0.0, "hi": 0.3}, [0.0, 0.3, 4]])
def test_cli_scan_malformed_grid_is_an_error(tmp_path, capsys, grid):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({"scenario": "hashing-curve", "grid": grid}))
    with pytest.raises(ValueError, match="grid"):
        ScenarioConfig.from_json({"scenario": "hashing-curve", "grid": grid})
    assert main(["scan", str(config)]) == 1
    assert "error: grid must be an object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--param", "foo"], ["--param", "p=abc"], ["--tol", "kernel_tol"]],
)
def test_cli_malformed_key_value_is_an_error(tmp_path, capsys, flags):
    code = main(["scenario", "gap-depolarizing", "--out", str(tmp_path), *flags])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "config, key",
    [
        ({"scenario": "hashing-curve", "params": [1, 2]}, "params"),
        ({"scenario": "gap-depolarizing", "params": {"p": None}}, "'p'"),
    ],
)
def test_cli_scan_malformed_params_is_an_error(tmp_path, capsys, config, key):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({**config, "output": str(tmp_path / "out")}))
    with pytest.raises(ValueError, match=key):
        ScenarioConfig.from_json(config)
    assert main(["scan", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {"scenario": "hashing-curve", "grid": {"lo": "0.2", "hi": True, "steps": 3}},
            "grid lo must be a number, got '0.2'",
        ),
        (
            {"scenario": "hashing-curve", "grid": {"lo": 0.2, "hi": True, "steps": 3}},
            "grid hi must be a number, got True",
        ),
        ({"scenario": "gap-depolarizing", "params": {"p": True}}, "param 'p' must be a number, got True"),
        ({"scenario": "gap-depolarizing", "params": {"p": "0.1"}}, "param 'p' must be a number, got '0.1'"),
        ({"scenario": "hashing-curve", "output": None}, "output must be a string, got None"),
        ({"scenario": "hashing-curve", "output": 5}, "output must be a string, got 5"),
        ({"scenario": "hashing-curve", "format": ["csv"]}, "format must be a string, got ['csv']"),
        ({"scenario": ["hashing-curve"]}, "scenario must be a string, got ['hashing-curve']"),
    ],
)
def test_cli_scan_rejects_values_that_are_not_json_numbers_or_strings(
    tmp_path, capsys, monkeypatch, config, message
):
    # run from an empty directory: a scan that accepted the config would
    # write there ("." by default, "None" or "5" for those outputs)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(config))
    assert main(["scan", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["scan.json"]


def test_cli_check_missing_channel_parameter_is_an_error(tmp_path, capsys):
    config = identity_check_config()
    config["channel"] = {"family": "depolarizing", "params": {}}
    path = tmp_path / "check.json"
    path.write_text(json.dumps(config))
    assert main(["check", str(path)]) == 1
    assert "error: channel family 'depolarizing' needs parameter 'p'" in capsys.readouterr().err


def test_cli_check_unknown_criterion_is_an_error(tmp_path, capsys):
    path = tmp_path / "check.json"
    path.write_text(json.dumps({**identity_check_config(), "criterion": "C4"}))
    assert main(["check", str(path)]) == 1
    assert "error: unknown criterion 'C4'; expected one of C1, C2, C3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "channel, name",
    [
        ({"family": "depolarizing", "params": {"p": None}}, "p"),
        ({"family": "platypus", "params": {"s": "half"}}, "s"),
        ({"family": "pauli", "params": {"probs": None}}, "probs"),
        ({"family": "identity", "params": {"dim": None}}, "dim"),
        ({"family": "identity", "params": {"dim": 2.5}}, "dim"),
        ({"family": "erasure", "params": {"q": 0.1, "dim": True}}, "dim"),
        ({"family": "identity", "params": {"dim": 0}}, "dim"),
        # a JSON true or string is not a number, though float() would take it
        ({"family": "depolarizing", "params": {"p": True}}, "p"),
        ({"family": "depolarizing", "params": {"p": "0.1"}}, "p"),
        ({"family": "pauli", "params": {"probs": [True, False, False, False]}}, "probs"),
        # input and output dimensions stay within DEFAULT_DIM_CAP (256)
        ({"family": "identity", "params": {"dim": 257}}, "dim"),
        ({"family": "erasure", "params": {"q": 0.1, "dim": 10**7}}, "dim"),
    ],
)
def test_cli_check_non_numeric_channel_parameter_is_an_error(tmp_path, capsys, channel, name):
    config = identity_check_config()
    config["channel"] = channel
    path = tmp_path / "check.json"
    path.write_text(json.dumps(config))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: parameter {name} must be ")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda config: 5, "check config must be a JSON object"),
        (lambda config: {**config, "channel": {"family": "custom_kraus", "params": {"kraus": 5}}},
         "parameter kraus must be a list"),
        (lambda config: {**config, "channel": {"family": "depolarizing", "params": [0.1]}},
         "channel params must be an object"),
        (lambda config: {**config, "channel": {"family": "tensor", "children": 5}},
         "channel children must be a list"),
        (lambda config: {**config, "family": {**config["family"], "max_order": None}},
         "max_order must be an integer"),
        (lambda config: {**config, "channel": {"family": "custom_kraus", "params": {"kraus": [
            [[["1", 0.0], [0.0, 0.0]], [[0.0, 0.0], ["1", 0.0]]]]}}},
         "matrix entries must be [re, im] pairs of numbers, got str"),
        (lambda config: {**config, "family": {**config["family"], "base": [
            [[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [False, 0.0]]]}},
         "matrix entries must be [re, im] pairs of numbers, got bool"),
    ],
    ids=["top_level_number", "kraus_number", "params_list", "children_number", "max_order_null",
         "kraus_string_entry", "base_bool_entry"],
)
def test_cli_check_malformed_config_shape_is_an_error(tmp_path, capsys, edit, message):
    path = tmp_path / "check.json"
    path.write_text(json.dumps(edit(identity_check_config())))
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_cli_scan_ignores_legacy_seed_and_jobs(tmp_path):
    csv_text = []
    for name, legacy in (("plain", {}), ("legacy", {"seed": 7, "jobs": 2})):
        config = tmp_path / f"{name}.json"
        out = tmp_path / name
        config.write_text(
            json.dumps(
                {
                    "scenario": "hashing-curve",
                    "grid": {"lo": 0.2, "hi": 0.3, "steps": 5},
                    "output": str(out),
                    "format": "csv",
                    **legacy,
                }
            )
        )
        assert main(["scan", str(config)]) == 0
        csv_text.append(read(out / "hashing-curve.csv"))
    assert csv_text[0] == csv_text[1]


def test_cli_tol_override_runs(tmp_path):
    # --tol builds a value for its own run only: it changes that run's
    # output, and a default run after it matches a default run before it
    def run(name, *flags):
        out = tmp_path / name
        assert main(["scenario", "gap-depolarizing", "--out", str(out), *flags]) == 0
        return [read(out / f"gap-depolarizing.{ext}") for ext in ("csv", "json")]

    fresh = run("fresh")
    # kernel_tol=0.1 puts the output eigenvalue 0.05 in the kernel, so the
    # conclusion turns inconclusive
    assert run("override", "--tol", "kernel_tol=0.1") != fresh
    assert run("after") == fresh


@pytest.mark.parametrize("name, per_row", [("gap-depolarizing", 1), ("platypus-ad", 2)])
def test_scenario_rows_build_one_evaluator_per_search_and_detector(
    tmp_path, monkeypatch, name, per_row
):
    # the rows read their criterion columns from the detector's reports; a
    # platypus-ad row also runs one line search for its optimal state
    built = []
    init = FamilyEvaluator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FamilyEvaluator, "__init__", counting_init)
    rows = run_scenario(ScenarioConfig(name, output=str(tmp_path), fmt="json"))["report"]["rows"]
    assert len(built) == per_row * len(rows)


def test_depolarizing_n2_needs_full_rank_outputs(tmp_path):
    # at p = 0 the environment output has a kernel, so no w trace exists
    cfg = ScenarioConfig("depolarizing-n2", grid=GridSpec(0.0, 0.1, 3), output=str(tmp_path))
    with pytest.raises(RankCaseError):
        run_scenario(cfg)


def test_cli_tol_rejects_unknown_name(tmp_path, capsys):
    # cptp_tol is a fixed constant, not a field of Tolerances
    for name in ("bogus", "cptp_tol"):
        code = main(
            [
                "scenario",
                "hashing-curve",
                "--grid",
                "0.2:0.3:4",
                "--out",
                str(tmp_path),
                "--tol",
                f"{name}=1",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: unknown tolerance {name!r}; tunable: ")


def test_all_exports_resolve():
    import cohpert

    assert [name for name in cohpert.__all__ if not hasattr(cohpert, name)] == []


def test_csv_floats_use_17_significant_digits(tmp_path):
    run_scenario(
        ScenarioConfig(
            scenario="hashing-curve", grid=GridSpec(0.0, 0.3, 4), output=str(tmp_path)
        )
    )
    lines = read(tmp_path / "hashing-curve.csv").splitlines()
    first_ic = lines[1].split(",")[1]
    assert float(first_ic) == 1.0
    # a non-representable value keeps full precision
    assert len(lines[2].split(",")[1].replace("-", "").replace(".", "").lstrip("0")) >= 15
