"""Census of the library's surface: every defaulted parameter in
``src/cohpert`` other than ``tol`` and every name in ``cohpert.__all__`` is
listed here, so that a new keyword or public name shows up in the same
change that lists it."""

import ast
from pathlib import Path

import cohpert

SRC = Path(__file__).resolve().parents[1] / "src" / "cohpert"

# (module, function, parameter) for every defaulted parameter other than tol
DEFAULTED = {
    ("channels", "make_channel", "spec"),
    ("channels", "erasure_channel", "dim"),
    ("channels", "identity_channel", "dim"),
    ("cli", "main", "argv"),
    ("criteria", "check_criterion", "sense"),
    ("criteria", "default_witness_grid", "lo"),
    ("criteria", "default_witness_grid", "points"),
    ("criteria", "detect_superadditivity", "eps_grid"),
    ("criteria", "detect_private_gap", "eps_grid"),
    ("criteria", "threshold_scan", "param_tol"),
    ("linalg", "spectral_decompose", "cluster_tol"),
    ("perturbation", "build", "a2"),
    ("perturbation", "build", "max_order"),
    ("scenarios", "platypus_ad_family", "a"),
    ("scenarios", "run_custom", "sense"),
}


def defaulted_parameters():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
                names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                found.update((path.stem, node.name, name) for name in names if name != "tol")
    return found


PUBLIC = {
    # channels
    "ChannelSpec", "QuantumChannel", "amplitude_damping_channel", "apply", "apply_matrix",
    "builtin", "channel_from_json", "complement", "depolarizing_channel",
    "dephrasure_channel", "erasure_channel", "identity_channel", "make_channel",
    "pauli_channel", "platypus_channel", "tensor", "tensor_all",
    # criteria
    "CriterionReport", "DetectorReport", "check_criterion",
    "complement_line_witness", "detect_private_gap", "detect_private_gap_via_complement",
    "detect_superadditivity", "threshold_scan",
    # errors
    "CPTPError", "DimensionError", "HermiticityError", "NoSignChangeError",
    "PositivityError", "RankCaseError",
    # info
    "Ensemble", "coherent_information", "holevo_information",
    "private_information", "von_neumann_entropy",
    # linalg
    "DensityMatrix", "HermitianOperator", "SpectralDecomposition", "spectral_decompose",
    # perturbation
    "DerivativeProfile", "FamilyEvaluator", "PerturbationFamily", "admissible_radius",
    "derivative_profile", "line_between", "optimal_line_search",
    "state_at", "w0_trace", "w_trace",
    # scenarios and tolerances
    "ScenarioConfig", "run_custom", "run_scenario", "Tolerances",
}


def test_defaulted_parameters_are_listed():
    assert defaulted_parameters() == DEFAULTED


def test_public_names_are_listed():
    assert len(cohpert.__all__) == len(set(cohpert.__all__))
    # test_all_exports_resolve checks that each of them resolves
    assert set(cohpert.__all__) == PUBLIC
