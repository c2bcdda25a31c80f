"""Census of the library's settings: every defaulted parameter in
``src/cohpert`` other than ``tol`` is listed here, so that a new keyword
shows up in the same change that lists it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cohpert"

# (module, function, parameter) for every defaulted parameter other than tol
DEFAULTED = {
    ("channels", "make_channel", "spec"),
    ("channels", "erasure_channel", "dim"),
    ("channels", "identity_channel", "dim"),
    ("cli", "_parse_kv", "cast"),
    ("cli", "main", "argv"),
    ("criteria", "check_criterion1", "sense"),
    ("criteria", "check_criterion2", "sense"),
    ("criteria", "check_criterion3", "sense"),
    ("criteria", "default_witness_grid", "lo"),
    ("criteria", "default_witness_grid", "points"),
    ("criteria", "detect_superadditivity", "eps_grid"),
    ("criteria", "detect_private_gap", "eps_grid"),
    ("criteria", "criterion_margin", "sense"),
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


def test_defaulted_parameters_are_listed():
    assert defaulted_parameters() == DEFAULTED
