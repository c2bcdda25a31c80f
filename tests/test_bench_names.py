"""The benchmark tracer binds cohpert functions by name (``GROUPS`` in
``bench/tracing.py``); a name that no longer resolves makes its metrics read
0 without an error.  This test reads the table, runs no workload, and keeps
the set of dead names from growing."""

import importlib.util
from pathlib import Path

import numpy as np

import cohpert

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# names the tracer still binds although the library renamed or deleted them;
# repairing the tracer shrinks this set, and nothing may join it
DEAD = {
    "linalg.psd_min_eig",
    "info.golden_section_maximize",
    "perturbation.f_eval",
    "criteria.check_criterion1",
    "criteria.check_criterion2",
    "criteria.check_criterion3",
    "criteria.classify_first_order",
}


def tracer_groups():
    spec = importlib.util.spec_from_file_location("cohpert_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


def resolves(name):
    head, *path = name.split(".")
    obj = np.linalg if head == "numpy" else getattr(cohpert, head, None)
    for attr in path:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_tracer_names_resolve_except_the_known_dead():
    names = set(tracer_groups())
    dead = {name for name in names if not resolves(name)}
    assert dead <= DEAD, f"tracer names that no longer resolve: {sorted(dead - DEAD)}"
    for name in ("channels.apply", "channels.apply_matrix", "channels.make_channel",
                 "channels.complement", "numpy.eigh", "linalg.DensityMatrix.from_matrix"):
        assert name in names and resolves(name)
