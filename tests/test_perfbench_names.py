"""The names the benchmark harness reaches into must keep resolving.

``perfbench/experiment.py`` wraps callables at the names where their callers
look them up, and its ``_patch`` silently skips a name that no longer exists:
a renamed phase would fail every benchmark operation, a renamed layer would
read 0. Both files are loaded from their paths, as ``test_goldens.py`` loads
``check.py``; ``install`` runs with ``_patch`` replaced by a recorder, so no
wrapper is left installed.
"""

import importlib.util
from pathlib import Path

from drdga import engine
from drdga.problem import CoupledProblem

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (where the name is looked up, the name): every target install(trace=True)
# wraps and finds today.
WRAPPED = {
    # The seven phases of one experiment.
    ("drdga.config", "parse_config"),
    ("drdga.cli", "solve_centralized"),
    ("drdga.engine", "run_until"),
    ("drdga.baseline", "cdda_run_until"),
    ("drdga.metrics", "constants_from_run"),
    ("drdga.cli", "write_csv"),
    ("drdga.cli", "write_summary"),
    # The traced layers.
    ("drdga.config", "make_num_problem"),
    ("drdga.config", "make_quadratic_problem"),
    ("drdga.config", "generate_graph_sequence"),
    ("drdga.engine", "build_weight_matrix"),
    ("drdga.engine", "stopping_residuals"),
    ("drdga.baseline", "metropolis_matrix"),
    ("drdga.reference", "solve_local"),
    ("CoupledProblem", "coupling_residual"),
}


def test_every_name_install_wraps_resolves(monkeypatch):
    experiment = load("experiment")
    found = []

    def recording(tracer, target, attr, wrap, label):
        found.append((target, attr, getattr(target, attr, None)))

    monkeypatch.setattr(experiment, "_patch", recording)
    experiment.install(experiment.Tracer(), trace=True)
    resolved = {(target.__name__, attr) for target, attr, fn in found if fn is not None}
    assert WRAPPED <= resolved, sorted(WRAPPED - resolved)
    # Read, while tracing, as targets of their own.
    assert {"DiagonalQuadratic", "LogUtility"} <= {target.__name__ for target, _, _ in found}
    assert all(getattr(target, attr, None) is fn for target, attr, fn in found)


def test_names_check_output_reads_resolve():
    check = load("check")
    assert callable(check.check_output)
    # check_output reads both on every run it checks.
    assert isinstance(CoupledProblem.__dict__["agents"], property)
    assert callable(engine.ergodic_average)
