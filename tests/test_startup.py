"""Start-up: each CLI command loads only the stages it runs, and the package
resolves its public names on first access."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tierslicer
from conftest import fixture_path, fixture_problem
from tierslicer.exact import exhaustive_oracle

SRC = str(Path(tierslicer.__file__).resolve().parent.parent)
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

WATCHED = ["numpy", "tierslicer.search", "tierslicer.kernels", "concurrent.futures"]

# Runs the CLI on argv in a fresh interpreter, then prints to stderr which of
# the watched modules it loaded.
LAUNCH = f"""
import json, sys
from tierslicer.cli import main
try:
    main(sys.argv[1:], prog_name="tierslicer")
finally:
    print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]), file=sys.stderr)
"""


def run_fresh(*args):
    """Exit code, stdout and the watched modules loaded by one CLI call."""
    proc = subprocess.run([sys.executable, "-c", LAUNCH, *map(str, args)], env=ENV,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def placement_file(tmp_path_factory):
    problem = fixture_problem("unicorn_v4.tjs")
    path = tmp_path_factory.mktemp("placement") / "placement.json"
    path.write_text(exhaustive_oracle(problem)[0].to_json())
    return path


@pytest.mark.parametrize("command", [
    "parse", "graph", "oracle", "split --placement", "advise --placement", "--help", "--version",
])
def test_commands_that_do_not_search_load_no_numpy(command, placement_file):
    args = command.split()
    if not args[0].startswith("--"):
        args.insert(1, fixture_path("unicorn_v4.tjs"))
    if args[-1] == "--placement":
        args.append(placement_file)
    code, stdout, loaded = run_fresh(*args)
    assert code == 0 and stdout
    assert loaded == []


@pytest.mark.parametrize("args, expected", [
    (("assign", "--jobs", "1"), ["numpy", "tierslicer.search", "tierslicer.kernels"]),
    (("stats", "--runs", "2", "--jobs", "2"), WATCHED),
])
def test_searching_commands_load_numpy_and_worker_pools_only_for_jobs(args, expected):
    # The watch list is live: the search loads what the other commands must not.
    code, stdout, loaded = run_fresh(args[0], fixture_path("unicorn_v4.tjs"), *args[1:])
    assert code == 0 and stdout
    assert loaded == expected


def test_importing_the_cli_loads_only_the_domain_types():
    """Every benchmark workload times this import, so no stage may reach it."""
    code = "import sys, tierslicer.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'tierslicer'))"
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == str(
        ["tierslicer", "tierslicer.cli", "tierslicer.errors", "tierslicer.model"])


def test_version_runs_from_a_checkout():
    proc = subprocess.run([sys.executable, "-m", "tierslicer.cli", "--version"], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "0.1.0" == tierslicer.__version__


# Each public name and the module that defines it.
HOMES = {
    "AdvisorConfig": "model", "CallRecord": "model", "Direction": "model", "GaConfig": "model",
    "PlacementProblem": "model", "SHARED": "model", "Tier": "model",
    "Placement": "placement", "classify_calls": "placement", "is_valid": "placement",
    "advise": "advisor", "apply_advice": "advisor", "refine_loop": "advisor",
    "build_pdg": "depgraph", "collapse_to_slice_graph": "depgraph",
    "placement_problem": "depgraph",
    "emit": "frontend", "parse": "frontend", "resolve_calls": "frontend",
    "evaluate": "fitness", "exhaustive_oracle": "exact", "run": "search", "run_many": "search",
}


@pytest.mark.parametrize("name", sorted(HOMES))
def test_public_names_resolve_to_their_home_module(name):
    assert name in tierslicer.__all__
    module = importlib.import_module(f"tierslicer.{HOMES[name]}")
    value = getattr(tierslicer, name)
    assert value is getattr(module, name)
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_all_lists_exactly_the_public_names():
    assert sorted(tierslicer.__all__) == sorted(HOMES)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        tierslicer.nope  # noqa: B018
    with pytest.raises(ImportError):
        from tierslicer import nope  # noqa: F401


def test_submodules_still_import_from_the_package():
    from tierslicer import search

    assert search is sys.modules["tierslicer.search"]
    assert search.GaConfig is tierslicer.GaConfig
    assert search.exhaustive_oracle is tierslicer.exhaustive_oracle
