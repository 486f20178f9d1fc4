from __future__ import annotations

import json
from pathlib import Path

import pytest

import tierslicer
from tierslicer import parse, placement_problem, resolve_calls
from tierslicer.depgraph import build_pdg

FIXTURES = Path(tierslicer.__file__).parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_fixture(name: str):
    return resolve_calls(parse(fixture_path(name).read_text(), name))


def fixture_problem(name: str):
    return placement_problem(build_pdg(load_fixture(name)))


def naive_line_col(text: str, pos: int) -> tuple[int, int]:
    """The line and column of offset ``pos``, by counting newlines."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


@pytest.fixture(scope="session")
def manifest() -> dict:
    return json.loads((FIXTURES / "manifest.json").read_text())


@pytest.fixture(scope="session")
def all_fixture_names(manifest) -> list:
    return sorted(manifest)
