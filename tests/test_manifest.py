"""Drift guard: fixtures/manifest.json is what scripts/freeze_fixtures.py
builds from the current code, so a change that moves an oracle placement, a
fitness value or a valid-placement count shows here."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from conftest import FIXTURES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "freeze_fixtures.py"


def load_freeze_script():
    spec = importlib.util.spec_from_file_location("freeze_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frozen_manifest_is_what_the_freeze_script_builds(manifest):
    built = load_freeze_script().build_manifest()
    assert built == manifest
    assert json.dumps(built, indent=2) + "\n" == (FIXTURES / "manifest.json").read_text()
