#!/usr/bin/env python3
"""Regenerate the bundled fixture manifest.

Computes, for every bundled fixture, the values the test suite asserts
against: exhaustive-oracle best fitness, call totals, the count of valid
placements in the 3^n space, and (for the two-slice tracker) the advice
report.  Values land in src/tierslicer/fixtures/manifest.json; review the
diff before committing a regenerated manifest.  The script puts the repo's
``src/`` on ``sys.path``, so it runs from a checkout without installing the
package::

    python3 scripts/freeze_fixtures.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from tierslicer import parse, placement_problem, resolve_calls  # noqa: E402
from tierslicer.advisor import advise, render_report  # noqa: E402
from tierslicer.fitness import evaluate  # noqa: E402
from tierslicer.kernels import build_scores, compile_problem  # noqa: E402
from tierslicer.placement import Placement  # noqa: E402
from tierslicer.search import exhaustive_oracle  # noqa: E402

FIXTURES = ROOT / "src" / "tierslicer" / "fixtures"


def load(name):
    text = (FIXTURES / name).read_text()
    return resolve_calls(parse(text, name))


def valid_count(problem):
    n = len(problem.unplaced)
    if n == 0:
        return None
    return int((build_scores(compile_problem(problem)) >= 0).sum())


def describe(name):
    program = load(name)
    problem = placement_problem(program)
    n = len(problem.unplaced)
    entry = {
        "slices": list(problem.slices),
        "fixed": {s: t.value for s, t in problem.fixed.items()},
        "unplacedCount": n,
        "totalCalls": len(problem.calls),
        "validPlacements": valid_count(problem),
        "placementSpace": 3**n,
    }
    # The relay fixtures pin the validity rule: their entries hold the
    # valid-set count only.
    if entry["validPlacements"] == 0 or name.startswith("relay"):
        return program, problem, entry
    best, fitness = exhaustive_oracle(problem)
    report = evaluate(problem, best)
    local = sum(sf.local_calls for sf in report.per_slice.values())
    entry["oracleFitness"] = fitness
    entry["oracleFitnessFraction"] = str(Fraction(local, len(problem.calls))) if problem.calls else "1"
    entry["oracleLocalCalls"] = local
    entry["oraclePlacement"] = {s: best.tier(s).value for s in problem.unplaced}
    return program, problem, entry


def build_manifest():
    manifest = {}
    for name in sorted(p.name for p in FIXTURES.glob("*.tjs")):
        program, problem, entry = describe(name)
        if name == "tracker.tjs":
            placement = Placement(fixed=dict(problem.fixed), searched={})
            advices = advise(problem, placement, program)
            entry["advice"] = {
                "replicate": [a.target for a in advices if a.kind.value == "replicate-declaration"],
                "move": [a.target for a in advices if a.kind.value == "move-function-to-new-slice"],
            }
            entry["report"] = render_report(entry["oracleFitness"], advices)
        manifest[name] = entry
    return manifest


def main():
    text = json.dumps(build_manifest(), indent=2) + "\n"
    out = FIXTURES / "manifest.json"
    out.write_text(text)
    print(f"wrote {out}")
    print(text, end="")


if __name__ == "__main__":
    main()
