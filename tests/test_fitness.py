from __future__ import annotations

import numpy as np
import pytest

from conftest import fixture_problem
from genprog import random_flat_problem, random_full_placement
from tierslicer.fitness import evaluate, offline_percent
from tierslicer.model import SHARED, CallRecord, PlacementProblem, Tier
from tierslicer.placement import Placement, classify_calls


def test_slice_offline_two_local_three_remote():
    problem = PlacementProblem(
        slices=("a", "srv"),
        fixed={"srv": Tier.SERVER},
        calls=tuple(
            CallRecord(i, "a", callee, f"f{i}")
            for i, callee in enumerate(["a", SHARED, "srv", "srv", "srv"])
        ),
    )
    placement = Placement(fixed=dict(problem.fixed), searched={"a": Tier.CLIENT})
    a = evaluate(problem, placement).per_slice["a"]
    assert (a.local_calls, a.total_calls) == (2, 5)
    assert a.offline_fraction == 0.4


def test_call_free_slice_scores_one_with_zero_weight():
    problem = PlacementProblem(
        slices=("quiet", "busy"),
        calls=(CallRecord(0, "busy", "quiet", "f"),),
    )
    placement = Placement(searched={"quiet": Tier.SERVER, "busy": Tier.CLIENT})
    report = evaluate(problem, placement)
    assert report.per_slice["quiet"].offline_fraction == 1.0
    assert report.per_slice["quiet"].total_calls == 0
    # the call-free slice does not drag the weighted mean toward 1.0
    assert report.program == 0.0


def test_all_intra_slice_calls_score_one():
    problem = PlacementProblem(
        slices=("a",),
        calls=(CallRecord(0, "a", "a", "f"), CallRecord(1, "a", "a", "g")),
    )
    report = evaluate(problem, Placement(searched={"a": Tier.SERVER}))
    assert report.program == 1.0 and report.valid


def test_tracker_fixed_placement_fitness(manifest):
    problem = fixture_problem("tracker.tjs")
    report = evaluate(problem, Placement(fixed=dict(problem.fixed), searched={}))
    assert report.program == pytest.approx(manifest["tracker.tjs"]["oracleFitness"])
    assert report.valid
    browser = report.per_slice["browser"]
    assert (browser.local_calls, browser.total_calls) == (1, 10)
    data = report.per_slice["data"]
    assert (data.local_calls, data.total_calls) == (0, 0)


def test_program_offline_equals_flat_ratio_on_random_problems():
    rng = np.random.default_rng(7)
    for _ in range(50):
        problem = random_flat_problem(rng)
        placement = random_full_placement(problem, rng)
        classified = classify_calls(problem, placement)
        flat = sum(c.local for c in classified) / len(classified)
        report = evaluate(problem, placement)
        assert report.program == flat
        # ... which is the call-count-weighted mean of the per-slice fractions
        weighted = sum(sf.offline_fraction * sf.total_calls for sf in report.per_slice.values())
        assert report.program == pytest.approx(weighted / len(classified), abs=1e-12)


def test_offline_percent_rounding():
    assert offline_percent(0.1) == 10
    assert offline_percent(1.0) == 100
    assert offline_percent(13 / 19) == 68
    assert offline_percent(0.0) == 0


def test_invalid_placement_still_scores():
    problem = PlacementProblem(
        slices=("srv", "cli"),
        fixed={"srv": Tier.SERVER, "cli": Tier.CLIENT},
        calls=(CallRecord(0, "srv", "cli", "f"),),
    )
    report = evaluate(problem, Placement(fixed=dict(problem.fixed), searched={}))
    assert report.program == 0.0
    assert not report.valid
