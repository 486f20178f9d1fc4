"""The analysis stages leave no cyclic garbage: every tree and table they
build is freed by refcount, so the CLI can run a command with the cyclic
collector paused and nothing piles up."""

from __future__ import annotations

import gc

import pytest

from conftest import fixture_path
from perfbench.programs import layered_program
from tierslicer.advisor import advise, applicable_advice, apply_advice
from tierslicer.depgraph import build_pdg, placement_problem
from tierslicer.frontend import parse, resolve_calls, walk
from tierslicer.model import Tier
from tierslicer.placement import Placement

FIXTURES = [p.name for p in sorted(fixture_path(".").glob("*.tjs"))]
LAYERED = "layered-1-60.tjs"


def source(name: str) -> str:
    if name == LAYERED:
        return layered_program(1, 60, shared=2)[0]
    return fixture_path(name).read_text()


@pytest.fixture()
def paused_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cyclic_garbage(stage, *args) -> int:
    """Objects the cyclic collector finds unreachable after ``stage(*args)``,
    while its result lives and once it is dropped.  The stage runs once
    before, so first-call caches do not count."""
    stage(*args)
    gc.collect()
    result = stage(*args)
    found = gc.collect()
    del result
    return found + gc.collect()


@pytest.mark.parametrize("name", FIXTURES + [LAYERED])
def test_no_stage_leaves_cyclic_garbage(name, paused_gc):
    text = source(name)
    program = resolve_calls(parse(text, name))
    problem = placement_problem(program)
    placement = Placement(fixed=dict(problem.fixed),
                          searched={s: Tier.CLIENT for s in problem.unplaced})
    advices = applicable_advice(program, advise(problem, placement, program))
    stages = {
        "parse": (parse, text, name),
        "resolve_calls": (lambda: resolve_calls(parse(text, name)),),
        "walk": (walk, program),
        "advise": (advise, problem, placement, program),
        "apply_advice": (apply_advice, program, advices),
        "apply_advice []": (apply_advice, program, []),
        "build_pdg": (build_pdg, program),
        "placement_problem": (placement_problem, program),
        "placement_problem graph": (lambda: placement_problem(build_pdg(program)),),
    }
    found = {label: cyclic_garbage(*call) for label, call in stages.items()}
    assert found == dict.fromkeys(stages, 0)
