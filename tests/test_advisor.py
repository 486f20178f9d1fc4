from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import fixture_path, fixture_problem, load_fixture
from genprog import random_full_placement, random_source
from tierslicer import frontend
from tierslicer.advisor import (
    Advice,
    AdviceKind,
    AdvisorConfig,
    advise,
    advise_function_moves,
    advise_replication,
    applicable_advice,
    apply_advice,
    incoming_counts,
    refine_loop,
    render_report,
    report_json,
)
from tierslicer.depgraph import build_pdg, placement_problem, to_json
from tierslicer.errors import AllInvalidError, TargetNotFoundError, TooManySlicesError
from tierslicer.frontend import emit, iter_annotated_nodes, parse, resolve_calls
from tierslicer.model import Tier
from tierslicer.placement import Placement
from tierslicer.search import GaConfig, exhaustive_oracle


def tracker_setup():
    program = load_fixture("tracker.tjs")
    graph = build_pdg(program)
    problem = placement_problem(graph)
    placement = Placement(fixed=dict(problem.fixed), searched={})
    return program, graph, problem, placement


def test_tracker_advice_matches_manifest(manifest):
    program, graph, problem, placement = tracker_setup()
    advices = advise(graph, problem, placement, program)
    expected = manifest["tracker.tjs"]["advice"]
    assert [a.target for a in advices if a.kind is AdviceKind.REPLICATE_DECLARATION] == expected["replicate"]
    assert [a.target for a in advices if a.kind is AdviceKind.MOVE_FUNCTION] == expected["move"]


def test_replication_advice_lists_dependent_functions():
    program, graph, problem, placement = tracker_setup()
    advices = advise_replication(graph, placement, program, incoming_counts(problem, placement))
    by_target = {a.target: a for a in advices}
    assert "getMeetings" in by_target["meetings"].dependent_functions
    assert "getTasks" in by_target["tasks"].dependent_functions


def test_move_advice_carries_incoming_counts():
    program, graph, problem, placement = tracker_setup()
    advices = advise_function_moves(problem, program, incoming_counts(problem, placement))
    counts = {a.target: (a.local_incoming, a.remote_incoming) for a in advices}
    assert counts["getMeetings"] == (0, 4)
    assert counts["getTasks"] == (0, 3)
    assert counts["addMeeting"] == (1, 0) or counts["addMeeting"] == (0, 1)


def test_move_threshold_arithmetic():
    # one local and four remote incoming calls: (4 - 1) / (4 + 1) = 0.6
    src = (
        "/* @config hub : server, ui : client */\n"
        "/* @slice hub */\n{\n"
        "  function work(x) { return x; }\n"
        "  function seed() { work(0); }\n"
        "}\n"
        "/* @slice ui */\n{\n"
        "  function a() { work(1); }\n"
        "  function b() { work(2); }\n"
        "  function c() { work(3); }\n"
        "  function d() { work(4); }\n"
        "}\n"
    )
    program = resolve_calls(parse(src))
    problem = placement_problem(build_pdg(program))
    placement = Placement(fixed={"hub": Tier.SERVER, "ui": Tier.CLIENT}, searched={})
    incoming = incoming_counts(problem, placement)
    below = advise_function_moves(problem, program, incoming, AdvisorConfig(move_threshold=0.2))
    assert [a.target for a in below] == ["work"]
    above = advise_function_moves(problem, program, incoming, AdvisorConfig(move_threshold=0.7))
    assert above == []


def test_replicated_vars_get_no_replication_advice():
    program = load_fixture("unicorn_v3.tjs")
    graph = build_pdg(program)
    problem = placement_problem(graph)
    placement = Placement(fixed=dict(problem.fixed),
                          searched={s: Tier.CLIENT for s in problem.unplaced})
    assert advise_replication(graph, placement, program, incoming_counts(problem, placement)) == []


def test_advisor_config_validation():
    with pytest.raises(ValueError):
        AdvisorConfig(move_threshold=1.0)
    with pytest.raises(ValueError):
        AdvisorConfig(move_threshold=-0.1)


def test_apply_advice_grows_one_slice_per_move(manifest):
    program, _, problem, placement = tracker_setup()
    moves = advise_function_moves(problem, program, incoming_counts(problem, placement))
    refined = apply_advice(program, moves)
    assert len(refined.slices) == len(program.slices) + len(moves)
    new_names = [s.name for s in refined.slices if s.name.startswith("auto_")]
    assert new_names == [f"auto_{a.target}" for a in moves]
    # the moved functions left the data slice
    data = next(s for s in refined.slices if s.name == "data")
    assert all(getattr(st, "name", None) not in manifest["tracker.tjs"]["advice"]["move"]
               for st in data.body)


def test_apply_advice_marks_declarations_replicated():
    program, graph, problem, placement = tracker_setup()
    replicate = advise_replication(graph, placement, program, incoming_counts(problem, placement))
    refined = apply_advice(program, replicate)
    data = next(s for s in refined.slices if s.name == "data")
    from tierslicer.syntax import AnnotationKind, VarDecl

    flagged = [st.name for st in data.body if isinstance(st, VarDecl)
               and any(a.kind is AnnotationKind.REPLICATED for a in st.annotations)]
    assert flagged == ["meetings", "tasks"]
    # applying the same advice twice must not stack annotations
    again = apply_advice(refined, replicate)
    data2 = next(s for s in again.slices if s.name == "data")
    meetings = next(st for st in data2.body if getattr(st, "name", None) == "meetings")
    assert sum(a.kind is AnnotationKind.REPLICATED for a in meetings.annotations) == 1


def test_apply_advice_leaves_the_input_program_untouched():
    program, graph, problem, placement = tracker_setup()
    advices = advise(graph, problem, placement, program)
    assert {a.kind for a in advices} == set(AdviceKind)  # replicate and move advice

    def snapshot():
        """The emitted text, every annotation list's contents, and the
        identities of the slices and of their statements."""
        return (emit(program),
                [list(anns) for _, anns in iter_annotated_nodes(program)],
                [(id(s), [id(st) for st in s.body]) for s in program.slices])

    before = snapshot()
    once = emit(apply_advice(program, advices))
    assert snapshot() == before
    assert emit(apply_advice(program, advices)) == once


# --- The edited tree against its own re-parse ----------------------------------


def _cases():
    """(label, program, advice): each fixture under its oracle placement and
    under all-``both``, and 24 generated programs under seeded placements,
    with the advice ``advise`` gives that ``apply_advice`` can act on."""
    placements = []
    for name in sorted(p.name for p in fixture_path(".").glob("*.tjs")):
        program = load_fixture(name)
        problem = placement_problem(build_pdg(program))
        try:
            placements.append((f"{name} oracle", program, exhaustive_oracle(problem)[0]))
        except (AllInvalidError, TooManySlicesError):
            pass
        placements.append((f"{name} both", program, Placement(
            fixed=dict(problem.fixed), searched={s: Tier.BOTH for s in problem.unplaced})))
    for seed in range(24):
        program = resolve_calls(parse(random_source(seed), f"random-{seed}.tjs"))
        problem = placement_problem(build_pdg(program))
        placements.append((f"random-{seed}", program,
                           random_full_placement(problem, np.random.default_rng(seed))))
    for label, program, placement in placements:
        graph = build_pdg(program)
        advices = advise(graph, placement_problem(graph), placement, program)
        yield label, program, applicable_advice(program, advices)


CASES = list(_cases())


def _facts(program) -> tuple:
    """What the rest of the pipeline reads of a program, spans left out."""
    graph = json.loads(to_json(build_pdg(program)))
    for node in graph["nodes"]:
        node["span"] = None
    return ((program.slices, program.shared_top_level),
            [(d.name, d.kind, d.owner) for d in program.declarations],
            [(c.callee_name, c.owner, c.resolved_owner, c.unresolved_reason)
             for c in program.call_sites],
            graph)


def test_edit_cases_draw_both_advice_kinds():
    moves = sum(a.kind is AdviceKind.MOVE_FUNCTION for _, _, adv in CASES for a in adv)
    generated = [adv for label, _, adv in CASES if label.startswith("random-")
                 and any(a.kind is AdviceKind.MOVE_FUNCTION for a in adv)]
    assert len(generated) >= 20
    assert moves and any(a.kind is AdviceKind.REPLICATE_DECLARATION
                         for _, _, adv in CASES for a in adv)


@pytest.mark.parametrize("label,program,advices", CASES, ids=[c[0] for c in CASES])
def test_edited_tree_equals_its_reparse(label, program, advices):
    edited = apply_advice(program, advices)
    reparsed = resolve_calls(parse(emit(edited), program.filename))
    assert _facts(edited) == _facts(reparsed)
    assert [s.fixed_tier for s in edited.slices] == [s.fixed_tier for s in reparsed.slices]


def test_apply_advice_parses_and_emits_no_text(monkeypatch):
    program, graph, problem, placement = tracker_setup()
    advices = advise(graph, problem, placement, program)

    def refuse(*_):
        raise AssertionError("apply_advice went through text")

    monkeypatch.setattr(frontend, "parse", refuse)
    monkeypatch.setattr(frontend, "emit", refuse)
    refined = apply_advice(program, advices)
    assert len(refined.slices) == len(program.slices) + sum(
        a.kind is AdviceKind.MOVE_FUNCTION for a in advices)


def test_a_moved_function_keeps_its_source_span():
    src = (
        "/* @config data : server, ui : client */\n"
        "/* @slice data */\n{ var n = 1;\n  function hot(x) { return x; } }\n"
        "/* @slice ui */\n{ function go() { hot(1); hot(2); } }\n"
    )
    program = resolve_calls(parse(src))
    hot = program.slices[0].body[1]
    refined = apply_advice(program, [Advice(AdviceKind.MOVE_FUNCTION, "hot", "data", 0, 2)])
    moved = refined.slices[-1].body[0]
    assert moved.span == hot.span and (moved.span.line, moved.span.col) == (4, 3)
    assert src[moved.span.start:].startswith("function hot(x)")
    assert [c.resolved for c in refined.call_sites] == [moved, moved]
    assert refined.slices[-1].fixed_tier is None


def test_fresh_slice_names_avoid_collisions():
    src = (
        "/* @config data : server, ui : client */\n"
        "/* @slice data */\n{ function hot(x) { return x; } }\n"
        "/* @slice auto_hot */\n{ var filler = 1; }\n"
        "/* @slice ui */\n{ function go() { hot(1); hot(2); } }\n"
    )
    program = resolve_calls(parse(src))
    advice = Advice(AdviceKind.MOVE_FUNCTION, "hot", "data", 0, 2)
    refined = apply_advice(program, [advice])
    assert "auto_hot_2" in [s.name for s in refined.slices]


def test_apply_advice_unknown_target_raises():
    program, _, _, _ = tracker_setup()
    with pytest.raises(TargetNotFoundError):
        apply_advice(program, [Advice(AdviceKind.MOVE_FUNCTION, "nope", "data")])


def test_refine_loop_stops_immediately_at_perfect_fitness():
    result = refine_loop(load_fixture("unicorn_v6.tjs"), GaConfig(rng_seed=0))
    assert result.fitness == 1.0
    assert result.iterations == 0
    assert len(result.program.slices) == 6


def test_refine_loop_improves_the_tracker():
    result = refine_loop(load_fixture("tracker.tjs"), GaConfig(rng_seed=0), max_iterations=3)
    assert result.fitness > 0.1
    assert result.iterations >= 1
    assert len(result.program.slices) > 2
    assert result.fitness_history[0] == pytest.approx(0.1)
    assert result.fitness_history[-1] == pytest.approx(result.fitness)


def test_render_report_golden_bytes(manifest):
    program, graph, problem, placement = tracker_setup()
    from tierslicer.fitness import evaluate

    fitness = evaluate(problem, placement).program
    advices = advise(graph, problem, placement, program)
    assert render_report(fitness, advices) == manifest["tracker.tjs"]["report"]


def test_render_report_omits_empty_sections():
    assert render_report(1.0, []) == "Application level of offline availability: 100 %\n"


def test_report_json_shape():
    program, graph, problem, placement = tracker_setup()
    advices = advise(graph, problem, placement, program)
    payload = report_json(0.1, advices)
    assert payload["offlinePercent"] == 10
    assert [r["name"] for r in payload["replicate"]] == ["meetings", "tasks"]
    assert [m["name"] for m in payload["move"]] == [
        "getMeetings", "getTasks", "addMeeting", "addTask"
    ]
    assert payload["move"][0]["remoteIncoming"] == 4
