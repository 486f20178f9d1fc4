from __future__ import annotations

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from conftest import fixture_path, fixture_problem, load_fixture
from genprog import random_full_placement, random_source
from perfbench.programs import layered_program
from tierslicer import frontend
from tierslicer.advisor import (
    Advice,
    AdviceKind,
    AdvisorConfig,
    _tier_mask,
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
from tierslicer.depgraph import DATA, DECLARATION, build_pdg, placement_problem, to_json
from tierslicer.errors import AllInvalidError, TargetNotFoundError, TooManySlicesError
from tierslicer.frontend import emit, iter_annotated_nodes, parse, resolve_calls
from tierslicer.model import SHARED, Tier
from tierslicer.placement import Placement
from tierslicer.search import GaConfig, exhaustive_oracle
from tierslicer.syntax import AnnotationKind, line_col


def tracker_setup():
    program = load_fixture("tracker.tjs")
    problem = placement_problem(program)
    placement = Placement(fixed=dict(problem.fixed), searched={})
    return program, problem, placement


def test_tracker_advice_matches_manifest(manifest):
    program, problem, placement = tracker_setup()
    advices = advise(problem, placement, program)
    expected = manifest["tracker.tjs"]["advice"]
    assert [a.target for a in advices if a.kind is AdviceKind.REPLICATE_DECLARATION] == expected["replicate"]
    assert [a.target for a in advices if a.kind is AdviceKind.MOVE_FUNCTION] == expected["move"]


def test_replication_advice_lists_dependent_functions():
    """In the order of their reading statements."""
    program, problem, placement = tracker_setup()
    advices = advise_replication(placement, program, incoming_counts(problem, placement))
    by_target = {a.target: a.dependent_functions for a in advices}
    assert by_target == {"meetings": ["getMeetings", "addMeeting"],
                         "tasks": ["getTasks", "addTask"]}


def test_move_advice_carries_incoming_counts():
    program, problem, placement = tracker_setup()
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
    problem = placement_problem(program)
    placement = Placement(fixed={"hub": Tier.SERVER, "ui": Tier.CLIENT}, searched={})
    incoming = incoming_counts(problem, placement)
    below = advise_function_moves(problem, program, incoming, AdvisorConfig(move_threshold=0.2))
    assert [a.target for a in below] == ["work"]
    above = advise_function_moves(problem, program, incoming, AdvisorConfig(move_threshold=0.7))
    assert above == []


def test_replicated_vars_get_no_replication_advice():
    program = load_fixture("unicorn_v3.tjs")
    problem = placement_problem(program)
    placement = Placement(fixed=dict(problem.fixed),
                          searched={s: Tier.CLIENT for s in problem.unplaced})
    assert advise_replication(placement, program, incoming_counts(problem, placement)) == []


def test_a_shared_reader_of_a_slice_var_is_weighed_with_every_tier():
    """A function in shared code that reads a slice's var takes every tier;
    calls to it are local, so it never joins the evidence."""
    src = (
        "/* @config data : server, ui : client */\n"
        "/* @slice data */\n{\n"
        "  var rows = [];\n"
        "  function count() { return rows; }\n"
        "}\n"
        "/* @slice ui */\n{\n"
        "  function show() { count(); peek(); }\n"
        "}\n"
        "function peek() { return rows; }\n"
    )
    program = resolve_calls(parse(src))
    problem = placement_problem(program)
    placement = Placement(fixed=dict(problem.fixed), searched={})
    assert advise(problem, placement, program) == [
        Advice(AdviceKind.REPLICATE_DECLARATION, "rows", "data", dependent_functions=["count"]),
        Advice(AdviceKind.MOVE_FUNCTION, "count", "data", local_incoming=0, remote_incoming=1),
    ]


def test_advisor_config_validation():
    with pytest.raises(ValueError):
        AdvisorConfig(move_threshold=1.0)
    with pytest.raises(ValueError):
        AdvisorConfig(move_threshold=-0.1)


def test_apply_advice_grows_one_slice_per_move(manifest):
    program, problem, placement = tracker_setup()
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
    program, problem, placement = tracker_setup()
    replicate = advise_replication(placement, program, incoming_counts(problem, placement))
    refined = apply_advice(program, replicate)
    data = next(s for s in refined.slices if s.name == "data")
    from tierslicer.syntax import VarDecl

    flagged = [st.name for st in data.body if isinstance(st, VarDecl)
               and any(a.kind is AnnotationKind.REPLICATED for a in st.annotations)]
    assert flagged == ["meetings", "tasks"]
    # applying the same advice twice must not stack annotations
    again = apply_advice(refined, replicate)
    data2 = next(s for s in again.slices if s.name == "data")
    meetings = next(st for st in data2.body if getattr(st, "name", None) == "meetings")
    assert sum(a.kind is AnnotationKind.REPLICATED for a in meetings.annotations) == 1


def test_apply_advice_leaves_the_input_program_untouched():
    program, problem, placement = tracker_setup()
    advices = advise(problem, placement, program)
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
        problem = placement_problem(program)
        try:
            placements.append((f"{name} oracle", program, exhaustive_oracle(problem)[0]))
        except (AllInvalidError, TooManySlicesError):
            pass
        placements.append((f"{name} both", program, Placement(
            fixed=dict(problem.fixed), searched={s: Tier.BOTH for s in problem.unplaced})))
    for seed in range(24):
        program = resolve_calls(parse(random_source(seed), f"random-{seed}.tjs"))
        problem = placement_problem(program)
        placements.append((f"random-{seed}", program,
                           random_full_placement(problem, np.random.default_rng(seed))))
    for label, program, placement in placements:
        advices = advise(placement_problem(program), placement, program)
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


@pytest.mark.parametrize("label,program,advices", CASES, ids=[c[0] for c in CASES])
def test_dependent_functions_follow_their_first_reader(label, program, advices):
    graph = build_pdg(program)
    first = {}  # (declaration, its slice, reading function) -> first reading node
    for e in graph.edges:
        decl, reader = graph.nodes[e.src], graph.nodes[e.dst]
        if e.kind == DATA and decl.kind == DECLARATION:
            key = (decl.name, decl.slice, reader.function)
            first[key] = min(first.get(key, e.dst), e.dst)
    for a in advices:
        if a.kind is AdviceKind.REPLICATE_DECLARATION:
            order = [first[(a.target, a.owner, f)] for f in a.dependent_functions]
            assert order == sorted(order)


def test_apply_advice_parses_and_emits_no_text(monkeypatch):
    program, problem, placement = tracker_setup()
    advices = advise(problem, placement, program)

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
    assert moved.span == hot.span and line_col(refined.line_starts, moved.span[0]) == (4, 3)
    assert src[moved.span[0]:].startswith("function hot(x)")
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
    program, _, _ = tracker_setup()
    with pytest.raises(TargetNotFoundError):
        apply_advice(program, [Advice(AdviceKind.MOVE_FUNCTION, "nope", "data")])


@pytest.mark.parametrize("advice, message", [
    (Advice(AdviceKind.MOVE_FUNCTION, "getTasks", "nowhere"), "slice 'nowhere' not found"),
    (Advice(AdviceKind.REPLICATE_DECLARATION, "nope", "data"), "var 'nope' not in slice 'data'"),
], ids=["unknown-slice", "unknown-var"])
def test_apply_advice_names_what_it_cannot_find(advice, message):
    program, _, _ = tracker_setup()
    with pytest.raises(TargetNotFoundError) as err:
        apply_advice(program, [advice])
    assert str(err.value) == message


def test_refine_loop_stops_immediately_at_perfect_fitness():
    result = refine_loop(load_fixture("unicorn_v6.tjs"), GaConfig(rng_seed=0))
    assert result.fitness == 1.0
    assert result.iterations == 0
    assert len(result.program.slices) == 6


def test_refine_loop_needs_an_iteration():
    with pytest.raises(ValueError, match="max_iterations must be >= 1"):
        refine_loop(load_fixture("tracker.tjs"), GaConfig(rng_seed=0), max_iterations=0)


def test_refine_loop_improves_the_tracker():
    result = refine_loop(load_fixture("tracker.tjs"), GaConfig(rng_seed=0), max_iterations=3)
    assert result.fitness > 0.1
    assert result.iterations >= 1
    assert len(result.program.slices) > 2
    assert result.fitness_history[0] == pytest.approx(0.1)
    assert result.fitness_history[-1] == pytest.approx(result.fitness)


def test_render_report_golden_bytes(manifest):
    program, problem, placement = tracker_setup()
    from tierslicer.fitness import evaluate

    fitness = evaluate(problem, placement).program
    advices = advise(problem, placement, program)
    assert render_report(fitness, advices) == manifest["tracker.tjs"]["report"]


def test_render_report_omits_empty_sections():
    assert render_report(1.0, []) == "Application level of offline availability: 100 %\n"


def test_report_json_shape():
    program, problem, placement = tracker_setup()
    advices = advise(problem, placement, program)
    payload = report_json(0.1, advices)
    assert payload["offlinePercent"] == 10
    assert [r["name"] for r in payload["replicate"]] == ["meetings", "tasks"]
    assert [m["name"] for m in payload["move"]] == [
        "getMeetings", "getTasks", "addMeeting", "addTask"
    ]
    assert payload["move"][0]["remoteIncoming"] == 4


# --- Replication advice against the dependence graph --------------------------


def replication_from_graph(placement, program, incoming) -> list:
    """``advise_replication`` read off ``build_pdg``: a var's readers are the
    heads of the DATA edges out of its declaration node, in node order.  A
    var declared again in the scope of its binding draws no advice."""
    graph = build_pdg(program)
    scopes = {id(step[0]): step[2] for step in program.steps if isinstance(step, tuple)}
    readers = {}
    for e in graph.edges:
        if e.kind == DATA:
            readers.setdefault(e.src, []).append(graph.nodes[e.dst])
    decl_nodes = [n for n in graph.nodes if n.kind == DECLARATION]
    out = []
    for decl, node in zip(program.declarations, decl_nodes, strict=True):
        if decl.kind != "var" or decl.owner == SHARED or any(
                a.kind is AnnotationKind.REPLICATED for a in decl.node.annotations):
            continue
        binding = scopes[id(decl.node)].var(decl.name)
        if binding is not None and binding is not decl:
            continue
        evidence = []
        for reader in sorted(readers.get(node.id, []), key=lambda n: n.id):
            if reader.function is None or not (
                    _tier_mask(placement, reader.slice) & _tier_mask(placement, decl.owner)):
                continue
            local, remote = incoming.get((reader.slice, reader.function), (0, 0))
            if remote > local and reader.function not in evidence:
                evidence.append(reader.function)
        if evidence:
            out.append(Advice(AdviceKind.REPLICATE_DECLARATION, decl.name, decl.owner,
                              dependent_functions=evidence))
    return out


# `y`'s initializer assigns `z`, which `f` reads before `g` reads `y`; `twice`
# is declared twice in one scope; a function expression reads `x`, which its
# own initializer reads too; only its own initializer reads `c`.
QUIRKS_SOURCE = """\
/* @config ui : client */
/* @slice db */
{
  function f() { return z; }
  function g() { return y; }
  var y = z = 3;
  var z;
  var twice = 1;
  var twice = 2;
  function h() { return twice; }
  var x = x + 1;
  function k() { var run = function () { return x; }; var c = c + 1; return run(); }
}
/* @slice ui */
{ function main() { f(); g(); h(); k(); } }
"""

CORPUS_EXTRA = runpy.run_path(str(Path(__file__).parent.parent / "scripts" / "cli_corpus.py"))["EXTRA"]


def replication_sources(group: str):
    """(label, source) pairs of one group of programs."""
    if group == "fixtures":
        for name in sorted(p.name for p in fixture_path(".").glob("*.tjs")):
            yield name, fixture_path(name).read_text()
    elif group == "genprog":
        for seed in range(200):
            yield f"random-{seed}.tjs", random_source(seed)
    elif group == "layered":
        for seed in range(50):
            yield f"layered-{seed}.tjs", layered_program(
                seed, 2 + 9 * (seed % 5), funcs=(1, 2, 3), calls=(1, 2, 3, 4, 5),
                shared=seed % 3)[0]
    elif group == "corpus":
        yield from CORPUS_EXTRA.items()
    else:
        yield "quirks.tjs", QUIRKS_SOURCE


@pytest.mark.parametrize("group", ["fixtures", "genprog", "layered", "corpus", "quirks"])
def test_replication_advice_agrees_with_the_graphs_data_edges(group):
    rng = np.random.default_rng(33)
    advised = 0
    for label, text in replication_sources(group):
        program = resolve_calls(parse(text, label))
        problem = placement_problem(program)
        for _ in range(8):
            placement = random_full_placement(problem, rng)
            incoming = incoming_counts(problem, placement)
            expected = replication_from_graph(placement, program, incoming)
            assert advise_replication(placement, program, incoming) == expected, label
            advised += len(expected)
    assert advised


def test_replication_readers_come_in_source_order_across_the_vars_a_declaration_defines():
    program = resolve_calls(parse(QUIRKS_SOURCE, "quirks.tjs"))
    problem = placement_problem(program)
    placement = Placement(fixed=dict(problem.fixed), searched={"db": Tier.SERVER})
    advices = advise_replication(placement, program, incoming_counts(problem, placement))
    assert [(a.target, a.dependent_functions) for a in advices] == [
        ("y", ["f", "g"]), ("z", ["f"]), ("twice", ["h"]), ("x", ["k"])]
