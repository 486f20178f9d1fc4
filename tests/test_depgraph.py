from __future__ import annotations

import pytest

from conftest import fixture_path, fixture_problem, load_fixture
from tierslicer.depgraph import (
    CALL,
    CALL_SITE,
    DATA,
    DECLARATION,
    ENTRY,
    FUNCTION_ENTRY,
    build_pdg,
    collapse_to_slice_graph,
    from_json,
    placement_problem,
    to_dot,
    to_json,
)
from tierslicer.model import SHARED, Tier

ALL_FIXTURES = [p.name for p in sorted(fixture_path(".").glob("*.tjs"))]


def test_meetings_slice_graph_matches_expected_shape():
    graph = build_pdg(load_fixture("meetings.tjs"))
    collapsed = collapse_to_slice_graph(graph)
    assert set(collapsed.vertices) == {"data", "sorting", "statistics", "browser"}
    assert collapsed.edges == {
        ("browser", "sorting", CALL): 1,
        ("browser", "statistics", CALL): 1,
        ("browser", "data", DATA): 2,
        ("sorting", "data", DATA): 1,
        ("statistics", "data", DATA): 1,
    }


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_collapse_equals_brute_force_double_loop(name):
    graph = build_pdg(load_fixture(name))
    collapsed = collapse_to_slice_graph(graph)
    expected: dict = {}
    for e in graph.edges:
        a, b = graph.nodes[e.src], graph.nodes[e.dst]
        if a.kind == ENTRY or b.kind == ENTRY:
            continue
        src, dst = (b.slice, a.slice) if e.kind == DATA else (a.slice, b.slice)
        if src != dst:
            expected[(src, dst, e.kind)] = expected.get((src, dst, e.kind), 0) + 1
    assert collapsed.edges == expected


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_every_call_edge_targets_a_function_entry(name):
    graph = build_pdg(load_fixture(name))
    for e in graph.edges:
        if e.kind == CALL:
            assert graph.nodes[e.src].kind == CALL_SITE
            assert graph.nodes[e.dst].kind == FUNCTION_ENTRY


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_data_edges_run_declaration_to_reader(name):
    graph = build_pdg(load_fixture(name))
    data_edges = [e for e in graph.edges if e.kind == DATA]
    if name == "meetings.tjs":
        assert data_edges, "the meetings fixture should exercise def-use analysis"
    for e in data_edges:
        src = graph.nodes[e.src]
        assert src.kind == DECLARATION


def test_call_site_count_matches_resolver(tmp_path):
    program = load_fixture("tracker.tjs")
    graph = build_pdg(program)
    assert len(graph.call_site_nodes()) == len(program.call_sites)


def test_tracker_call_inventory():
    problem = placement_problem(build_pdg(load_fixture("tracker.tjs")))
    assert problem.unresolved_calls == 0
    assert [rec.site_id for rec in problem.calls] == list(range(len(problem.calls)))
    browser = [rec for rec in problem.calls if rec.caller == "browser"]
    assert len(browser) == 10
    assert [rec for rec in problem.calls if rec.caller == "data"] == []
    callees = sorted(rec.callee_name for rec in browser)
    assert callees.count("getMeetings") == 4
    assert callees.count("getTasks") == 3
    assert callees.count("displayAgenda") == 1
    local_targets = [rec for rec in browser if rec.callee == "browser"]
    assert len(local_targets) == 1


def test_shared_code_callee_is_marked_shared():
    src = (
        "function shared_helper(x) { return x; }\n"
        "/* @slice a */\n{ function f() { shared_helper(1); } }\n"
    )
    from tierslicer import parse, resolve_calls

    problem = placement_problem(build_pdg(resolve_calls(parse(src))))
    (rec,) = problem.calls
    assert (rec.caller, rec.callee) == ("a", SHARED)


def test_placement_problem_from_tracker(manifest):
    problem = fixture_problem("tracker.tjs")
    entry = manifest["tracker.tjs"]
    assert list(problem.slices) == entry["slices"]
    assert {s: t.value for s, t in problem.fixed.items()} == entry["fixed"]
    assert len(problem.calls) == entry["totalCalls"]
    assert problem.unplaced == ()
    assert problem.fixed["data"] is Tier.SERVER


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_json_round_trip(name):
    graph = build_pdg(load_fixture(name))
    restored = from_json(to_json(graph))
    assert to_json(restored) == to_json(graph)
    assert collapse_to_slice_graph(restored) == collapse_to_slice_graph(graph)
    assert placement_problem(restored) == placement_problem(graph)


def test_dot_export_lists_slices_and_edge_counts():
    graph = build_pdg(load_fixture("meetings.tjs"))
    dot = to_dot(collapse_to_slice_graph(graph))
    assert dot.startswith("digraph slices {")
    for name in ("data", "sorting", "statistics", "browser"):
        assert f'"{name}";' in dot
    assert '"browser" -> "data" [label="data:2"];' in dot


def test_ui_blocks_are_excluded():
    src = (
        "/* @slice a */\n{\n  /* @ui */ { <b>skip me</b> }\n  var x = 1;\n}\n"
    )
    from tierslicer import parse, resolve_calls

    graph = build_pdg(resolve_calls(parse(src)))
    names = [n.name for n in graph.nodes if n.kind == DECLARATION]
    assert names == ["x"]
