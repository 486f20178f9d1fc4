from __future__ import annotations

import hashlib
import json

import pytest

from conftest import fixture_path, fixture_problem, load_fixture
from genprog import random_source
from tierslicer import emit, parse, resolve_calls
from tierslicer.depgraph import (
    CALL,
    CALL_SITE,
    DATA,
    DECLARATION,
    ENTRY,
    FUNCTION_ENTRY,
    PdgEdge,
    PdgNode,
    build_pdg,
    collapse_to_slice_graph,
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
    assert sum(n.kind == CALL_SITE for n in graph.nodes) == len(program.call_sites)


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
    payload = json.loads(to_json(graph))
    assert [s["name"] for s in payload["slices"]] == graph.slice_order
    assert {s["name"]: s["fixedTier"] for s in payload["slices"] if s["fixedTier"]} == graph.fixed
    assert [PdgNode(**{**n, "span": tuple(n["span"])}) for n in payload["nodes"]] == graph.nodes
    assert [PdgEdge(e["from"], e["to"], e["kind"]) for e in payload["edges"]] == graph.edges


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
    graph = build_pdg(resolve_calls(parse(src)))
    names = [n.name for n in graph.nodes if n.kind == DECLARATION]
    assert names == ["x"]


def test_nested_assignment_defines_its_target():
    """An assignment inside a call argument defines its target, as a
    statement-level assignment does: both reach the reader of ``x`` in b."""

    def data_edges(statement):
        src = (
            "/* @slice a */\n{ var x = 0; function g(v) { return v; } function f() { "
            + statement + " } }\n/* @slice b */\n{ function h() { return x; } }\n"
        )
        graph = build_pdg(resolve_calls(parse(src)))
        nodes = graph.nodes
        return [(nodes[e.src].slice, nodes[e.src].function, nodes[e.dst].function)
                for e in graph.edges if e.kind == DATA]

    expected = [("a", None, "h"), ("a", "f", "h")]
    assert data_edges("x = 1;") == expected
    assert data_edges("g(x = 1);") == expected


# Reaches what no fixture does: function expressions (in var inits, object and
# array literals, returns, callees and assignments), curried calls, member and
# index callees, chained assignments, a var called as a function, a for-var
# init, a @ui block, and ambiguous and undeclared callees.
WALKER_SOURCE = """\
/* @config store : server, view : client */

function util(x) { return x; }
var counter = 0;

/* @slice store */
{
  var rows = [];
  var index = {size: 0, first: null};
  var handler = function (e) { return save(e); };
  function save(r) { rows = index.last = r; counter = counter + 1; return rows; }
  function load(k) { return rows[k]; }
  function dup() { return 1; }
  function make(n) { return function (m) { return load(n) + m + util(m); }; }
}

/* @slice view */
{
  /* @ui */ { <p>rows</p> }
  function dup() { return 2; }
  function render(list) {
    var handlers = {click: function (e) { save(e); ghost(e); }, keys: [load(1), function () { return util(2); }]};
    for (var i = load(0); i < rows.length; i = i + 1) { console.log(make(i)(rows[i])); }
    /* @reply */ save(list);
    dup();
    handler(list);
    handlers.click(list);
    return (function (z) { return load(z); })(3);
  }
}

/* @slice audit */
{
  var seen = -1;
  function track(v) {
    seen = counter = v;
    if (!seen) { missing(seen); } else { handler = function (q) { return track(q); }; }
    while (seen > 0) { seen = seen - 1; }
    return make(seen)(index[seen]);
  }
}
"""

# (owner, callee name, resolved owner, unresolved reason, statement, line, col)
WALKER_CALL_SITES = [
    ("store", "save", "store", None, "ReturnStmt", 10, 43),
    ("store", "load", "store", None, "ReturnStmt", 14, 55),
    ("store", "util", SHARED, None, "ReturnStmt", 14, 69),
    ("view", "load", "store", None, "VarDecl", 22, 76),
    ("view", "save", "store", None, "ExprStmt", 22, 47),
    ("view", "ghost", None, "undeclared", "ExprStmt", 22, 57),
    ("view", "util", SHARED, None, "ReturnStmt", 22, 106),
    ("view", "load", "store", None, "VarDecl", 23, 22),
    ("view", None, None, "non-identifier", "ExprStmt", 23, 68),
    ("view", None, None, "non-identifier", "ExprStmt", 23, 76),
    ("view", "make", "store", None, "ExprStmt", 23, 73),
    ("view", "save", "store", None, "ExprStmt", 24, 22),
    ("view", "dup", None, "ambiguous", "ExprStmt", 25, 8),
    ("view", "handler", None, "undeclared", "ExprStmt", 26, 12),
    ("view", None, None, "non-identifier", "ExprStmt", 27, 19),
    ("view", None, None, "non-identifier", "ReturnStmt", 28, 46),
    ("view", "load", "store", None, "ReturnStmt", 28, 39),
    ("audit", "missing", None, "undeclared", "ExprStmt", 37, 25),
    ("audit", "track", "audit", None, "ReturnStmt", 37, 79),
    ("audit", None, None, "non-identifier", "ReturnStmt", 39, 22),
    ("audit", "make", "store", None, "ReturnStmt", 39, 16),
]

WALKER_WARNINGS = [
    "walker.tjs:22:57: unresolved call to 'ghost' (no declaration)",
    "walker.tjs:25:8: unresolved call to 'dup' (ambiguous: 2 declarations)",
    "walker.tjs:26:12: unresolved call to 'handler' (no declaration)",
    "walker.tjs:37:25: unresolved call to 'missing' (no declaration)",
]

# (caller, callee, callee name, annotated, label)
WALKER_CALLS = [
    ("store", "store", "save", False, "10:43"),
    ("store", "store", "load", False, "14:55"),
    ("store", SHARED, "util", False, "14:69"),
    ("view", "store", "load", False, "22:76"),
    ("view", "store", "save", False, "22:47"),
    ("view", SHARED, "util", False, "22:106"),
    ("view", "store", "load", False, "23:22"),
    ("view", "store", "make", False, "23:73"),
    ("view", "store", "save", True, "24:22"),
    ("view", "store", "load", False, "28:39"),
    ("audit", "audit", "track", False, "37:79"),
    ("audit", "store", "make", False, "39:16"),
]


def call_site_rows(program):
    return [(s.owner, s.callee_name, s.resolved_owner, s.unresolved_reason,
             type(s.stmt).__name__, s.node.span.line, s.node.span.col)
            for s in program.call_sites]


def test_walker_program_is_frozen():
    """Outputs on WALKER_SOURCE, recorded before the expression walks became
    one generic walk; the graph is pinned by the sha256 of its JSON."""
    program = resolve_calls(parse(WALKER_SOURCE, "walker.tjs"))
    assert call_site_rows(program) == WALKER_CALL_SITES
    assert program.warnings == WALKER_WARNINGS
    graph = build_pdg(program)
    assert hashlib.sha256(to_json(graph).encode()).hexdigest() == (
        "412e643742ee8bfbd29dc2d29d282f3b19a693d2d3a080297e33cdd70800fb1c")
    problem = placement_problem(graph)
    assert [(c.caller, c.callee, c.callee_name, c.annotated, c.label)
            for c in problem.calls] == WALKER_CALLS
    assert problem.unresolved_calls == 4
    reparsed = parse(emit(program), "walker.tjs")
    assert reparsed.slices == program.slices
    assert reparsed.shared_top_level == program.shared_top_level


# Functions, vars and a @reply inside function-expression bodies: in shared
# code, an object literal, a for condition, a return and var initializers.
# `dup` is declared in two of them, `ghost` in none, and `helper`, `pick` and
# `init` are each called from outside the body that declares them.
FUNC_EXPR_SOURCE = """\
/* @config store : server, view : client */
var boot = function () { function init() { return 0; } return init(); };

/* @slice store */
{
  var api = {get: function (k) {
    function pick(i) { var hit = i; return hit; }
    /* @reply */ show(pick(k));
    return dup(k);
  }};
  function save(r) { return r; }
}

/* @slice view */
{
  function show(v) { return v; }
  for (var i = save(0); save(function () { var n = 1; return helper(n); }); i = save(2)) { ghost(i); }
  var run = function () {
    function helper(x) { return save(x) + pick(x); }
    return [helper(1), function () { function dup(y) { return y; } return dup(2); }];
  };
  var other = function () { function dup(z) { return z; } return init(); };
}
"""

# As WALKER_CALL_SITES.  Each expression's calls come first, then the bodies of
# its function expressions, then the nested statements: line 17's for gives
# its condition, the body of the function expression in it, its update, its
# init and its body, in that order.
FUNC_EXPR_CALL_SITES = [
    ("store", "show", "view", None, "ExprStmt", 8, 22),
    ("store", "pick", "store", None, "ExprStmt", 8, 27),
    ("store", "dup", None, "undeclared", "ReturnStmt", 9, 15),
    ("view", "save", "store", None, "ForStmt", 17, 29),
    ("view", "helper", None, "undeclared", "ReturnStmt", 17, 68),
    ("view", "save", "store", None, "ForStmt", 17, 85),
    ("view", "save", "store", None, "VarDecl", 17, 20),
    ("view", "ghost", None, "undeclared", "ExprStmt", 17, 97),
    ("view", "save", "store", None, "ReturnStmt", 19, 37),
    ("view", "pick", None, "undeclared", "ReturnStmt", 19, 47),
    ("view", "helper", "view", None, "ReturnStmt", 20, 19),
    ("view", "dup", "view", None, "ReturnStmt", 20, 78),
    ("view", "init", None, "undeclared", "ReturnStmt", 22, 70),
    (SHARED, "init", SHARED, None, "ReturnStmt", 2, 67),
]

# A name binds in the innermost function body that declares it, so `dup` at
# 9:15, `helper` at 17:68, `pick` at 19:47 and `init` at 22:70 see no
# declaration, and `dup` at 20:78 is the one its own body declares.
FUNC_EXPR_WARNINGS = [
    "func_expr.tjs:9:15: unresolved call to 'dup' (no declaration)",
    "func_expr.tjs:17:68: unresolved call to 'helper' (no declaration)",
    "func_expr.tjs:17:97: unresolved call to 'ghost' (no declaration)",
    "func_expr.tjs:19:47: unresolved call to 'pick' (no declaration)",
    "func_expr.tjs:22:70: unresolved call to 'init' (no declaration)",
]


def test_function_expression_bodies_declare_and_call_like_any_other_code():
    program = resolve_calls(parse(FUNC_EXPR_SOURCE, "func_expr.tjs"))
    assert call_site_rows(program) == FUNC_EXPR_CALL_SITES
    assert program.warnings == FUNC_EXPR_WARNINGS
    graph = build_pdg(program)
    entry = {n.id: n.name for n in graph.nodes if n.kind == FUNCTION_ENTRY}
    site = {n.id: (n.span.line, n.span.col) for n in graph.nodes if n.kind == CALL_SITE}
    called = sorted((entry[e.dst], site[e.src]) for e in graph.edges if e.kind == CALL)
    assert called == [
        ("dup", (20, 78)), ("helper", (20, 19)), ("init", (2, 67)), ("pick", (8, 27)),
        ("save", (17, 20)), ("save", (17, 29)), ("save", (17, 85)), ("save", (19, 37)),
        ("show", (8, 22))]
    problem = placement_problem(graph)
    assert [(c.caller, c.callee, c.callee_name, c.annotated) for c in problem.calls
            if c.label == "8:22"] == [("store", "view", "show", True)]


def test_a_function_declared_in_a_function_expression_gets_its_call_edge():
    src = ("/* @slice a */\n"
           "{ var run = function () { function helper() { return 1; } return helper(); }; }\n")
    program = resolve_calls(parse(src))
    assert program.warnings == []
    (site,) = program.call_sites
    assert (site.resolved.name, site.resolved_owner) == ("helper", "a")
    graph = build_pdg(program)
    (entry,) = [n.id for n in graph.nodes if n.kind == FUNCTION_ENTRY]
    (call,) = [n.id for n in graph.nodes if n.kind == CALL_SITE]
    assert [e for e in graph.edges if e.kind == CALL] == [PdgEdge(call, entry, CALL)]


# A call binds its callee's name in the innermost function body that declares
# it, so `helper`, nested in `store`, cannot be called from `main`.
NESTED_SOURCE = """\
/* @config ui : client, db : server */
/* @slice db */ { function store(x) { function helper(y) { return y; } return helper(x); } }
/* @slice ui */ { function main() { helper(1); store(2); } }
"""

# As NESTED_SOURCE, with `helper` at the top of db and a `helper` of main's
# own that shadows it there.
SHADOW_SOURCE = """\
/* @config ui : client, db : server */
/* @slice db */ { function helper(y) { return y; } function store(x) { return helper(x); } }
/* @slice ui */ { function main() { function helper(z) { return z; } helper(1); store(2); } }
"""


def call_table(source, name):
    program = resolve_calls(parse(source, name))
    problem = placement_problem(build_pdg(program))
    rows = [(c.caller, c.callee, c.callee_name, c.label) for c in problem.calls]
    return rows, problem.unresolved_calls, program.warnings


def test_a_nested_function_cannot_be_called_from_outside_its_body():
    assert call_table(NESTED_SOURCE, "nested.tjs") == (
        [("db", "db", "helper", "2:85"), ("ui", "db", "store", "3:53")], 1,
        ["nested.tjs:3:43: unresolved call to 'helper' (no declaration)"])
    graph = build_pdg(resolve_calls(parse(NESTED_SOURCE)))
    assert '"ui" -> "db" [label="call:1"];' in to_dot(collapse_to_slice_graph(graph))


def test_an_inner_function_shadows_a_top_level_one():
    assert call_table(SHADOW_SOURCE, "shadow.tjs") == (
        [("db", "db", "helper", "2:85"), ("ui", "ui", "helper", "3:76"),
         ("ui", "db", "store", "3:86")], 0, [])


def test_same_named_inner_functions_each_serve_their_own_body():
    src = ("/* @slice a */ { function f() { function inner() { return 1; } return inner(); } }\n"
           "/* @slice b */ { function g() { function inner() { return 2; } return inner(); } }\n"
           "/* @slice c */ { function h() { return inner(); } }\n")
    program = resolve_calls(parse(src, "inner.tjs"))
    in_f, in_g, in_h = program.call_sites
    assert in_f.resolved is program.slices[0].body[0].body[0]
    assert in_g.resolved is program.slices[1].body[0].body[0]
    assert [s.resolved_owner for s in (in_f, in_g, in_h)] == ["a", "b", None]
    assert program.warnings == ["inner.tjs:3:45: unresolved call to 'inner' (no declaration)"]


def test_a_parameter_shadows_a_top_level_function():
    """Only in its own body: ``k`` still calls the top-level ``f``."""
    src = ("/* @slice a */ { function f(x) { return x; } function g(f) { return f(1); }\n"
           "  function k() { return f(2); } }\n")
    assert call_table(src, "param.tjs") == (
        [("a", "a", "f", "2:26")], 1, ["param.tjs:1:70: unresolved call to 'f' (no declaration)"])


def test_data_uses_bind_by_the_same_scope_rule():
    """A function declared in a body shadows an outer var there, as a
    parameter does: only ``h`` reads the top-level ``f``."""
    src = ("/* @slice a */ { var f = 0; function g(p) { function f() { return 1; } return f; }\n"
           "  function h() { return f; } function k(f) { return f; } }\n")
    graph = build_pdg(resolve_calls(parse(src)))
    nodes = graph.nodes
    assert [(nodes[e.src].name, nodes[e.dst].function) for e in graph.edges if e.kind == DATA] == [
        ("f", "h")]


# Re-assigns each var inside a function expression in its own initializer,
# in nested function expressions and in a ``for (var …)`` init: the var's own
# def comes before the defs made inside its initializer.
VAR_SCOPE_SOURCE = """\
/* @slice a */
{
  var x = function () { x = 1; return x; };
  var y = function (p) { var y = function () { y = p; }; y = x; return function () { x = y; }; };
  for (var i = function () { i = 0; }; i < 3; i = i + 1) { x = i; }
}
/* @slice b */
{
  function g() { var t = x + y + i; return t; }
  var z = function () { z = function () { z = x; }; return z; };
}
"""

# sha256 of to_json(build_pdg(...)), recorded before the builder became one
# scoped walk: node ids and edge order are pinned along with the edges.
FROZEN_GRAPHS = {
    "meetings.tjs": "36b66e332557ab076ccd80029cd5e4ca8cdbe865412b25d48d502ae67c2c73cc",
    "relay.tjs": "3d3ea95fb5bfffda269332bac10fe87a1113f987a4ba6639536b5c06ac73c934",
    "relay_reply.tjs": "755cbf91a635d4ece4a3de4c0c0bb32aab05d8d9de805f743f6f4c92a4657b47",
    "tracker.tjs": "91472d84c7341c2c25ff3f316581af9866ea7402dce12feba052fb05ffad993e",
    "unicorn_v1.tjs": "db366a4eca94e5da7f4616183d64d7d8f12f8a75eaf7b60a4d9c79ad90e2a426",
    "unicorn_v2.tjs": "bfd321b54dec1c514ec014aac188d3d287873083859d74a334b61fe2d7cdbf47",
    "unicorn_v3.tjs": "0fe6cb71b903962cd2b782ea77afce7b967171f202ad67182ed43768de2f984a",
    "unicorn_v4.tjs": "5d9acbb1945b785b6f233858a0ea8fb0fd6b925968928dae1766a1ae05e7155f",
    "unicorn_v5.tjs": "b0a9d2eec41c6a8b8ede792c917bf02e8df202c8562ca99efd5f2aa1b25046ba",
    "unicorn_v6.tjs": "3a7dd26f448826a95423b16f329d20e7bf587be245c9d9170c64dc77ca820de3",
    "random-0.tjs": "61caf8b8aa2008057152d8386e81cabcf131ee6ce0ccc6577df2390771a886ae",
    "random-1.tjs": "0845c77f6e2200f227355b647b2321f36ee47642cbda8f23e376051123072b89",
    "random-2.tjs": "58f0b3d1607302bdb991832031f51c334910f01286650f32cae4fd2d4551f91f",
    "random-3.tjs": "3f26a638b78883c08fc5d9a7ccde8846900aad462e100813b3b389136951ac1c",
    "var_scope.tjs": "dcdbc2d4c7c048e79ac09eb4b2cde5033848fb26f01cfe253508b3a075eea066",
}


@pytest.mark.parametrize("name", sorted(FROZEN_GRAPHS))
def test_graph_is_frozen(name):
    if name.startswith("random-"):
        source = random_source(int(name[len("random-"):-len(".tjs")]))
    elif name == "var_scope.tjs":
        source = VAR_SCOPE_SOURCE
    else:
        source = fixture_path(name).read_text()
    graph = build_pdg(resolve_calls(parse(source, name)))
    assert hashlib.sha256(to_json(graph).encode()).hexdigest() == FROZEN_GRAPHS[name]


INLINE_SOURCES = {"walker.tjs": WALKER_SOURCE, "var_scope.tjs": VAR_SCOPE_SOURCE,
                  "func_expr.tjs": FUNC_EXPR_SOURCE}


@pytest.mark.parametrize("name", ALL_FIXTURES + sorted(INLINE_SOURCES))
def test_pdg_declarations_are_the_program_declarations(name):
    """The builder's walk and the front end's walk see the same declarations,
    function-expression bodies included, in the same order."""
    source = INLINE_SOURCES.get(name) or fixture_path(name).read_text()
    program = resolve_calls(parse(source, name))
    graph = build_pdg(program)
    assert [(n.slice, n.span.start) for n in graph.nodes if n.kind == DECLARATION] == [
        (d.owner, d.node.span.start) for d in program.declarations]
