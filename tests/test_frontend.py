from __future__ import annotations

import pytest

from conftest import fixture_path, load_fixture
from tierslicer.errors import DuplicateSliceNameError, MalformedConfigError, ParseError
from tierslicer.frontend import emit, parse, resolve_calls
from tierslicer.syntax import AnnotationKind, VarDecl

ALL_FIXTURES = [p.name for p in sorted(fixture_path(".").glob("*.tjs"))]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_emit_parse_round_trip_is_structurally_identical(name):
    program = load_fixture(name)
    reparsed = parse(emit(program), name)
    assert reparsed.slices == program.slices
    assert reparsed.shared_top_level == program.shared_top_level


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_emit_is_idempotent(name):
    program = load_fixture(name)
    once = emit(program)
    assert emit(parse(once, name)) == once


def test_config_fixes_slice_tiers():
    program = load_fixture("tracker.tjs")
    tiers = {s.name: s.fixed_tier for s in program.slices}
    assert tiers == {"data": "server", "browser": "client"}


def test_replicated_annotation_attaches_to_var():
    program = load_fixture("unicorn_v3.tjs")
    data = next(s for s in program.slices if s.name == "data")
    replicated = [
        st.name for st in data.body
        if isinstance(st, VarDecl)
        and any(a.kind is AnnotationKind.REPLICATED for a in st.annotations)
    ]
    assert replicated == ["meetings", "tasks"]


def test_reply_annotation_attaches_to_call_statement():
    program = load_fixture("relay_reply.tjs")
    annotated = [
        s for s in program.call_sites
        if any(a.kind is AnnotationKind.REPLY for a in s.stmt.annotations)
    ]
    assert sorted(s.callee_name for s in annotated) == ["logEvent", "render"]


def test_plain_comments_are_not_annotations():
    program = parse("/* just prose */\n/* @slice a */\n{ var x = 1; }\n")
    assert [s.name for s in program.slices] == ["a"]


def test_duplicate_slice_name_rejected():
    src = "/* @slice a */\n{ var x = 1; }\n/* @slice a */\n{ var y = 2; }\n"
    with pytest.raises(DuplicateSliceNameError):
        parse(src)


def test_config_with_bad_tier_rejected():
    src = "/* @config a : database */\n/* @slice a */\n{ var x = 1; }\n"
    with pytest.raises(MalformedConfigError):
        parse(src)


def test_config_for_undeclared_slice_rejected():
    src = "/* @config ghost : client */\n/* @slice a */\n{ var x = 1; }\n"
    with pytest.raises(MalformedConfigError):
        parse(src)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        parse("/* @slice a */\n{ var = 1; }\n", "broken.tjs")
    assert "broken.tjs:2:" in str(err.value)


def test_undeclared_callee_warns_and_stays_unresolved():
    program = resolve_calls(parse("/* @slice a */\n{ function f() { ghost(1); } }\n"))
    assert len(program.warnings) == 1
    assert "ghost" in program.warnings[0]
    (site,) = program.call_sites
    assert site.resolved is None and site.unresolved_reason == "undeclared"


def test_ambiguous_callee_warns():
    src = (
        "/* @slice a */\n{ function f() { return 1; } }\n"
        "/* @slice b */\n{ function f() { return 2; } function g() { f(); } }\n"
    )
    program = resolve_calls(parse(src))
    assert any("ambiguous" in w for w in program.warnings)


def test_member_callee_is_silently_external():
    program = resolve_calls(parse("/* @slice a */\n{ function f(x) { console.log(x); } }\n"))
    assert program.warnings == []
    (site,) = program.call_sites
    assert site.unresolved_reason == "non-identifier"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_resolution_survives_round_trip(name):
    program = load_fixture(name)
    reparsed = resolve_calls(parse(emit(program), name))
    original = [(s.owner, s.callee_name, s.resolved_owner) for s in program.call_sites]
    again = [(s.owner, s.callee_name, s.resolved_owner) for s in reparsed.call_sites]
    assert again == original
