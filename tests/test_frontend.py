from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, load_fixture
from genprog import random_source
from tierslicer.errors import DuplicateSliceNameError, MalformedConfigError, ParseError
from tierslicer.frontend import Lexer, emit, iter_annotated_nodes, parse, resolve_calls
from tierslicer.syntax import AnnotationKind, Assign, Binary, Ident, NumberLit, Unary, VarDecl

ALL_FIXTURES = [p.name for p in sorted(fixture_path(".").glob("*.tjs"))]

# Statements that start with a parenthesised function expression or object
# literal: without their parentheses they would parse as a declaration or block.
PAREN_STATEMENTS = "/* @slice a */\n{ (function (z) { return z; })(3); ({k: 1}).k; }\n"

# Unary operands and number literals as the object of a member or index
# access, or as a callee: each keeps its parentheses.
POSTFIX_OPERANDS = (
    "/* @slice a */\n{ function f(n) { return n; } var a = 1;\n"
    "  var y = (-a).x; (!f)(1); var v = (1).x; var w = (-a)[0]; var t = (2)[a];\n"
    "  var u = -a.x; var r = !f(1); }\n"
)

# Numbers below 1e-4, which repr writes with an exponent the lexer rejects.
SMALL_NUMBERS = "/* @slice a */\n{ var x = 0.0000001; var y = 0.00001234; var z = (0.00005).k; }\n"

# Object keys that are not one identifier token, so emit must quote them,
# beside keys that stay bare (a keyword among them).
OBJECT_KEYS = r"""/* @slice a */
{ var o = {"a b": 1, "a\"b": 2, "": 3, "1x": 4, "²": 5, 'q"r': 6, if: 7, $k: 8, _k: 9}; }
"""

INLINE_PROGRAMS = {"paren_statements.tjs": PAREN_STATEMENTS,
                   "postfix_operands.tjs": POSTFIX_OPERANDS,
                   "small_numbers.tjs": SMALL_NUMBERS,
                   "object_keys.tjs": OBJECT_KEYS}


@pytest.mark.parametrize("name", ALL_FIXTURES + sorted(INLINE_PROGRAMS))
def test_emit_parse_round_trip_is_structurally_identical(name):
    if name in INLINE_PROGRAMS:
        program = resolve_calls(parse(INLINE_PROGRAMS[name], name))
    else:
        program = load_fixture(name)
    reparsed = parse(emit(program), name)
    assert reparsed.slices == program.slices
    assert reparsed.shared_top_level == program.shared_top_level


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_emit_is_idempotent(name):
    program = load_fixture(name)
    once = emit(program)
    assert emit(parse(once, name)) == once


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_generated_programs_round_trip_through_emit(seed):
    program = parse(random_source(seed), "random.tjs")
    once = emit(program)
    reparsed = parse(once, "random.tjs")
    assert reparsed == program
    assert emit(reparsed) == once


# A double quote in a single-quoted string, an escaped backslash and an
# escaped single quote; each used to gain a backslash on every emit.
STRING_ESCAPES = r"""/* @slice a */
{
  var p = 'say "hi"';
  var q = "back\\slash";
  var r = 'it\'s';
}
"""


def test_string_escapes_survive_emit_parse_rounds():
    program = parse(STRING_ESCAPES)
    once = emit(program)
    assert [line.strip() for line in once.splitlines()[2:5]] == [
        r'var p = "say \"hi\"";', r'var q = "back\\slash";', 'var r = "it\'s";']
    reparsed = parse(once)
    assert reparsed.slices == program.slices
    assert emit(reparsed) == once


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


def _naive_line_col(text: str, pos: int) -> tuple[int, int]:
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


_LETTERS = "abqzAQZ_$éßЖλ名"
_ident = st.builds(str.__add__, st.sampled_from(_LETTERS), st.text(_LETTERS + "0189", max_size=5))
_number = st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,3})?", fullmatch=True)
# No quote, backslash, '*' or '/': prose never closes a string or comment.
_prose = st.text("ab é名 \t\r\n;{}()", max_size=12)
_string = st.builds(lambda q, body: q + body + q, st.sampled_from("'\""), _prose)
_line_comment = st.builds(lambda body: "//" + body.replace("\n", "") + "\n", _prose)
_block_comment = st.builds(lambda body: "/*" + body + "*/", _prose)
_punct = st.sampled_from(["{", "}", "(", ")", ";", ",", "=", "==", "+", ".", "<="])
_separator = st.sampled_from(["", " ", "\n", "\r", "\t", "\r\n", "\n\n"])
_texts = st.lists(
    st.tuples(st.one_of(_ident, _number, _string, _line_comment, _block_comment, _punct), _separator),
    max_size=40,
).map(lambda parts: "".join(piece + sep for piece, sep in parts))


@settings(max_examples=200, deadline=None)
@given(_texts)
def test_token_positions_equal_a_naive_count(text):
    """Line is the number of newlines before a token plus one, and col its
    1-based offset from the last newline; a carriage return starts no line."""
    lexer = Lexer(text)
    for tok in lexer.tokens():
        span = lexer.span(tok)
        assert (span.line, span.col) == _naive_line_col(text, span.start)


@settings(max_examples=200, deadline=None)
@given(_texts, _separator, st.sampled_from(["'", '"', "/*"]), _prose)
def test_unterminated_literal_is_reported_where_it_opens(prefix, sep, opener, body):
    start = len(prefix) + len(sep)
    text = prefix + sep + opener + body
    with pytest.raises(ParseError) as err:
        Lexer(text).tokens()
    kind = "comment" if opener == "/*" else "string"
    assert err.value.message == f"unterminated {kind}"
    assert (err.value.line, err.value.col) == _naive_line_col(text, start)


# Each lexer match skips the whitespace and comments in front of one token, so
# these pin the edges of a match: (kind, value, start, end) of every token, or
# the error's (message, line, col).  Recorded before the skip moved into the
# token pattern.
LEXER_BOUNDARIES = [
    ("abé", [("IDENT", "abé", 0, 3), ("EOF", "", 3, 3)]),
    ("x²", [("IDENT", "x²", 0, 2), ("EOF", "", 2, 2)]),
    ("½", ("unexpected character '½'", 1, 1)),
    ("1٣", [("NUMBER", "1٣", 0, 2), ("EOF", "", 2, 2)]),
    ("$a_1", [("IDENT", "$a_1", 0, 4), ("EOF", "", 4, 4)]),
    ("a/b", [("IDENT", "a", 0, 1), ("PUNCT", "/", 1, 2), ("IDENT", "b", 2, 3), ("EOF", "", 3, 3)]),
    ("a/*c*/b", [("IDENT", "a", 0, 1), ("IDENT", "b", 6, 7), ("EOF", "", 7, 7)]),
    ("a /* @reply */ b", [("IDENT", "a", 0, 1), ("ANNOT", " @reply ", 2, 14),
                          ("IDENT", "b", 15, 16), ("EOF", "", 16, 16)]),
    ("//x", [("EOF", "", 3, 3)]),
    ("  /*", ("unterminated comment", 1, 3)),
    ("'it\\'s'", [("STRING", "it's", 0, 7), ("EOF", "", 7, 7)]),
    ('"a\\"b"', [("STRING", 'a\\"b', 0, 6), ("EOF", "", 6, 6)]),
    ("a\r\nb\r\n", [("IDENT", "a", 0, 1), ("IDENT", "b", 3, 4), ("EOF", "", 6, 6)]),
    ("/* @ui */ { <p>{x}</p> }", [("ANNOT", " @ui ", 0, 9), ("UI_BLOCK", " <p>{x}</p> ", 10, 24),
                                  ("EOF", "", 24, 24)]),
    ("", [("EOF", "", 0, 0)]),
    ("  \n\t ", [("EOF", "", 5, 5)]),
]


@pytest.mark.parametrize("text, expected", LEXER_BOUNDARIES)
def test_lexer_boundaries(text, expected):
    if isinstance(expected, tuple):
        with pytest.raises(ParseError) as err:
            Lexer(text).tokens()
        assert (err.value.message, err.value.line, err.value.col) == expected
    else:
        assert Lexer(text).tokens() == expected


@pytest.mark.parametrize("key, written", [
    (" a", '" a"'), ("a b", '"a b"'), ("//x", '"//x"'), ("é", "é"), ("x²", "x²"),
])
def test_emit_writes_a_key_bare_only_if_it_is_one_identifier_token(key, written):
    program = parse(f'/* @slice a */\n{{ var o = {{"{key}": 1}}; }}\n')
    assert emit(program) == "/* @slice a */\n{\n  var o = {" + written + ": 1};\n}\n"


# --- Operator precedence against an independent reference -------------------

# The reference's own table: binding power of each binary operator, loosest 1.
# Assignment binds loosest of all and groups to the right; prefix ``!`` and
# ``-`` bind tighter than any binary operator.
_REF_POWER = {"||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, ">": 4, "<=": 4, ">=": 4,
              "+": 5, "-": 5, "*": 6, "/": 6, "%": 6, "=": 0, "u!": 7, "u-": 7}


def shunting_yard(tokens: list) -> object:
    """Dijkstra's shunting-yard over an infix token list, building the AST."""
    out, ops = [], []

    def reduce():
        op = ops.pop()
        if op in ("u!", "u-"):
            out.append(Unary(op[1], out.pop()))
        else:
            right, left = out.pop(), out.pop()
            out.append(Assign(left, right) if op == "=" else Binary(op, left, right))

    want_operand = True
    for tok in tokens:
        if want_operand and tok in ("!", "-"):
            ops.append("u" + tok)
        elif want_operand and tok == "(":
            ops.append("(")
        elif want_operand:
            out.append(NumberLit(float(tok)) if tok.isdigit() else Ident(tok))
            want_operand = False
        elif tok == ")":
            while ops[-1] != "(":
                reduce()
            ops.pop()
        else:
            power = _REF_POWER[tok]
            while ops and ops[-1] != "(" and (
                    _REF_POWER[ops[-1]] > power or (_REF_POWER[ops[-1]] == power and tok != "=")):
                reduce()
            ops.append(tok)
            want_operand = True
    while ops:
        reduce()
    (tree,) = out
    return tree


_BINARY_OPS = [op for op in _REF_POWER if op != "=" and not op.startswith("u")]
# Infix token lists in which every assignment but the outermost chain is
# parenthesised, since an assignment target must be a name.
_infix = st.recursive(
    st.sampled_from(["a", "b", "c", "1", "2"]).map(lambda t: [t]),
    lambda inner: st.one_of(
        st.tuples(inner, st.lists(st.tuples(st.sampled_from(_BINARY_OPS), inner), min_size=1, max_size=4))
        .map(lambda p: p[0] + [t for op, rhs in p[1] for t in (op, *rhs)]),
        st.tuples(st.sampled_from(["!", "-"]), inner).map(lambda p: [p[0], *p[1]]),
        st.tuples(st.sampled_from([[], ["a", "="], ["b", "="]]), inner)
        .map(lambda p: ["(", *p[0], *p[1], ")"]),
    ),
    max_leaves=24,
)
_statement = st.tuples(st.lists(st.sampled_from(["a", "b"]), max_size=3), _infix).map(
    lambda p: [t for name in p[0] for t in (name, "=")] + p[1])


@settings(max_examples=300, deadline=None)
@given(_statement)
def test_binary_operators_group_as_the_reference_does(tokens):
    """Every binary level, prefix ``!`` and ``-``, parentheses and right-grouping
    assignment: the parser builds the shunting-yard reference's tree."""
    program = parse(" ".join(tokens) + ";")
    assert program.shared_top_level[0].expr == shunting_yard(tokens)


def test_config_and_annotations_inside_function_expressions_are_seen():
    src = ("/* @slice a */\n{ function g() { return 1; }\n"
           "  var f = function () { /* @config a : server\n @reply */ g(); };\n}\n")
    program = parse(src)
    assert program.slices[0].fixed_tier == "server"
    kinds = [a.kind for _, anns in iter_annotated_nodes(program) for a in anns]
    assert kinds == [AnnotationKind.SLICE, AnnotationKind.CONFIG, AnnotationKind.REPLY]
    assert [(d.name, d.kind) for d in program.declarations] == [("g", "function"), ("f", "var")]


# Each comma-separated list: call arguments, array elements, object entries
# and parameters.  A trailing comma is accepted.
@pytest.mark.parametrize("text, message", [
    ("f(1 2);", "2:7: expected ',', found '2'"),
    ("f(1,;", "2:7: unexpected token ';'"),
    ("var x = [1 2];", "2:14: expected ',', found '2'"),
    ("var x = [1,", "2:15: unexpected token '}'"),
    ("var x = {a: 1 b: 2};", "2:17: expected ',', found 'b'"),
    ("var x = {1: 2};", "2:12: expected object key"),
    ("var x = {a 1};", "2:14: expected ':', found '1'"),
    ("function g(a b) {}", "2:16: expected ',', found 'b'"),
    ("function g(1) {}", "2:14: expected identifier"),
])
def test_comma_list_errors(text, message):
    with pytest.raises(ParseError) as err:
        parse("/* @slice a */\n{ " + text + " }\n", "c.tjs")
    assert str(err.value) == "c.tjs:" + message


def test_comma_lists_accept_a_trailing_comma():
    program = parse("/* @slice a */\n{ function g(a,) { return [a,]; } var o = {k: g(1,),}; }\n")
    assert emit(program) == emit(parse("/* @slice a */\n"
                                       "{ function g(a) { return [a]; } var o = {k: g(1)}; }\n"))
