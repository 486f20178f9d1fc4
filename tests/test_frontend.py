from __future__ import annotations

import runpy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, load_fixture, naive_line_col
from genprog import random_source
from tierslicer import frontend
from tierslicer.errors import DuplicateSliceNameError, MalformedConfigError, ParseError
from tierslicer.frontend import Lexer, emit, iter_annotated_nodes, parse, resolve_calls
from tierslicer.syntax import (AnnotationKind, Assign, Binary, Call, CallSiteInfo, FuncExpr, Ident,
                               NumberLit, Stmt, Unary, VarDecl, line_col, subnodes)

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


@pytest.mark.parametrize(("statement", "written"), [
    ("var t = false;", "var t = false;"),
    ("for (i = 0; i < 3; i = i + 1) { f(i); }", "for (i = 0; i < 3; i = i + 1) {"),
    ("for (; i < 3; ) { f(i); }", "for (; i < 3; ) {"),
    ("for (;;) { f(i); }", "for (; ; ) {"),
], ids=["false", "for-expression-init", "for-empty-init", "for-no-clauses"])
def test_rarer_forms_round_trip_through_emit(statement, written):
    program = parse("/* @slice a */\n{ var i = 0; function f(x) { return x; }\n  " + statement + "\n}\n")
    once = emit(program)
    assert f"\n  {written}\n" in once
    reparsed = parse(once)
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


def test_emit_rejects_a_node_of_the_other_kind():
    """The expression emitter given a statement, or the statement emitter
    given an expression, names the node it cannot emit."""
    with pytest.raises(TypeError, match="cannot emit VarDecl"):
        frontend.emit_expr(VarDecl("x", None, []))
    with pytest.raises(TypeError, match="cannot emit Ident"):
        frontend.emit_stmt(Ident("x"), "  ")


def test_a_node_reads_as_its_constructor_call():
    node = Binary("+", Ident("a", (0, 1)), NumberLit(1.0, (4, 5)), (0, 5))
    assert repr(node) == ("Binary(op='+', left=Ident(name='a', span=(0, 1)), "
                          "right=NumberLit(value=1.0, span=(4, 5)), span=(0, 5))")


def test_string_escapes_survive_emit_parse_rounds():
    program = parse(STRING_ESCAPES)
    once = emit(program)
    assert [line.strip() for line in once.splitlines()[2:5]] == [
        r'var p = "say \"hi\"";', r'var q = "back\\slash";', 'var r = "it\'s";']
    reparsed = parse(once)
    assert reparsed.slices == program.slices
    assert emit(reparsed) == once


def test_a_lone_annotated_ui_block_keeps_its_annotation():
    """A slice whose only statement is a ``@ui`` block is not the slice-level
    ``@ui`` form: emit keeps the block and its annotation."""
    program = parse("/* @config a : client */ /* @slice a */ { /* @ui */ { <div>x</div> } }")
    once = emit(program)
    assert "/* @ui */" in once
    reparsed = parse(once)
    assert reparsed.slices == program.slices
    assert emit(reparsed) == once


def test_a_slice_level_ui_block_stays_bare():
    program = parse("/* @config a : client */ /* @slice a @ui */ { <div>x</div> }")
    once = emit(program)
    assert once.endswith("@ui */\n{ <div>x</div> }\n")
    assert parse(once).slices == program.slices


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
        assert line_col(lexer.line_starts, tok[2]) == naive_line_col(text, tok[2])


@settings(max_examples=200, deadline=None)
@given(_texts, _separator, st.sampled_from(["'", '"', "/*"]), _prose)
def test_unterminated_literal_is_reported_where_it_opens(prefix, sep, opener, body):
    start = len(prefix) + len(sep)
    text = prefix + sep + opener + body
    with pytest.raises(ParseError) as err:
        Lexer(text).tokens()
    kind = "comment" if opener == "/*" else "string"
    assert err.value.message == f"unterminated {kind}"
    assert (err.value.line, err.value.col) == naive_line_col(text, start)


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
    ("/* @ui */ { <p/> } x;", [("ANNOT", " @ui ", 0, 9), ("UI_BLOCK", " <p/> ", 10, 18),
                               ("IDENT", "x", 19, 20), ("PUNCT", ";", 20, 21), ("EOF", "", 21, 21)]),
    ("٣", [("NUMBER", "٣", 0, 1), ("EOF", "", 1, 1)]),
    ("/*/", ("unterminated comment", 1, 1)),
    ("'a\"b'", [("STRING", 'a\\"b', 0, 5), ("EOF", "", 5, 5)]),
    ("&", ("unexpected character '&'", 1, 1)),
    ("|", ("unexpected character '|'", 1, 1)),
    ("a//c\nb", [("IDENT", "a", 0, 1), ("IDENT", "b", 5, 6), ("EOF", "", 6, 6)]),
    ("x \n", [("IDENT", "x", 0, 1), ("EOF", "", 3, 3)]),
    ('"@ui */" x', [("STRING", "@ui */", 0, 8), ("IDENT", "x", 9, 10), ("EOF", "", 10, 10)]),
    ("// @ui */\nx", [("IDENT", "x", 10, 11), ("EOF", "", 11, 11)]),
    ("a /* see @ui */ b", [("IDENT", "a", 0, 1), ("IDENT", "b", 16, 17), ("EOF", "", 17, 17)]),
    ('"@ui" a /*/ b */ c', [("STRING", "@ui", 0, 5), ("IDENT", "a", 6, 7), ("IDENT", "c", 17, 18),
                            ("EOF", "", 18, 18)]),
    ("/* @ui */ { <p>'</p> } x", [("ANNOT", " @ui ", 0, 9), ("UI_BLOCK", " <p>'</p> ", 10, 22),
                                  ("IDENT", "x", 23, 24), ("EOF", "", 24, 24)]),
    # U+FEFF, the byte-order mark, is whitespace: between tokens, after a
    # line comment, and before a @ui block.
    ("a\ufeffb", [("IDENT", "a", 0, 1), ("IDENT", "b", 2, 3), ("EOF", "", 3, 3)]),
    ("//c\n\ufeffx", [("IDENT", "x", 5, 6), ("EOF", "", 6, 6)]),
    ("\ufeff/* @ui */\ufeff{ <p/> }", [("ANNOT", " @ui ", 1, 10), ("UI_BLOCK", " <p/> ", 11, 19),
                                       ("EOF", "", 19, 19)]),
]


class _CountingPattern:
    """The token pattern, counting the characters each ``findall`` is given."""

    def __init__(self, pattern):
        self.pattern, self.chars = pattern, 0

    def findall(self, text, pos, endpos):
        self.chars += endpos - pos
        return self.pattern.findall(text, pos, endpos)


def test_lexing_reads_each_character_once_however_many_ui_blocks(monkeypatch):
    text = "".join(f"/* @slice s{i} */\n{{ var a{i} = 'it\\'s'; }}\n/* @ui */ {{ <p>Don't {{a{i}}}</p> }}\n"
                   for i in range(200))
    counting = _CountingPattern(frontend._TOKEN)
    monkeypatch.setattr(frontend, "_TOKEN", counting)
    tokens = Lexer(text).tokens()
    assert sum(t[0] == "UI_BLOCK" for t in tokens) == 200
    assert counting.chars <= len(text)


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


# Member and index targets and callees, calls nested in arguments and in
# callees, chained assignments and function expressions: as a callee, as an
# argument, in an object literal and in a for loop's parts.
NAME_USES = """\
/* @slice a */
{
  var o = {}; var arr = []; var k = 0; var n = 1;
  function f(x) { return x; }
  o.p = k; arr[k] = n; o.q.r = arr[n + k]; arr[f(k)][n] = o; this.t = n;
  o.m(k, n); arr[k](n); o.p.m(f(k)); f(f(k), f(n))(o); (o)(k);
  k = n = f(arr[k]) + o.p; arr[k] = o.p = n;
  var g = function (p) { k = p + n; return f(p); };
  o.cb = function (v) { return v + k; }; arr[n] = f(function () { n = k; }, k);
  (function (z) { return z + n; })(k);
  k = {a: n, b: function () { return o; }, c: [k, f(n)]};
  if (f(k) && !o.p) { n = -k; }
  for (k = f(0); k < n; k = k + arr[k]) { f(k); }
  for (var i = function () { return k; }; i(); i = null) { n = i; }
}
"""


def _reference_names(st) -> tuple:
    """``st``'s reads and writes, by a pre-order scan of every expression node of its own (function
    expressions not entered) that skips callees and assignment targets and
    takes an Ident target as a write."""
    order = []

    def scan(node):
        order.append(node)
        if not isinstance(node, FuncExpr):
            for kid in subnodes(node):
                scan(kid)

    for kid in subnodes(st):
        if not isinstance(kid, Stmt):
            scan(kid)
    reads, writes, skipped = [], [], set()
    for n in order:
        if isinstance(n, Call):
            skipped.add(id(n.callee))
        elif isinstance(n, Assign):
            skipped.add(id(n.target))
            if isinstance(n.target, Ident):
                writes.append(n.target.name)
        elif isinstance(n, Ident) and id(n) not in skipped:
            reads.append(n.name)
    return reads, writes


def _name_use_sources():
    """(name, text): fixtures, generated programs, corpus and inline programs."""
    extra = runpy.run_path(str(Path(__file__).parent.parent / "scripts" / "cli_corpus.py"))["EXTRA"]
    yield from ((name, fixture_path(name).read_text()) for name in ALL_FIXTURES)
    yield from ((f"random-{seed}.tjs", random_source(seed)) for seed in range(6))
    yield from ((name, extra[name]) for name in ("closure.tjs", "func_expr.tjs", "moved_nested.tjs"))
    yield from INLINE_PROGRAMS.items()
    yield "name_uses.tjs", NAME_USES


NAME_USE_SOURCES = dict(_name_use_sources())


@pytest.mark.parametrize("name", NAME_USE_SOURCES)
def test_the_walk_records_each_statements_reads_and_writes(name):
    """As the reference scan classifies them, in the same order, in one bind
    after a VarDecl's own name; a statement that reads and writes no name
    binds none, an empty side is ``()``, and no bind holds an expression
    node."""
    program = parse(NAME_USE_SOURCES[name], name)
    binds = {}
    for at, scope, reads, writes in program.binds:
        assert scope is program.steps[at][2]
        assert all(isinstance(n, str) for n in (*reads, *writes))
        assert reads or reads == ()
        assert writes or writes == ()
        binds.setdefault(at, []).append((list(reads), list(writes)))
    statements = [(k, step[0]) for k, step in enumerate(program.steps) if isinstance(step, tuple)]
    assert statements
    for k, st in statements:
        expected = [([], [st.name])] if isinstance(st, VarDecl) else []
        names = _reference_names(st)
        if any(names):
            expected.append(names)
        assert binds.pop(k, []) == expected
    assert not binds


# ``x``'s third def is the outer statement, bound after its body's ``x = 1``;
# ``y``'s declaration binds before its initializer's body assigns it; ``p``,
# a parameter, binds to no var.
BIND_ORDER = """\
/* @slice a */
{
  var x;
  x = function () { x = 1; return x; };
  var y = function (p) { y = 2; p = 3; return y + x; };
}
"""


def test_def_use_lists_each_vars_steps_in_bind_order():
    """A def or use in a function expression's body comes before those of
    the statement that holds it, and a VarDecl's own name before its
    initializer's bodies.  Every step is a statement or a call site."""
    program = parse(BIND_ORDER)
    assert all(isinstance(step, (tuple, CallSiteInfo)) for step in program.steps)
    at = {id(step[0]): k for k, step in enumerate(program.steps) if isinstance(step, tuple)}
    x, assign_x, y = program.slices[0].body
    inner_x, return_x = assign_x.expr.value.body
    inner_y, _, return_y = y.init.body
    defs, uses = frontend.def_use(program)
    key = {d.name: id(d) for d in program.declarations}
    assert defs == {key["x"]: [at[id(x)], at[id(inner_x)], at[id(assign_x)]],
                    key["y"]: [at[id(y)], at[id(inner_y)]]}
    assert uses == {key["x"]: [at[id(return_x)], at[id(return_y)]],
                    key["y"]: [at[id(return_y)]]}
