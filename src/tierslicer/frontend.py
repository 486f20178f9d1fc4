"""TierJS frontend: lexer, recursive-descent parser, emitter, call resolution.

The lexer reads the source once, with one token pattern; each match skips the
whitespace and ``//`` comments in front of one token.  A token is a plain
``(kind, value, start, end)`` tuple, ``start`` and ``end`` being the offsets
of its text.  Its kinds are IDENT (keywords included), NUMBER, STRING, PUNCT,
ANNOT (an annotation comment), UI_BLOCK (the verbatim block after ``@ui``)
and EOF.  ``Lexer.span`` builds a token's ``Span``, with line and col, from
the lexer's line-start table, and the parser calls it only where a span is
kept: in an AST node, a call-site label or an error.  A line is the number of
``"\\n"`` before the offset plus 1 (``"\\r"`` starts no line), and a col is
the 1-based code-point offset in that line.  A STRING token's value is its
body as written between double quotes (a single-quoted body gets its bare
``"`` escaped and its ``\\'`` unescaped), which the emitter writes back
unchanged.

Binary operators are parsed by precedence climbing over one table,
``_BIN_LEVELS``, which the emitter also reads to place parentheses.  Nesting
deeper than ``MAX_NESTING`` levels is a parse error, so the recursive walks
over the tree stay within Python's recursion limit.

Annotations are written inside ``/* ... */`` comments whose stripped text
starts with ``@``; one comment may carry several annotations (e.g. a
``@config`` line followed by ``@slice``).  An annotation comment attaches to
the syntactically next block, declaration or statement.  Plain block comments
and ``//`` line comments are ignored.

``parse`` walks the statements once, in pre-order (``walk``); the walk
enters a function expression's body right after the statement that holds it.
It carries the ES5 scope chain: one global scope, and one per function and
function-expression body.  From that one walk ``parse`` applies ``@config``,
lists the declarations, records the call sites with their scopes and keeps
the steps for the dependence graph.  ``resolve_calls`` walks nothing: it
looks each recorded callee up in its scope chain.  ``advisor.apply_advice``
runs the same walk over the tree it edits, and parses no text.

AST equality ignores spans, so ``parse(emit(program))`` equals ``program``
slice for slice and statement for statement.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from decimal import Decimal

from .errors import (
    DuplicateSliceNameError,
    MalformedConfigError,
    ParseError,
    UnknownAnnotationKindError,
)
from .model import SHARED
from .syntax import (
    ANNOTATION_NAMES,
    Annotation,
    AnnotationKind,
    ArrayLit,
    Assign,
    Binary,
    BlockStmt,
    BoolLit,
    Call,
    CallSiteInfo,
    Declaration,
    ExprStmt,
    ForStmt,
    FuncExpr,
    FunctionDecl,
    Ident,
    IfStmt,
    Index,
    Member,
    NullLit,
    NumberLit,
    ObjectLit,
    ReturnStmt,
    Scope,
    SliceDecl,
    SourceProgram,
    Span,
    Stmt,
    StringLit,
    ThisExpr,
    UiBlock,
    Unary,
    VarDecl,
    WhileStmt,
    subnodes,
)

KEYWORDS = {"var", "function", "if", "else", "while", "for", "return", "true", "false", "null", "this"}

# Whitespace and ``//`` comments, then one alternative per token kind; a match
# that ends before any token group is the end of the text or a lexing error.
# ``\s``, ``\w`` and ``\d`` mean ``str.isspace``, ``str.isalnum`` or ``_``,
# and ``str.isdecimal``.  No class means ``str.isalpha``, so the lexer rejects
# an IDENT whose first character is a number other than a decimal digit
# (``²``, ``½``, ``Ⅻ``).  A COMMENT of two characters is an unterminated
# ``/*``.
_TOKEN = re.compile(
    r"""(?:\s+|//[^\n]*)*
      (?: (?P<COMMENT>/\*(?:.*?\*/)?)
        | (?P<NUMBER>\d[\d.]*)
        | (?P<IDENT>(?:[^\W\d]|\$)[\w$]*)
        | (?P<STRING>"[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*')
        | (?P<PUNCT>[=!<>]=|&&|\|\||[{}()\[\];,.:=<>+\-*/%!])
      )?""",
    re.VERBOSE | re.DOTALL,
)

# How a single-quoted string body is written between double quotes.
_REQUOTE = {'"': '\\"', "\\'": "'"}


class Lexer:
    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def span(self, tok: tuple) -> Span:
        """A token's Span; its line and col are looked up in the line table."""
        start, lines = tok[2], self.line_starts
        line = bisect_right(lines, start)
        # tuple.__new__ skips Span.__new__, a Python function, on the parser's
        # hottest path.
        return tuple.__new__(Span, (start, tok[3], line, start - lines[line - 1] + 1))

    def error(self, msg: str, pos: int):
        span = self.span(("", "", pos, pos))
        raise ParseError(msg, span.line, span.col, self.filename)

    def tokens(self) -> list[tuple]:
        """The ``(kind, value, start, end)`` tokens, ending with EOF."""
        text, out, n, pos, match = self.text, [], len(self.text), 0, _TOKEN.match
        while True:
            m = match(text, pos)
            kind = m.lastgroup
            if kind is None:
                pos = m.end()
                if pos == n:
                    break
                quote = text[pos] in "'\""
                self.error("unterminated string" if quote else f"unexpected character {text[pos]!r}", pos)
            start, pos = m.start(kind), m.end()
            if kind == "COMMENT":
                if pos - start == 2:
                    self.error("unterminated comment", start)
                inner = text[start + 2 : pos - 2]
                if inner.strip().startswith("@"):
                    out.append(("ANNOT", inner, start, pos))
                    if "@ui" in inner and self._is_ui_comment(inner):
                        pos = self._capture_ui_block(out, pos)
                continue
            if kind == "STRING":
                body = text[start + 1 : pos - 1]
                if text[start] == "'":
                    body = re.sub(r'"|\\.', lambda m: _REQUOTE.get(m[0], m[0]), body, flags=re.S)
                out.append((kind, body, start, pos))
                continue
            if kind == "IDENT" and not (text[start].isalpha() or text[start] in "_$"):
                self.error(f"unexpected character {text[start]!r}", start)
            out.append((kind, text[start:pos], start, pos))
        out.append(("EOF", "", n, n))
        return out

    @staticmethod
    def _is_ui_comment(inner: str) -> bool:
        return any(m.group(1) == "ui" for m in re.finditer(r"@(\w+)", inner))

    def _capture_ui_block(self, out: list, pos: int) -> int:
        """Capture the block after a @ui comment verbatim (HTML-ish content)."""
        text, n = self.text, len(self.text)
        i = pos
        while i < n and text[i].isspace():
            i += 1
        if i >= n or text[i] != "{":
            self.error("expected '{' after @ui annotation", i)
        depth, j = 0, i
        while j < n:
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        if depth != 0:
            self.error("unterminated @ui block", i)
        out.append(("UI_BLOCK", text[i + 1 : j], i, j + 1))
        return j + 1


# --- Annotation comment parsing ------------------------------------------

_TIERS = {"client", "server"}


def parse_annotation_comment(inner: str, span: Span, filename: str = "<input>") -> list[tuple]:
    """Split one annotation comment into its annotations' (kind, args) pairs;
    ``span``, the comment's, places a parse error."""
    out = []
    matches = list(re.finditer(r"@(\w+)", inner))
    for idx, m in enumerate(matches):
        name = m.group(1)
        kind = ANNOTATION_NAMES.get(name)
        if kind is None:
            raise UnknownAnnotationKindError(f"unknown annotation @{name}")
        arg_text = inner[m.end() : matches[idx + 1].start() if idx + 1 < len(matches) else len(inner)]
        if kind is AnnotationKind.CONFIG:
            args = _parse_config_args(arg_text)
        elif kind is AnnotationKind.SLICE:
            idents = re.findall(r"[\w$]+", arg_text)
            if len(idents) != 1:
                raise ParseError("@slice takes exactly one name", span.line, span.col, filename)
            args = idents
        else:
            args = re.findall(r"[\w$]+", arg_text)
        out.append((kind, args))
    return out


def _parse_config_args(arg_text: str) -> list:
    pairs = []
    for chunk in arg_text.split(","):
        if not chunk.strip():
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise MalformedConfigError(f"malformed @config entry {chunk.strip()!r}")
        name, tier = parts[0].strip(), parts[1].strip()
        if not re.fullmatch(r"[\w$]+", name or "") or tier not in _TIERS:
            raise MalformedConfigError(f"malformed @config entry {chunk.strip()!r}")
        pairs.append((name, tier))
    if not pairs:
        raise MalformedConfigError("@config carries no name : tier pairs")
    return pairs


# --- Parser ---------------------------------------------------------------

# Binary operators by level, loosest first; all are left-associative.  A
# level's number, counted from 1, is its operators' binding power, which the
# parser's precedence-climbing loop and the emitter's parenthesising both read.
_BIN_LEVELS = [
    ["||"],
    ["&&"],
    ["==", "!="],
    ["<", ">", "<=", ">="],
    ["+", "-"],
    ["*", "/", "%"],
]
_PREC = {op: level for level, ops in enumerate(_BIN_LEVELS, 1) for op in ops}
# Binding power of a unary operand, then of a postfix operand (a member or
# index object, or a callee); the emitter reads these.
_UNARY = len(_BIN_LEVELS) + 1
_POSTFIX = _UNARY + 1

# Deepest nesting the parser accepts.  Each statement block or branch, each
# expression, each unary operator and each link of a binary-operator or postfix
# chain is one level.  The bound keeps the parser's own recursion and the
# recursive walks that analyse and emit the tree within Python's default
# recursion limit of 1,000 frames.
MAX_NESTING = 100


class Parser:
    def __init__(self, lexer: Lexer):
        self._rest = iter(lexer.tokens())
        self.tok = next(self._rest)  # the current token
        self.span = lexer.span
        self.filename = lexer.filename
        self.depth = 0
        self._annotations = {}  # annotation comment text -> its (kind, args) pairs

    def advance(self) -> tuple:
        """Consume the current token; the EOF token, the last, is never consumed."""
        tok = self.tok
        self.tok = next(self._rest, tok)
        return tok

    def error(self, msg: str):
        span = self.span(self.tok)
        raise ParseError(msg, span.line, span.col, self.filename)

    def deeper(self) -> None:
        """Go one nesting level down; the caller restores ``depth`` on the way up."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nested too deeply")

    def at_punct(self, value: str) -> bool:
        t = self.tok
        return t[1] == value and t[0] == "PUNCT"

    def expect(self, value: str) -> tuple:
        """Consume the PUNCT or IDENT token ``value``."""
        t = self.tok
        if t[1] == value and (t[0] == "PUNCT" or t[0] == "IDENT"):
            self.tok = next(self._rest, t)
            return t
        self.error(f"expected {value!r}, found {t[1] or t[0]!r}")

    # -- program -----------------------------------------------------------

    def parse_program(self) -> tuple[list, list]:
        """Returns (slices, shared statements); @config resolution happens later."""
        slices, shared = [], []
        while self.tok[0] != "EOF":
            annotations = self._pending_annotations()
            if any(a.kind is AnnotationKind.SLICE for a in annotations):
                slices.append(self._parse_slice(annotations))
            else:
                shared.append(self._parse_statement(annotations))
        return slices, shared

    def _pending_annotations(self) -> list:
        """The annotations of the comments at the current token.  Each comment
        text is split once; each occurrence gets its own span and args lists."""
        annotations = []
        while self.tok[0] == "ANNOT":
            tok = self.advance()
            span = self.span(tok)
            pairs = self._annotations.get(tok[1])
            if pairs is None:
                pairs = self._annotations[tok[1]] = parse_annotation_comment(tok[1], span, self.filename)
            annotations += [Annotation(kind, list(args), span) for kind, args in pairs]
        return annotations

    def _parse_slice(self, annotations: list) -> SliceDecl:
        name = next(a.args[0] for a in annotations if a.kind is AnnotationKind.SLICE)
        start = self.span(self.tok)
        if self.tok[0] == "UI_BLOCK":
            tok = self.advance()
            body = [UiBlock(tok[1], [], self.span(tok))]
            return SliceDecl(name, body, None, annotations, start)
        self.expect("{")
        body = self._statements_until_brace()
        return SliceDecl(name, body, None, annotations, start)

    def _statements_until_brace(self) -> list:
        self.deeper()
        body = []
        while not self.at_punct("}"):
            if self.tok[0] == "EOF":
                self.error("expected '}'")
            annotations = self._pending_annotations() if self.tok[0] == "ANNOT" else []
            body.append(self._parse_statement(annotations))
        self.expect("}")
        self.depth -= 1
        return body

    # -- statements --------------------------------------------------------

    def _parse_statement(self, annotations: list | None = None) -> Stmt:
        if annotations is None:
            annotations = self._pending_annotations()
        tok = self.tok
        if tok[0] == "UI_BLOCK":
            self.advance()
            return UiBlock(tok[1], annotations, self.span(tok))
        if annotations and any(a.kind is AnnotationKind.UI for a in annotations):
            self.error("@ui annotation must precede a block")
        if tok[0] == "IDENT":
            parse_keyword = _KEYWORD_STATEMENTS.get(tok[1])
            if parse_keyword is not None:
                return parse_keyword(self, annotations)
        elif tok[1] == "{" and tok[0] == "PUNCT":
            self.advance()
            return BlockStmt(self._statements_until_brace(), annotations, self.span(tok))
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(expr, annotations, self.span(tok))

    def _parse_var_decl(self, annotations: list) -> VarDecl:
        span = self.span(self.expect("var"))
        name = self._ident_name()
        init = None
        if self.at_punct("="):
            self.advance()
            init = self.parse_expr()
        self.expect(";")
        return VarDecl(name, init, annotations, span)

    def _parse_function_decl(self, annotations: list) -> FunctionDecl:
        span = self.span(self.expect("function"))
        name = self._ident_name()
        params = self._parse_params()
        self.expect("{")
        body = self._statements_until_brace()
        return FunctionDecl(name, params, body, annotations, span)

    def _parse_params(self) -> list:
        self.expect("(")
        return self._comma_list(")", self._ident_name)

    def _comma_list(self, close: str, item) -> list:
        """``item()`` results separated by commas, up to and including ``close``."""
        items, tok = [], self.tok
        while tok[1] != close or tok[0] != "PUNCT":
            items.append(item())
            tok = self.tok
            if tok[1] != close or tok[0] != "PUNCT":
                self.expect(",")
                tok = self.tok
        self.tok = next(self._rest, tok)
        return items

    def _ident_name(self) -> str:
        tok = self.tok
        if tok[0] != "IDENT" or tok[1] in KEYWORDS:
            self.error("expected identifier")
        self.tok = next(self._rest, tok)
        return tok[1]

    def _parse_if(self, annotations: list) -> IfStmt:
        span = self.span(self.expect("if"))
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self._branch_body()
        orelse = []
        tok = self.tok
        if tok[1] == "else" and tok[0] == "IDENT":
            self.advance()
            orelse = self._branch_body()
        return IfStmt(cond, then, orelse, annotations, span)

    def _branch_body(self) -> list:
        if self.at_punct("{"):
            self.advance()
            return self._statements_until_brace()
        self.deeper()
        body = [self._parse_statement()]
        self.depth -= 1
        return body

    def _parse_while(self, annotations: list) -> WhileStmt:
        span = self.span(self.expect("while"))
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return WhileStmt(cond, self._branch_body(), annotations, span)

    def _parse_for(self, annotations: list) -> ForStmt:
        span = self.span(self.expect("for"))
        self.expect("(")
        init = None
        tok = self.tok
        if tok[1] == "var" and tok[0] == "IDENT":
            init = self._parse_var_decl([])  # it consumes the ';'
        elif not self.at_punct(";"):
            init = ExprStmt(self.parse_expr(), [], self.span(tok))
            self.expect(";")
        else:
            self.advance()
        cond = None if self.at_punct(";") else self.parse_expr()
        self.expect(";")
        update = None if self.at_punct(")") else self.parse_expr()
        self.expect(")")
        return ForStmt(init, cond, update, self._branch_body(), annotations, span)

    def _parse_return(self, annotations: list) -> ReturnStmt:
        span = self.span(self.expect("return"))
        value = None
        if not self.at_punct(";"):
            value = self.parse_expr()
        self.expect(";")
        return ReturnStmt(value, annotations, span)

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        """An expression: a binary one, or an assignment, which groups to the right."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nested too deeply")
        expr = self._parse_binary(1)
        tok = self.tok
        if tok[1] == "=" and tok[0] == "PUNCT":
            self.advance()
            if not isinstance(expr, (Ident, Member, Index)):
                self.error("invalid assignment target")
            expr = Assign(expr, self.parse_expr(), self.span(tok))
        self.depth -= 1
        return expr

    def _parse_binary(self, min_prec: int):
        """Precedence climbing (Pratt, POPL 1973): a unary operand, then every
        operator of binding power ``min_prec`` or more, each grouping to the
        left; the right operand takes only operators that bind tighter."""
        left = self._parse_unary()
        depth = self.depth
        while True:
            tok = self.tok
            prec = _PREC.get(tok[1], 0) if tok[0] == "PUNCT" else 0
            if prec < min_prec:
                self.depth = depth
                return left
            self.advance()
            left = Binary(tok[1], left, self._parse_binary(prec + 1), self.span(tok))
            self.deeper()

    def _parse_unary(self):
        """A prefix operator and its operand, or a primary expression and its
        chain of member, index and call links."""
        tok = self.tok
        kind, value = tok[0], tok[1]
        if kind == "IDENT" and value not in KEYWORDS:
            self.tok = next(self._rest, tok)
            expr = Ident(value, self.span(tok))
        elif kind == "PUNCT" and (value == "!" or value == "-"):
            self.advance()
            self.deeper()
            expr = Unary(value, self._parse_unary(), self.span(tok))
            self.depth -= 1
            return expr
        else:
            expr = self._parse_primary()
        depth = self.depth
        while True:
            tok = self.tok
            value = tok[1]
            if tok[0] != "PUNCT" or value not in (".", "[", "("):
                self.depth = depth
                return expr
            self.advance()
            if value == ".":
                expr = Member(expr, self._ident_name(), self.span(tok))
            elif value == "[":
                index = self.parse_expr()
                self.expect("]")
                expr = Index(expr, index, self.span(tok))
            else:
                expr = Call(expr, self._comma_list(")", self.parse_expr), self.span(tok))
            self.deeper()

    def _parse_primary(self):
        """A literal, a keyword or a bracketed expression; ``_parse_unary``
        reads the other identifiers."""
        tok = self.tok
        kind, value = tok[0], tok[1]
        if kind == "NUMBER":
            try:
                number = float(value)
            except ValueError:
                self.error(f"malformed number {value!r}")
            if number == math.inf:
                self.error("number too large for a float")
            self.advance()
            return NumberLit(number, self.span(tok))
        if kind == "STRING":
            self.advance()
            return StringLit(value, self.span(tok))
        if kind == "IDENT":
            if value == "function":
                return self._parse_func_expr()
            if value not in ("true", "false", "null", "this"):
                self.error(f"unexpected keyword {value!r}")
            self.advance()
            if value == "null":
                return NullLit(self.span(tok))
            if value == "this":
                return ThisExpr(self.span(tok))
            return BoolLit(value == "true", self.span(tok))
        if kind == "PUNCT":
            if value == "(":
                self.advance()
                expr = self.parse_expr()
                self.expect(")")
                return expr
            if value == "[":
                self.advance()
                return ArrayLit(self._comma_list("]", self.parse_expr), self.span(tok))
            if value == "{":
                self.advance()
                return ObjectLit(self._comma_list("}", self._object_entry), self.span(tok))
        self.error(f"unexpected token {value or kind!r}")

    def _parse_func_expr(self) -> FuncExpr:
        span = self.span(self.expect("function"))
        params = self._parse_params()
        self.expect("{")
        body = self._statements_until_brace()
        return FuncExpr(params, body, span)

    def _object_entry(self) -> tuple:
        tok = self.tok
        if tok[0] not in ("IDENT", "STRING"):
            self.error("expected object key")
        self.advance()
        self.expect(":")
        return tok[1], self.parse_expr()


# The statements that start with a keyword, by keyword.
_KEYWORD_STATEMENTS = {
    "var": Parser._parse_var_decl,
    "function": Parser._parse_function_decl,
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "for": Parser._parse_for,
    "return": Parser._parse_return,
}


def parse(source_text: str, filename: str = "<input>") -> SourceProgram:
    """Parse TierJS text into a SourceProgram; its call sites are recorded,
    not yet resolved."""
    slices, shared = Parser(Lexer(source_text, filename)).parse_program()
    program = walk(SourceProgram(slices=slices, shared_top_level=shared, filename=filename))
    _apply_configs(program)
    return program


# Expression nodes that hold no expression: the walk does not look inside them.
_LEAVES = frozenset({Ident, NumberLit, StringLit, BoolLit, NullLit, ThisExpr})


def walk(program: SourceProgram) -> SourceProgram:
    """The one pre-order walk, carrying the scope chain.  It sets
    ``program``'s steps, declarations and unresolved call sites, and returns
    ``program``.

    The steps come in the order the dependence graph numbers its nodes.  A
    slice or statement is a ``(node, owner, scope, parent, exprs)`` tuple,
    ``parent`` being the statement that holds it (None at the top) and
    ``exprs`` its expressions' nodes in pre-order; a call site is its
    CallSiteInfo.  Expression by expression, the statement's calls come
    before its function expressions' bodies, and those before its nested
    statements.  A function expression is listed in ``exprs`` but not
    entered: its body is walked as statements, in its own scope.  A None step
    ends the bodies of the innermost statement not yet ended."""
    steps, decls, calls = [], [], []

    def visit(stmts, owner, scope, parent):
        for st in stmts:
            exprs, kids, ended = [], [], False
            steps.append((st, owner, scope, parent, exprs))
            if isinstance(st, (VarDecl, FunctionDecl)):
                decls.append(Declaration(st.name, "var" if isinstance(st, VarDecl) else "function",
                                         owner, st))
                scope.names.setdefault(st.name, []).append(decls[-1])
            for kid in subnodes(st):
                if isinstance(kid, Stmt):
                    kids.append(kid)
                    continue
                stack, bodies = [kid], []
                while stack:
                    n = stack.pop()
                    exprs.append(n)
                    cls = type(n)
                    if cls in _LEAVES:
                        continue
                    if cls is FuncExpr:
                        bodies.append(n)
                        continue
                    if cls is Call:
                        calls.append(CallSiteInfo(n, st, owner, scope))
                        steps.append(calls[-1])
                    stack += reversed(subnodes(n))
                for fx in bodies:
                    visit(fx.body, owner, _function_scope(fx, scope), st)
                    ended = True
            if ended:
                steps.append(None)
            inside = _function_scope(st, scope) if isinstance(st, FunctionDecl) else scope
            visit(kids, owner, inside, st)

    top = Scope()
    for s in program.slices:
        steps.append((s, s.name, top, None, []))
        visit(s.body, s.name, top, None)
    visit(program.shared_top_level, SHARED, top, None)
    program.steps, program.declarations, program.call_sites = steps, decls, calls
    return program


def _function_scope(fn, parent: Scope) -> Scope:
    """A fresh scope for ``fn``'s body, holding its parameters."""
    return Scope(parent, {p: [None] for p in fn.params})


def _apply_configs(program: SourceProgram) -> None:
    names = set()
    for s in program.slices:
        if s.name in names:
            raise DuplicateSliceNameError(f"duplicate slice name {s.name!r}")
        names.add(s.name)
    assigned: dict[str, str] = {}
    for _, annotations in iter_annotated_nodes(program):
        for a in annotations:
            if a.kind is not AnnotationKind.CONFIG:
                continue
            for name, tier in a.args:
                if name not in names:
                    raise MalformedConfigError(f"@config names undeclared slice {name!r}")
                if assigned.get(name, tier) != tier:
                    raise MalformedConfigError(f"conflicting tiers for slice {name!r}")
                assigned[name] = tier
    for s in program.slices:
        s.fixed_tier = assigned.get(s.name)


def iter_annotated_nodes(program: SourceProgram):
    """Yields (node, annotations) pairs over the slices and every statement,
    function-expression bodies included, in the order of the one walk."""
    for step in program.steps:
        if isinstance(step, tuple):
            yield step[0], step[0].annotations


# --- Call resolution ------------------------------------------------------


def resolve_calls(program: SourceProgram) -> SourceProgram:
    """Resolve the recorded plain-identifier calls by lexical scope.

    A callee resolves when the innermost scope declaring its name declares
    exactly one function of it.  With more it is ambiguous; with none (a
    parameter, a var, or no scope at all) undeclared.  Both stay unresolved
    and produce warnings; member/index callees are treated as external
    library calls and excluded silently.
    """
    warnings: list[str] = []
    for info in program.call_sites:
        call = info.node
        if not isinstance(call.callee, Ident):
            info.unresolved_reason = "non-identifier"
            continue
        name = info.callee_name = call.callee.name
        funcs = [d for d in info.scope.lookup(name) if d is not None and d.kind == "function"]
        if len(funcs) == 1:
            info.resolved = funcs[0].node
            info.resolved_owner = funcs[0].owner
        elif not funcs:
            info.unresolved_reason = "undeclared"
            warnings.append(_warn(program, call.span, f"unresolved call to '{name}' (no declaration)"))
        else:
            info.unresolved_reason = "ambiguous"
            warnings.append(_warn(program, call.span, f"unresolved call to '{name}' (ambiguous: {len(funcs)} declarations)"))
    program.warnings = warnings
    return program


def _warn(program: SourceProgram, span: Span, msg: str) -> str:
    return f"{program.filename}:{span.line}:{span.col}: {msg}"


# --- Emitter --------------------------------------------------------------

def _fmt_annotation(a: Annotation) -> str:
    if a.kind is AnnotationKind.CONFIG:
        args = ", ".join(f"{n} : {t}" for n, t in a.args)
        return f"@config {args}"
    if a.args:
        return f"@{a.kind.value} " + " ".join(a.args)
    return f"@{a.kind.value}"


def _emit_annotations(anns: list, indent: str) -> str:
    if not anns:
        return ""
    inner = ("\n" + indent + "   ").join(_fmt_annotation(a) for a in anns)
    return f"{indent}/* {inner} */\n"


def _emit_key(key: str) -> str:
    """An object key as written: bare if the lexer reads it back as one IDENT."""
    m = _TOKEN.fullmatch(key)
    if m and m.lastgroup == "IDENT" and m.start("IDENT") == 0 and (key[0].isalpha() or key[0] in "_$"):
        return key
    return f'"{key}"'


def emit_expr(e, prec: int = 0) -> str:
    if isinstance(e, NumberLit):
        v = e.value
        # Positional, never an exponent: the lexer reads digits and dots only.
        text = str(int(v)) if v == int(v) else format(Decimal(repr(v)), "f")
        return f"({text})" if prec == _POSTFIX else text  # 1.x lexes as "1." "x"
    if isinstance(e, StringLit):
        return '"' + e.value + '"'
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, NullLit):
        return "null"
    if isinstance(e, ThisExpr):
        return "this"
    if isinstance(e, Ident):
        return e.name
    if isinstance(e, Member):
        return f"{emit_expr(e.obj, _POSTFIX)}.{e.attr}"
    if isinstance(e, Index):
        return f"{emit_expr(e.obj, _POSTFIX)}[{emit_expr(e.index)}]"
    if isinstance(e, Call):
        args = ", ".join(emit_expr(a) for a in e.args)
        return f"{emit_expr(e.callee, _POSTFIX)}({args})"
    if isinstance(e, Unary):
        text = f"{e.op}{emit_expr(e.operand, _UNARY)}"
        return f"({text})" if prec == _POSTFIX else text
    if isinstance(e, Binary):
        p = _PREC[e.op]
        text = f"{emit_expr(e.left, p)} {e.op} {emit_expr(e.right, p + 1)}"
        return f"({text})" if p < prec else text
    if isinstance(e, Assign):
        text = f"{emit_expr(e.target, _POSTFIX)} = {emit_expr(e.value)}"
        return f"({text})" if prec > 0 else text
    if isinstance(e, ObjectLit):
        entries = ", ".join(f"{_emit_key(k)}: {emit_expr(v)}" for k, v in e.entries)
        return "{" + entries + "}"
    if isinstance(e, ArrayLit):
        return "[" + ", ".join(emit_expr(x) for x in e.elements) + "]"
    if isinstance(e, FuncExpr):
        body = emit_block(e.body, "  ")
        return f"function ({', '.join(e.params)}) {{\n{body}}}"
    raise TypeError(f"cannot emit {type(e).__name__}")


def emit_stmt(st: Stmt, indent: str) -> str:
    out = _emit_annotations(getattr(st, "annotations", []), indent)
    if isinstance(st, VarDecl):
        init = f" = {emit_expr(st.init)}" if st.init is not None else ""
        return out + f"{indent}var {st.name}{init};\n"
    if isinstance(st, FunctionDecl):
        body = emit_block(st.body, indent + "  ")
        return out + f"{indent}function {st.name}({', '.join(st.params)}) {{\n{body}{indent}}}\n"
    if isinstance(st, ExprStmt):
        text = emit_expr(st.expr)
        if text.startswith(("function (", "{")):
            text = f"({text})"  # else it would parse as a declaration or block
        return out + f"{indent}{text};\n"
    if isinstance(st, IfStmt):
        text = out + f"{indent}if ({emit_expr(st.cond)}) {{\n{emit_block(st.then, indent + '  ')}{indent}}}"
        if st.orelse:
            text += f" else {{\n{emit_block(st.orelse, indent + '  ')}{indent}}}"
        return text + "\n"
    if isinstance(st, WhileStmt):
        return out + f"{indent}while ({emit_expr(st.cond)}) {{\n{emit_block(st.body, indent + '  ')}{indent}}}\n"
    if isinstance(st, ForStmt):
        if isinstance(st.init, VarDecl):
            init = f"var {st.init.name} = {emit_expr(st.init.init)}" if st.init.init is not None else f"var {st.init.name}"
        elif isinstance(st.init, ExprStmt):
            init = emit_expr(st.init.expr)
        else:
            init = ""
        cond = emit_expr(st.cond) if st.cond is not None else ""
        update = emit_expr(st.update) if st.update is not None else ""
        return out + f"{indent}for ({init}; {cond}; {update}) {{\n{emit_block(st.body, indent + '  ')}{indent}}}\n"
    if isinstance(st, ReturnStmt):
        value = f" {emit_expr(st.value)}" if st.value is not None else ""
        return out + f"{indent}return{value};\n"
    if isinstance(st, BlockStmt):
        return out + f"{indent}{{\n{emit_block(st.body, indent + '  ')}{indent}}}\n"
    if isinstance(st, UiBlock):
        return out + f"{indent}{{{st.text}}}\n"
    raise TypeError(f"cannot emit {type(st).__name__}")


def emit_block(stmts, indent: str) -> str:
    return "".join(emit_stmt(s, indent) for s in stmts)


def emit(program: SourceProgram) -> str:
    parts = []
    for s in program.slices:
        parts.append(_emit_annotations(s.annotations, ""))
        if len(s.body) == 1 and isinstance(s.body[0], UiBlock):
            parts.append("{" + s.body[0].text + "}\n")
        else:
            parts.append("{\n" + emit_block(s.body, "  ") + "}\n")
    for st in program.shared_top_level:
        parts.append(emit_stmt(st, ""))
    return "".join(parts)
