"""TierJS frontend: lexer, recursive-descent parser, emitter, call resolution.

The lexer reads the source with one ``findall`` of one token pattern, whose
two groups are the whitespace and ``//`` comments in front of a token and the
token's text; a token's offsets are a running sum of their lengths, and its
kind follows from its first character.  A pass stops where a ``@ui`` comment
may end, as the block after one is captured verbatim.  A token is a plain
``(kind, value, start, end)`` tuple, ``start`` and ``end`` being the offsets
of its text.  Its kinds are IDENT (keywords included), NUMBER, STRING, PUNCT,
ANNOT (an annotation comment), UI_BLOCK (the verbatim block after ``@ui``)
and EOF.  A node's span is its token's ``(start, end)``; the parser works
out no line or column.  The lexer's line-start table goes to the program,
and ``syntax.line_col`` reads it where a position is printed: in a parse
error, a resolution warning, a call-site label or ``graph --json``.  A
STRING token's value is its body as written between double quotes (a
single-quoted body gets its bare ``"`` escaped and its ``\\'`` unescaped),
which the emitter writes back unchanged.

Binary operators are parsed by precedence climbing over one table,
``_BIN_LEVELS``, which the emitter also reads to place parentheses; one loop
reads an operand with its prefix operator or postfix chain, then the binary
operators after it.  Nesting deeper than ``MAX_NESTING`` levels is a parse
error, so the recursive walks over the tree stay within Python's recursion
limit.

Annotations are written inside ``/* ... */`` comments whose stripped text
starts with ``@``; one comment may carry several annotations (e.g. a
``@config`` line followed by ``@slice``).  An annotation comment attaches to
the syntactically next block, declaration or statement.  Plain block comments
and ``//`` line comments are ignored.

``parse`` walks the statements once, in pre-order (``walk``); the walk
enters a function expression's body right after the statement that holds it.
It carries the ES5 scope chain: one global scope, and one per function and
function-expression body.  From that one walk ``parse`` applies ``@config``,
lists the declarations, records the call sites with their scopes, keeps the
steps for the dependence graph and records the names each statement reads
and writes, so no later stage scans an expression for them.
``resolve_calls`` walks nothing: it looks each recorded callee up in its
scope chain, and ``def_use`` each recorded name, for the dependence graph's
data edges and the advisor's replication advice alike.
``advisor.apply_advice`` runs the same walk over the tree it edits, and
parses no text.

AST equality ignores spans, so ``parse(emit(program))`` equals ``program``
slice for slice and statement for statement.
"""

from __future__ import annotations

import math
import re
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
    Stmt,
    StringLit,
    ThisExpr,
    UiBlock,
    Unary,
    VarDecl,
    WhileStmt,
    line_col,
    subnodes,
)

KEYWORDS = {"var", "function", "if", "else", "while", "for", "return", "true", "false", "null", "this"}

# Whitespace and ``//`` comments in the first group, one token's text in the
# second; one ``findall`` lexes a whole range.  An empty token is the end of
# the range or a lexing error.  ``\s``, ``\w`` and ``\d`` mean
# ``str.isspace``, ``str.isalnum`` or ``_``, and ``str.isdecimal``; U+FEFF, the
# byte-order mark, is whitespace as well (ES5.1 section 7.2).  No class
# means ``str.isalpha``, so the lexer rejects an IDENT whose first character is
# a number other than a decimal digit (``²``, ``½``, ``Ⅻ``).  A comment of two
# characters is an unterminated ``/*``.
_TOKEN = re.compile(
    r"""([\s\ufeff]*(?://[^\n]*[\s\ufeff]*)*)
      ( [^\W\d][\w$]*|\$[\w$]*
      | /\*(?:.*?\*/)?
      | [=!<>]=?|&&|\|\||[{}()\[\];,.:+\-*/%]
      | \d[\d.]*
      | "[^"\\]*(?:\\.[^"\\]*)*"|'[^'\\]*(?:\\.[^'\\]*)*'
      |)""",
    re.VERBOSE | re.DOTALL,
)

# A token's kind by its first character, where that is ASCII and settles it.
# ``/`` starts a PUNCT or a comment; a non-ASCII character starts a NUMBER
# (``str.isdecimal``), an IDENT (``str.isalpha``) or nothing the lexer accepts.
_KIND_OF = {
    **dict.fromkeys("{}()[];,.:=<>+-*%!&|", "PUNCT"),
    **dict.fromkeys("\"'", "STRING"),
    **dict.fromkeys("0123456789", "NUMBER"),
    **dict.fromkeys("_$abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ", "IDENT"),
}

# How a single-quoted string body is written between double quotes.
_REQUOTE = {'"': '\\"', "\\'": "'"}


class Lexer:
    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        self.line_starts = [0] + [m.end() for m in re.finditer("\n", text)]

    def error(self, msg: str, pos: int, cls=ParseError):
        """Raise ``cls``, a ParseError, at offset ``pos`` of the text."""
        raise cls(msg, *line_col(self.line_starts, pos), self.filename)

    def tokens(self) -> list[tuple]:
        """The ``(kind, value, start, end)`` tokens, ending with EOF.

        A pass is one ``findall``, which lexes all of its range at once, and
        no token may be read from a @ui block; so a pass ends where a @ui
        comment may, just past the first ``*/`` after the next ``@ui``.  The
        next pass starts after the block, or at that cut.  Where the cut falls
        inside a token (``"@ui */"``), the pass is lexed again up to the end of
        the text.  Each character is so lexed about once, however many @ui
        blocks there are."""
        text, out, pos = self.text, [], 0
        while pos <= len(text):
            at = text.find("@ui", pos)
            at = text.find("*/", at) if at >= 0 else -1
            mark = len(out)
            nxt = self._pass(out, pos, at + 2 if at >= 0 else len(text))
            if nxt is None:
                del out[mark:]
                nxt = self._pass(out, pos, len(text))
            pos = nxt
        return out

    def _pass(self, out: list, pos: int, cut: int) -> int | None:
        """Lex ``text[pos:cut]`` into ``out`` and return where the next pass
        starts, past the end of the text after EOF; None if the cut is not
        where a comment ends."""
        text, n, kind_of = self.text, len(self.text), _KIND_OF
        for space, tok in _TOKEN.findall(text, pos, cut):
            start = pos + len(space)
            if not tok:
                if cut < n:
                    return None
                if start == n:
                    out.append(("EOF", "", n, n))
                    return n + 1
                quote = text[start] in "'\""
                self.error("unterminated string" if quote else f"unexpected character {text[start]!r}", start)
            pos = start + len(tok)
            c = tok[0]
            kind = kind_of.get(c)
            if kind is None:
                if c == "/":
                    if tok == "/":
                        out.append(("PUNCT", tok, start, pos))
                        continue
                    if len(tok) == 2:
                        if cut < n:
                            return None
                        self.error("unterminated comment", start)
                    inner = tok[2:-2]
                    if inner.strip().startswith("@"):
                        out.append(("ANNOT", inner, start, pos))
                        if "@ui" in inner and self._is_ui_comment(inner):
                            return self._capture_ui_block(out, pos)
                    if pos == cut:
                        return pos
                    continue
                if c.isdecimal():
                    kind = "NUMBER"
                elif c.isalpha():
                    kind = "IDENT"
                else:
                    self.error(f"unexpected character {c!r}", start)
            elif kind == "STRING":
                tok = tok[1:-1]
                if c == "'":
                    tok = re.sub(r'"|\\.', lambda m: _REQUOTE.get(m[0], m[0]), tok, flags=re.S)
            out.append((kind, tok, start, pos))

    @staticmethod
    def _is_ui_comment(inner: str) -> bool:
        return any(m.group(1) == "ui" for m in re.finditer(r"@(\w+)", inner))

    def _capture_ui_block(self, out: list, pos: int) -> int:
        """Capture the block after a @ui comment verbatim (HTML-ish content)."""
        text, n = self.text, len(self.text)
        i = pos
        while i < n and (text[i].isspace() or text[i] == "\ufeff"):
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


def parse_annotation_comment(inner: str, start: int, lexer: Lexer) -> list[tuple]:
    """Split one annotation comment into its annotations' (kind, args) pairs;
    an error is placed at ``start``, the comment's offset in ``lexer``'s text."""
    out = []
    matches = list(re.finditer(r"@(\w+)", inner))
    for idx, m in enumerate(matches):
        name = m.group(1)
        kind = ANNOTATION_NAMES.get(name)
        if kind is None:
            lexer.error(f"unknown annotation @{name}", start, UnknownAnnotationKindError)
        arg_text = inner[m.end() : matches[idx + 1].start() if idx + 1 < len(matches) else len(inner)]
        if kind is AnnotationKind.CONFIG:
            args = _parse_config_args(arg_text, start, lexer)
        elif kind is AnnotationKind.SLICE:
            idents = re.findall(r"[\w$]+", arg_text)
            if len(idents) != 1:
                lexer.error("@slice takes exactly one name", start)
            args = idents
        else:
            args = re.findall(r"[\w$]+", arg_text)
        out.append((kind, args))
    return out


def _parse_config_args(arg_text: str, start: int, lexer: Lexer) -> list:
    pairs = []
    for chunk in arg_text.split(","):
        if not chunk.strip():
            continue
        parts = chunk.split(":")
        name, tier = (parts[0].strip(), parts[1].strip()) if len(parts) == 2 else ("", "")
        if not re.fullmatch(r"[\w$]+", name) or tier not in _TIERS:
            lexer.error(f"malformed @config entry {chunk.strip()!r}", start, MalformedConfigError)
        pairs.append((name, tier))
    if not pairs:
        lexer.error("@config carries no name : tier pairs", start, MalformedConfigError)
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
        self.lexer = lexer
        self.depth = 0
        self._annotations = {}  # annotation comment text -> its (kind, args) pairs

    def advance(self) -> tuple:
        """Consume the current token; the EOF token, the last, is never consumed."""
        tok = self.tok
        self.tok = next(self._rest, tok)
        return tok

    def error(self, msg: str):
        self.lexer.error(msg, self.tok[2])

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
            span = tok[2:]
            pairs = self._annotations.get(tok[1])
            if pairs is None:
                pairs = self._annotations[tok[1]] = parse_annotation_comment(tok[1], tok[2], self.lexer)
            annotations += [Annotation(kind, list(args), span) for kind, args in pairs]
        return annotations

    def _parse_slice(self, annotations: list) -> SliceDecl:
        name = next(a.args[0] for a in annotations if a.kind is AnnotationKind.SLICE)
        start = self.tok[2:]
        if self.tok[0] == "UI_BLOCK":
            tok = self.advance()
            body = [UiBlock(tok[1], [], tok[2:])]
            return SliceDecl(name, body, None, annotations, start)
        self.expect("{")
        body = self._statements_until_brace()
        return SliceDecl(name, body, None, annotations, start)

    def _statements_until_brace(self) -> list:
        self.deeper()
        body, tok = [], self.tok
        while tok[1] != "}" or tok[0] != "PUNCT":
            if tok[0] == "EOF":
                self.error("expected '}'")
            annotations = self._pending_annotations() if tok[0] == "ANNOT" else []
            body.append(self._parse_statement(annotations))
            tok = self.tok
        self.tok = next(self._rest, tok)
        self.depth -= 1
        return body

    # -- statements --------------------------------------------------------

    def _parse_statement(self, annotations: list | None = None) -> Stmt:
        if annotations is None:
            annotations = self._pending_annotations()
        tok = self.tok
        if tok[0] == "UI_BLOCK":
            self.advance()
            return UiBlock(tok[1], annotations, tok[2:])
        if tok[0] == "IDENT":
            parse_keyword = _KEYWORD_STATEMENTS.get(tok[1])
            if parse_keyword is not None:
                return parse_keyword(self, annotations)
        elif tok[1] == "{" and tok[0] == "PUNCT":
            self.advance()
            return BlockStmt(self._statements_until_brace(), annotations, tok[2:])
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(expr, annotations, tok[2:])

    def _parse_var_decl(self, annotations: list) -> VarDecl:
        span = self.expect("var")[2:]
        name = self._ident_name()
        init = None
        if self.at_punct("="):
            self.advance()
            init = self.parse_expr()
        self.expect(";")
        return VarDecl(name, init, annotations, span)

    def _parse_function_decl(self, annotations: list) -> FunctionDecl:
        span = self.expect("function")[2:]
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
        span = self.expect("if")[2:]
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
        span = self.expect("while")[2:]
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return WhileStmt(cond, self._branch_body(), annotations, span)

    def _parse_for(self, annotations: list) -> ForStmt:
        span = self.expect("for")[2:]
        self.expect("(")
        init = None
        tok = self.tok
        if tok[1] == "var" and tok[0] == "IDENT":
            init = self._parse_var_decl([])  # it consumes the ';'
        elif not self.at_punct(";"):
            init = ExprStmt(self.parse_expr(), [], tok[2:])
            self.expect(";")
        else:
            self.advance()
        cond = None if self.at_punct(";") else self.parse_expr()
        self.expect(";")
        update = None if self.at_punct(")") else self.parse_expr()
        self.expect(")")
        return ForStmt(init, cond, update, self._branch_body(), annotations, span)

    def _parse_return(self, annotations: list) -> ReturnStmt:
        span = self.expect("return")[2:]
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
            expr = Assign(expr, self.parse_expr(), tok[2:])
        self.depth -= 1
        return expr

    def _parse_binary(self, min_prec: int):
        """Precedence climbing (Pratt, POPL 1973) in one loop per operand.
        The operand is a prefix operator and its operand, or a primary
        expression and its chain of member, index and call links.  Then come
        the operators of binding power ``min_prec`` or more, each grouping to
        the left; the right operand takes only operators that bind tighter."""
        tok = self.tok
        kind, value = tok[0], tok[1]
        depth = self.depth
        if kind == "PUNCT" and (value == "!" or value == "-"):
            self.tok = next(self._rest, tok)
            self.deeper()
            left = Unary(value, self._parse_binary(_UNARY), tok[2:])
            self.depth = depth
        else:
            if kind == "IDENT" and value not in KEYWORDS:
                self.tok = next(self._rest, tok)
                left = Ident(value, tok[2:])
            else:
                left = self._parse_primary()
            while True:
                tok = self.tok
                value = tok[1]
                if tok[0] != "PUNCT" or value not in (".", "[", "("):
                    break
                self.tok = next(self._rest, tok)
                if value == ".":
                    left = Member(left, self._ident_name(), tok[2:])
                elif value == "[":
                    index = self.parse_expr()
                    self.expect("]")
                    left = Index(left, index, tok[2:])
                else:
                    left = Call(left, self._comma_list(")", self.parse_expr), tok[2:])
                self.deeper()
            self.depth = depth
        while True:
            tok = self.tok
            prec = _PREC.get(tok[1], 0) if tok[0] == "PUNCT" else 0
            if prec < min_prec:
                self.depth = depth
                return left
            self.tok = next(self._rest, tok)
            left = Binary(tok[1], left, self._parse_binary(prec + 1), tok[2:])
            self.deeper()

    def _parse_primary(self):
        """A literal, a keyword or a bracketed expression; ``_parse_binary``
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
            return NumberLit(number, tok[2:])
        if kind == "STRING":
            self.advance()
            return StringLit(value, tok[2:])
        if kind == "IDENT":
            if value == "function":
                return self._parse_func_expr()
            if value not in ("true", "false", "null", "this"):
                self.error(f"unexpected keyword {value!r}")
            self.advance()
            if value == "null":
                return NullLit(tok[2:])
            if value == "this":
                return ThisExpr(tok[2:])
            return BoolLit(value == "true", tok[2:])
        if kind == "PUNCT":
            if value == "(":
                self.advance()
                expr = self.parse_expr()
                self.expect(")")
                return expr
            if value == "[":
                self.advance()
                return ArrayLit(self._comma_list("]", self.parse_expr), tok[2:])
            if value == "{":
                self.advance()
                return ObjectLit(self._comma_list("}", self._object_entry), tok[2:])
        self.error(f"unexpected token {value or kind!r}")

    def _parse_func_expr(self) -> FuncExpr:
        span = self.expect("function")[2:]
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
    lexer = Lexer(source_text, filename)
    slices, shared = Parser(lexer).parse_program()
    program = walk(SourceProgram(slices=slices, shared_top_level=shared, filename=filename,
                                 line_starts=lexer.line_starts))
    _apply_configs(program, lexer.error)
    return program


def walk(program: SourceProgram) -> SourceProgram:
    """The one pre-order walk, carrying the scope chain.  It sets
    ``program``'s steps, binds, declarations and unresolved call sites, and
    returns ``program``.

    The steps come in the order the dependence graph numbers its nodes.  A
    slice or statement is a ``(node, owner, scope, parent)`` tuple,
    ``parent`` being the statement that holds it (None at the top).  A call
    site is its CallSiteInfo.  Expression by expression, the statement's
    calls come before its function expressions' bodies, and those before its
    nested statements.  A function expression is not entered: its body is
    walked as statements, in its own scope.

    A bind is a ``(step index, scope, reads, writes)`` tuple: the names a
    statement's expressions read and assign, in pre-order (an Ident is a
    read unless it is a callee or an assignment's target, and an Ident target
    is a write).  The binds come in the order they take effect, which
    ``def_use`` keeps: a VarDecl binds its own name at its step, and a
    statement's expressions bind after the bodies of their function
    expressions.

    The call sites, in the same order, are the call table's source
    (``depgraph.placement_problem``).  Nothing the walk builds refers back to
    itself, so a walked tree is freed by refcount, not by the cyclic
    collector."""
    steps, binds, decls, calls = [], [], [], []
    top = Scope()
    for s in program.slices:
        steps.append((s, s.name, top, None))
        _visit(s.body, s.name, top, None, steps, binds, decls, calls)
    _visit(program.shared_top_level, SHARED, top, None, steps, binds, decls, calls)
    program.steps, program.binds = steps, binds
    program.declarations, program.call_sites = decls, calls
    return program


def _visit(stmts, owner, scope, parent, steps, binds, decls, calls):
    """``walk``'s recursion over ``stmts``, appending to its four lists; a
    module function, as a closure that calls itself is a reference cycle."""
    for st in stmts:
        at, reads, writes, kids = len(steps), [], [], []
        steps.append((st, owner, scope, parent))
        kind = type(st)
        if kind is VarDecl or kind is FunctionDecl:
            decls.append(Declaration(st.name, "var" if kind is VarDecl else "function", owner, st))
            scope.names.setdefault(st.name, []).append(decls[-1])
            if kind is VarDecl:
                binds.append((at, scope, (), (st.name,)))
        for kid in subnodes(st):
            if isinstance(kid, Stmt):
                kids.append(kid)
                continue
            stack, bodies = [kid], []
            while stack:
                n = stack.pop()
                cls = type(n)
                if cls is Ident:
                    reads.append(n.name)
                elif cls is FuncExpr:
                    bodies.append(n)
                elif cls is Call:
                    calls.append(CallSiteInfo(n, st, owner, scope))
                    steps.append(calls[-1])
                    stack += reversed(n.args)
                    if type(n.callee) is not Ident:
                        stack.append(n.callee)
                elif cls is Assign and type(n.target) is Ident:
                    writes.append(n.target.name)
                    stack.append(n.value)
                elif cls.kids:
                    stack += reversed(subnodes(n))
            for fx in bodies:
                _visit(fx.body, owner, _function_scope(fx, scope), st, steps, binds, decls, calls)
        if reads or writes:
            binds.append((at, scope, reads or (), writes or ()))
        if kids:
            inside = _function_scope(st, scope) if kind is FunctionDecl else scope
            _visit(kids, owner, inside, st, steps, binds, decls, calls)


def def_use(program: SourceProgram) -> tuple[dict, dict]:
    """``(defs, uses)`` of a walked program: for each var Declaration, keyed
    by its ``id``, the indices of the steps that define it and of those that
    read it, in bind order.  A name binds by ``Scope.var`` in its
    statement's scope, to nothing for a parameter or a function."""
    defs, uses = {}, {}
    for at, scope, reads, writes in program.binds:
        for table, names in ((defs, writes), (uses, reads)):
            for decl in map(scope.var, names):
                if decl is not None:
                    table.setdefault(id(decl), []).append(at)
    return defs, uses


def _function_scope(fn, parent: Scope) -> Scope:
    """A fresh scope for ``fn``'s body, holding its parameters."""
    function = fn.name if isinstance(fn, FunctionDecl) else parent.function
    return Scope(parent, {p: [None] for p in fn.params}, function)


def _apply_configs(program: SourceProgram, error) -> None:
    """Set each slice's fixed tier from the @config annotations; ``error``,
    ``Lexer.error``, places a fault at its annotation comment."""
    names = set()
    for s in program.slices:
        if s.name in names:
            at = next(a for a in s.annotations if a.kind is AnnotationKind.SLICE)
            error(f"duplicate slice name {s.name!r}", at.span[0], DuplicateSliceNameError)
        names.add(s.name)
    assigned: dict[str, str] = {}
    for _, annotations in iter_annotated_nodes(program):
        for a in annotations:
            if a.kind is not AnnotationKind.CONFIG:
                continue
            for name, tier in a.args:
                if name not in names:
                    error(f"@config names undeclared slice {name!r}", a.span[0], MalformedConfigError)
                if assigned.get(name, tier) != tier:
                    error(f"conflicting tiers for slice {name!r}", a.span[0], MalformedConfigError)
                assigned[name] = tier
    for s in program.slices:
        s.fixed_tier = assigned.get(s.name)


def iter_annotated_nodes(program: SourceProgram):
    """Yields (node, annotations) pairs over the slices and statements that
    carry annotations, function-expression bodies included, in the order of
    the one walk."""
    for step in program.steps:
        if type(step) is tuple and step[0].annotations:
            yield step[0], step[0].annotations


# --- Call resolution ------------------------------------------------------


def resolve_calls(program: SourceProgram) -> SourceProgram:
    """Resolve the recorded plain-identifier calls by lexical scope.

    A callee resolves when the innermost scope declaring its name declares
    exactly one function of it.  With more it is ambiguous; with none (a
    parameter, a var, or no scope at all) undeclared, and the warning names
    what the name binds to.  Both stay unresolved and produce warnings;
    member/index callees are treated as external library calls and excluded
    silently.
    """
    warnings: list[str] = []
    for info in program.call_sites:
        call = info.node
        if not isinstance(call.callee, Ident):
            info.unresolved_reason = "non-identifier"
            continue
        name = info.callee_name = call.callee.name
        bindings = info.scope.lookup(name)
        funcs = [d for d in bindings if d is not None and d.kind == "function"]
        if len(funcs) == 1:
            info.resolved = funcs[0].node
            info.resolved_owner = funcs[0].owner
        elif not funcs:
            info.unresolved_reason = "undeclared"
            why = ("no declaration" if not bindings else
                   f"a {'parameter' if bindings[0] is None else 'var'}, not a function")
            warnings.append(_warn(program, call.span[0], f"unresolved call to '{name}' ({why})"))
        else:
            info.unresolved_reason = "ambiguous"
            warnings.append(_warn(program, call.span[0], f"unresolved call to '{name}' (ambiguous: {len(funcs)} declarations)"))
    program.warnings = warnings
    return program


def _warn(program: SourceProgram, offset: int, msg: str) -> str:
    line, col = line_col(program.line_starts, offset)
    return f"{program.filename}:{line}:{col}: {msg}"


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
    if m and m[2] == key and (key[:1].isalpha() or key[:1] in ("_", "$")):
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
        if len(s.body) == 1 and isinstance(s.body[0], UiBlock) and not s.body[0].annotations:
            parts.append("{" + s.body[0].text + "}\n")
        else:
            parts.append("{\n" + emit_block(s.body, "  ") + "}\n")
    for st in program.shared_top_level:
        parts.append(emit_stmt(st, ""))
    return "".join(parts)
