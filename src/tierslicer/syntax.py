"""AST node definitions for TierJS.

TierJS is a statement-level subset of a C-like dynamic language.  Programs
are divided into named slices (annotated blocks); everything outside a slice
is shared top-level code.  Annotations live in block comments and attach to
the syntactically next block, declaration or statement.

A node's span is the ``(start, end)`` offsets of the token it starts at;
``line_col`` works out a line and column where a position is printed.  AST
equality is structural and ignores spans: a program re-parsed from its own
``emit`` output equals the original.  ``subnodes`` is the one way analysis
code steps into a node.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache


def line_col(line_starts, offset: int) -> tuple[int, int]:
    """The line and column of ``offset`` in a text whose lines start at
    ``line_starts``: the number of ``"\\n"`` before it plus 1 (``"\\r"``
    starts no line), and its 1-based code-point offset in that line."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


def _span():
    """A node's ``(start, end)`` offsets, which take no part in AST equality."""
    return field(default=(0, 0), compare=False)


class AnnotationKind(Enum):
    SLICE = "slice"
    CONFIG = "config"
    CLIENT = "client"
    SERVER = "server"
    UI = "ui"
    REMOTE_CALL = "remoteCall"
    LOCAL_CALL = "localCall"
    BLOCKING = "blocking"
    REPLY = "reply"
    BROADCAST = "broadcast"
    REMOTE_PROCEDURE = "remoteProcedure"
    LOCAL = "local"
    COPY = "copy"
    REPLICATED = "replicated"
    OBSERVABLE = "observable"
    DEFINE_HANDLER = "defineHandler"
    USE_HANDLER = "useHandler"


ANNOTATION_NAMES = {k.value: k for k in AnnotationKind}

# Annotation kinds by category, in the order `tierslicer parse` counts them.
ANNOTATION_CATEGORIES = {
    "placement": {AnnotationKind.SLICE, AnnotationKind.CONFIG, AnnotationKind.CLIENT,
                  AnnotationKind.SERVER, AnnotationKind.UI},
    "communication": {AnnotationKind.REMOTE_CALL, AnnotationKind.LOCAL_CALL,
                      AnnotationKind.BLOCKING, AnnotationKind.REPLY,
                      AnnotationKind.BROADCAST, AnnotationKind.REMOTE_PROCEDURE},
    "sharing": {AnnotationKind.LOCAL, AnnotationKind.COPY, AnnotationKind.REPLICATED,
                AnnotationKind.OBSERVABLE},
    "failure": {AnnotationKind.DEFINE_HANDLER, AnnotationKind.USE_HANDLER},
}


@dataclass(slots=True)
class Annotation:
    kind: AnnotationKind
    # Identifier arguments; @config args are (name, tier) pairs.
    args: list = field(default_factory=list)
    span: tuple = _span()


# --- Expressions ----------------------------------------------------------


@dataclass(slots=True)
class Expr:
    pass


@dataclass(slots=True)
class NumberLit(Expr):
    value: float
    span: tuple = _span()


@dataclass(slots=True)
class StringLit(Expr):
    value: str
    span: tuple = _span()


@dataclass(slots=True)
class BoolLit(Expr):
    value: bool
    span: tuple = _span()


@dataclass(slots=True)
class NullLit(Expr):
    span: tuple = _span()


@dataclass(slots=True)
class ThisExpr(Expr):
    span: tuple = _span()


@dataclass(slots=True)
class Ident(Expr):
    name: str
    span: tuple = _span()


@dataclass(slots=True)
class Member(Expr):
    obj: Expr
    attr: str
    span: tuple = _span()


@dataclass(slots=True)
class Index(Expr):
    obj: Expr
    index: Expr
    span: tuple = _span()


@dataclass(slots=True)
class Call(Expr):
    callee: Expr
    args: list[Expr] = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class Unary(Expr):
    op: str
    operand: Expr = None
    span: tuple = _span()


@dataclass(slots=True)
class Binary(Expr):
    op: str
    left: Expr = None
    right: Expr = None
    span: tuple = _span()


@dataclass(slots=True)
class Assign(Expr):
    target: Expr = None
    value: Expr = None
    span: tuple = _span()


@dataclass(slots=True)
class ObjectLit(Expr):
    entries: list[tuple[str, Expr]] = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class ArrayLit(Expr):
    elements: list[Expr] = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class FuncExpr(Expr):
    params: list = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    span: tuple = _span()


# --- Statements -----------------------------------------------------------


@dataclass(slots=True)
class Stmt:
    pass


@dataclass(slots=True)
class VarDecl(Stmt):
    name: str
    init: Expr | None = None
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class FunctionDecl(Stmt):
    name: str
    params: list = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr = None
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class IfStmt(Stmt):
    cond: Expr = None
    then: list[Stmt] = field(default_factory=list)
    orelse: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class WhileStmt(Stmt):
    cond: Expr = None
    body: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class ForStmt(Stmt):
    init: Stmt | None = None  # VarDecl or ExprStmt, semicolon-less
    cond: Expr | None = None
    update: Expr | None = None
    body: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class ReturnStmt(Stmt):
    value: Expr | None = None
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class BlockStmt(Stmt):
    body: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class UiBlock(Stmt):
    """A @ui block: stored verbatim, excluded from dependence analysis."""

    text: str = ""
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@cache
def _node_fields(cls) -> tuple:
    """Names of the fields of ``cls`` whose declared type names Expr or Stmt."""
    return tuple(f.name for f in fields(cls) if "Expr" in f.type or "Stmt" in f.type)


def subnodes(node) -> list:
    """The Expr and Stmt values held by ``node``'s fields, in field order.

    List fields give their items, and an ObjectLit entry, the one kind of
    list item that is a tuple, gives its value.
    """
    out = []
    for name in _node_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, list):
            out += [item[1] for item in value] if value and isinstance(value[0], tuple) else value
        elif value is not None:
            out.append(value)
    return out


# --- Program structure ----------------------------------------------------


@dataclass(slots=True)
class SliceDecl:
    name: str
    body: list = field(default_factory=list)
    fixed_tier: str | None = None  # "client" | "server" | None
    annotations: list = field(default_factory=list)
    span: tuple = _span()


@dataclass(slots=True)
class Declaration:
    """A variable or function declaration together with its owner."""

    name: str
    kind: str  # "var" | "function"
    owner: str  # slice name or model.SHARED
    node: Stmt = None


@dataclass(slots=True, eq=False, repr=False)
class Scope:
    """An ES5 scope (ECMA-262 5.1 §10.5): the global one, or a function or
    function-expression body's.  ``names`` maps each name declared in it to
    its parameters (None, first), then its var and function Declarations in
    walk order.  ``function`` names the innermost function declaration
    enclosing it (None at the top); a function expression's scope takes its
    parent's.  Blocks and slices open no scope."""

    parent: Scope | None = None
    names: dict = field(default_factory=dict)
    function: str | None = None

    def lookup(self, name: str) -> list:
        """``name``'s bindings in the innermost scope declaring it, or []."""
        scope = self
        while scope is not None:
            bindings = scope.names.get(name)
            if bindings is not None:
                return bindings
            scope = scope.parent
        return []

    def var(self, name: str) -> Declaration | None:
        """The var that a data use or def of ``name`` binds to: the first var
        of that innermost scope; None where it holds ``name`` as a parameter
        or only as a function, or where no scope declares it."""
        bindings = self.lookup(name)
        if bindings and bindings[0] is not None:
            return next((d for d in bindings if d.kind == "var"), None)
        return None


@dataclass(slots=True)
class CallSiteInfo:
    """A call expression with its resolution result."""

    node: Call = None
    stmt: Stmt = None  # enclosing statement (annotation carrier)
    owner: str = ""  # slice name or model.SHARED
    scope: Scope | None = field(default=None, repr=False, compare=False)  # callee's scope
    callee_name: str | None = None  # plain-identifier callee, if any
    resolved: FunctionDecl | None = None
    resolved_owner: str | None = None
    unresolved_reason: str | None = None  # None | "undeclared" | "ambiguous" | "non-identifier"


@dataclass(slots=True)
class SourceProgram:
    slices: list = field(default_factory=list)  # SliceDecl, source order
    shared_top_level: list = field(default_factory=list)  # Stmt
    declarations: list = field(default_factory=list)  # Declaration
    call_sites: list = field(default_factory=list)  # CallSiteInfo
    warnings: list = field(default_factory=list)  # resolution diagnostics (str)
    filename: str = "<input>"
    steps: list = field(default_factory=list, repr=False, compare=False)  # see frontend.walk
    # The offset at which each line of the parsed source starts; spans index that source.
    line_starts: list = field(default_factory=lambda: [0], repr=False, compare=False)

    def slice_names(self):
        return [s.name for s in self.slices]
