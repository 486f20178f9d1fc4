"""AST node definitions for TierJS.

TierJS is a statement-level subset of a C-like dynamic language.  Programs
are divided into named slices (annotated blocks); everything outside a slice
is shared top-level code.  Annotations live in block comments and attach to
the syntactically next block, declaration or statement.

AST equality is structural and ignores spans: a program re-parsed from its
own ``emit`` output equals the original.  ``subnodes`` is the one way
analysis code steps into a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache
from typing import NamedTuple


class Span(NamedTuple):
    start: int
    end: int
    line: int
    col: int

    @staticmethod
    def zero() -> "Span":
        return Span(0, 0, 1, 1)


def _span():
    """A node's source position, which takes no part in AST equality."""
    return field(default_factory=Span.zero, compare=False)


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


@dataclass
class Annotation:
    kind: AnnotationKind
    # Identifier arguments; @config args are (name, tier) pairs.
    args: list = field(default_factory=list)
    span: Span = _span()


# --- Expressions ----------------------------------------------------------


@dataclass
class Expr:
    pass


@dataclass
class NumberLit(Expr):
    value: float
    span: Span = _span()


@dataclass
class StringLit(Expr):
    value: str
    span: Span = _span()


@dataclass
class BoolLit(Expr):
    value: bool
    span: Span = _span()


@dataclass
class NullLit(Expr):
    span: Span = _span()


@dataclass
class ThisExpr(Expr):
    span: Span = _span()


@dataclass
class Ident(Expr):
    name: str
    span: Span = _span()


@dataclass
class Member(Expr):
    obj: Expr
    attr: str
    span: Span = _span()


@dataclass
class Index(Expr):
    obj: Expr
    index: Expr
    span: Span = _span()


@dataclass
class Call(Expr):
    callee: Expr
    args: list[Expr] = field(default_factory=list)
    span: Span = _span()


@dataclass
class Unary(Expr):
    op: str
    operand: Expr = None
    span: Span = _span()


@dataclass
class Binary(Expr):
    op: str
    left: Expr = None
    right: Expr = None
    span: Span = _span()


@dataclass
class Assign(Expr):
    target: Expr = None
    value: Expr = None
    span: Span = _span()


@dataclass
class ObjectLit(Expr):
    entries: list[tuple[str, Expr]] = field(default_factory=list)
    span: Span = _span()


@dataclass
class ArrayLit(Expr):
    elements: list[Expr] = field(default_factory=list)
    span: Span = _span()


@dataclass
class FuncExpr(Expr):
    params: list = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    span: Span = _span()


# --- Statements -----------------------------------------------------------


@dataclass
class Stmt:
    pass


@dataclass
class VarDecl(Stmt):
    name: str
    init: Expr | None = None
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class FunctionDecl(Stmt):
    name: str
    params: list = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class IfStmt(Stmt):
    cond: Expr = None
    then: list[Stmt] = field(default_factory=list)
    orelse: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class WhileStmt(Stmt):
    cond: Expr = None
    body: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class ForStmt(Stmt):
    init: Stmt | None = None  # VarDecl or ExprStmt, semicolon-less
    cond: Expr | None = None
    update: Expr | None = None
    body: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None = None
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class BlockStmt(Stmt):
    body: list[Stmt] = field(default_factory=list)
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class UiBlock(Stmt):
    """A @ui block: stored verbatim, excluded from dependence analysis."""

    text: str = ""
    annotations: list = field(default_factory=list)
    span: Span = _span()


@cache
def _node_fields(cls) -> tuple:
    """Names of the fields of ``cls`` whose declared type names Expr or Stmt."""
    return tuple(f.name for f in fields(cls) if "Expr" in f.type or "Stmt" in f.type)


def subnodes(node):
    """The Expr and Stmt values held by ``node``'s fields, in field order.

    List fields yield their items, and an ObjectLit entry yields its value.
    """
    for name in _node_fields(type(node)):
        value = getattr(node, name)
        if isinstance(value, list):
            for item in value:
                yield item[1] if isinstance(item, tuple) else item
        elif value is not None:
            yield value


# --- Program structure ----------------------------------------------------


@dataclass
class SliceDecl:
    name: str
    body: list = field(default_factory=list)
    fixed_tier: str | None = None  # "client" | "server" | None
    annotations: list = field(default_factory=list)
    span: Span = _span()


@dataclass
class Declaration:
    """A variable or function declaration together with its owner."""

    name: str
    kind: str  # "var" | "function"
    owner: str  # slice name or model.SHARED
    node: Stmt = None


@dataclass
class CallSiteInfo:
    """A call expression with its resolution result."""

    node: Call = None
    stmt: Stmt = None  # enclosing statement (annotation carrier)
    owner: str = ""  # slice name or model.SHARED
    callee_name: str | None = None  # plain-identifier callee, if any
    resolved: FunctionDecl | None = None
    resolved_owner: str | None = None
    unresolved_reason: str | None = None  # None | "undeclared" | "ambiguous" | "non-identifier"


@dataclass
class SourceProgram:
    slices: list = field(default_factory=list)  # SliceDecl, source order
    shared_top_level: list = field(default_factory=list)  # Stmt
    declarations: list = field(default_factory=list)  # Declaration
    call_sites: list = field(default_factory=list)  # CallSiteInfo
    warnings: list = field(default_factory=list)  # resolution diagnostics (str)
    filename: str = "<input>"

    def slice_names(self):
        return [s.name for s in self.slices]
