"""AST node definitions for TierJS.

TierJS is a statement-level subset of a C-like dynamic language.  Programs
are divided into named slices (annotated blocks); everything outside a slice
is shared top-level code.  Annotations live in block comments and attach to
the syntactically next block, declaration or statement.

Every tree node is a ``Node``, which states the contract once.  A node class
declares its fields as ``__slots__``, in constructor order with ``span``
last, and names in ``kids`` the fields that hold Expr or Stmt values;
``Node`` writes its constructor, in which every field but ``span`` is
required.  A node's span is the ``(start, end)`` offsets of the token it
starts at; ``line_col`` works out a line and column where a position is
printed.  AST equality is structural and ignores spans: a program re-parsed
from its own ``emit`` output equals the original.  Nodes are unhashable.
``subnodes`` is the one way analysis code steps into a node.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum


def line_col(line_starts, offset: int) -> tuple[int, int]:
    """The line and column of ``offset`` in a text whose lines start at
    ``line_starts``: the number of ``"\\n"`` before it plus 1 (``"\\r"``
    starts no line), and its 1-based code-point offset in that line."""
    line = bisect_right(line_starts, offset)
    return line, offset - line_starts[line - 1] + 1


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


class Node:
    """A syntax-tree node; the module docstring states the contract."""

    __slots__ = ()
    kids = ()

    def __init_subclass__(cls):
        """Write ``cls.__init__(self, f1, ..., span=(0, 0))``, one assignment per field."""
        names = cls.__slots__
        if names:
            scope = {}
            exec(f"def __init__(self, {', '.join(names[:-1] + ('span=(0, 0)',))}):"
                 + "".join(f"\n    self.{n} = {n}" for n in names), scope)
            cls.__init__ = scope["__init__"]

    def __eq__(self, other):
        """Same type and equal fields, ``span`` left out; a node is unhashable."""
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__[:-1])

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Annotation(Node):
    # ``args``: identifier arguments; @config args are (name, tier) pairs.
    __slots__ = ("kind", "args", "span")


# --- Expressions ----------------------------------------------------------


class Expr(Node):
    __slots__ = ()


class NumberLit(Expr):
    __slots__ = ("value", "span")


class StringLit(Expr):
    __slots__ = ("value", "span")


class BoolLit(Expr):
    __slots__ = ("value", "span")


class NullLit(Expr):
    __slots__ = ("span",)


class ThisExpr(Expr):
    __slots__ = ("span",)


class Ident(Expr):
    __slots__ = ("name", "span")


class Member(Expr):
    __slots__ = ("obj", "attr", "span")
    kids = ("obj",)


class Index(Expr):
    __slots__ = ("obj", "index", "span")
    kids = ("obj", "index")


class Call(Expr):
    __slots__ = ("callee", "args", "span")
    kids = ("callee", "args")


class Unary(Expr):
    __slots__ = ("op", "operand", "span")
    kids = ("operand",)


class Binary(Expr):
    __slots__ = ("op", "left", "right", "span")
    kids = ("left", "right")


class Assign(Expr):
    __slots__ = ("target", "value", "span")
    kids = ("target", "value")


class ObjectLit(Expr):
    # ``entries``: (key, Expr) pairs.
    __slots__ = ("entries", "span")
    kids = ("entries",)


class ArrayLit(Expr):
    __slots__ = ("elements", "span")
    kids = ("elements",)


class FuncExpr(Expr):
    __slots__ = ("params", "body", "span")
    kids = ("body",)


# --- Statements -----------------------------------------------------------


class Stmt(Node):
    __slots__ = ()


class VarDecl(Stmt):
    __slots__ = ("name", "init", "annotations", "span")  # init may be None
    kids = ("init",)


class FunctionDecl(Stmt):
    __slots__ = ("name", "params", "body", "annotations", "span")
    kids = ("body",)


class ExprStmt(Stmt):
    __slots__ = ("expr", "annotations", "span")
    kids = ("expr",)


class IfStmt(Stmt):
    __slots__ = ("cond", "then", "orelse", "annotations", "span")
    kids = ("cond", "then", "orelse")


class WhileStmt(Stmt):
    __slots__ = ("cond", "body", "annotations", "span")
    kids = ("cond", "body")


class ForStmt(Stmt):
    # ``init`` is a semicolon-less VarDecl or ExprStmt; init, cond and update may be None.
    __slots__ = ("init", "cond", "update", "body", "annotations", "span")
    kids = ("init", "cond", "update", "body")


class ReturnStmt(Stmt):
    __slots__ = ("value", "annotations", "span")  # value may be None
    kids = ("value",)


class BlockStmt(Stmt):
    __slots__ = ("body", "annotations", "span")
    kids = ("body",)


class UiBlock(Stmt):
    """A @ui block: stored verbatim, excluded from dependence analysis."""

    __slots__ = ("text", "annotations", "span")


def subnodes(node) -> list:
    """The Expr and Stmt values held by ``node``'s ``kids``, in field order.

    List fields give their items, and an ObjectLit entry, the one kind of
    list item that is a tuple, gives its value.
    """
    out = []
    for name in node.kids:
        value = getattr(node, name)
        if isinstance(value, list):
            out += [item[1] for item in value] if value and isinstance(value[0], tuple) else value
        elif value is not None:
            out.append(value)
    return out


# --- Program structure ----------------------------------------------------


class SliceDecl(Node):
    # ``fixed_tier``: "client", "server" or None.
    __slots__ = ("name", "body", "fixed_tier", "annotations", "span")
    kids = ("body",)


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
    binds: list = field(default_factory=list, repr=False, compare=False)  # see frontend.walk
    # The offset at which each line of the parsed source starts; spans index that source.
    line_starts: list = field(default_factory=lambda: [0], repr=False, compare=False)

    def slice_names(self):
        return [s.name for s in self.slices]
