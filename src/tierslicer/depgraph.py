"""Program dependence graph over TierJS programs.

Nodes are statements, declarations, function entries and call sites, each
owned by a slice (or shared).  Control edges follow block nesting, data edges
follow def-use over lexically scoped variable names, call edges connect call
sites to the entry of their resolved callee.

The graph is built in one scoped walk after a global hoist.  The hoist
collects every var declared outside a function body, in all slices and in
shared code; the walk then visits each statement once, creating its node and
recording its defs and uses against the lexical scope chain as it goes.  Node
ids follow visit order, and edges come in three runs: control edges in visit
order, call edges in call-site order, data edges in first-def order.

The collapsed slice graph aggregates cross-slice edges in *dependence*
orientation: call edges already point caller -> callee; data edges are
reversed at collapse time (reader -> declarer) so a purely supportive slice
shows only incoming dependencies.  @ui blocks are excluded entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .frontend import _child_statements, _iter_expr, _stmt_expressions
from .model import SHARED, CallRecord, PlacementProblem, Tier
from .syntax import (
    Assign,
    Call,
    FuncExpr,
    FunctionDecl,
    Ident,
    SourceProgram,
    Span,
    UiBlock,
    VarDecl,
)

ENTRY = "entry"
STATEMENT = "statement"
DECLARATION = "declaration"
FUNCTION_ENTRY = "function-entry"
CALL_SITE = "call-site"

CONTROL = "control"
DATA = "data"
CALL = "call"


@dataclass
class PdgNode:
    id: int
    kind: str
    slice: str  # slice name or SHARED
    span: Span = Span.zero()
    name: str | None = None  # declared name / callee name
    function: str | None = None  # enclosing function declaration, if any
    annotations: list = field(default_factory=list)  # annotation kind strings
    unresolved: str | None = None  # call sites only


@dataclass(frozen=True)
class PdgEdge:
    src: int
    dst: int
    kind: str


@dataclass
class DependenceGraph:
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)
    slice_order: list = field(default_factory=list)
    fixed: dict = field(default_factory=dict)  # name -> "client"/"server"


@dataclass
class SliceGraph:
    vertices: tuple = ()
    # (from_slice, to_slice, edge_kind) -> count, cross-slice only
    edges: dict = field(default_factory=dict)


def _annotation_kinds(stmt) -> list:
    return [a.kind.value for a in getattr(stmt, "annotations", [])]


def hoist(stmts, env: dict) -> None:
    """Add the vars declared in ``stmts`` to ``env``, the first declaration of
    a name winning.  Blocks do not scope vars; a FunctionDecl's body does."""
    for st in stmts:
        if isinstance(st, VarDecl):
            env.setdefault(st.name, st)
        if not isinstance(st, FunctionDecl):
            hoist(_child_statements(st), env)


def lookup(name: str, scopes: list) -> VarDecl | None:
    """The VarDecl that ``name`` denotes in the innermost scope declaring it;
    None for a parameter (held as None) or an undeclared name."""
    for env in reversed(scopes):
        if name in env:
            return env[name]
    return None


class _Builder:
    def __init__(self, program: SourceProgram):
        self.program = program
        self.graph = DependenceGraph(
            slice_order=list(program.slice_names()),
            fixed={s.name: s.fixed_tier for s in program.slices if s.fixed_tier},
        )
        self.func_entry: dict[int, int] = {}  # id(FunctionDecl) -> entry node id
        self.calls: list[tuple] = []  # (call-site node id, resolved FunctionDecl)
        self.defs: dict[int, list[int]] = {}  # id(VarDecl) -> def node ids
        self.uses: dict[int, set[int]] = {}  # id(VarDecl) -> use node ids
        self.site_by_call = {id(s.node): s for s in program.call_sites}

    def new_node(self, kind, owner, span, **kw) -> int:
        node = PdgNode(id=len(self.graph.nodes), kind=kind, slice=owner, span=span, **kw)
        self.graph.nodes.append(node)
        return node.id

    def edge(self, src, dst, kind):
        self.graph.edges.append(PdgEdge(src, dst, kind))

    def build(self) -> DependenceGraph:
        # Hoisted global scope: every var declared outside a function body,
        # across all slices and shared code (slice blocks do not scope vars).
        scopes = [{}]
        for s in self.program.slices:
            hoist(s.body, scopes[0])
        hoist(self.program.shared_top_level, scopes[0])

        entry = self.new_node(ENTRY, SHARED, Span.zero())
        for s in self.program.slices:
            for st in s.body:
                self.visit_stmt(st, entry, s.name, None, scopes)
        for st in self.program.shared_top_level:
            self.visit_stmt(st, entry, SHARED, None, scopes)
        for cid, fn in self.calls:
            self.edge(cid, self.func_entry[id(fn)], CALL)
        seen = set()
        for decl_key, def_nodes in self.defs.items():
            for d in def_nodes:
                for u in self.uses.get(decl_key, ()):
                    if d != u and (d, u) not in seen:
                        seen.add((d, u))
                        self.edge(d, u, DATA)
        return self.graph

    def visit_stmt(self, st, parent: int, owner: str, func: str | None, scopes: list):
        """Add ``st``'s node, its control edge and its defs and uses, then the
        nodes nested in it: call sites, function-expression bodies, children."""
        if isinstance(st, UiBlock):
            return
        named = isinstance(st, (VarDecl, FunctionDecl))
        nid = self.new_node(DECLARATION if named else STATEMENT, owner, st.span,
                            name=st.name if named else None, function=func,
                            annotations=_annotation_kinds(st))
        self.edge(parent, nid, CONTROL)

        if isinstance(st, FunctionDecl):
            fid = self.new_node(FUNCTION_ENTRY, owner, st.span, name=st.name, function=func)
            self.func_entry[id(st)] = fid
            self.edge(nid, fid, CONTROL)
            self.visit_body(st, fid, owner, st.name, scopes)
            return
        if isinstance(st, VarDecl):
            # before the initializer's function expressions record their defs
            self.define(st.name, scopes, nid)

        reads, writes = [], []
        for expr in _stmt_expressions(st):
            # Pre-order: a Call or Assign comes before its callee or target.
            not_read, func_exprs = set(), []
            for n in _iter_expr(expr):
                if isinstance(n, Call):
                    self.visit_call(n, nid, owner, func)
                    not_read.add(id(n.callee))
                elif isinstance(n, Assign):
                    not_read.add(id(n.target))
                    if isinstance(n.target, Ident):
                        writes.append(n.target.name)
                elif isinstance(n, Ident) and id(n) not in not_read:
                    reads.append(n.name)
                elif isinstance(n, FuncExpr):
                    func_exprs.append(n)
            for fx in func_exprs:
                self.visit_body(fx, nid, owner, func, scopes)
        for name in writes:
            self.define(name, scopes, nid)
        for name in reads:
            decl = lookup(name, scopes)
            if decl is not None:
                self.uses.setdefault(id(decl), set()).add(nid)
        for child in _child_statements(st):
            self.visit_stmt(child, nid, owner, func, scopes)

    def visit_body(self, fn, parent: int, owner: str, func: str | None, scopes: list):
        """A function's body, in a fresh scope holding its params and vars."""
        local = dict.fromkeys(fn.params)
        hoist(fn.body, local)
        for child in fn.body:
            self.visit_stmt(child, parent, owner, func, scopes + [local])

    def define(self, name: str, scopes: list, nid: int):
        """Record node ``nid`` as a def of the var that ``name`` denotes."""
        decl = lookup(name, scopes)
        if decl is not None:
            self.defs.setdefault(id(decl), []).append(nid)

    def visit_call(self, call, stmt_node: int, owner: str, func: str | None):
        site = self.site_by_call.get(id(call))
        cid = self.new_node(
            CALL_SITE, owner, call.span, name=site.callee_name if site else None, function=func,
            annotations=_annotation_kinds(site.stmt) if site else [],
            unresolved=site.unresolved_reason if site else "non-identifier",
        )
        self.edge(stmt_node, cid, CONTROL)
        if site and site.resolved is not None:
            self.calls.append((cid, site.resolved))


def build_pdg(program: SourceProgram) -> DependenceGraph:
    """Build the dependence graph; requires resolve_calls to have run."""
    return _Builder(program).build()


def collapse_to_slice_graph(graph: DependenceGraph) -> SliceGraph:
    vertices = list(graph.slice_order)
    if any(n.slice == SHARED and n.kind != ENTRY for n in graph.nodes):
        vertices.append(SHARED)
    counts: dict[tuple, int] = {}
    for e in graph.edges:
        a, b = graph.nodes[e.src], graph.nodes[e.dst]
        if a.kind == ENTRY or b.kind == ENTRY:
            continue
        if e.kind == DATA:
            # dependence orientation: the reader depends on the declarer
            src, dst = b.slice, a.slice
        else:
            src, dst = a.slice, b.slice
        if src != dst:
            key = (src, dst, e.kind)
            counts[key] = counts.get(key, 0) + 1
    return SliceGraph(tuple(vertices), counts)


def placement_problem(graph: DependenceGraph) -> PlacementProblem:
    """Slice list, fixed tiers and call table: the sole input to fitness.

    Calls are listed in node order, ``site_id`` being the index.  Shared-owned
    callees are recorded as SHARED (always local); call sites in shared code
    and unresolved/external calls are left out, and the unresolved in-slice
    call sites are counted.
    """
    callee_slice = {e.src: graph.nodes[e.dst].slice for e in graph.edges if e.kind == CALL}
    calls = []
    unresolved = 0
    for n in graph.nodes:
        if n.kind != CALL_SITE or n.slice == SHARED:
            continue
        if n.id not in callee_slice:
            if n.unresolved in ("undeclared", "ambiguous"):
                unresolved += 1
            continue
        annotated = bool({"reply", "broadcast"} & set(n.annotations))
        label = f"{n.span[2]}:{n.span[3]}"
        calls.append(
            CallRecord(len(calls), n.slice, callee_slice[n.id], n.name or "", annotated, label)
        )
    fixed = {name: Tier(tier) for name, tier in graph.fixed.items()}
    return PlacementProblem(tuple(graph.slice_order), fixed, tuple(calls), unresolved)


# --- Serialization --------------------------------------------------------


def to_json(graph: DependenceGraph) -> str:
    payload = {
        "slices": [
            {"name": name, "fixedTier": graph.fixed.get(name)}
            for name in graph.slice_order
        ],
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "slice": n.slice,
                "span": list(n.span),
                "name": n.name,
                "function": n.function,
                "annotations": list(n.annotations),
                "unresolved": n.unresolved,
            }
            for n in graph.nodes
        ],
        "edges": [{"from": e.src, "to": e.dst, "kind": e.kind} for e in graph.edges],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def to_dot(slice_graph: SliceGraph) -> str:
    """Collapsed slice graph as a DOT digraph; edge labels carry kind counts."""
    lines = ["digraph slices {"]
    for v in slice_graph.vertices:
        label = "shared" if v == SHARED else v
        lines.append(f'  "{label}";')
    merged: dict[tuple, list] = {}
    for (src, dst, kind), count in sorted(slice_graph.edges.items()):
        merged.setdefault((src, dst), []).append(f"{kind}:{count}")
    for (src, dst), labels in sorted(merged.items()):
        s = "shared" if src == SHARED else src
        d = "shared" if dst == SHARED else dst
        lines.append(f'  "{s}" -> "{d}" [label="{", ".join(labels)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
