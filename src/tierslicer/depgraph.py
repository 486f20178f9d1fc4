"""Program dependence graph over TierJS programs.

Nodes are statements, declarations, function entries and call sites, each
owned by a slice (or shared).  Control edges follow block nesting, data edges
follow def-use over lexically scoped variable names, call edges connect call
sites to the entry of their resolved callee.

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
    span: tuple = (0, 0, 1, 1)  # (start, end, line, col)
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


def _span_tuple(span) -> tuple:
    return (span.start, span.end, span.line, span.col)


def _annotation_kinds(stmt) -> list:
    return [a.kind.value for a in getattr(stmt, "annotations", [])]


class _Builder:
    def __init__(self, program: SourceProgram):
        self.program = program
        self.graph = DependenceGraph(
            slice_order=list(program.slice_names()),
            fixed={s.name: s.fixed_tier for s in program.slices if s.fixed_tier},
        )
        self.stmt_node: dict[int, int] = {}  # id(stmt) -> node id
        self.func_entry: dict[int, int] = {}  # id(FunctionDecl) -> entry node id
        self.call_node: dict[int, int] = {}  # id(Call expr) -> node id
        self.site_by_call = {id(s.node): s for s in program.call_sites}

    def new_node(self, kind, owner, span, **kw) -> int:
        node = PdgNode(id=len(self.graph.nodes), kind=kind, slice=owner, span=_span_tuple(span), **kw)
        self.graph.nodes.append(node)
        return node.id

    def edge(self, src, dst, kind):
        self.graph.edges.append(PdgEdge(src, dst, kind))

    # -- structure pass ----------------------------------------------------

    def build(self) -> DependenceGraph:
        entry = self.new_node(ENTRY, SHARED, Span.zero())
        for s in self.program.slices:
            for st in s.body:
                self.visit_stmt(st, entry, s.name, None)
        for st in self.program.shared_top_level:
            self.visit_stmt(st, entry, SHARED, None)
        self.add_call_edges()
        self.add_data_edges()
        return self.graph

    def visit_stmt(self, st, parent: int, owner: str, func: str | None):
        if isinstance(st, UiBlock):
            return
        kind = DECLARATION if isinstance(st, (VarDecl, FunctionDecl)) else STATEMENT
        name = st.name if isinstance(st, (VarDecl, FunctionDecl)) else None
        nid = self.new_node(kind, owner, st.span, name=name, function=func,
                            annotations=_annotation_kinds(st))
        self.stmt_node[id(st)] = nid
        self.edge(parent, nid, CONTROL)

        if isinstance(st, FunctionDecl):
            fid = self.new_node(FUNCTION_ENTRY, owner, st.span, name=st.name, function=func)
            self.func_entry[id(st)] = fid
            self.edge(nid, fid, CONTROL)
            for child in st.body:
                self.visit_stmt(child, fid, owner, st.name)
            return

        for expr in _stmt_expressions(st):
            nodes = list(_iter_expr(expr))
            for call in nodes:
                if isinstance(call, Call):
                    self.visit_call(call, nid, owner, func)
            for fx in nodes:
                if isinstance(fx, FuncExpr):
                    for child in fx.body:
                        self.visit_stmt(child, nid, owner, func)
        for child in _child_statements(st):
            self.visit_stmt(child, nid, owner, func)

    def visit_call(self, call, stmt_node: int, owner: str, func: str | None):
        site = self.site_by_call.get(id(call))
        callee = site.callee_name if site else None
        cid = self.new_node(
            CALL_SITE, owner, call.span, name=callee, function=func,
            annotations=_annotation_kinds(site.stmt) if site else [],
            unresolved=site.unresolved_reason if site else "non-identifier",
        )
        self.call_node[id(call)] = cid
        self.edge(stmt_node, cid, CONTROL)

    def add_call_edges(self):
        for site in self.program.call_sites:
            if site.resolved is None:
                continue
            cid = self.call_node.get(id(site.node))
            fid = self.func_entry.get(id(site.resolved))
            if cid is not None and fid is not None:
                self.edge(cid, fid, CALL)

    # -- def-use pass ------------------------------------------------------

    def add_data_edges(self):
        # Hoisted global scope: every var declared outside a function body,
        # across all slices and shared code (slice blocks do not scope vars).
        global_env: dict[str, VarDecl] = {}

        def hoist(stmts, env):
            for st in stmts:
                if isinstance(st, VarDecl):
                    env.setdefault(st.name, st)
                if isinstance(st, FunctionDecl):
                    continue  # its body is a fresh scope
                hoist(_child_statements(st), env)

        for s in self.program.slices:
            hoist(s.body, global_env)
        hoist(self.program.shared_top_level, global_env)

        defs: dict[int, list[int]] = {}  # id(VarDecl) -> def node ids
        uses: dict[int, set[int]] = {}  # id(VarDecl) -> use node ids

        def record_def(decl, node_id):
            defs.setdefault(id(decl), []).append(node_id)

        def record_use(decl, node_id):
            uses.setdefault(id(decl), set()).add(node_id)

        def reads_of(nodes):
            """Identifier reads among an expression's nodes: every Ident but
            plain callees and assignment targets."""
            named = {id(n.callee) for n in nodes if isinstance(n, Call)}
            named.update(id(n.target) for n in nodes if isinstance(n, Assign))
            return [n.name for n in nodes if isinstance(n, Ident) and id(n) not in named]

        def lookup(name, env_chain):
            for env in reversed(env_chain):
                if name in env:
                    return env[name]
            return None

        def walk_function(fn, env_chain):
            """A function's body, in a fresh scope holding its params and vars."""
            local = {p: ("param", id(fn), p) for p in fn.params}
            hoist(fn.body, local)
            walk(fn.body, env_chain + [local])

        def walk(stmts, env_chain):
            for st in stmts:
                nid = self.stmt_node.get(id(st))
                if isinstance(st, FunctionDecl):
                    walk_function(st, env_chain)
                    continue
                if isinstance(st, VarDecl):
                    decl = lookup(st.name, env_chain)
                    if isinstance(decl, VarDecl) and nid is not None:
                        record_def(decl, nid)
                reads: list[str] = []
                writes: list[str] = []
                for expr in _stmt_expressions(st):
                    nodes = list(_iter_expr(expr))
                    reads += reads_of(nodes)
                    writes += [n.target.name for n in nodes
                               if isinstance(n, Assign) and isinstance(n.target, Ident)]
                    for fx in nodes:
                        if isinstance(fx, FuncExpr):
                            walk_function(fx, env_chain)
                if nid is not None:
                    for name in writes:
                        decl = lookup(name, env_chain)
                        if isinstance(decl, VarDecl):
                            record_def(decl, nid)
                    for name in reads:
                        decl = lookup(name, env_chain)
                        if isinstance(decl, VarDecl):
                            record_use(decl, nid)
                walk(_child_statements(st), env_chain)

        for s in self.program.slices:
            walk(s.body, [global_env])
        walk(self.program.shared_top_level, [global_env])

        seen = set()
        for decl_key, def_nodes in defs.items():
            for d in def_nodes:
                for u in uses.get(decl_key, ()):
                    if d != u and (d, u) not in seen:
                        seen.add((d, u))
                        self.edge(d, u, DATA)


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
