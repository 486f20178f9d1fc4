"""Program dependence graph over TierJS programs.

Nodes are statements, declarations, function entries and call sites, each
owned by a slice (or shared).  Control edges follow block nesting, data edges
follow def-use over lexically scoped variable names, call edges connect call
sites to the entry of their resolved callee.

The graph is built in one pass over the steps of the front end's walk,
which hold each statement's scope and expressions.  A read or write of a
name binds, as a callee does, in the innermost scope declaring it: to that
scope's first var of the name, or to nothing for a parameter or function.
Node ids follow the walk, and edges come in three runs: control edges in
that order, call edges in call-site order, data edges in first-def order.

The collapsed slice graph aggregates cross-slice edges in *dependence*
orientation: call edges already point caller -> callee; data edges are
reversed at collapse time (reader -> declarer) so a purely supportive slice
shows only incoming dependencies.  @ui blocks are excluded entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import SHARED, CallRecord, PlacementProblem, Tier
from .syntax import (
    Assign,
    Call,
    CallSiteInfo,
    FuncExpr,
    FunctionDecl,
    Ident,
    SliceDecl,
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


@dataclass(slots=True)
class PdgNode:
    id: int
    kind: str
    slice: str  # slice name or SHARED
    span: Span = Span.zero()
    name: str | None = None  # declared name / callee name
    function: str | None = None  # enclosing function declaration, if any
    annotations: list = field(default_factory=list)  # annotation kind strings
    unresolved: str | None = None  # call sites only


class PdgEdge(NamedTuple):
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
    return [a.kind.value for a in stmt.annotations] if stmt.annotations else []


def build_pdg(program: SourceProgram) -> DependenceGraph:
    """Build the dependence graph in one pass over the front end's walk;
    requires resolve_calls to have run.  A statement's reads and writes count
    after the bodies of its function expressions, so a statement that holds
    some waits for its None step."""
    graph = DependenceGraph(
        slice_order=list(program.slice_names()),
        fixed={s.name: s.fixed_tier for s in program.slices if s.fixed_tier},
    )
    nodes = graph.nodes
    defs: dict[int, list[int]] = {}  # id(var Declaration) -> def node ids
    uses: dict[int, set[int]] = {}  # id(var Declaration) -> use node ids

    def new_node(kind, owner, span, parent, name, function, annotations, unresolved=None) -> int:
        """A node, and its control edge from ``parent``."""
        nid = len(nodes)
        nodes.append(PdgNode(nid, kind, owner, span, name, function, annotations, unresolved))
        if parent is not None:
            graph.edges.append(PdgEdge(parent, nid, CONTROL))
        return nid

    def bind(nid: int, scope, reads: list, writes: list):
        """Node ``nid`` defines and uses the vars its names bind to in ``scope``."""
        for name in writes:
            decl = scope.var(name)
            if decl is not None:
                defs.setdefault(id(decl), []).append(nid)
        for name in reads:
            decl = scope.var(name)
            if decl is not None:
                uses.setdefault(id(decl), set()).add(nid)

    entry = new_node(ENTRY, SHARED, Span.zero(), None, None, None, [])
    node_of = {}  # id(statement) -> its node id; a function's entry node
    calls, waiting = [], []
    for step in program.steps:
        if step is None:
            bind(*waiting.pop())
            continue
        if isinstance(step, CallSiteInfo):
            parent = node_of[id(step.stmt)]
            cid = new_node(CALL_SITE, step.owner, step.node.span, parent, step.callee_name,
                           nodes[parent].function, _annotation_kinds(step.stmt),
                           step.unresolved_reason)
            if step.resolved is not None:
                calls.append((cid, step.resolved))
            continue
        st, owner, scope, parent, exprs = step
        if isinstance(st, (SliceDecl, UiBlock)):
            continue
        parent = entry if parent is None else node_of[id(parent)]
        up = nodes[parent]
        func = up.name if up.kind == FUNCTION_ENTRY else up.function
        named = isinstance(st, (VarDecl, FunctionDecl))
        nid = node_of[id(st)] = new_node(
            DECLARATION if named else STATEMENT, owner, st.span, parent,
            st.name if named else None, func, _annotation_kinds(st))
        if isinstance(st, FunctionDecl):
            node_of[id(st)] = new_node(FUNCTION_ENTRY, owner, st.span, nid, st.name, func, [])
            continue
        if isinstance(st, VarDecl):
            # before the initializer's function expressions record their defs
            bind(nid, scope, [], [st.name])
        # Pre-order: a Call or Assign comes before its callee or target.
        reads, writes, not_read, bodies = [], [], set(), False
        for n in exprs:
            if isinstance(n, Call):
                not_read.add(id(n.callee))
            elif isinstance(n, Assign):
                not_read.add(id(n.target))
                if isinstance(n.target, Ident):
                    writes.append(n.target.name)
            elif isinstance(n, Ident) and id(n) not in not_read:
                reads.append(n.name)
            elif isinstance(n, FuncExpr):
                bodies = True
        if bodies:
            waiting.append((nid, scope, reads, writes))
        else:
            bind(nid, scope, reads, writes)
    for cid, fn in calls:
        graph.edges.append(PdgEdge(cid, node_of[id(fn)], CALL))
    seen = set()
    for decl_key, def_nodes in defs.items():
        for d in def_nodes:
            for u in uses.get(decl_key, ()):
                if d != u and (d, u) not in seen:
                    seen.add((d, u))
                    graph.edges.append(PdgEdge(d, u, DATA))
    return graph


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
