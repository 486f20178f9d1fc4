"""Program dependence graph over TierJS programs.

Nodes are statements, declarations, function entries and call sites, each
owned by a slice (or shared).  Control edges follow block nesting, data edges
follow def-use over lexically scoped variable names, call edges connect call
sites to the entry of their resolved callee.

The graph is built in one pass over the steps of the front end's walk;
the builder visits no expression.  Its data edges join the steps that
``frontend.def_use`` lists for each var, the table the advisor reads too.  A
read or write of a name binds, as a callee does, in the innermost scope
declaring it: to that scope's first var of the name, or to nothing for a
parameter or function.  Node ids follow the walk, and edges come in three
runs: control edges in that order, call edges in call-site order, data edges
in first-def order.  The graph keeps the program it was built from.  The
call table (``placement_problem``) is read off the walk's call sites, in the
same order as the graph's CALL_SITE nodes, so only the ``graph`` command
builds a graph.

The collapsed slice graph aggregates cross-slice edges in *dependence*
orientation: call edges already point caller -> callee; data edges are
reversed at collapse time (reader -> declarer) so a purely supportive slice
shows only incoming dependencies.  @ui blocks are excluded entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .frontend import def_use
from .model import SHARED, CallRecord, PlacementProblem, Tier
from .syntax import (
    AnnotationKind,
    CallSiteInfo,
    FunctionDecl,
    SliceDecl,
    SourceProgram,
    UiBlock,
    VarDecl,
    line_col,
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
    span: tuple = (0, 0)  # source offsets, as syntax nodes keep them
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
    program: SourceProgram = field(repr=False, compare=False)  # the graph's source
    nodes: list = field(default_factory=list)
    edges: list = field(default_factory=list)


@dataclass
class SliceGraph:
    vertices: tuple = ()
    # (from_slice, to_slice, edge_kind) -> count, cross-slice only
    edges: dict = field(default_factory=dict)


def _annotation_kinds(stmt) -> list:
    return [a.kind.value for a in stmt.annotations] if stmt.annotations else []


def build_pdg(program: SourceProgram) -> DependenceGraph:
    """Build the dependence graph in one pass over the front end's walk;
    requires resolve_calls to have run.  Its data edges join each var's
    defining steps to its reading steps, by ``frontend.def_use``."""
    graph = DependenceGraph(program)
    nodes = graph.nodes

    def new_node(kind, owner, span, parent, name, function, annotations, unresolved=None) -> int:
        """A node, and its control edge from ``parent``."""
        nid = len(nodes)
        nodes.append(PdgNode(nid, kind, owner, span, name, function, annotations, unresolved))
        if parent is not None:
            graph.edges.append(PdgEdge(parent, nid, CONTROL))
        return nid

    entry = new_node(ENTRY, SHARED, (0, 0), None, None, None, [])
    node_of = {}  # id(statement) -> its node id; a function's entry node
    node_at = {}  # step index -> the statement's node id
    calls = []
    for k, step in enumerate(program.steps):
        if isinstance(step, CallSiteInfo):
            parent = node_of[id(step.stmt)]
            cid = new_node(CALL_SITE, step.owner, step.node.span, parent, step.callee_name,
                           step.scope.function, _annotation_kinds(step.stmt),
                           step.unresolved_reason)
            if step.resolved is not None:
                calls.append((cid, step.resolved))
            continue
        st, owner, scope, parent = step
        if isinstance(st, (SliceDecl, UiBlock)):
            continue
        parent = entry if parent is None else node_of[id(parent)]
        func = scope.function
        named = isinstance(st, (VarDecl, FunctionDecl))
        nid = node_of[id(st)] = node_at[k] = new_node(
            DECLARATION if named else STATEMENT, owner, st.span, parent,
            st.name if named else None, func, _annotation_kinds(st))
        if isinstance(st, FunctionDecl):
            node_of[id(st)] = new_node(FUNCTION_ENTRY, owner, st.span, nid, st.name, func, [])
    for cid, fn in calls:
        graph.edges.append(PdgEdge(cid, node_of[id(fn)], CALL))
    defs, uses = def_use(program)
    seen = set()
    for decl_key, def_steps in defs.items():
        readers = {node_at[u] for u in uses.get(decl_key, ())}
        for d in map(node_at.__getitem__, def_steps):
            for u in readers:
                if d != u and (d, u) not in seen:
                    seen.add((d, u))
                    graph.edges.append(PdgEdge(d, u, DATA))
    return graph


def collapse_to_slice_graph(graph: DependenceGraph) -> SliceGraph:
    vertices = graph.program.slice_names()
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


_REPLY_KINDS = (AnnotationKind.REPLY, AnnotationKind.BROADCAST)  # what makes a call annotated


def placement_problem(source: SourceProgram | DependenceGraph) -> PlacementProblem:
    """Slice list, fixed tiers and call table of a walked and resolved
    program, or of the program a graph was built from: the sole input to
    fitness.  It reads the walk's call sites and builds no graph.

    Calls are listed in call-site order, which is the graph's node order.
    Shared-owned callees are recorded as SHARED (always local); call sites in
    shared code and unresolved/external calls are left out (an unresolved
    site's ``unresolved_reason`` stays in ``program.call_sites``).
    """
    program = source.program if isinstance(source, DependenceGraph) else source
    calls = []
    for site in program.call_sites:
        if site.owner == SHARED or site.resolved is None:
            continue
        annotated = any(a.kind in _REPLY_KINDS for a in site.stmt.annotations)
        line, col = line_col(program.line_starts, site.node.span[0])
        calls.append(CallRecord(site.owner, site.resolved_owner, site.callee_name,
                                annotated, f"{line}:{col}"))
    fixed = {s.name: Tier(s.fixed_tier) for s in program.slices if s.fixed_tier}
    return PlacementProblem(tuple(program.slice_names()), fixed, tuple(calls))


# --- Serialization --------------------------------------------------------


def to_json(graph: DependenceGraph) -> str:
    """The graph as JSON; a node's span reads start, end, line and column."""
    lines = graph.program.line_starts
    payload = {
        "slices": [
            {"name": s.name, "fixedTier": s.fixed_tier}
            for s in graph.program.slices
        ],
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "slice": n.slice,
                "span": [*n.span, *line_col(lines, n.span[0])],
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
