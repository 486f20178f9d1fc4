"""Refinement advice after placement: replicate data, extract functions.

Two advice kinds, both driven by incoming call counts under the computed
placement: a declaration whose readers sit in functions that are called
remotely more than locally should be replicated; a function in a fixed slice
that is called remotely much more than locally should move to a fresh
unplaced slice so the search can relocate (or duplicate) it.

``AdvisorConfig`` and ``MAX_REFINE_ITERATIONS`` live in ``model``.  Only
``refine_loop`` searches, so only it imports ``search`` and with it numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

from . import frontend
from .depgraph import DATA, DECLARATION, DependenceGraph, build_pdg, placement_problem
from .errors import TargetNotFoundError
from .fitness import offline_percent, report_header
from .model import MAX_REFINE_ITERATIONS, SHARED, AdvisorConfig, GaConfig, PlacementProblem
from .placement import Placement, classify_calls
from .syntax import Annotation, AnnotationKind, FunctionDecl, SliceDecl, SourceProgram, VarDecl


class AdviceKind(Enum):
    REPLICATE_DECLARATION = "replicate-declaration"
    MOVE_FUNCTION = "move-function-to-new-slice"


@dataclass
class Advice:
    kind: AdviceKind
    target: str  # declaration or function name
    owner: str  # owning slice
    local_incoming: int = 0  # move advice evidence
    remote_incoming: int = 0
    dependent_functions: list = field(default_factory=list)  # replication evidence


def incoming_counts(problem: PlacementProblem, placement: Placement) -> dict:
    """(local, remote) incoming call counts per (callee slice, function name)."""
    counts: dict[tuple, list] = {}
    for c in classify_calls(problem, placement):
        key = (c.record.callee, c.record.callee_name)
        entry = counts.setdefault(key, [0, 0])
        entry[0 if c.local else 1] += 1
    return counts


def _tier_mask(placement: Placement, slice_name: str) -> int:
    if slice_name == SHARED:
        return 3  # shared code replicates into every tier that uses it
    return placement.mask(slice_name)


def advise_replication(graph: DependenceGraph, placement: Placement,
                       program: SourceProgram, incoming: dict) -> list:
    # The graph's declaration nodes are the program's declarations, in order.
    decl_nodes = [n for n in graph.nodes if n.kind == DECLARATION]
    readers: dict[int, list] = {}
    for e in graph.edges:
        if e.kind == DATA:
            readers.setdefault(e.src, []).append(graph.nodes[e.dst])

    out = []
    for decl, node in zip(program.declarations, decl_nodes, strict=True):
        if decl.kind != "var" or decl.owner == SHARED:
            continue
        if any(a.kind is AnnotationKind.REPLICATED for a in decl.node.annotations):
            continue
        decl_mask = _tier_mask(placement, decl.owner)
        evidence = []
        for reader in readers.get(node.id, []):
            if reader.function is None:
                continue
            if not (_tier_mask(placement, reader.slice) & decl_mask):
                continue  # reader lives on a disjoint tier
            local, remote = incoming.get((reader.slice, reader.function), (0, 0))
            if remote > local and reader.function not in evidence:
                evidence.append(reader.function)
        if evidence:
            out.append(Advice(AdviceKind.REPLICATE_DECLARATION, decl.name, decl.owner,
                              dependent_functions=evidence))
    return out


def advise_function_moves(problem: PlacementProblem, program: SourceProgram, incoming: dict,
                          config: AdvisorConfig = AdvisorConfig()) -> list:
    out = []
    for decl in program.declarations:
        if decl.kind != "function" or decl.owner not in problem.fixed:
            continue
        local, remote = incoming.get((decl.owner, decl.name), (0, 0))
        if remote > local and (remote - local) / (remote + local) > config.move_threshold:
            out.append(Advice(AdviceKind.MOVE_FUNCTION, decl.name, decl.owner,
                              local_incoming=local, remote_incoming=remote))
    return out


def advise(graph: DependenceGraph, problem: PlacementProblem, placement: Placement,
           program: SourceProgram, config: AdvisorConfig = AdvisorConfig()) -> list:
    """Both advice kinds, from one classification of ``problem``'s calls."""
    incoming = incoming_counts(problem, placement)
    return (advise_replication(graph, placement, program, incoming)
            + advise_function_moves(problem, program, incoming, config))


# --- Applying advice ------------------------------------------------------


def _fresh_slice_name(base: str, taken: set) -> str:
    name = base
    counter = 2
    while name in taken:
        name = f"{base}_{counter}"
        counter += 1
    return name


def apply_advice(program: SourceProgram, advices: list) -> SourceProgram:
    """Apply ``advices`` and return the edited program, walked and resolved.

    Pure: ``program`` is copied on write.  The slice list, the body of each
    slice an advice edits and each VarDecl that gains ``@replicated`` are
    copied, so no node of ``program`` changes.  There is no text round trip:
    the result's statements keep the spans of the source they were parsed
    from, a moved function its own, and a new slice has the zero span and no
    fixed tier.  The result has its own walk, so its declarations, call sites
    and steps are its own, and its calls are resolved.
    """
    slices = list(program.slices)
    index = {s.name: k for k, s in enumerate(slices)}

    def body(owner: str) -> list:
        """The body of slice ``owner`` in the copy, itself copied on first use."""
        k = index.get(owner)
        if k is None:
            raise TargetNotFoundError(f"slice {owner!r} not found")
        if k < len(program.slices) and slices[k] is program.slices[k]:
            slices[k] = replace(slices[k], body=list(slices[k].body))
        return slices[k].body

    for advice in advices:
        stmts = body(advice.owner)
        if advice.kind is AdviceKind.REPLICATE_DECLARATION:
            k = _find_stmt(stmts, VarDecl, advice.target)
            if k is None:
                raise TargetNotFoundError(f"var {advice.target!r} not in slice {advice.owner!r}")
            target = stmts[k]
            if not any(a.kind is AnnotationKind.REPLICATED for a in target.annotations):
                stmts[k] = replace(target, annotations=[*target.annotations,
                                                        Annotation(AnnotationKind.REPLICATED)])
        else:
            k = _find_stmt(stmts, FunctionDecl, advice.target)
            if k is None:
                raise TargetNotFoundError(f"function {advice.target!r} not in slice {advice.owner!r}")
            name = _fresh_slice_name(f"auto_{advice.target}", index.keys())
            index[name] = len(slices)
            slices.append(SliceDecl(
                name=name,
                body=[stmts.pop(k)],
                annotations=[Annotation(AnnotationKind.SLICE, [name])],
            ))

    work = SourceProgram(slices=slices, shared_top_level=program.shared_top_level,
                         filename=program.filename)
    return frontend.resolve_calls(frontend.walk(work))


# --- Refinement loop ------------------------------------------------------


@dataclass
class RefineResult:
    program: SourceProgram
    placement: Placement
    fitness: float
    iterations: int
    fitness_history: list = field(default_factory=list)  # fitness before each apply + final


def refine_loop(program: SourceProgram, ga_config: GaConfig = GaConfig(),
                advisor_config: AdvisorConfig = AdvisorConfig(),
                max_iterations: int = MAX_REFINE_ITERATIONS) -> RefineResult:
    """Alternate search and the integration of applicable advice until a fixpoint."""
    from .search import run

    if max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    iterations = 0
    history = []
    while True:
        graph = build_pdg(program)
        problem = placement_problem(graph)
        result = run(problem, ga_config)
        history.append(result.best_fitness)
        if result.best_fitness == 1.0:
            break
        advices = applicable_advice(
            program, advise(graph, problem, result.best_placement, program, advisor_config))
        if not advices or iterations >= max_iterations:
            break
        program = apply_advice(program, advices)
        iterations += 1
    return RefineResult(program, result.best_placement, result.best_fitness, iterations, history)


def applicable_advice(program: SourceProgram, advices: list) -> list:
    """The advice whose target ``apply_advice`` finds: a var or function
    declared at the top level of its slice's body."""
    bodies = {s.name: s.body for s in program.slices}
    return [a for a in advices if _find_stmt(
        bodies.get(a.owner, ()),
        VarDecl if a.kind is AdviceKind.REPLICATE_DECLARATION else FunctionDecl,
        a.target) is not None]


def _find_stmt(body, cls, name) -> int | None:
    """Index of the first ``cls`` statement named ``name`` in ``body``."""
    for k, st in enumerate(body):
        if isinstance(st, cls) and st.name == name:
            return k
    return None


# --- Report rendering -----------------------------------------------------


def render_report(fitness_value: float, advices: list) -> str:
    """Plain-text advice report; sections are omitted when empty."""
    lines = [report_header(fitness_value)]
    replicate = [a for a in advices if a.kind is AdviceKind.REPLICATE_DECLARATION]
    move = [a for a in advices if a.kind is AdviceKind.MOVE_FUNCTION]
    if replicate:
        lines.append("Consider making following declarations replicated")
        lines.extend(f"      - var {a.target}" for a in replicate)
    if move:
        lines.append("Consider moving following functions to new slice:")
        lines.extend(f"      - {a.target}" for a in move)
    return "\n".join(lines) + "\n"


def report_json(fitness_value: float, advices: list) -> dict:
    return {
        "offlinePercent": offline_percent(fitness_value),
        "offlineFraction": fitness_value,
        "replicate": [
            {"name": a.target, "slice": a.owner, "functions": list(a.dependent_functions)}
            for a in advices if a.kind is AdviceKind.REPLICATE_DECLARATION
        ],
        "move": [
            {
                "name": a.target,
                "slice": a.owner,
                "localIncoming": a.local_incoming,
                "remoteIncoming": a.remote_incoming,
            }
            for a in advices if a.kind is AdviceKind.MOVE_FUNCTION
        ],
    }
