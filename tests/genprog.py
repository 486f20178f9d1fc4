"""Seeded random TierJS programs for search stress tests.

Generates layered applications: a fixed client slice (browser), a fixed
server slice (store), and n unplaced helper slices.  Calls flow browser ->
helpers -> store, with occasional back-calls into browser display functions
and store -> helper calls.  Back-calls carry @reply annotations most of the
time; the unannotated remainder constrains which placements are valid.
"""

from __future__ import annotations

import numpy as np

from tierslicer import parse, placement_problem, resolve_calls
from tierslicer.depgraph import build_pdg
from tierslicer.kernels import build_scores, compile_problem

#: Minimum fraction of the 3^n space that must be valid for a fixture to be
#: usable: below this the search problem is dominated by constraint solving
#: rather than fitness optimization and random seeding cannot get started.
MIN_VALID_FRACTION = 0.02


def random_source(seed: int, n_helpers: int | None = None) -> str:
    """A layered program; ``n_helpers`` overrides the drawn 4-8 helper slices
    and leaves the rest of the seed's draws as they are."""
    rng = np.random.default_rng(seed)
    drawn = int(rng.integers(4, 9))
    n_helpers = drawn if n_helpers is None else n_helpers
    helper_funcs = {
        h: [f"h{h}_{j}" for j in range(int(rng.integers(1, 3)))]
        for h in range(n_helpers)
    }
    store_funcs = [f"store_{j}" for j in range(int(rng.integers(1, 3)))]
    show_funcs = [f"show_{j}" for j in range(2)]

    def call_stmt(callee: str, annotate_p: float) -> str:
        ann = "/* @reply */ " if rng.random() < annotate_p else ""
        return f"  {ann}{callee}(1);"

    lines = ["/* @config browser : client, store : server */", ""]

    lines.append("/* @slice browser */")
    lines.append("{")
    for name in show_funcs:
        lines.append(f"  function {name}(x) {{ return x; }}")
    lines.append("  function main() {")
    pool = [f for fs in helper_funcs.values() for f in fs] + store_funcs
    for _ in range(int(rng.integers(4, 11))):
        lines.append("  " + call_stmt(pool[int(rng.integers(len(pool)))], 0.3))
    lines.append("  }")
    lines.append("}")
    lines.append("")

    lines.append("/* @slice store */")
    lines.append("{")
    lines.append("  var table = [];")
    for name in store_funcs:
        lines.append(f"  function {name}(x) {{")
        if rng.random() < 0.3 and n_helpers:
            h = int(rng.integers(n_helpers))
            target = helper_funcs[h][int(rng.integers(len(helper_funcs[h])))]
            lines.append(call_stmt(target, 0.8))
        lines.append("    return table;")
        lines.append("  }")
    lines.append("}")
    lines.append("")

    for h in range(n_helpers):
        lines.append(f"/* @slice helper{h} */")
        lines.append("{")
        for name in helper_funcs[h]:
            lines.append(f"  function {name}(x) {{")
            for _ in range(int(rng.integers(0, 4))):
                downstream = [
                    f for h2 in range(h + 1, n_helpers) for f in helper_funcs[h2]
                ] + store_funcs
                lines.append("  " + call_stmt(downstream[int(rng.integers(len(downstream)))], 0.5))
            if rng.random() < 0.3:
                lines.append("  " + call_stmt(show_funcs[int(rng.integers(len(show_funcs)))], 0.8))
            lines.append("    return x;")
            lines.append("  }")
        lines.append("}")
        lines.append("")

    return "\n".join(lines)


def random_problem(seed: int, n_helpers: int | None = None):
    program = resolve_calls(parse(random_source(seed, n_helpers), f"random-{seed}.tjs"))
    return placement_problem(build_pdg(program))


def random_flat_problem(rng: np.random.Generator):
    """Synthetic slice graph: up to 10 slices and 40 calls, no source text."""
    from tierslicer.model import SHARED, CallRecord, PlacementProblem, Tier

    n_slices = int(rng.integers(2, 11))
    names = tuple(f"s{i}" for i in range(n_slices))
    fixed = {}
    for name in names:
        if rng.random() < 0.25:
            fixed[name] = Tier.CLIENT if rng.random() < 0.5 else Tier.SERVER
    if len(fixed) == n_slices:  # keep at least one unplaced slice
        del fixed[names[0]]
    calls = []
    for i in range(int(rng.integers(1, 41))):
        caller = names[int(rng.integers(n_slices))]
        callee = SHARED if rng.random() < 0.1 else names[int(rng.integers(n_slices))]
        calls.append(CallRecord(caller, callee, f"fn{i}", bool(rng.random() < 0.4)))
    return PlacementProblem(names, fixed, tuple(calls))


def wide_flat_problem(seed: int, n_genes: int):
    """random_flat_problem's kind of slice graph, with ``n_genes`` unplaced
    slices, two fixed ones and 8-30 calls that each have a gene at one end,
    so many optima tie."""
    from tierslicer.model import SHARED, CallRecord, PlacementProblem, Tier

    rng = np.random.default_rng(seed)
    names = tuple(f"s{i}" for i in range(n_genes)) + ("srv", "cli")
    calls = []
    while len(calls) < 8 + seed % 23:
        caller = names[int(rng.integers(len(names)))]
        callee = SHARED if rng.random() < 0.1 else names[int(rng.integers(len(names)))]
        if caller in names[n_genes:] and callee in (SHARED, *names[n_genes:]):
            continue
        calls.append(CallRecord(caller, callee, f"fn{len(calls)}",
                                bool(rng.random() < 0.4)))
    return PlacementProblem(names, {"srv": Tier.SERVER, "cli": Tier.CLIENT}, tuple(calls))


def fan_out_problem(n_calls: int):
    """Three unplaced slices and ``n_calls`` unannotated calls from g0,
    alternating to g1 and g2.  All client makes every call local; g0 on the
    server and the others on the client makes every call violate, so the
    scores span ``[-(n_calls + 1) * n_calls, n_calls]``."""
    from tierslicer.model import CallRecord, PlacementProblem

    return PlacementProblem(("g0", "g1", "g2"), {}, tuple(
        CallRecord("g0", ("g1", "g2")[i % 2], f"f{i}") for i in range(n_calls)))


def random_full_placement(problem, rng: np.random.Generator):
    from tierslicer.model import Tier
    from tierslicer.placement import Placement

    tiers = (Tier.CLIENT, Tier.SERVER, Tier.BOTH)
    searched = {s: tiers[int(rng.integers(3))] for s in problem.unplaced}
    return Placement(fixed=dict(problem.fixed), searched=searched)


def gene_order_scores(compiled) -> np.ndarray:
    """``build_scores``'s scores as int64: gene 0 the most significant digit,
    so the C-order ravel lines up with ``itertools.product((1, 2, 3), repeat=n)``."""
    return build_scores(compiled).astype(np.int64, order="C")


def rule_counts(problem):
    """Every genome's local and violating call counts by ``model.call_rule``,
    two int64 arrays of shape ``(3,) * n`` indexed like ``gene_order_scores``.
    Each gene's masks lie along its own axis, so each kind of call
    (caller, callee, annotated) is ruled once and broadcast-added, times the
    number of its calls.  No kernel code runs."""
    from collections import Counter

    from tierslicer.model import SHARED, call_rule

    n = len(problem.unplaced)
    mask = {SHARED: 3, **{s: t.mask for s, t in problem.fixed.items()}}
    for g, name in enumerate(problem.unplaced):
        mask[name] = np.arange(1, 4).reshape((1,) * g + (3,) + (1,) * (n - 1 - g))
    local, violating = np.zeros((3,) * n, dtype=np.int64), np.zeros((3,) * n, dtype=np.int64)
    kinds = Counter((rec.caller, rec.callee, rec.annotated) for rec in problem.calls)
    for (caller, callee, annotated), count in kinds.items():
        ok, bad = call_rule(mask[caller], mask[callee], annotated)
        local += count * np.asarray(ok, dtype=np.int64)
        violating += count * np.asarray(bad, dtype=np.int64)
    return local, violating


def valid_fraction(problem) -> float:
    return float((build_scores(compile_problem(problem)) >= 0).mean())


def random_problems(count: int, start_seed: int = 0):
    """`count` solvable problems, skipping over-constrained generator seeds."""
    out = []
    seed = start_seed
    while len(out) < count:
        problem = random_problem(seed)
        if valid_fraction(problem) >= MIN_VALID_FRACTION:
            out.append((seed, problem))
        seed += 1
    return out
