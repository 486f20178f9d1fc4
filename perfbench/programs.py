"""Seeded TierJS programs of the layered family, with their ground truth.

Each program has a fixed ``browser`` client slice, a fixed ``store`` server
slice and ``n_helpers`` unplaced helper slices.  Calls flow browser ->
helpers -> store; helpers call only helpers with a higher index or the store,
and now and then call back into the browser's ``show_*`` functions, most of
the time under ``@reply``.  The store sometimes calls a helper.  Optional
shared utility functions live outside every slice, so their callers see
``SHARED`` callees.

The generator writes the source and, alongside it, the facts the reference
needs: the slice list, the ``@config`` tiers, the functions and variables of
each slice, which functions read which variable, and every resolved in-slice
call with its caller slice, callee slice (or SHARED), callee name, whether it
is annotated, and its line and column.  Nothing here imports ``tierslicer``.

Per-slice counts are drawn by shuffling a fixed pattern, so two seeds give
programs of the same size with different wiring; that keeps timings from
drifting with the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

SHARED = "<shared>"


@dataclass(frozen=True)
class Call:
    caller: str  # owning slice
    callee: str  # slice name or SHARED
    callee_name: str
    annotated: bool  # @reply or @broadcast on the call's statement
    line: int
    col: int  # column of the opening parenthesis, as the program labels calls

    @property
    def label(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Var:
    """One `var` declaration: its slice, enclosing function (None at slice level)."""

    slice: str
    function: str | None
    name: str
    replicated: bool = False


@dataclass
class Facts:
    """What the reference knows about one program, independently of tierslicer."""

    slices: tuple
    fixed: dict  # slice -> "client" / "server"
    functions: dict = field(default_factory=dict)  # slice or SHARED -> [function names]
    variables: list = field(default_factory=list)  # Var
    readers: dict = field(default_factory=dict)  # Var -> {(slice, function)} reading it
    calls: tuple = ()
    call_sites: int = 0  # every call expression, resolved or not
    shared_statements: int = 0  # top-level statements outside every slice

    @property
    def unplaced(self) -> tuple:
        return tuple(s for s in self.slices if s not in self.fixed)


def _spread(rng: random.Random, pattern, k: int) -> list:
    """k values that repeat `pattern` in turn, shuffled."""
    values = [pattern[i % len(pattern)] for i in range(k)]
    rng.shuffle(values)
    return values


class _Writer:
    def __init__(self):
        self.lines = []
        self.calls = []
        self.call_sites = 0

    def add(self, text: str = ""):
        self.lines.append(text)

    def call(self, indent: str, caller: str, callee: str, name: str, annotated: bool):
        prefix = indent + ("/* @reply */ " if annotated else "") + name
        self.lines.append(prefix + "(1);")
        self.calls.append(Call(caller, callee, name, annotated, len(self.lines), len(prefix) + 1))
        self.call_sites += 1


def layered_program(seed: int, n_helpers: int, *, funcs=(1, 2), calls=(0, 1, 2, 3),
                    browser_calls: int = 7, shared: int = 0):
    """(source text, Facts) of one seeded program with `n_helpers` helper slices."""
    if n_helpers < 1:
        raise ValueError("need at least one helper slice")
    rng = random.Random(seed)
    helper_funcs = {
        h: [f"h{h}_{j}" for j in range(k)]
        for h, k in enumerate(_spread(rng, funcs, n_helpers))
    }
    store_funcs = ["store_0", "store_1"]
    show_funcs = ["show_0", "show_1"]
    util_funcs = [f"util_{k}" for k in range(shared)]
    owner = {f: f"helper{h}" for h, fs in helper_funcs.items() for f in fs}
    owner.update({f: "store" for f in store_funcs})
    owner.update({f: "browser" for f in show_funcs})
    owner.update({f: SHARED for f in util_funcs})

    w = _Writer()
    w.add("/* @config browser : client, store : server */")
    w.add()
    for name in util_funcs:
        w.add(f"function {name}(x) {{ return x; }}")
    if util_funcs:
        w.add()

    w.add("/* @slice browser */")
    w.add("{")
    for name in show_funcs:
        w.add(f"  function {name}(x) {{ return x; }}")
    w.add("  function main() {")
    pool = [f for fs in helper_funcs.values() for f in fs] + store_funcs
    for _ in range(browser_calls):
        target = pool[rng.randrange(len(pool))]
        w.call("    ", "browser", owner[target], target, rng.random() < 0.3)
    w.add("  }")
    w.add("}")
    w.add()

    w.add("/* @slice store */")
    w.add("{")
    w.add("  var table = [];")
    for name in store_funcs:
        w.add(f"  function {name}(x) {{")
        if rng.random() < 0.3:
            fs = helper_funcs[rng.randrange(n_helpers)]
            target = fs[rng.randrange(len(fs))]
            w.call("    ", "store", owner[target], target, rng.random() < 0.8)
        w.add("    return table;")
        w.add("  }")
    w.add("}")
    w.add()

    all_funcs = [f for h in range(n_helpers) for f in helper_funcs[h]]
    call_counts = iter(_spread(rng, calls, len(all_funcs)))
    for h in range(n_helpers):
        slice_name = f"helper{h}"
        downstream = [f for h2 in range(h + 1, n_helpers) for f in helper_funcs[h2]] + store_funcs
        w.add(f"/* @slice {slice_name} */")
        w.add("{")
        for name in helper_funcs[h]:
            w.add(f"  function {name}(x) {{")
            for _ in range(next(call_counts)):
                target = downstream[rng.randrange(len(downstream))]
                w.call("    ", slice_name, owner[target], target, rng.random() < 0.5)
            if rng.random() < 0.3:
                target = show_funcs[rng.randrange(len(show_funcs))]
                w.call("    ", slice_name, "browser", target, rng.random() < 0.8)
            if util_funcs and rng.random() < 0.3:
                target = util_funcs[rng.randrange(len(util_funcs))]
                w.call("    ", slice_name, SHARED, target, False)
            w.add("    return x;")
            w.add("  }")
        w.add("}")
        w.add()

    helpers = tuple(f"helper{h}" for h in range(n_helpers))
    functions = {"browser": show_funcs + ["main"], "store": list(store_funcs)}
    functions.update({f"helper{h}": list(fs) for h, fs in helper_funcs.items()})
    if util_funcs:
        functions[SHARED] = list(util_funcs)
    table = Var("store", None, "table")
    facts = Facts(
        slices=("browser", "store") + helpers,
        fixed={"browser": "client", "store": "server"},
        functions=functions,
        variables=[table],
        readers={table: {("store", f) for f in store_funcs}},
        calls=tuple(w.calls),
        call_sites=w.call_sites,
        shared_statements=len(util_funcs),
    )
    return "\n".join(w.lines), facts


def random_placement(facts: Facts, rng: random.Random) -> dict:
    """A full placement: the @config tiers plus a seeded tier for every other slice."""
    tiers = dict(facts.fixed)
    for name in facts.unplaced:
        tiers[name] = rng.choice(("client", "server", "both"))
    return tiers


def placement_json(facts: Facts, tiers: dict) -> str:
    """The placement file format that `tierslicer split/advise --placement` reads."""
    return json.dumps({
        "fixed": {s: tiers[s] for s in sorted(facts.fixed)},
        "searched": {s: tiers[s] for s in sorted(facts.unplaced)},
    }, indent=2, sort_keys=True) + "\n"
