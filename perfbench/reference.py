"""Independent reference for tier placement, written apart from tierslicer.

It works on tier *sets* (client = {client}, server = {server}, both = {client,
server}), not on bit masks:

- a call is local iff the caller's tier set is a subset of the callee's, and
  calls to shared code are always local;
- a remote call needs a server-to-client hop when the caller runs on the
  server and the callee does not; such a call without @reply/@broadcast makes
  the placement invalid;
- fitness is local calls over all calls (1.0 without calls);
- the optimum is the valid placement of highest fitness, ties going to the
  lexicographically smallest tier vector over the unplaced slices in program
  order, with client < server < both.

`read_facts` extracts the same facts as the generator from TierJS source, for
the subset of the language that the bundled fixtures and the generator use
(slices, `@config`, functions, `var`, calls and annotations); it rejects what
it does not cover.  Nothing here imports tierslicer.
"""

from __future__ import annotations

import bisect
import itertools
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .programs import SHARED, Call, Facts, Var

TIER_SETS = {
    "client": frozenset({"client"}),
    "server": frozenset({"server"}),
    "both": frozenset({"client", "server"}),
}
ORDER = ("client", "server", "both")
MOVE_THRESHOLD = Fraction(1, 5)  # (R - L) / (R + L) must exceed this
SERVER_TO_CLIENT = "server-to-client"
CLIENT_TO_SERVER = "client-to-server"
MIXED = "mixed"


# --- Rules ------------------------------------------------------------------


def classify(call: Call, tiers: dict):
    """(local, direction); direction is None for local calls."""
    if call.callee == SHARED:
        return True, None
    caller, callee = TIER_SETS[tiers[call.caller]], TIER_SETS[tiers[call.callee]]
    if caller <= callee:
        return True, None
    missing = caller - callee
    if len(missing) == 2:
        return False, MIXED
    return False, SERVER_TO_CLIENT if "server" in missing else CLIENT_TO_SERVER


def violates(call: Call, tiers: dict) -> bool:
    local, direction = classify(call, tiers)
    return not local and direction != CLIENT_TO_SERVER and not call.annotated


@dataclass(frozen=True)
class Score:
    local: int
    total: int
    violations: tuple  # Call

    @property
    def valid(self) -> bool:
        return not self.violations

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.local, self.total) if self.total else Fraction(1)


def score(calls, tiers: dict) -> Score:
    local = sum(1 for c in calls if classify(c, tiers)[0])
    return Score(local, len(calls), tuple(c for c in calls if violates(c, tiers)))


def percents(fraction: Fraction) -> set:
    """The integer percents a report may print for `fraction`.

    The report rounds half to even.  At an exact half either neighbour is
    accepted, because the program sums per-slice fractions in floating point
    and may land an ulp to either side of the half.
    """
    value = fraction * 100
    if value.denominator == 2:
        return {int(value - Fraction(1, 2)), int(value + Fraction(1, 2))}
    return {round(value)}


def incoming(calls, tiers: dict) -> dict:
    """(callee slice, callee name) -> [local, remote] incoming call counts."""
    counts: dict = {}
    for c in calls:
        entry = counts.setdefault((c.callee, c.callee_name), [0, 0])
        entry[0 if classify(c, tiers)[0] else 1] += 1
    return counts


def expected_moves(facts: Facts, tiers: dict) -> Counter:
    """(function, slice, L, R) of every fixed-slice function the move rule selects."""
    counts = incoming(facts.calls, tiers)
    out = Counter()
    for slice_name in facts.fixed:
        for fn in facts.functions.get(slice_name, ()):
            local, remote = counts.get((slice_name, fn), (0, 0))
            if remote > local and Fraction(remote - local, remote + local) > MOVE_THRESHOLD:
                out[(fn, slice_name, local, remote)] += 1
    return out


def expected_replications(facts: Facts, tiers: dict) -> Counter:
    """(var, slice, reader functions) of every declaration the replication rule selects.

    A declaration qualifies when some function that reads it runs on a tier it
    shares with the declaration's slice and is called remotely more often than
    locally; those functions are the evidence.
    """
    counts = incoming(facts.calls, tiers)

    def tier_set(slice_name):
        return TIER_SETS["both" if slice_name == SHARED else tiers[slice_name]]

    out = Counter()
    for var in facts.variables:
        if var.replicated or var.slice == SHARED:
            continue
        evidence = frozenset(
            fn for reader_slice, fn in facts.readers.get(var, ())
            if tier_set(reader_slice) & tier_set(var.slice)
            and _remote_over_local(counts.get((reader_slice, fn), (0, 0)))
        )
        if evidence:
            out[(var.name, var.slice, evidence)] += 1
    return out


def _remote_over_local(counts) -> bool:
    local, remote = counts
    return remote > local


# --- Optimum ------------------------------------------------------------------


@dataclass(frozen=True)
class Optimum:
    local: int | None  # None when no placement is valid
    total: int
    tiers: dict | None  # full placement of the optimum
    valid: int  # number of valid placements
    space: int  # 3 ** unplaced

    @property
    def fraction(self) -> Fraction | None:
        if self.local is None:
            return None
        return Fraction(self.local, self.total) if self.total else Fraction(1)


def optimum(facts: Facts) -> Optimum:
    """Enumerate every placement of the unplaced slices at once.

    The local-call count and the invalid flag of all 3^n placements are built
    as n-dimensional arrays by summing one small table per distinct
    (caller, callee, annotated) call; flattening them in C order lists the
    placements in lexicographic order, so the first maximum is the tie-break
    winner.
    """
    unplaced = facts.unplaced
    n = len(unplaced)
    axis = {s: i for i, s in enumerate(unplaced)}
    local = np.zeros((3,) * n, dtype=np.int64)
    invalid = np.zeros((3,) * n, dtype=bool)
    groups = Counter((c.caller, c.callee, c.annotated) for c in facts.calls)
    for (caller, callee, annotated), count in groups.items():
        free = sorted({s for s in (caller, callee) if s in axis}, key=axis.get)
        loc = np.zeros((3,) * len(free), dtype=np.int64)
        bad = np.zeros((3,) * len(free), dtype=bool)
        probe = Call(caller, callee, "", annotated, 0, 0)
        for choice in itertools.product(range(3), repeat=len(free)):
            tiers = dict(facts.fixed)
            tiers.update((s, ORDER[k]) for s, k in zip(free, choice))
            loc[choice] = count if classify(probe, tiers)[0] else 0
            bad[choice] = violates(probe, tiers)
        shape = [3 if s in free else 1 for s in unplaced]
        local += loc.reshape(shape)
        invalid |= bad.reshape(shape)

    space = 3 ** n
    n_valid = int(space - invalid.sum())
    total = len(facts.calls)
    if n_valid == 0:
        return Optimum(None, total, None, 0, space)
    flat = np.where(invalid, -1, local).reshape(-1)
    best = int(flat.argmax())
    tiers = dict(facts.fixed)
    for i, s in enumerate(unplaced):
        tiers[s] = ORDER[(best // 3 ** (n - 1 - i)) % 3]
    return Optimum(int(flat[best]), total, tiers, n_valid, space)


# --- Reading facts from source ------------------------------------------------

_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>/\*.*?\*/)
  | (?P<linecomment>//[^\n]*)
  | (?P<ident>[A-Za-z_$][\w$]*)
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<str>'(?:[^'\\\n]|\\.)*'|"(?:[^"\\\n]|\\.)*")
  | (?P<op>==|!=|<=|>=|&&|\|\||[{}()\[\];,.=+\-*/%<>!:?])
""", re.S | re.X)

_KEYWORDS = {"if", "else", "while", "for", "return", "var", "function", "true",
             "false", "null", "new", "typeof"}


@dataclass
class _Scope:
    kind: str  # "slice", "function" or "block"
    name: str | None = None
    parent: "_Scope | None" = None
    params: frozenset = frozenset()
    local_vars: dict = None  # name -> Var

    def function(self):
        scope = self
        while scope is not None and scope.kind != "function":
            scope = scope.parent
        return scope


def _tokens(text: str):
    starts = [0] + [m.end() for m in re.finditer("\n", text)]
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unsupported character {text[pos]!r} at offset {pos}")
        kind = m.lastgroup
        if kind not in ("ws", "linecomment"):
            line = bisect.bisect_right(starts, pos)
            out.append((kind, m.group(), line, pos - starts[line - 1] + 1))
        pos = m.end()
    return out


def _annotation(comment: str):
    inner = comment[2:-2].strip()
    if not inner.startswith("@"):
        return None, ""
    kind, _, args = inner[1:].partition(" ")
    return kind, args.strip()


def read_facts(text: str) -> Facts:
    """Facts of a TierJS program in the fixture/generator subset of the language."""
    toks = _tokens(text)
    slices, fixed, functions, variables = [], {}, {}, []
    raw_calls, reads = [], []  # reads: (scope, slice, name)
    call_sites = shared_statements = 0
    scope = None  # innermost open brace scope
    pending_slice = None
    pending_function = None  # (name, params) awaiting its body
    annotations = set()

    def owner():
        s = scope
        while s is not None:
            if s.kind == "slice":
                return s.name
            s = s.parent
        return SHARED

    i = 0
    while i < len(toks):
        kind, val, line, col = toks[i]
        prev = toks[i - 1][1] if i else None
        nxt = toks[i + 1][1] if i + 1 < len(toks) else None
        if kind == "comment":
            ann, args = _annotation(val)
            if ann == "config":
                for item in args.split(","):
                    name, _, tier = item.partition(":")
                    fixed[name.strip()] = tier.strip()
            elif ann == "slice":
                pending_slice = args
            elif ann in ("ui", "broadcast-ui"):
                raise ValueError("@ui blocks are outside the subset this reader covers")
            elif ann:
                annotations.add(ann)
        elif val == "{":
            if pending_function is not None:
                name, params = pending_function
                scope = _Scope("function", name, scope, frozenset(params), {})
                pending_function = None
            elif pending_slice is not None and scope is None:
                slices.append(pending_slice)
                scope = _Scope("slice", pending_slice)
                pending_slice = None
            else:
                scope = _Scope("block", parent=scope)
            annotations.clear()
        elif val == "}":
            if scope is None:
                raise ValueError(f"unbalanced '}}' at {line}:{col}")
            scope = scope.parent
            annotations.clear()
        elif val == ";":
            if scope is None:
                shared_statements += 1
            annotations.clear()
        elif val == "function":
            name = toks[i + 1][1]
            if toks[i + 1][0] != "ident" or toks[i + 2][1] != "(":
                raise ValueError(f"function expressions are outside the subset ({line}:{col})")
            j = i + 3
            params = []
            while toks[j][1] != ")":
                if toks[j][0] == "ident":
                    params.append(toks[j][1])
                j += 1
            functions.setdefault(owner(), []).append(name)
            if scope is None:
                shared_statements += 1
            pending_function = (name, params)
            i = j + 1
            continue
        elif val == "var":
            name = toks[i + 1][1]
            fn = scope.function() if scope else None
            var = Var(owner(), fn.name if fn else None, name, "replicated" in annotations)
            variables.append(var)
            if fn is not None:
                fn.local_vars[name] = var
            i += 2
            continue
        elif val == "(" and (prev in (")", "]") or (i and toks[i - 1][0] == "ident"
                                                     and prev not in _KEYWORDS)):
            call_sites += 1
            callee_tok = toks[i - 1]
            if callee_tok[0] == "ident" and (i < 2 or toks[i - 2][1] != "."):
                annotated = bool({"reply", "broadcast"} & annotations)
                raw_calls.append((owner(), callee_tok[1], annotated, line, col))
        elif kind == "ident" and val not in _KEYWORDS and prev != "." and nxt not in ("(", "="):
            reads.append((scope, owner(), val))
        i += 1
    if scope is not None:
        raise ValueError("unbalanced '{' at end of input")

    declared = Counter(fn for fns in functions.values() for fn in fns)
    owner_of = {fn: s for s, fns in functions.items() for fn in fns}
    calls = tuple(
        Call(caller, owner_of[name], name, annotated, line, col)
        for caller, name, annotated, line, col in raw_calls
        if caller != SHARED and declared[name] == 1
    )

    globals_ = {v.name: v for v in reversed(variables) if v.function is None}
    readers: dict = {}
    for read_scope, slice_name, name in reads:
        fn = read_scope.function() if read_scope else None
        if fn is None:
            continue  # readers outside functions never carry advice evidence
        var = None
        s = fn
        while s is not None:
            if s.kind == "function" and name in s.params:
                break
            if s.kind == "function" and name in s.local_vars:
                var = s.local_vars[name]
                break
            s = s.parent
        else:
            var = globals_.get(name)
        if var is not None:
            readers.setdefault(var, set()).add((slice_name, fn.name))

    return Facts(
        slices=tuple(slices),
        fixed=fixed,
        functions=functions,
        variables=variables,
        readers=readers,
        calls=calls,
        call_sites=call_sites,
        shared_statements=shared_statements,
    )
