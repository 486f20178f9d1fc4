"""Checks of tierslicer's answers against the reference.

Each check takes what the program produced and what the reference knows, and
raises CheckFailed with the first disagreement.  The workloads call them on
every operation; the tests feed them planted wrong answers.
"""

from __future__ import annotations

import json
import math
from collections import Counter

from . import reference as ref
from .programs import SHARED, Facts


class CheckFailed(AssertionError):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def call_table(records, facts: Facts, program_shared: str) -> None:
    """The program's call records equal the ground-truth table as a multiset.

    `records` are tierslicer CallRecords; `program_shared` is the program's own
    marker for shared callees.
    """
    got = Counter(
        (r.caller, SHARED if r.callee == program_shared else r.callee, r.callee_name,
         r.annotated, r.label)
        for r in records
    )
    want = Counter((c.caller, c.callee, c.callee_name, c.annotated, c.label) for c in facts.calls)
    require(got == want, f"call table differs: missing {dict(want - got)}, extra {dict(got - want)}")


def advise_report(exit_code: int, stdout: str, facts: Facts, tiers: dict) -> dict:
    """`advise --json` output: offline figure and every advice item follow the rules.

    Returns the parsed report.
    """
    require(exit_code == 0, f"advise exited {exit_code}")
    report = json.loads(stdout)
    s = ref.score(facts.calls, tiers)
    require(report["offlinePercent"] in ref.percents(s.fraction),
            f"offline percent {report['offlinePercent']} != reference {s.local}/{s.total}")
    require(math.isclose(report["offlineFraction"], float(s.fraction), rel_tol=1e-12, abs_tol=1e-15),
            f"offline fraction {report['offlineFraction']} != reference {s.local}/{s.total}")
    moves = Counter((m["name"], m["slice"], m["localIncoming"], m["remoteIncoming"])
                    for m in report["move"])
    want_moves = ref.expected_moves(facts, tiers)
    require(moves == want_moves, f"move advice {dict(moves)} != reference {dict(want_moves)}")
    replicate = Counter((r["name"], r["slice"], frozenset(r["functions"])) for r in report["replicate"])
    want_rep = ref.expected_replications(facts, tiers)
    require(replicate == want_rep,
            f"replication advice {dict(replicate)} != reference {dict(want_rep)}")
    return report


def split_listing(exit_code: int, stdout: str, stderr: str, path: str, facts: Facts,
                  tiers: dict) -> None:
    """`split` verdict, per-tier listing and remote calls agree with the reference."""
    s = ref.score(facts.calls, tiers)
    if not s.valid:
        require(exit_code == 3, f"split exited {exit_code} on an invalid placement")
        lines = stderr.splitlines()
        require(lines[:1] == ["invalid placement:"], f"split stderr starts {lines[:1]}")
        want = sorted(
            f"  {path}:{c.label}: unannotated {ref.classify(c, tiers)[1]} call to '{c.callee_name}'"
            for c in s.violations
        )
        require(sorted(lines[1:]) == want, f"split violations {lines[1:]} != reference {want}")
        return
    require(exit_code == 0, f"split exited {exit_code} on a valid placement")
    want_head = []
    for tier in ("client", "server"):
        want_head.append(f"[{tier}]")
        want_head += [f"  slice {n}" for n in facts.slices if tier in ref.TIER_SETS[tiers[n]]]
        if facts.shared_statements:
            want_head.append(f"  shared statements: {facts.shared_statements}")
    remote = [c for c in facts.calls if not ref.classify(c, tiers)[0]]
    want_head.append(f"[remote calls: {len(remote)}]")
    want_calls = sorted(
        f"  {path}:{c.label}: {c.caller} -> {c.callee} ('{c.callee_name}', {ref.classify(c, tiers)[1]})"
        for c in remote
    )
    lines = stdout.splitlines()
    head, calls = lines[:len(want_head)], lines[len(want_head):]
    require(head == want_head, f"split listing {head} != reference {want_head}")
    require(sorted(calls) == want_calls, f"split remote calls {calls} != reference {want_calls}")


def applicable_advice(report: dict, facts: Facts) -> tuple:
    """(replicate items, move items) that apply_advice can act on.

    apply_advice looks for replicated variables only at slice level, so advice
    on a function-local variable is left out of the write path.
    """
    slice_vars = {(v.name, v.slice) for v in facts.variables if v.function is None}
    replicate = [r for r in report["replicate"] if (r["name"], r["slice"]) in slice_vars]
    return replicate, list(report["move"])


def applied_program(program, text_after: str, reparsed_text: str, facts: Facts,
                    moves: int) -> None:
    """After apply_advice: emit is a fixed point of parse, no call site is lost.

    `program` is the SourceProgram apply_advice returned, `text_after` its
    emitted text and `reparsed_text` the emitted text of parsing it again.
    """
    require(text_after == reparsed_text, "emit is not a fixed point of parse after apply_advice")
    require(len(program.call_sites) == facts.call_sites,
            f"{len(program.call_sites)} call sites after apply_advice, {facts.call_sites} before")
    require(len(program.slices) == len(facts.slices) + moves,
            f"{len(program.slices)} slices after {moves} moves of {len(facts.slices)}")


def search_runs(results, facts: Facts, opt: ref.Optimum) -> int:
    """Every GA run is valid, scored exactly, not above the optimum, and keeps @config.

    Returns the number of runs that reach the optimum.
    """
    hits = 0
    for r in results:
        require(r.best_valid, "a run returned an invalid best placement")
        fixed = {k: v.value for k, v in r.best_placement.fixed.items()}
        require(fixed == facts.fixed, f"run changed the @config tiers: {fixed}")
        searched = {k: v.value for k, v in r.best_placement.searched.items()}
        require(set(searched) == set(facts.unplaced), "run did not place every unplaced slice")
        s = ref.score(facts.calls, {**fixed, **searched})
        require(s.valid, "a run's best placement is invalid under the reference")
        require(r.best_fitness == float(s.fraction),
                f"run fitness {r.best_fitness} != reference {s.local}/{s.total}")
        require(opt.local is not None and s.local <= opt.local,
                f"run fitness {s.local}/{s.total} above the reference optimum {opt.local}")
        hits += s.local == opt.local
    return hits


def oracle_answer(answer, facts: Facts, opt: ref.Optimum) -> None:
    """`answer` is (placement, fitness), or None for the search-failure verdict."""
    if opt.local is None:
        require(answer is None, "oracle found a placement where the reference finds none valid")
        return
    require(answer is not None, "oracle gave the search-failure verdict on a solvable problem")
    placement, fitness = answer
    tiers = {k: v.value for k, v in {**placement.fixed, **placement.searched}.items()}
    require(tiers == opt.tiers, f"oracle placement {tiers} != reference optimum {opt.tiers}")
    require(fitness == float(opt.fraction),
            f"oracle fitness {fitness} != reference {opt.local}/{opt.total}")
