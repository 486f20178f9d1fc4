"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Criteria 1 and 8 use synthetic slice graphs; criterion 2 uses seeded random
TierJS sources; the rest run against the bundled fixtures and the frozen
values in fixtures/manifest.json.
"""

from __future__ import annotations

import json
import time
from itertools import product

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import fixture_path, fixture_problem, load_fixture
from genprog import random_flat_problem, random_full_placement, random_problems
from tierslicer.advisor import (AdviceKind, advise, advise_function_moves, apply_advice,
                                incoming_counts, refine_loop, render_report)
from tierslicer.cli import main as cli_main
from tierslicer.depgraph import placement_problem
from tierslicer.fitness import evaluate
from tierslicer.model import SHARED, Tier
from tierslicer.placement import Placement, classify_calls, is_valid
from tierslicer.search import GaConfig, exhaustive_oracle, run, run_many

# The canonical search parameters pin population size, generation budget and the
# crossover/mutation probabilities; tournament size is a free parameter and a
# size of 1 (selection pressure from elitism alone) measurably avoids the
# premature convergence that deterministic tie-breaking causes at larger sizes.
SEARCH_CONFIG = GaConfig(population_size=30, max_generations=300,
                         crossover_prob=0.6, mutation_prob=0.6,
                         tournament_size=1, rng_seed=1000)


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} [{label}] failed: {detail}"


def tier_set(tier: Tier) -> frozenset:
    return frozenset({Tier.CLIENT: ("client",), Tier.SERVER: ("server",),
                      Tier.BOTH: ("client", "server")}[tier])


def independent_flat_ratio(problem, placement) -> float:
    """Per-call brute-force classifier, independent of the fitness module."""
    local = total = 0
    for rec in problem.calls:
        total += 1
        if rec.callee == SHARED:
            local += 1
            continue
        if tier_set(placement.tier(rec.caller)) <= tier_set(placement.tier(rec.callee)):
            local += 1
    return local / total if total else 1.0


def test_criterion_1_fitness_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        problem = random_flat_problem(rng)
        placement = random_full_placement(problem, rng)
        got = evaluate(problem, placement).program
        want = independent_flat_ratio(problem, placement)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - started
    report(1, "fitness identity", worst <= 1e-12 and elapsed < 5.0,
           f"max deviation {worst:.2e}, {elapsed:.2f}s for 200 graphs")


def test_criterion_2_oracle_agreement():
    started = time.perf_counter()
    fixtures = random_problems(20)
    hits_per_fixture = []
    exceeded = 0
    for _, problem in fixtures:
        _, oracle_fitness = exhaustive_oracle(problem)
        results = run_many(problem, SEARCH_CONFIG, runs=100)
        exceeded += sum(1 for r in results if r.best_fitness > oracle_fitness + 1e-12)
        hits_per_fixture.append(
            sum(1 for r in results if abs(r.best_fitness - oracle_fitness) <= 1e-12)
        )
    elapsed = time.perf_counter() - started
    report(2, "oracle agreement", min(hits_per_fixture) >= 95 and exceeded == 0 and elapsed < 120.0,
           f"worst fixture {min(hits_per_fixture)}/100 hits, {exceeded} oracle-beating runs, "
           f"{elapsed:.1f}s for 20 fixtures x 100 runs")


def _invalid_sets(name: str):
    problem = fixture_problem(name)
    checked = set()
    hand = set()
    for combo in product(Tier, repeat=len(problem.unplaced)):
        placement = Placement(fixed=dict(problem.fixed),
                              searched=dict(zip(problem.unplaced, combo)))
        if not is_valid(problem, placement)[0]:
            checked.add(combo)
        for rec in problem.calls:  # hand rule, by tier sets
            if rec.annotated or rec.callee == SHARED:
                continue
            a, b = tier_set(placement.tier(rec.caller)), tier_set(placement.tier(rec.callee))
            if not a <= b and "server" in a and "server" not in b:
                hand.add(combo)
                break
    return checked, hand


def test_criterion_3_validity_rule():
    checked, hand = _invalid_sets("relay.tjs")
    checked_reply, hand_reply = _invalid_sets("relay_reply.tjs")
    ok = (checked == hand and checked_reply == hand_reply
          and checked_reply == set() and len(checked) == 9)
    report(3, "validity rule", ok,
           f"{len(checked)}/27 invalid without @reply, {len(checked_reply)}/27 with; "
           "sets match the hand enumeration")


def test_criterion_4_refinement_trajectory(manifest):
    versions = [f"unicorn_v{i}.tjs" for i in range(1, 7)]
    fitnesses = []
    for name in versions:
        problem = fixture_problem(name)
        _, oracle_fitness = exhaustive_oracle(problem)
        assert oracle_fitness == pytest.approx(manifest[name]["oracleFitness"], abs=1e-12)
        result = run(problem, SEARCH_CONFIG)
        assert result.best_fitness == pytest.approx(oracle_fitness, abs=1e-12), name
        fitnesses.append(result.best_fitness)
    monotone = all(a <= b + 1e-12 for a, b in zip(fitnesses, fitnesses[1:]))

    final = refine_loop(load_fixture("unicorn_v6.tjs"), SEARCH_CONFIG)
    v6_problem = fixture_problem("unicorn_v6.tjs")
    best_v6, _ = exhaustive_oracle(v6_problem)
    advice_count = len(advise(v6_problem, best_v6, load_fixture("unicorn_v6.tjs")))
    ok = (monotone and fitnesses[-1] == 1.0 and final.fitness == 1.0
          and final.iterations == 0 and advice_count == 0)
    trend = " -> ".join(f"{f:.4f}" for f in fitnesses)
    report(4, "refinement trajectory", ok, f"{trend}; version 6 advice items: {advice_count}")


def test_criterion_5_auto_apply_slice_growth(manifest):
    program = load_fixture("tracker.tjs")
    problem = placement_problem(program)
    placement = Placement(fixed=dict(problem.fixed), searched={})
    moves = advise_function_moves(problem, program, incoming_counts(problem, placement))
    k = len(manifest["tracker.tjs"]["advice"]["move"])
    refined = apply_advice(program, moves)
    ok = len(moves) == k and len(refined.slices) == len(program.slices) + k
    report(5, "auto-apply slice growth", ok,
           f"{len(program.slices)} -> {len(refined.slices)} slices for k={k} move advisories")


def test_criterion_6_advice_report_golden(manifest):
    program = load_fixture("tracker.tjs")
    problem = placement_problem(program)
    placement = Placement(fixed=dict(problem.fixed), searched={})
    advices = advise(problem, placement, program)
    replicate = [a.target for a in advices if a.kind is AdviceKind.REPLICATE_DECLARATION]
    moved = [a.target for a in advices if a.kind is AdviceKind.MOVE_FUNCTION]
    rendered = render_report(evaluate(problem, placement).program, advices)
    golden = manifest["tracker.tjs"]["report"]
    ok = (set(replicate) == {"meetings", "tasks"}
          and set(moved) == {"getMeetings", "getTasks", "addMeeting", "addTask"}
          and rendered == golden)
    report(6, "advice report golden file", ok,
           f"{len(rendered.encode())} bytes, header '{rendered.splitlines()[0]}'")


def test_criterion_7_cli_determinism(tmp_path):
    runner = CliRunner()

    def invoke(*args):
        result = runner.invoke(cli_main, [str(a) for a in args])
        assert result.exit_code == 0, result.output
        return result.output

    v4 = fixture_path("unicorn_v4.tjs")
    pairs = [
        invoke("assign", v4, "--seed", 3) == invoke("assign", v4, "--seed", 3),
        invoke("oracle", v4) == invoke("oracle", v4),
        invoke("stats", v4, "--runs", 10, "--seed", 4) ==
        invoke("stats", v4, "--runs", 10, "--seed", 4),
        invoke("stats", v4, "--runs", 10, "--seed", 4, "--jobs", 3) ==
        invoke("stats", v4, "--runs", 10, "--seed", 4, "--jobs", 1),
        invoke("advise", v4, "--seed", 6) == invoke("advise", v4, "--seed", 6),
    ]
    report(7, "determinism", all(pairs),
           f"{sum(pairs)}/{len(pairs)} repeated invocations byte-identical "
           "(assign, oracle, stats serial, stats parallel-vs-serial, advise)")


def _reachable(problem, start: str) -> set:
    """`start` plus every slice reachable from it along caller -> callee edges."""
    seen, stack = {start}, [start]
    while stack:
        here = stack.pop()
        for rec in problem.calls:
            if rec.caller == here and rec.callee != SHARED and rec.callee not in seen:
                seen.add(rec.callee)
                stack.append(rec.callee)
    return seen


def _widen(placement: Placement, slices) -> Placement:
    return Placement(searched={s: Tier.BOTH if s in slices else t
                               for s, t in placement.searched.items()})


def test_criterion_8_widening_monotonicity():
    # Under the subset rule, widening slice T to Both can only help calls *into*
    # T and cannot touch calls that do not involve T; calls *from* T may turn
    # remote, so single-slice widening is monotone in fitness only when T's
    # callees are widened with it.  Caller-side counterexamples are reported,
    # not asserted.
    rng = np.random.default_rng(88)
    tried = callee_flips = untouched_changes = closure_drops = 0
    single_drops = caller_side = 0
    example = None
    for _ in range(1000):
        problem = random_flat_problem(rng)
        placement = random_full_placement(problem, rng)
        target = problem.slices[int(rng.integers(len(problem.slices)))]
        if placement.tier(target) is Tier.BOTH:
            continue
        tried += 1
        flat = Placement(searched={s: placement.tier(s) for s in problem.slices})
        widened = _widen(flat, {target})
        pairs = list(zip(classify_calls(problem, flat), classify_calls(problem, widened)))
        flips = [was.record for was, now in pairs if was.local and not now.local]
        callee_flips += sum(1 for r in flips if r.callee == target)
        untouched_changes += sum(1 for was, now in pairs if was != now
                                 and target not in (was.record.caller, was.record.callee))
        fit_before = evaluate(problem, flat).program
        fit_after = evaluate(problem, widened).program
        closure = _widen(flat, _reachable(problem, target))
        if evaluate(problem, closure).program < fit_before - 1e-12:
            closure_drops += 1
        if fit_after < fit_before - 1e-12:
            single_drops += 1
        caller_flips = [r for r in flips if r.caller == target]
        if caller_flips:
            caller_side += 1
            if example is None:
                rec = caller_flips[0]
                example = (f"widening caller {target!r} to Both flips call "
                           f"{rec.caller}->{rec.callee} local->remote "
                           f"(fitness {fit_before:.3f} -> {fit_after:.3f})")
    report(8, "widening monotonicity",
           callee_flips == 0 and untouched_changes == 0 and closure_drops == 0,
           f"{callee_flips} callee-side local->remote flips, {untouched_changes} changes "
           f"to calls not involving the widened slice, {closure_drops} fitness drops "
           f"when widening a slice with its reachable callees, in {tried} pairs; "
           f"caller-side (not promised): {single_drops} single-slice fitness drops, "
           f"{caller_side} pairs with a local->remote flip, first counterexample: {example}")
