"""Tests of the benchmark's reference and checks.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from perfbench import checks, spans
from perfbench import reference as ref
from perfbench.programs import SHARED, Call, Facts, layered_program, placement_json, random_placement

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "tierslicer" / "fixtures"


def fixture_facts(name):
    return ref.read_facts((FIXTURES / name).read_text(encoding="utf-8"))


# --- The reference against hand-derived facts ------------------------------------


def test_classification_truth_table():
    # caller tiers -> callee tiers: local iff subset; the missing tiers give the hop
    want = {
        ("client", "client"): (True, None),
        ("client", "server"): (False, ref.CLIENT_TO_SERVER),
        ("client", "both"): (True, None),
        ("server", "client"): (False, ref.SERVER_TO_CLIENT),
        ("server", "server"): (True, None),
        ("server", "both"): (True, None),
        ("both", "client"): (False, ref.SERVER_TO_CLIENT),
        ("both", "server"): (False, ref.CLIENT_TO_SERVER),
        ("both", "both"): (True, None),
    }
    for (a, b), expected in want.items():
        assert ref.classify(Call("a", "b", "f", False, 1, 1), {"a": a, "b": b}) == expected
        assert ref.classify(Call("a", SHARED, "f", False, 1, 1), {"a": a}) == (True, None)


def test_relay_has_nine_invalid_placements_without_reply():
    # gateway (server) calls render in view without @reply: every placement
    # with view = client is invalid, 9 of the 27.
    opt = ref.optimum(fixture_facts("relay.tjs"))
    assert (opt.space, opt.valid) == (27, 18)
    assert ref.optimum(fixture_facts("relay_reply.tjs")).valid == 27


def test_meetings_optimum_is_one_with_the_smallest_placement():
    opt = ref.optimum(fixture_facts("meetings.tjs"))
    assert opt.fraction == 1
    # data has no calls, so every tier ties; the tie goes to client
    assert opt.tiers == {"browser": "client", "data": "client", "sorting": "client",
                         "statistics": "client"}


def test_tracker_scores_one_call_in_ten():
    facts = fixture_facts("tracker.tjs")
    assert ref.score(facts.calls, facts.fixed).fraction == Fraction(1, 10)


def test_percent_rounds_half_either_way_only_at_an_exact_half():
    assert ref.percents(Fraction(1, 8)) == {12, 13}
    assert ref.percents(Fraction(1, 3)) == {33}
    assert ref.percents(Fraction(2, 3)) == {67}


@pytest.mark.parametrize("seed", range(6))
def test_optimum_matches_brute_force(seed):
    _, facts = layered_program(seed, 4 + seed % 3)
    opt = ref.optimum(facts)
    best = None
    valid = 0
    for choice in itertools.product(ref.ORDER, repeat=len(facts.unplaced)):
        tiers = {**facts.fixed, **dict(zip(facts.unplaced, choice))}
        s = ref.score(facts.calls, tiers)
        if s.valid:
            valid += 1
            if best is None or s.local > best[0]:
                best = (s.local, tiers)
    assert opt.valid == valid
    if best is None:
        assert opt.local is None
    else:
        assert (opt.local, opt.tiers) == best


@pytest.mark.parametrize("seed,helpers", [(0, 3), (1, 8), (2, 30)])
def test_reader_agrees_with_generator(seed, helpers):
    text, facts = layered_program(seed, helpers, funcs=(1, 2, 3), shared=2)
    assert ref.read_facts(text) == facts


def test_generator_is_seeded():
    assert layered_program(5, 10) == layered_program(5, 10)
    assert layered_program(5, 10)[0] != layered_program(6, 10)[0]
    # the same size for every seed, only the wiring changes
    assert len(layered_program(5, 10)[1].calls) - len(layered_program(6, 10)[1].calls) in range(-3, 4)


# --- The checks on the program's real answers, and on planted wrong ones --------------


def load_problem(text, name="t.tjs"):
    from tierslicer import build_pdg, parse, placement_problem, resolve_calls

    return placement_problem(build_pdg(resolve_calls(parse(text, name))))


def test_call_table_check_fails_on_a_dropped_record():
    from tierslicer.model import SHARED as PROGRAM_SHARED

    text, facts = layered_program(3, 6, shared=1)
    records = load_problem(text).calls
    checks.call_table(records, facts, PROGRAM_SHARED)
    with pytest.raises(checks.CheckFailed):
        checks.call_table(records[1:], facts, PROGRAM_SHARED)
    flipped = dataclasses.replace(records[0], annotated=not records[0].annotated)
    with pytest.raises(checks.CheckFailed):
        checks.call_table((flipped,) + records[1:], facts, PROGRAM_SHARED)


def search_problem(seed=0):
    for s in itertools.count(seed):
        text, facts = layered_program(s, 5)
        opt = ref.optimum(facts)
        if opt.valid / opt.space >= 0.02:
            return text, facts, opt


def test_search_check_fails_on_fitness_off_by_one_call():
    from tierslicer.search import GaConfig, run_many

    text, facts, opt = search_problem()
    results = run_many(load_problem(text), GaConfig(tournament_size=1, max_generations=50), 3)
    checks.search_runs(results, facts, opt)
    bad = dataclasses.replace(results[0], best_fitness=results[0].best_fitness + 1 / len(facts.calls))
    with pytest.raises(checks.CheckFailed):
        checks.search_runs([bad] + results[1:], facts, opt)


def test_search_check_fails_above_the_optimum_and_on_changed_config():
    from tierslicer.model import Tier
    from tierslicer.placement import Placement

    _, facts, opt = search_problem()
    worse = ref.Optimum(opt.local - 1, opt.total, opt.tiers, opt.valid, opt.space)
    placement = Placement({k: Tier(v) for k, v in facts.fixed.items()},
                          {k: Tier(opt.tiers[k]) for k in facts.unplaced})
    run = SimpleNamespace(best_valid=True, best_placement=placement,
                          best_fitness=float(opt.fraction))
    assert checks.search_runs([run], facts, opt) == 1
    with pytest.raises(checks.CheckFailed):
        checks.search_runs([run], facts, worse)
    moved = Placement({"browser": Tier.SERVER, "store": Tier.SERVER}, placement.searched)
    with pytest.raises(checks.CheckFailed):
        checks.search_runs([SimpleNamespace(**{**vars(run), "best_placement": moved})], facts, opt)


def test_oracle_check_fails_on_a_non_minimal_tie_break():
    from tierslicer import exhaustive_oracle
    from tierslicer.model import Tier
    from tierslicer.placement import Placement

    text = (FIXTURES / "meetings.tjs").read_text(encoding="utf-8")
    facts = ref.read_facts(text)
    opt = ref.optimum(facts)
    answer = exhaustive_oracle(load_problem(text))
    checks.oracle_answer(answer, facts, opt)
    placement, fitness = answer
    tie = Placement(placement.fixed, {**placement.searched, "data": Tier.SERVER})
    assert ref.score(facts.calls, {k: v.value for k, v in {**tie.fixed, **tie.searched}.items()}).local == opt.local
    with pytest.raises(checks.CheckFailed):
        checks.oracle_answer((tie, fitness), facts, opt)
    with pytest.raises(checks.CheckFailed):
        checks.oracle_answer(None, facts, opt)


def test_oracle_check_wants_the_failure_verdict_when_nothing_is_valid():
    calls = (Call("s", "c", "f", False, 1, 1),)
    facts = Facts(slices=("s", "c", "x"), fixed={"s": "server", "c": "client"}, calls=calls)
    opt = ref.optimum(facts)
    assert opt.local is None
    checks.oracle_answer(None, facts, opt)
    with pytest.raises(checks.CheckFailed):
        checks.oracle_answer((SimpleNamespace(fixed={}, searched={}), 0.0), facts, opt)


def cli(tmp_path, name, tiers_for):
    from tierslicer.cli import main

    path = FIXTURES / name
    facts = ref.read_facts(path.read_text(encoding="utf-8"))
    tiers = tiers_for(facts)
    placement = tmp_path / "p.json"
    placement.write_text(placement_json(facts, tiers), encoding="utf-8")
    runner = CliRunner()
    adv = runner.invoke(main, ["advise", str(path), "--placement", str(placement), "--json"])
    split = runner.invoke(main, ["split", str(path), "--placement", str(placement)])
    return facts, tiers, adv, split, str(path)


def test_advise_check_fails_on_wrong_percent_or_advice(tmp_path):
    facts, tiers, adv, _, _ = cli(tmp_path, "tracker.tjs", lambda f: dict(f.fixed))
    checks.advise_report(adv.exit_code, adv.stdout, facts, tiers)
    report = json.loads(adv.stdout)
    for planted in (
        {**report, "offlinePercent": report["offlinePercent"] + 1},
        {**report, "offlineFraction": report["offlineFraction"] + 0.1},
        {**report, "move": report["move"][1:]},
        {**report, "move": [{**report["move"][0], "remoteIncoming": 0}] + report["move"][1:]},
        {**report, "replicate": report["replicate"][:-1]},
    ):
        with pytest.raises(checks.CheckFailed):
            checks.advise_report(0, json.dumps(planted), facts, tiers)


def test_split_check_fails_on_wrong_verdict_or_listing(tmp_path):
    # valid: unicorn_v2 with query and mutate on the client
    facts, tiers, _, split, path = cli(
        tmp_path, "unicorn_v2.tjs", lambda f: {**f.fixed, "query": "client", "mutate": "client"})
    checks.split_listing(split.exit_code, split.stdout, split.stderr, path, facts, tiers)
    lines = split.stdout.splitlines()
    with pytest.raises(checks.CheckFailed):
        checks.split_listing(3, "", "invalid placement:\n", path, facts, tiers)
    with pytest.raises(checks.CheckFailed):
        checks.split_listing(0, "\n".join(lines[:-1]) + "\n", "", path, facts, tiers)
    # invalid: relay with view on the client
    facts, tiers, _, split, path = cli(
        tmp_path, "relay.tjs", lambda f: {**f.fixed, "view": "client", "cache": "client",
                                          "audit": "client"})
    assert split.exit_code == 3
    checks.split_listing(split.exit_code, split.stdout, split.stderr, path, facts, tiers)
    with pytest.raises(checks.CheckFailed):
        checks.split_listing(0, split.stderr, "", path, facts, tiers)
    with pytest.raises(checks.CheckFailed):
        checks.split_listing(3, "", "invalid placement:\n", path, facts, tiers)


def test_apply_check_fails_when_a_call_site_is_lost():
    from tierslicer import apply_advice, emit, parse, resolve_calls
    from tierslicer.advisor import Advice, AdviceKind

    text = (FIXTURES / "tracker.tjs").read_text(encoding="utf-8")
    facts = ref.read_facts(text)
    applied = apply_advice(resolve_calls(parse(text, "t.tjs")),
                           [Advice(AdviceKind.MOVE_FUNCTION, "getMeetings", "data")])
    out = emit(applied)
    checks.applied_program(applied, out, emit(parse(out, "t.tjs")), facts, 1)
    with pytest.raises(checks.CheckFailed):
        checks.applied_program(applied, out, out + " ", facts, 1)
    fewer = resolve_calls(parse(out.replace("getMeetings(day);", "1;", 1), "t.tjs"))
    with pytest.raises(checks.CheckFailed):
        checks.applied_program(fewer, out, out, facts, 1)


def test_local_variable_advice_is_kept_out_of_the_write_path(tmp_path):
    # query on the server makes advise name the function-local `rows`
    facts, tiers, adv, _, _ = cli(
        tmp_path, "unicorn_v2.tjs", lambda f: {**f.fixed, "query": "server", "mutate": "client"})
    report = checks.advise_report(adv.exit_code, adv.stdout, facts, tiers)
    assert "rows" in {r["name"] for r in report["replicate"]}
    replicate, _ = checks.applicable_advice(report, facts)
    assert {r["name"] for r in replicate} == {"meetings"}


def test_checks_pass_on_random_placements_of_generated_programs(tmp_path):
    from tierslicer.cli import main

    runner = CliRunner()
    for seed in range(4):
        text, facts = layered_program(seed, 5, shared=1)
        tiers = random_placement(facts, random.Random(seed))
        src, placement = tmp_path / f"g{seed}.tjs", tmp_path / f"g{seed}.json"
        src.write_text(text, encoding="utf-8")
        placement.write_text(placement_json(facts, tiers), encoding="utf-8")
        adv = runner.invoke(main, ["advise", str(src), "--placement", str(placement), "--json"])
        split = runner.invoke(main, ["split", str(src), "--placement", str(placement)])
        checks.advise_report(adv.exit_code, adv.stdout, facts, tiers)
        checks.split_listing(split.exit_code, split.stdout, split.stderr, str(src), facts, tiers)


# --- Spans and metrics ----------------------------------------------------------------


def test_layer_metrics_self_time_and_cli_overhead():
    # op 0..10 > cli.advise 0..8 > parse 1..3, placement_problem 3..4 and 5..6
    recorded = [
        [0, "analyze.op", None, 1, 0.0, 10.0, {}],
        [1, "cli.advise", 0, 1, 0.0, 8.0, {}],
        [2, "frontend.parse", 1, 1, 1.0, 3.0, {"bytes": 2048}],
        [3, "depgraph.placement_problem", 1, 1, 3.0, 4.0, {"calls": 10}],
        [4, "depgraph.placement_problem", 1, 1, 5.0, 6.0, {"calls": 10}],
    ]
    m = spans.layer_metrics(recorded, n_ops=2)
    assert m["frontend.parse_s"] == 1.0
    assert m["depgraph.placement_problem_s"] == 1.0
    assert m["cli.advise_s"] == 4.0
    assert m["frontend.source_kb"] == 1.0
    assert m["depgraph.call_records"] == 10
    # 8 s job, minus one parse (2 s) and one placement_problem (1 s)
    assert m["cli.overhead_s"] == 2.5


def test_tracer_records_nested_spans_and_restores_functions():
    import tierslicer
    from tierslicer import depgraph, frontend

    tracer = spans.Tracer()
    original = frontend.parse
    text = (FIXTURES / "meetings.tjs").read_text(encoding="utf-8")
    with tracer.instrumented():
        assert tierslicer.parse is not original
        tracer.active = True
        with tracer.span("op"):
            depgraph.placement_problem(depgraph.build_pdg(
                frontend.resolve_calls(tierslicer.parse(text, "m.tjs"))))
        tracer.active = False
    assert frontend.parse is original and tierslicer.parse is original
    names = [s[1] for s in tracer.spans]
    assert names == ["op", "frontend.parse", "frontend.resolve_calls", "depgraph.build_pdg",
                     "depgraph.placement_problem"]
    assert all(s[2] == 0 for s in tracer.spans[1:])


def test_metric_names_match_benchmark_json():
    from perfbench.run import END_TO_END_UNITS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
