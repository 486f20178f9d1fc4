"""The three workloads: their inputs, the timed operation and its check.

Each workload is a closed loop in one process: one operation at a time,
``jobs=1``, no extra threads.  A round is the workload's fixed list of inputs;
a run repeats whole rounds.  The inputs come from the seed alone, and
tierslicer sees only the generated programs and placement files.

Import this module only after ``tierslicer.cli``, so that the set-up time
measured around that import is not absorbed here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from click.testing import CliRunner

import tierslicer.cli
from tierslicer import advisor, depgraph, frontend, search
from tierslicer.errors import AllInvalidError
from tierslicer.model import SHARED as PROGRAM_SHARED

from . import checks
from . import reference as ref
from .programs import layered_program, placement_json, random_placement

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "tierslicer" / "fixtures"

# analyze: slice counts of the generated programs, from above fixture scale
# up to where the quadratic front-end stages dominate.  With the ten fixtures
# below and ten larger programs above, the median operation falls among the
# five 32-slice programs, not in a gap between sizes.
ANALYZE_SLICES = (32, 32, 32, 32, 32, 36, 40, 44, 48, 52, 56, 64, 72, 96, 160)
# search: criterion 2's shape and GA configuration.
SEARCH_HELPERS = (4, 5, 6, 7, 8)
SEARCH_PROBLEMS = 20
SEARCH_RUNS = 10
GA = dict(population_size=30, max_generations=300, crossover_prob=0.6,
          mutation_prob=0.6, tournament_size=1)
MIN_VALID_FRACTION = 0.02  # criterion 2's rule for a usable problem
# oracle: 9-12 unplaced slices and at least 60 calls; as many problems below
# 11 slices as above, so the median operation falls among the 11-slice ones.
ORACLE_HELPERS = (9, 9, 10, 10, 11, 11, 11, 11, 11, 12, 12, 12, 12)
ORACLE_MIN_CALLS = 60


def _subseed(*parts) -> int:
    """A stable 63-bit seed derived from the workload seed and an index."""
    return random.Random(":".join(map(str, parts))).getrandbits(63)


def _load_problem(text: str, filename: str):
    program = frontend.resolve_calls(frontend.parse(text, filename))
    return depgraph.placement_problem(depgraph.build_pdg(program))


@dataclass
class Result:
    """What a run accumulates for its metrics."""

    op_seconds: list = field(default_factory=list)
    work: float = 0.0  # workload-specific units of completed work
    local_calls: float = 0.0  # the program's fitness answers times their calls, one round
    calls: int = 0
    hits: int = 0  # GA runs at the reference optimum, one round

    def answer(self, fitness: float, calls: int):
        self.local_calls += fitness * calls
        self.calls += calls


# --- analyze ------------------------------------------------------------------


@dataclass
class AnalyzeInput:
    name: str
    path: str
    placement_path: str
    text: str
    facts: object
    tiers: dict


class Analyze:
    """advise + split through the CLI, then apply_advice on the advice."""

    name = "analyze"
    work_unit = "source KB"

    def __init__(self, seed: int, workdir: Path, limit: int | None = None):
        self.runner = CliRunner()
        sources = [(p.name, str(p), p.read_text(encoding="utf-8"), None)
                   for p in sorted(FIXTURES.glob("*.tjs"))]
        for k, n_slices in enumerate(ANALYZE_SLICES):
            text, facts = layered_program(
                _subseed(seed, "analyze", k), n_slices - 2, funcs=(1, 2, 3),
                calls=(1, 2, 3, 4, 5), browser_calls=4 + n_slices // 4, shared=2)
            path = workdir / f"gen{n_slices:03d}-{k}.tjs"
            path.write_text(text, encoding="utf-8")
            sources.append((path.name, str(path), text, facts))
        self.inputs = []
        for k, (name, path, text, facts) in enumerate(sources[:limit]):
            facts = facts or ref.read_facts(text)
            tiers = random_placement(facts, random.Random(_subseed(seed, "placement", k)))
            placement = workdir / f"{Path(name).stem}.placement.json"
            placement.write_text(placement_json(facts, tiers), encoding="utf-8")
            self.inputs.append(AnalyzeInput(name, path, str(placement), text, facts, tiers))

    def prepare(self):
        for inp in self.inputs:
            checks.call_table(_load_problem(inp.text, inp.path).calls, inp.facts, PROGRAM_SHARED)

    def run(self, inp: AnalyzeInput, tracer):
        with tracer.span("cli.advise"):
            adv = self.runner.invoke(tierslicer.cli.main,
                                     ["advise", inp.path, "--placement", inp.placement_path, "--json"])
        with tracer.span("cli.split"):
            split = self.runner.invoke(tierslicer.cli.main,
                                       ["split", inp.path, "--placement", inp.placement_path])
        for r in (adv, split):
            if r.exception is not None and not isinstance(r.exception, SystemExit):
                raise r.exception
        report = json.loads(adv.stdout)
        replicate, move = checks.applicable_advice(report, inp.facts)
        advices = (
            [advisor.Advice(advisor.AdviceKind.REPLICATE_DECLARATION, r["name"], r["slice"],
                            dependent_functions=list(r["functions"])) for r in replicate]
            + [advisor.Advice(advisor.AdviceKind.MOVE_FUNCTION, m["name"], m["slice"],
                              local_incoming=m["localIncoming"], remote_incoming=m["remoteIncoming"])
               for m in move]
        )
        program = frontend.resolve_calls(frontend.parse(inp.text, inp.path))
        applied = advisor.apply_advice(program, advices)
        return adv, split, applied, len(move)

    def check(self, inp: AnalyzeInput, out, result: Result, first_round: bool):
        adv, split, applied, moves = out
        report = checks.advise_report(adv.exit_code, adv.stdout, inp.facts, inp.tiers)
        checks.split_listing(split.exit_code, split.stdout, split.stderr, inp.path,
                             inp.facts, inp.tiers)
        text = frontend.emit(applied)
        checks.applied_program(applied, text, frontend.emit(frontend.parse(text, inp.path)),
                               inp.facts, moves)
        if first_round:
            result.answer(report["offlineFraction"], len(inp.facts.calls))

    def work(self, inp: AnalyzeInput) -> float:
        return len(inp.text.encode("utf-8")) / 1024

    def problems(self):
        return [_load_problem(inp.text, inp.path) for inp in self.inputs]


# --- search -------------------------------------------------------------------


@dataclass
class ProblemInput:
    """A generated program, its reference optimum and, after set-up, its problem."""

    name: str
    text: str
    facts: object
    optimum: object
    rng_seed: int = 0  # GA seed of the run_many call
    problem: object = None


def _criterion2_problem(seed: int, k: int) -> ProblemInput:
    """The first generated problem at slot k that meets criterion 2's rule."""
    n = SEARCH_HELPERS[k % len(SEARCH_HELPERS)]
    for attempt in range(1000):
        text, facts = layered_program(_subseed(seed, "search", k, attempt), n)
        opt = ref.optimum(facts)
        if opt.valid / opt.space >= MIN_VALID_FRACTION:
            return ProblemInput(f"search{k}-n{n}", text, facts, opt, _subseed(seed, "ga", k))
    raise RuntimeError(f"no usable problem with {n} helpers for seed {seed}")


class Search:
    """One run_many call of SEARCH_RUNS GA runs per problem."""

    name = "search"
    work_unit = "GA runs"

    def __init__(self, seed: int, workdir: Path, limit: int | None = None):
        self.inputs = [_criterion2_problem(seed, k) for k in range(SEARCH_PROBLEMS)[:limit]]

    def prepare(self):
        for inp in self.inputs:
            inp.problem = _load_problem(inp.text, inp.name + ".tjs")
            checks.call_table(inp.problem.calls, inp.facts, PROGRAM_SHARED)

    def run(self, inp: ProblemInput, tracer):
        config = search.GaConfig(rng_seed=inp.rng_seed, **GA)
        return search.run_many(inp.problem, config, SEARCH_RUNS, jobs=1)

    def check(self, inp: ProblemInput, out, result: Result, first_round: bool):
        checks.require(len(out) == SEARCH_RUNS, f"run_many returned {len(out)} of {SEARCH_RUNS} runs")
        hits = checks.search_runs(out, inp.facts, inp.optimum)
        if first_round:
            result.hits += hits
            for r in out:
                result.answer(r.best_fitness, len(inp.facts.calls))

    def work(self, inp: ProblemInput) -> float:
        return SEARCH_RUNS

    def problems(self):
        return [inp.problem for inp in self.inputs]


# --- oracle -------------------------------------------------------------------


class Oracle:
    """One exhaustive_oracle call per problem."""

    name = "oracle"
    work_unit = "placements"

    def __init__(self, seed: int, workdir: Path, limit: int | None = None):
        self.inputs = []
        for k, n in enumerate(ORACLE_HELPERS[:limit]):
            text, facts = layered_program(_subseed(seed, "oracle", k), n, funcs=(1, 2),
                                          calls=(3, 4, 5), browser_calls=10)
            if len(facts.calls) < ORACLE_MIN_CALLS:
                raise RuntimeError(f"oracle problem {k} has only {len(facts.calls)} calls")
            self.inputs.append(ProblemInput(f"oracle{k}-n{n}", text, facts, ref.optimum(facts)))

    def prepare(self):
        for inp in self.inputs:
            inp.problem = _load_problem(inp.text, inp.name + ".tjs")
            checks.call_table(inp.problem.calls, inp.facts, PROGRAM_SHARED)

    def run(self, inp: ProblemInput, tracer):
        try:
            return search.exhaustive_oracle(inp.problem)
        except AllInvalidError:
            return None

    def check(self, inp: ProblemInput, out, result: Result, first_round: bool):
        checks.oracle_answer(out, inp.facts, inp.optimum)
        if first_round and out is not None:
            result.answer(out[1], len(inp.facts.calls))

    def work(self, inp: ProblemInput) -> float:
        return inp.optimum.space

    def problems(self):
        return [inp.problem for inp in self.inputs]


WORKLOADS = {w.name: w for w in (Analyze, Search, Oracle)}
