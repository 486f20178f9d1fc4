#!/usr/bin/env python3
"""Run the genetic search over a fixed corpus and print one line per batch.

The corpus is every bundled fixture with unplaced slices, then the
``genprog`` problems ``random_problem(0..39)``, ``random_flat_problem`` of
generator seeds 0-29, the ``wide_flat_problem`` draws in ``WIDE``, with 11,
12, 13 and 16 unplaced slices, and the ``random_problem(seed, n)`` draws in
``DENSE``, with 16, 24 and 40, all unfiltered, so some have rare valid
placements or none.  The draws of 13 slices and more lie past
``ORACLE_CAP``, where the search scores rows with ``eval_population``: the
wide draws there hold 12-27 calls, the dense draws 43-121, most of them
between two unplaced slices.  Each problem runs
one ``run_many`` batch under every configuration in ``CONFIGS``.  Each line
reads ``problem<TAB>configuration<TAB>sha256`` of the batch's
``SearchResult``s (placement, fitness, validity, generations, history and
genome, all bit for bit), or ``AllInvalidError`` where the batch raised it.
One more line per problem reads ``problem<TAB>oracle<TAB>genome fitness`` of
``exhaustive_oracle``'s answer, with the cap raised to the problem's size
(the fitness as a hex float), or ``AllInvalidError``.  So two trees can be
compared with one ``diff``::

    python3 scripts/search_corpus.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from genprog import random_flat_problem, random_problem, wide_flat_problem  # noqa: E402
from tierslicer import parse, placement_problem, resolve_calls  # noqa: E402
from tierslicer.depgraph import build_pdg  # noqa: E402
from tierslicer.errors import AllInvalidError  # noqa: E402
from tierslicer.search import GaConfig, exhaustive_oracle, run_many  # noqa: E402

FIXTURES = ROOT / "src" / "tierslicer" / "fixtures"
RUNS = 4
# (generator seed, unplaced slices) of the wide_flat_problem draws.
WIDE = ((9, 11), (12, 11), (20, 11), (11, 12), (12, 12), (21, 12),
        (4, 13), (8, 13), (12, 16), (19, 16))
# (generator seed, helper slices) of the random_problem draws past the cap.
DENSE = ((0, 16), (1, 24), (2, 40), (3, 16), (4, 24), (5, 40))

# The default and criterion 2's configuration, early stops, the smallest
# population, no mutation, no crossover, a single generation, and an odd
# population with a budget that is no multiple of the draws' block.
CONFIGS = {
    "default": GaConfig(),
    "criterion2": GaConfig(tournament_size=1, rng_seed=1000),
    "early": GaConfig(population_size=7, tournament_size=3, max_generations=50, rng_seed=5),
    "pop2": GaConfig(population_size=2, tournament_size=2, max_generations=100, rng_seed=11),
    "no-mutation": GaConfig(mutation_prob=0.0, rng_seed=21),
    "no-crossover": GaConfig(crossover_prob=0.0, rng_seed=31),
    "one-generation": GaConfig(max_generations=1, rng_seed=41),
    "pop31": GaConfig(population_size=31, tournament_size=1, max_generations=37, rng_seed=51),
}


def problems():
    """(label, PlacementProblem), fixtures first."""
    for path in sorted(FIXTURES.glob("*.tjs")):
        problem = placement_problem(build_pdg(resolve_calls(parse(path.read_text(), path.name))))
        if problem.unplaced:
            yield path.name, problem
    for seed in range(40):
        yield f"random_problem({seed})", random_problem(seed)
    for seed in range(30):
        yield f"random_flat_problem({seed})", random_flat_problem(np.random.default_rng(seed))
    for seed, n in WIDE:
        yield f"wide_flat_problem({seed}, {n})", wide_flat_problem(seed, n)
    for seed, n in DENSE:
        yield f"random_problem({seed}, {n})", random_problem(seed, n)


def digest(problem, config) -> str:
    """The sha256 of a batch's results, or the error it raised."""
    try:
        results = run_many(problem, config, RUNS)
    except AllInvalidError:
        return "AllInvalidError"
    h = hashlib.sha256()
    for r in results:
        tiers = [r.best_placement.tier(s).value for s in problem.slices]
        h.update(repr((tiers, r.best_fitness.hex(), r.best_valid, r.generations_used,
                       str(r.best_genome.dtype))).encode())
        h.update(np.asarray(r.history, dtype=np.float64).tobytes())
        h.update(r.best_genome.tobytes())
    return h.hexdigest()


def oracle_answer(problem) -> str:
    """The oracle's genome and fitness, or the error it raised."""
    try:
        placement, fitness = exhaustive_oracle(problem, len(problem.unplaced))
    except AllInvalidError:
        return "AllInvalidError"
    return f"{[placement.tier(s).mask for s in problem.unplaced]} {fitness.hex()}"


def main() -> None:
    for label, problem in problems():
        for name, config in CONFIGS.items():
            print(f"{label}\t{name}\t{digest(problem, config)}", flush=True)
        print(f"{label}\toracle\t{oracle_answer(problem)}", flush=True)


if __name__ == "__main__":
    main()
