"""Genetic search over tier placements, plus an exhaustive oracle.

Individuals are tier-mask genomes over the unplaced slices.  Each generation
is bred in one batch by ``_next_generation``: tournament selection over the
valid subset only (fitness ties go to the lexicographically lower genome),
uniform crossover of each parent pair, and mutation that rewrites one
position per child.  Invalid individuals stay in the population (they may
mutate back to validity) but never parent.  Replacement is generational with
1-elitism on the best valid individual.  The search stops at the first valid
individual with fitness 1.0 or after the generation budget.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import AllInvalidError, TooManySlicesError
from .fitness import evaluate
from .kernels import compile_problem, eval_population
from .model import TIER_FROM_MASK, PlacementProblem
from .placement import Placement

_SEED_RETRIES = 10
_ORACLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 30
    max_generations: int = 300
    crossover_prob: float = 0.6
    mutation_prob: float = 0.6
    tournament_size: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.crossover_prob <= 1.0 or not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if self.population_size < 2:
            raise ValueError("population size must be >= 2")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament size must be in [1, population size]")


@dataclass
class SearchResult:
    best_placement: Placement
    best_fitness: float
    best_valid: bool
    generations_used: int
    history: list = field(default_factory=list)  # best fitness per generation
    best_genome: np.ndarray | None = None


def genome_to_placement(problem: PlacementProblem, genome) -> Placement:
    searched = {
        name: TIER_FROM_MASK[int(mask)]
        for name, mask in zip(problem.unplaced, genome)
    }
    return Placement(fixed=dict(problem.fixed), searched=searched)


def placement_to_genome(problem: PlacementProblem, placement: Placement) -> np.ndarray:
    return np.array([placement.tier(s).mask for s in problem.unplaced], dtype=np.int8)


# --- Operators --------------------------------------------------------------


def seed_population(config: GaConfig, n_genes: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random tier masks, one row per individual."""
    if n_genes < 1:
        raise ValueError("no genes to seed")
    return rng.integers(1, 4, size=(config.population_size, n_genes), dtype=np.int8)


def _ranking(genomes: np.ndarray, fitness: np.ndarray) -> np.ndarray:
    """rank[i] = position of individual i under (fitness desc, genome lex asc)."""
    keys = tuple(genomes[:, i] for i in reversed(range(genomes.shape[1]))) + (-fitness,)
    order = np.lexsort(keys)
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


def run(problem: PlacementProblem, config: GaConfig) -> SearchResult:
    """Full genetic search; degenerates gracefully with zero unplaced slices."""
    n = len(problem.unplaced)
    if n == 0:
        placement = Placement(fixed=dict(problem.fixed), searched={})
        report = evaluate(problem, placement)
        return SearchResult(placement, report.program, report.valid, 0, [],
                            np.zeros(0, dtype=np.int8))

    compiled = compile_problem(problem)
    rng = np.random.default_rng(config.rng_seed)

    for _ in range(_SEED_RETRIES):
        pop = seed_population(config, n, rng)
        fitness, valid = eval_population(compiled, pop)
        if valid.any():
            break
    else:
        raise AllInvalidError(
            f"no valid individual after {_SEED_RETRIES} seedings "
            f"(population {config.population_size}, {n} unplaced slices)"
        )

    history = []
    generation = 1
    while True:
        # Never empty: the seeding ensures a valid row and elitism keeps one.
        pool = np.flatnonzero(valid)
        rank = _ranking(pop[pool], fitness[pool])
        best = int(pool[np.argmin(rank)])
        history.append(float(fitness[best]))
        if fitness[best] == 1.0 or generation >= config.max_generations:
            return SearchResult(
                best_placement=genome_to_placement(problem, pop[best]),
                best_fitness=float(fitness[best]),
                best_valid=True,
                generations_used=generation,
                history=history,
                best_genome=pop[best].copy(),
            )
        pop, fitness, valid = _next_generation(compiled, pop, pool, rank, config, rng)
        generation += 1


def _next_generation(compiled, pop, pool, rank, config, rng):
    """Breed and evaluate the next population from the valid rows ``pool`` and
    their ``_ranking``: the best of them (the elite) first, then children of
    tournament winners, crossed pairwise and mutated at one position each."""
    P, n = pop.shape
    elite = pop[pool[np.argmin(rank)]]
    n_pairs = P // 2  # enough pairs for the P - 1 children

    draws = rng.integers(0, len(pool), size=(2 * n_pairs, config.tournament_size))
    winners = draws[np.arange(2 * n_pairs), np.argmin(rank[draws], axis=1)]
    parents = pop[pool[winners]]

    p1, p2 = parents[0::2], parents[1::2]
    do_cross = rng.random(n_pairs) < config.crossover_prob
    swap = rng.integers(0, 2, size=(n_pairs, n)).astype(bool) & do_cross[:, None]
    children = np.empty((2 * n_pairs, n), dtype=np.int8)
    children[0::2] = np.where(swap, p2, p1)
    children[1::2] = np.where(swap, p1, p2)

    do_mut = rng.random(2 * n_pairs) < config.mutation_prob
    pos = rng.integers(0, n, size=2 * n_pairs)
    val = rng.integers(1, 4, size=2 * n_pairs).astype(np.int8)
    rows = np.flatnonzero(do_mut)
    children[rows, pos[rows]] = val[rows]

    new_pop = np.vstack([elite[None, :], children[:P - 1]])
    new_fit, new_valid = eval_population(compiled, new_pop)
    return new_pop, new_fit, new_valid


# --- Exhaustive oracle ----------------------------------------------------


def exhaustive_oracle(problem: PlacementProblem, cap: int = 12):
    """Enumerate all 3^n searched placements; argmax fitness over valid ones.

    Ties break toward the genome-lexicographically smallest placement.
    Returns (best Placement, best fitness).
    """
    n = len(problem.unplaced)
    if n > cap:
        raise TooManySlicesError(f"{n} unplaced slices exceed the oracle cap {cap}")
    if n == 0:
        placement = Placement(fixed=dict(problem.fixed), searched={})
        return placement, evaluate(problem, placement).program

    compiled = compile_problem(problem)
    total = 3**n
    weights = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best_fit = -1.0
    best_genome = None
    for start in range(0, total, _ORACLE_CHUNK):
        idx = np.arange(start, min(start + _ORACLE_CHUNK, total), dtype=np.int64)
        genomes = ((idx[:, None] // weights) % 3 + 1).astype(np.int8)
        fitness, valid = eval_population(compiled, genomes)
        fitness = np.where(valid, fitness, -1.0)
        i = int(np.argmax(fitness))  # first max = lexicographically smallest
        if fitness[i] > best_fit:
            best_fit = float(fitness[i])
            best_genome = genomes[i].copy()
    if best_genome is None or best_fit < 0.0:
        raise AllInvalidError("every searched placement is invalid")
    return genome_to_placement(problem, best_genome), best_fit


# --- Multi-run harness ----------------------------------------------------


def _run_with_seed(args):
    problem, config, seed = args
    return run(problem, replace(config, rng_seed=seed))


def run_many(problem: PlacementProblem, config: GaConfig, runs: int, jobs: int = 1):
    """N independent searches with derived seeds (base + i), in seed order.

    Results are bit-identical regardless of the worker count because every
    run owns its seed and the output order is fixed.
    """
    tasks = [(problem, config, config.rng_seed + i) for i in range(runs)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_with_seed, tasks))
    return [_run_with_seed(t) for t in tasks]
