from __future__ import annotations

import numpy as np
import pytest

from conftest import fixture_problem
from tierslicer.errors import AllInvalidError, TooManySlicesError
from tierslicer.kernels import compile_problem
from tierslicer.model import CallRecord, PlacementProblem, Tier
from tierslicer.search import (
    GaConfig,
    _next_generation,
    _ranking,
    exhaustive_oracle,
    genome_to_placement,
    placement_to_genome,
    run,
    run_many,
    seed_population,
)


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(crossover_prob=1.5)
    with pytest.raises(ValueError):
        GaConfig(population_size=1)
    with pytest.raises(ValueError):
        GaConfig(tournament_size=0)
    with pytest.raises(ValueError):
        GaConfig(tournament_size=31)


def test_seed_population_shape_and_alphabet():
    rng = np.random.default_rng(42)
    pop = seed_population(GaConfig(), 4, rng)
    assert pop.shape == (30, 4)
    assert set(np.unique(pop)) <= {1, 2, 3}
    again = seed_population(GaConfig(), 4, np.random.default_rng(42))
    np.testing.assert_array_equal(pop, again)


def breed(pop, fitness, valid, seed=0, **config):
    """One batched generation over a call-free problem, ranked as run() ranks."""
    pop = np.asarray(pop, dtype=np.int8)
    problem = PlacementProblem(slices=tuple(f"s{i}" for i in range(pop.shape[1])))
    config = GaConfig(population_size=len(pop), **config)
    pool = np.flatnonzero(valid)
    rank = _ranking(pop[pool], np.asarray(fitness, dtype=float)[pool])
    new_pop, _, _ = _next_generation(compile_problem(problem), pop, pool, rank,
                                     config, np.random.default_rng(seed))
    assert new_pop.shape == pop.shape
    return new_pop


def test_mutate_rewrites_exactly_one_position():
    genome = [1, 2, 3, 1, 2]
    for seed in range(5):
        children = breed([genome] * 30, [1.0] * 30, [True] * 30, seed,
                         crossover_prob=0.0, mutation_prob=1.0)
        np.testing.assert_array_equal(children[0], genome)  # the elite
        changed = (children[1:] != genome).sum(axis=1)
        assert (changed <= 1).all()  # the new value may equal the old
        assert changed.any()
        assert set(np.unique(children)) <= {1, 2, 3}
    single = breed([[2]] * 4, [1.0] * 4, [True] * 4, crossover_prob=0.0, mutation_prob=1.0)
    assert set(np.unique(single)) <= {1, 2, 3}


def test_crossover_is_a_positionwise_swap():
    a, b = [1, 1, 1, 1], [2, 2, 2, 2]
    children = breed([a, b] * 15, [1.0] * 30, [True] * 30, seed=5, tournament_size=1,
                     crossover_prob=1.0, mutation_prob=0.0)
    # rows 1, 2 | 3, 4 | ... are sibling pairs (row 0 is the elite); each
    # column of a pair holds its parents' two values, swapped or not
    pairs = children[1:29].reshape(14, 2, 4)
    assert set(np.unique(children)) <= {1, 2}
    column_sums = pairs.sum(axis=1)
    assert (column_sums == column_sums[:, :1]).all()
    assert any(len(set(child)) > 1 for child in children[1:])  # some column swapped
    same = breed([a] * 30, [1.0] * 30, [True] * 30, crossover_prob=1.0, mutation_prob=0.0)
    assert (same == a).all()


def test_tournament_ignores_invalid_individuals():
    pop = [[1], [2], [3]] * 10
    fitness = [0.2, 0.9, 0.5] * 10
    valid = [True, False, True] * 10
    # a tournament as large as the population: every valid genome competes
    children = breed(pop, fitness, valid, seed=1, tournament_size=30,
                     crossover_prob=0.0, mutation_prob=0.0)
    assert (children == 3).all()  # 0.9 is invalid, 0.5 beats 0.2


def test_tournament_tie_breaks_toward_lexicographically_lower_genome():
    pop = [[3, 1], [1, 2], [2, 1]] * 10
    children = breed(pop, [0.5] * 30, [True] * 30, seed=2, tournament_size=30,
                     crossover_prob=0.0, mutation_prob=0.0)
    assert (children == [1, 2]).all()


def test_genome_placement_round_trip():
    problem = fixture_problem("unicorn_v4.tjs")
    genome = np.array([1, 3, 2], dtype=np.int8)
    placement = genome_to_placement(problem, genome)
    assert placement.tier("query") is Tier.CLIENT
    assert placement.tier("entry") is Tier.BOTH
    assert placement.tier("revise") is Tier.SERVER
    np.testing.assert_array_equal(placement_to_genome(problem, placement), genome)


def test_run_is_deterministic():
    problem = fixture_problem("unicorn_v4.tjs")
    config = GaConfig(rng_seed=9)
    a, b = run(problem, config), run(problem, config)
    assert a.best_fitness == b.best_fitness
    assert a.generations_used == b.generations_used
    assert a.history == b.history
    np.testing.assert_array_equal(a.best_genome, b.best_genome)


def test_run_finds_perfect_fitness_and_stops_early():
    result = run(fixture_problem("meetings.tjs"), GaConfig(rng_seed=0))
    assert result.best_fitness == 1.0 and result.best_valid
    assert 1 <= result.generations_used < 300
    assert result.history[-1] == 1.0


def test_run_with_no_unplaced_slices_degenerates(manifest):
    result = run(fixture_problem("tracker.tjs"), GaConfig(rng_seed=0))
    assert result.generations_used == 0
    assert result.best_fitness == pytest.approx(manifest["tracker.tjs"]["oracleFitness"])
    assert result.best_placement.searched == {}


def test_run_returns_valid_best_when_valid_placements_exist():
    problem = fixture_problem("relay.tjs")
    for seed in range(5):
        result = run(problem, GaConfig(rng_seed=seed))
        assert result.best_valid


def test_run_raises_when_every_placement_is_invalid():
    problem = PlacementProblem(
        slices=("srv", "cli", "x"),
        fixed={"srv": Tier.SERVER, "cli": Tier.CLIENT},
        calls=(CallRecord(0, "srv", "cli", "f"),),
    )
    with pytest.raises(AllInvalidError):
        run(problem, GaConfig(rng_seed=0))
    with pytest.raises(AllInvalidError):
        exhaustive_oracle(problem)


def test_oracle_enumerates_the_whole_space(manifest):
    problem = fixture_problem("unicorn_v2.tjs")
    assert len(problem.unplaced) == 2  # 3^2 = 9 placements
    placement, fitness = exhaustive_oracle(problem)
    entry = manifest["unicorn_v2.tjs"]
    assert fitness == pytest.approx(entry["oracleFitness"])
    assert {s: placement.tier(s).value for s in problem.unplaced} == entry["oraclePlacement"]


def test_oracle_cap():
    problem = fixture_problem("unicorn_v6.tjs")
    with pytest.raises(TooManySlicesError):
        exhaustive_oracle(problem, cap=3)


def test_oracle_tie_breaks_toward_lexicographically_first_genome():
    # two slices, no calls: every placement scores 1.0; all-client wins ties
    problem = PlacementProblem(slices=("a", "b"))
    placement, fitness = exhaustive_oracle(problem)
    assert fitness == 1.0
    assert placement.tier("a") is Tier.CLIENT and placement.tier("b") is Tier.CLIENT


def test_ga_never_beats_the_oracle(manifest):
    for name in ("unicorn_v2.tjs", "unicorn_v3.tjs", "unicorn_v4.tjs", "unicorn_v5.tjs"):
        problem = fixture_problem(name)
        oracle_fitness = manifest[name]["oracleFitness"]
        for result in run_many(problem, GaConfig(rng_seed=100), runs=20):
            assert result.best_fitness <= oracle_fitness + 1e-12


def test_run_many_is_parallel_safe():
    problem = fixture_problem("unicorn_v4.tjs")
    config = GaConfig(rng_seed=7)
    serial = run_many(problem, config, runs=6, jobs=1)
    parallel = run_many(problem, config, runs=6, jobs=3)
    for a, b in zip(serial, parallel):
        assert a.best_fitness == b.best_fitness
        assert a.generations_used == b.generations_used
        np.testing.assert_array_equal(a.best_genome, b.best_genome)
