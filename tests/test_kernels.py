from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from conftest import fixture_problem
from genprog import random_flat_problem
from tierslicer.fitness import evaluate
from tierslicer.kernels import compile_problem, eval_population
from tierslicer.model import CallRecord, PlacementProblem, Tier
from tierslicer.placement import is_valid
from tierslicer.search import genome_to_placement


def full_enumeration(n: int) -> np.ndarray:
    return np.array(list(product((1, 2, 3), repeat=n)), dtype=np.int8)


def test_kernel_equals_evaluate_exactly_on_random_problems():
    # The kernel and fitness.evaluate/is_valid apply the same rule: same
    # double for fitness (no tolerance), same validity verdict.
    rng = np.random.default_rng(11)
    for _ in range(30):
        problem = random_flat_problem(rng)
        compiled = compile_problem(problem)
        genomes = rng.integers(1, 4, size=(64, compiled.n_genes), dtype=np.int8)
        fitness, valid = eval_population(compiled, genomes)
        for genome, f, v in zip(genomes, fitness, valid):
            placement = genome_to_placement(problem, genome)
            assert f == evaluate(problem, placement).program
            assert bool(v) == is_valid(problem, placement)[0]


@pytest.mark.parametrize("name", [
    "unicorn_v2.tjs", "unicorn_v4.tjs", "relay.tjs", "meetings.tjs",
    "relay_reply.tjs", "unicorn_v3.tjs", "unicorn_v5.tjs", "unicorn_v6.tjs",
    "tracker.tjs", "unicorn_v1.tjs",  # no unplaced slice: one genome of length 0
])
def test_kernel_matches_reference_evaluation(name):
    problem = fixture_problem(name)
    compiled = compile_problem(problem)
    genomes = full_enumeration(len(problem.unplaced))
    fitness, valid = eval_population(compiled, genomes)
    for genome, f, v in zip(genomes, fitness, valid):
        report = evaluate(problem, genome_to_placement(problem, genome))
        assert f == report.program
        assert bool(v) == report.valid


def test_empty_call_table_scores_one():
    problem = PlacementProblem(slices=("a", "b"))
    compiled = compile_problem(problem)
    fitness, valid = eval_population(compiled, full_enumeration(2))
    assert (fitness == 1.0).all() and valid.all()


def test_genome_shape_is_validated():
    problem = PlacementProblem(slices=("a", "b"), calls=(CallRecord(0, "a", "b", "f"),))
    compiled = compile_problem(problem)
    with pytest.raises(ValueError):
        eval_population(compiled, np.ones((4, 3), dtype=np.int8))


def test_fixed_tiers_and_annotations_are_compiled_in():
    problem = PlacementProblem(
        slices=("srv", "x"),
        fixed={"srv": Tier.SERVER},
        calls=(CallRecord(0, "srv", "x", "f", annotated=False),),
    )
    fitness, valid = eval_population(compile_problem(problem), full_enumeration(1))
    # genomes: client, server, both -- the unannotated server call into a
    # client-only slice is the only invalid case
    np.testing.assert_array_equal(valid, [False, True, True])
    np.testing.assert_array_equal(fitness, [0.0, 1.0, 1.0])
    annotated = PlacementProblem(
        slices=("srv", "x"),
        fixed={"srv": Tier.SERVER},
        calls=(CallRecord(0, "srv", "x", "f", annotated=True),),
    )
    _, valid = eval_population(compile_problem(annotated), full_enumeration(1))
    assert valid.all()
