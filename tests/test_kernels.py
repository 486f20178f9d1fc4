from __future__ import annotations

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fixture_problem
from genprog import (fan_out_problem, gene_order_scores, random_flat_problem, random_problem,
                     rule_counts)
from tierslicer.fitness import evaluate
from tierslicer.kernels import build_scores, compile_problem, eval_population
from tierslicer.model import ORACLE_CAP, SHARED, CallRecord, Direction, PlacementProblem, Tier
from tierslicer.placement import classify_calls, is_valid
from tierslicer.search import genome_to_placement, optimum


def full_enumeration(n: int) -> np.ndarray:
    return np.array(list(product((1, 2, 3), repeat=n)), dtype=np.int8)


def assert_rows_equal_evaluate(problem, genomes):
    """eval_population's fitness double and verdict on each row are
    evaluate's and is_valid's; returns the verdicts."""
    fitness, valid = eval_population(compile_problem(problem), genomes)
    for genome, f, v in zip(genomes, fitness, valid):
        placement = genome_to_placement(problem, genome)
        assert f == evaluate(problem, placement).program
        assert bool(v) == is_valid(problem, placement)[0]
    return valid


def test_kernel_equals_evaluate_exactly_on_random_problems():
    # fitness.evaluate and is_valid read the kernel's rule through
    # classify_calls, so this checks their aggregation against
    # eval_population's: same double for fitness (no tolerance), same verdict.
    rng = np.random.default_rng(11)
    for _ in range(30):
        problem = random_flat_problem(rng)
        genomes = rng.integers(1, 4, size=(64, len(problem.unplaced)), dtype=np.int8)
        assert_rows_equal_evaluate(problem, genomes)
    # Past the cap: layered problems of 16-40 genes and 37-126 calls, many of
    # them between two genes; random rows, and the optimum so that valid rows
    # show too.
    rng = np.random.default_rng(12)
    valid = []
    for seed in range(4):
        for n in (16, 24, 40):
            problem = random_problem(seed, n)
            genomes = rng.integers(1, 4, size=(64, n), dtype=np.int8)
            genomes[0] = optimum(problem)[1]
            valid.extend(assert_rows_equal_evaluate(problem, genomes))
    assert any(valid) and not all(valid)
    # fan_out_problem(46_341)'s scores run down to -(46_342 * 46_341), past
    # the int32 range, and ten idle genes put it past the cap.  Rows: all
    # client; g0 on the server and the rest on the client, the lowest score;
    # g0 on both, every call remote and half of them violating; g1 on both
    # and g2 on the server, half the calls local and none violating.
    fan_out = fan_out_problem(46_341)
    problem = replace(fan_out, slices=fan_out.slices + tuple(f"idle{i}" for i in range(10)))
    assert len(problem.unplaced) > ORACLE_CAP
    genomes = rng.integers(1, 4, size=(4, 13), dtype=np.int8)
    genomes[:, :3] = [[1, 1, 1], [2, 1, 1], [3, 1, 2], [1, 3, 2]]
    valid = assert_rows_equal_evaluate(problem, genomes)
    np.testing.assert_array_equal(valid, [True, False, False, True])


@settings(max_examples=40, deadline=None)
@given(layered=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pure_python_rule_equals_the_kernel_on_every_genome(layered, seed):
    # classify_calls and evaluate apply call_rule call by call in Python; the
    # kernel sums it into pair terms.  On every genome of a small unfiltered
    # problem the kernel's score must be the local call count less
    # n_calls + 1 per violating call, as classify_calls labels them, each
    # remote call must point toward its callee's tier, and validity and the
    # fitness double must agree.
    problem = random_problem(seed) if layered else random_flat_problem(np.random.default_rng(seed))
    assume(len(problem.unplaced) <= 6)
    compiled = compile_problem(problem)
    genomes = full_enumeration(compiled.n_genes)
    scores = gene_order_scores(compiled).ravel()
    fitness, valid = eval_population(compiled, genomes)
    toward = {1: Direction.SERVER_TO_CLIENT, 2: Direction.CLIENT_TO_SERVER}
    for i, genome in enumerate(genomes):
        placement = genome_to_placement(problem, genome)
        classified = classify_calls(problem, placement)
        local, violating = sum(c.local for c in classified), sum(c.violating for c in classified)
        assert scores[i] == local - (len(problem.calls) + 1) * violating
        assert [c.direction for c in classified] == [
            None if c.local else toward[placement.mask(c.record.callee)] for c in classified]
        report = evaluate(problem, placement)
        assert report.program == fitness[i]
        assert report.valid == is_valid(problem, placement)[0] == valid[i]


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


# --- The score table over the whole placement space ------------------------


def assert_scores_match_the_kernel(problem):
    """build_scores's scores, in gene order, against eval_population and
    rule_counts, genome by genome: >= 0 exactly where valid, the local count
    where valid, and the local count minus n_calls + 1 per violating call
    everywhere."""
    compiled = compile_problem(problem)
    n, n_calls = compiled.n_genes, compiled.n_calls
    scores = gene_order_scores(compiled)
    assert scores.shape == (3,) * n and scores.dtype == np.int64
    scores = scores.ravel()  # C order: the order of full_enumeration
    fitness, valid = eval_population(compiled, full_enumeration(n))
    np.testing.assert_array_equal(scores >= 0, valid)
    local, violating = (counts.ravel() for counts in rule_counts(problem))
    if n_calls:
        np.testing.assert_array_equal(local / n_calls, fitness)
    np.testing.assert_array_equal(scores[valid], local[valid])
    np.testing.assert_array_equal(scores, local - (n_calls + 1) * violating)
    return scores


def test_placement_scores_match_the_kernel_on_random_problems():
    rng = np.random.default_rng(23)
    for _ in range(60):
        assert_scores_match_the_kernel(random_flat_problem(rng))


@pytest.mark.parametrize("name", [
    "unicorn_v1.tjs", "unicorn_v2.tjs", "unicorn_v3.tjs", "unicorn_v4.tjs", "unicorn_v5.tjs",
    "unicorn_v6.tjs", "relay.tjs", "relay_reply.tjs", "meetings.tjs", "tracker.tjs",
])
def test_placement_scores_match_the_kernel_on_fixtures(name):
    assert_scores_match_the_kernel(fixture_problem(name))


EVERY_KIND = PlacementProblem(
    slices=("srv", "cli", "a", "b", "c"),
    fixed={"srv": Tier.SERVER, "cli": Tier.CLIENT},
    calls=(
        CallRecord(0, "a", "a", "f0"),  # inside one unplaced slice
        CallRecord(1, "b", "b", "f1", annotated=True),
        CallRecord(2, "srv", "cli", "f2", annotated=True),  # between two fixed slices
        CallRecord(3, "cli", "srv", "f3"),
        CallRecord(4, "c", "a", "f4"),  # the caller's gene is the higher one
        CallRecord(5, "a", "c", "f5"),
        CallRecord(6, "c", "b", "f6", annotated=True),
        CallRecord(7, "b", SHARED, "f7"),  # shared callee
        CallRecord(8, "srv", "b", "f8"),  # fixed caller
        CallRecord(9, "c", "cli", "f9"),  # fixed callee
        CallRecord(10, "a", "cli", "f10", annotated=True),
        CallRecord(11, "c", "a", "f11"),  # a second call on the same pair of genes
    ),
)


def test_placement_scores_cover_every_kind_of_call():
    scores = assert_scores_match_the_kernel(EVERY_KIND)
    assert (scores >= 0).any() and (scores < 0).any()


def test_placement_scores_with_no_calls_are_zero():
    scores = assert_scores_match_the_kernel(PlacementProblem(slices=("a", "b", "c")))
    assert (scores == 0).all()


def test_placement_scores_of_an_all_invalid_problem_are_negative():
    problem = PlacementProblem(
        slices=("srv", "cli", "x"),
        fixed={"srv": Tier.SERVER, "cli": Tier.CLIENT},
        calls=(CallRecord(0, "srv", "cli", "f"), CallRecord(1, "x", "x", "g")),
    )
    scores = assert_scores_match_the_kernel(problem)
    np.testing.assert_array_equal(scores, [1 - 3] * 3)  # one local call, one violation


# A high gene that shares calls with several non-adjacent lower genes, in
# both directions, so a step table whose axes land on the wrong genes shows.
# Genes in order: g0 (no calls), g1, g2 (only a call inside itself), g3..g8;
# the fixed slices sit between genes in the slice list.
SPREAD = PlacementProblem(
    slices=("g0", "g1", "srv", "g2", "g3", "g4", "cli", "g5", "g6", "g7", "g8"),
    fixed={"srv": Tier.SERVER, "cli": Tier.CLIENT},
    calls=(
        CallRecord(0, "g8", "g1", "f0"),  # the high gene calls down
        CallRecord(1, "g3", "g8", "f1"),  # and is called from below
        CallRecord(2, "g8", "g6", "f2", annotated=True),
        CallRecord(3, "g6", "g8", "f3"),
        CallRecord(4, "g2", "g2", "f4"),
        CallRecord(5, "srv", "g4", "f5"),
        CallRecord(6, "g5", "cli", "f6", annotated=True),
        CallRecord(7, "g7", SHARED, "f7"),
        CallRecord(8, "cli", "srv", "f8"),
        CallRecord(9, "srv", "cli", "f9", annotated=True),
        CallRecord(10, "g5", "g1", "f10"),
        CallRecord(11, "g7", "g3", "f11", annotated=True),
        CallRecord(12, "g4", "g7", "f12"),
        CallRecord(13, "srv", "g3", "f13", annotated=True),
        CallRecord(14, "g8", "cli", "f14"),
    ),
)


def test_placement_scores_align_a_high_gene_with_its_lower_partners():
    assert compile_problem(SPREAD).n_genes == 9
    scores = assert_scores_match_the_kernel(SPREAD)
    assert (scores >= 0).any() and (scores < 0).any()


def per_term_scores(problem):
    """The scores summed the direct way, from the call table: every kind of
    call's score under call_rule broadcast-added into the whole (3,) * n
    array along its end genes' axes."""
    local, violating = rule_counts(problem)
    return local - (len(problem.calls) + 1) * violating


def test_placement_scores_equal_the_per_term_sum():
    rng = np.random.default_rng(23)
    problems = [random_flat_problem(rng) for _ in range(60)]
    problems += [fixture_problem(name) for name in (
        "unicorn_v1.tjs", "unicorn_v2.tjs", "unicorn_v3.tjs", "unicorn_v4.tjs", "unicorn_v5.tjs",
        "unicorn_v6.tjs", "relay.tjs", "relay_reply.tjs", "meetings.tjs", "tracker.tjs")]
    problems += [random_problem(seed) for seed in range(60)]
    problems += [SPREAD, EVERY_KIND]
    for problem in problems:
        scores, expected = gene_order_scores(compile_problem(problem)), per_term_scores(problem)
        assert scores.shape == expected.shape and scores.dtype == np.int64
        assert scores.flags.c_contiguous
        np.testing.assert_array_equal(scores, expected)


# The narrowest type changes where -(n_calls + 1) * n_calls leaves a type's range.
@pytest.mark.parametrize("n_calls, dtype", [
    (10, np.int8), (11, np.int16), (180, np.int16), (181, np.int32),
    (46_340, np.int32), (46_341, np.int64),
])
def test_scores_use_the_narrowest_type_that_holds_them(n_calls, dtype):
    problem = fan_out_problem(n_calls)
    compiled = compile_problem(problem)
    assert build_scores(compiled).dtype == dtype
    expected = per_term_scores(problem).ravel()
    assert expected.min() == -(n_calls + 1) * n_calls and expected.max() == n_calls
    scores = gene_order_scores(compiled)
    assert scores.dtype == np.int64
    np.testing.assert_array_equal(scores.ravel(), expected)
