from __future__ import annotations

import hashlib
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fixture_problem
from genprog import (fan_out_problem, gene_order_scores, random_flat_problem, random_problem,
                     random_problems, wide_flat_problem)
from tierslicer.errors import AllInvalidError, TooManySlicesError
from tierslicer.kernels import compile_problem, eval_population
from tierslicer.model import SHARED, CallRecord, PlacementProblem, Tier
from tierslicer import search
from tierslicer.search import (
    GaConfig,
    _draw_alone,
    _layout,
    _Scorer,
    _Streams,
    _closure_genome,
    _next_generation,
    _ranking,
    exhaustive_oracle,
    genome_to_placement,
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
    with pytest.raises(ValueError):
        GaConfig(max_generations=0)
    with pytest.raises(ValueError):
        GaConfig(rng_seed=-1)


def test_seed_population_shape_and_alphabet():
    rng = np.random.default_rng(42)
    pop = seed_population(GaConfig(), 4, rng)
    assert pop.shape == (30, 4)
    assert set(np.unique(pop)) <= {1, 2, 3}
    again = seed_population(GaConfig(), 4, np.random.default_rng(42))
    np.testing.assert_array_equal(pop, again)


def breed(pop, fitness, valid, runs, seed=0, **config):
    """One batched generation of ``runs`` stacked copies of a population with
    the given fitness and validity, ranked as run_many ranks past the oracle
    cap (the genome columns break ties); returns (runs, P, n)."""
    pop = np.asarray(pop, dtype=np.int8)
    P, n = pop.shape
    config = GaConfig(population_size=P, **config)
    stacked = np.tile(pop, (runs, 1))
    fitness = np.tile(np.asarray(fitness, dtype=float), runs)
    valid = np.tile(np.asarray(valid, dtype=bool), runs)
    order = _ranking(stacked.T[::-1], fitness, valid, P)
    streams = _Streams([np.random.default_rng(seed + i) for i in range(runs)], n, config)
    new_pop = _next_generation(stacked, valid, order, streams, config)
    assert new_pop.shape == stacked.shape
    return new_pop.reshape(runs, P, n)


# The operator tests breed one run alone and three stacked runs (R = 1, 3);
# each run of the batch must show the operator's behaviour.
BATCHES = (1, 3)


def test_mutate_rewrites_exactly_one_position():
    genome = [1, 2, 3, 1, 2]
    for runs in BATCHES:
        for seed in range(5):
            for children in breed([genome] * 30, [1.0] * 30, [True] * 30, runs, seed,
                                  crossover_prob=0.0, mutation_prob=1.0):
                np.testing.assert_array_equal(children[0], genome)  # the elite
                changed = (children[1:] != genome).sum(axis=1)
                assert (changed <= 1).all()  # the new value may equal the old
                assert changed.any()
                assert set(np.unique(children)) <= {1, 2, 3}
        single = breed([[2]] * 4, [1.0] * 4, [True] * 4, runs,
                       crossover_prob=0.0, mutation_prob=1.0)
        assert set(np.unique(single)) <= {1, 2, 3}


def test_crossover_is_a_positionwise_swap():
    a, b = [1, 1, 1, 1], [2, 2, 2, 2]
    for runs in BATCHES:
        for children in breed([a, b] * 15, [1.0] * 30, [True] * 30, runs, seed=5,
                              tournament_size=1, crossover_prob=1.0, mutation_prob=0.0):
            # rows 1, 2 | 3, 4 | ... are sibling pairs (row 0 is the elite); each
            # column of a pair holds its parents' two values, swapped or not
            pairs = children[1:29].reshape(14, 2, 4)
            assert set(np.unique(children)) <= {1, 2}
            column_sums = pairs.sum(axis=1)
            assert (column_sums == column_sums[:, :1]).all()
            assert any(len(set(child)) > 1 for child in children[1:])  # some column swapped
        same = breed([a] * 30, [1.0] * 30, [True] * 30, runs,
                     crossover_prob=1.0, mutation_prob=0.0)
        assert (same == a).all()


def test_tournament_ignores_invalid_individuals():
    pop = [[1], [2], [3]] * 10
    fitness = [0.2, 0.9, 0.5] * 10
    valid = [True, False, True] * 10
    for runs in BATCHES:
        # a tournament as large as the population: every valid genome competes
        children = breed(pop, fitness, valid, runs, seed=1, tournament_size=30,
                         crossover_prob=0.0, mutation_prob=0.0)
        assert (children == 3).all()  # 0.9 is invalid, 0.5 beats 0.2
        # tournaments of one: every parent is a valid row drawn at random
        children = breed(pop, fitness, valid, runs, seed=1, tournament_size=1,
                         crossover_prob=0.0, mutation_prob=0.0)
        assert set(np.unique(children)) == {1, 3}


def test_tournament_tie_breaks_toward_lexicographically_lower_genome():
    pop = [[3, 1], [1, 2], [2, 1]] * 10
    for runs in BATCHES:
        children = breed(pop, [0.5] * 30, [True] * 30, runs, seed=2, tournament_size=30,
                         crossover_prob=0.0, mutation_prob=0.0)
        assert (children == [1, 2]).all()


def test_batched_step_keeps_runs_apart():
    # run r holds only the value r + 1; with mutation off, a child of run r
    # carrying another value got a parent, a crossover partner or an elite
    # from another run.  Fitness interleaves across runs and each run has a
    # different number of valid rows.
    P, n = 30, 6
    rng = np.random.default_rng(4)
    pop = np.repeat(np.arange(1, 4, dtype=np.int8), P)[:, None].repeat(n, axis=1)
    fitness = rng.random(3 * P)
    valid = np.concatenate([rng.permutation(np.arange(P) < k) for k in (5, 29, 13)])
    config = GaConfig(population_size=P, tournament_size=3, crossover_prob=1.0,
                      mutation_prob=0.0)
    order = _ranking(pop.T[::-1], fitness, valid, P)
    streams = _Streams([np.random.default_rng(s) for s in (7, 8, 9)], n, config)
    children = _next_generation(pop, valid, order, streams, config)
    for r, run_children in enumerate(children.reshape(3, P, n)):
        assert (run_children == r + 1).all(), r


def test_ranking_orders_by_run_validity_score_then_tie_key():
    # Two runs of four rows.  Run 0: rows 0 and 1 tie on score and [1, 3]
    # sorts before [2, 1]; row 2 scores highest but is invalid.  Run 1: row 5
    # is invalid; rows 4, 6 and 7 tie on score, [1, 3] sorts first, and the
    # equal rows 4 and 6 keep their index order.
    pop = np.array([[2, 1], [1, 3], [3, 3], [1, 2],
                    [2, 2], [1, 1], [2, 2], [1, 3]], dtype=np.int8)
    score = np.array([5, 5, 9, 4, 2, 7, 2, 2])
    valid = np.array([True, True, False, True, True, False, True, True])
    want = [1, 0, 3, 2, 7, 4, 6, 5]
    index = (pop.astype(np.int64) - 1) @ [3, 1]  # the genome index within the oracle cap
    for tie in (index[None], pop.T[::-1]):  # within the cap, and the genome columns past it
        np.testing.assert_array_equal(_ranking(tie, score, valid, 4), want)
    # Past the cap the score is the fitness double.
    np.testing.assert_array_equal(_ranking(pop.T[::-1], score / 10, valid, 4), want)


def test_ranking_tie_keys_agree_on_every_pair_of_genomes():
    # All 27 genomes of three genes at one score, shuffled: the genome index
    # and the genome columns give the same, lexicographic, order.
    genomes = np.array(list(product((1, 2, 3), repeat=3)), dtype=np.int8)
    pop = genomes[np.random.default_rng(3).permutation(27)]
    index = (pop.astype(np.int64) - 1) @ [9, 3, 1]
    ones, valid = np.ones(27), np.ones(27, dtype=bool)
    by_index = _ranking(index[None], ones, valid, 27)
    np.testing.assert_array_equal(pop[by_index], genomes)
    np.testing.assert_array_equal(_ranking(pop.T[::-1], ones, valid, 27), by_index)


def stacked_alone(rngs, ks, n, config):
    """``_draw_alone`` for each run, stacked as ``_Streams.draw`` returns them."""
    per_run = [_draw_alone(rng, k, n, config) for rng, k in zip(rngs, ks)]
    return [np.stack(arrays) for arrays in zip(*per_run)]


def assert_same_draws(streams, refs, ks, n, config):
    got = streams.draw(ks)
    want = stacked_alone(refs, ks, n, config)
    assert len(got) == len(want) == 6
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def same_stream(rng):
    """A generator in ``rng``'s state, cached half included."""
    twin = np.random.default_rng(0)
    twin.bit_generator.state = rng.bit_generator.state
    return twin


# (population, tournament size): odd and even populations, tournaments of
# one, of four and of the whole population.
STREAM_SHAPES = [(2, 1), (2, 2), (3, 1), (3, 3), (30, 1), (30, 4), (30, 30),
                 (31, 1), (31, 4), (31, 31)]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
@pytest.mark.parametrize("P, T", STREAM_SHAPES)
def test_batched_draws_equal_numpys_calls(P, T, n):
    config = GaConfig(population_size=P, tournament_size=T)
    rngs = [np.random.default_rng(1000 * P + 10 * T + n + r) for r in range(P)]
    for r, rng in enumerate(rngs):
        seed_population(config, n, rng)
        rng.integers(0, 2, size=r % 2)  # odd runs take one more half
    assert {rng.bit_generator.state["has_uint32"] for rng in rngs} == {0, 1}
    refs = [same_stream(rng) for rng in rngs]
    streams = _Streams(rngs, n, config)
    ks = list(range(1, P + 1))  # run r has r + 1 valid rows: every k in 1..P
    for generation in range(4):
        assert_same_draws(streams, refs, ks, n, config)
        ks = ks[1:] + ks[:1]
        if generation == 1:  # every third run leaves the batch
            keep = [r % 3 != 1 for r in range(len(ks))]
            streams.keep(keep)
            refs = [ref for ref, k in zip(refs, keep) if k]
            ks = [k for k, kept in zip(ks, keep) if kept]
    assert ([rng.bit_generator.state["state"] for rng in streams.rngs]
            == [ref.bit_generator.state["state"] for ref in refs])


PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341


def plant_word(bit_generator, before, word):
    """Set a PCG64 state whose next ``before`` words are free and whose word
    after them is ``word``.  PCG64 steps its 128-bit state x -> x * mult + inc,
    then outputs the high 64 bits xor the low 64 bits, rotated right by the
    top 6 bits: pick the high bits, solve for the low bits, step back."""
    high = 0x9E3779B97F4A7C15
    rot = high >> 58
    low = (((word << rot) | (word >> (64 - rot))) & (2**64 - 1)) ^ high
    state = bit_generator.state
    inc = state["state"]["inc"]
    x = (high << 64) | low
    state["state"]["state"] = (x - inc) * pow(PCG64_MULT, -1, 2**128) % 2**128
    bit_generator.state = state
    bit_generator.advance(-before)


P_FORCED = 30


# (segment, bound h, planted 64-bit word, cached half at the start or None):
# a word whose low half is 0, or which is 0 altogether so that its high half
# is rejected too, after a run start with or without a cached half; or a
# cached zero half, rejected at the first draw.
FORCED = [(segment, h, word, spare)
          for segment, h in (("entrants", 3), ("entrants", 17), ("entrants", 30),
                             ("positions", 3), ("positions", 17), ("positions", 30),
                             ("values", 3))
          for word in (0x5EED << 32, 0) for spare in (None, 0xC0FFEE)]
FORCED += [("cached", h, None, 0) for h in (3, 17, 30)]


@pytest.mark.parametrize("segment, h, word, spare", FORCED)
def test_a_rejected_half_is_redrawn_as_numpy_draws_it(segment, h, word, spare, monkeypatch):
    # A zero half u gives (u * h) mod 2**32 = 0 < 2**32 mod h: numpy rejects
    # it and takes the next half, so the batched decode must hand the run to
    # _draw_alone.  The word is planted in the middle run of three.
    config = GaConfig(population_size=P_FORCED, tournament_size=4)
    n = h if segment == "positions" else 5
    k = h if segment in ("entrants", "cached") else 20
    rngs = [np.random.default_rng(70 + r) for r in range(3)]
    bit_generator = rngs[1].bit_generator
    if segment != "cached":  # at the segment's first value that takes a fresh low half
        n_pairs = P_FORCED // 2
        first = {"entrants": 0, "positions": 2 * n_pairs * 4 + n_pairs * n,
                 "values": 2 * n_pairs * 4 + n_pairs * n + 2 * n_pairs}[segment]
        halves = _layout(spare is not None, True, n, config)[0]
        low = next(i for i in halves[first:] if i > 0 and i % 2 == 0)  # 0 is the cached half
        plant_word(bit_generator, low // 2 - 1, word)
    if spare is not None:
        state = bit_generator.state
        state.update(has_uint32=1, uinteger=spare)
        bit_generator.state = state
    refs = [same_stream(rng) for rng in rngs]
    streams = _Streams(rngs, n, config)
    redrawn = []

    def draw_alone(*args):
        redrawn.append(args[1:])
        return _draw_alone(*args)

    monkeypatch.setattr(search, "_draw_alone", draw_alone)
    for _ in range(3):
        assert_same_draws(streams, refs, [k] * 3, n, config)
    assert redrawn == [(k, n, config)]


def test_genome_placement_round_trip():
    problem = fixture_problem("unicorn_v4.tjs")
    genome = np.array([1, 3, 2], dtype=np.int8)
    placement = genome_to_placement(problem, genome)
    assert placement.tier("query") is Tier.CLIENT
    assert placement.tier("entry") is Tier.BOTH
    assert placement.tier("revise") is Tier.SERVER
    assert [placement.tier(s).mask for s in problem.unplaced] == genome.tolist()


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


def chunked_oracle(problem):
    """Reference oracle without the score table: build every genome from its
    index, evaluate 65,536-row chunks with eval_population and keep the first
    best valid row.  Returns (genome, fitness), or None if none is valid."""
    compiled = compile_problem(problem)
    n = compiled.n_genes
    total = 3**n
    weights = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    best_fit, best_genome = -1.0, None
    for start in range(0, total, 1 << 16):
        idx = np.arange(start, min(start + (1 << 16), total), dtype=np.int64)
        genomes = ((idx[:, None] // weights) % 3 + 1).astype(np.int8)
        fitness, valid = eval_population(compiled, genomes)
        fitness = np.where(valid, fitness, -1.0)
        i = int(np.argmax(fitness))
        if fitness[i] > best_fit:
            best_fit, best_genome = float(fitness[i]), genomes[i].copy()
    if best_genome is None or best_fit < 0.0:
        return None
    return best_genome.tolist(), best_fit


def oracle_verdict(problem):
    try:
        placement, fitness = exhaustive_oracle(problem)
    except AllInvalidError:
        return None
    return [placement.tier(s).mask for s in problem.unplaced], fitness


def test_oracle_equals_the_chunked_argmax():
    rng = np.random.default_rng(31)
    problems = [random_flat_problem(rng) for _ in range(40)]
    problems += [random_problem(seed) for seed in range(12)]  # seed 5 has no valid placement
    problems += [fixture_problem(name) for name in (
        "unicorn_v2.tjs", "unicorn_v3.tjs", "unicorn_v4.tjs", "unicorn_v5.tjs",
        "unicorn_v6.tjs", "relay.tjs", "relay_reply.tjs", "meetings.tjs")]
    verdicts = [oracle_verdict(problem) for problem in problems]
    assert None in verdicts and any(v is not None for v in verdicts)  # both verdicts occur
    for problem, verdict in zip(problems, verdicts):
        assert verdict == chunked_oracle(problem)


def test_a_negative_oracle_cap_raises():
    with pytest.raises(ValueError, match="oracle cap must be >= 0"):
        exhaustive_oracle(PlacementProblem(slices=("a",)), cap=-1)


def calls_between(pairs, annotated=()):
    """A call per (caller, callee) pair; the indices in ``annotated`` carry @reply."""
    return tuple(CallRecord(i, a, b, f"f{i}", i in annotated) for i, (a, b) in enumerate(pairs))


# Problems whose optima tie, so the oracle must break ties in problem order;
# the cut's residual graph leaves several genes free there.
TIED = {
    # g1, g3 and g6 make no calls: every mask of theirs ties
    "call-free genes": PlacementProblem(
        slices=tuple(f"g{i}" for i in range(8)) + ("srv",),
        fixed={"srv": Tier.SERVER},
        calls=calls_between([("g0", "g2"), ("g2", "g4"), ("g4", "g7"), ("g7", "g0"),
                             ("g5", "g2"), ("srv", "g5"), ("g4", "g2")], annotated={1, 3, 5}),
    ),
    # every call of g2 goes to shared code, so g2 is free and interacts with no gene
    "shared callees only": PlacementProblem(
        slices=("g0", "g1", "g2", "g3", "g4", "cli"),
        fixed={"cli": Tier.CLIENT},
        calls=calls_between([("g2", SHARED), ("g2", SHARED), ("g0", "g4"), ("g4", "g1"),
                             ("g1", "g3"), ("g3", "cli"), ("g0", SHARED)], annotated={3}),
    ),
    # {g0, g2, g4} and {g1, g3, g5} share no call
    "two components": PlacementProblem(
        slices=("g0", "g1", "g2", "g3", "g4", "g5", "srv"),
        fixed={"srv": Tier.SERVER},
        calls=calls_between([("g0", "g2"), ("g2", "g4"), ("g4", "g0"), ("g1", "g3"),
                             ("g3", "g5"), ("g5", "g3"), ("srv", "g1"), ("g4", "g2")],
                            annotated={0, 3, 6}),
    ),
}


@pytest.mark.parametrize("problem", [*TIED.values(), *(
    wide_flat_problem(seed, n) for seed, n in ((9, 11), (12, 11), (11, 12), (12, 12)))],
    ids=[*TIED, "wide-9-n11", "wide-12-n11", "wide-11-n12", "wide-12-n12"])
def test_oracle_breaks_ties_in_problem_order_whatever_the_build_order(problem):
    scores = gene_order_scores(compile_problem(problem)).ravel()
    assert scores.max() >= 0 and (scores == scores.max()).sum() > 1  # a valid optimum ties
    assert oracle_verdict(problem) == chunked_oracle(problem)


@pytest.mark.parametrize("n_calls", [10, 11, 180, 181, 46_340, 46_341])
def test_oracle_equals_the_chunked_argmax_at_each_score_type_boundary(n_calls):
    problem = fan_out_problem(n_calls)
    assert oracle_verdict(problem) == chunked_oracle(problem) == ([1, 1, 1], 1.0)


# --- Hand-made optima --------------------------------------------------------


def optimal_genomes(problem):
    """Every genome with the best score in the full table, lexicographically
    ordered, and that score's fitness, or None if no genome is valid."""
    scores = gene_order_scores(compile_problem(problem))
    best = int(scores.max())
    if best < 0:
        return None
    fitness = best / len(problem.calls) if problem.calls else 1.0
    return (np.argwhere(scores == best) + 1).tolist(), fitness


S, C = Tier.SERVER, Tier.CLIENT
# name: (problem, optimal genomes, fitness).
HAND_MADE_OPTIMA = {
    "no genes": (PlacementProblem(("srv", "cli"), {"srv": S, "cli": C},
                                  calls_between([("cli", "srv"), ("srv", "cli")], {1})),
                 [[]], 0.0),
    "one gene": (PlacementProblem(("g0", "srv"), {"srv": S},
                                  calls_between([("g0", "srv"), ("srv", "g0"), ("g0", SHARED)],
                                                {1})),
                 [[2]], 1.0),
    "two genes": (PlacementProblem(("g0", "g1", "cli"), {"cli": C},
                                   calls_between([("g0", "g1"), ("g1", "cli"), ("cli", "g0"),
                                                  ("g1", "g0")], {3})),
                  [[1, 1]], 1.0),
    # p on both tiers serves both fixed slices, and then h -> p is local
    # whatever h's mask, so all three masks of h tie.
    "last gene free": (PlacementProblem(("h", "p", "cli", "srv"), {"cli": C, "srv": S},
                                        calls_between([("cli", "p"), ("srv", "p"), ("h", "p")],
                                                      {2})),
                       [[1, 3], [2, 3], [3, 3]], 1.0),
    # srv -> h needs h on the server, so h = server and h = both tie.
    "two optima in the last gene": (
        PlacementProblem(("h", "p", "cli", "srv"), {"cli": C, "srv": S},
                         calls_between([("srv", "h"), ("h", "p"), ("cli", "p"), ("srv", "p"),
                                        ("srv", "cli")], {1, 4})),
        [[2, 3], [3, 3]], 0.8),
    # h calls and is called only by fixed slices: no other gene interacts with it.
    "last gene without partners": (
        PlacementProblem(("g0", "g1", "h", "cli", "srv"), {"cli": C, "srv": S},
                         calls_between([("cli", "h"), ("h", "srv"), ("g0", "g1"), ("g1", "g0"),
                                        ("srv", "g0"), ("g1", "cli")], {3, 5})),
        [[2, 2, 1], [2, 2, 2], [2, 2, 3], [3, 3, 1], [3, 3, 2], [3, 3, 3]], 4 / 6),
    # The two optima differ in every gene.
    "gene 2 last": (
        PlacementProblem(("g0", "g1", "g2", "g3", "srv"), {"srv": S},
                         calls_between([("g0", "g1"), ("g0", "g2"), ("g2", "g1"), ("g3", "g0"),
                                        ("g1", "g3"), ("srv", "g2")], {0})),
        [[2, 2, 2, 2], [3, 3, 3, 3]], 1.0),
    # srv -> g0 puts g0 on the server, and then g0 -> cli violates.
    "all invalid": (PlacementProblem(("g0", "g1", "cli", "srv"), {"cli": C, "srv": S},
                                     calls_between([("srv", "g0"), ("g0", "cli"), ("g1", "g0"),
                                                    ("g1", "cli")])),
                    None, None),
}


@pytest.mark.parametrize("name", HAND_MADE_OPTIMA)
def test_the_oracle_maximises_the_last_built_gene_out(name):
    problem, optima, fitness = HAND_MADE_OPTIMA[name]
    if optima is None:
        assert optimal_genomes(problem) is None
        with pytest.raises(AllInvalidError):
            exhaustive_oracle(problem)
        return
    assert optimal_genomes(problem) == (optima, fitness)
    assert oracle_verdict(problem) == (optima[0], fitness)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), kind=st.sampled_from(["layered", "flat", "wide"]),
       n_genes=st.integers(1, 10))
def test_the_oracle_is_the_lexicographic_argmax_of_the_score_table(seed, kind, n_genes):
    # Unfiltered draws, with no valid placement or with many tied optima.
    if kind == "layered":
        problem = random_problem(seed)
    elif kind == "flat":
        problem = random_flat_problem(np.random.default_rng(seed))
    else:
        problem = wide_flat_problem(seed, n_genes)
    expected = optimal_genomes(problem)
    assert oracle_verdict(problem) == (expected and (expected[0][0], expected[1]))


def test_ga_never_beats_the_oracle(manifest):
    for name in ("unicorn_v2.tjs", "unicorn_v3.tjs", "unicorn_v4.tjs", "unicorn_v5.tjs"):
        problem = fixture_problem(name)
        oracle_fitness = manifest[name]["oracleFitness"]
        for result in run_many(problem, GaConfig(rng_seed=100), runs=20):
            assert result.best_fitness <= oracle_fitness + 1e-12


def assert_same_result(a, b):
    assert a.best_placement == b.best_placement
    assert a.best_fitness == b.best_fitness
    assert a.best_valid == b.best_valid
    assert a.generations_used == b.generations_used
    assert a.history == b.history
    np.testing.assert_array_equal(a.best_genome, b.best_genome)
    assert a.best_genome.dtype == b.best_genome.dtype


# With a 7-row population and a 50-generation budget, runs on
# random_flat_problem(28) stop at many different generations: most reach
# fitness 1.0 early, some use the whole budget.
EARLY_STOP = GaConfig(population_size=7, tournament_size=3, max_generations=50)


def test_run_many_is_parallel_safe():
    problem = random_flat_problem(np.random.default_rng(28))
    config = replace(EARLY_STOP, rng_seed=7)
    serial = run_many(problem, config, runs=7, jobs=1)
    assert len({r.generations_used for r in serial}) > 2
    for jobs in (2, 3):
        parallel = run_many(problem, config, runs=7, jobs=jobs)
        assert len(parallel) == 7
        for a, b in zip(serial, parallel):
            assert_same_result(a, b)


@pytest.mark.parametrize("runs", [1, 7, 12])
def test_a_run_does_not_depend_on_its_batch(runs):
    problem = random_flat_problem(np.random.default_rng(28))
    config = replace(EARLY_STOP, rng_seed=5)
    batch = run_many(problem, config, runs)
    assert len(batch) == runs
    if runs > 1:  # runs leave the batch at different generations
        assert len({r.generations_used for r in batch}) > 1
    for i, result in enumerate(batch):
        assert_same_result(result, run(problem, replace(config, rng_seed=config.rng_seed + i)))


def test_a_batch_of_more_than_255_runs_keeps_its_runs_apart():
    # The ranking's run key takes the narrowest type that holds it: 16 bits
    # here, so runs 256 on rank among their own rows, not among runs 0 on.
    problem = random_flat_problem(np.random.default_rng(28))
    config = replace(EARLY_STOP, rng_seed=5)
    batch = run_many(problem, config, 260)
    for i in (0, 1, 2, 3, 256, 257, 258, 259):
        assert_same_result(batch[i], run(problem, replace(config, rng_seed=config.rng_seed + i)))

def test_run_many_with_no_unplaced_slices_degenerates():
    results = run_many(fixture_problem("tracker.tjs"), GaConfig(), runs=3)
    assert len(results) == 3
    for result in results:
        assert_same_result(result, results[0])
        assert result.generations_used == 0 and result.history == []


@pytest.mark.parametrize("name", ["tracker.tjs", "unicorn_v1.tjs"])
def test_oracle_with_no_unplaced_slices_scores_the_config_placement(name, manifest):
    placement, fitness = exhaustive_oracle(fixture_problem(name))
    assert placement.searched == {}
    assert fitness == manifest[name]["oracleFitness"]


def test_no_unplaced_slices_and_an_invalid_config_placement_fail_every_search():
    problem = PlacementProblem(("a", "b"), {"a": Tier.SERVER, "b": Tier.CLIENT},
                               (CallRecord(0, "a", "b", "show"),))
    scores = gene_order_scores(compile_problem(problem))
    assert scores.shape == () and scores == -2  # 0 local calls, 1 violating
    with pytest.raises(AllInvalidError):
        exhaustive_oracle(problem)
    with pytest.raises(AllInvalidError):
        run_many(problem, GaConfig(), 3)


# --- Scoring within and past the oracle cap ----------------------------------


def assert_table_rows_equal_the_kernel(problem, genomes):
    """Within the cap, ``_Scorer`` reads build_scores's table: each row's
    validity must be eval_population's, its fitness must be the same double on
    every valid row, and its tie key its genome index in problem order.  Given
    the oracle's genome as its target, it settles on that genome's row alone;
    with no valid placement any genome serves as the target."""
    compiled = compile_problem(problem)
    verdict = oracle_verdict(problem)
    target = genomes[0] if verdict is None else np.array(verdict[0], dtype=np.int8)
    scorer = _Scorer(compiled, target)
    assert scorer.table is not None
    score, valid, tie = scorer(genomes)
    fitness, kernel_valid = eval_population(compiled, genomes)
    np.testing.assert_array_equal(valid, kernel_valid)
    assert scorer.fitness(score[valid]) == fitness[valid].tolist()
    n = compiled.n_genes
    index = (genomes.astype(np.int64) - 1) @ 3 ** np.arange(n - 1, -1, -1)
    np.testing.assert_array_equal(tie, [index])
    settled = scorer.settled(tie, np.arange(len(genomes)))
    assert settled == (genomes == target).all(axis=1).tolist()
    if verdict is not None:  # the target is the first of the best valid rows
        best = np.flatnonzero(valid & (score == score[valid].max()))
        assert settled.index(True) == best[0]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), layered=st.booleans())
@example(seed=13, layered=True)  # valid fraction 0.0032, below MIN_VALID_FRACTION
@example(seed=78, layered=True)  # 0.0014
@example(seed=5, layered=True)  # no valid placement
def test_table_scores_equal_eval_population_on_every_genome(seed, layered):
    # Unfiltered draws: random_problems would drop every problem whose valid
    # fraction is below MIN_VALID_FRACTION, and the examples pin three.
    if layered:
        problem = random_problem(seed)
    else:
        problem = random_flat_problem(np.random.default_rng(seed))
    n = len(problem.unplaced)
    assert_table_rows_equal_the_kernel(
        problem, np.array(list(product((1, 2, 3), repeat=n)), dtype=np.int8))


FIXTURES_WITH_GENES = ("unicorn_v2.tjs", "unicorn_v3.tjs", "unicorn_v4.tjs", "unicorn_v5.tjs",
                       "unicorn_v6.tjs", "relay.tjs", "relay_reply.tjs", "meetings.tjs")


@pytest.mark.parametrize("name", FIXTURES_WITH_GENES)
def test_table_scores_equal_eval_population_on_fixtures(name):
    problem = fixture_problem(name)
    n = len(problem.unplaced)
    assert_table_rows_equal_the_kernel(
        problem, np.array(list(product((1, 2, 3), repeat=n)), dtype=np.int8))


def search_outcome(problem, config, runs):
    """run_many's results as comparable tuples, or the message it raised."""
    try:
        results = run_many(problem, config, runs)
    except AllInvalidError as error:
        return str(error)
    return [(r.best_placement, r.best_fitness, r.best_valid, r.generations_used, r.history,
             r.best_genome.tolist(), r.best_genome.dtype) for r in results]


CRITERION_2 = GaConfig(tournament_size=1, rng_seed=1000)
# (problem, config, runs): the fixtures under two configurations; criterion
# 2's problems and configuration; unfiltered layered problems with valid
# fractions of 0.0032, 0.0014 and 0.0041, one seed at a time, where some
# seeds find no valid individual; and runs that leave the batch early.
PATH_CASES = [(f"{name}-{label}", lambda name=name: fixture_problem(name), config, 5)
              for name in FIXTURES_WITH_GENES
              for label, config in (("default", GaConfig(rng_seed=100)),
                                    ("criterion2", CRITERION_2))]
PATH_CASES += [(f"criterion2-{k}", lambda k=k: random_problems(4)[k][1], CRITERION_2, 10)
               for k in range(4)]
PATH_CASES += [(f"random_problem({seed})-seed{s}", lambda seed=seed: random_problem(seed),
                replace(CRITERION_2, rng_seed=s), 1)
               for seed in (13, 78, 44) for s in range(1000, 1004)]
PATH_CASES += [("random_flat_problem(28)-early",
                lambda: random_flat_problem(np.random.default_rng(28)),
                replace(EARLY_STOP, rng_seed=5), 12)]
# Tied optima: a run leaves the batch once its best row is the smallest
# optimum, at cap 0 too.  On wide-12-n11 seeds 1003 and 1006 reach a larger
# optimal genome first, and most runs never reach the smallest one.
# random_problem(13)'s batch holds runs whose seedings all fail.
PATH_CASES += [(f"tied-{name}", lambda name=name: TIED[name], CRITERION_2, 10) for name in TIED]
PATH_CASES += [("tied-wide-12-n11", lambda: wide_flat_problem(12, 11), CRITERION_2, 10),
               ("random_problem(13)-batch", lambda: random_problem(13), GaConfig(), 4)]


@pytest.mark.parametrize("make, config, runs", [case[1:] for case in PATH_CASES],
                         ids=[case[0] for case in PATH_CASES])
def test_run_many_is_the_same_from_the_table_and_from_classify_rows(make, config, runs,
                                                                     monkeypatch):
    problem = make()

    def kernel_not_called(*args):
        raise AssertionError("eval_population called within the oracle cap")

    with monkeypatch.context() as patched:  # within the cap: the table alone
        patched.setattr(search, "eval_population", kernel_not_called)
        table = search_outcome(problem, config, runs)
    monkeypatch.setattr(search, "ORACLE_CAP", 0)  # every problem past the cap
    assert search_outcome(problem, config, runs) == table


# Past the cap, batches whose runs settle: wide draws of 13 and 16 genes, on
# which runs hold a larger optimal genome before the smallest one, and
# layered programs of 20 helpers.  random_problem(0, 20)'s seedings hold no
# valid row, so its runs start from the closure genome, which is optimal.
PAST_CAP_CASES = [(f"wide-{seed}-n{n}", lambda seed=seed, n=n: wide_flat_problem(seed, n),
                   CRITERION_2, 10) for seed, n in ((8, 13), (14, 13), (19, 16), (20, 16))]
PAST_CAP_CASES += [(f"random_problem({seed}, 20)", lambda seed=seed: random_problem(seed, 20),
                    GaConfig(rng_seed=100), 5) for seed in (0, 3)]


@pytest.mark.parametrize("make, config, runs",
                         [case[1:] for case in PATH_CASES + PAST_CAP_CASES],
                         ids=[case[0] for case in PATH_CASES + PAST_CAP_CASES])
def test_settled_runs_give_what_full_runs_give(make, config, runs, monkeypatch):
    # With settling off, every run breeds up to fitness 1.0 or the budget.
    problem = make()
    bred = []

    def counted(*args):
        bred[-1] += 1
        return _next_generation(*args)

    def outcome():
        bred.append(0)
        return search_outcome(problem, config, runs)

    monkeypatch.setattr(search, "_next_generation", counted)
    settled = outcome()
    monkeypatch.setattr(_Scorer, "settled", lambda self, tie, rows: [False] * len(rows))
    assert outcome() == settled
    if len(problem.unplaced) > search.ORACLE_CAP:  # past the cap, runs leave early
        assert bred[0] < bred[1]


def test_a_run_settles_on_the_smallest_optimum_after_a_larger_one(monkeypatch):
    # Seed 1006 first holds an optimal genome above the oracle's, then the
    # oracle's at generation 70; there it leaves, and its history is padded
    # with the optimum up to the budget, as the generations it skips would be.
    problem = wide_flat_problem(12, 11)
    placement, optimum = exhaustive_oracle(problem)
    target = [placement.tier(s).mask for s in problem.unplaced]
    bests = []

    def recorded(pop, valid, order, streams, config):
        bests.append(pop[order[0]].tolist())  # one run: its best row
        return _next_generation(pop, valid, order, streams, config)

    monkeypatch.setattr(search, "_next_generation", recorded)
    result = run(problem, replace(CRITERION_2, rng_seed=1006))
    assert len(bests) == 69
    assert any(f == optimum and best != target for f, best in zip(result.history, bests))
    assert target not in bests
    assert result.best_genome.tolist() == target and result.best_fitness == optimum < 1.0
    assert result.generations_used == len(result.history) == 300
    assert result.history[69:] == [optimum] * 231


def test_settled_runs_leave_the_batch(monkeypatch):
    # Criterion 2's problems, 10 runs each: no run reaches fitness 1.0, so
    # without the exit every batch would breed 299 generations.
    calls = []

    def counted(*args):
        calls[-1] += 1
        return _next_generation(*args)

    monkeypatch.setattr(search, "_next_generation", counted)
    for _, problem in random_problems(20):
        calls.append(0)
        results = run_many(problem, CRITERION_2, 10)
        assert [r.generations_used for r in results] == [300] * 10
    assert max(calls) <= 299
    assert sum(c < 299 for c in calls) >= 15
    assert sum(calls) < 20 * 299 / 2


# --- Closure seeding ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), layered=st.booleans())
@example(seed=5, layered=True)  # no valid placement
@example(seed=13, layered=True)  # valid fraction 0.0032
@example(seed=78, layered=True)  # 0.0014
def test_the_closure_finds_a_valid_genome_iff_one_exists(seed, layered):
    # Unfiltered draws with at most 10 unplaced slices, checked against every genome.
    if layered:
        problem = random_problem(seed)
    else:
        problem = random_flat_problem(np.random.default_rng(seed))
    compiled = compile_problem(problem)
    genomes = np.array(list(product((1, 2, 3), repeat=compiled.n_genes)), dtype=np.int8)
    valid = eval_population(compiled, genomes)[1]
    if not valid.any():
        with pytest.raises(AllInvalidError, match="is reached from the server"):
            _closure_genome(problem)
        return
    genome = _closure_genome(problem)
    assert genome.dtype == np.int8 and set(genome.tolist()) <= {1, 2}
    assert eval_population(compiled, genome[None])[1][0]
    # Every valid genome holds the server wherever the closure genome does.
    assert ((genomes[valid] & 2) >= (genome & 2)).all()


def test_a_run_whose_seedings_all_fail_starts_from_the_closure_genome():
    # On random_problem(44) seeds 1 and 3 draw no valid row in 10 seedings;
    # the batch used to raise AllInvalidError.  After one generation their
    # best row is the closure genome, the only valid row of their last seeding.
    problem = random_problem(44)
    compiled = compile_problem(problem)
    config = GaConfig(max_generations=1)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        seedings = [seed_population(config, compiled.n_genes, rng) for _ in range(10)]
        assert any(eval_population(compiled, pop)[1].any() for pop in seedings) == (seed in (0, 2))
    genome = _closure_genome(problem).tolist()
    _, optimum = exhaustive_oracle(problem)
    for budget in (config, GaConfig()):
        batch = run_many(problem, budget, 4)
        for seed, result in enumerate(batch):
            assert_same_result(result, run(problem, replace(budget, rng_seed=seed)))
            assert result.best_valid and result.best_fitness <= optimum
        if budget is config:
            assert [r.best_genome.tolist() for r in batch[1::2]] == [genome] * 2


# (best_genome, generations_used, sha256(history as float64)[:16]) for seeds
# rng_seed, rng_seed + 1 and rng_seed + 2, recorded before the GA was batched
# across runs; the batched loop must reproduce every run bit for bit.
GOLDEN_CONFIGS = {
    "default": GaConfig(),
    "criterion2": GaConfig(tournament_size=1, rng_seed=1000),
    "early": EARLY_STOP,
}
GOLDEN = {
    ('unicorn_v4.tjs', 'default'): [
        ([1, 1, 1], 300, '16abd73efe481b06'),
        ([1, 1, 1], 300, '16abd73efe481b06'),
        ([1, 1, 1], 300, '16abd73efe481b06'),
    ],
    ('unicorn_v4.tjs', 'criterion2'): [
        ([1, 1, 1], 300, '16abd73efe481b06'),
        ([1, 1, 1], 300, '16abd73efe481b06'),
        ([1, 1, 1], 300, '16abd73efe481b06'),
    ],
    ('unicorn_v4.tjs', 'early'): [
        ([1, 1, 1], 50, 'd42abd9ce8079215'),
        ([1, 1, 1], 50, 'd42abd9ce8079215'),
        ([1, 1, 1], 50, 'd42abd9ce8079215'),
    ],
    ('unicorn_v5.tjs', 'default'): [
        ([1, 1, 1], 300, '16abd73efe481b06'),
        ([1, 1, 1], 300, '16abd73efe481b06'),
        ([1, 1, 1], 300, '16abd73efe481b06'),
    ],
    ('unicorn_v5.tjs', 'criterion2'): [
        ([1, 1, 1], 300, '16abd73efe481b06'),
        ([1, 1, 1], 300, '16abd73efe481b06'),
        ([1, 1, 1], 300, '16abd73efe481b06'),
    ],
    ('unicorn_v5.tjs', 'early'): [
        ([1, 1, 1], 50, 'd42abd9ce8079215'),
        ([1, 1, 1], 50, 'd42abd9ce8079215'),
        ([1, 1, 1], 50, 'd42abd9ce8079215'),
    ],
    ('relay.tjs', 'default'): [
        ([2, 1, 3], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 3], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 1], 1, '6c3c396ed6b5c36d'),
    ],
    ('relay.tjs', 'criterion2'): [
        ([2, 1, 1], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 1], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 3], 1, '6c3c396ed6b5c36d'),
    ],
    ('relay.tjs', 'early'): [
        ([3, 3, 3], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 3], 1, '6c3c396ed6b5c36d'),
        ([3, 1, 1], 1, '6c3c396ed6b5c36d'),
    ],
    ('relay_reply.tjs', 'default'): [
        ([2, 1, 3], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 3], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 1], 1, '6c3c396ed6b5c36d'),
    ],
    ('relay_reply.tjs', 'criterion2'): [
        ([2, 1, 1], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 1], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 3], 1, '6c3c396ed6b5c36d'),
    ],
    ('relay_reply.tjs', 'early'): [
        ([3, 3, 3], 1, '6c3c396ed6b5c36d'),
        ([2, 1, 3], 1, '6c3c396ed6b5c36d'),
        ([3, 1, 1], 1, '6c3c396ed6b5c36d'),
    ],
    ('random_problem(0)', 'default'): [
        ([3, 1, 1, 2, 1, 1, 3, 3], 300, 'fc1941a03d623ff1'),
        ([1, 1, 1, 1, 1, 1, 3, 1], 300, 'bbf9ae288c8e4b85'),
        ([3, 1, 1, 2, 1, 1, 3, 3], 300, '9d17e2f264b00a19'),
    ],
    ('random_problem(0)', 'criterion2'): [
        ([1, 1, 1, 1, 1, 1, 3, 1], 300, 'ed531ca84df2e4bb'),
        ([1, 1, 1, 1, 1, 1, 3, 1], 300, 'fbacaf0c02056f22'),
        ([1, 1, 1, 1, 1, 1, 3, 1], 300, 'fe92ed49a557efe4'),
    ],
    ('random_problem(0)', 'early'): [
        ([3, 1, 1, 2, 1, 1, 3, 3], 50, 'f5db0cb52396024b'),
        ([3, 1, 1, 2, 1, 1, 3, 3], 50, 'fbad7f409b695b0e'),
        ([3, 1, 1, 2, 1, 1, 3, 3], 50, '0161d6cae48afbb5'),
    ],
    ('random_flat_problem(28)', 'default'): [
        ([3, 3, 3, 3, 3, 3], 4, '057ee5c4eca568cb'),
        ([3, 3, 3, 3, 3, 3], 3, '54ab5f330671ec91'),
        ([3, 3, 3, 3, 3, 3], 6, '5b53f91b7552ed9a'),
    ],
    ('random_flat_problem(28)', 'criterion2'): [
        ([3, 3, 3, 3, 3, 3], 39, '0d257cecf8a68afb'),
        ([3, 3, 3, 3, 3, 3], 15, 'c7c248abe1f12398'),
        ([3, 3, 3, 3, 3, 3], 9, 'c91e908aeaa2f99b'),
    ],
    ('random_flat_problem(28)', 'early'): [
        ([3, 3, 3, 3, 3, 3], 9, '7f5302d8888da653'),
        ([3, 3, 3, 3, 3, 3], 6, 'de305daa975af1a5'),
        ([2, 2, 2, 2, 2, 2], 50, '04a1bc423bfade46'),
    ],
}


def golden_problem(name):
    if name == "random_problem(0)":
        return random_problem(0)
    if name == "random_flat_problem(28)":
        return random_flat_problem(np.random.default_rng(28))
    return fixture_problem(name)


@pytest.mark.parametrize("problem_name, config_name", list(GOLDEN))
def test_search_results_are_frozen(problem_name, config_name):
    results = run_many(golden_problem(problem_name), GOLDEN_CONFIGS[config_name], runs=3)
    got = [(r.best_genome.tolist(), r.generations_used,
            hashlib.sha256(np.asarray(r.history, dtype=np.float64).tobytes()).hexdigest()[:16])
           for r in results]
    assert got == GOLDEN[problem_name, config_name]
