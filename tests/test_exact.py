from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_problem
from genprog import random_flat_problem, random_problem, rule_counts, wide_flat_problem
from tierslicer.errors import AllInvalidError
from tierslicer.exact import SINK, SOURCE, _arcs
from tierslicer.fitness import evaluate
from tierslicer.model import CallRecord, PlacementProblem, Tier
from tierslicer.placement import is_valid
from tierslicer.search import GaConfig, exhaustive_oracle, run_many


def cut_costs(problem, genomes):
    """The weight of the arcs that each genome's bits cut: c_g = mask & 1 and
    t_g = 1 - (mask >> 1), the source 1 and the sink 0."""
    weight, _ = _arcs(problem)
    costs = []
    for genome in genomes.tolist():
        value = [None] * (2 * len(genome) + 2)
        value[SOURCE], value[SINK] = 1, 0
        for g, mask in enumerate(genome):
            value[2 * g + 2], value[2 * g + 3] = mask & 1, 1 - (mask >> 1)
        costs.append(sum(w for (u, v), w in weight.items() if value[u] > value[v]))
    return costs


@pytest.mark.parametrize("source", ["flat", "layered", "fixtures"])
def test_the_cut_charges_every_genome_what_call_rule_does(source):
    # The arcs encode model.call_rule: a remote call costs 1, a violating
    # one inf = n_calls + 1 instead, and a local one nothing.
    if source == "flat":
        rng = np.random.default_rng(41)
        problems = [random_flat_problem(rng) for _ in range(40)]
    elif source == "layered":
        problems = [random_problem(seed) for seed in range(6)]
    else:
        problems = [fixture_problem(name) for name in (
            "unicorn_v1.tjs", "unicorn_v6.tjs", "relay.tjs", "relay_reply.tjs", "meetings.tjs")]
    for problem in problems:
        n = len(problem.unplaced)
        genomes = np.array(list(product((1, 2, 3), repeat=n)), dtype=np.int8).reshape(3**n, n)
        local, bad = rule_counts(problem)
        expected = len(problem.calls) - local + len(problem.calls) * bad
        assert cut_costs(problem, genomes) == expected.ravel().tolist()


def test_a_call_chain_past_the_recursion_limit():
    # srv -> g0 -> g1 -> ... -> g4999 -> cli: only srv -> g0 carries @reply, so
    # no gene may hold the server, and the flow runs along all 5,001 arcs.
    genes = [f"g{i}" for i in range(5000)]
    names = ["srv", *genes, "cli"]
    calls = tuple(CallRecord(i, a, b, f"f{i}", i == 0)
                  for i, (a, b) in enumerate(zip(names, names[1:])))
    problem = PlacementProblem(tuple(names), {"srv": Tier.SERVER, "cli": Tier.CLIENT}, calls)
    placement, fitness = exhaustive_oracle(problem, cap=5000)
    assert set(placement.searched.values()) == {Tier.CLIENT}
    assert fitness == 5000 / 5001


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 10**6), n_genes=st.integers(13, 40))
def test_past_the_cap_the_cut_is_valid_exact_and_never_beaten(seed, n_genes):
    problem = wide_flat_problem(seed, n_genes)
    try:
        placement, fitness = exhaustive_oracle(problem, cap=n_genes)
    except AllInvalidError:
        with pytest.raises(AllInvalidError):
            run_many(problem, GaConfig(), 10)
        return
    assert is_valid(problem, placement)[0]
    assert fitness == evaluate(problem, placement).program
    assert max(r.best_fitness for r in run_many(problem, GaConfig(), 10)) <= fitness

