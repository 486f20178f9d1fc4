from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, fixture_problem
from genprog import random_flat_problem, random_problem, rule_counts, wide_flat_problem
from tierslicer.errors import AllInvalidError
from tierslicer.exact import SINK, SOURCE, _arcs, _Residual, optimum
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


def call_chain(n):
    """srv -> g0 -> g1 -> ... -> g{n-1} -> cli: only srv -> g0 carries @reply,
    so no gene may hold the server, and the flow runs along all n + 1 arcs."""
    genes = [f"g{i}" for i in range(n)]
    names = ["srv", *genes, "cli"]
    calls = tuple(CallRecord(a, b, f"f{i}", i == 0)
                  for i, (a, b) in enumerate(zip(names, names[1:])))
    return PlacementProblem(tuple(names), {"srv": Tier.SERVER, "cli": Tier.CLIENT}, calls)


def test_a_call_chain_past_the_recursion_limit():
    placement, fitness = exhaustive_oracle(call_chain(5000), cap=5000)
    assert set(placement.searched.values()) == {Tier.CLIENT}
    assert fitness == 5000 / 5001


def certify_max_flow(problem):
    """Check that ``max_flow`` leaves a maximum flow whose value is the cut
    that ``optimum``'s genome pays, or a flow of at least ``inf`` when no
    placement is valid."""
    weight, inf = _arcs(problem)
    graph = _Residual(2 * len(problem.unplaced) + 2, weight)
    value = graph.max_flow(inf)
    head, cap = graph.head, graph.cap
    # Arc e = 2k carries flow cap[e + 1], and the pair keeps its weight.
    assert [cap[e] + cap[e + 1] for e in range(0, len(cap), 2)] == list(weight.values())
    assert min(cap, default=0) >= 0
    net = [0] * len(graph.out)
    for e in range(0, len(cap), 2):
        net[head[e + 1]] -= cap[e + 1]
        net[head[e]] += cap[e + 1]
    assert net[SINK] == -net[SOURCE] == value
    assert not any(net[2:])  # conserved at every gene node
    if value >= inf:
        with pytest.raises(AllInvalidError):
            optimum(problem)
        return
    reached, stack = {SOURCE}, [SOURCE]
    while stack:
        for e in graph.out[stack.pop()]:
            if cap[e] and head[e] not in reached:
                reached.add(head[e])
                stack.append(head[e])
    assert SINK not in reached  # no augmenting path is left
    remote, genome = optimum(problem)
    assert remote == value == cut_costs(problem, np.array([genome], dtype=np.int8))[0]


@pytest.mark.parametrize("source", ["flat", "layered", "wide", "fixtures", "chain"])
def test_the_flow_is_maximum_and_its_value_is_the_optimums_cut(source):
    # A certificate of optimality that needs no enumeration, so it holds past the cap.
    if source == "flat":
        rng = np.random.default_rng(43)
        problems = [random_flat_problem(rng) for _ in range(60)]
    elif source == "layered":
        problems = [random_problem(seed) for seed in range(8)]
    elif source == "wide":
        problems = [wide_flat_problem(seed, n) for seed, n in enumerate(range(13, 41, 3))]
    elif source == "fixtures":
        names = sorted(p.name for p in FIXTURES.glob("*.tjs"))
        problems = [fixture_problem(name) for name in names]
    else:
        problems = [call_chain(5000)]
    for problem in problems:
        certify_max_flow(problem)


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

