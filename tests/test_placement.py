from __future__ import annotations

from itertools import product

import pytest

from conftest import fixture_problem
from tierslicer.errors import MissingPlacementError
from tierslicer.model import SHARED, CallRecord, Direction, PlacementProblem, Tier
from tierslicer.placement import Placement, classify_calls, is_valid, violations


def one_call_problem(annotated=False):
    return PlacementProblem(
        slices=("a", "b"),
        calls=(CallRecord("a", "b", "f", annotated),),
    )


def classify_single(caller_tier, callee_tier, annotated=False):
    problem = one_call_problem(annotated)
    placement = Placement(searched={"a": caller_tier, "b": callee_tier})
    (c,) = classify_calls(problem, placement)
    return c


@pytest.mark.parametrize(
    "caller,callee,local",
    [
        (Tier.CLIENT, Tier.CLIENT, True),
        (Tier.CLIENT, Tier.BOTH, True),
        (Tier.SERVER, Tier.BOTH, True),
        (Tier.BOTH, Tier.BOTH, True),
        (Tier.CLIENT, Tier.SERVER, False),
        (Tier.SERVER, Tier.CLIENT, False),
        (Tier.BOTH, Tier.CLIENT, False),
        (Tier.BOTH, Tier.SERVER, False),
    ],
)
def test_subset_rule(caller, callee, local):
    assert classify_single(caller, callee).local is local


def test_remote_directions():
    assert classify_single(Tier.CLIENT, Tier.SERVER).direction is Direction.CLIENT_TO_SERVER
    assert classify_single(Tier.SERVER, Tier.CLIENT).direction is Direction.SERVER_TO_CLIENT
    assert classify_single(Tier.BOTH, Tier.CLIENT).direction is Direction.SERVER_TO_CLIENT
    assert classify_single(Tier.BOTH, Tier.SERVER).direction is Direction.CLIENT_TO_SERVER


def test_shared_callee_always_local():
    problem = PlacementProblem(slices=("a",), calls=(CallRecord("a", SHARED, "f"),))
    for tier in Tier:
        (c,) = classify_calls(problem, Placement(searched={"a": tier}))
        assert c.local


def test_unannotated_server_to_client_is_a_violation():
    c = classify_single(Tier.SERVER, Tier.CLIENT)
    assert violations([c]) == [c]
    assert violations([classify_single(Tier.SERVER, Tier.CLIENT, annotated=True)]) == []
    assert violations([classify_single(Tier.CLIENT, Tier.SERVER)]) == []


def test_all_both_placement_is_always_valid_and_local():
    problem = fixture_problem("unicorn_v6.tjs")
    placement = Placement(
        fixed=dict(problem.fixed),
        searched={s: Tier.BOTH for s in problem.unplaced},
    )
    classified = classify_calls(problem, placement)
    assert all(c.local for c in classified)
    assert is_valid(problem, placement) == (True, [])


def _enumerate_validity(name):
    problem = fixture_problem(name)
    invalid = set()
    for combo in product(Tier, repeat=len(problem.unplaced)):
        placement = Placement(fixed=dict(problem.fixed), searched=dict(zip(problem.unplaced, combo)))
        valid, _ = is_valid(problem, placement)
        if not valid:
            invalid.add(combo)
    return problem, invalid


def test_relay_validity_set():
    problem, invalid = _enumerate_validity("relay.tjs")
    assert problem.unplaced == ("view", "cache", "audit")
    assert problem.unplaced is problem.unplaced  # computed once
    # the unannotated gateway->render call breaks exactly when view is client-only
    assert invalid == {c for c in product(Tier, repeat=3) if c[0] is Tier.CLIENT}


def test_relay_reply_variant_is_always_valid():
    _, invalid = _enumerate_validity("relay_reply.tjs")
    assert invalid == set()


def test_missing_tier_raises():
    problem = one_call_problem()
    with pytest.raises(MissingPlacementError):
        classify_calls(problem, Placement(searched={"a": Tier.CLIENT}))


def test_fixed_and_searched_must_not_overlap():
    with pytest.raises(ValueError):
        Placement(fixed={"a": Tier.CLIENT}, searched={"a": Tier.BOTH})


def test_placement_json_round_trip():
    placement = Placement(
        fixed={"browser": Tier.CLIENT},
        searched={"data": Tier.BOTH, "query": Tier.SERVER},
    )
    restored = Placement.from_json(placement.to_json())
    assert restored == placement


TIER_SETS = {Tier.CLIENT: {"client"}, Tier.SERVER: {"server"},
             Tier.BOTH: {"client", "server"}}


def test_classification_matches_set_semantics():
    # All 18 (caller, callee, annotated) triples against the tier-set rule: a
    # call is local iff the caller's tiers are a subset of the callee's; a
    # remote call goes server-to-client iff the callee lacks the server, and
    # it violates iff it does so unannotated.
    for caller, callee, annotated in product(Tier, Tier, (False, True)):
        c = classify_single(caller, callee, annotated)
        local = TIER_SETS[caller] <= TIER_SETS[callee]
        s2c = not local and "server" not in TIER_SETS[callee]
        assert c.local is local
        assert c.violating is (s2c and not annotated)
        assert c.direction is (None if local else Direction.SERVER_TO_CLIENT if s2c
                               else Direction.CLIENT_TO_SERVER)
        assert violations([c]) == ([c] if c.violating else [])


def test_config_slice_takes_its_tier_from_the_placement():
    # A placement may widen a @config slice (criterion 8 does); its tier then
    # comes from the placement, not from the problem's fixed map.
    problem = PlacementProblem(slices=("srv", "cli"), fixed={"srv": Tier.SERVER},
                               calls=(CallRecord("srv", "cli", "f"),))
    as_fixed = Placement(fixed={"srv": Tier.SERVER}, searched={"cli": Tier.CLIENT})
    widened = Placement(searched={"srv": Tier.BOTH, "cli": Tier.CLIENT})
    moved = Placement(searched={"srv": Tier.CLIENT, "cli": Tier.CLIENT})
    (fixed_call,) = classify_calls(problem, as_fixed)
    (widened_call,) = classify_calls(problem, widened)
    (moved_call,) = classify_calls(problem, moved)
    assert (fixed_call.local, fixed_call.violating) == (False, True)
    assert (widened_call.local, widened_call.violating) == (False, True)
    assert (moved_call.local, moved_call.violating) == (True, False)
    assert not is_valid(problem, widened)[0] and is_valid(problem, moved)[0]


def test_widening_a_callee_never_flips_local_to_remote():
    # classification monotonicity: growing the callee tier set keeps calls local
    for caller, callee in product(Tier, repeat=2):
        before = classify_single(caller, callee)
        if before.local and callee is not Tier.BOTH:
            after = classify_single(caller, Tier.BOTH)
            assert after.local
