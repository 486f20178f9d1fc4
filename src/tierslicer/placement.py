"""Tier assignments, local/remote call classification and validity checking.

A call from slice A to slice B is local iff tiers(A) is a subset of tiers(B)
(with Both = {client, server}); shared callees are always local.  A placement
is invalid iff some remote call needs a server-to-client hop and its call
site carries neither @reply nor @broadcast.  ``classify_placement`` applies
that rule's one definition, ``model.call_rule``, call by call in plain
Python, so ``classify_calls``, ``is_valid`` and ``fitness.evaluate`` need no
numpy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import MissingPlacementError
from .model import SHARED, CallRecord, Direction, PlacementProblem, Tier, call_rule


@dataclass
class Placement:
    fixed: dict = field(default_factory=dict)  # name -> Tier.CLIENT/SERVER
    searched: dict = field(default_factory=dict)  # name -> Tier

    def __post_init__(self):
        overlap = set(self.fixed) & set(self.searched)
        if overlap:
            raise ValueError(f"slices in both fixed and searched maps: {sorted(overlap)}")

    def tier(self, slice_name: str) -> Tier:
        if slice_name in self.fixed:
            return self.fixed[slice_name]
        if slice_name in self.searched:
            return self.searched[slice_name]
        raise MissingPlacementError(f"no tier for slice {slice_name!r}")

    def mask(self, slice_name: str) -> int:
        return self.tier(slice_name).mask

    def to_json(self) -> str:
        payload = {
            "fixed": {k: v.value for k, v in sorted(self.fixed.items())},
            "searched": {k: v.value for k, v in sorted(self.searched.items())},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "Placement":
        """Read ``{"fixed": {slice: tier}, "searched": {slice: tier}}``; a
        payload of another shape raises ValueError."""
        payload = json.loads(text)
        if not (isinstance(payload, dict)
                and all(isinstance(payload.get(k, {}), dict) for k in ("fixed", "searched"))):
            raise ValueError('expected {"fixed": {slice: tier}, "searched": {slice: tier}}')
        return Placement(
            fixed={k: Tier(v) for k, v in payload.get("fixed", {}).items()},
            searched={k: Tier(v) for k, v in payload.get("searched", {}).items()},
        )


@dataclass(frozen=True)
class ClassifiedCall:
    record: CallRecord
    local: bool
    direction: Direction | None = None  # remote calls only
    violating: bool = False  # remote server-to-client without @reply/@broadcast


# A remote call's direction, by its callee's mask: the callee holds one tier.
_TOWARD = {1: Direction.SERVER_TO_CLIENT, 2: Direction.CLIENT_TO_SERVER}


def classify_placement(problem: PlacementProblem, placement: Placement) -> list:
    """Per call, ``(callee mask, local, violating)`` under the placement;
    every tier, @config ones included, comes from the placement, and shared
    callees carry mask 3, so they are always local."""
    mask = {SHARED: 3, **{name: placement.mask(name) for name in problem.slices}}
    out = []
    for rec in problem.calls:
        callee = mask[rec.callee]
        out.append((callee, *call_rule(mask[rec.caller], callee, rec.annotated)))
    return out


def classify_calls(problem: PlacementProblem, placement: Placement) -> list:
    """Label every resolved call Local or Remote under the placement."""
    return [
        ClassifiedCall(rec, local, None if local else _TOWARD[callee], bad)
        for rec, (callee, local, bad) in zip(problem.calls, classify_placement(problem, placement))
    ]


def violations(classified) -> list:
    """Remote server-to-client calls lacking @reply/@broadcast."""
    return [c for c in classified if c.violating]


def is_valid(problem: PlacementProblem, placement: Placement):
    """Returns (verdict, violating classified calls)."""
    bad = violations(classify_calls(problem, placement))
    return (not bad, bad)
