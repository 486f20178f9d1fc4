"""Tier assignments, local/remote call classification and validity checking.

A call from slice A to slice B is local iff tiers(A) is a subset of tiers(B)
(with Both = {client, server}); shared callees are always local.  A placement
is invalid iff some remote call needs a server-to-client hop and its call
site carries neither @reply nor @broadcast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import MissingPlacementError
from .model import SHARED, CallRecord, Direction, PlacementProblem, Tier


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


def _direction(caller_mask: int, callee_mask: int) -> Direction:
    s2c = bool(caller_mask & 2) and not (callee_mask & 2)
    c2s = bool(caller_mask & 1) and not (callee_mask & 1)
    if s2c and c2s:
        return Direction.MIXED
    return Direction.SERVER_TO_CLIENT if s2c else Direction.CLIENT_TO_SERVER


def classify_calls(problem: PlacementProblem, placement: Placement) -> list:
    """Label every resolved call Local or Remote under the placement."""
    for name in problem.slices:
        placement.tier(name)  # raises MissingPlacement on gaps
    out = []
    for rec in problem.calls:
        if rec.callee == SHARED:
            out.append(ClassifiedCall(rec, True))
            continue
        caller_mask = placement.mask(rec.caller)
        callee_mask = placement.mask(rec.callee)
        if caller_mask & ~callee_mask & 3:
            out.append(ClassifiedCall(rec, False, _direction(caller_mask, callee_mask)))
        else:
            out.append(ClassifiedCall(rec, True))
    return out


def violations(classified) -> list:
    """Remote server-to-client (or mixed) calls lacking @reply/@broadcast."""
    return [
        c for c in classified
        if not c.local
        and c.direction in (Direction.SERVER_TO_CLIENT, Direction.MIXED)
        and not c.record.annotated
    ]


def is_valid(problem: PlacementProblem, placement: Placement):
    """Returns (verdict, violating classified calls)."""
    bad = violations(classify_calls(problem, placement))
    return (not bad, bad)
