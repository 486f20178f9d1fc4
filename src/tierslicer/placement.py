"""Tier assignments, local/remote call classification and validity checking.

A call from slice A to slice B is local iff tiers(A) is a subset of tiers(B)
(with Both = {client, server}); shared callees are always local.  A placement
is invalid iff some remote call needs a server-to-client hop and its call
site carries neither @reply nor @broadcast.  ``classify_calls`` reads that
rule from its one definition, ``kernels._call_rule``, through
``kernels.classify_rows`` on the placement's one row of tier masks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MissingPlacementError
from .kernels import classify_rows, compile_genes
from .model import CallRecord, Direction, PlacementProblem, Tier


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


def classify_placement(problem: PlacementProblem, placement: Placement):
    """The placement as one row with every slice a gene, so every tier,
    @config ones included, comes from the placement: returns the compiled
    problem and, per call, the callee's tier mask and whether the call is
    local and whether it is violating."""
    compiled = compile_genes(problem, problem.slices)
    row = np.array([[placement.mask(name) for name in problem.slices]], dtype=np.int8)
    callee, local, violating = classify_rows(compiled, row)
    return compiled, callee[0], local[0], violating[0]


def classify_calls(problem: PlacementProblem, placement: Placement) -> list:
    """Label every resolved call Local or Remote under the placement."""
    _, callee, local, violating = classify_placement(problem, placement)
    return [
        ClassifiedCall(rec, is_local, None if is_local else _TOWARD[mask], bad)
        for rec, mask, is_local, bad in zip(problem.calls, callee.tolist(),
                                            local.tolist(), violating.tolist())
    ]


def violations(classified) -> list:
    """Remote server-to-client calls lacking @reply/@broadcast."""
    return [c for c in classified if c.violating]


def is_valid(problem: PlacementProblem, placement: Placement):
    """Returns (verdict, violating classified calls)."""
    bad = violations(classify_calls(problem, placement))
    return (not bad, bad)
