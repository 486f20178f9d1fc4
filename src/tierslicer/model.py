"""Core placement-domain types shared by the graph, fitness and search layers.

A placement problem is deliberately tiny: an ordered slice list, the fixed
tier map, and the resolved in-slice call table.  Everything the fitness and
search machinery needs fits in this structure, which also makes it easy to
build synthetic problems in tests without going through TierJS source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

# Owner marker for statements outside every slice.  Shared code is duplicated
# into whichever tier uses it, so shared callees are always local.
SHARED = "<shared>"


class Tier(Enum):
    CLIENT = "client"
    SERVER = "server"
    BOTH = "both"

    @property
    def mask(self) -> int:
        """Tier set as a 2-bit mask: client=1, server=2, both=3."""
        return _TIER_MASK[self]


_TIER_MASK = {Tier.CLIENT: 1, Tier.SERVER: 2, Tier.BOTH: 3}
TIER_FROM_MASK = {1: Tier.CLIENT, 2: Tier.SERVER, 3: Tier.BOTH}


class Direction(Enum):
    CLIENT_TO_SERVER = "client-to-server"
    SERVER_TO_CLIENT = "server-to-client"


@dataclass(frozen=True)
class CallRecord:
    """One resolved call site owned by a slice."""

    site_id: int
    caller: str  # owning slice name
    callee: str  # slice name or SHARED
    callee_name: str = ""
    annotated: bool = False  # carries @reply or @broadcast
    label: str = ""  # "file:line:col" for reports


@dataclass
class PlacementProblem:
    """Slice list, fixed tiers and call table of one program."""

    slices: tuple  # ordered slice names
    fixed: dict = field(default_factory=dict)  # name -> Tier.CLIENT/SERVER
    calls: tuple = ()  # CallRecord, stable order
    unresolved_calls: int = 0

    def __post_init__(self):
        self.slices = tuple(self.slices)
        self.calls = tuple(self.calls)
        for name, tier in self.fixed.items():
            if name not in self.slices:
                raise ValueError(f"fixed tier for unknown slice {name!r}")
            if tier is Tier.BOTH:
                raise ValueError("fixed slices may only be client or server")

    @property
    def unplaced(self) -> tuple:
        return tuple(s for s in self.slices if s not in self.fixed)
