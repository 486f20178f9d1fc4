"""Core placement-domain types shared by the graph, fitness and search layers.

A placement problem is deliberately tiny: an ordered slice list, the fixed
tier map, and the resolved in-slice call table.  Everything the fitness and
search machinery needs fits in this structure, which also makes it easy to
build synthetic problems in tests without going through TierJS source.

This module also holds what the CLI reads before it runs a stage: the GA and
advisor configurations, the oracle cap, the refinement bound, and
``call_rule``, the one definition of which calls are local and which violate
validity.  It imports no numpy, so a command that runs no search never loads
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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


def call_rule(a, b, annotated):
    """(local, violating) for calls whose ends have tier masks ``a`` and ``b``:
    local iff a is a subset of b; violating iff remote, from a server-side
    caller to a callee off the server, without @reply or @broadcast.  It reads
    alike for one call on Python ints and for many on numpy arrays."""
    local = (a & (3 ^ b)) == 0
    return local, (local == 0) & ((a & 2) != 0) & ((b & 2) == 0) & (annotated == 0)


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

    @cached_property
    def unplaced(self) -> tuple:
        """The slices without a fixed tier, in slice order; read once, as
        nothing changes ``slices`` or ``fixed`` after construction."""
        return tuple(s for s in self.slices if s not in self.fixed)


ORACLE_CAP = 12  # the most unplaced slices the oracle takes by default and the GA scores by table
MAX_REFINE_ITERATIONS = 10  # advice integrations before refine_loop stops by default


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 30
    max_generations: int = 300
    crossover_prob: float = 0.6
    mutation_prob: float = 0.6
    tournament_size: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.crossover_prob <= 1.0 or not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
        if self.population_size < 2:
            raise ValueError("population size must be >= 2")
        if self.max_generations < 1:
            raise ValueError("max generations must be >= 1")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError("tournament size must be in [1, population size]")
        if self.rng_seed < 0:
            raise ValueError("RNG seed must be >= 0")


@dataclass(frozen=True)
class AdvisorConfig:
    move_threshold: float = 0.2  # relative difference (R - L) / (R + L)

    def __post_init__(self):
        if not 0.0 <= self.move_threshold < 1.0:
            raise ValueError("move threshold must lie in [0, 1)")
