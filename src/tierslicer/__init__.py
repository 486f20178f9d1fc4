"""tierslicer: slice-based tier assignment for tierless web programs.

Parses TierJS source divided into named slices, builds a program dependence
graph, searches for a tier placement maximizing offline availability, checks
placement validity, and emits refinement advice.
"""

from .advisor import AdvisorConfig, advise, apply_advice, refine_loop
from .depgraph import build_pdg, collapse_to_slice_graph, placement_problem
from .fitness import evaluate
from .frontend import emit, parse, resolve_calls
from .model import SHARED, CallRecord, Direction, PlacementProblem, Tier
from .placement import Placement, classify_calls, is_valid
from .search import GaConfig, exhaustive_oracle, run, run_many

__version__ = "0.1.0"

__all__ = [
    "AdvisorConfig",
    "CallRecord",
    "Direction",
    "GaConfig",
    "Placement",
    "PlacementProblem",
    "SHARED",
    "Tier",
    "advise",
    "apply_advice",
    "build_pdg",
    "classify_calls",
    "collapse_to_slice_graph",
    "emit",
    "evaluate",
    "exhaustive_oracle",
    "is_valid",
    "parse",
    "placement_problem",
    "refine_loop",
    "resolve_calls",
    "run",
    "run_many",
]
