"""tierslicer: slice-based tier assignment for tierless web programs.

Parses TierJS source divided into named slices, builds a program dependence
graph, searches for a tier placement maximizing offline availability, checks
placement validity, and emits refinement advice.

The public names below are resolved on first access (PEP 562), so importing
the package, or ``tierslicer.cli``, loads no stage until it is used, and
only the search loads numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name's home module.
_HOME = {
    name: module
    for module, names in (
        ("advisor", ("advise", "apply_advice", "refine_loop")),
        ("depgraph", ("build_pdg", "collapse_to_slice_graph", "placement_problem")),
        ("exact", ("exhaustive_oracle",)),
        ("fitness", ("evaluate",)),
        ("frontend", ("emit", "parse", "resolve_calls")),
        ("model", ("AdvisorConfig", "CallRecord", "Direction", "GaConfig", "PlacementProblem",
                   "SHARED", "Tier")),
        ("placement", ("Placement", "classify_calls", "is_valid")),
        ("search", ("run", "run_many")),
    )
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    # Not cached in the package: a name always reads its home module's
    # current binding.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
