"""Offline-availability fitness of a placement.

Per slice: the fraction of its calls that stay local (1.0 for call-free
slices, which then carry zero weight).  Per program: the ratio of local calls
to total calls (1.0 with no calls), which is the call-count-weighted mean over
slices and the double ``kernels.eval_population`` reads from the pair terms
for the placement's genome.  Both sums run over ``classify_placement``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import PlacementProblem
from .placement import Placement, classify_placement


@dataclass
class SliceFitness:
    offline_fraction: float
    local_calls: int
    total_calls: int


@dataclass
class FitnessReport:
    per_slice: dict = field(default_factory=dict)  # name -> SliceFitness
    program: float = 1.0
    valid: bool = True


def evaluate(problem: PlacementProblem, placement: Placement) -> FitnessReport:
    classified = classify_placement(problem, placement)
    total = dict.fromkeys(problem.slices, 0)
    mine = dict.fromkeys(problem.slices, 0)
    for rec, (_, local, _) in zip(problem.calls, classified):
        total[rec.caller] += 1
        mine[rec.caller] += local
    per_slice = {
        name: SliceFitness(mine[name] / t if t else 1.0, mine[name], t)
        for name, t in total.items()
    }
    n_calls = len(problem.calls)
    return FitnessReport(
        per_slice=per_slice,
        program=sum(mine.values()) / n_calls if n_calls else 1.0,
        valid=not any(bad for _, _, bad in classified),
    )


def offline_percent(value: float) -> int:
    """Rounded integer percent used by the report header."""
    return int(round(value * 100))


def report_header(value: float) -> str:
    """The first line of every fitness and advice report."""
    return f"Application level of offline availability: {offline_percent(value)} %"
