"""Offline-availability fitness of a placement.

Per slice: the fraction of its calls that stay local (1.0 for call-free
slices, which then carry zero weight).  Per program: the ratio of local calls
to total calls (1.0 with no calls), which is the call-count-weighted mean over
slices and the same double ``kernels.eval_population`` returns for the
placement's genome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import PlacementProblem
from .placement import Placement, classify_calls, violations


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
    classified = classify_calls(problem, placement)
    counts = {name: [0, 0] for name in problem.slices}  # name -> [local, total]
    local = 0
    for c in classified:
        entry = counts[c.record.caller]
        entry[0] += c.local
        entry[1] += 1
        local += c.local
    per_slice = {
        name: SliceFitness(mine / total if total else 1.0, mine, total)
        for name, (mine, total) in counts.items()
    }
    return FitnessReport(
        per_slice=per_slice,
        program=local / len(classified) if classified else 1.0,
        valid=not violations(classified),
    )


def offline_percent(value: float) -> int:
    """Rounded integer percent used by the report header."""
    return int(round(value * 100))


def report_header(value: float) -> str:
    """The first line of every fitness and advice report."""
    return f"Application level of offline availability: {offline_percent(value)} %"
