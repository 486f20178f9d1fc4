"""Offline-availability fitness of a placement.

Per slice: the fraction of its calls that stay local (1.0 for call-free
slices, which then carry zero weight).  Per program: the ratio of local calls
to total calls (1.0 with no calls), which is the call-count-weighted mean over
slices and the same double ``kernels.eval_population`` returns for the
placement's genome.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    compiled, _, local, violating = classify_placement(problem, placement)
    # Every slice is a gene, so a call's caller gene is its slice's index.
    n = len(problem.slices)
    total = np.bincount(compiled.caller_gene, minlength=n).tolist()
    mine = np.bincount(compiled.caller_gene[local], minlength=n).tolist()
    per_slice = {
        name: SliceFitness(m / t if t else 1.0, m, t)
        for name, m, t in zip(problem.slices, mine, total)
    }
    return FitnessReport(
        per_slice=per_slice,
        program=sum(mine) / compiled.n_calls if compiled.n_calls else 1.0,
        valid=not violating.any(),
    )


def offline_percent(value: float) -> int:
    """Rounded integer percent used by the report header."""
    return int(round(value * 100))


def report_header(value: float) -> str:
    """The first line of every fitness and advice report."""
    return f"Application level of offline availability: {offline_percent(value)} %"
