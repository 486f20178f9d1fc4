"""Hot kernel: batch fitness + validity evaluation over placement genomes.

The genetic search and the exhaustive oracle both evaluate thousands to
millions of candidate placements; this module compiles a placement problem's
call table into flat arrays and evaluates whole genome batches at once with
numpy.

Genomes are int8 vectors of tier masks (client=1, server=2, both=3), one
gene per unplaced slice in problem order.  A row's fitness is its local call
count divided by the call count, the same double ``fitness.evaluate``
computes for the placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SHARED, PlacementProblem


@dataclass
class CompiledProblem:
    unplaced: tuple  # slice names, genome order
    caller_gene: np.ndarray  # int32, -1 when the caller is fixed
    caller_mask: np.ndarray  # int8, used when caller_gene < 0
    callee_gene: np.ndarray
    callee_mask: np.ndarray  # shared callees carry mask 3 (always local)
    annotated: np.ndarray  # bool, @reply/@broadcast on the call site

    @property
    def n_genes(self) -> int:
        return len(self.unplaced)

    @property
    def n_calls(self) -> int:
        return len(self.caller_gene)


def compile_problem(problem: PlacementProblem) -> CompiledProblem:
    unplaced = problem.unplaced
    gene_of = {name: i for i, name in enumerate(unplaced)}
    cg, cm, eg, em, ann = [], [], [], [], []
    for rec in problem.calls:
        cg.append(gene_of.get(rec.caller, -1))
        cm.append(0 if rec.caller in gene_of else problem.fixed[rec.caller].mask)
        if rec.callee == SHARED:
            eg.append(-1)
            em.append(3)
        else:
            eg.append(gene_of.get(rec.callee, -1))
            em.append(0 if rec.callee in gene_of else problem.fixed[rec.callee].mask)
        ann.append(rec.annotated)
    return CompiledProblem(
        unplaced=unplaced,
        caller_gene=np.asarray(cg, dtype=np.int32),
        caller_mask=np.asarray(cm, dtype=np.int8),
        callee_gene=np.asarray(eg, dtype=np.int32),
        callee_mask=np.asarray(em, dtype=np.int8),
        annotated=np.asarray(ann, dtype=np.bool_),
    )


def _endpoint(genomes, gene, mask):
    """Each row's tier mask at one end of every call: its gene, or its fixed mask."""
    if genomes.shape[1] == 0:  # no genes: every end is fixed
        return np.broadcast_to(mask, (genomes.shape[0], len(mask)))
    return np.where(gene >= 0, genomes[:, np.maximum(gene, 0)], mask)


def _eval_numpy(genomes, cg, cm, eg, em, ann):
    pop = genomes.shape[0]
    ncalls = cg.shape[0]
    if ncalls == 0:
        return np.ones(pop, dtype=np.float64), np.ones(pop, dtype=np.bool_)
    a = _endpoint(genomes, cg, cm)
    b = _endpoint(genomes, eg, em)
    local = (a & (3 ^ b)) == 0
    fitness = local.sum(axis=1) / ncalls
    bad = ~local & ((a & 2) != 0) & ((b & 2) == 0) & ~ann
    return fitness.astype(np.float64), ~bad.any(axis=1)


def eval_population(compiled: CompiledProblem, genomes: np.ndarray):
    """Fitness and validity for each genome row.  Empty call tables score 1.0."""
    genomes = np.ascontiguousarray(genomes, dtype=np.int8)
    if genomes.ndim != 2 or genomes.shape[1] != compiled.n_genes:
        raise ValueError("genome matrix shape does not match the problem")
    return _eval_numpy(
        genomes,
        compiled.caller_gene,
        compiled.caller_mask,
        compiled.callee_gene,
        compiled.callee_mask,
        compiled.annotated,
    )
