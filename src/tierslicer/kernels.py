"""Hot kernel: batch fitness + validity evaluation over placement genomes.

This module compiles a placement problem's call table into flat arrays and
evaluates whole genome batches at once with numpy.  ``eval_population`` is
the genetic search's evaluator past ``search.ORACLE_CAP`` genes; up to the
cap the search reads ``build_scores``'s table instead.  Only the search
imports this module, so only the commands that search load numpy.

``model.call_rule`` is tierslicer's one definition of which calls are local
and which violate validity.  ``classify_rows`` and ``build_scores`` apply it
to numpy arrays; ``placement.classify_placement`` (so ``classify_calls``,
``is_valid`` and ``fitness.evaluate`` too) applies it call by call to Python
ints, and ``exact._arcs`` encodes it as the arcs of a cut.

Genomes are int8 vectors of tier masks (client=1, server=2, both=3), one
gene per unplaced slice in problem order.  A row's fitness is its local call
count divided by the call count, the same double ``fitness.evaluate``
computes for the placement.

``build_scores`` scores every one of the 3^n genomes at once, for the
genetic search within the cap.  Each call's locality and validity depend on
at most two genes, so one ``np.bincount`` sums the calls into a dense table
per pair of genes, and the array indexed by the genome then grows one gene
axis at a time, from the last gene to the first, by one broadcast add each.
The scores are held in the narrowest integer type that holds them.  The
exact optimum comes from ``exact.optimum``, which builds no such array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SHARED, PlacementProblem, call_rule


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
    """One gene per unplaced slice; the @config slices keep their fixed masks."""
    genes = problem.unplaced
    gene_of = {name: i for i, name in enumerate(genes)}
    # Genes read no mask; shared callees carry mask 3, so they are always local.
    mask_of = {SHARED: 3, **{s: t.mask for s, t in problem.fixed.items()}, **dict.fromkeys(genes, 0)}
    callers = [rec.caller for rec in problem.calls]
    callees = [rec.callee for rec in problem.calls]
    return CompiledProblem(
        unplaced=genes,
        caller_gene=np.array([gene_of.get(s, -1) for s in callers], dtype=np.int32),
        caller_mask=np.array([mask_of[s] for s in callers], dtype=np.int8),
        callee_gene=np.array([gene_of.get(s, -1) for s in callees], dtype=np.int32),
        callee_mask=np.array([mask_of[s] for s in callees], dtype=np.int8),
        annotated=np.array([rec.annotated for rec in problem.calls], dtype=np.bool_),
    )


def _endpoint(genomes, gene, mask):
    """Each row's tier mask at one end of every call: its gene, or its fixed mask."""
    if genomes.shape[1] == 0:  # no genes: every end is fixed
        return np.broadcast_to(mask, (genomes.shape[0], len(mask)))
    return np.where(gene >= 0, genomes[:, np.maximum(gene, 0)], mask)


def classify_rows(compiled: CompiledProblem, genomes: np.ndarray):
    """Per genome row and call: the callee's tier mask, and whether the call
    is local and whether it is violating, by ``call_rule``."""
    genomes = np.ascontiguousarray(genomes, dtype=np.int8)
    if genomes.ndim != 2 or genomes.shape[1] != compiled.n_genes:
        raise ValueError("genome matrix shape does not match the problem")
    callee = _endpoint(genomes, compiled.callee_gene, compiled.callee_mask)
    caller = _endpoint(genomes, compiled.caller_gene, compiled.caller_mask)
    return (callee, *call_rule(caller, callee, compiled.annotated))


def eval_population(compiled: CompiledProblem, genomes: np.ndarray):
    """Fitness and validity for each genome row.  Empty call tables score 1.0."""
    _, local, violating = classify_rows(compiled, genomes)
    if compiled.n_calls == 0:
        return np.ones(len(local)), np.ones(len(local), dtype=np.bool_)
    return local.sum(axis=1) / compiled.n_calls, ~violating.any(axis=1)


_MASKS = np.arange(1, 4, dtype=np.int8)


def build_scores(compiled: CompiledProblem) -> np.ndarray:
    """Score every genome: an array of shape ``(3,) * n_genes`` indexed by
    mask - 1, gene 0 outermost, so the flat index is the genome index.

    An entry is the genome's local call count minus ``n_calls + 1`` for each
    violating call, so it is >= 0 exactly when the placement is valid, and
    every partial sum fits the narrowest signed type holding
    ``[-(n_calls + 1) * n_calls, n_calls]``.  One ``np.bincount`` sums every
    call's 3x3 grid of (caller, callee) mask scores into a dense table per
    ordered pair of end genes, a fixed end counting as gene -1.  The genes are
    then added from last to first, each as the new outermost axis, by one
    broadcast add of its step table: its 3-vector and its tables with the
    genes after it, gene h on axis h - g.
    """
    n, ncalls = compiled.n_genes, compiled.n_calls
    dtype = np.min_scalar_type(-(ncalls + 1) * max(ncalls, 1))  # int8 with no calls
    cg, eg = compiled.caller_gene, compiled.callee_gene
    # A fixed end, shared callees included, keeps its own mask along its axis.
    a = np.where(cg[:, None] >= 0, _MASKS, compiled.caller_mask[:, None])
    b = np.where(eg[:, None] >= 0, _MASKS, compiled.callee_mask[:, None])
    local, bad = call_rule(a[:, :, None], b[:, None, :], compiled.annotated[:, None, None])
    cells = ((cg + 1) * (n + 1) + eg + 1)[:, None] * 9 + np.arange(9)
    terms = np.bincount(cells.ravel(), (local - (ncalls + 1) * bad).ravel(),
                        minlength=(n + 1) ** 2 * 9)
    terms = terms.astype(dtype).reshape(n + 1, n + 1, 3, 3)  # [caller + 1, callee + 1]
    pair = terms[1:, 1:]
    # A fixed caller's row 0, a fixed callee's column 0 and the diagonal of
    # the calls within one slice.
    own = np.arange(n)
    vector = terms[0, 1:, 0] + terms[1:, 0, :, 0] + pair[own, own].diagonal(axis1=1, axis2=2)
    pair = pair + pair.transpose(1, 0, 3, 2)  # [g, h] indexed (g's mask, h's mask)
    # A call from the client to the client is local, so the (client, client)
    # entry counts the calls between two genes.
    linked = pair[:, :, 0, 0].tolist()
    scores = np.asarray(terms[0, 0, 0, 0])
    for g in range(n - 1, -1, -1):
        step = vector[g].reshape((3,) + (1,) * (n - 1 - g))
        for h in range(g + 1, n):
            if linked[g][h]:
                shape = [1] * (n - g)
                shape[0] = shape[h - g] = 3
                step = step + pair[g, h].reshape(shape)
        scores = step + scores[None]
    return scores
