"""Hot kernel: a placement problem's scores as pair terms, and the two
scorers that read them.

Genomes are int8 vectors of tier masks (client=1, server=2, both=3), one
gene per unplaced slice in problem order.  A genome's score is its local
call count minus ``n_calls + 1`` for each violating call, so it is >= 0
exactly when the placement is valid, and the local count, which lies in
``[0, n_calls]``, is the score modulo ``n_calls + 1``.  A row's fitness is
that count over the call count, the double ``fitness.evaluate`` computes.

Each call's locality and validity depend on at most two genes, so a score is
a constant plus one entry of a 3x3 table per gene and per linked pair of
genes, which ``compile_problem`` sums with one ``np.bincount`` (Kolmogorov &
Zabih's pairwise form, as in ``exact``).  ``eval_population``, the genetic
search's evaluator past ``search.ORACLE_CAP`` genes, gathers each row's
entries; ``build_scores`` adds the tables into the score of every one of the
3^n genomes, for the search within the cap.

``model.call_rule`` is tierslicer's one definition of which calls are local
and which violate validity.  ``compile_problem`` applies it to numpy arrays;
``placement.classify_calls`` (so ``is_valid`` and ``fitness.evaluate`` too)
applies it call by call to Python ints, and ``exact._arcs`` encodes it as
the arcs of a cut.  Only the search imports this module, so only the
commands that search load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SHARED, PlacementProblem, call_rule


@dataclass
class CompiledProblem:
    unplaced: tuple  # slice names, genome order
    n_calls: int
    constant: int  # the score of the calls with no gene at either end
    ends: np.ndarray  # intp, shape (2, tables): each table's genes g <= h
    tables: np.ndarray  # int64, (tables, 3, 3), [g's mask - 1, h's mask - 1]; (g, g) on the diagonal

    @property
    def n_genes(self) -> int:
        return len(self.unplaced)


# A call end's masks over the 3x3 grid of its table: code 0 for a gene on
# axis 0, 1 for a gene on axis 1, and m + 1 for a fixed mask m.
_ENDS = np.stack([np.broadcast_to(end, (3, 3)) for end in ([[1], [2], [3]], [1, 2, 3], 1, 2, 3)])
_CELLS = 1 << 14  # entries gathered at once: a larger block costs fresh pages


def compile_problem(problem: PlacementProblem) -> CompiledProblem:
    """One gene per unplaced slice; the @config slices keep their fixed masks.

    A call's table is that of its two end genes, the lower gene on axis 0.
    A fixed end holds its mask over the whole grid, so a call with one gene
    is constant along the other axis and joins that gene's own ``(g, g)``
    table, which is read on its diagonal; a call with no gene joins table 0,
    whose every entry is the constant.  ``call_rule`` scores every call on
    its grid at once, and one ``np.bincount`` sums the grids of each table.
    """
    genes = problem.unplaced
    ncalls = len(problem.calls)
    gene_of = {name: i for i, name in enumerate(genes)}
    # Shared callees carry mask 3, so they are always local.
    mask_of = {SHARED: 3, **{s: t.mask for s, t in problem.fixed.items()}}
    group, rows = {(-1, -1): 0}, []  # table index by its genes, in order of first call
    for rec in problem.calls:
        g, h = gene_of.get(rec.caller, -1), gene_of.get(rec.callee, -1)
        lo, hi = sorted((g if g >= 0 else h, h if h >= 0 else g))
        rows.append((group.setdefault((lo, hi), len(group)),
                     mask_of[rec.caller] + 1 if g < 0 else int(g != lo),
                     mask_of[rec.callee] + 1 if h < 0 else int(h != lo), rec.annotated))
    table, a, b, annotated = np.array(rows, dtype=np.intp).reshape(ncalls, 4).T
    local, bad = call_rule(_ENDS[a], _ENDS[b], annotated[:, None, None])
    terms = np.bincount((table[:, None] * 9 + np.arange(9)).ravel(),
                        (local - (ncalls + 1) * bad).ravel(), minlength=len(group) * 9)
    terms = terms.astype(np.int64).reshape(-1, 3, 3)
    return CompiledProblem(genes, ncalls, int(terms[0, 0, 0]),
                           np.array(list(group)[1:], dtype=np.intp).reshape(-1, 2).T, terms[1:])


def eval_population(compiled: CompiledProblem, genomes: np.ndarray):
    """Fitness and validity for each genome row, from its score: the constant
    plus the row's entry in every table.  Empty call tables score 1.0."""
    genomes = np.asarray(genomes, dtype=np.int8)
    if genomes.ndim != 2 or genomes.shape[1] != compiled.n_genes:
        raise ValueError("genome matrix shape does not match the problem")
    if compiled.n_calls == 0:
        return np.ones(len(genomes)), np.ones(len(genomes), dtype=np.bool_)
    # Table k's entry for masks (a, b) sits at flat index 9k + 3a + b - 4.
    flat, (g, h) = compiled.tables.ravel(), compiled.ends
    offset = np.arange(-4, 9 * len(g) - 4, 9)[:, None]
    cols = np.ascontiguousarray(genomes.T)
    score = np.full(len(genomes), compiled.constant, dtype=np.int64)
    step = max(1, _CELLS // max(len(genomes), 1))
    for k in range(0, len(g), step):
        cells = 3 * cols[g[k:k + step]] + cols[h[k:k + step]] + offset[k:k + step]
        score += flat[cells].sum(axis=0)
    return np.mod(score, compiled.n_calls + 1) / compiled.n_calls, score >= 0


def build_scores(compiled: CompiledProblem) -> np.ndarray:
    """Score every genome: an array of shape ``(3,) * n_genes`` indexed by
    mask - 1, gene 0 outermost, so the flat index is the genome index.

    Every partial sum is a sum over some calls of their scores, so it fits
    the narrowest signed type holding ``[-(n_calls + 1) * n_calls,
    n_calls]``.  The genes are added from last to first, each as the new
    outermost axis, by one broadcast add of its step: the tables whose lower
    gene it is, gene h on axis h - g.
    """
    n, ncalls = compiled.n_genes, compiled.n_calls
    dtype = np.min_scalar_type(-(ncalls + 1) * max(ncalls, 1))  # int8 with no calls
    steps = [np.zeros((3,) + (1,) * (n - 1 - g), dtype) for g in range(n)]
    for (g, h), table in zip(compiled.ends.T.tolist(), compiled.tables.astype(dtype)):
        shape = [1] * (n - g)
        shape[0] = shape[h - g] = 3
        steps[g] = steps[g] + (table.diagonal() if g == h else table).reshape(shape)
    scores = np.asarray(compiled.constant, dtype)
    for step in reversed(steps):
        scores = step + scores[None]
    return scores
