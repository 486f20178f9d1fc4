"""Hot kernel: batch fitness + validity evaluation over placement genomes.

This module compiles a placement problem's call table into flat arrays and
evaluates whole genome batches at once with numpy.  ``eval_population`` is
the genetic search's evaluator past ``search.ORACLE_CAP`` genes; up to the
cap the search reads ``build_scores``'s table instead.

``_call_rule`` is tierslicer's one definition of which calls are local and
which violate validity.  ``classify_rows`` applies it per row and call, and
``eval_population``, ``build_scores`` and ``placement.classify_placement``
(so ``classify_calls``, ``is_valid`` and ``fitness.evaluate`` too) all read
it.

Genomes are int8 vectors of tier masks (client=1, server=2, both=3), one
gene per unplaced slice in problem order.  A row's fitness is its local call
count divided by the call count, the same double ``fitness.evaluate``
computes for the placement.

``build_scores`` scores every one of the 3^n genomes at once, for the
exhaustive oracle and for the genetic search within the cap.  Each call's
locality and validity depend on at most two genes, so the calls are summed
into one small table per pair of genes (a constant, a 3-vector or a 3x3
table).  The array indexed by the genome is then grown one gene axis at a
time, in the reverse Cuthill-McKee order of the gene-interaction graph
(Cuthill & McKee, *Reducing the bandwidth of sparse symmetric matrices*, ACM
'69): a gene's vector and its tables with the genes added before it form one
step table, and one broadcast add puts its axis outermost.  So numpy's inner
loop runs over every gene added before the step's earliest partner, which
that order puts late, and the scores are held in the narrowest integer type
that holds them.  Every genome is still scored, with about 1.5 * 3^n
additions in all and no per-genome gather.
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
    """One gene per unplaced slice; the @config slices keep their fixed masks."""
    return compile_genes(problem, problem.unplaced)


def compile_genes(problem: PlacementProblem, genes: tuple) -> CompiledProblem:
    """One gene per slice in ``genes``, in order; any other slice is fixed."""
    gene_of = {name: i for i, name in enumerate(genes)}
    # Genes read no mask; shared callees carry mask 3, so they are always local.
    mask_of = {SHARED: 3, **{s: t.mask for s, t in problem.fixed.items()}, **dict.fromkeys(genes, 0)}
    callers = [rec.caller for rec in problem.calls]
    callees = [rec.callee for rec in problem.calls]
    return CompiledProblem(
        unplaced=tuple(genes),
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


def _call_rule(a, b, ann):
    """(local, violating) for calls whose ends have tier masks ``a`` and ``b``:
    local iff a is a subset of b; violating iff remote, from a server-side
    caller to a callee off the server, without @reply or @broadcast."""
    local = (a & (3 ^ b)) == 0
    return local, ~local & ((a & 2) != 0) & ((b & 2) == 0) & ~ann


def classify_rows(compiled: CompiledProblem, genomes: np.ndarray):
    """Per genome row and call: the callee's tier mask, and whether the call
    is local and whether it is violating, by ``_call_rule``."""
    genomes = np.ascontiguousarray(genomes, dtype=np.int8)
    if genomes.ndim != 2 or genomes.shape[1] != compiled.n_genes:
        raise ValueError("genome matrix shape does not match the problem")
    callee = _endpoint(genomes, compiled.callee_gene, compiled.callee_mask)
    caller = _endpoint(genomes, compiled.caller_gene, compiled.caller_mask)
    return (callee, *_call_rule(caller, callee, compiled.annotated))


def eval_population(compiled: CompiledProblem, genomes: np.ndarray):
    """Fitness and validity for each genome row.  Empty call tables score 1.0."""
    _, local, violating = classify_rows(compiled, genomes)
    if compiled.n_calls == 0:
        return np.ones(len(local)), np.ones(len(local), dtype=np.bool_)
    return local.sum(axis=1) / compiled.n_calls, ~violating.any(axis=1)


_MASKS = np.arange(1, 4, dtype=np.int8)


def build_order(n: int, edges) -> list:
    """Genes 0..n-1 in reverse Cuthill-McKee order over the gene-interaction
    graph with ``edges``: breadth-first from a lowest-degree gene, visiting
    neighbours by ascending degree with ties broken by gene index, one
    component after another; then reversed, so that each breadth-first start
    comes last."""
    neighbours = [set() for _ in range(n)]
    for g, h in edges:
        neighbours[g].add(h)
        neighbours[h].add(g)

    def by_degree(g):
        return len(neighbours[g]), g

    seen, order = set(), []
    for start in sorted(range(n), key=by_degree):
        if start in seen:
            continue
        seen.add(start)
        head = len(order)
        order.append(start)
        while head < len(order):
            fresh = sorted(neighbours[order[head]] - seen, key=by_degree)
            seen.update(fresh)
            order += fresh
            head += 1
    return order[::-1]


def build_scores(compiled: CompiledProblem):
    """Score every genome, in build order: returns ``(scores, genes)``, where
    ``scores`` has shape ``(3,) * n_genes``, is indexed by mask - 1 in C
    order and holds gene ``genes[j]`` on axis j.

    An entry is the genome's local call count minus ``n_calls + 1`` for each
    violating call, so it is >= 0 exactly when the placement is valid.  Every
    partial sum lies in ``[-(n_calls + 1) * n_calls, n_calls]``, so the scores
    are held in the narrowest signed integer type that holds that range.

    Constants start the array as a scalar; one-gene terms and calls inside
    one slice become a 3-vector per gene; the genes are then added in
    ``build_order``, each as the new outermost axis (see the module notes).
    """
    n, ncalls = compiled.n_genes, compiled.n_calls
    dtype = np.min_scalar_type(-(ncalls + 1) * max(ncalls, 1))  # int8 with no calls
    cg, eg = compiled.caller_gene, compiled.callee_gene
    # Each call's score over its 3x3 grid of (caller, callee) masks; a fixed
    # end, shared callees included, keeps its own mask along its axis.
    a = np.where(cg[:, None] >= 0, _MASKS, compiled.caller_mask[:, None])
    b = np.where(eg[:, None] >= 0, _MASKS, compiled.callee_mask[:, None])
    local, bad = _call_rule(a[:, :, None], b[:, None, :], compiled.annotated[:, None, None])
    grid = local.astype(np.int64) - (ncalls + 1) * bad
    # Orient every grid as (lower gene, higher gene), a fixed end counting as
    # gene -1, and sum the grids of calls with the same pair of genes.
    swap = cg > eg
    grid[swap] = grid[swap].transpose(0, 2, 1)
    keys, term_of = np.unique((np.minimum(cg, eg) + 1) * (n + 1) + np.maximum(cg, eg) + 1,
                              return_inverse=True)
    terms = np.zeros((len(keys), 3, 3), dtype=np.int64)
    np.add.at(terms, term_of, grid)
    pairs = [(k // (n + 1) - 1, k % (n + 1) - 1) for k in keys.tolist()]
    order = build_order(n, [(g, h) for g, h in pairs if 0 <= g < h])
    place = {gene: k for k, gene in enumerate(order)}
    constant = np.zeros((), dtype=dtype)
    vector = np.zeros((n, 3), dtype=dtype)
    earlier = [[] for _ in range(n)]  # per build place: (earlier place, 3x3 table)
    for (g, h), term in zip(pairs, terms.astype(dtype)):
        if h < 0:  # both ends fixed
            constant += term[0, 0]
        elif g < 0:  # one gene
            vector[h] += term[0]
        elif g == h:  # both ends in one unplaced slice
            vector[h] += term.diagonal()
        elif place[g] < place[h]:  # the table indexed (later gene, earlier gene)
            earlier[place[h]].append((place[g], term.T))
        else:
            earlier[place[g]].append((place[h], term))
    scores = constant
    for k, h in enumerate(order):
        # Gene h's step table spans its own axis, the new outermost one, and
        # the axes of its earlier partners: the one added at place p sits on
        # axis k - p.  One broadcast add prepends h's axis.
        step = vector[h].reshape((3,) + (1,) * k)
        for p, table in earlier[k]:
            shape = [1] * (k + 1)
            shape[0] = shape[k - p] = 3
            step = step + table.reshape(shape)
        scores = step + scores[None]
    return scores, order[::-1]

