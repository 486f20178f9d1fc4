"""Genetic search over tier placements.

Individuals are tier-mask genomes over the unplaced slices.  ``run_many``
advances all its independent runs together: their populations are stacked
into one ``(runs * population, genes)`` array, and each generation is one
batched step.  ``_Scorer`` scores every row; one ``np.lexsort`` ranks
them (by run, valid rows first, score descending, then a tie key); one
gather does every run's tournament selection over that run's valid rows
only; then ``_next_generation`` makes one uniform crossover of each parent
pair and one mutation that rewrites one position per child.  Invalid
individuals stay in the population (they may mutate back to validity) but
never parent.  Replacement is generational with 1-elitism on the best valid
individual.  A run stops at its first valid individual with fitness 1.0, once
settled (below) or after the generation budget, and then leaves the batch.

Before seeding, ``_closure_genome`` settles whether any placement is valid:
the slices that hold the server must be closed forward along unannotated
calls, so one exists iff the closure of the fixed server slices reaches no
slice fixed on the client, and if none exists ``run_many`` raises
``AllInvalidError``.  A run seeds up to ``_SEED_RETRIES`` random
populations; if none holds a valid row, row 0 of its last one becomes the
closure genome, which is valid, so no run fails its batch.

Up to ``ORACLE_CAP`` unplaced slices the rows are scored from
``kernels.build_scores``'s table, built once per ``run_many`` call: a row's
genome index, one product with the genes' place values, is its flat index
into the table and its tie key, and one gather reads its score.  A row is
valid iff its score is >= 0; its fitness is the score over the call count.
Past the cap ``kernels.eval_population`` scores the rows and the genome
columns are the tie keys.  Invalid rows steer nothing, as valid rows rank
first and only they enter tournaments, so both paths give the same runs.
Either way the tie keys order genomes lexicographically, gene 0 first.
``exact.optimum``'s minimum cut names the lexicographically smallest
optimum, and a run whose best row is that genome is settled: no genome
scores higher and every one that scores as high has a larger tie key, so its
elite ranks first in every later generation.  A settled run leaves the batch
at once, its history padded with that best fitness up to the budget, the
result its remaining generations would give.

Each run owns its random stream, ``np.random.default_rng(seed)``, and makes
the same draws in the same order and shapes as it would alone, so a seed's
``SearchResult`` does not depend on the other runs in its batch, on the
batch size or on the worker count.  ``run`` is a batch of one.  Seeding
draws through numpy; each generation's draws come from ``_Streams``, which
fetches every run's raw PCG64 words and decodes them in one array pass into
exactly the values numpy's ``integers`` and ``random`` calls would return
(``_draw_alone``), handing a run back to those calls in the rare generation
where a bounded draw is rejected.

``GaConfig`` and ``ORACLE_CAP`` live in ``model`` and ``exhaustive_oracle``
and ``genome_to_placement`` in ``exact``, which import no numpy; this module
re-exports them, and ``_Scorer`` reads this module's ``ORACLE_CAP``.  Only
``run_many`` with more than one job imports ``concurrent.futures``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .errors import AllInvalidError
from .exact import exhaustive_oracle, genome_to_placement, optimum  # noqa: F401 (re-exported)
from .fitness import evaluate
from .kernels import build_scores, compile_problem, eval_population
from .model import ORACLE_CAP, SHARED, GaConfig, PlacementProblem, Tier
from .placement import Placement

_SEED_RETRIES = 10


@dataclass
class SearchResult:
    best_placement: Placement
    best_fitness: float
    best_valid: bool
    generations_used: int
    history: list = field(default_factory=list)  # best fitness per generation
    best_genome: np.ndarray | None = None


# --- Operators --------------------------------------------------------------


def seed_population(config: GaConfig, n_genes: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random tier masks, one row per individual."""
    return rng.integers(1, 4, size=(config.population_size, n_genes), dtype=np.int8)


def _ranking(tie: np.ndarray, score: np.ndarray, valid: np.ndarray, size: int) -> np.ndarray:
    """Order the rows of stacked runs of ``size`` rows each: by run, then
    valid rows first, then score descending, then by the rows of ``tie``, the
    last one first; equal rows keep their index order.  Run r's rows fill
    positions r*size onward, so ``order[::size]`` is each run's best row
    (every run holds a valid one).  numpy sorts keys of 8 and 16 bits by
    radix, so the run key takes the narrowest type that holds it."""
    runs = len(valid) // size
    run = np.arange(runs, dtype=np.min_scalar_type(runs)).repeat(size)
    return np.lexsort((*tie, -score, ~valid, run))


class _Scorer:
    """Scores ``run_many``'s rows: a call gives each row's score, validity and
    tie keys, the keys ``_ranking`` reads, and ``fitness`` turns scores into
    fitness values.  ``settled`` tells the rows that are ``target``, the
    genome ``run_many`` gives, by that genome's own tie keys.

    Up to ``ORACLE_CAP`` genes the score is the row's entry in
    ``build_scores``'s table, and a row's product with ``place``, the place
    values ``3**(n - 1 - g)`` of the genes' masks - 1, is its genome index:
    its flat index into the table and its one tie key.  The product runs in
    float64, through BLAS, and is exact, as its sums are integers below
    ``3**n``.  The tie key takes the narrowest unsigned type that holds it, so
    ``_ranking`` sorts it by radix for up to 10 genes.  Past the cap the score
    is ``eval_population``'s fitness and the tie keys are the genome columns.
    """

    def __init__(self, compiled, target):
        n = compiled.n_genes
        self.compiled, self.n_calls = compiled, compiled.n_calls
        self.table = None
        if n <= ORACLE_CAP:
            self.table = build_scores(compiled).ravel()
            self.place = 3.0 ** np.arange(n - 1, -1, -1)
            self.index_type = np.min_scalar_type(3**n - 1)
        self.target = self(np.array([target], dtype=np.int8))[2]

    def __call__(self, pop: np.ndarray) -> tuple:
        if self.table is None:
            fitness, valid = eval_population(self.compiled, pop)
            return fitness, valid, pop.T[::-1]
        index = (pop - 1) @ self.place
        score = self.table[index.astype(np.intp)]
        return score, score >= 0, index.astype(self.index_type)[None]

    def settled(self, tie: np.ndarray, rows: np.ndarray) -> list:
        """Whether each of ``rows`` is the target genome."""
        return (tie[:, rows] == self.target).all(axis=0).tolist()

    def fitness(self, score: np.ndarray) -> list:
        """The fitness of rows with these scores; a table score is the local
        call count, so this is the double ``eval_population`` returns."""
        if self.table is None:
            return score.tolist()
        if self.n_calls == 0:
            return [1.0] * len(score)
        return (score / self.n_calls).tolist()


def _closure_genome(problem: PlacementProblem) -> np.ndarray:
    """A valid genome: server for the slices that every valid placement puts
    on the server, client for the rest.

    By ``call_rule`` a call violates iff it is unannotated, its caller holds
    the server and its callee does not.  So the slices that hold the server
    are closed forward along unannotated calls, and the least such set is the
    closure of the fixed server slices and of shared code, which runs on
    both tiers.  If that closure reaches a slice fixed on the client, no
    placement is valid, and ``AllInvalidError`` names the slice.
    """
    on_server = {SHARED: True, **{s: t is Tier.SERVER for s, t in problem.fixed.items()}}
    callees = {}
    for call in problem.calls:
        if not call.annotated:
            callees.setdefault(call.caller, []).append(call.callee)
    stack = [s for s, on in on_server.items() if on]
    reached = set(stack)
    while stack:
        for callee in callees.get(stack.pop(), ()):
            if not on_server.get(callee, True):
                raise AllInvalidError(
                    f"no placement is valid: the client slice {callee!r} is reached "
                    "from the server by calls without @reply or @broadcast")
            if callee not in reached:
                reached.add(callee)
                stack.append(callee)
    return np.array([2 if s in reached else 1 for s in problem.unplaced], dtype=np.int8)


def _seed_populations(scorer: _Scorer, config: GaConfig, rngs, fallback) -> np.ndarray:
    """Each run's first population, stacked: its first seeding that holds a
    valid row, or else its last seeding with row 0 replaced by the valid
    genome ``fallback``."""
    R, P, n = len(rngs), config.population_size, scorer.compiled.n_genes
    pop = np.empty((R, P, n), dtype=np.int8)
    pending = list(range(R))
    for _ in range(_SEED_RETRIES):
        for r in pending:
            pop[r] = seed_population(config, n, rngs[r])
        valid = scorer(pop[pending].reshape(-1, n))[1].reshape(-1, P)
        pending = [r for r, v in zip(pending, valid) if not v.any()]
        if not pending:
            break
    pop[pending, 0] = fallback
    return pop.reshape(R * P, n)


def _draw_alone(rng: np.random.Generator, k: int, n: int, config: GaConfig) -> tuple:
    """One generation's draws of a run with ``k`` valid rows and ``n`` genes,
    made by numpy's own calls: tournament entrants, crossover uniforms,
    crossover swap mask, mutation uniforms, mutation positions and values."""
    n_pairs = config.population_size // 2  # enough pairs for the P - 1 children
    return (rng.integers(0, k, size=(2 * n_pairs, config.tournament_size)),
            rng.random(n_pairs),
            rng.integers(0, 2, size=(n_pairs, n)),
            rng.random(2 * n_pairs),
            rng.integers(0, n, size=2 * n_pairs),
            rng.integers(1, 4, size=2 * n_pairs))


def _layout(spare: bool, tournament: bool, n: int, config: GaConfig) -> tuple:
    """Where ``_draw_alone``'s values lie in a run's raw words, as numpy reads them.

    A row holds the run's cached 32-bit half in its low half (32-bit index 0),
    then the generation's words from word index 1 on, so word j's low and high
    halves are 32-bit indices 2j and 2j + 1.  ``spare`` says whether a half is
    cached; ``tournament`` whether the entrant draws take halves (k > 1).
    Returns the 32-bit index of each bounded value (a value that takes no half
    reads index 0 and is scaled by 1), the word index of each uniform, the
    number of words and the index of the half left cached, or -1.
    """
    n_pairs = config.population_size // 2
    halves, uniforms = [], []
    words = 0
    cached = 0 if spare else -1

    def bounded(count, draws):  # numpy's next_uint32: the cached half, else a fresh low half
        nonlocal words, cached
        if not draws:
            halves.extend([0] * count)
            return
        for _ in range(count):
            if cached >= 0:
                halves.append(cached)
                cached = -1
            else:
                words += 1
                halves.append(2 * words)
                cached = 2 * words + 1

    def uniform(count):
        nonlocal words
        uniforms.extend(range(words + 1, words + 1 + count))
        words += count

    bounded(2 * n_pairs * config.tournament_size, tournament)
    uniform(n_pairs)
    bounded(n_pairs * n, True)
    uniform(2 * n_pairs)
    bounded(2 * n_pairs, n > 1)
    bounded(2 * n_pairs, True)
    return halves, uniforms, words, cached


class _Streams:
    """The random streams of a batch of runs, drawn for all runs at once.

    Each generation makes, for every run, exactly the draws ``_draw_alone``
    would make with numpy's calls.  A run's generation takes a fixed number of
    raw PCG64 words, given by whether a 32-bit half is cached from its last
    bounded draw and whether it has more than one valid row.  One
    ``random_raw`` call per run fetches them, and one gather through the
    matching ``_layout`` decodes every run's values.  A uniform is
    ``(word >> 11) * 2**-53``.  A bounded value in ``[0, h)`` is Lemire's
    ``(u * h) >> 32`` of a 32-bit half ``u``, rejected iff ``(u * h) mod 2**32
    < 2**32 mod h``.  A rejection takes another half and shifts the rest, so a
    run that shows one (below 7e-9 per value for h <= 31) is rewound and
    redrawn by ``_draw_alone``.
    """

    def __init__(self, rngs, n: int, config: GaConfig):
        self.rngs = list(rngs)
        self.n, self.config = n, config
        states = [rng.bit_generator.state for rng in self.rngs]
        self.spare = np.array([s["has_uint32"] for s in states], dtype=bool)  # a half is cached
        self.half = np.array([s["uinteger"] for s in states], dtype=np.uint32)  # its value
        # One layout per (spare, k > 1), indexed 2 * spare + (k > 1).
        layouts = [_layout(spare, tournament, n, config)
                   for spare in (False, True) for tournament in (False, True)]
        self.value_at, self.uniform_at, self.n_words, self.spare_at = map(np.array, zip(*layouts))
        self.width = 1 + self.n_words.max()
        n_pairs = config.population_size // 2
        sizes = (2 * n_pairs * config.tournament_size, n_pairs * n, 2 * n_pairs, 2 * n_pairs)
        self.cuts = list(accumulate(sizes[:-1]))
        # The bounds of the swap mask, positions and values; the entrants' is k.
        self.bound = np.repeat(np.array([0, 2, n, 3], dtype=np.uint64), sizes)

    def keep(self, keep) -> None:
        """Drop the runs whose ``keep`` entry is false."""
        self.rngs = [rng for rng, k in zip(self.rngs, keep) if k]
        self.spare, self.half = self.spare[keep], self.half[keep]

    def draw(self, n_valid) -> tuple:
        """The arrays of ``_draw_alone``, stacked over the runs, for runs with
        ``n_valid`` valid rows each."""
        R, n, n_pairs = len(self.rngs), self.n, self.config.population_size // 2
        k = np.array(n_valid)
        layout = 2 * self.spare + (k > 1)
        n_words = self.n_words[layout]
        raw = np.empty((R, self.width), dtype="<u8")
        raw[:, 0] = self.half
        for row, rng, w in zip(raw, self.rngs, n_words.tolist()):
            row[1:w + 1] = rng.bit_generator.random_raw(w)
        halves = raw.view("<u4").ravel()
        base = np.arange(R)[:, None] * self.width

        bound = np.empty((R, len(self.bound)), dtype=np.uint64)
        bound[:] = self.bound
        bound[:, :self.cuts[0]] = k[:, None]
        m = halves[self.value_at[layout] + 2 * base] * bound
        low = m & 0xFFFFFFFF
        suspect = low < bound  # 2**32 mod h < h, so only these can be rejected
        rejected = []
        if suspect.any():
            rejected = np.flatnonzero((suspect & (low < (1 << 32) % bound)).any(axis=1))
        values = (m >> 32).view(np.int64)
        c1, c2, c3 = self.cuts
        draws, swap, pos, val = values[:, :c1], values[:, c1:c2], values[:, c2:c3], values[:, c3:]
        draws = draws.reshape(R, 2 * n_pairs, -1)
        swap = swap.reshape(R, n_pairs, n).astype(bool)
        val = val + 1
        uniform = (raw.ravel()[self.uniform_at[layout] + base] >> 11) * 2.0**-53
        cross_u, mut_u = uniform[:, :n_pairs], uniform[:, n_pairs:]
        spare_at = self.spare_at[layout]
        spare, half = spare_at >= 0, halves[np.maximum(spare_at, 0) + 2 * base[:, 0]]

        for r in rejected:  # rewind the run and let numpy draw it
            bit_generator = self.rngs[r].bit_generator
            bit_generator.advance(-int(n_words[r]))
            state = bit_generator.state
            state.update(has_uint32=int(self.spare[r]), uinteger=int(self.half[r]))
            bit_generator.state = state
            (draws[r], cross_u[r], swap[r], mut_u[r], pos[r],
             val[r]) = _draw_alone(self.rngs[r], int(k[r]), n, self.config)
            state = bit_generator.state
            spare[r], half[r] = state["has_uint32"], state["uinteger"]
        self.spare, self.half = spare, half
        return draws, cross_u, swap, mut_u, pos, val


def _next_generation(pop, valid, order, streams: _Streams, config: GaConfig) -> np.ndarray:
    """Breed the next stacked population of the runs drawing from
    ``streams``, given their rows' validity and ``_ranking``.  Each run's
    next rows are its best row (the elite), then children of tournament
    winners among its own valid rows, crossed pairwise and mutated at one
    position each.  Every run makes the draws a lone run would make, in the
    same order and shapes, so its stream does not depend on the batch."""
    P = config.population_size
    R, n = len(streams.rngs), pop.shape[1]
    n_pairs = P // 2
    n_valid = valid.reshape(R, P).sum(axis=1).tolist()
    draws, cross_u, swap, mut_u, pos, val = streams.draw(n_valid)

    # Run r's draws index its own valid rows, which follow those of the runs
    # before it; a tournament's winner is the entrant ranked first.
    first = np.array(list(accumulate(n_valid[:-1], initial=0)))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    entrants = np.flatnonzero(valid)[draws + first[:, None, None]]
    parents = pop[order[rank[entrants].min(axis=2)]]

    p1, p2 = parents[:, 0::2], parents[:, 1::2]
    swap &= (cross_u < config.crossover_prob)[..., None]
    children = np.empty((R, 2 * n_pairs, n), dtype=np.int8)
    children[:, 0::2] = np.where(swap, p2, p1)
    children[:, 1::2] = np.where(swap, p1, p2)

    rows = np.flatnonzero(mut_u < config.mutation_prob)  # rows of all R * 2 * n_pairs children
    pos, val = pos.ravel(), val.ravel()
    children.reshape(-1, n)[rows, pos[rows]] = val[rows]

    new_pop = np.empty((R, P, n), dtype=np.int8)
    new_pop[:, 0] = pop[order[::P]]
    new_pop[:, 1:] = children[:, :P - 1]
    return new_pop.reshape(R * P, n)


# --- Genetic search -------------------------------------------------------


def run(problem: PlacementProblem, config: GaConfig) -> SearchResult:
    """Full genetic search; degenerates gracefully with zero unplaced slices."""
    return run_many(problem, config, 1)[0]


def run_many(problem: PlacementProblem, config: GaConfig, runs: int, jobs: int = 1):
    """``runs`` independent searches with seeds ``config.rng_seed + i``, in seed order.

    With ``jobs > 1`` the seeds are split into that many contiguous blocks,
    one batch per worker process.  Results are bit-identical for any worker
    count because every run owns its stream and the output order is fixed.
    """
    if jobs > 1 and runs > 1:
        jobs = min(jobs, runs)
        counts = [runs // jobs + (j < runs % jobs) for j in range(jobs)]
        configs = [replace(config, rng_seed=seed)
                   for seed in accumulate(counts[:-1], initial=config.rng_seed)]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = pool.map(run_many, [problem] * jobs, configs, counts)
            return [result for block in blocks for result in block]
    if runs < 1:
        return []
    fallback = _closure_genome(problem)  # raises if no placement is valid
    n = len(problem.unplaced)
    if n == 0:  # one placement: the @config tiers
        fitness = evaluate(problem, Placement(fixed=dict(problem.fixed), searched={})).program
        return [SearchResult(Placement(fixed=dict(problem.fixed), searched={}), fitness,
                             True, 0, [], np.zeros(0, dtype=np.int8))
                for _ in range(runs)]

    P = config.population_size
    scorer = _Scorer(compile_problem(problem), optimum(problem)[1])
    rngs = [np.random.default_rng(config.rng_seed + i) for i in range(runs)]
    pop = _seed_populations(scorer, config, rngs, fallback)
    streams = _Streams(rngs, n, config)
    active = list(range(runs))  # the runs in the batch, in stacking order
    histories = [[] for _ in range(runs)]
    results = [None] * runs
    generation = 1
    while True:
        score, valid, tie = scorer(pop)
        order = _ranking(tie, score, valid, P)
        best = order[::P]
        best_fit = scorer.fitness(score[best])
        for r, f in zip(active, best_fit):
            histories[r].append(f)
        last = generation >= config.max_generations
        keep = [not (last or f == 1.0 or settled)
                for f, settled in zip(best_fit, scorer.settled(tie, best))]
        if not all(keep):  # some runs stop and leave the batch
            for i, r in enumerate(active):
                if not keep[i]:
                    # Short of fitness 1.0 a run ends at the budget; a settled
                    # run would repeat this best in every generation up to it.
                    if best_fit[i] != 1.0:
                        histories[r] += [best_fit[i]] * (config.max_generations - generation)
                    genome = pop[best[i]]
                    results[r] = SearchResult(
                        best_placement=genome_to_placement(problem, genome),
                        best_fitness=best_fit[i],
                        best_valid=True,
                        generations_used=len(histories[r]),
                        history=histories[r],
                        best_genome=genome.copy(),
                    )
            if not any(keep):
                return results
            rows = np.repeat(keep, P)
            pop, valid = pop[rows], valid[rows]
            active = [r for r, k in zip(active, keep) if k]
            streams.keep(keep)
            order = _ranking(tie[:, rows], score[rows], valid, P)
        pop = _next_generation(pop, valid, order, streams, config)
        generation += 1
