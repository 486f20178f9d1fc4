"""Genetic search over tier placements.

Individuals are tier-mask genomes over the unplaced slices.  ``run_many``
advances all its independent runs together: their populations are stacked
into one ``(runs * population, genes)`` array, and each generation is one
batched step.  ``_Scorer`` scores and ranks every row (by run, valid rows
first, score descending, then a tie key); one gather does every run's
tournament selection over that run's valid rows only; then
``_next_generation`` makes one uniform crossover of each parent pair and
one mutation that rewrites one position per child.  Invalid
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

Up to ``ORACLE_CAP`` unplaced slices the rows are ranked by one int64 sort
key each, read from a table built once per ``run_many`` call from
``kernels.build_scores``'s scores: a row's genome index, one product with the
genes' place values, is its flat index into the table, and its key orders it
by validity, score and genome index; one stable ``argsort`` ranks every run.
A row is valid iff its score is >= 0; its fitness is the score over the call
count.  Past the cap ``kernels.eval_population`` gathers the rows' scores
from the same pair terms of ``kernels.compile_problem``, one ``np.lexsort``
ranks them and the genome columns are the tie keys.  Invalid rows steer
nothing, as valid rows rank first and only they enter tournaments, so both
paths give the same runs.  Either way ties break
toward the lexicographically smaller genome, gene 0 first.
``exact.optimum``'s minimum cut names the lexicographically smallest
optimum, and a run whose best row is that genome is settled: no genome
scores higher and every one that scores as high sorts after it, so its elite
ranks first in every later generation.  A settled run leaves the batch
at once, its history padded with that best fitness up to the budget, the
result its remaining generations would give.

Each run owns its random stream, ``np.random.default_rng(seed)``, and makes
the same draws in the same order and shapes as it would alone, so a seed's
``SearchResult`` does not depend on the other runs in its batch, on the
batch size or on the worker count.  ``run`` is a batch of one.  Seeding
draws through numpy; each generation's draws come from ``_Streams``, which
fetches each run's raw PCG64 words for a block of up to ``_BLOCK``
generations with one call and decodes them in one array pass into exactly
the values numpy's ``integers`` and ``random`` calls would return
(``_draw_alone``), the tournament entrants a generation at a time, as their
bound is the run's count of valid rows.  A run whose generation breaks the
block's assumptions gives back the words it fetched past that generation:
with a single valid row it fetches again, and in the rare generation where
a bounded draw is rejected numpy's own calls draw it.

``GaConfig`` and ``ORACLE_CAP`` live in ``model`` and ``exhaustive_oracle``
and ``genome_to_placement`` in ``exact``, which import no numpy; this module
re-exports them, and ``_Scorer`` reads this module's ``ORACLE_CAP``.  Only
``run_many`` with more than one job imports ``concurrent.futures``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

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
    """Scores and ranks ``run_many``'s rows.  ``rank`` gives the rows'
    order, their validity, each run's best fitness and its best genome;
    ``settled`` tells the runs whose best genome is ``target``, the genome
    ``run_many`` gives.

    Up to ``ORACLE_CAP`` genes a row's product with ``place``, the place
    values ``3**(n - 1 - g)`` of its masks, is its genome index plus
    ``(3**n - 1) / 2``, as masks run 1-3; the product runs in float64, through
    BLAS, and is exact.  At that product it reads its sort key from ``keys``,
    whose first ``(3**n - 1) / 2`` entries no row reads, built once from
    ``build_scores``'s table: ``(hi - score) * 3**n + genome index``, with
    ``hi`` the call count, so no valid score exceeds it, and ``hi - score``
    capped at ``hi + 1`` on invalid rows.  So a key below ``(hi + 1) * 3**n``
    is a valid row's, valid rows sort first, by score descending, then by
    genome index, and ``divmod(key, 3**n)`` gives back the score and the
    index.  Run r's keys are raised by ``r * (hi + 2) * 3**n`` and one stable
    ``argsort`` ranks every run's rows.  Invalid rows sort by index, not by
    score as ``_ranking`` sorts them, but only valid rows are read by rank.
    Past the cap ``eval_population`` scores the rows and ``_ranking`` ranks
    them, with the genome columns as tie keys.
    """

    def __init__(self, compiled, target):
        n = compiled.n_genes
        self.compiled, self.n_calls = compiled, compiled.n_calls
        self.keys, self.target = None, target
        if n <= ORACLE_CAP:
            hi, self.radix = self.n_calls, 3**n
            self.limit, self.span = (hi + 1) * self.radix, (hi + 2) * self.radix
            self.place = 3.0 ** np.arange(n - 1, -1, -1)
            self.keys = np.zeros(self.radix // 2 + self.radix, dtype=np.int64)
            key = self.keys[self.radix // 2:]
            np.subtract(hi, build_scores(compiled).ravel(), out=key, dtype=np.int64)
            np.minimum(key, hi + 1, out=key)
            key *= self.radix
            key += np.arange(self.radix)
            self.target = int(target @ self.place) - self.radix // 2
            self.offsets = np.zeros((0, 0), dtype=np.int64)  # each row's run times span

    def _keys(self, pop: np.ndarray) -> np.ndarray:
        return self.keys[pop.dot(self.place).astype(np.intp)]

    def valid(self, pop: np.ndarray) -> np.ndarray:
        if self.keys is None:
            return eval_population(self.compiled, pop)[1]
        return self._keys(pop) < self.limit

    def rank(self, pop: np.ndarray, size: int) -> tuple:
        """For stacked runs of ``size`` rows: the rows' order (valid rows
        ranked as ``_ranking`` ranks them, so ``order[::size]`` is each run's
        best row), their validity, each run's best fitness, and its best
        genome, by index within the cap and as its row past it."""
        if self.keys is None:
            fitness, valid = eval_population(self.compiled, pop)
            order = _ranking(pop.T[::-1], fitness, valid, size)
            best = order[::size]
            return order, valid, fitness[best].tolist(), pop[best]
        key = self._keys(pop)
        valid = key < self.limit
        if len(pop) > size:
            if self.offsets.shape != (len(pop) // size, size):
                self.offsets = np.arange(len(pop) // size)[:, None].repeat(size, axis=1) * self.span
            key += self.offsets.ravel()
        order = key.argsort(kind="stable")
        fitness, index = [], []
        for r, k in enumerate(key[order[::size]].tolist()):
            lost, i = divmod(k - r * self.span, self.radix)
            # A score is the local call count, so this is the double
            # eval_population returns.
            fitness.append((self.n_calls - lost) / self.n_calls if self.n_calls else 1.0)
            index.append(i)
        return order, valid, fitness, index

    def settled(self, best) -> list:
        """Whether each run's best genome, as ``rank`` gives it, is the target."""
        if self.keys is None:
            return (best == self.target).all(axis=1).tolist()
        return [i == self.target for i in best]


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
        valid = scorer.valid(pop[pending].reshape(-1, n)).reshape(-1, P)
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


def _layout(spare: bool, tournament: bool, n: int, population: int, tournament_size: int) -> tuple:
    """Where ``_draw_alone``'s values lie in a run's raw words, as numpy reads them.

    A row holds the run's cached 32-bit half in its low half (32-bit index 0),
    then the generation's words from word index 1 on, so word j's low and high
    halves are 32-bit indices 2j and 2j + 1.  ``spare`` says whether a half is
    cached; ``tournament`` whether the entrant draws take halves (k > 1).
    Returns the 32-bit index of each bounded value (a value that takes no half
    reads index 0 and is scaled by 1), the word index of each uniform, the
    number of words and the index of the half left cached, or -1.
    """
    n_pairs = population // 2
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

    bounded(2 * n_pairs * tournament_size, tournament)
    uniform(n_pairs)
    bounded(n_pairs * n, True)
    uniform(2 * n_pairs)
    bounded(2 * n_pairs, n > 1)
    bounded(2 * n_pairs, True)
    return halves, uniforms, words, cached


# Generations of draws a run fetches and decodes at a time.
_BLOCK = 12


class _Tables(NamedTuple):
    """Where a block's draws lie in a run's row, by ``_tables``."""

    # Indices into a run's row, [start, generation, value]: the 32-bit half of
    # each entrant, swap-mask value, position and mutation value, and the
    # word of each crossover and mutation uniform.
    entrants: np.ndarray
    swap: np.ndarray
    ints: np.ndarray  # positions, then mutation values
    uniform: np.ndarray
    bound: np.ndarray  # the bound of each of ``ints``'s values: n, then 3
    reject: np.ndarray  # 2**32 mod bound: a value whose low product is below it is rejected
    cached: np.ndarray  # [start, generation]: the half cached at its start, or -1
    words: tuple  # [start][generation]: the words before it; [start][block]: all of them


@lru_cache(maxsize=16)
def _tables(n: int, population: int, tournament_size: int, block: int) -> _Tables:
    """Where the draws of ``block`` generations lie in a run's raw words, for
    each way a block may start, ``2 * spare + (k > 1)`` at its first
    generation; every later generation is taken to have k > 1.  A row holds
    the half cached at the block's start in its low half, then the block's
    words from word index 1, and each generation reads ``_layout``'s indices
    shifted by the words before it, its cached half being the one the
    generation before it left.  The arrays are read-only, as every
    ``_Streams`` of the same shape shares them.
    """
    n_pairs = population // 2
    cuts = np.cumsum([2 * n_pairs * tournament_size, n_pairs * n])
    layouts = {}
    for s in (False, True):
        for t in (False, True):
            at, uniforms, n_words, left = _layout(s, t, n, population, tournament_size)
            layouts[s, t] = np.array(at, dtype=np.intp), np.array(uniforms, dtype=np.intp), n_words, left
    halves = np.empty((4, block, len(at)), dtype=np.intp)
    uniform = np.empty((4, block, len(uniforms)), dtype=np.intp)
    words, cached = [[] for _ in range(4)], [[] for _ in range(4)]
    for start in range(4):
        offset, cache, tournament = 0, 0 if start >= 2 else -1, start % 2 == 1
        for j in range(block):
            at, uniforms, n_words, left = layouts[cache >= 0, tournament]
            halves[start, j] = np.where(at == 0, max(cache, 0), at + 2 * offset)
            uniform[start, j] = uniforms + offset
            words[start].append(offset)
            cached[start].append(cache)
            cache = left + 2 * offset if left >= 0 else -1
            offset += n_words
            tournament = True
        words[start].append(offset)
        cached[start].append(cache)
    arrays = [*np.split(halves, cuts, axis=2), uniform,
              np.repeat(np.array([n, 3], dtype=np.uint64), 2 * n_pairs)]
    arrays += [(1 << 32) % arrays[-1], np.array(cached, dtype=np.intp)]
    arrays = [np.ascontiguousarray(a) for a in arrays]
    for a in arrays:
        a.flags.writeable = False
    return _Tables(*arrays, tuple(map(tuple, words)))


class _Streams:
    """The random streams of a batch of runs, drawn for all runs at once.

    Each generation makes, for every run, exactly the draws ``_draw_alone``
    would make with numpy's calls.  A run's generation takes a fixed number of
    raw PCG64 words, given by whether a 32-bit half is cached from its last
    bounded draw and whether it has more than one valid row, so a run fetches
    the words of a block of up to ``_BLOCK`` generations with one
    ``random_raw`` call, taking k > 1 after the block's first generation, and
    one pass over the ``_tables`` gathers decodes every value but the
    entrants, whose bound k each generation gives.  A uniform is
    ``(word >> 11) * 2**-53``.  A bounded value in ``[0, h)`` is Lemire's
    ``(u * h) >> 32`` of a 32-bit half ``u``, rejected iff ``(u * h) mod 2**32
    < 2**32 mod h``.  A block stops at the budget; a run whose first
    generation has k = 1 fetches one generation, as k = 1 tends to last.
    When a generation after the block's first has k = 1, the run gives back
    its words from that generation on and fetches a new block.  A rejection
    takes another half and shifts the rest, so a run that shows one (below
    7e-9 per value for h <= 31) gives back its words from that generation
    on, ``_draw_alone`` draws it, and the run fetches a new block at the next.
    """

    def __init__(self, rngs, n: int, config: GaConfig):
        self.rngs = list(rngs)
        self.n, self.config = n, config
        self.block = _BLOCK
        self.tables = _tables(n, config.population_size, config.tournament_size, self.block)
        states = [rng.bit_generator.state for rng in self.rngs]
        self.spare = [bool(s["has_uint32"]) for s in states]  # a half is cached
        self.half = [s["uinteger"] for s in states]  # its value
        # Each run's block: the step (generation drawn) it starts at, its
        # generations, its first one holding a rejected value (else its
        # size), its start kind (the first index of the tables) and, from
        # _allocate, its row in the block arrays.
        R = len(self.rngs)
        self.start, self.size, self.bad, self.kind = [0] * R, [0] * R, [0] * R, [0] * R
        self.step = 0
        self._allocate()
        self._update()

    def _allocate(self) -> None:
        """Fresh block arrays, one row per run.  A run that leaves the batch
        keeps its row until every run fetches at once."""
        R, B, n, T = len(self.rngs), self.block, self.n, self.config.tournament_size
        n_pairs = self.config.population_size // 2
        self.row = list(range(R))
        self.cache = np.empty((R, B + 1), dtype=np.uint32)  # the half cached at each generation
        self.entrant = np.empty((R, B, 2 * n_pairs * T), dtype=np.uint32)  # their halves
        self.uniform = np.empty((R, B, 3 * n_pairs))  # crossover, then mutation
        self.swap = np.empty((R, B, n_pairs, n), dtype=bool)
        self.ints = np.empty((R, B, 4 * n_pairs), dtype=np.int64)  # positions, then values

    def _update(self) -> None:
        """Note the first step at which a run's block ends or holds a
        rejected value, and where each run's generation lies in the arrays."""
        self.due = min(s + b for s, b in zip(self.start, self.bad))
        self.common = self.start[0] if len(set(self.start)) == 1 else None
        self.starts = np.array(self.start)
        self.rows = np.array(self.row)
        if self.common is not None and self.row == list(range(len(self.cache))):
            self.rows = slice(None)  # views, not copies

    def keep(self, keep) -> None:
        """Drop the runs whose ``keep`` entry is false."""
        runs = [r for r, k in enumerate(keep) if k]
        self.rngs = [self.rngs[r] for r in runs]
        for name in ("spare", "half", "row", "start", "size", "bad", "kind"):
            values = getattr(self, name)
            setattr(self, name, [values[r] for r in runs])
        self._update()

    def _cut(self, r: int) -> None:
        """Give back run r's words past the start of its next generation and
        empty its block; ``spare`` and ``half`` then hold the half cached there."""
        if self.size[r]:
            at = self.step - self.start[r]
            words = self.tables.words[self.kind[r]]
            if words[self.size[r]] > words[at]:
                self.rngs[r].bit_generator.advance(words[at] - words[self.size[r]])
            self.spare[r] = bool(self.tables.cached[self.kind[r], at] >= 0)
            self.half[r] = int(self.cache[self.row[r], at]) if self.spare[r] else 0
        self.start[r], self.size[r], self.bad[r] = self.step, 0, 0

    def _rewind(self, r: int) -> None:
        """Put run r's generator, cached half included, at the start of its
        next generation."""
        self._cut(r)
        bit_generator = self.rngs[r].bit_generator
        state = bit_generator.state
        state.update(has_uint32=int(self.spare[r]), uinteger=self.half[r])
        bit_generator.state = state

    def rewind(self) -> None:
        """Give back every run's words past its next generation."""
        for r in range(len(self.rngs)):
            self._rewind(r)
        self._update()

    def _fill(self, runs: list, ks: list) -> None:
        """Fetch and decode a block for each of ``runs``, from this step,
        whose generations now have ``ks`` valid rows.  When every run fills,
        the block arrays start afresh, one row per run."""
        t, n, n_pairs = self.tables, self.n, self.config.population_size // 2
        for r in runs:
            self._cut(r)
        if len(runs) == len(self.rngs) and len(runs) < len(self.cache):
            self._allocate()
        left = min(self.block, max(1, self.config.max_generations - 1 - self.step))
        kinds = [2 * self.spare[r] + (k > 1) for r, k in zip(runs, ks)]
        for kind in set(kinds):  # the runs of one kind share the tables' rows
            group = [r for r, k in zip(runs, kinds) if k == kind]
            size = left if kind % 2 else 1
            w = t.words[kind][size]
            raw = np.empty((len(group), w + 1), dtype="<u8")
            raw[:, 0] = [self.half[r] for r in group]
            for row, r in zip(raw, group):
                row[1:w + 1] = self.rngs[r].bit_generator.random_raw(w)
            halves = raw.view("<u4")
            # A bound-2 value is the half's top bit, and it is never rejected.
            swap = halves.take(t.swap[kind, :size], axis=1) >= 1 << 31
            m = halves.take(t.ints[kind, :size], axis=1) * t.bound
            bad = ((m & 0xFFFFFFFF) < t.reject).any(axis=2)
            ints = (m >> 32).view(np.int64)
            ints[..., 2 * n_pairs:] += 1  # a mutation value is 1 + a value below 3
            at = [self.row[r] for r in group]
            at = slice(None) if at == list(range(len(self.cache))) else at
            # Where no half is cached, index -1 reads a half that goes unused.
            self.cache[at, :size + 1] = halves.take(t.cached[kind, :size + 1], axis=1)
            self.entrant[at, :size] = halves.take(t.entrants[kind, :size], axis=1)
            self.uniform[at, :size] = (raw.take(t.uniform[kind, :size], axis=1) >> 11) * 2.0**-53
            self.swap[at, :size] = swap.reshape(len(group), size, n_pairs, n)
            self.ints[at, :size] = ints
            for r, b in zip(group, np.where(bad.any(axis=1), bad.argmax(axis=1), size).tolist()):
                self.kind[r], self.size[r], self.bad[r] = kind, size, b

    def _redraw(self, r: int, k: int) -> tuple:
        """Run r's draws of this generation by numpy's own calls; its block
        is then empty, and the next step fetches a new one."""
        self._rewind(r)
        draws = _draw_alone(self.rngs[r], k, self.n, self.config)
        state = self.rngs[r].bit_generator.state
        self.spare[r], self.half[r] = bool(state["has_uint32"]), state["uinteger"]
        self.start[r] = self.step + 1
        return draws

    def draw(self, n_valid) -> tuple:
        """The arrays of ``_draw_alone``, stacked over the runs, for runs with
        ``n_valid`` valid rows each."""
        R, step, n_pairs = len(self.rngs), self.step, self.config.population_size // 2
        if step >= self.due or 1 in n_valid:
            fill = [r for r, k in enumerate(n_valid) if step - self.start[r] == self.size[r]
                    or (k == 1 and step > self.start[r])]
            if fill:
                self._fill(fill, [n_valid[r] for r in fill])
                self._update()
        at = (self.rows, step - (self.starts if self.common is None else self.common))
        k = np.array(n_valid, dtype=np.uint64)[:, None]
        m = self.entrant[at] * k
        low = m & 0xFFFFFFFF
        redraw = [r for r in range(R) if self.start[r] + self.bad[r] == step] if step >= self.due else []
        suspect = low < k  # 2**32 mod k < k, so only these can be rejected
        if suspect.any():
            redraw += np.flatnonzero((suspect & (low < (1 << 32) % k)).any(axis=1)).tolist()
        draws = (m >> 32).view(np.int64).reshape(R, 2 * n_pairs, -1)
        uniform, swap, ints = self.uniform[at], self.swap[at], self.ints[at]
        cross_u, mut_u = uniform[:, :n_pairs], uniform[:, n_pairs:]
        pos, val = ints[:, :2 * n_pairs], ints[:, 2 * n_pairs:]
        for r in sorted(set(redraw)):  # numpy draws the run from this generation's start
            draws[r], cross_u[r], swap[r], mut_u[r], pos[r], val[r] = self._redraw(r, n_valid[r])
        self.step += 1
        if redraw:
            self._update()
        return draws, cross_u, swap, mut_u, pos, val


def _next_generation(pop, valid, order, streams: _Streams, config: GaConfig) -> np.ndarray:
    """Breed the next stacked population of the runs drawing from
    ``streams``, given their rows' validity and ranking.  Each run's next
    rows are its best row (the elite), then children of tournament winners
    among its own valid rows, crossed pairwise and mutated at one position
    each.  Every run makes the draws a lone run would make, in the same order
    and shapes, so its stream does not depend on the batch."""
    P = config.population_size
    R, n = len(streams.rngs), pop.shape[1]
    n_pairs = P // 2
    valid_rows = valid.nonzero()[0]
    if R == 1:
        n_valid = [len(valid_rows)]
    else:  # run r's valid rows end where the rows of run r + 1 begin
        ends = valid_rows.searchsorted(np.arange(P, R * P + 1, P)).tolist()
        n_valid = [b - a for a, b in zip([0] + ends, ends)]
    draws, cross_u, swap, mut_u, pos, val = streams.draw(n_valid)

    # Run r's draws index its own valid rows, which follow those of the runs
    # before it; a tournament's winner is the entrant ranked first.
    if R > 1:
        draws = draws + np.array([0] + ends[:-1])[:, None, None]
    if config.tournament_size == 1:
        winners = valid_rows[draws[..., 0]]
    else:
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        winners = order[rank[valid_rows[draws]].min(axis=2)]

    # Pair p's parents swap the genes where the pair crosses: each takes the
    # xor of the two where the mask is set.
    children = pop.take(winners, axis=0).reshape(R, n_pairs, 2, n)
    cross = swap & (cross_u < config.crossover_prob)[..., None]
    children ^= ((children[:, :, 0] ^ children[:, :, 1]) * cross)[:, :, None]
    children = children.reshape(R * 2 * n_pairs, n)
    rows = (mut_u < config.mutation_prob).ravel().nonzero()[0]  # rows of all R * 2 * n_pairs children
    children[rows, pos.ravel()[rows]] = val.ravel()[rows]

    new_pop = np.empty((R, P, n), dtype=np.int8)
    new_pop[:, 0] = pop.take(order[::P], axis=0)
    new_pop[:, 1:] = children.reshape(R, 2 * n_pairs, n)[:, :P - 1]
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
        order, valid, best_fit, best_genome = scorer.rank(pop, P)
        for r, f in zip(active, best_fit):
            histories[r].append(f)
        last = generation >= config.max_generations
        keep = [not (last or f == 1.0 or settled)
                for f, settled in zip(best_fit, scorer.settled(best_genome))]
        if not all(keep):  # some runs stop and leave the batch
            for i, r in enumerate(active):
                if not keep[i]:
                    # Short of fitness 1.0 a run ends at the budget; a settled
                    # run would repeat this best in every generation up to it.
                    if best_fit[i] != 1.0:
                        histories[r] += [best_fit[i]] * (config.max_generations - generation)
                    genome = pop[order[i * P]]
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
            # The kept runs' rows, and their order, shifted to their new places.
            kept = [i for i, k in enumerate(keep) if k]
            shift = (np.array(kept) - np.arange(len(kept)))[:, None] * P
            pop = pop.reshape(-1, P, n)[kept].reshape(-1, n)
            valid = valid.reshape(-1, P)[kept].ravel()
            order = (order.reshape(-1, P)[kept] - shift).ravel()
            active = [active[i] for i in kept]
            streams.keep(keep)
        pop = _next_generation(pop, valid, order, streams, config)
        generation += 1
