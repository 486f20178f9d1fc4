#!/usr/bin/env python3
"""Time the genetic search and the cut past ``ORACLE_CAP`` on two trees.

    python3 scripts/past_cap_timing.py BEFORE/src AFTER/src [--pairs 10] [--repeats 3]

The problems are ``perfbench/programs.py``'s ``layered_program`` with seeds
and helper counts (0, 16), (3, 40) and (5, 80), and ``genprog``'s
``wide_flat_problem(12, 24)``: 16 to 80 unplaced slices, so the search
scores its rows with ``kernels.eval_population``.  The cut,
``exact.optimum``, is timed on those and on ``layered_program`` (2, 160) and
(6, 640) besides.  Each pair runs one fresh interpreter per tree, the trees
in alternating order (BEFORE first in even pairs).  An interpreter builds
the problems with its own tree, and for each runs
``run_many(problem, GaConfig(), 10)`` or ``optimum(problem)`` once untimed,
then ``--repeats`` times timed, and reports the fastest call; a timed run of
the cut makes 20 calls and counts their mean.  Prints each timing's median
and range per tree in milliseconds, the number of pairs in which AFTER was
faster, and whether the two trees' results hash alike: every
``SearchResult``'s placement, fitness, validity, generation count, history
and genome, and the cut's remote-call count and genome.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ("layered(0,16)", "layered(3,40)", "layered(5,80)", "wide(12,24)")
CUT_PROBLEMS = (*PROBLEMS, "layered(2,160)", "layered(6,640)")
CUT_CALLS = 20  # calls per timed run of the cut, which takes well under a millisecond on most


def problem(label):
    from genprog import wide_flat_problem
    from perfbench.programs import layered_program
    from tierslicer import parse, placement_problem, resolve_calls
    from tierslicer.depgraph import build_pdg

    kind, args = label.split("(")
    seed, n = map(int, args.rstrip(")").split(","))
    if kind == "wide":
        return wide_flat_problem(seed, n)
    source, _ = layered_program(seed, n)
    return placement_problem(build_pdg(resolve_calls(parse(source, f"{label}.tjs"))))


def digest(problem, results) -> str:
    import numpy as np

    h = hashlib.sha256()
    for r in results:
        tiers = [r.best_placement.tier(s).value for s in problem.slices]
        h.update(repr((tiers, r.best_fitness.hex(), r.best_valid, r.generations_used)).encode())
        h.update(np.asarray(r.history, dtype=np.float64).tobytes())
        h.update(r.best_genome.tobytes())
    return h.hexdigest()


def fastest(call, repeats: int, calls: int = 1) -> float:
    """Seconds per call of the fastest of ``repeats`` runs of ``calls`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def worker(repeats: int) -> None:
    """Print {timing: [fastest seconds, digest]} as JSON, timed in this tree."""
    from tierslicer.exact import optimum
    from tierslicer.search import GaConfig, run_many

    problems = {label: problem(label) for label in CUT_PROBLEMS}
    out = {}
    for label in PROBLEMS:
        p = problems[label]
        results = run_many(p, GaConfig(), 10)
        out[f"run_many {label}"] = [fastest(lambda: run_many(p, GaConfig(), 10), repeats),
                                    digest(p, results)]
    for label, p in problems.items():
        answer = repr(optimum(p)).encode()
        out[f"optimum {label}"] = [fastest(lambda: optimum(p), repeats, CUT_CALLS),
                                   hashlib.sha256(answer).hexdigest()]
    print(json.dumps(out))


def measure(src: Path, repeats: int) -> dict:
    path = os.pathsep.join(map(str, (src, ROOT / "tests", ROOT)))
    run = subprocess.run([sys.executable, __file__, "--worker", "--repeats", str(repeats)],
                         env={**os.environ, "PYTHONPATH": path}, check=True,
                         capture_output=True, text=True)
    return json.loads(run.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="*", help="src/ directories, BEFORE then AFTER")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.pairs < 1:
        parser.error("--pairs and --repeats must be >= 1")
    if args.worker:
        worker(args.repeats)
        return 0
    if len(args.trees) != 2:
        parser.error("give the BEFORE and AFTER src/ directories")
    trees = [src.resolve() for src in args.trees]
    for src in trees:
        if not (src / "tierslicer" / "search.py").is_file():
            parser.error(f"{src} holds no tierslicer/search.py")

    seconds = {}
    digests = ({}, {})
    for pair in range(args.pairs):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            for label, (best, sha) in measure(trees[side], args.repeats).items():
                seconds.setdefault(label, ([], []))[side].append(best)
                digests[side][label] = sha

    print(f"{args.pairs} alternating pairs, fastest of {args.repeats} runs each "
          f"(one call of run_many, {CUT_CALLS} of the cut), "
          f"Python {platform.python_version()}, {os.cpu_count()} cores; wall ms, median (min-max)")
    print(f"{'timing':<24}{'before':>22}{'after':>22}  after faster  same results")
    for label, (before, after) in seconds.items():
        cells = [f"{1e3 * statistics.median(s):.2f} ({1e3 * min(s):.2f}-{1e3 * max(s):.2f})"
                 for s in (before, after)]
        wins = sum(a < b for b, a in zip(before, after))
        same = digests[0][label] == digests[1][label]
        print(f"{label:<24}{cells[0]:>22}{cells[1]:>22}  {wins}/{args.pairs:<11} {same}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
