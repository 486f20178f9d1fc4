#!/usr/bin/env python3
"""Run one tierslicer benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload analyze|search|oracle --seed N \
        --seconds S --trace 0|1

Run it from the root of a checkout: tierslicer is imported from ./src.  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  The same object and, when traced, the spans as JSONL are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROBES = 4  # fresh processes timed for setup_s, besides this one
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_p50_s": "s",
                    "work_per_s": "work/s", "offline_fraction": "fraction"}


def import_tierslicer() -> float:
    """Import tierslicer.cli from this checkout's src/ and return the seconds it took."""
    src = ROOT / "src"
    if not (src / "tierslicer" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'tierslicer'} not found; run from a tierslicer checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    start = time.perf_counter()
    import tierslicer.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(sys.modules["tierslicer"].__file__).resolve().parent != src / "tierslicer":
        sys.exit("error: tierslicer was imported from outside this checkout")
    return elapsed


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds of this fresh process: the import plus one warm-up operation."""
    import_s = import_tierslicer()
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    workdir = OUT / f"probe-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[workload](seed, workdir, limit=1)
        wl.prepare()
        start = time.perf_counter()
        wl.run(wl.inputs[0], Tracer())
        return import_s + time.perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload: str, seed: int) -> list:
    """setup_s of SETUP_PROBES fresh processes, run one after another."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Loop:
    """Repeats whole rounds of the workload's operations and checks every answer."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def round(self, result, first_round: bool, traced: bool) -> float:
        from perfbench.checks import CheckFailed

        busy = 0.0
        for inp in self.wl.inputs:
            # Start each operation from a collected heap, so that a collection
            # the previous operation's garbage is due is not charged to it.
            gc.collect()
            self.attempted += 1
            self.tracer.op = self.attempted
            self.tracer.active = traced
            start = time.perf_counter()
            try:
                with self.tracer.span(f"{self.wl.name}.op"):
                    out = self.wl.run(inp, self.tracer)
            except Exception as exc:  # a fault in the program under test
                self.tracer.active = False
                self.failed += 1
                print(f"FAILED {inp.name}: {exc!r}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            self.tracer.active = False
            busy += elapsed
            result.op_seconds.append(elapsed)
            result.work += self.wl.work(inp)
            try:
                self.wl.check(inp, out, result, first_round)
            except CheckFailed as exc:
                self.correct = False
                print(f"WRONG {inp.name}: {exc}", file=sys.stderr)
        return busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("analyze", "search", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        print(probe_setup(args.workload, args.seed))
        return 0

    import_s = import_tierslicer()
    from perfbench import spans
    from perfbench.workloads import WORKLOADS, Result

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{stem}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.prepare()
        tracer = spans.Tracer()
        loop = Loop(wl, tracer)
        start = time.perf_counter()
        wl.run(wl.inputs[0], tracer)
        setup = [import_s + time.perf_counter() - start]

        result = Result()
        if args.trace:
            metrics, summary = traced_run(loop, result, args.seconds)
            tracer.write_jsonl(OUT / f"{stem}.jsonl", summary)
            print(json.dumps(summary), file=sys.stderr)
        else:
            rounds, busy = 0, 0.0
            began = time.perf_counter()
            while rounds == 0 or time.perf_counter() - began < args.seconds:
                busy += loop.round(result, rounds == 0, traced=False)
                rounds += 1
            setup += setup_samples(args.workload, args.seed)
            values = {
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "op_p50_s": statistics.median(result.op_seconds) if result.op_seconds else 0.0,
                "work_per_s": result.work / busy if busy else 0.0,
                "offline_fraction": result.local_calls / result.calls if result.calls else 0.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
            print(json.dumps({"workload": args.workload, "rounds": rounds, "setup_samples": setup,
                              "optimum_hits": result.hits, "work_unit": wl.work_unit}),
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    line = json.dumps({"correct": loop.correct, "attempted": loop.attempted,
                       "failed": loop.failed, "metrics": metrics})
    (OUT / f"{stem}.json").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


def traced_run(loop, result, seconds: float):
    """Alternate untraced and traced rounds; layer metrics come from the traced ones.

    The traced seconds per operation over the untraced ones, minus one, is the
    tracing overhead.
    """
    from perfbench import spans
    from perfbench.workloads import Result

    busy = {False: 0.0, True: 0.0}
    ops = {False: 0, True: 0}
    rounds = 0
    began = time.perf_counter()
    while rounds < 2 or time.perf_counter() - began < seconds:
        traced = rounds % 2 == 1
        before = loop.attempted
        with loop.tracer.instrumented() if traced else contextlib.nullcontext():
            busy[traced] += loop.round(result if traced else Result(), rounds == 1, traced)
        ops[traced] += loop.attempted - before
        rounds += 1
    values = spans.layer_metrics(loop.tracer.spans, ops[True])
    pop30, chunk = kernel_rates(loop.wl.problems())
    values["kernels.eval_rows_per_s_pop30"] = pop30
    values["kernels.eval_rows_per_s_chunk"] = chunk
    values["search.optimum_hits"] = float(result.hits)
    metrics = {k: {"value": values[k], "unit": u} for k, u in spans.PER_LAYER_UNITS.items()}
    per_op = {t: busy[t] / ops[t] for t in busy}
    summary = {"workload": loop.wl.name, "rounds": rounds, "traced_ops": ops[True],
               "untraced_s_per_op": per_op[False], "traced_s_per_op": per_op[True],
               "tracing_overhead": per_op[True] / per_op[False] - 1}
    return metrics, summary


POP30_CALLS = 200
CHUNK_ROWS = 1 << 16  # the oracle's chunk
CHUNK_CALLS = 2
CHUNK_MAX_GENES = 12  # the oracle's default cap


def kernel_rates(problems):
    """Rows per second of eval_population at the GA's and the oracle's batch shapes.

    Timed directly on the workload's own compiled problems; the chunk shape is
    used only on problems the oracle would accept.
    """
    import numpy as np
    from tierslicer import kernels

    rng = np.random.default_rng(0)
    rates = []
    for rows, repeats, max_genes in ((30, POP30_CALLS, None), (CHUNK_ROWS, CHUNK_CALLS, CHUNK_MAX_GENES)):
        done = busy = 0.0
        for problem in problems:
            compiled = kernels.compile_problem(problem)
            if compiled.n_genes == 0 or (max_genes and compiled.n_genes > max_genes):
                continue
            genomes = rng.integers(1, 4, size=(rows, compiled.n_genes), dtype=np.int8)
            start = time.perf_counter()
            for _ in range(repeats):
                kernels.eval_population(compiled, genomes)
            busy += time.perf_counter() - start
            done += rows * repeats
        rates.append(done / busy if busy else 0.0)
    return rates


if __name__ == "__main__":
    sys.exit(main())
