"""Spans around calls into tierslicer's public functions, and the layer metrics.

The tracer rebinds each traced function, in every tierslicer module that
holds it, to a wrapper that records a span: name, start, end, the span that
caused it, the operation id and sizes (bytes, nodes, edges, calls, genes,
rows).  Spans stay in memory and are written out as JSONL when the run ends.
Nothing in tierslicer itself is changed on disk.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


def _generations_to_best(result) -> int:
    """Generations up to and including the first one that reached the run's final best."""
    final = result.history[-1]
    return next(i for i, v in enumerate(result.history) if v == final) + 1


def _run_many_sizes(args, result):
    if result is None:
        return {}
    return {
        "runs": len(result),
        "genes": len(args[0].unplaced),
        "generations": sum(r.generations_used for r in result),
        "to_best": sum(_generations_to_best(r) for r in result),
    }


# (module, function, sizes(args, result) -> dict); result is None on an exception.
TRACED = (
    ("frontend", "parse", lambda a, r: {"bytes": len(a[0].encode("utf-8"))}),
    ("frontend", "resolve_calls", lambda a, r: {"calls": len(r.call_sites)} if r else {}),
    ("frontend", "emit", lambda a, r: {"bytes": len(r.encode("utf-8"))} if r else {}),
    ("depgraph", "build_pdg", lambda a, r: {"nodes": len(r.nodes), "edges": len(r.edges)} if r else {}),
    ("depgraph", "placement_problem", lambda a, r: {"calls": len(r.calls)} if r else {}),
    ("fitness", "evaluate", lambda a, r: {"calls": len(a[0].calls)}),
    ("placement", "is_valid", lambda a, r: {"calls": len(a[0].calls)}),
    ("advisor", "advise", lambda a, r: {"items": len(r)} if r is not None else {}),
    ("advisor", "apply_advice", lambda a, r: {"items": len(a[1])}),
    ("kernels", "compile_problem", lambda a, r: {"calls": r.n_calls, "genes": r.n_genes} if r else {}),
    ("kernels", "eval_population", lambda a, r: {"rows": len(a[1]), "genes": a[0].n_genes}),
    ("search", "run_many", _run_many_sizes),
    ("search", "exhaustive_oracle",
     lambda a, r: {"genes": len(a[0].unplaced), "placements": 3 ** len(a[0].unplaced)}),
)


class Tracer:
    """Records spans while active; a no-op otherwise."""

    def __init__(self):
        self.spans = []  # [id, name, parent, op, start, end, sizes]
        self.active = False
        self.op = None
        self._stack = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        record = [len(self.spans), name, self._stack[-1] if self._stack else None, self.op,
                  time.perf_counter() - self._t0, None, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record
        finally:
            self._stack.pop()
            record[5] = time.perf_counter() - self._t0

    def _wrap(self, name, fn, sizes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            result = None
            with self.span(name) as record:
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    record[6] = sizes(args, result)
        return traced

    @contextlib.contextmanager
    def instrumented(self):
        """Rebind every traced function in every loaded tierslicer module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "tierslicer" or n.startswith("tierslicer."))]
        undo = []
        for module_name, fn_name, sizes in TRACED:
            original = getattr(sys.modules[f"tierslicer.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, sizes)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in undo:
                setattr(module, attr, original)

    def write_jsonl(self, path, summary: dict):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, parent, op, start, end, sizes in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "parent": parent, "op": op,
                                     "start": start, "end": end, "sizes": sizes}) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


# --- Layer metrics ----------------------------------------------------------------

PER_LAYER_UNITS = {
    "frontend.parse_s": "s",
    "frontend.resolve_calls_s": "s",
    "frontend.emit_s": "s",
    "frontend.source_kb": "KB",
    "depgraph.build_pdg_s": "s",
    "depgraph.placement_problem_s": "s",
    "depgraph.nodes": "count",
    "depgraph.edges": "count",
    "depgraph.call_records": "count",
    "fitness.evaluate_s": "s",
    "placement.is_valid_s": "s",
    "advisor.advise_s": "s",
    "advisor.apply_advice_s": "s",
    "advisor.advice_items": "count",
    "cli.advise_s": "s",
    "cli.split_s": "s",
    "cli.overhead_s": "s",
    "kernels.compile_problem_s": "s",
    "kernels.eval_rows_per_s_pop30": "rows/s",
    "kernels.eval_rows_per_s_chunk": "rows/s",
    "search.run_many_s": "s",
    "search.generations": "count",
    "search.ms_per_generation": "ms",
    "search.generations_to_best": "count",
    "search.useful_generation_ratio": "ratio",
    "search.optimum_hits": "runs",
    "search.oracle_s": "s",
    "search.oracle_placements": "count",
}

SELF_TIME = {
    "frontend.parse_s": "frontend.parse",
    "frontend.resolve_calls_s": "frontend.resolve_calls",
    "frontend.emit_s": "frontend.emit",
    "depgraph.build_pdg_s": "depgraph.build_pdg",
    "depgraph.placement_problem_s": "depgraph.placement_problem",
    "fitness.evaluate_s": "fitness.evaluate",
    "placement.is_valid_s": "placement.is_valid",
    "advisor.advise_s": "advisor.advise",
    "advisor.apply_advice_s": "advisor.apply_advice",
    "kernels.compile_problem_s": "kernels.compile_problem",
}
JOB_TIME = {
    "cli.advise_s": "cli.advise",
    "cli.split_s": "cli.split",
    "search.run_many_s": "search.run_many",
    "search.oracle_s": "search.exhaustive_oracle",
}


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-operation layer figures from the spans of `n_ops` traced operations.

    `_s` stage metrics are self time (span minus child spans) per operation;
    the job metrics in JOB_TIME are whole-call time per operation.  Sizes are
    per call of the stage that produced them.
    """
    by_id = {s[0]: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        if s[2] is not None:
            child[s[2]] += s[5] - s[4]
    self_time = {s[0]: s[5] - s[4] - child[s[0]] for s in spans}
    total_self = defaultdict(float)
    total_dur = defaultdict(float)
    calls = defaultdict(int)
    size = defaultdict(float)
    for s in spans:
        total_self[s[1]] += self_time[s[0]]
        total_dur[s[1]] += s[5] - s[4]
        calls[s[1]] += 1
        for key, value in s[6].items():
            size[(s[1], key)] += value

    def per_call(name, key):
        return size[(name, key)] / calls[name] if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {m: total_self[n] / n_ops for m, n in SELF_TIME.items()}
    out.update({m: total_dur[n] / n_ops for m, n in JOB_TIME.items()})
    out["frontend.source_kb"] = size[("frontend.parse", "bytes")] / 1024 / n_ops
    out["depgraph.nodes"] = per_call("depgraph.build_pdg", "nodes")
    out["depgraph.edges"] = per_call("depgraph.build_pdg", "edges")
    out["depgraph.call_records"] = per_call("depgraph.placement_problem", "calls")
    out["advisor.advice_items"] = per_call("advisor.advise", "items")
    out["cli.overhead_s"] = _cli_overhead(spans, by_id, self_time) / n_ops
    generations = size[("search.run_many", "generations")]
    out["search.generations"] = generations / n_ops
    out["search.ms_per_generation"] = 1e3 * ratio(total_dur["search.run_many"], generations)
    out["search.generations_to_best"] = ratio(size[("search.run_many", "to_best")],
                                              size[("search.run_many", "runs")])
    out["search.useful_generation_ratio"] = ratio(size[("search.run_many", "to_best")], generations)
    out["search.oracle_placements"] = size[("search.exhaustive_oracle", "placements")] / n_ops
    return out


def _cli_overhead(spans, by_id, self_time) -> float:
    """CLI job time minus one call of each stage the job needs.

    Self times partition a job's duration, so this is the CLI's own time plus
    every repeated call of a stage beyond its first (at its mean self time).
    """
    jobs = {s[0]: s for s in spans if s[1].startswith("cli.")}
    stage_self = defaultdict(lambda: defaultdict(float))
    stage_calls = defaultdict(lambda: defaultdict(int))
    for s in spans:
        parent = s[2]
        while parent is not None and parent not in jobs:
            parent = by_id[parent][2]
        if parent is not None:
            stage_self[parent][s[1]] += self_time[s[0]]
            stage_calls[parent][s[1]] += 1
    total = 0.0
    for jid, job in jobs.items():
        needed = sum(stage_self[jid][n] / stage_calls[jid][n] for n in stage_self[jid])
        total += job[5] - job[4] - needed
    return total
