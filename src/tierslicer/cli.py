"""Command-line interface.

Subcommands: parse, graph, assign, oracle, advise, refine, split, stats.
Exit codes: 0 ok, 1 usage, 2 parse error, 3 invalid placement, 4 search
failure.

Each command imports the stages it runs when it runs, so start-up loads only
click and the domain types, and only the commands that search (``assign``,
``stats``, ``refine`` and ``advise`` without ``--placement``) load numpy.
Likewise only ``graph`` builds the dependence graph, which it prints; the
others read the call table off the front end's walk, and the advisor reads
the walk's name bindings.

A command runs with the cyclic garbage collector paused, and the collector's
state is restored on the way out, whatever the exit code.  The trees a command
builds hold no reference cycles, so refcounting frees them and a collection
would only scan live objects.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

import click

from . import __version__
from .errors import AllInvalidError, TierSlicerError, TooManySlicesError
from .model import (MAX_REFINE_ITERATIONS, ORACLE_CAP, AdvisorConfig, GaConfig,
                    PlacementProblem, Tier)

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID_PLACEMENT = 3
EXIT_SEARCH_FAILURE = 4

click.UsageError.exit_code = EXIT_USAGE

# Run, job and iteration counts: zero or less is a usage error.
COUNT = click.IntRange(min=1)


def load_program(path: str):
    from . import frontend

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        program = frontend.resolve_calls(frontend.parse(text, path))
    except OSError as exc:
        click.echo(f"{path}: {exc.strerror}", err=True)
        sys.exit(EXIT_PARSE)
    except UnicodeDecodeError as exc:
        click.echo(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}", err=True)
        sys.exit(EXIT_PARSE)
    except TierSlicerError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_PARSE)
    for warning in program.warnings:
        click.echo(warning, err=True)
    return program


def load_problem(path: str) -> tuple:
    """``(program, placement problem)`` of the source file ``path``.  The call
    table is read off the walk's call sites, so no dependence graph is built:
    a command that reads the graph builds it itself."""
    from .depgraph import placement_problem

    program = load_program(path)
    return program, placement_problem(program)


def load_placement(path: str, problem: PlacementProblem):
    """Read a placement file that gives every slice of ``problem`` a tier and
    keeps its @config tiers; a file that does not exits 3."""
    from .placement import Placement

    try:
        with open(path, encoding="utf-8") as fh:
            placement = Placement.from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        click.echo(f"{path}: cannot read placement: {exc}", err=True)
        sys.exit(EXIT_USAGE)
    named = {**placement.fixed, **placement.searched}
    missing = [s for s in problem.slices if s not in named]
    unknown = [s for s in named if s not in problem.slices]
    moved = [s for s, tier in problem.fixed.items() if s in named and named[s] is not tier]
    if missing:
        reason = f"no tier for slice {missing[0]!r}"
    elif unknown:
        reason = f"unknown slice {unknown[0]!r}"
    elif moved:
        s = moved[0]
        reason = (f"slice {s!r} is fixed to {problem.fixed[s].value} by @config, "
                  f"not {named[s].value}")
    else:
        return placement
    click.echo(f"{path}: {reason}", err=True)
    sys.exit(EXIT_INVALID_PLACEMENT)


def write_or_echo(text: str, path: str | None) -> None:
    """Write ``text`` to the file ``path``, or to stdout when there is none.  A
    file that cannot be written exits 1 with one stderr line."""
    if not path:
        click.echo(text, nl=False)
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"{path}: cannot write: {exc.strerror}", err=True)
        sys.exit(EXIT_USAGE)


def make_config(cls, **options):
    """``cls(**options)``; a value that ``cls`` rejects is a usage error."""
    try:
        return cls(**options)
    except ValueError as exc:
        raise click.UsageError(str(exc))


def ga_options(fn):
    """The GA options, each named after the GaConfig field it sets and
    defaulting to that field's default; the command gets them as ``**ga``."""
    for flag, name, help_text in (
        ("--pop", "population_size", "Population size."),
        ("--gens", "max_generations", "Maximum number of generations."),
        ("--pc", "crossover_prob", "Crossover probability."),
        ("--pm", "mutation_prob", "Mutation probability."),
        ("--tournament", "tournament_size", "Tournament size."),
        ("--seed", "rng_seed", "RNG seed."),
    ):
        fn = click.option(flag, name, default=getattr(GaConfig, name), show_default=True,
                          help=help_text)(fn)
    return fn


class _Main(click.Group):
    """Maps a search that finds no valid placement to exit code 4, and runs
    the command with the cyclic garbage collector paused.

    An exit code that a command raises, a click error's (shown as click
    shows it) or exit code 4 is raised from here, once the handler is done,
    so the exit's traceback and context hold none of the command's frames:
    an in-process caller that keeps the SystemExit, as click's CliRunner
    does, keeps no tree the command built."""

    def invoke(self, ctx):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except AllInvalidError as exc:
            click.echo(f"search failed: {exc}", err=True)
            code = EXIT_SEARCH_FAILURE
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except SystemExit as exc:
            code = exc.code
        finally:
            if enabled:
                gc.enable()
        sys.exit(code)


@click.group(cls=_Main)
@click.version_option(version=__version__)
def main():
    """Analyze slice-structured TierJS programs and assign slices to tiers."""


@main.command("parse")
@click.argument("path", type=click.Path())
def cmd_parse(path):
    """Parse PATH and print a slice/annotation summary."""
    from .frontend import iter_annotated_nodes
    from .syntax import ANNOTATION_CATEGORIES

    program = load_program(path)
    fixed = sum(1 for s in program.slices if s.fixed_tier)
    click.echo(f"slices: {len(program.slices)} ({fixed} fixed)")
    for s in program.slices:
        tier = s.fixed_tier or "unplaced"
        click.echo(f"  {s.name}: {tier}")
    kinds = Counter(a.kind for _, anns in iter_annotated_nodes(program) for a in anns)
    click.echo("annotations: " + " ".join(f"{category}={sum(kinds[k] for k in members)}"
                                          for category, members in ANNOTATION_CATEGORIES.items()))
    if program.warnings:
        click.echo(f"unresolved calls: {len(program.warnings)}")


@main.command("graph")
@click.argument("path", type=click.Path())
@click.option("--dot", "fmt", flag_value="dot", default=True, help="DOT slice graph (default).")
@click.option("--json", "fmt", flag_value="json", help="Full dependence graph as JSON.")
@click.option("-o", "--output", type=click.Path(), default=None, help="Write to file instead of stdout.")
def cmd_graph(path, fmt, output):
    """Export the dependence graph of PATH."""
    from . import depgraph

    program = load_program(path)
    graph = depgraph.build_pdg(program)
    if fmt == "dot":
        text = depgraph.to_dot(depgraph.collapse_to_slice_graph(graph))
    else:
        text = depgraph.to_json(graph)
    write_or_echo(text, output)


def _print_fitness(report):
    from .fitness import offline_percent, report_header

    click.echo(report_header(report.program))
    click.echo(f"valid: {'yes' if report.valid else 'no'}")
    for name, sf in report.per_slice.items():
        click.echo(f"  {name}: {sf.local_calls}/{sf.total_calls} local "
                   f"({offline_percent(sf.offline_fraction)} %)")


@main.command("assign")
@click.argument("path", type=click.Path())
@ga_options
@click.option("--runs", default=1, show_default=True, type=COUNT,
              help="Number of independent searches.")
@click.option("--jobs", default=1, show_default=True, type=COUNT,
              help="Worker processes for --runs.")
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Also write stats as CSV (needs --runs above 1).")
@click.option("-o", "--output", type=click.Path(), default=None, help="Write placement JSON to file.")
def cmd_assign(path, runs, jobs, csv_path, output, **ga):
    """Search a tier placement for PATH and report its fitness."""
    if runs > 1 and output is not None:
        raise click.UsageError("-o/--output cannot be used with --runs above 1")
    if runs == 1 and csv_path is not None:
        raise click.UsageError("--csv needs --runs above 1")
    from .fitness import evaluate
    from .search import run

    program, problem = load_problem(path)
    config = make_config(GaConfig, **ga)
    if runs > 1:
        _stats_mode(program, problem, config, runs, jobs, csv_path)
        return
    result = run(problem, config)
    write_or_echo(result.best_placement.to_json(), output)
    report = evaluate(problem, result.best_placement)
    _print_fitness(report)
    click.echo(f"generations: {result.generations_used}")


@main.command("stats")
@click.argument("path", type=click.Path())
@ga_options
@click.option("--runs", default=100, show_default=True, type=COUNT)
@click.option("--jobs", default=1, show_default=True, type=COUNT)
@click.option("--csv", "csv_path", type=click.Path(), default=None)
def cmd_stats(path, runs, jobs, csv_path, **ga):
    """Run the search many times and summarize the tier distribution."""
    program, problem = load_problem(path)
    config = make_config(GaConfig, **ga)
    _stats_mode(program, problem, config, runs, jobs, csv_path)


def _stats_mode(program, problem, config, runs, jobs, csv_path):
    import csv
    import io
    import statistics

    from . import advisor as advisor_mod
    from .search import run_many

    results = run_many(problem, config, runs, jobs)

    per_tier = {Tier.CLIENT: [], Tier.SERVER: [], Tier.BOTH: []}
    for r in results:
        for tier in per_tier:
            per_tier[tier].append(
                sum(1 for t in r.best_placement.searched.values() if t is tier)
            )
    gens = [r.generations_used for r in results]
    fits = [r.best_fitness for r in results]

    advices = advisor_mod.advise(problem, results[0].best_placement, program)
    data_adv = sum(1 for a in advices if a.kind is advisor_mod.AdviceKind.REPLICATE_DECLARATION)
    slice_adv = sum(1 for a in advices if a.kind is advisor_mod.AdviceKind.MOVE_FUNCTION)

    def mmm(values):
        return int(statistics.median(values)), min(values), max(values)

    row = {
        "runs": runs,
        "gen": int(statistics.median(gens)),
    }
    for label, tier in (("C", Tier.CLIENT), ("S", Tier.SERVER), ("B", Tier.BOTH)):
        med, lo, hi = mmm(per_tier[tier])
        row[f"med{label}"], row[f"min{label}"], row[f"max{label}"] = med, lo, hi
    row["offline%"] = f"{100 * statistics.median(fits):.2f}"
    row["data adv"] = data_adv
    row["slice adv"] = slice_adv

    headers = list(row)
    if csv_path:  # before the table, so a CSV that cannot be written leaves stdout empty
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=headers)
        writer.writeheader()
        writer.writerow(row)
        write_or_echo(buf.getvalue(), csv_path)
    widths = [max(len(h), len(str(row[h]))) for h in headers]
    click.echo("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    click.echo("  ".join(str(row[h]).ljust(w) for h, w in zip(headers, widths)))


@main.command("oracle")
@click.argument("path", type=click.Path())
@click.option("--oracle-cap", "cap", type=click.IntRange(min=0), default=ORACLE_CAP,
              show_default=True,
              help="Maximum number of unplaced slices to enumerate.")
@click.option("-o", "--output", type=click.Path(), default=None)
def cmd_oracle(path, cap, output):
    """Exhaustively enumerate all placements of PATH's unplaced slices."""
    from .exact import exhaustive_oracle
    from .fitness import evaluate

    _, problem = load_problem(path)
    try:
        placement, fitness_value = exhaustive_oracle(problem, cap=cap)
    except TooManySlicesError as exc:
        raise click.UsageError(str(exc))
    write_or_echo(placement.to_json(), output)
    _print_fitness(evaluate(problem, placement))


@main.command("advise")
@click.argument("path", type=click.Path())
@click.option("--placement", "placement_path", type=click.Path(), default=None,
              help="Placement JSON to analyze (default: run the search).")
@click.option("--threshold", "move_threshold", default=AdvisorConfig.move_threshold,
              show_default=True, help="Relative-difference threshold for function moves.")
@click.option("--json", "as_json", is_flag=True, help="Emit the advice as JSON.")
@ga_options
def cmd_advise(path, placement_path, move_threshold, as_json, **ga):
    """Print refinement advice for PATH under a placement."""
    import json

    from . import advisor as advisor_mod
    from .fitness import evaluate

    program, problem = load_problem(path)
    config = None if placement_path else make_config(GaConfig, **ga)
    adv_cfg = make_config(AdvisorConfig, move_threshold=move_threshold)
    if placement_path:
        placement = load_placement(placement_path, problem)
    else:
        from .search import run

        placement = run(problem, config).best_placement
    fitness_value = evaluate(problem, placement).program
    advices = advisor_mod.advise(problem, placement, program, adv_cfg)
    if as_json:
        click.echo(json.dumps(advisor_mod.report_json(fitness_value, advices),
                              indent=2, sort_keys=True))
    else:
        click.echo(advisor_mod.render_report(fitness_value, advices), nl=False)


@main.command("refine")
@click.argument("path", type=click.Path())
@click.option("--apply", "do_apply", is_flag=True,
              help="Automatically integrate the advice between runs.")
@click.option("--max-iters", "max_iterations", default=MAX_REFINE_ITERATIONS, show_default=True,
              type=COUNT)
@click.option("--threshold", "move_threshold", default=AdvisorConfig.move_threshold,
              show_default=True)
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Write the refined source to a file.")
@ga_options
@click.pass_context
def cmd_refine(ctx, path, do_apply, max_iterations, move_threshold, output, **ga):
    """Iterate search + advice; with --apply, advice is integrated automatically.

    Without --apply this is ``advise PATH``: one search, one advice report.
    """
    if not do_apply:
        ctx.invoke(cmd_advise, path=path, move_threshold=move_threshold, **ga)
        return
    from . import advisor as advisor_mod
    from .fitness import report_header
    from .frontend import emit

    program = load_program(path)
    config = make_config(GaConfig, **ga)
    adv_cfg = make_config(AdvisorConfig, move_threshold=move_threshold)
    result = advisor_mod.refine_loop(program, config, adv_cfg, max_iterations=max_iterations)
    write_or_echo(emit(result.program), output)
    click.echo(report_header(result.fitness))
    click.echo(f"iterations: {result.iterations}")
    click.echo(f"slices: {len(result.program.slices)}")


@main.command("split")
@click.argument("path", type=click.Path())
@click.option("--placement", "placement_path", type=click.Path(), required=True)
def cmd_split(path, placement_path):
    """Structural per-tier listing for PATH under a placement."""
    from .placement import classify_calls, violations

    program, problem = load_problem(path)
    placement = load_placement(placement_path, problem)
    classified = classify_calls(problem, placement)
    bad = violations(classified)
    if bad:
        click.echo("invalid placement:", err=True)
        for c in bad:
            click.echo(f"  {path}:{c.record.label}: unannotated {c.direction.value} call "
                       f"to '{c.record.callee_name}'", err=True)
        sys.exit(EXIT_INVALID_PLACEMENT)
    shared_count = len(program.shared_top_level)
    for tier_name, bit in (("client", 1), ("server", 2)):
        click.echo(f"[{tier_name}]")
        for name in problem.slices:
            if placement.mask(name) & bit:
                click.echo(f"  slice {name}")
        if shared_count:
            click.echo(f"  shared statements: {shared_count}")
    remote = [c for c in classified if not c.local]
    click.echo(f"[remote calls: {len(remote)}]")
    for c in remote:
        click.echo(f"  {path}:{c.record.label}: {c.record.caller} -> {c.record.callee} "
                   f"('{c.record.callee_name}', {c.direction.value})")


if __name__ == "__main__":
    main()
