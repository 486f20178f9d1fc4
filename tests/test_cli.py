from __future__ import annotations

import gc
import json

import pytest
from click.testing import CliRunner

from conftest import fixture_path, fixture_problem
from tierslicer import advisor, cli, depgraph, search
from tierslicer.advisor import AdvisorConfig
from tierslicer.cli import main
from tierslicer.errors import AllInvalidError
from tierslicer.exact import exhaustive_oracle
from tierslicer.model import Tier
from tierslicer.placement import Placement
from tierslicer.search import GaConfig

ALL_FIXTURES = [p.name for p in sorted(fixture_path(".").glob("*.tjs"))]


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def test_parse_summarizes_slices(runner):
    result = invoke(runner, "parse", fixture_path("tracker.tjs"))
    assert result.exit_code == 0
    assert "slices: 2 (2 fixed)" in result.output
    assert "data: server" in result.output and "browser: client" in result.output


@pytest.mark.parametrize(
    ("statement", "col", "message"),
    [
        ("var = ;", 7, "expected identifier"),
        ("var x = 1.2.3;", 11, "malformed number '1.2.3'"),
        ("var x = ²;", 11, "unexpected character '²'"),
        ("var x = " + "9" * 400 + ";", 11, "number too large for a float"),
    ],
    ids=["missing-name", "malformed-number", "superscript-digit", "huge-number"],
)
def test_parse_error_exits_2(runner, tmp_path, statement, col, message):
    bad = tmp_path / "bad.tjs"
    bad.write_text(f"/* @slice a */\n{{ {statement} }}\n", encoding="utf-8")
    result = invoke(runner, "parse", bad)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"{bad}:2:{col}: {message}\n"


@pytest.mark.parametrize(
    ("source", "line", "col", "message"),
    [
        ("/* @slice a */\n{ }\n  /* @bogus */ var x;\n", 3, 3, "unknown annotation @bogus"),
        ("/* @slice a */\n{ }\n\n /* @slice a */ { }\n", 4, 2, "duplicate slice name 'a'"),
        ("/* @slice a */\n{ /* @config a : cloud */ var x; }\n", 2, 3,
         "malformed @config entry 'a : cloud'"),
        ("/* @slice a */\n{ }\nvar y;\n/* @config , */ var x;\n", 4, 1,
         "@config carries no name : tier pairs"),
        ("/* @slice a */\n{ }\n   /* @config b : client */ var x;\n", 3, 4,
         "@config names undeclared slice 'b'"),
        ("/* @config a : client */\n/* @slice a */\n{ }\n /* @config a : server */ var x;\n", 4, 2,
         "conflicting tiers for slice 'a'"),
    ],
    ids=["unknown-annotation", "duplicate-slice", "malformed-config", "empty-config",
         "undeclared-slice", "conflicting-tiers"],
)
def test_annotation_error_exits_2_at_its_comment(runner, tmp_path, source, line, col, message):
    bad = tmp_path / "bad.tjs"
    bad.write_text(source, encoding="utf-8")
    result = invoke(runner, "parse", bad)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"{bad}:{line}:{col}: {message}\n"


@pytest.mark.parametrize(("statement", "col"), [("/* @reply @ui */ x();", 20),
                                                ("/* @ui */ /* @reply */ { <p/> }", 13)],
                         ids=["ui-before-a-call", "ui-before-a-comment"])
def test_ui_annotation_not_before_a_block_exits_2(runner, tmp_path, statement, col):
    """The lexer captures the block after a @ui comment, so nothing else may follow one."""
    bad = tmp_path / "bad.tjs"
    bad.write_text(f"/* @slice a */\n{{ {statement} }}\n", encoding="utf-8")
    result = invoke(runner, "parse", bad)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"{bad}:2:{col}: expected '{{' after @ui annotation\n"


# Deeply nested statements, each built from its nesting count.
NESTED = {
    "parens": lambda n: "var x = " + "(" * n + "1" + ")" * n + ";",
    "calls": lambda n: "var x = " + "f(" * n + "1" + ")" * n + ";",
    "blocks": lambda n: "{" * n + "}" * n,
    "unary-minus": lambda n: "var x = " + "-" * n + "1;",
    "flat-chain": lambda n: "var x = " + "+".join(["1"] * n) + ";",
}


@pytest.mark.parametrize("command", ["parse", "advise"])
@pytest.mark.parametrize(
    ("shape", "n", "col"),
    [("parens", 50, None), ("parens", 1000, 108),
     ("calls", 50, None), ("calls", 1000, 207),
     ("blocks", 50, None), ("blocks", 1000, 101),
     ("unary-minus", 50, None), ("unary-minus", 1000, 108),
     ("flat-chain", 50, None), ("flat-chain", 1000, 208)],
)
def test_deep_nesting_is_analysed_or_exits_2(runner, tmp_path, shape, n, col, command):
    """50 levels are analysed; 1,000 exit 2 with one position line, never a traceback."""
    src = tmp_path / "deep.tjs"
    src.write_text("/* @config a : server */\n/* @slice a */\n{ function f(p) { return p; }\n"
                   + NESTED[shape](n) + "\n}\n", encoding="utf-8")
    placement = tmp_path / "p.json"
    placement.write_text('{"fixed": {"a": "server"}, "searched": {}}', encoding="utf-8")
    args = ("--placement", placement) if command == "advise" else ()
    result = invoke(runner, command, src, *args)
    assert result.exception is None or isinstance(result.exception, SystemExit)  # no traceback
    if col is None:
        assert result.exit_code == 0
    else:
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"{src}:4:{col}: nested too deeply\n"


def test_missing_file_exits_2(runner):
    result = invoke(runner, "parse", "no-such-file.tjs")
    assert result.exit_code == 2


@pytest.mark.parametrize("command", [("parse",), ("graph", "--json"), ("oracle",)],
                         ids=["parse", "graph-json", "oracle"])
def test_source_that_is_not_utf8_exits_2(runner, tmp_path, command):
    bad = tmp_path / "latin1.tjs"
    bad.write_bytes("/* @slice a */\n{ var s = 'café'; }\n".encode("latin-1"))
    result = invoke(runner, command[0], bad, *command[1:])
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"{bad}: not UTF-8: invalid continuation byte at byte 29\n"


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_a_byte_order_mark_is_whitespace(runner, tmp_path, name):
    """A file saved with a UTF-8 byte-order mark reads as the same program."""
    text = fixture_path(name).read_text(encoding="utf-8")
    plain, marked = tmp_path / "plain.tjs", tmp_path / "marked.tjs"
    plain.write_text(text, encoding="utf-8")
    marked.write_text("\ufeff" + text, encoding="utf-8")
    for command in ("parse", "oracle"):
        want, got = invoke(runner, command, plain), invoke(runner, command, marked)
        assert (got.exit_code, got.stdout) == (want.exit_code, want.stdout), command
        assert want.exit_code == 0


@pytest.mark.parametrize("args", [
    ("graph", "-o"), ("graph", "--json", "-o"), ("assign", "-o"), ("oracle", "-o"),
    ("refine", "--apply", "-o"), ("stats", "--runs", 2, "--csv"),
    ("assign", "--runs", 2, "--csv"),
], ids=["graph", "graph-json", "assign", "oracle", "refine-apply", "stats-csv", "assign-runs-csv"])
@pytest.mark.parametrize("where, reason", [
    ("missing-dir/out", "No such file or directory"), (".", "Is a directory"),
], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_1(runner, tmp_path, args, where, reason):
    out = tmp_path / where
    result = invoke(runner, args[0], fixture_path("unicorn_v2.tjs"), *args[1:], out)
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == f"{out}: cannot write: {reason}\n"


def test_graph_dot_default(runner):
    result = invoke(runner, "graph", fixture_path("meetings.tjs"))
    assert result.exit_code == 0
    assert result.output.startswith("digraph slices {")


def test_graph_json_round_trips(runner, tmp_path):
    out = tmp_path / "graph.json"
    result = invoke(runner, "graph", fixture_path("meetings.tjs"), "--json", "-o", out)
    assert result.exit_code == 0
    payload = json.loads(out.read_text())
    assert [s["name"] for s in payload["slices"]] == ["data", "sorting", "statistics", "browser"]


def test_assign_emits_placement_and_fitness(runner):
    result = invoke(runner, "assign", fixture_path("unicorn_v2.tjs"), "--seed", 1)
    assert result.exit_code == 0
    assert '"query"' in result.output
    assert "Application level of offline availability: 68 %" in result.output
    assert "generations:" in result.output


def test_assign_output_with_many_runs_is_a_usage_error(runner, tmp_path):
    out = tmp_path / "placement.json"
    result = invoke(runner, "assign", fixture_path("unicorn_v2.tjs"), "--runs", 2, "-o", out)
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "Error: -o/--output cannot be used with --runs above 1" in result.stderr
    assert not out.exists()


def test_assign_csv_with_one_run_is_a_usage_error(runner, tmp_path):
    csv_path = tmp_path / "stats.csv"
    result = invoke(runner, "assign", fixture_path("unicorn_v2.tjs"), "--csv", csv_path)
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "Error: --csv needs --runs above 1" in result.stderr
    assert not csv_path.exists()


def test_assign_is_deterministic(runner):
    args = ("assign", fixture_path("unicorn_v4.tjs"), "--seed", 5)
    assert invoke(runner, *args).output == invoke(runner, *args).output


HOPELESS = (
    "/* @config srv : server, cli : client */\n"
    "/* @slice srv */\n{ function push() { show(1); } }\n"
    "/* @slice cli */\n{ function show(x) { return x; } }\n"
    "/* @slice spare */\n{ var pad = 1; }\n"
)


def test_assign_search_failure_exits_4(runner, tmp_path):
    hopeless = tmp_path / "hopeless.tjs"
    hopeless.write_text(HOPELESS)
    result = invoke(runner, "assign", hopeless)
    assert result.exit_code == 4
    assert "search failed" in result.output
    assert "the client slice 'cli' is reached from the server" in result.stderr


def chain_source(n_helpers: int) -> str:
    """A server slice calling helper 0 and each helper calling the next, none
    with @reply: a valid placement puts every helper on the server, which
    (2/3)^n_helpers of the random placements do.  The client calls every
    helper, so the optimum puts them all on both tiers."""
    helpers = "".join(
        f"/* @slice helper{h} */\n{{ function h{h}(x) {{ "
        + (f"h{h + 1}(x); " if h + 1 < n_helpers else "")
        + "return x; } }\n" for h in range(n_helpers))
    calls = " ".join(f"h{h}(1);" for h in range(n_helpers))
    return ("/* @config browser : client, store : server */\n"
            f"/* @slice browser */\n{{ function main() {{ {calls} }} }}\n"
            "/* @slice store */\n{ function save(x) { h0(x); return x; } }\n" + helpers)


@pytest.mark.parametrize("command, shown", [
    (("assign",), "Application level of offline availability: 100 %"),
    (("stats", "--runs", 3), "100.00"),
])
def test_search_succeeds_where_valid_placements_are_rare(runner, tmp_path, command, shown):
    # 40 helpers: random seeding finds no valid row, so every run starts from
    # the closure placement, all helpers on the server (40 of 80 calls
    # local), and climbs to the optimum, all helpers on both tiers.
    chain = tmp_path / "chain.tjs"
    chain.write_text(chain_source(40))
    result = invoke(runner, command[0], chain, *command[1:])
    assert result.exit_code == 0, result.stderr
    assert result.stderr == ""
    assert shown in result.stdout


@pytest.mark.parametrize("command", [
    ("assign", "--runs", 2), ("stats", "--runs", 2), ("oracle",), ("advise",),
    ("refine",), ("refine", "--apply"),
])
def test_every_search_command_exits_4_on_search_failure(runner, tmp_path, command):
    hopeless = tmp_path / "hopeless.tjs"
    hopeless.write_text(HOPELESS)
    result = invoke(runner, command[0], hopeless, *command[1:])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.startswith("search failed: ")


# HOPELESS without its unplaced slice: the @config tiers are the only
# placement, and the unannotated server-to-client call makes it invalid.
CONFIG_ONLY_HOPELESS = HOPELESS[:HOPELESS.index("/* @slice spare */")]


@pytest.mark.parametrize("command", [
    ("assign",), ("assign", "--runs", 2), ("stats", "--runs", 2), ("oracle",),
])
def test_search_commands_exit_4_when_the_only_placement_is_invalid(runner, tmp_path, command):
    hopeless = tmp_path / "hopeless.tjs"
    hopeless.write_text(CONFIG_ONLY_HOPELESS)
    result = invoke(runner, command[0], hopeless, *command[1:])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr.startswith("search failed: ")


@pytest.mark.parametrize("text", [HOPELESS, CONFIG_ONLY_HOPELESS], ids=["unplaced", "config-only"])
def test_oracle_exits_4_with_the_reason_assign_gives(runner, tmp_path, text):
    hopeless = tmp_path / "hopeless.tjs"
    hopeless.write_text(text)
    results = [invoke(runner, command, hopeless) for command in ("assign", "oracle")]
    assert [r.exit_code for r in results] == [4, 4]
    assert results[0].stderr == results[1].stderr == (
        "search failed: no placement is valid: the client slice 'cli' is reached "
        "from the server by calls without @reply or @broadcast\n")


def test_stats_mode_table_and_csv(runner, tmp_path):
    csv_path = tmp_path / "stats.csv"
    result = invoke(runner, "stats", fixture_path("unicorn_v4.tjs"),
                    "--runs", 8, "--seed", 2, "--csv", csv_path)
    assert result.exit_code == 0
    header, row = [line for line in result.output.splitlines() if line.strip()]
    assert header.split()[:2] == ["runs", "gen"]
    for column in ("medC", "minC", "maxC", "medS", "medB", "offline%", "data", "slice"):
        assert column in header
    assert row.split()[0] == "8"
    csv_lines = csv_path.read_text().strip().splitlines()
    assert len(csv_lines) == 2 and csv_lines[0].startswith("runs,gen,")


@pytest.mark.parametrize("name", ["relay_reply.tjs", "unicorn_v4.tjs"])
def test_stats_output_does_not_depend_on_jobs(runner, name):
    serial = invoke(runner, "stats", fixture_path(name), "--runs", 10, "--jobs", 1)
    parallel = invoke(runner, "stats", fixture_path(name), "--runs", 10, "--jobs", 2)
    assert serial.exit_code == parallel.exit_code == 0
    assert parallel.stdout == serial.stdout
    assert serial.stdout.splitlines()[1].split()[0] == "10"


def test_oracle_reports_best_fitness(runner):
    result = invoke(runner, "oracle", fixture_path("meetings.tjs"))
    assert result.exit_code == 0
    assert "Application level of offline availability: 100 %" in result.output


def test_oracle_cap_is_a_usage_error(runner):
    result = invoke(runner, "oracle", fixture_path("unicorn_v6.tjs"), "--oracle-cap", 2)
    assert result.exit_code == 1


def test_advise_with_placement_file(runner, tmp_path, manifest):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({"fixed": {"data": "server", "browser": "client"},
                                     "searched": {}}))
    for options in ((), ("--gens", -5)):  # GA options are checked only when advise searches
        result = invoke(runner, "advise", fixture_path("tracker.tjs"), "--placement", placement,
                        *options)
        assert result.exit_code == 0
        assert result.output == manifest["tracker.tjs"]["report"]


def test_advise_json_mode(runner, tmp_path):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({"fixed": {"data": "server", "browser": "client"},
                                     "searched": {}}))
    result = invoke(runner, "advise", fixture_path("tracker.tjs"),
                    "--placement", placement, "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["offlinePercent"] == 10
    assert [m["name"] for m in payload["move"]] == [
        "getMeetings", "getTasks", "addMeeting", "addTask"
    ]


def test_advise_bad_threshold_is_usage_error(runner):
    result = invoke(runner, "advise", fixture_path("tracker.tjs"), "--threshold", 2.0)
    assert result.exit_code == 1
    assert result.stderr == ("Usage: main advise [OPTIONS] PATH\n"
                             "Try 'main advise --help' for help.\n\n"
                             "Error: move threshold must lie in [0, 1)\n")


@pytest.mark.parametrize("args, error", [
    (("stats", "--runs", 0), "Invalid value for '--runs': 0 is not in the range x>=1."),
    (("stats", "--runs", 2, "--jobs", 0), "Invalid value for '--jobs': 0 is not in the range x>=1."),
    (("assign", "--runs", 0), "Invalid value for '--runs': 0 is not in the range x>=1."),
    (("assign", "--runs", 2, "--jobs", -1), "Invalid value for '--jobs': -1 is not in the range x>=1."),
    (("assign", "--gens", 0), "max generations must be >= 1"),
    (("advise", "--gens", -5), "max generations must be >= 1"),
    (("refine", "--apply", "--max-iters", 0),
     "Invalid value for '--max-iters': 0 is not in the range x>=1."),
    (("assign", "--seed", -1), "RNG seed must be >= 0"),
    (("stats", "--seed", -2), "RNG seed must be >= 0"),
    (("advise", "--seed", -1), "RNG seed must be >= 0"),
    (("refine", "--seed", -3), "RNG seed must be >= 0"),
    (("oracle", "--oracle-cap", -1), "Invalid value for '--oracle-cap': -1 is not in the range x>=0."),
], ids=["stats-runs", "stats-jobs", "assign-runs", "assign-jobs", "assign-gens", "advise-gens",
        "refine-max-iters", "assign-seed", "stats-seed", "advise-seed", "refine-seed", "oracle-cap"])
def test_bad_counts_are_usage_errors(runner, args, error):
    result = invoke(runner, args[0], fixture_path("relay.tjs"), *args[1:])
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.exit_code == 1
    assert result.stdout == ""
    assert [line for line in result.stderr.splitlines() if line.startswith("Error:")] == [
        f"Error: {error}"]


def test_refine_apply_emits_refined_source(runner, tmp_path):
    out = tmp_path / "refined.tjs"
    result = invoke(runner, "refine", fixture_path("tracker.tjs"), "--apply",
                    "--seed", 0, "-o", out)
    assert result.exit_code == 0
    assert "iterations:" in result.output and "slices:" in result.output
    refined = out.read_text()
    assert "@slice auto_getMeetings" in refined
    assert "@replicated" in refined


def test_split_valid_placement(runner, tmp_path):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({
        "fixed": {"gateway": "server", "panel": "client"},
        "searched": {"view": "both", "cache": "client", "audit": "both"},
    }))
    result = invoke(runner, "split", fixture_path("relay.tjs"), "--placement", placement)
    assert result.exit_code == 0
    assert "[client]" in result.output and "[server]" in result.output
    assert "slice view" in result.output
    assert "[remote calls:" in result.output


def test_split_invalid_placement_exits_3(runner, tmp_path):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({
        "fixed": {"gateway": "server", "panel": "client"},
        "searched": {"view": "client", "cache": "client", "audit": "client"},
    }))
    result = invoke(runner, "split", fixture_path("relay.tjs"), "--placement", placement)
    assert result.exit_code == 3
    assert "invalid placement" in result.output
    assert "server-to-client" in result.output


UNICORN_V2_FIXED = {"data": "server", "browser": "client"}


@pytest.mark.parametrize("command", ["advise", "split"])
@pytest.mark.parametrize("payload, message", [
    ({"fixed": UNICORN_V2_FIXED, "searched": {"query": "client"}},
     "no tier for slice 'mutate'"),
    ({"searched": {"query": "client", "mutate": "client"}},
     "no tier for slice 'data'"),
    ({"fixed": UNICORN_V2_FIXED, "searched": {"query": "client", "mutate": "client",
                                                "ghost": "both"}},
     "unknown slice 'ghost'"),
    ({"fixed": {"data": "client", "browser": "client"},
      "searched": {"query": "client", "mutate": "client"}},
     "slice 'data' is fixed to server by @config, not client"),
], ids=["missing-searched", "missing-fixed", "unknown", "config-conflict"])
def test_placement_file_must_match_the_program(runner, tmp_path, command, payload, message):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps(payload))
    result = invoke(runner, command, fixture_path("unicorn_v2.tjs"), "--placement", placement)
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == f"{placement}: {message}\n"


@pytest.mark.parametrize("command", ["advise", "split"])
@pytest.mark.parametrize("text", [
    "[1, 2]", '{"fixed": [1, 2]}', '{"fixed": {"data": "server"}, "searched": null}', '"both"',
], ids=["list", "fixed-list", "searched-null", "string"])
def test_placement_file_of_the_wrong_shape_exits_1(runner, tmp_path, command, text):
    placement = tmp_path / "placement.json"
    placement.write_text(text)
    result = invoke(runner, command, fixture_path("unicorn_v2.tjs"), "--placement", placement)
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (f"{placement}: cannot read placement: "
                             'expected {"fixed": {slice: tier}, "searched": {slice: tier}}\n')


# Options for advise and refine, and the GaConfig and AdvisorConfig they must
# reach the library as: the defaults but a seed, then every option changed.
ADVISE_OPTIONS = [
    (("--seed", 6), [GaConfig(rng_seed=6), AdvisorConfig()]),
    (("--pop", 12, "--gens", 40, "--pc", 0.5, "--pm", 0.3, "--tournament", 3, "--seed", 6,
      "--threshold", 0.4),
     [GaConfig(population_size=12, max_generations=40, crossover_prob=0.5, mutation_prob=0.3,
               tournament_size=3, rng_seed=6), AdvisorConfig(move_threshold=0.4)]),
]


@pytest.mark.parametrize("name", [
    "meetings.tjs", "relay.tjs", "relay_reply.tjs", "tracker.tjs", "unicorn_v1.tjs",
    "unicorn_v2.tjs", "unicorn_v3.tjs", "unicorn_v4.tjs", "unicorn_v5.tjs", "unicorn_v6.tjs",
])
def test_refine_without_apply_prints_what_advise_prints(runner, monkeypatch, name):
    seen = []  # the configs that reach the library's search and advisor
    real_run, real_advise = search.run, advisor.advise
    monkeypatch.setattr(search, "run", lambda problem, config: seen.append(config)
                        or real_run(problem, config))
    monkeypatch.setattr(advisor, "advise", lambda *args: seen.append(args[3])
                        or real_advise(*args))
    for options, configs in ADVISE_OPTIONS:
        seen.clear()
        advised = invoke(runner, "advise", fixture_path(name), *options)
        refined = invoke(runner, "refine", fixture_path(name), *options)
        assert advised.exit_code == refined.exit_code == 0
        assert refined.stdout == advised.stdout
        assert refined.stdout.startswith("Application level of offline availability: ")
        assert seen == configs + configs


def test_unresolved_call_warning_goes_to_stderr(runner, tmp_path):
    src = tmp_path / "warn.tjs"
    src.write_text("/* @slice a */\n{ function f() { ghost(); } }\n")
    result = runner.invoke(main, ["parse", str(src)])
    assert result.exit_code == 0
    assert "unresolved call to 'ghost'" in result.output


# The advice names `rows`, a var local to `get`, which apply_advice cannot
# mark; `refine --apply` applies the move advice only.
LOCAL_VAR_SOURCE = """\
/* @config ui : client, db : server, q : server */
/* @slice db */ { function store(x) { return x; } }
/* @slice q */ { function get(k) { var rows = store(k); return rows; } }
/* @slice ui */ { function main() { get(1); get(2); get(3); } }
"""


def test_refine_apply_skips_advice_it_cannot_apply(runner, tmp_path):
    path = tmp_path / "local_var.tjs"
    path.write_text(LOCAL_VAR_SOURCE)
    advice = invoke(runner, "advise", path, "--seed", 0)
    assert advice.exit_code == 0 and "      - var rows\n" in advice.output
    result = invoke(runner, "refine", path, "--apply", "--seed", 0)
    assert result.exception is None and result.exit_code == 0
    assert "@slice auto_get" in result.output and "@replicated" not in result.output
    assert result.output.endswith("Application level of offline availability: 100 %\n"
                                  "iterations: 2\nslices: 5\n")


def test_parse_counts_annotations_inside_function_expressions(runner, tmp_path):
    path = tmp_path / "func_expr.tjs"
    path.write_text("/* @slice a */\n{ function g() { return 1; }\n"
                    "  var run = function () { /* @reply */ g(); return g(); };\n}\n")
    result = invoke(runner, "parse", path)
    assert result.exit_code == 0
    assert "annotations: placement=1 communication=1 sharing=0 failure=0\n" in result.output


def placement_files(tmp_path, name) -> list:
    """The fixture's oracle placement, where one exists, and its all-both
    placement, written to files."""
    problem = fixture_problem(name)
    placements = [Placement(fixed=dict(problem.fixed),
                            searched={s: Tier.BOTH for s in problem.unplaced})]
    try:
        placements.append(exhaustive_oracle(problem)[0])
    except AllInvalidError:
        pass
    paths = []
    for k, placement in enumerate(placements):
        paths.append(tmp_path / f"{k}.json")
        paths[-1].write_text(placement.to_json())
    return paths


def patch_build_pdg(monkeypatch, fn):
    """Replace ``build_pdg`` in ``depgraph``, the one module that calls it."""
    monkeypatch.setattr(depgraph, "build_pdg", fn)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_commands_that_read_no_graph_build_none(runner, tmp_path, monkeypatch, name):
    path = fixture_path(name)
    placements = placement_files(tmp_path, name)
    commands = [("parse", path), ("oracle", path), ("assign", path, "--seed", 3),
                ("assign", path, "--runs", 2), ("stats", path, "--runs", 2),
                ("advise", path), ("advise", path, "--json"),
                ("refine", path), ("refine", path, "--apply"),
                *((command, path, "--placement", p)
                  for command in ("split", "advise") for p in placements)]

    def outputs():
        return [(r.exit_code, r.stdout) for r in (invoke(runner, *c) for c in commands)]

    before = outputs()

    def refuse(program):
        raise AssertionError("build_pdg called")

    patch_build_pdg(monkeypatch, refuse)
    assert outputs() == before


@pytest.mark.parametrize("command", [
    ("graph",), ("graph", "--json"), ("advise",), ("advise", "--json"), ("stats", "--runs", 2),
    ("assign", "--runs", 2), ("refine",), ("refine", "--apply"),
])
def test_commands_that_read_the_graph_build_it(runner, monkeypatch, command):
    """Only ``graph`` reads the dependence graph, so it alone builds one; the
    advisor reads the front end's bindings."""
    built = []
    real = depgraph.build_pdg
    patch_build_pdg(monkeypatch, lambda program: built.append(program) or real(program))
    result = invoke(runner, command[0], fixture_path("unicorn_v2.tjs"), *command[1:])
    assert result.exit_code == 0, result.stderr
    assert bool(built) == (command[0] == "graph")


def exit_case(tmp_path, code: int) -> tuple:
    """CLI arguments that end in exit code ``code``."""
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({
        "fixed": {"gateway": "server", "panel": "client"},
        "searched": {"view": "client", "cache": "client", "audit": "client"},
    }))
    hopeless = tmp_path / "hopeless.tjs"
    hopeless.write_text(HOPELESS)
    return {
        0: ("parse", fixture_path("tracker.tjs")),
        1: ("advise", fixture_path("tracker.tjs"), "--threshold", 2.0),
        2: ("parse", tmp_path / "no-such-file.tjs"),
        3: ("split", fixture_path("relay.tjs"), "--placement", placement),
        4: ("assign", hopeless),
    }[code]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("code", [0, 1, 2, 3, 4])
def test_a_command_pauses_the_collector_and_restores_it(runner, tmp_path, monkeypatch,
                                                        enabled, code):
    args = exit_case(tmp_path, code)
    seen = []  # the collector's state while the command loads its program
    real = cli.load_program
    monkeypatch.setattr(cli, "load_program", lambda path: seen.append(gc.isenabled())
                        or real(path))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        result = invoke(runner, *args)
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert result.exit_code == code
    assert seen == [False]
    assert after is enabled


@pytest.mark.parametrize("code", [1, 2, 3, 4])
def test_an_exit_keeps_no_frame_of_the_command(runner, tmp_path, code):
    """So an in-process caller that keeps the exit keeps no tree the command
    built; a usage error raised in a command (code 1) is no exception."""
    result = invoke(runner, *exit_case(tmp_path, code))
    assert result.exit_code == code
    assert result.exception.__context__ is None
    frames, tb = [], result.exc_info[2]
    while tb is not None:
        frames.append(tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    assert "invoke" in frames
    assert not [name for name in frames if name.startswith(("cmd_", "load_"))]
