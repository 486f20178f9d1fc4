#!/usr/bin/env python3
"""Run the CLI corpus in process and print one line per case.

The corpus is ``--help`` of the group and of each command, then the 10
bundled fixtures, the ``genprog`` programs of seeds 0-5 and the programs in
``EXTRA``, each under the
commands listed in ``COMMANDS`` plus ``split`` and ``advise --placement``
with the oracle placement (where one exists) and with an all-``both``
placement.  Each line reads ``case<TAB>exit code<TAB>sha256
of stdout``, so two trees can be compared with one ``diff``::

    python3 scripts/cli_corpus.py > after.txt
    diff before.txt after.txt

Programs and placement files are written to a temporary directory, and the
commands get paths relative to it, so stdout does not depend on where the
directory is.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from click.testing import CliRunner  # noqa: E402

from genprog import random_source  # noqa: E402
from tierslicer.cli import main as cli  # noqa: E402
from tierslicer.depgraph import build_pdg, placement_problem  # noqa: E402
from tierslicer.errors import AllInvalidError, TooManySlicesError  # noqa: E402
from tierslicer.frontend import parse, resolve_calls  # noqa: E402
from tierslicer.model import Tier  # noqa: E402
from tierslicer.placement import Placement  # noqa: E402
from tierslicer.search import exhaustive_oracle  # noqa: E402

FIXTURES = ROOT / "src" / "tierslicer" / "fixtures"
GENPROG_SEEDS = range(6)

# What no fixture or generated program has: a function, a var and a @reply
# declared inside function-expression bodies, a function-local var that
# draws replication advice `refine --apply` cannot act on, a call to a nested
# function from outside its body, an inner function that shadows a
# top-level one, and a moved function that holds a nested function
# declaration and a function expression, beside a replicated var; and a
# slice whose only statement is an annotated @ui block, which
# `refine --apply` must print with its annotation; and statements that hold
# a function expression and also read and write vars, beside member and
# index assignment targets.
EXTRA = {
    "func_expr.tjs": """\
/* @config ui : client, db : server */
/* @slice db */
{
  var cache = [];
  var api = {load: function (k) {
    function pick(i) { return cache[i]; }
    var row = pick(k);
    /* @reply */ notify(row);
    return row;
  }};
  function push(r) { return r; }
}
/* @slice ui */
{
  function notify(m) { return m; }
  var run = function () {
    function helper(x) { return push(x); }
    return helper(2);
  };
}
/* @slice mid */
{
  function relay(v) { return helper(v) + notify(v); }
}
""",
    "local_var.tjs": """\
/* @config ui : client, db : server, q : server */
/* @slice db */ { function store(x) { return x; } }
/* @slice q */ { function get(k) { var rows = store(k); return rows; } }
/* @slice ui */ { function main() { get(1); get(2); get(3); } }
""",
    "nested.tjs": """\
/* @config ui : client, db : server */
/* @slice db */ { function store(x) { function helper(y) { return y; } return helper(x); } }
/* @slice ui */ { function main() { helper(1); store(2); } }
""",
    "shadow.tjs": """\
/* @config ui : client, db : server */
/* @slice db */ { function helper(y) { return y; } function store(x) { return helper(x); } }
/* @slice ui */ { function main() { function helper(z) { return z; } helper(1); store(2); } }
""",
    "moved_nested.tjs": """\
/* @config ui : client, db : server */
/* @slice db */
{
  var table = [];
  function load(k) {
    function pick(i) { return table[i]; }
    var fmt = function (r) { return [r, table.length]; };
    return fmt(pick(k));
  }
  function save(k, v) { table[k] = v; return load(k); }
}
/* @slice ui */
{
  function main() { load(1); load(2); load(3); save(4, 5); }
}
""",
    "lone_ui.tjs": """\
/* @config a : client */ /* @slice a */ { /* @ui */ { <div>x</div> } }
""",
    "closure.tjs": """\
/* @config ui : client, db : server */
/* @slice db */
{
  var rows = [];
  var count = 0;
  var index = {};
  function put(k, v) { rows[k] = v; index.last = k; count = count + 1; return count; }
  function each(fn) { return fn(rows[count]); }
  count = index[count] = each(function (r) { rows[count] = r; index.seen = count; return r; }) + rows.length;
}
/* @slice ui */
{
  var view = {items: []};
  function show(k) {
    view.items[k] = put(k, count);
    view.total = each(function (r) { count = r + k; return view.items[count]; });
    return view;
  }
  function main() { show(1); show(2); show(3); }
}
""",
}

COMMANDS = (
    ("parse",),
    ("graph",),
    ("graph", "--json"),
    ("assign", "--seed", "3"),
    ("assign", "--runs", "10"),
    ("oracle",),
    ("oracle", "--oracle-cap", "6"),
    ("stats", "--runs", "10", "--seed", "4"),
    *(("advise", "--seed", str(s)) for s in (0, 3, 6)),
    *(("refine", "--seed", str(s)) for s in (0, 3, 6)),
    ("advise", "--json"),
    *(("refine", "--apply", "--seed", str(s)) for s in (0, 6)),
)


def programs() -> dict:
    """File name -> source text, fixtures first."""
    out = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.tjs"))}
    out.update({f"random-{seed}.tjs": random_source(seed) for seed in GENPROG_SEEDS})
    out.update(EXTRA)
    return out


def placements(name: str, text: str) -> dict:
    """Placement label -> Placement for the placement commands."""
    problem = placement_problem(build_pdg(resolve_calls(parse(text, name))))
    out = {}
    try:
        out["oracle"] = exhaustive_oracle(problem)[0]
    except (AllInvalidError, TooManySlicesError):
        pass
    out["both"] = Placement(fixed=dict(problem.fixed),
                            searched={s: Tier.BOTH for s in problem.unplaced})
    return out


def cases(workdir: Path):
    """(case label, argv) for every case, writing the files the cases read."""
    yield "--help", ["--help"]
    for command in cli.commands:
        yield f"{command} --help", [command, "--help"]
    for name, text in programs().items():
        (workdir / name).write_text(text, encoding="utf-8")
        for command in COMMANDS:
            yield f"{name} {' '.join(command)}", [command[0], name, *command[1:]]
        for label, placement in placements(name, text).items():
            path = f"{name}.{label}.json"
            (workdir / path).write_text(placement.to_json(), encoding="utf-8")
            for command in ("split", "advise"):
                yield f"{name} {command} --placement {label}", [command, name, "--placement", path]


def main() -> None:
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for label, argv in cases(Path(tmp)):
                result = runner.invoke(cli, argv)
                digest = hashlib.sha256(result.stdout_bytes).hexdigest()
                print(f"{label}\t{result.exit_code}\t{digest}", flush=True)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    main()
