"""A seeded fuzz test of the CLI's exit-code contract.

Mutants of each fixture run in-process through ``tierslicer.cli.main`` under
every command: ``split`` and ``advise --placement`` with a placement file the
oracle wrote, for the mutant where it has one and for the fixture where it
has not, and the commands that search with a few generations.  Whatever the
input, only ``SystemExit`` may escape, its code is one of 0-4, and a nonzero
code leaves a message on stderr.

A structural mutant inserts well-formed statements at line ends: vars,
nested functions, function expressions, calls and annotation comments, known
or not.  A byte mutant deletes, repeats or inserts a few bytes, some of which
are not UTF-8.
"""

from __future__ import annotations

import random

import pytest

from conftest import fixture_path
from tierslicer.cli import main

FIXTURES = [p.name for p in sorted(fixture_path(".").glob("*.tjs"))]
MUTANTS = 12  # of each kind, per fixture

# Statements to insert; {k} makes names that no fixture declares.
STATEMENTS = [
    "var q{k} = {k};",
    "/* @replicated */ var r{k} = [{k}, {{a: {k}}}];",
    "function f{k}(a) {{ return a + {k}; }}",
    "function g{k}(a) {{ function h{k}(b) {{ return b * a; }} return h{k}(a); }}",
    "var e{k} = function (x) {{ return x; }};",
    "f{k}(function () {{ return q{k}; }});",
    "/* @remoteCall */ f{k}({k});",
    "/* @reply */ g{k}(e{k});",
    "/* @blocking */ /* @broadcast */ q{k} = this;",
    "/* @bogus{k} */ var b{k};",
    "/* @slice s{k} */ {{ function s{k}() {{ return 1; }} }}",
    "/* @config s{k} : server */",
    "{{ var w{k} = q{k}; }}",
    "if (q{k}) {{ /* @ui */ {{ <p>{k}</p> }} }}",
]
BYTES = [b"{", b"}", b"(", b")", b";", b",", b"=", b"/*", b"*/", b"@", b".", b'"', b"'",
         b"\n", b"0", b"x", b"function ", b"var ", b"/* @slice ", b"\xff", b"\xc3"]


def structural_mutant(text: str, rng: random.Random) -> bytes:
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        at = rng.choice([i for i, line in enumerate(lines)
                         if line.rstrip().endswith(("{", "}", ";", "*/"))])
        lines.insert(at + 1, rng.choice(STATEMENTS).format(k=rng.randint(0, 99)))
    return "\n".join(lines).encode()


def byte_mutant(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(data) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            data = data[:at] + data[at + rng.randint(1, 8):]
        elif edit == 1:
            data = data[:at] + data[at:at + rng.randint(1, 40)] + data[at:]
        else:
            data = data[:at] + rng.choice(BYTES) + data[at:]
    return data


def exit_of(capsys, *args) -> int:
    """The exit code of one in-process CLI call, held to the contract."""
    try:
        main.main([str(a) for a in args], prog_name="tierslicer")
    except SystemExit as exc:
        code, err = exc.code, capsys.readouterr().err
    except Exception as exc:  # anything but an exit breaks the contract
        pytest.fail(f"{args} raised {exc!r}")
    else:
        pytest.fail(f"{args} returned without exiting")
    assert code in range(5), (args, code)
    assert code == 0 or err.strip(), (args, code)
    return code


@pytest.mark.parametrize("name", FIXTURES)
def test_every_command_exits_0_to_4_and_explains_a_failure(capsys, tmp_path, name):
    rng = random.Random(f"fuzz:{name}")
    text = fixture_path(name).read_text()
    fallback = tmp_path / "fixture.json"
    if exit_of(capsys, "oracle", fixture_path(name), "-o", fallback) != 0:
        fallback.write_text("{}")
    mutants = ([structural_mutant(text, rng) for _ in range(MUTANTS)]
               + [byte_mutant(text.encode(), rng) for _ in range(MUTANTS)])
    for k, data in enumerate(mutants):
        path, placement = tmp_path / f"{k}.tjs", tmp_path / f"{k}.json"
        path.write_bytes(data)
        if exit_of(capsys, "oracle", path, "-o", placement) != 0:
            placement = fallback
        for args in [("parse",), ("graph",), ("graph", "--json"), ("assign", "--gens", 3),
                     ("stats", "--runs", 2, "--gens", 3), ("advise", "--gens", 3),
                     ("advise", "--json", "--placement", placement),
                     ("refine", "--apply", "--max-iters", 2, "--gens", 3),
                     ("split", "--placement", placement)]:
            exit_of(capsys, args[0], path, *args[1:])
