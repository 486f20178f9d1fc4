#!/usr/bin/env python3
"""Time CLI start-up: the fresh-process wall time of two source trees.

    python3 scripts/cold_start.py BEFORE/src AFTER/src [--rounds 10]

Each round runs every command once on each tree, each call in a fresh
interpreter, the trees in alternating order (BEFORE first in even rounds),
after one untimed round that compiles each tree's bytecode.
The commands are ``parse``, ``graph``, ``oracle``, ``split --placement`` and
``assign`` on the bundled ``relay.tjs``, and ``--help``; the placement file
is the oracle's answer, written once to a temporary directory.  A call
starts the CLI as the installed ``tierslicer`` script does, with
``PYTHONPATH`` set to the tree.  Prints each command's median and range per
tree, in milliseconds, and the number of rounds in which AFTER was faster.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent.parent / "src" / "tierslicer" / "fixtures" / "relay.tjs"
LAUNCH = "import sys; from tierslicer.cli import main; sys.argv[0] = 'tierslicer'; main()"


def cli(src: Path, *args) -> float:
    """Seconds of one CLI call in a fresh interpreter that imports from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", LAUNCH, *map(str, args)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="src/ directory of the first tree")
    parser.add_argument("after", type=Path, help="src/ directory of the second tree")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    trees = (args.before.resolve(), args.after.resolve())
    for src in trees:
        if not (src / "tierslicer" / "cli.py").is_file():
            parser.error(f"{src} holds no tierslicer/cli.py")
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        placement = Path(tmp) / "placement.json"
        cli(trees[0], "oracle", FIXTURE, "-o", placement)
        commands = {
            "parse": ("parse", FIXTURE),
            "graph": ("graph", FIXTURE),
            "oracle": ("oracle", FIXTURE),
            "split --placement": ("split", FIXTURE, "--placement", placement),
            "assign": ("assign", FIXTURE),
            "--help": ("--help",),
        }
        seconds = {name: ([], []) for name in commands}
        for r in range(-1, args.rounds):  # round -1 compiles each tree's bytecode, untimed
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for name, command in commands.items():
                for side in order:
                    elapsed = cli(trees[side], *command)
                    if r >= 0:
                        seconds[name][side].append(elapsed)

    print(f"{args.rounds} alternating rounds, Python {platform.python_version()}, "
          f"{os.cpu_count()} cores; wall ms, median (min-max)")
    print(f"{'command':<20}{'before':>20}{'after':>20}  after faster")
    for name, (before, after) in seconds.items():
        cells = [f"{1e3 * statistics.median(s):.0f} ({1e3 * min(s):.0f}-{1e3 * max(s):.0f})"
                 for s in (before, after)]
        wins = sum(a < b for b, a in zip(before, after))
        print(f"{name:<20}{cells[0]:>20}{cells[1]:>20}  {wins}/{args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
