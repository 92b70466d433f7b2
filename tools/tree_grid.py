"""The scaffold of the tools that compare two source trees on a grid.

Such a tool answers its grid of requests once per tree, each time in a
process of its own that imports the package from that tree, through a
hidden ``--answer`` mode that prints one JSON line per request; then it
compares the two lists of answers.  A tool builds its command line with
:func:`parser`, adds its own flags, hands it to :func:`main` with its
answer and report steps, reads each tree's answers with
:func:`answers`, may name where two JSON answers differ with
:func:`paths`, and may print its mismatches with :func:`report`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def parser(doc: str) -> argparse.ArgumentParser:
    """The command line of a tool whose docstring is ``doc``: the old and
    the new src directory, and the hidden ``--answer``."""
    p = argparse.ArgumentParser(description=doc.splitlines()[0])
    p.add_argument("old_src", nargs="?")
    p.add_argument("new_src", nargs="?")
    p.add_argument("--answer", action="store_true", help=argparse.SUPPRESS)
    return p


def main(p: argparse.ArgumentParser, argv, answer, report) -> int:
    """Parse ``argv``.  With ``--answer``, print this tree's answers,
    ``answer(args)``, and return 0; else, given both trees, return the
    exit code of ``report(args)``, which compares them."""
    args = p.parse_args(argv)
    if args.answer:
        answer(args)
        return 0
    if not (args.old_src and args.new_src):
        p.error("give the old and the new src directory")
    return report(args)


def answers(tool: str, src: str, *flags: str) -> list:
    """The answers of the tool at path ``tool`` run with ``--answer`` and
    ``flags`` in a process that imports the package from ``src``, one
    decoded JSON line each."""
    out = subprocess.run([sys.executable, tool, "--answer", *flags],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


_GONE = object()  # a key one JSON value has and the other lacks


def paths(a, b, at=()) -> list:
    """The dot-joined key paths where two JSON values differ: dicts key
    by key, anything else as a whole."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in dict.fromkeys([*a, *b])
                for p in paths(a.get(k, _GONE), b.get(k, _GONE), (*at, k))]
    return [] if a == b else [".".join(map(str, at))]


def report(total: int, mismatches) -> int:
    """Print the number of requests and mismatches, then each mismatch,
    ``(request name, lines)``, named with its lines indented; the exit
    code, 1 on any mismatch."""
    print(f"{total} requests, {len(mismatches)} mismatches")
    for name, lines in mismatches:
        print(f"mismatch: {name}")
        for line in lines:
            print(f"  {line}")
    return 1 if mismatches else 0
