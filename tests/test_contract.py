"""Every command keeps the output contract on seeded edge-value argvs.

Each command of ``build_parser()`` starts from its valid run in
``test_cli.COMMAND_ARGV``.  Its options are varied one at a time over
their edge values, and then a few at once in seeded draws.  A count
option draws ``lo - 1``, ``lo``, ``lo + 1`` and ``hi + 1`` of the range
it declares through ``cli._count``, never the cap itself: a formal trace
at the step cap runs for seconds.  Each argv runs in process through
``cli.run``, and:

- the exit code is 0, 1 or 2, and no exception escapes;
- on exit 0 or 1, stdout is strict JSON, or CSV under ``--format csv``,
  and stderr is empty;
- on exit 2, stdout is empty and stderr is one ``error:`` line, or
  argparse's usage block ending in one ``error:`` line;
- each run ends within ``RUN_BUDGET_S``.
"""

import argparse
import csv
import io
import random
import re
import time

import pytest

from lienorm import cli
from test_cli import COMMAND_ARGV, COMMANDS, strict_json

RUN_BUDGET_S = 2.0
SEEDED_DRAWS = 12  # argvs per command that vary several options at once

# the edge values of item 19 for a number the command also reads as a float
FLOAT_EDGES = ["0", "-1", "-1/2", "5e-324", "1e-320", "1e-160", "1e154", "1e308",
               "0.99999999999999999", "%d/3" % 10**400, "1/0", "x"]
EDGES = {
    cli._float_fraction: FLOAT_EDGES,
    cli._fraction: FLOAT_EDGES,
    int: ["-1", "0", "2", "3", "4", "9", "x"],  # --n, whose range the library decides
    cli._int_list: ["3", "2", "3,x", ","],
    cli._fraction_list: ["0,0,1", "-1,0,1", "1/0", ""],
}
BOUNDARIES = ["diagonal", "closed-diagonal", '{"op":"linear","a":"1/2","c":0}', "{broken"]


def _edges(action):
    """The values drawn for an option, or None for one that is not drawn."""
    if action.dest in ("help", "out"):  # --out would write files
        return None
    if action.nargs == 0:
        return [True]
    if action.choices:
        return [*action.choices, "csv", "bogus"]
    if hasattr(action.type, "lo"):
        lo, hi = action.type.lo, action.type.hi
        return [str(lo - 1), str(lo), str(lo + 1),
                str(hi + 1) if hi is not None else str(10**12), "1.5"]
    if action.dest in ("set", "other"):
        return BOUNDARIES
    return EDGES[action.type]


def _argv(path, options):
    argv = list(path)
    for flag, value in options.items():
        argv += [flag] if value is True else [flag, value]
    return argv


def _argvs(path):
    """The one-at-a-time variations of the command's valid run, then the
    seeded draws of several options at once."""
    base = dict(zip(COMMAND_ARGV[path][::2], COMMAND_ARGV[path][1::2]))
    edges = {a.option_strings[-1]: e for a in COMMANDS[path]._actions
             if (e := _edges(a)) is not None}
    argvs = [_argv(path, {**base, flag: value})
             for flag, values in edges.items() for value in values]
    rng = random.Random(" ".join(path))
    for _ in range(SEEDED_DRAWS):
        drawn = {flag: rng.choice(values) for flag, values in edges.items()
                 if rng.random() < 0.5}
        argvs.append(_argv(path, {**base, **drawn}))
    return argvs


def _one_error_line(err):
    lines = err.splitlines()
    if not err.endswith("\n"):
        return False
    if err.startswith("usage: lienorm"):
        return (re.match(r"lienorm [\w -]+: error: ", lines[-1]) is not None
                and not any("error:" in line for line in lines[:-1]))
    return len(lines) == 1 and lines[0].startswith("error: ")


def _breach(capsys, argv):
    """How the run of argv breaks the contract, or None."""
    start = time.perf_counter()
    try:
        code = cli.run(argv)
    except Exception as exc:
        capsys.readouterr()
        return "raised %r" % exc
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    if seconds > RUN_BUDGET_S:
        return "took %.2f s" % seconds
    if code == 2:
        return None if out == "" and _one_error_line(err) else "exit 2 printed %r / %r" % (
            out[:200], err[-400:])
    if code not in (0, 1):
        return "exit %r" % code
    if err:
        return "exit %d with stderr %r" % (code, err[-400:])
    try:
        if "csv" in argv:
            assert list(csv.reader(io.StringIO(out)))
        else:
            strict_json(out)
    except (AssertionError, ValueError) as exc:
        return "exit %d with stdout that does not parse (%s): %r" % (code, exc, out[:200])
    return None


@pytest.mark.parametrize("path", COMMANDS, ids=" ".join)
def test_command_keeps_the_contract(capsys, path):
    breaches = [(argv, why) for argv in _argvs(path) if (why := _breach(capsys, argv))]
    assert breaches == []


def _int_options():
    """(command, action) of each option that reads or defaults to an int."""
    for path, parser in COMMANDS.items():
        for action in parser._actions:
            if type(action.default) is int or action.type is int or hasattr(action.type, "lo"):
                yield path, action


@pytest.mark.parametrize("path, action", _int_options(),
                         ids=lambda v: " ".join(v) if isinstance(v, tuple) else v.dest)
def test_every_count_option_declares_its_range(path, action):
    # --n is a perturbation exponent, whose range the library decides
    if action.dest == "n":
        assert action.type is int
    else:
        assert isinstance(getattr(action.type, "lo", None), int), \
            "%s has no _count range" % action.option_strings[-1]


def test_count_range_messages():
    count = cli._count(2, 5)
    assert (count.lo, count.hi, count("2"), count("5")) == (2, 5, 2, 5)
    for text, message in [("1", "1 is below 2"), ("6", "6 is over the budget of 5")]:
        with pytest.raises(argparse.ArgumentTypeError, match="^%s$" % message):
            count(text)
    with pytest.raises(ValueError):
        count("x")
    assert cli._count(0).hi is None and cli._count(0)(str(10**12)) == 10**12
