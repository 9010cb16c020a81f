"""Fuzzing the command line: any argv of small valid sizes, sizes just outside
their bounds and malformed rationals, JSON and law specs exits 0, 1 or 2,
and never with a traceback."""

import argparse
import contextlib
import io
import json
import os

from hypothesis import HealthCheck, given, settings, strategies as st

from wicklab.cli import _MAX_GRID, MAX_EXACT_TRUNCATION, build_parser, main
from wicklab.discrete import MAX_ATOMS
from wicklab.rademacher import MAX_CELLS

UNOPENABLE = os.path.join(os.devnull, "report.json")  # a path below a file


def _ints(lo, hi, *outside):
    """Integers lo..hi and the given values just outside their bounds, as
    option text, with a word that is no integer."""
    return st.one_of(st.integers(lo, hi), st.sampled_from([*outside, "x", "1.5"])).map(str)


RATIONALS = ["1/3", "1/2", "3/10", "1/5", "0", "1", "-1/2", "2", "1/0", "abc", "0.1", "1e400",
             "nan", "inf", "1/2/3", ""]
LAWS = ["normal", "gauss", "exponential:1", "exp:2", "gamma:2,3", "gamma:1/2,1/2", "poisson:1",
        "binomial:3,1/2", "gamma_combo:1,2,1,1,3,1",
        "exponential", "exponential:0", "exponential:-1", "exponential:1/0", "gamma:2",
        "gamma:-1,1", "poisson:0", "binomial:3", "binomial:x,1/2", "binomial:3,2", "normal:1",
        "cauchy", "", ":"]
FUNCTIONS = ['["1"]', '["0", "1"]', '["1/2", "-3", "1"]',
             '{"pieces": [{"lo": "0", "hi": "1/2", "coeffs": ["1"]}]}',
             '{"pieces": [{"lo": "1/2", "hi": "0", "coeffs": ["1"]}]}',
             '{"pieces": [{"lo": "0", "hi": "2", "coeffs": ["1"]}]}',
             '{"pieces": [{"lo": "0", "hi": "1/2", "coeffs": ["1"]},'
             ' {"lo": "1/4", "hi": "1", "coeffs": ["2"]}]}',
             '[]', '{}', '[null]', '[0.1]', '[true]', '3', '"1"', '{"pieces": 3}', 'not json',
             '["1/0"]', '[1e400]']
SPACES = ['["1/2", "1/2"]', '["1/2", "1/4", "1/4"]', '["1/3", "1/3", "1/3"]', '["1", "1"]',
          '["-1/2", "3/2"]', '[]', '[0]', '["1/0"]', '[null]', '3', '{}', 'x',
          json.dumps([f"1/{MAX_ATOMS + 1}"] * (MAX_ATOMS + 1))]
VALUES = ['["1", "-1"]', '["1", "-1", "0"]', '["0", "0", "1"]', '[1, 2]', '[]', '[null]',
          '{}', 'x', '["1/0", "1"]']

# one strategy of option text per option name of any subcommand
OPTIONS = {
    "law": st.sampled_from(LAWS),
    "truncation": _ints(1, 8, 0, -1, MAX_EXACT_TRUNCATION + 1),
    "seed": _ints(0, 1000, -1, 2**64),
    "paths": _ints(2, 200, 0, 1, -1),
    "depths": st.one_of(
        st.lists(st.integers(0, 10), min_size=1, max_size=4).map(lambda ds: ",".join(map(str, ds))),
        st.sampled_from(["-1", "", ",", "1,,2", "x", "30", "1.5"]),
    ),
    "count": _ints(1, 5, 0, -1),
    "draws": _ints(1, 5, 0, -1),
    "grid": _ints(1, 4, 0, -1, _MAX_GRID + 1),
    "h1": st.sampled_from(FUNCTIONS),
    "h2": st.sampled_from(FUNCTIONS),
    "csv": st.sampled_from([os.devnull, UNOPENABLE]),
    "max_n": _ints(0, 8, -1),
    "alphas": st.one_of(
        st.lists(st.sampled_from(RATIONALS), min_size=1, max_size=10).map(",".join),
        st.just(",".join(["1/2"] * (MAX_CELLS.bit_length()))),
    ),
    "scheme": st.sampled_from(["jump_after", "jump_before", "jump_alternating", "constant"]),
    "fx0": st.sampled_from(RATIONALS),
    "delta": st.sampled_from(RATIONALS),
    "depth": _ints(1, 10, 0, -1, MAX_CELLS.bit_length()),
    "tuples": _ints(1, 5, 0, -1),
    "n": _ints(1, 10**6, 0, -1),
    "space": st.sampled_from(SPACES),
    "rv": st.lists(st.sampled_from(VALUES), max_size=3),
    "N": _ints(1, 5, 0, -1, MAX_ATOMS.bit_length()),
    "out": st.sampled_from([os.devnull, UNOPENABLE]),
}
# the full battery runs for seconds: only its rejected seeds are drawn
BATTERY_SEEDS = st.sampled_from(["-1", str(2**64), "x"])


def _commands(parser):
    """(words, options) for every leaf command of the parser: the words that
    name it and its optional arguments."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                for words, options in _commands(sub):
                    yield [name, *words], options
            return
    yield [], [a for a in parser._actions if a.option_strings and a.dest != "help"]


COMMANDS = list(_commands(build_parser()))


@st.composite
def _argv(draw):
    """An argv of one command: each required option, each other option at
    random, and each option's text from ``OPTIONS``."""
    words, options = draw(st.sampled_from(COMMANDS))
    argv = []
    if draw(st.booleans()):
        argv += ["--out", draw(OPTIONS["out"])]
    argv += words
    for action in options:
        if not (action.required or draw(st.booleans())):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            argv.append(flag)
            continue
        if words == ["all"] and action.dest == "seed":
            values = [draw(BATTERY_SEEDS)]
        elif action.dest == "rv":
            values = draw(OPTIONS["rv"])
        else:
            values = [draw(OPTIONS[action.dest])]
        for value in values:
            argv += [flag, value]
    if words == ["all"] and "--seed" not in argv:
        argv += ["--seed", draw(BATTERY_SEEDS)]
    return argv


def test_every_command_is_fuzzed():
    # a new command or option needs its strategy here
    names = {" ".join(words) for words, _ in COMMANDS}
    assert {"wick table", "rademacher verify", "discrete check", "discrete maxsystem",
            "chaos qv", "all"} <= names
    for _, options in COMMANDS:
        assert {a.dest for a in options if a.nargs != 0} <= set(OPTIONS), options


@given(_argv())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_command_line_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects before any runner starts
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert "error:" in err.getvalue(), argv
