"""The CLI's per-command parser against the whole command tree.

``cli_dispatch`` declares only the branch its argv names.  For every
argv it must behave exactly as ``build_parser()``: the same namespace
(handler included), or the same exit code with byte-equal stdout and
stderr, help and usage text included.
"""

import argparse
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsim import cli


def _outcome(parser, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _same_as_whole_tree(argv):
    assert _outcome(cli._parser(argv), argv) == _outcome(cli.build_parser(), argv)


def _vocabulary(parser, words, flags, values):
    """Every command name, flag and choice declared under ``parser``."""
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                words.add(name)
                _vocabulary(sub, words, flags, values)
        elif action.choices:
            values.update(action.choices)


_WORDS, _FLAGS, _CHOICES = set(), set(), set()
_vocabulary(cli.build_parser(), _WORDS, _FLAGS, _CHOICES)
_VALUES = sorted(_CHOICES) + ["0", "1", "-1", "17", "x", "1.5", "2>1", "c.qc", "", "-", "--",
                              "--bogus", "-x", "bogus", "--sh", "--s", "--min", "--depth-"]
_TOKEN = st.sampled_from(sorted(_WORDS) + sorted(_FLAGS) + _VALUES)
_PATHS = [[], ["run"], ["bench"], ["bell"], ["bell", "chsh"], ["lhv"], ["lhv", "find"],
          ["lhv", "simulate"]]


def test_vocabulary_covers_every_command_and_flag():
    assert _WORDS == {"run", "bench", "bell", "chsh", "lhv", "find", "simulate"}
    assert {"-h", "--help", "--backend", "--shots", "--seed", "--out", "--min-n", "--max-n",
            "--depth", "--depth-scale", "--steps", "--state", "--bits", "--topology",
            "--model"} == _FLAGS


def test_branch_parser_declares_only_the_named_command():
    def commands(parser):
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return sub.choices

    assert list(commands(cli._parser(["run", "c.qc"]))) == ["run"]
    lhv = commands(cli._parser(["lhv", "find"]))
    assert list(lhv) == ["lhv"] and list(commands(lhv["lhv"])) == ["find"]
    # a path that stops naming a command declares every command below it
    assert list(commands(cli._parser(["-h"]))) == ["run", "bench", "bell", "lhv"]
    assert list(commands(commands(cli._parser(["lhv", "-h"]))["lhv"])) == ["find", "simulate"]


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["bogus"], ["--", "run", "c.qc"], ["-x", "run"],
    ["run"], ["run", "-h"], ["run", "c.qc"], ["run", "c.qc", "--bogus"],
    ["run", "c.qc", "--shots", "x"], ["run", "c.qc", "--backend", "qasm"],
    ["run", "c.qc", "--sh", "5", "--seed", "-1", "--out", "r.json"],
    ["run", "--", "c.qc"], ["run", "c.qc", "extra"], ["run", "c.qc", "--s", "1"],
    ["bench"], ["bench", "--backend", "stab", "--min-n", "2", "--max-n", "8", "--depth", "3"],
    ["bench", "--backend", "sv", "--min-n", "-1", "--max-n", "3", "--depth", "1",
     "--depth-scale", "linear", "--shots", "2"],
    ["bench", "--backend", "sv", "--min", "2", "--max-n", "3"], ["bench", "-h"],
    ["bell"], ["bell", "-h"], ["bell", "bogus"], ["bell", "chsh"], ["bell", "chsh", "-h"],
    ["bell", "chsh", "--steps", "4", "extra"], ["bell", "chsh", "--steps"],
    ["lhv"], ["lhv", "-h"], ["lhv", "bogus"], ["lhv", "find"], ["lhv", "find", "-h"],
    ["lhv", "find", "--state", "singlet"], ["lhv", "find", "--state", "w"],
    ["lhv", "find", "--state", "ghz3", "--bits", "1", "--topology", "2>1", "--out", "m.json"],
    ["lhv", "simulate"], ["lhv", "simulate", "-h"], ["lhv", "simulate", "--bogus"],
    ["lhv", "simulate", "--model", "m.json", "--shots", "5", "--seed", "3"],
    ["lhv", "find", "--state", "singlet", "run"],
])
def test_branch_parser_matches_whole_tree(argv):
    _same_as_whole_tree(argv)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_PATHS), st.lists(_TOKEN, max_size=8))
def test_branch_parser_matches_whole_tree_on_any_argv(path, tail):
    _same_as_whole_tree(path + tail)
