"""The table-driven command-line parser against the argparse parser it
replaced (``oracles.build_parser``).

Command lines come from the grammar: global and command options in any
order, the ``--opt value`` and ``--opt=value`` forms, unique and ambiguous
prefixes of the flags, repeated ``--gen``, values that start with "-", and
then one dropped, duplicated or unknown token, or a help flag.  Where the
reference accepts a line the new parser must give the same attributes and
handler; where it rejects one, so must the new parser, and ``main`` must
return 2 with one ``error:`` line on stderr and nothing on stdout; where it
prints help, ``main`` must print the usage and return 0.  Every argv of the golden corpus and of the
benchmark workloads goes through both parsers too.  ``--`` is not
generated: argparse reads it as the end of the options, the new parser
rejects it.
"""

import contextlib
import io
import json
import os
import random
import sys

import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from gradedlie import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# flag -> the values drawn for it (None: a flag without a value)
GLOBAL = {
    "--field": ["Q", "Fp:7", "-1", "F p"],
    "--max-degree": ["3", "0", " 2", "-1", "x", ""],
    "--hom-bound": ["2", "-2"],
    "--format": ["json", "table", "xml"],
    "--out": ["report.json", "-"],
}
# command path -> (number of files, its options)
COMMANDS = {
    "hall": (0, {"--gens": ["x,y", "a:1,t:2"], "--list": None}),
    "dims": (1, {}),
    "hilbert": (1, {}),
    "homology": (1, {}),
    "hopf": (1, {}),
    "infer": (1, {"--gen": ["a", "-b+x", "[a,b]", "- b", ""]}),
    "graph verify": (1, {"--explicit-to": ["2", "-3"]}),
    "onerelator decompose": (1, {}),
    "raag chordal": (1, {}),
    "raag resolve": (1, {}),
    "raag verdict": (1, {}),
    "example sec6": (0, {}),
}
UNKNOWN = ["--bogus", "-x", "extra", "-", "", "--f", "--h", "-1", "--max", "--gen=a",
           "--list", "-hx", "--he=1", "a b", "-x y", "verify", "--field=Q"]
HELP = ["-h", "--help", "--he"]


def reference(argv: list):
    """("ok", the attributes) or ("exit", code) from the argparse parser."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return "ok", vars(oracles.build_parser().parse_args(argv))
        except SystemExit as exc:
            return "exit", exc.code


def run_main(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_same(argv: list):
    kind, ref = reference(argv)
    if kind == "ok":
        assert vars(cli._parse(argv)) == ref, argv
        return
    code, out, err = run_main(argv)
    if ref == 0:
        assert (code, err) == (0, ""), (argv, err)
        assert out.startswith("usage: gradedlie"), (argv, out)
    else:
        assert (ref, code, out) == (2, 2, ""), (argv, code, out)
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        with pytest.raises(cli.InputError):  # rejected by the parser, not a handler
            cli._parse(argv)


def spelled(draw, flag: str, values) -> list:
    """`flag`, or a prefix of it, with a value in either form."""
    prefix = draw(st.sampled_from([False, False, True]))
    name = flag[:draw(st.integers(3, len(flag)))] if prefix else flag
    if values is None:
        return [name]
    value = draw(st.sampled_from(values))
    return [f"{name}={value}"] if draw(st.booleans()) else [name, value]


@st.composite
def command_lines(draw) -> list:
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(GLOBAL)), max_size=6)):
        argv += spelled(draw, flag, GLOBAL[flag])
    path = draw(st.sampled_from(sorted(COMMANDS)))
    files, options = COMMANDS[path]
    items = [["mn.lie"]] * files
    for flag, values in options.items():
        items += [spelled(draw, flag, values) for _ in range(draw(st.integers(0, 3)))]
    argv += path.split()
    for item in draw(st.permutations(items)):
        argv += item
    edit = draw(st.sampled_from(["none", "drop", "duplicate", "unknown", "help"]))
    i = draw(st.integers(0, len(argv)))
    if edit == "drop" and i < len(argv):
        del argv[i]
    elif edit == "duplicate" and i < len(argv):
        argv.insert(i, argv[i])
    elif edit in ("unknown", "help"):
        argv.insert(i, draw(st.sampled_from(UNKNOWN if edit == "unknown" else HELP)))
    return argv


@seed(20210111)
@settings(max_examples=400, deadline=None, database=None)
@given(argv=command_lines())
def test_parser_matches_the_argparse_reference(argv):
    assert_same(argv)


CASES = {
    "default-bounds": ["hall", "--gens", "x"],
    "ambiguous-prefix": ["--f", "Q", "dims", "mn.lie"],
    "ambiguous-prefix-after-command": ["dims", "mn.lie", "--h"],
    "prefixes-and-eq-forms": ["--max=3", "--ho", "2", "--fo=table", "--o", "r.json",
                              "dims", "mn.lie"],
    "empty-eq-value": ["--max-degree=", "dims", "mn.lie"],
    "bad-choice": ["--format", "xml", "dims", "mn.lie"],
    "repeated-gen": ["infer", "--ge", "a", "mn.lie", "--gen=-b+x", "--gen", "[a,b]"],
    "dash-value-needs-eq": ["infer", "mn.lie", "--gen", "-b+x"],
    "negative-number-values": ["--field", "-1", "--out", "-", "hall", "--gen", "x,y", "--list"],
    "flag-with-value": ["hall", "--list=1", "--gens", "x"],
    "command-option-before-command": ["--explicit-to", "2", "graph", "verify", "mn.graph"],
    "option-before-file": ["graph", "verify", "--explicit-to", "2", "mn.graph"],
    "global-option-after-command": ["dims", "mn.lie", "--max-degree", "3"],
    "extra-file": ["dims", "mn.lie", "mn.lie"],
    "missing-subcommand": ["raag"],
    "missing-file": ["raag", "resolve"],
    "extra-argument": ["example", "sec6", "extra"],
    "unknown-command": ["selftest"],
    "empty-command": ["", "dims", "mn.lie"],
    "two-word-command": ["raag chordal", "c5.graph"],
    "empty": [],
    "help": ["-h"],
    "group-help": ["graph", "-h"],
    "command-help": ["graph", "verify", "mn.graph", "--help"],
    "help-prefix": ["--max-degree", "3", "--he", "hall"],
    "help-with-text": ["-hx"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_chosen_lines_parse_as_the_reference(name):
    assert_same(CASES[name])


def corpus_and_workload_lines() -> list:
    with open(os.path.join(ROOT, "tests", "golden", "corpus.json"), encoding="utf-8") as fh:
        lines = [argv for _, argv in json.load(fh)]
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(os.path.join(ROOT, "bench"))
    for make in workloads.WORKLOADS.values():
        lines += [job.argv for job in make(random.Random(1))[0]]
    return lines


def test_corpus_and_workload_lines_parse_as_before():
    lines = corpus_and_workload_lines()
    assert len(lines) > 50
    for argv in lines:
        assert reference(argv)[0] == "ok", argv
        assert_same(argv)


@pytest.mark.parametrize("path", ["", "hall", "graph", "graph verify", "raag", "example sec6"])
def test_help_prints_the_usage_of_its_level(path):
    code, out, err = run_main(path.split() + ["-h"])
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: gradedlie {path}".rstrip() + " [options]")
    grammar = cli._grammar()
    for flag in grammar[path][3]:
        assert f"  {flag}" in out
    for sub in grammar:
        if sub.startswith(path) and sub.count(" ") == path.count(" ") + bool(path):
            assert f"  {sub.rpartition(' ')[2]}" in out
