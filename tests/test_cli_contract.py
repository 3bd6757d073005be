"""The CLI contract as seeded properties over mutated golden commands.

The first property takes a command of the golden corpus that reads a
presentation, a graph of Lie algebras or a simple graph, or takes --gen
expressions, and mutates one of those inputs with a few inserted tokens,
deleted spans or replaced characters (compare Miller, Fredriksen & So,
CACM 33(12), 1990).  The command runs twice in process at a small
--max-degree.  Every run must exit 0, 1 or 2 without a traceback, an exit
2 must write exactly one `error:` line on stderr, and the two runs must
print byte-identical stdout.  The second property mutates the command
line itself: it inserts, deletes or replaces argv tokens, or edits the
characters of one.  Every run must exit 0, 1 or 2 without a traceback, and
an exit 2 must write one `error:` line and nothing on stdout.
"""

import contextlib
import functools
import io
import json
import os
import shutil
import tempfile

from hypothesis import HealthCheck, assume, given, seed, settings, strategies as st

import oracles
from gradedlie.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")
# the options that bound the work, and their values here
SMALL = {"--max-degree": "3", "--explicit-to": "3", "--hom-bound": "2"}
TOKENS = [
    " ", "\n", "#", "[", "]", ",", "*", "+", "-", "=", "->", "0", "1", "2", "7", "1/2",
    "a", "b", "x", "gen", "rel", "weight", "field", "Q", "Fp:5", "Fp:4", "vertex",
    "vertices", "edge", "forest", "map", "sigma", "tau", "der", "stable-weight",
]
# argv tokens: flags of every level, their prefixes, values and commands
ARGS = [
    "--field", "--max-degree", "--hom-bound", "--format", "--out", "--gens", "--list",
    "--gen", "--explicit-to", "--f", "--h", "--max", "--ex", "--gen=a", "--field=Fp:5",
    "-h", "--help", "--", "-", "", "-x", "--bogus", "0", "1", "2", "-1", "x", "Q", "Fp:4",
    "json", "table", "mn.lie", "c5.graph", "dims", "hall", "graph", "verify", "raag",
]


def _small(argv: list) -> list:
    out = list(argv)
    for i, arg in enumerate(out[:-1]):
        if arg in SMALL:
            out[i + 1] = SMALL[arg]
    return out


@functools.cache
def _targets() -> tuple:
    """(command, index of the argv entry to mutate) for every input of
    every corpus command: an input file, a --gen expression, or the
    generator list of hall --gens."""
    with open(os.path.join(GOLDEN, "corpus.json"), encoding="utf-8") as fh:
        corpus = json.load(fh)
    out = []
    for _, argv in corpus:
        argv = _small(argv)
        for i, arg in enumerate(argv):
            if os.path.isfile(os.path.join(INPUTS, arg)) or arg.startswith("--gen="):
                out.append((argv, i))
            elif arg in ("--gen", "--gens"):
                out.append((argv, i + 1))
    return tuple(out)


@st.composite
def mutations(draw, text: str) -> str:
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            text = text[:i] + draw(st.sampled_from(TOKENS)) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 8)):]
        else:
            text = text[:i] + draw(st.characters(min_codepoint=32, max_codepoint=126)) + text[i + 1:]
    return text


def run(argv: list, cwd: str) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue()


@seed(20210104)
@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_code_contract(data):
    argv, at = data.draw(st.sampled_from(_targets()))
    argv = list(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in os.listdir(INPUTS):
            shutil.copy(os.path.join(INPUTS, name), tmp)
        if argv[at].startswith("--gen="):
            argv[at] = "--gen=" + data.draw(mutations(argv[at][len("--gen="):]))
        elif argv[at - 1] in ("--gen", "--gens"):
            argv[at] = data.draw(mutations(argv[at]))
        else:
            # the input file, or one of the files a graph of Lie algebras names
            names = [argv[at]]
            if "graph" in argv:
                with open(os.path.join(tmp, argv[at]), encoding="utf-8") as fh:
                    names += sorted({w for w in fh.read().split() if w.endswith(".lie")})
            path = os.path.join(tmp, data.draw(st.sampled_from(names)))
            with open(path, encoding="utf-8") as fh:
                text = data.draw(mutations(fh.read()))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        first = run(argv, tmp)
        second = run(argv, tmp)
    for code, _, err in (first, second):
        assert code in (0, 1, 2), (argv, err)
        assert "Traceback" not in err
        if code == 2:
            assert sum("error:" in line for line in err.splitlines()) == 1, err
    assert first[1] == second[1]


def small_bounds(argv: list) -> bool:
    """False when the reference parser accepts `argv` with a bound above
    the small ones: such a run proves nothing more and takes long."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            args = oracles.build_parser().parse_args(argv)
        except SystemExit:
            return True
    return args.max_degree <= 3 and args.hom_bound <= 2 and \
        (getattr(args, "explicit_to", None) or 0) <= 3


@seed(20210105)
@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_command_lines_keep_the_exit_code_contract(data):
    argv, _ = data.draw(st.sampled_from(_targets()))
    argv = ["--max-degree", "3", "--hom-bound", "2"] + list(argv)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(argv) - 1))
        kind = data.draw(st.sampled_from(["insert", "delete", "replace", "edit"]))
        if kind == "insert":
            argv.insert(i, data.draw(st.sampled_from(ARGS)))
        elif kind == "delete":
            del argv[i]
        elif kind == "replace":
            argv[i] = data.draw(st.sampled_from(ARGS))
        else:
            argv[i] = data.draw(mutations(argv[i]))
        if not argv:
            break
    assume(small_bounds(argv))
    with tempfile.TemporaryDirectory() as tmp:
        for name in os.listdir(INPUTS):
            shutil.copy(os.path.join(INPUTS, name), tmp)
        code, out, err = run(argv, tmp)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
