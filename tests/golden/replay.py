"""Replay the golden CLI corpus in one process.

    PYTHONPATH=src python tests/golden/replay.py            # print results
    PYTHONPATH=src python tests/golden/replay.py --record   # rewrite expected/

Runs every command of corpus.json through `gradedlie.cli.main`, with
inputs/ as the working directory, and prints one JSON object mapping each
command name to its exit code and exact stdout.  `--record` writes those
as expected/<name>.stdout and expected/exit_codes.json instead; the
expectations are recorded once, on the commit whose behaviour they fix.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")


def replay() -> dict:
    from gradedlie.cli import main

    with open(os.path.join(HERE, "corpus.json"), encoding="utf-8") as fh:
        corpus = json.load(fh)
    results = {}
    cwd = os.getcwd()
    os.chdir(os.path.join(HERE, "inputs"))
    try:
        for name, argv in corpus:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv)
            results[name] = {"exit": code, "stdout": out.getvalue()}
    finally:
        os.chdir(cwd)
    return results


def record(results: dict):
    os.makedirs(EXPECTED, exist_ok=True)
    for name, res in results.items():
        path = os.path.join(EXPECTED, f"{name}.stdout")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(res["stdout"])
    codes = {name: res["exit"] for name, res in results.items()}
    with open(os.path.join(EXPECTED, "exit_codes.json"), "w", encoding="utf-8") as fh:
        json.dump(codes, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    results = replay()
    if sys.argv[1:] == ["--record"]:
        record(results)
    else:
        json.dump(results, sys.stdout)
