"""Golden-report gate: the CLI corpus in tests/golden/ must reproduce its
recorded stdout and exit codes byte for byte under two hash seeds."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")


def expected():
    with open(os.path.join(GOLDEN, "corpus.json"), encoding="utf-8") as fh:
        names = [name for name, _ in json.load(fh)]
    with open(os.path.join(GOLDEN, "expected", "exit_codes.json"), encoding="utf-8") as fh:
        codes = json.load(fh)
    out = {}
    for name in names:
        path = os.path.join(GOLDEN, "expected", f"{name}.stdout")
        with open(path, encoding="utf-8", newline="") as fh:
            out[name] = {"exit": codes[name], "stdout": fh.read()}
    return out


def test_golden_reports_byte_identical():
    want = expected()
    procs = {}
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
        )
        procs[seed] = subprocess.Popen(
            [sys.executable, os.path.join(GOLDEN, "replay.py")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
    for seed, proc in procs.items():
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, err
        got = json.loads(out)
        assert sorted(got) == sorted(want)
        differ = [name for name in want if got[name] != want[name]]
        assert not differ, f"PYTHONHASHSEED={seed}: reports differ for {differ}"
