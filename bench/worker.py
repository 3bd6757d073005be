"""Run one gradedlie CLI job in this (fresh) process and report timings.

Usage: python3 worker.py TRACE -- CLI_ARGS...

TRACE is 0, or 1 to record spans and counters (tracer.py).  The CLI report
and the measurements go to stdout as one JSON object; see run.py for how
they are used.  A fixed piece of work is timed before and after the job,
so that run.py can scale the job's times to a reference machine speed.
"""

import io
import json
import sys
import time
import traceback

from tracer import Tracer, rebind


def _timed_loaders(loaders):
    """Time input parsing: wrap the file loaders wherever gradedlie refers
    to them.  Nested loads (a graph file loading its vertex files) count
    once."""
    spent = [0.0]
    depth = [0]
    for fn in loaders:

        def timed(*args, _fn=fn, **kwargs):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    spent[0] += time.perf_counter() - t0

        rebind(fn, timed)
    return spent


def calibrate() -> float:
    """Seconds taken by a fixed piece of pure-Python work like the
    package's inner loops: sparse dict rows combined with coefficients in
    F_p and in Q.  It does not touch gradedlie, so changes to the package
    do not change it."""
    from fractions import Fraction

    t0 = time.perf_counter()
    p = 2147483647
    row = {(i % 13, i): i + 1 for i in range(40)}
    out_p, out_q = {}, {}
    for r in range(300):
        a, b = r * 7919 % p + 1, Fraction(r + 1, 3 + r % 4)
        for k, v in row.items():
            out_p[k] = (out_p.get(k, 0) + a * v) % p
        if r % 5 == 0:
            for k, v in row.items():
                out_q[k] = out_q.get(k, 0) + b * v
    return time.perf_counter() - t0


def main() -> int:
    calib_before = calibrate()
    trace, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: worker.py TRACE -- CLI_ARGS...")
    tracer = None
    if trace == "1":
        tracer = Tracer()
        tracer.install()
    import gradedlie.cli as cli
    from gradedlie import graphalg, presented, raag

    parse = _timed_loaders(
        [presented.load_presentation, graphalg.load_graph, raag.load_graph]
    )
    out = io.StringIO()
    real_stdout = sys.stdout
    error = None
    t_main = time.perf_counter()
    cpu_main = time.process_time()
    sys.stdout = out
    try:
        rc = cli.main(cli_args)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = 1
        error = traceback.format_exc()
    finally:
        sys.stdout = real_stdout
    cpu_after = time.process_time()
    calib_after = calibrate()
    result = {
        "rc": rc,
        "report": out.getvalue(),
        "traceback": error,
        "t_main": t_main,
        "cpu_main": cpu_main,
        "parse_s": parse[0],
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
        "calib_after_cpu_s": time.process_time() - cpu_after,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    if error:
        sys.stderr.write(error)
    sys.stdout.write(json.dumps(result))
    sys.stdout.flush()
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
