"""Benchmark of the gradedlie command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload mn-q --seed 1 --seconds 40 --trace 0

Each job is one CLI invocation in a fresh Python process, as a user runs
it; jobs run one after another (a closed loop with one client).  A round
runs every job of the workload once; rounds repeat until --seconds is
used up (at least three; every report is compared byte for byte with its
repeats).  Every report is checked against an expected answer that
is computed without gradedlie (see reference.py and workloads.py).
End-to-end times are scaled to a reference machine speed measured by
each worker (see CALIB_REF_S and worker.calibrate).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (each job runs traced and then untraced, back to back; the
difference is the tracing overhead).  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it describe the run.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, check, perturbed  # noqa: E402

# per-layer metric -> the tracer layer whose self time it reports
SELF_TIMES = {
    "presented.engine.self_s": "presented.engine",
    "presented.ideal.self_s": "presented.ideal",
    "presented.subalgebra.self_s": "presented.subalgebra",
    "freelie.self_s": "freelie",
    "example6.self_s": "example6",
    "homology.self_s": "homology",
    "linalg.rank_self_s": "linalg.rank",
    "linalg.echelon_self_s": "linalg.echelon",
    "linalg.solver_self_s": "linalg.solver",
    "envelope.pbw_self_s": "envelope.pbw",
    "envelope.induced_self_s": "envelope.induced",
    "graphalg.self_s": "graphalg",
    "raag.self_s": "raag",
    "onerelator.self_s": "onerelator",
}
COUNTS = [
    "presented.engine.rows",
    "presented.engine.rank",
    "presented.ideal.rows",
    "presented.ideal.rank",
    "freelie.bracket_calls",
    "homology.chains",
    "linalg.echelon_adds",
    "linalg.axpy_terms",
    "linalg.solves",
    "envelope.pbw_monomials",
]


# seconds the worker's calibration (worker.calibrate) took on the machine
# the baseline was measured on; timings are scaled to that speed
CALIB_REF_S = 0.014

# seconds into a run after which a running job is killed and no round
# starts, so that a run with a hung job still ends within 180 s
DEADLINE_S = 150.0


def die(message: str):
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(2)


class Context:
    def __init__(self, root: str, work: str):
        self.src = os.path.join(root, "src")
        self.work = work
        self.worker = os.path.join(HERE, "worker.py")


def build(root: str):
    """There is nothing to compile but the bytecode; do it before timing so
    that the first job does not pay for it."""
    package = os.path.join(root, "src", "gradedlie")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        die(f"no gradedlie sources in {package}; run from the repository root")
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", package],
        stdout=subprocess.DEVNULL,
    )
    if done.returncode:
        die("byte-compiling the sources failed")


def run_job(job, ctx: Context, hashseed: int, traced: bool, timeout: float) -> dict:
    """Run one job in a fresh worker, killed after `timeout` seconds, and
    check its report."""
    env = dict(os.environ, PYTHONPATH=ctx.src, PYTHONHASHSEED=str(hashseed))
    argv = [sys.executable, ctx.worker, "1" if traced else "0", "--", *job.argv]
    with open(os.path.join(ctx.work, "stderr.txt"), "w+b") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.work, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            raw = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    problems = []
    try:
        result = json.loads(raw)
    except ValueError:
        result = None
        problems.append(f"worker exited {proc.returncode} without a result")
    report_text = None
    if result is not None:
        report_text = result["report"]
        if result["rc"] != 0:
            problems.append(f"exit code {result['rc']}")
        if result["traceback"] or "Traceback" in stderr:
            problems.append("traceback")
        try:
            problems += check(job, json.loads(report_text), job.expect)
        except ValueError:
            problems.append("report is not JSON")
        if job.expect_rows and traced:
            weight, rows, rank = job.expect_rows
            got = result["layers"]["engine_by_weight"].get(str(weight))
            if got != [rows, rank]:
                problems.append(f"engine rows/rank at weight {weight}: {got}, want {[rows, rank]}")
    t_verified = time.perf_counter()
    sample = {"problems": problems, "report": report_text,
              "rss_mb": usage.ru_maxrss / 1024.0, "wall": 0.0, "setup": 0.0,
              "cpu": 0.0, "calib": CALIB_REF_S, "layers": None}
    if result is not None:
        # the calibrations are not the job's: the first runs before t_main,
        # the second after the CLI returned
        after = result["calib_after_s"]
        sample.update(
            wall=t_verified - result["t_main"] - after,
            setup=result["t_main"] - t_spawn + result["parse_s"] - result["calib_before_s"],
            cpu=usage.ru_utime + usage.ru_stime - result["cpu_main"]
            - result["calib_after_cpu_s"],
            calib=(result["calib_before_s"] + after) / 2,
            layers=result.get("layers"),
        )
    return sample


def median_sum(rounds: list, key: str, scaled: bool = True) -> float:
    """Sum over jobs of each job's median over the rounds, untraced runs.
    Scaled, each run's time is multiplied by CALIB_REF_S over its own
    calibration time: the time it would have taken at the reference speed."""
    def value(run):
        return run[key] * (CALIB_REF_S / run["calib"] if scaled else 1.0)

    return sum(statistics.median(value(r[j][-1]) for r in rounds) for j in range(len(rounds[0])))


def end_to_end(rounds: list) -> dict:
    return {
        "wall_s": (median_sum(rounds, "wall"), "s"),
        "cpu_s": (median_sum(rounds, "cpu"), "s"),
        "setup_s": (median_sum(rounds, "setup"), "s"),
        "peak_rss_mb": (max(s["rss_mb"] for r in rounds for runs in r for s in runs), "MB"),
    }


def layer_totals(round_: list) -> tuple[dict, dict]:
    self_s = {m: 0.0 for m in SELF_TIMES}
    counts = {c: 0 for c in COUNTS}
    counts["presented.engine.w10_rows"] = counts["presented.engine.w10_rank"] = 0
    for sample in round_:
        layers = sample["layers"]
        if layers is None:  # the job failed; it is reported as such
            continue
        for metric, layer in SELF_TIMES.items():
            self_s[metric] += layers["self_s"][layer]
        for c in COUNTS:
            counts[c] += layers["counts"].get(c, 0)
        w10 = layers["engine_by_weight"].get("10", [0, 0])
        counts["presented.engine.w10_rows"] += w10[0]
        counts["presented.engine.w10_rank"] += w10[1]
    return self_s, counts


def per_layer(rounds: list, problems: list) -> dict:
    totals = [layer_totals([runs[0] for runs in r]) for r in rounds]
    counts = totals[0][1]
    if any(t[1] != counts for t in totals[1:]):
        problems.append("per-layer counts differ between rounds")
    out = {m: (statistics.median(t[0][m] for t in totals), "s") for m in SELF_TIMES}
    for c, v in counts.items():
        out[c] = (v, "count")
    for layer in ("presented.engine", "presented.ideal"):
        rows = counts[layer + ".rows"]
        out[layer + ".row_yield"] = (counts[layer + ".rank"] / rows if rows else 0.0, "ratio")
    del out["presented.ideal.rank"]
    elimination = out["linalg.echelon_self_s"][0] + out["linalg.solver_self_s"][0]
    terms = counts["linalg.axpy_terms"]
    out["linalg.ns_per_axpy_term"] = (1e9 * elimination / terms if terms else 0.0, "ns")
    # each round's traced runs over their untraced twins, run seconds apart,
    # so that machine drift mostly cancels
    ratios = [
        sum(runs[0]["wall"] for runs in r) / sum(runs[1]["wall"] for runs in r)
        for r in rounds
        if all(runs[1]["wall"] for runs in r)
    ]
    overhead = statistics.median(ratios) - 1.0 if ratios else 0.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def measure(jobs, ctx, seconds: float, trace: bool, rng) -> list:
    """Rounds of all jobs until the time is used up, at least three so that
    a per-job median discards one disturbed round.  A round holds, per job,
    its runs: one untraced run, or with tracing a traced run and then an
    untraced one."""
    minimum = 3
    modes = (True, False) if trace else (False,)
    rounds, durations = [], []
    start = time.perf_counter()
    deadline = start + DEADLINE_S
    while True:
        hashseed = rng.randrange(1, 2**32 - 1)
        t0 = time.perf_counter()
        rounds.append([
            [run_job(job, ctx, hashseed, traced, deadline - time.perf_counter())
             for traced in modes]
            for job in jobs
        ])
        durations.append(time.perf_counter() - t0)
        print(json.dumps({"round": len(rounds), "traced": trace, "hashseed": hashseed,
                          "seconds": round(durations[-1], 3)}), flush=True)
        elapsed = time.perf_counter() - start
        if time.perf_counter() > deadline:
            return rounds
        if len(rounds) >= minimum and elapsed + max(durations) > seconds:
            return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    build(root)
    rng = random.Random(args.seed)
    jobs, files, matrices = WORKLOADS[args.workload](rng)
    work = os.path.join(root, ".bench_work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        for name, text in files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        ctx = Context(root, work)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "base_changes": matrices, "jobs": [j.name for j in jobs]}),
              flush=True)
        rounds = measure(jobs, ctx, args.seconds, bool(args.trace), rng)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    problems, failed = [], 0
    for j, job in enumerate(jobs):
        first = rounds[0][j][0]
        for r in rounds:
            for run in r[j]:
                bad = list(run["problems"])
                if run["report"] != first["report"]:
                    bad.append("report bytes differ from the first run's")
                failed += bool(bad)
                problems += [f"{job.name}: {p}" for p in bad]
        # negative control: the checker must reject a wrong reference
        if not first["problems"] and \
                not check(job, json.loads(first["report"]), perturbed(job.expect)):
            problems.append(f"{job.name}: checker accepted a wrong reference")
    attempted = sum(len(runs) for r in rounds for runs in r)
    if args.trace:
        metrics = per_layer(rounds, problems)
    else:
        metrics = end_to_end(rounds)
        calib = [runs[-1]["calib"] for r in rounds for runs in r]
        print(json.dumps({
            "calibration_s": statistics.median(calib),
            "unscaled": {m: median_sum(rounds, key, scaled=False)
                         for m, key in (("wall_s", "wall"), ("cpu_s", "cpu"),
                                        ("setup_s", "setup"))},
        }), flush=True)
    for p in problems:
        print(json.dumps({"problem": p}), flush=True)
    print(json.dumps({"error_rate": failed / attempted, "rounds": len(rounds)}), flush=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
