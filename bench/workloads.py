"""The three workloads: their input files, CLI jobs and expected answers.

Every expected value comes from reference.py, from the worked example's
statement (section 6: S = <a, b, z, t | [a,b], [z,b] - [t,a]>), or from
the self-verifying subcommands' own pass flags; none is read back from
gradedlie.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import reference as ref

FP = "Fp:2147483647"
ENTRY_RANGE = (-2, 2)  # entries of the twin-q base changes
TWIN_MN_COPIES = 5     # twisted copies of M*N in twin-q
TWIN_MN4_COPIES = 1    # twisted copies of the 4-generator algebra


@dataclass
class Job:
    name: str
    argv: list
    expect: dict                                  # report["data"] key -> value
    rules: list = field(default_factory=list)     # extra checks: data -> problems
    expect_rows: tuple = None                     # (weight, rows, rank) of the engine


def _strs(values) -> list:
    return [str(v) for v in values]


def _lie(gens: str, rels=()) -> str:
    lines = ["field = Q"] + [f"gen {g} weight 1" for g in gens]
    return "\n".join(lines + [f"rel {r}" for r in rels]) + "\n"


def same(a: str, b: str):
    def rule(data):
        return [] if data.get(a) == data.get(b) else [f"{a} != {b}"]
    return rule


def all_flags(key: str):
    """Every boolean inside the list of dicts data[key] is true."""
    def rule(data):
        bad = [
            f"{key}[{i}].{k}"
            for i, item in enumerate(data.get(key) or [])
            for k, v in item.items()
            if isinstance(v, bool) and not v
        ]
        return bad + ([] if data.get(key) else [f"{key} missing"])
    return rule


# -- mn-q ------------------------------------------------------------------

MN_FILES = {
    "mn.lie": _lie("abx", ["[a,b]"]),
    "mn4.lie": _lie("abcd", ["[a,b]", "[c,d]"]),
}


def mn_q(rng: random.Random):
    jobs = [
        Job("dims M*N w10", ["--max-degree", "10", "dims", "mn.lie"],
            {"dims": _strs(ref.lie_dims(ref.MN, 10)), "generators": list("abx")},
            expect_rows=(10, 1474, 420)),
        Job("dims MN4 w8", ["--max-degree", "8", "dims", "mn4.lie"],
            {"dims": _strs(ref.lie_dims(ref.MN4, 8)), "generators": list("abcd")}),
        Job("homology M*N w9", ["--max-degree", "9", "--hom-bound", "3", "homology", "mn.lie"],
            ref.homology(3, 1, 3)),
        Job("hopf M*N w8", ["--max-degree", "8", "hopf", "mn.lie"], ref.hopf(3, 1, 8)),
        Job("example sec6", ["example", "sec6"],
            {"h1_total": "4", "h2_total": "2", "relator_weights": ["2", "3"],
             "quotients_separated": True, "not_raag": True}),
    ]
    return jobs, dict(MN_FILES), {}


# -- twin-q ----------------------------------------------------------------


def _det(m: list) -> int:
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _linear(row: list, names: str) -> str:
    out = ""
    for c, name in zip(row, names):
        if c:
            sign = "-" if c < 0 else ("+" if out else "")
            out += sign + (f"{abs(c)}*" if abs(c) != 1 else "") + name
    return out


def base_change(rng: random.Random, n: int, pairs: list) -> list:
    """A random g in GL_n(Z), entries in ENTRY_RANGE, such that every
    relator [g_i, g_j] (i, j in pairs) involves every generator pair: all
    2x2 minors of rows i, j are nonzero.  That keeps the relators far from
    multihomogeneous and the cost comparable across seeds."""
    lo, hi = ENTRY_RANGE
    while True:
        g = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
        mixed = all(
            g[i][a] * g[j][b] - g[i][b] * g[j][a]
            for i, j in pairs for a in range(n) for b in range(a + 1, n)
        )
        if mixed and abs(_det(g)) == 1:
            return g


def twisted(rng: random.Random, gens: str, pairs: list):
    g = base_change(rng, len(gens), pairs)
    rels = [f"[{_linear(g[i], gens)}, {_linear(g[j], gens)}]" for i, j in pairs]
    return _lie(gens, rels), g


def twin_q(rng: random.Random):
    """The mn-q algebras after random changes of generators.  The algebra
    is unchanged, so every answer is the untwisted reference."""
    files, matrices, jobs = {}, {}, []
    for k in range(1, TWIN_MN_COPIES + 1):
        f = f"mn-tw{k}.lie"
        files[f], matrices[f] = twisted(rng, "abx", [(0, 1)])
        jobs += [
            Job(f"dims {f} w8", ["--max-degree", "8", "dims", f],
                {"dims": _strs(ref.lie_dims(ref.MN, 8))}),
            Job(f"hopf {f} w6", ["--max-degree", "6", "hopf", f], ref.hopf(3, 1, 6)),
            Job(f"homology {f} w6", ["--max-degree", "6", "--hom-bound", "3", "homology", f],
                ref.homology(3, 1, 3)),
        ]
    for k in range(1, TWIN_MN4_COPIES + 1):
        f = f"mn4-tw{k}.lie"
        files[f], matrices[f] = twisted(rng, "abcd", [(0, 1), (2, 3)])
        jobs += [
            Job(f"dims {f} w5", ["--max-degree", "5", "dims", f],
                {"dims": _strs(ref.lie_dims(ref.MN4, 5))}),
            Job(f"hopf {f} w4", ["--max-degree", "4", "hopf", f], ref.hopf(4, 2, 4)),
        ]
    return jobs, files, matrices


# -- verify-fp -------------------------------------------------------------

GRAPH_FILES = {
    "k2.lie": _lie("ab", ["[a,b]"]),
    "k1.lie": _lie("x"),
    "zero.lie": "field = Q\n",
    "mn.graph": "vertex vM k2.lie\nvertex vN k1.lie\nedge e1 vM vN forest zero.lie\n",
    # HNN loop over the free algebra <a,b>: t acts by u -> [a,b], v -> 0
    "free2.lie": _lie("ab"),
    "kuv.lie": _lie("uv"),
    "hnn.graph": (
        "vertex v free2.lie\nedge t v v kuv.lie\n"
        "map sigma t u -> a\nmap sigma t v -> b\n"
        "der t u -> [a,b] stable-weight 1\nder t v -> 0*a stable-weight 1\n"
    ),
    # a tree edge plus a loop with a weight-2 edge algebra
    "v1.lie": "field = Q\ngen a weight 1\ngen c weight 2\nrel [a,c]\n",
    "v2.lie": _lie("b"),
    "kz.lie": _lie("z"),
    "kw.lie": "field = Q\ngen w weight 2\n",
    "mix.graph": (
        "vertex v1 v1.lie\nvertex v2 v2.lie\n"
        "edge e1 v1 v2 forest kz.lie\nmap sigma e1 z -> a\nmap tau e1 z -> b\n"
        "edge e2 v1 v1 kw.lie\nmap sigma e2 w -> c\n"
        "der e2 w -> 0*c stable-weight 1\n"
    ),
    "c5.graph": "vertices a b c d e\nedge a b\nedge b c\nedge c d\nedge d e\nedge e a\n",
    "onerel3.lie": _lie("xyz", ["[x,[x,y]]+[z,[z,y]]"]),
}


def _graph_job(name: str, graph: str, n: int, explicit: int, series: list) -> Job:
    checks = [{"exact_middle": True, "injective": True, "weight": str(w)}
              for w in range(explicit + 1)]
    return Job(
        name,
        ["--field", FP, "--max-degree", str(n), "graph", "verify", graph,
         "--explicit-to", str(explicit)],
        {"fundamental_dims": _strs(ref.lie_dims(series, n)), "euler_ok": True,
         "explicit_ok": True, "embedding_failures": [], "explicit_checks": checks},
        [same("euler_lhs", "euler_rhs")],
    )


def verify_fp(rng: random.Random):
    onerel = _strs(ref.lie_dims(ref.ONE_RELATOR_3, 7))
    jobs = [
        _graph_job("graph M*N w8", "mn.graph", 8, 8, ref.MN),
        _graph_job("graph hnn-loop w10", "hnn.graph", 10, 9, ref.HNN_LOOP),
        _graph_job("graph loop-tree w11", "mix.graph", 11, 10, ref.LOOP_TREE),
        Job("raag resolve C5 w7", ["--field", FP, "--max-degree", "7", "raag", "resolve", "c5.graph"],
            {"exact": True, "euler_ok": True, "failures": []}),
        Job("onerelator decompose w7",
            ["--field", FP, "--max-degree", "7", "onerelator", "decompose", "onerel3.lie"],
            {"original_dims": onerel, "rebuilt_dims": onerel, "dims_match": True,
             "base_free": True},
            [all_flags("layers")]),
    ]
    return jobs, dict(GRAPH_FILES), {}


WORKLOADS = {"mn-q": mn_q, "twin-q": twin_q, "verify-fp": verify_fp}


def check(job: Job, report: dict, expect: dict = None) -> list:
    """Problems with one parsed report; empty when it is right."""
    expect = job.expect if expect is None else expect
    if report.get("ok") is not True:
        return ["ok is not true"]
    data = report.get("data", {})
    problems = [
        f"{key}: got {data.get(key)!r}, want {want!r}"
        for key, want in expect.items()
        if data.get(key) != want
    ]
    for rule in job.rules:
        problems += rule(data)
    return problems


def perturbed(expect: dict) -> dict:
    """A deliberately wrong copy of an expectation: its first value is
    altered (a flag negated, a leading dimension off by one)."""
    key, value = next(iter(expect.items()))
    if isinstance(value, bool):
        wrong = not value
    elif isinstance(value, list):
        wrong = [str(int(value[0]) + 1)] + value[1:]
    elif isinstance(value, dict):
        wrong = {**value, "extra": {}}
    else:
        wrong = str(int(value) + 1)
    return {**expect, key: wrong}
