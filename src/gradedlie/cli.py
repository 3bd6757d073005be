"""Command-line frontend.

Subcommands: hall, dims, hilbert, homology, hopf, infer, graph verify,
onerelator decompose, raag chordal|resolve|verdict, example sec6, selftest.
Reports are JSON (schema 1) with all dimensions as decimal strings so that
consumers never overflow; identical inputs, configuration and seed produce
byte-identical reports.  Exit codes: 0 pass, 1 verification failure,
2 input error, 3 internal error (a bug: a one-line message on stderr, no
report).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import example6
from .fields import FieldError, parse_field
from .freelie import FreeLieAlgebra, witt_dims
from .homology import homology_table
from .onerelator import DecompositionError, decompose, verify_tower
from .presented import (
    InconclusiveAtDegree,
    PresentationError,
    infer_presentation,
    load_presentation,
)

SCHEMA = 1


class InputError(Exception):
    pass


def _report(args, command: str, ok: bool, data: dict) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "field": args.field,
        "max_degree": getattr(args, "max_degree", None),
        "hom_bound": getattr(args, "hom_bound", None),
        "seed": getattr(args, "seed", 0),
        "ok": ok,
        "data": data,
    }


def _strs(values) -> list[str]:
    return [str(int(v)) for v in values]


def _emit(args, report: dict) -> int:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"{report['command']}: {'PASS' if report['ok'] else 'FAIL'}"]
        for key, value in sorted(report["data"].items()):
            lines.append(f"  {key}: {value}")
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["ok"] else 1


def _field(args):
    try:
        return parse_field(args.field)
    except FieldError as exc:
        raise InputError(str(exc))


def _load_presentation(args, path):
    try:
        return load_presentation(path, field=_field(args))
    except FileNotFoundError as exc:
        raise InputError(str(exc))
    except PresentationError as exc:
        raise InputError(f"{path}: {exc}")


# -- subcommand handlers -------------------------------------------------


def cmd_hall(args) -> int:
    specs = []
    for part in args.gens.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            name, _, w = part.partition(":")
            try:
                specs.append((name.strip(), int(w)))
            except ValueError:
                raise InputError(f"bad generator weight in {part!r}")
        else:
            specs.append((part, 1))
    if not specs:
        raise InputError("empty generator list")
    field = _field(args)
    try:
        alg = FreeLieAlgebra(field, specs)
    except ValueError as exc:
        raise InputError(str(exc))
    counts = alg.hall_counts(args.max_degree)
    expected = witt_dims([w for _, w in specs], args.max_degree)
    data = {
        "generators": [f"{n}:{w}" for n, w in specs],
        "counts": _strs(counts),
        "witt": _strs(expected),
    }
    if args.list:
        data["monomials"] = {
            str(n): [alg.monomial_str(m) for m in alg.hall_basis(n)]
            for n in range(1, args.max_degree + 1)
        }
    return _emit(args, _report(args, "hall", counts == expected, data))


def cmd_dims(args) -> int:
    P = _load_presentation(args, args.file)
    dims = P.dim_sequence(args.max_degree)
    data = {"dims": _strs(dims), "generators": P.generator_names}
    return _emit(args, _report(args, "dims", True, data))


def cmd_hilbert(args) -> int:
    P = _load_presentation(args, args.file)
    series = P.enveloping_series(args.max_degree)
    data = {"coefficients": _strs(series.coeffs)}
    return _emit(args, _report(args, "hilbert", True, data))


def cmd_homology(args) -> int:
    P = _load_presentation(args, args.file)
    table = homology_table(P, args.hom_bound, args.max_degree)
    data = {
        "table": {
            str(i): {str(n): str(d) for n, d in enumerate(row) if d}
            for i, row in enumerate(table.dims)
        }
    }
    return _emit(args, _report(args, "homology", True, data))


def cmd_hopf(args) -> int:
    P = _load_presentation(args, args.file)
    h1 = P.h1(args.max_degree)
    h2 = P.h2_hopf(args.max_degree)
    data = {
        "h1": _strs(h1),
        "h2": _strs(h2),
        "h1_total": str(sum(h1)),
        "h2_total": str(sum(h2)),
        "freeness": P.is_free_up_to(args.max_degree).verdict,
    }
    return _emit(args, _report(args, "hopf", True, data))


def cmd_infer(args) -> int:
    P = _load_presentation(args, args.file)
    if not args.gen:
        raise InputError("infer needs at least one --gen expression")
    try:
        S = P.subalgebra(args.gen)
        inferred = infer_presentation(S, args.max_degree, strict_boundary=False)
    except (PresentationError, KeyError, ValueError) as exc:
        raise InputError(str(exc))
    pres = inferred.presentation
    data = {
        "generators": [f"{g.name}:{g.weight}" for g in pres.generators],
        "relators": [repr(r) for r in pres.relators],
        "relator_weights": _strs(pres.relator_weights()),
        "dims": _strs(pres.dim_sequence(args.max_degree)),
        "conclusive": inferred.conclusive,
    }
    return _emit(args, _report(args, "infer", inferred.conclusive, data))


def cmd_graph_verify(args) -> int:
    from .graphalg import GraphError, load_graph, verify_theorem_a

    try:
        graph = load_graph(args.file, field=_field(args))
        report = verify_theorem_a(
            graph, args.max_degree, explicit_to=args.explicit_to
        )
    except (GraphError, PresentationError, FileNotFoundError) as exc:
        raise InputError(str(exc))
    data = {
        "euler_ok": report.euler_ok,
        "euler_lhs": _strs(report.euler_lhs),
        "euler_rhs": _strs(report.euler_rhs),
        "embedding_failures": [list(map(str, f)) for f in report.embedding_failures],
        "fundamental_dims": _strs(report.fundamental.algebra.dim_sequence(args.max_degree)),
    }
    if args.explicit_to is not None:
        data["explicit_checks"] = [
            {
                "weight": str(c.n),
                "injective": c.injective,
                "exact_middle": c.exact_middle,
            }
            for c in report.checks
        ]
        data["explicit_ok"] = report.explicit_ok
    return _emit(args, _report(args, "graph verify", report.ok, data))


def cmd_onerelator_decompose(args) -> int:
    P = _load_presentation(args, args.file)
    try:
        tower = decompose(P, N=args.max_degree, cap=args.cap)
    except DecompositionError as exc:
        raise InputError(str(exc))
    report = verify_tower(tower, P, args.max_degree)
    data = {
        "tower": tower.describe(),
        "rebuilt_dims": _strs(report.rebuilt_dims),
        "original_dims": _strs(report.original_dims),
        "dims_match": report.dims_match,
        "base_free": report.base_free,
        "layers": report.layer_reports,
    }
    return _emit(args, _report(args, "onerelator decompose", report.ok, data))


def _load_simple_graph(args, path):
    from .raag import load_graph

    try:
        return load_graph(path)
    except (FileNotFoundError, ValueError) as exc:
        raise InputError(str(exc))


def cmd_raag_chordal(args) -> int:
    from .raag import is_chordal

    graph = _load_simple_graph(args, args.file)
    res = is_chordal(graph)
    data = {"chordal": res.chordal}
    if res.chordal:
        data["peo"] = res.peo
    else:
        data["induced_cycle"] = res.cycle
    return _emit(args, _report(args, "raag chordal", res.chordal, data))


def cmd_raag_resolve(args) -> int:
    from .raag import verify_resolution

    graph = _load_simple_graph(args, args.file)
    report = verify_resolution(graph, args.max_degree, field=_field(args))
    data = {
        "exact": not report.failures,
        "euler_ok": report.euler_ok,
        "failures": [str(f[:3]) for f in report.failures[:10]],
    }
    return _emit(args, _report(args, "raag resolve", report.ok, data))


def cmd_raag_verdict(args) -> int:
    from .raag import coherence_verdict

    graph = _load_simple_graph(args, args.file)
    verdict = coherence_verdict(graph)
    return _emit(args, _report(args, "raag verdict", verdict.coherent, verdict.as_dict()))


def cmd_example_sec6(args) -> int:
    report = example6.full_report(_field(args))
    data = {
        "h1_total": str(report["build_s"]["h1_total"]),
        "h2_total": str(report["build_s"]["h2_total"]),
        "h1_ce_total": str(report["build_s"]["h1_ce_total"]),
        "h2_ce_total": str(report["build_s"]["h2_ce_total"]),
        "relator_weights": _strs(report["build_s"]["relator_weights"]),
        "not_free_product": {
            k: v if isinstance(v, bool) else str(v) if isinstance(v, int) else v
            for k, v in report["not_free_product"].items()
        },
        "quotients_separated": report["distinguish_quotients"]["ok"],
        "fingerprints": {
            k: repr(v)
            for k, v in report["distinguish_quotients"]["fingerprints"].items()
        },
        "not_raag": report["not_raag"]["ok"],
    }
    return _emit(args, _report(args, "example sec6", report["ok"], data))


def cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    field = _field(args)
    results = {}

    # Jacobi / antisymmetry on random triples
    alg = FreeLieAlgebra(field, ["x", "y"])
    monomials = [m for n in range(1, 6) for m in alg.hall_basis(n)]
    ok = True
    for _ in range(100):
        elems = []
        for _ in range(3):
            terms = {
                rng.choice(monomials): field.of(rng.randint(-3, 3))
                for _ in range(2)
            }
            elems.append(alg.from_terms(terms))
        a, b, c = elems
        jac = a.bracket(b).bracket(c) + b.bracket(c).bracket(a) + c.bracket(a).bracket(b)
        ok = ok and jac.is_zero() and (a.bracket(b) + b.bracket(a)).is_zero()
    results["jacobi_antisymmetry"] = ok

    # Witt agreement
    alg2 = FreeLieAlgebra(field, ["x", "y"])
    alg3 = FreeLieAlgebra(field, ["x", "y", "z"])
    results["witt_rank2"] = alg2.hall_counts(8) == witt_dims([1, 1], 8)
    results["witt_rank3"] = alg3.hall_counts(7) == witt_dims([1, 1, 1], 7)

    # PBW counts vs the series product formula
    from .envelope import Envelope
    from .presented import PresentedLieAlgebra

    pbw_ok = True
    for gens, rels in [
        (["x", "y"], []),
        (["a", "b", "x"], ["[a,b]"]),
        (["a", "b"], ["[a,[a,b]]", "[b,[a,b]]"]),
    ]:
        P = PresentedLieAlgebra(field, gens, rels)
        env = Envelope(P)
        series = P.enveloping_series(6)
        pbw_ok = pbw_ok and all(env.pbw_dim(n) == series[n] for n in range(7))
    results["pbw_counts"] = pbw_ok

    # Hopf H2 agrees with the Chevalley-Eilenberg route
    hh = True
    for gens, rels in [(["x", "y"], ["[x,y]"]), (["a", "b", "x"], ["[a,b]"])]:
        P = PresentedLieAlgebra(field, gens, rels)
        table = homology_table(P, 2, 5)
        hh = hh and table[1][1:6] == P.h1(5) and table[2][1:6] == P.h2_hopf(5)
    results["h2_double_route"] = hh

    # rank-nullity on random sparse matrices
    from .linalg import SparseMatrix

    rn = True
    for _ in range(100):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        entries = {}
        for r in range(rows):
            for c in range(cols):
                if rng.random() < 0.4:
                    entries[(r, c)] = field.of(rng.randint(-4, 4))
        m = SparseMatrix(field, rows, cols, entries)
        rn = rn and m.rank() + m.kernel().dim == cols
    results["rank_nullity"] = rn

    # the worked example end to end
    results["example_sec6"] = example6.full_report(field)["ok"]

    ok = all(results.values())
    return _emit(args, _report(args, "selftest", ok, results))


# -- parser ---------------------------------------------------------------


def _count(text: str) -> int:
    """A nonnegative integer option; argparse turns a bad one into exit 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedlie",
        description="computations with finitely presented graded Lie algebras",
    )
    parser.add_argument("--field", default="Q", help="ground field: Q or Fp:<prime>")
    parser.add_argument("--max-degree", type=_count, default=8, dest="max_degree")
    parser.add_argument("--hom-bound", type=_count, default=4, dest="hom_bound")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="write the report to a file")
    parser.add_argument("--cap", type=_count, default=200, help="layer cap for decompositions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hall", help="Hall basis counts for a free Lie algebra")
    p.add_argument("--gens", required=True, help="comma list, e.g. x,y or a:1,t:2")
    p.add_argument("--list", action="store_true", help="include the monomials")
    p.set_defaults(func=cmd_hall)

    for name, func in (
        ("dims", cmd_dims),
        ("hilbert", cmd_hilbert),
        ("homology", cmd_homology),
        ("hopf", cmd_hopf),
    ):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.set_defaults(func=func)

    p = sub.add_parser("infer", help="presentation of a graded subalgebra")
    p.add_argument("file")
    p.add_argument("--gen", action="append", default=[], help="subalgebra generator expression")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("graph", help="graph-of-Lie-algebras commands")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    gv = gsub.add_parser("verify", help="verify the fundamental-algebra sequence")
    gv.add_argument("file")
    gv.add_argument("--explicit-to", type=_count, default=None, dest="explicit_to")
    gv.set_defaults(func=cmd_graph_verify)

    p = sub.add_parser("onerelator")
    osub = p.add_subparsers(dest="onerelator_command", required=True)
    od = osub.add_parser("decompose", help="iterated HNN decomposition")
    od.add_argument("file")
    od.set_defaults(func=cmd_onerelator_decompose)

    p = sub.add_parser("raag")
    rsub = p.add_subparsers(dest="raag_command", required=True)
    rc = rsub.add_parser("chordal")
    rc.add_argument("file")
    rc.set_defaults(func=cmd_raag_chordal)
    rr = rsub.add_parser("resolve")
    rr.add_argument("file")
    rr.set_defaults(func=cmd_raag_resolve)
    rv = rsub.add_parser("verdict")
    rv.add_argument("file")
    rv.set_defaults(func=cmd_raag_verdict)

    p = sub.add_parser("example")
    esub = p.add_subparsers(dest="example_command", required=True)
    es = esub.add_parser("sec6", help="reproduce the worked example")
    es.set_defaults(func=cmd_example_sec6)

    p = sub.add_parser("selftest", help="invariant suite plus the worked example")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InconclusiveAtDegree as exc:
        sys.stderr.write(f"inconclusive: {exc}\n")
        return 1
    except Exception as exc:  # not a verdict on the input: keep it out of 1 and 2
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
