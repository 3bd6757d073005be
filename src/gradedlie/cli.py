"""Command-line frontend: gradedlie [GLOBAL OPTIONS] COMMAND ...

The commands (hall, dims, hilbert, homology, hopf, infer, graph verify,
onerelator decompose, raag chordal|resolve|verdict, example sec6), their
positionals and their options are the table of `_grammar`.  The global
options come before the command, a command's own options before or after
its file.  A value follows its option as the next argument or after "="
(the only form for a value that starts with "-"), and a unique prefix names
a long option.  -h or --help prints the usage of its level and exits 0; any
other bad command line writes one "error: ..." line to stderr and exits 2.
--field is checked under every command, whether or not the command uses
it, and a report gives the canonical name of the field used ("Fp:7" for
"Fp:007"): the flag's field, else a file's own field line, else Q.
Reports are JSON (schema 1) with all dimensions as decimal strings so that
consumers never overflow; identical inputs and configuration produce
byte-identical reports.  Exit codes: 0 pass (a verified answer, "no"
included), 1 verification failure, 2 input error, 3 internal error (a bug:
a one-line message on stderr, no report).  Exit 2 covers a bad command
line, an input the loaders reject (an InputError, which names the file),
an input file that cannot be read, and a --out file that cannot be written.

Each handler only calls the library function behind its command (for the
verifying commands, the verifier, which returns the report data with its
verdict "ok") and turns the counts into decimal strings with `_strs`; the
schema-1 formatting lives here alone.  `main` takes "ok" out of the data,
builds and writes the report, and it alone maps exceptions to exit codes.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
from typing import Optional

from . import example6, graphalg, raag
from .fields import QQ, InputError, integer, parse_field
from .freelie import FreeLieAlgebra, witt_dims
from .homology import homology_table
from .onerelator import decompose, verify_tower
from .presented import infer_presentation, load_presentation

SCHEMA = 1


def _report(args, ok: bool, data: dict) -> dict:
    sub = getattr(args, f"{args.command}_command", None)
    return {
        "schema": SCHEMA,
        "command": f"{args.command} {sub}" if sub else args.command,
        "field": (args.field or QQ).name,
        "max_degree": getattr(args, "max_degree", None),
        "hom_bound": getattr(args, "hom_bound", None),
        "seed": 0,  # no option sets it; schema 1 keeps the key
        "ok": ok,
        "data": data,
    }


def _strs(values) -> Optional[list[str]]:
    """Counts as decimal strings; None (a value not computed) stays None."""
    return None if values is None else [str(int(v)) for v in values]


def _emit(args, report: dict) -> int:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"{report['command']}: {'PASS' if report['ok'] else 'FAIL'}"]
        lines += [f"  {key}: {value}" for key, value in sorted(report["data"].items())]
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["ok"] else 1


def _load_presentation(args, path):
    """Load over --field, or else over the file's own field line; the
    report states the field used."""
    P = load_presentation(path, field=args.field)
    args.field = P.field
    return P


# -- subcommand handlers: each returns the report data with "ok" ----------


def cmd_hall(args) -> dict:
    specs = []
    for part in filter(None, map(str.strip, args.gens.split(","))):
        name, colon, w = map(str.strip, part.partition(":"))
        specs.append((name, integer(w, f"weight of {name!r}", 1) if colon else 1))
    if not specs:
        raise InputError("empty generator list")
    alg = FreeLieAlgebra(args.field or QQ, specs)
    counts = alg.hall_counts(args.max_degree)
    expected = witt_dims([w for _, w in specs], args.max_degree)
    data = {
        "ok": counts == expected,
        "generators": [f"{n}:{w}" for n, w in specs],
        "counts": _strs(counts),
        "witt": _strs(expected),
    }
    if args.list:
        data["monomials"] = {
            str(n): [alg.monomial_str(m) for m in alg.hall_basis(n)]
            for n in range(1, args.max_degree + 1)
        }
    return data


def cmd_dims(args) -> dict:
    P = _load_presentation(args, args.file)
    return {"ok": True, "dims": _strs(P.dim_sequence(args.max_degree)),
            "generators": P.generator_names}


def cmd_hilbert(args) -> dict:
    P = _load_presentation(args, args.file)
    return {"ok": True, "coefficients": _strs(P.enveloping_series(args.max_degree).coeffs)}


def cmd_homology(args) -> dict:
    P = _load_presentation(args, args.file)
    table = homology_table(P, args.hom_bound, args.max_degree)
    return {"ok": True, "table": {str(i): {str(n): str(d) for n, d in enumerate(row) if d}
                                  for i, row in enumerate(table)}}


def cmd_hopf(args) -> dict:
    P = _load_presentation(args, args.file)
    h1 = P.h1(args.max_degree)
    freeness = P.is_free_up_to(args.max_degree)
    h2 = freeness["h2"]
    return {
        "ok": True,
        "h1": _strs(h1),
        "h2": _strs(h2),
        "h1_total": str(sum(h1)),
        "h2_total": str(sum(h2)),
        "freeness": freeness["verdict"],
    }


def cmd_infer(args) -> dict:
    P = _load_presentation(args, args.file)
    if not args.gen:
        raise InputError("infer needs at least one --gen expression")
    pres, conclusive = infer_presentation(P.subalgebra(args.gen), args.max_degree)
    return {
        "ok": conclusive,
        "generators": [f"{g.name}:{g.weight}" for g in pres.generators],
        "relators": [repr(r) for r in pres.relators],
        "relator_weights": _strs(pres.relator_weights()),
        "dims": _strs(pres.dim_sequence(args.max_degree)),
        "conclusive": conclusive,
    }


def cmd_graph_verify(args) -> dict:
    graph = graphalg.load_graph(args.file, field=args.field)
    args.field = graph.field
    report = graphalg.verify_theorem_a(graph, args.max_degree, explicit_to=args.explicit_to)
    for key in ("euler_lhs", "euler_rhs", "fundamental_dims"):
        report[key] = _strs(report[key])
    report["embedding_failures"] = [list(map(str, f)) for f in report["embedding_failures"]]
    if args.explicit_to is not None:
        report["explicit_checks"] = [{**c, "weight": str(c["weight"])}
                                     for c in report["explicit_checks"]]
        report["explicit_ranks"] = [_strs(ranks) for ranks in report["explicit_ranks"]]
    return report


def cmd_onerelator_decompose(args) -> dict:
    P = _load_presentation(args, args.file)
    report = verify_tower(decompose(P), args.max_degree)
    for key in ("rebuilt_dims", "original_dims"):
        report[key] = _strs(report[key])
    for layer in report["layers"]:
        checked_to = layer["associated_checked_to"]
        layer["associated_checked_to"] = None if checked_to is None else str(checked_to)
    return report


def cmd_raag_chordal(args) -> dict:
    # either answer comes with a validated certificate: "no" is not a failure
    return {"ok": True, **raag.is_chordal(raag.load_graph(args.file))}


def cmd_raag_resolve(args) -> dict:
    report = raag.verify_resolution(raag.load_graph(args.file), args.max_degree,
                                    field=args.field or QQ)
    report["failures"] = [str(f) for f in report["failures"]]
    report["ranks"] = [[_strs(pair) for pair in weight] for weight in report["ranks"]]
    return report


def cmd_raag_verdict(args) -> dict:
    return {"ok": True, **raag.coherence_verdict(raag.load_graph(args.file))}


def cmd_example_sec6(args) -> dict:
    report = example6.full_report(args.field or QQ)
    build, nf = report["build_s"], report["not_free_product"]
    dq = report["distinguish_quotients"]
    return {
        "ok": report["ok"],
        **{k: str(build[k]) for k in ("h1_total", "h2_total", "h1_ce_total", "h2_ce_total")},
        "relator_weights": _strs(build["relator_weights"]),
        "not_free_product": {
            **{k: str(nf[k]) for k in ("h2_M", "h2_Q_candidate", "h2_S", "h2_sum")},
            "contradiction": nf["contradiction"], "ok": nf["ok"]},
        "quotients_separated": dq["ok"],
        "fingerprints": {k: repr(v) for k, v in dq["fingerprints"].items()},
        "not_raag": report["not_raag"]["ok"],
    }


# -- command line ---------------------------------------------------------

HELP = ("help", None, "show this help message and exit")


def _grammar() -> dict:
    """Command path -> (handler, help, positionals, options); "" is the top
    level, a path without a handler a group.  Options map a flag to (kind,
    default, help); a default of ... makes one required.  Built per call, so
    a patched handler is the one called."""
    file = ("file",)
    return {
        "": (None, "computations with finitely presented graded Lie algebras", (), {
            "--field": ("value", None, "ground field: Q or Fp:<prime> "
                        "(default: a file's field line, Q elsewhere)"),
            "--max-degree": ("count", 8, ""),
            "--hom-bound": ("count", 4, ""),
            "--format": (("json", "table"), "json", ""),
            "--out": ("value", None, "write the report to a file")}),
        "hall": (cmd_hall, "Hall basis counts for a free Lie algebra", (), {
            "--gens": ("value", ..., "comma list, e.g. x,y or a:1,t:2"),
            "--list": ("flag", False, "include the monomials")}),
        "dims": (cmd_dims, "", file, {}), "hilbert": (cmd_hilbert, "", file, {}),
        "homology": (cmd_homology, "", file, {}), "hopf": (cmd_hopf, "", file, {}),
        "infer": (cmd_infer, "presentation of a graded subalgebra", file,
                  {"--gen": ("append", [], "subalgebra generator expression")}),
        "graph": (None, "graph-of-Lie-algebras commands", (), {}),
        "graph verify": (cmd_graph_verify, "verify the fundamental-algebra sequence", file,
                         {"--explicit-to": ("count", None, "")}),
        "onerelator": (None, "", (), {}),
        "onerelator decompose": (cmd_onerelator_decompose, "iterated HNN decomposition",
                                 file, {}),
        "raag": (None, "", (), {}), "raag chordal": (cmd_raag_chordal, "", file, {}),
        "raag resolve": (cmd_raag_resolve, "", file, {}),
        "raag verdict": (cmd_raag_verdict, "", file, {}),
        "example": (None, "", (), {}),
        "example sec6": (cmd_example_sec6, "reproduce the worked example", (), {}),
    }


def _option(options: dict, arg: str):
    """None when `arg` is a positional value, else (flag, the text after
    "=" or None), flag None for an option not in `options`.  A unique
    prefix of a long flag names it; an ambiguous one is an error."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    value = value if eq else None
    if name in options:
        return name, value
    if arg[1] == "-" and len(name) > 2:
        hits = [flag for flag in options if flag.startswith(name)]
        if len(hits) > 1:
            raise InputError(f"ambiguous option: {name!r} could match {', '.join(hits)}")
        if hits:
            return hits[0], value
    elif arg[:2] in options:  # -h with text after it
        return arg[:2], arg[2:]
    if " " in arg or re.match(r"^-\d+$|^-\d*\.\d+$", arg):
        return None
    return None, arg


def _usage(grammar: dict, path: str) -> str:
    """The -h text of one level of the grammar."""
    handler, about, positionals, options = grammar[path]
    words = ["usage: gradedlie", path, "[options]", *map(str.upper, positionals),
             "COMMAND ..." if handler is None else ""]
    lines = [" ".join(filter(None, words)), about, "", "options:"]
    for flag, (kind, _, text) in {"-h, --help": HELP, **options}.items():
        meta = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple) else
                {"count": "N", "value": flag[2:].upper(), "append": flag[2:].upper()}.get(kind, ""))
        lines.append(f"  {flag} {meta}".ljust(24) + text)
    subs = [p for p in grammar if p and p.rpartition(" ")[0] == path]
    lines += ["", "commands:"] * bool(subs)
    lines += [f"  {p.rpartition(' ')[2]:<22}{grammar[p][1]}" for p in subs]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _parse(argv: list):
    """The handler's arguments for `argv`, or None once -h/--help has
    printed its level's usage; InputError for any other bad command line."""
    grammar = _grammar()
    values, path, wanted = {}, "", []
    options = {"-h": HELP, "--help": HELP, **grammar[""][3]}
    for arg in argv:  # an ambiguous prefix of a global flag is an error anywhere
        _option(options, arg)
    tokens = iter(argv)
    for arg in tokens:
        found = _option(options, arg)
        if found is None and grammar[path][0] is None:  # a group: arg names a subcommand
            sub = f"{path} {arg}".lstrip()
            if arg.split() != [arg] or sub not in grammar:
                raise InputError(f"invalid choice: {arg!r}")
            values[f"{path}_command".lstrip("_")] = arg
            path, wanted = sub, list(grammar[sub][2])
            options = {"-h": HELP, "--help": HELP, **grammar[sub][3]}
            continue
        if found is None and wanted:
            values[wanted.pop(0)] = arg
            continue
        if found is None or found[0] is None:
            raise InputError(f"unrecognized argument: {arg!r}")
        flag, value = found
        kind, dest = options[flag][0], flag[2:].replace("-", "_")
        if kind in ("flag", "help"):
            if value is not None:
                raise InputError(f"argument {flag}: ignored explicit argument {value!r}")
            if kind == "help":
                sys.stdout.write(_usage(grammar, path))
                return None
            value = True
        elif value is None:
            value = next(tokens, None)
            if value is None or _option(options, value) is not None:
                raise InputError(f"argument {flag}: expected one argument")
        if kind == "count":
            value = integer(value, f"argument {flag}")
        elif kind == "append":
            value = values.get(dest, []) + [value]
        elif isinstance(kind, tuple) and value not in kind:
            raise InputError(f"argument {flag}: invalid choice: {value!r}")
        values[dest] = value
    handler, _, _, options = grammar[path]
    for flag, (_, default, _) in {**grammar[""][3], **options}.items():
        values.setdefault(flag[2:].replace("-", "_"), default)
    wanted += [dest for dest, value in values.items() if value is ...]
    if wanted or handler is None:
        missing = ", ".join(wanted) if handler else f"{path}_command".lstrip("_")
        raise InputError(f"the following arguments are required: {missing}")
    return SimpleNamespace(func=handler, **values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        args.field = None if args.field is None else parse_field(args.field)
        data = args.func(args)
        return _emit(args, _report(args, data.pop("ok"), data))
    except (InputError, OSError) as exc:
        # an OSError comes only from reading an input file or writing --out
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:  # not a verdict on the input: keep it out of 1 and 2
        sys.stderr.write(f"internal error: {exc!r}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
