"""Mutation gate: each entry breaks the library on purpose, and the tests it
names must catch the break.

Run from anywhere with ``python3 tests/mutants.py``.  It uses only the
standard library and pytest is not asked to collect it.  Each entry of
MUTANTS is (file under the repository root, exact old text, replacement,
node ids of the tests that must fail).  For each entry ``src/`` and
``tests/`` are copied to a temporary directory, the old text is replaced
there, and only the named tests run.  An entry is

- caught when every named test fails (or the run times out),
- survived when a named test passes,
- stale when the old text does not occur exactly once, or pytest cannot
  run the named tests.

The exit status is nonzero unless every entry is caught.  Each run is
limited to 1 GiB of address space, so a mutant that loops while
allocating fails with MemoryError instead of exhausting the machine.

A new check should come with an entry here.  References: DeMillo, Lipton
& Sayward, "Hints on test data selection", IEEE Computer 11(4) (1978);
Jia & Harman, IEEE TSE 37(5) (2011).
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 120
MEMORY_BYTES = 1 << 30

CLI = "src/gradedlie/cli.py"
CHOSEN = "tests/test_cli_parser.py::test_chosen_lines_parse_as_the_reference"
ENVELOPE = "src/gradedlie/envelope.py"
EXAMPLE6 = "src/gradedlie/example6.py"
FIELDS = "src/gradedlie/fields.py"
GRAPHALG = "src/gradedlie/graphalg.py"
HOMOLOGY = "src/gradedlie/homology.py"
ONERELATOR = "src/gradedlie/onerelator.py"
PRESENTED = "src/gradedlie/presented.py"
RAAG = "src/gradedlie/raag.py"

MUTANTS = [
    # Theorem A: the forest column's src term not negated
    (GRAPHALG,
     "field.axpy(col, field.neg(one), at(e.src, u))",
     "field.axpy(col, one, at(e.src, u))",
     ["tests/test_graphalg.py::test_theorem_a_amalgam_path",
      "tests/test_graphalg.py::test_theorem_a_one_edge[m-n]"]),
    # Theorem A: the forest column's dst term read at src
    (GRAPHALG,
     "col = at(e.dst, u)",
     "col = at(e.src, u)",
     ["tests/test_graphalg.py::test_theorem_a_amalgam_path",
      "tests/test_graphalg.py::test_theorem_a_non_loop_non_forest_edge"]),
    # Theorem A: every edge's columns start one weight too high
    (GRAPHALG,
     "if e.shift <= n:",
     "if e.shift < n:",
     ["tests/test_graphalg.py::test_theorem_a_hnn_loop",
      "tests/test_graphalg.py::test_theorem_a_one_edge[free2-loop]"]),
    # Theorem A: u.t in place of t.u in the HNN columns
    (GRAPHALG,
     "env.mult(t_us[e.id], u)",
     "env.mult(u, t_us[e.id])",
     ["tests/test_graphalg.py::test_theorem_a_loop_tree_mix",
      "tests/test_span_properties.py::test_euler_identity_gives_explicit_theorem_a_ranks"]),
    # Theorem A: the Euler sum's edge shift dropped
    (GRAPHALG,
     "lhs = lhs + q.shift(e.shift)",
     "lhs = lhs + q",
     ["tests/test_graphalg.py::test_theorem_a_hnn_loop",
      "tests/test_graphalg.py::test_theorem_a_one_edge[heisenberg-loop]"]),
    # Leibniz check: the eps term [b,g] dropped
    (GRAPHALG,
     "            field.axpy(eps, field.one, bracket_vec(m + shift, b, w, g))\n",
     "",
     ["tests/test_graphalg.py::test_leibniz_violation_on_dependent_generators",
      "tests/test_span_properties.py::test_graph_leibniz_check_matches_all_pairs[random-values]"]),
    # Leibniz check: the pivot test off by one
    (GRAPHALG,
     "default=-1) >= base.dim(m):",
     "default=-1) > base.dim(m):",
     ["tests/test_graphalg.py::test_leibniz_violation_on_dependent_generators"]),
    # Freiheitssatz: the membership verdict flipped
    (ONERELATOR,
     "return _express_over(P.free, Z, r) is None",
     "return _express_over(P.free, Z, r) is not None",
     ["tests/test_onerelator.py::test_freiheitssatz_examples",
      "tests/test_onerelator.py::test_freiheitssatz_check_matches_span_oracle"]),
    # j-minimality: the verdict flipped
    (ONERELATOR,
     "j_minimal = layer.j == 0 or _express_over(free, shrunk, r) is None",
     "j_minimal = layer.j == 0 or _express_over(free, shrunk, r) is not None",
     ["tests/test_onerelator.py::test_tower_base_and_associated_free",
      "tests/test_onerelator.py::test_decompose_one_relator_weight3"]),
    # add_brackets skips the last generator
    (PRESENTED,
     "for w, g in gens if w < n for",
     "for w, g in gens[:-1] if w < n for",
     ["tests/test_presented.py::test_engine_matches_ideal_route",
      "tests/test_span_properties.py::test_left_normed_spans_match_all_pairs"]),
    # infer: conclusive below the largest given weight
    (PRESENTED,
     "need = max([1] + [w for w, vec in S.gens if vec])",
     "need = 1",
     ["tests/test_cli.py::test_infer_is_conclusive_from_the_largest_given_weight[below-weight-2]",
      "tests/test_cli.py::test_infer_is_conclusive_from_the_largest_given_weight[below-weight-3]",
      "tests/test_presented.py::test_infer_inconclusive_signal"]),
    # infer: inconclusive at the largest given weight
    (PRESENTED,
     "conclusive = N >= need",
     "conclusive = N > need",
     ["tests/test_cli.py::test_infer_is_conclusive_from_the_largest_given_weight[at-weight-2]",
      "tests/test_presented.py::test_infer_at_weight_0_is_inconclusive"]),
    # the engine's lcm rescale dropped from _addto
    (PRESENTED,
     "    if den % dv:\n        s = lcm(den, dv) // den",
     "    if False:\n        s = lcm(den, dv) // den",
     ["tests/test_presented.py::test_engine_rows_and_table_pinned[mn-denom.lie-Q]",
      "tests/test_presented.py::test_engine_stores_integer_numerators_and_both_orientations"]),
    # the engine's flipped pair entry stored under the same den
    (PRESENTED,
     "memo[p][q[1]] = res, -den",
     "memo[p][q[1]] = res, den",
     ["tests/test_presented.py::test_engine_stores_integer_numerators_and_both_orientations",
      "tests/test_span_properties.py::test_engine_pairs_are_antisymmetric[F7]"]),
    # the engine's one-term bracket added without its reduction mod p
    (PRESENTED,
     "                if mod:\n                    s %= mod\n",
     "",
     ["tests/test_presented.py::test_engine_stores_integer_numerators_and_both_orientations"]),
    # [L,L]: the surviving generators of every weight up to n counted
    (PRESENTED,
     "if a and g.weight == n)",
     "if a and g.weight <= n)",
     ["tests/test_span_properties.py::test_left_normed_spans_match_all_pairs",
      "tests/test_span_properties.py::test_ce_h1_matches_presentation_h1[Q]",
      "tests/test_span_properties.py::test_ce_h1_matches_presentation_h1[F7]"]),
    # generated spans: V_n extends the kept derived span in place (the
    # Leibniz check reads only V_n, so for it this mutant is equivalent)
    (PRESENTED,
     "self.derived(n).copy().extend(",
     "self.derived(n).extend(",
     ["tests/test_presented.py::test_infer_presentation_abelian_slice",
      "tests/test_presented.py::test_infer_presentation_section6",
      "tests/test_presented.py::test_h2_hopf"]),
    # generated spans: the seeds left out of V_n
    (PRESENTED,
     ".extend(self.seeds(n))",
     ".extend([])",
     ["tests/test_graphalg.py::test_leibniz_violation_on_dependent_generators",
      "tests/test_presented.py::test_engine_matches_ideal_route",
      "tests/test_presented.py::test_infer_presentation_abelian_slice"]),
    # infer: the kernel step starts from 0, not from [I,F]_n
    (PRESENTED,
     "ech = ideal.derived(n).copy()",
     "ech = Echelon(field)",
     ["tests/test_span_properties.py::test_inferred_presentations_are_minimal[Q]",
      "tests/test_span_properties.py::test_inferred_presentations_are_minimal[F7]",
      "tests/test_golden.py::test_golden_reports_byte_identical"]),
    # CE differential: the (-1)^{s+t} sign dropped
    (HOMOLOGY,
     "signs[(s + t) % 2]",
     "signs[0]",
     ["tests/test_homology.py::test_d_squared_zero",
      "tests/test_span_properties.py::test_ce_differential_matches_oracle[Q]"]),
    # induced modules: every stored residue with the wrong sign
    (ENVELOPE,
     "qindex[c]: field.neg(x)",
     "qindex[c]: x",
     ["tests/test_span_properties.py::test_projections_match_product_span_oracle[Q]",
      "tests/test_span_properties.py::test_projections_match_product_span_oracle[F7]"]),
    # induced modules: a right-ideal row written as a concatenation exactly
    # when the product is not in PBW order
    (ENVELOPE,
     "if g_mono and env.ordered(g_mono, u_mono):",
     "if g_mono and not env.ordered(g_mono, u_mono):",
     ["tests/test_span_properties.py::test_projections_match_product_span_oracle[F7]",
      "tests/test_graphalg.py::test_theorem_a_amalgam_path"]),
    # PBW: a product taken as ordered when m1 ends below m2's last key
    (ENVELOPE,
     "m1[-1] <= m2[0]",
     "m1[-1] <= m2[-1]",
     ["tests/test_envelope.py::test_mult_mono_matches_key_by_key_products[Q-mn.lie]",
      "tests/test_envelope.py::test_mult_mono_matches_key_by_key_products[F7-mix.graph]"]),
    # Echelon.add keeps a stale primitive-row cache
    ("src/gradedlie/linalg.py",
     "        self._prim = self._canon = None\n        return p",
     "        self._canon = None\n        return p",
     ["tests/test_linalg.py::test_interleaved_echelon_against_oracle[Q]",
      "tests/test_linalg.py::test_interleaved_echelon_against_oracle[F7]"]),
    # Echelon.of adds longest first
    ("src/gradedlie/linalg.py",
     "sorted(vectors, key=len)",
     "sorted(vectors, key=len, reverse=True)",
     ["tests/test_presented.py::test_engine_rows_and_table_pinned[mn.lie-Q]",
      "tests/test_presented.py::test_engine_rows_and_table_pinned[mn-twisted.lie-Fp:7]"]),
    # Echelon.copy shares the stored rows with the original
    ("src/gradedlie/linalg.py",
     "ech._rows = dict(self._rows)",
     "ech._rows = self._rows",
     ["tests/test_linalg.py::test_adding_to_a_copy_leaves_the_original_unchanged[Q]",
      "tests/test_linalg.py::test_adding_to_a_copy_leaves_the_original_unchanged[F7]"]),
    # RAAG exactness: r_j <= d_j in place of the rank equality
    (RAAG,
     "ok = r_j + r_j1 == d_j",
     "ok = r_j <= d_j",
     ["tests/test_raag.py::test_exactness_check_detects_a_dropped_sign"]),
    # RAAG exactness: only the complex inequality, not exactness
    (RAAG,
     "ok = r_j + r_j1 == d_j",
     "ok = r_j + r_j1 <= d_j",
     ["tests/test_raag.py::test_exactness_check_detects_a_complex_that_is_not_exact"]),
    # RAAG certificate: d o d = 0 not checked, so a complex with the right
    # supports but a dropped sign passes for exact
    (RAAG,
     "if lower is not None:  # d_{j-1} d_j = 0 on this row",
     "if False:  # d_{j-1} d_j = 0 on this row",
     ["tests/test_raag.py::test_exactness_check_detects_a_dropped_sign"]),
    # RAAG certificate: the closure L_j + L_{j+1} = dim P_j loosened to <=,
    # so lowest-column counts below the ranks are reported as ranks
    (RAAG,
     "bounds[j] + bounds[j + 1] == d",
     "bounds[j] + bounds[j + 1] <= d",
     ["tests/test_raag.py::test_exactness_check_eliminates_where_lowest_columns_undercount"]),
    # trace tables: (a,) + t taken as a normal form whenever Min(t) & C(a)
    # is empty, not only its part below a
    (RAAG,
     "self._before = [c & ((1 << a) - 1) for",
     "self._before = [c for",
     ["tests/test_raag.py::test_trace_tables_match_normal_forms",
      "tests/test_raag.py::test_trace_tables_match_normal_forms_to_weight_7[C5]"]),
    # trace tables: a letter of Min(t) below a moved out of a t even when
    # it does not commute with a
    (RAAG,
     "low = mask & b\n",
     "low = mask & ((1 << a) - 1)\n",
     ["tests/test_raag.py::test_trace_tables_match_normal_forms",
      "tests/test_raag.py::test_trace_tables_match_normal_forms_to_weight_7[diamond]"]),
    # trace tables: t[1:] taken for every dropped minimal letter
    (RAAG,
     "drop[m][i] = j if m == a else up[a][down[m][j]]",
     "drop[m][i] = j",
     ["tests/test_raag.py::test_trace_tables_match_normal_forms",
      "tests/test_raag.py::test_trace_tables_match_normal_forms_to_weight_7[C4]"]),
    # command line: the --max-degree default moved
    (CLI,
     '"--max-degree": ("count", 8, ""),',
     '"--max-degree": ("count", 7, ""),',
     [CHOSEN + "[default-bounds]",
      "tests/test_golden.py::test_golden_reports_byte_identical"]),
    # command line: --opt=value keeps the "=" in the value
    (CLI,
     "    value = value if eq else None\n",
     "    value = eq + value if eq else None\n",
     [CHOSEN + "[prefixes-and-eq-forms]",
      "tests/test_cli_parser.py::test_corpus_and_workload_lines_parse_as_before"]),
    # command line: an ambiguous prefix names its first match
    (CLI,
     "        if len(hits) > 1:\n",
     "        if len(hits) > 2:\n",
     [CHOSEN + "[ambiguous-prefix]",
      CHOSEN + "[ambiguous-prefix-after-command]"]),
    # command line: a repeated --gen replaces the earlier ones
    (CLI,
     "            value = values.get(dest, []) + [value]\n",
     "            value = [value]\n",
     [CHOSEN + "[repeated-gen]",
      "tests/test_cli_parser.py::test_corpus_and_workload_lines_parse_as_before"]),
    # exit codes: an unreadable input or --out file taken for a bug
    (CLI,
     "except (InputError, OSError) as exc:",
     "except InputError as exc:",
     ["tests/test_cli.py::test_input_errors"]),
    # input files: an error in a file's content names no file
    (FIELDS,
     'exc.args = (f"{path}: {exc}",)',
     "exc.args = exc.args",
     ["tests/test_cli.py::test_input_errors",
      "tests/test_cli.py::test_bad_graph_and_presentation_input_exits_2[edge-declared-twice]"]),
    # graph files: a vertex declared twice, the second one kept
    (GRAPHALG,
     "if parts[1] in vertices:",
     "if False:",
     ["tests/test_cli.py::test_bad_graph_and_presentation_input_exits_2[vertex-declared-twice]"]),
    # graph files: map and der lines of an undeclared edge dropped silently
    (GRAPHALG,
     "if undeclared:",
     "if False:",
     ["tests/test_cli.py::test_map_and_der_lines_need_a_declared_edge"]),
    # section 6: only the brackets [e_i, e_j] with i < j in the tensor
    (EXAMPLE6,
     "for j in range(d1) if i != j}",
     "for j in range(d1) if i < j}",
     ["tests/test_example6.py::test_fingerprints_frozen",
      "tests/test_example6.py::test_fingerprint_matches_enumeration_oracle"]),
    # reports: a value that was not computed formatted as a count list, so
    # a failed tower rebuild or embedding check exits 3 instead of 1
    (CLI,
     "return None if values is None else [str(int(v)) for v in values]",
     "return [str(int(v)) for v in values]",
     ["tests/test_cli.py::test_failed_tower_rebuild_exits_1_with_nulls",
      "tests/test_cli.py::test_graph_verify_checks_embeddings_to_explicit_weight"]),
    # Theorem A: exactness in the middle without beta o alpha = 0
    (GRAPHALG,
     '"exact_middle": composite_zero and rank_alpha + rank_beta == mid_dim',
     '"exact_middle": rank_alpha + rank_beta == mid_dim',
     ["tests/test_graphalg.py::test_theorem_a_exact_middle_needs_beta_alpha_zero"]),
    # one-relator towers: the verdict ignores the exponents' minimality
    (ONERELATOR,
     'and lr["leibniz"] and lr["j_minimal"]',
     'and lr["leibniz"]',
     ["tests/test_onerelator.py::test_tower_is_not_ok_when_an_exponent_is_not_minimal"]),
    # one-relator towers: the verdict ignores the layer derivations' Leibniz law
    (ONERELATOR,
     'lr["freiheitssatz"] and lr["leibniz"] and',
     'lr["freiheitssatz"] and',
     ["tests/test_onerelator.py::test_tower_is_not_ok_when_a_layer_check_fails[leibniz]"]),
    # one-relator towers: the verdict ignores the Freiheitssatz
    (ONERELATOR,
     'lr["associated_free"] and lr["freiheitssatz"]',
     'lr["associated_free"]',
     ["tests/test_onerelator.py::test_tower_is_not_ok_when_a_layer_check_fails[freiheitssatz]"]),
    # one-relator towers: the verdict ignores the associated subalgebras' freeness
    (ONERELATOR,
     'lr["associated_free"] and lr',
     'lr',
     ["tests/test_onerelator.py::test_tower_is_not_ok_when_a_layer_check_fails"
      "[associated_free]"]),
    # fields: a composite that passes trial division taken for a prime when
    # Miller-Rabin finds a witness
    (FIELDS,
     "            return False\n    return True",
     "            pass\n    return True",
     ["tests/test_cli.py::test_bad_input_exits_2[field-square-of-a-prime]"]),
    # graph maps: a generator image of another weight, or 0, accepted
    (GRAPHALG,
     "if img.weight() != g.weight:",
     "if False:",
     ["tests/test_graphalg.py::test_hom_validation",
      "tests/test_cli.py::test_bad_graph_and_presentation_input_exits_2[map-image-zero]"]),
    # RAAG resolution: the verdict ignores the Euler identity
    (RAAG,
     '"ok": not failures and euler_ok,',
     '"ok": not failures,',
     ["tests/test_raag.py::test_resolution_is_not_ok_when_the_euler_identity_fails"]),
    # freeness: inconclusive at the top relator weight itself
    (PRESENTED,
     '"free-witnessed" if max_rel <= N else',
     '"free-witnessed" if max_rel < N else',
     ["tests/test_presented.py::test_is_free_up_to",
      "tests/test_cli.py::test_onerelator_base_checked_past_max_degree"]),
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run(entry) -> tuple[str, str]:
    """(verdict, detail) of one entry: caught, survived or stale."""
    path, old, new, tests = entry
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        text = fh.read()
    if text.count(old) != 1:
        return "stale", f"old text occurs {text.count(old)} times"
    with tempfile.TemporaryDirectory() as tmp:
        for top in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, top), os.path.join(tmp, top),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        with open(os.path.join(tmp, path), "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return "caught", f"timed out after {TIMEOUT_S} s"
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M))
    if proc.returncode not in (0, 1):
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        return "stale", f"pytest exit {proc.returncode}: " + " | ".join(tail)
    passed = [t for t in tests if t not in failed]
    if passed:
        return "survived", "passed: " + ", ".join(passed)
    return "caught", f"{len(tests)} failed"


def main() -> int:
    start = time.perf_counter()
    bad = 0
    for entry in MUTANTS:
        verdict, detail = run(entry)
        bad += verdict != "caught"
        print(f"{verdict:8} {entry[0]}: {entry[1].strip()!r} -> {entry[2].strip()!r} ({detail})",
              flush=True)
    print(f"{len(MUTANTS) - bad}/{len(MUTANTS)} caught in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
