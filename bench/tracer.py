"""Spans and counters around gradedlie's layers, installed from outside.

The tracer wraps selected functions and methods of each gradedlie module
(the table WRAPS below) so that every call records a span: layer name,
start, end and parent span.  A layer's self time is the time its spans
cover minus the time covered by their child spans.  Counters sit at the
same boundaries (rows handed to an echelon by the engine, bracket calls,
axpy terms inside the elimination kernel, ...).  Nothing inside the
package is edited; the wrappers replace attributes after import.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

# (module, attribute path, layer).  Module-level functions are also
# replaced wherever another gradedlie module imported them by name.
WRAPS = [
    ("freelie", "LieElement.bracket", "freelie"),
    ("freelie", "FreeLieAlgebra.parse", "freelie"),
    ("freelie", "FreeLieAlgebra.coordinates", "freelie"),
    ("freelie", "FreeLieAlgebra.element_from_coordinates", "freelie"),
    ("linalg", "Echelon.add", "linalg.echelon"),
    ("linalg", "Echelon.reduce", "linalg.echelon"),
    ("linalg", "Echelon.express", "linalg.echelon"),
    ("linalg", "SparseMatrix.rank", "linalg.rank"),
    ("linalg", "SparseMatrix.kernel", "linalg.rank"),
    ("linalg", "ColumnSolver.__init__", "linalg.solver"),
    ("linalg", "ColumnSolver.solve", "linalg.solver"),
    ("presented", "GradedEngine._build", "presented.engine"),
    ("presented", "GradedEngine.commutator_rank", "presented.engine"),
    ("presented", "_IdealSpans.ideal", "presented.ideal"),
    ("presented", "_IdealSpans.bracket_ideal", "presented.ideal"),
    ("presented", "_IdealSpansForList.ideal", "presented.ideal"),
    ("presented", "GradedSubalgebra._build_to", "presented.subalgebra"),
    ("presented", "infer_presentation", "presented.subalgebra"),
    ("homology", "homology_table", "homology"),
    ("homology", "ChainComplex.chains", "homology"),
    ("homology", "ChainComplex.differential", "homology"),
    ("envelope", "Envelope.pbw_basis", "envelope.pbw"),
    ("envelope", "Envelope.mult", "envelope.pbw"),
    ("envelope", "InducedModule._build", "envelope.induced"),
    ("envelope", "InducedModule.project", "envelope.induced"),
    ("envelope", "InducedModule.right_action", "envelope.induced"),
    ("graphalg", "verify_theorem_a", "graphalg"),
    ("graphalg", "GraphOfLieAlgebras.fundamental", "graphalg"),
    ("graphalg", "LieHomomorphism.injectivity_failure", "graphalg"),
    ("graphalg", "LieHomomorphism.validate_relators", "graphalg"),
    ("graphalg", "LieDerivation.validate_leibniz", "graphalg"),
    ("graphalg", "hnn", "graphalg"),
    ("raag", "verify_resolution", "raag"),
    ("raag", "raag_presentation", "raag"),
    ("raag", "RaagResolution.verify_exactness", "raag"),
    ("raag", "RaagResolution.euler_identity", "raag"),
    ("onerelator", "decompose", "onerelator"),
    ("onerelator", "verify_tower", "onerelator"),
    ("onerelator", "rebuild", "onerelator"),
    ("onerelator", "freiheitssatz_check", "onerelator"),
    ("example6", "full_report", "example6"),
    ("example6", "build_s", "example6"),
    ("example6", "not_free_product_witness", "example6"),
    ("example6", "distinguish_quotients", "example6"),
    ("example6", "not_raag_witness", "example6"),
    ("example6", "fingerprint", "example6"),
    ("example6", "change_field", "example6"),
]

LAYERS = sorted({layer for _, _, layer in WRAPS})


def rebind(old, new):
    """Replace every module-level reference to `old` in gradedlie with `new`,
    including the names other modules imported with `from ... import`."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("gradedlie"):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.engine_weight: dict[int, int] = {}  # engine span -> weight
        self.engine_by_weight: dict[int, list] = defaultdict(lambda: [0, 0])

    # -- spans ---------------------------------------------------------

    def _open(self, layer: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [layer, time.perf_counter(), 0.0, parent]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _parent_layer(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def _wrap(self, fn, layer: str):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    # -- installation --------------------------------------------------

    def install(self):
        import importlib

        mods = {}
        for name, _, _ in WRAPS:
            mods[name] = importlib.import_module(f"gradedlie.{name}")
        importlib.import_module("gradedlie.cli")
        for modname, path, layer in WRAPS:
            mod = mods[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, attr, self._special(path, cls.__dict__[attr], layer))
            else:
                fn = getattr(mod, path)
                rebind(fn, self._wrap(fn, layer))
        linalg = mods["linalg"]
        axpy = linalg.vec_axpy
        counts = self.counts

        def counted_axpy(field, out, a, v):
            counts["linalg.axpy_terms"] += len(v)
            return axpy(field, out, a, v)

        # only the kernel's own calls (Echelon, ColumnSolver, SparseMatrix)
        # go through the module global; other modules keep their binding
        linalg.vec_axpy = counted_axpy

    def _special(self, path: str, fn, layer: str):
        """Wrapper for `path`, with the counters that belong to it."""
        tracer = self
        counts = self.counts
        if path == "Echelon.add":

            def add(ech, vec):
                parent = tracer._parent_layer()
                rec = tracer._open(layer)
                try:
                    pivot = fn(ech, vec)
                finally:
                    tracer._close(rec)
                counts["linalg.echelon_adds"] += 1
                weight = tracer.engine_weight.get(tracer.stack[-1]) if tracer.stack else None
                if weight is not None:  # a constraint row of an engine build
                    cell = tracer.engine_by_weight[weight]
                    cell[0] += 1
                    cell[1] += pivot is not None
                if weight is not None or parent == "presented.ideal":
                    counts[parent + ".rows"] += 1
                    counts[parent + ".rank"] += pivot is not None
                return pivot

            return add
        if path == "GradedEngine._build":

            def build(engine, n):
                rec = tracer._open(layer)
                tracer.engine_weight[tracer.stack[-1]] = n
                try:
                    return fn(engine, n)
                finally:
                    tracer._close(rec)

            return build
        wrapped = self._wrap(fn, layer)
        if path == "LieElement.bracket":
            counter = "freelie.bracket_calls"
        elif path == "ColumnSolver.solve":
            counter = "linalg.solves"
        elif path == "ChainComplex.chains":
            return self._first_call_size(wrapped, "homology.chains")
        elif path == "Envelope.pbw_basis":
            return self._first_call_size(wrapped, "envelope.pbw_monomials")
        else:
            return wrapped

        def counting(*args, **kwargs):
            counts[counter] += 1
            return wrapped(*args, **kwargs)

        return counting

    def _first_call_size(self, wrapped, counter: str):
        """Count the length of the result once per object and arguments,
        as the memoized lists are built once per object and arguments."""
        seen = weakref.WeakKeyDictionary()  # object -> argument tuples seen
        counts = self.counts

        def sized(obj, *args):
            out = wrapped(obj, *args)
            done = seen.setdefault(obj, set())
            if args not in done:
                done.add(args)
                counts[counter] += len(out)
            return out

        return sized

    # -- output --------------------------------------------------------

    def summary(self) -> dict:
        """Self time per layer and every counter, for this process."""
        self_s: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            layer, start, end, parent = rec
            self_s[layer] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        return {
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
            "counts": dict(self.counts),
            "engine_by_weight": {str(n): c for n, c in sorted(self.engine_by_weight.items())},
        }
