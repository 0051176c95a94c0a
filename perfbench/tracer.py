"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps the public functions of each layer of
``mclift`` in place.  A wrapped call records a span ``[name id, start,
end, parent, bookkeeping]``; spans stay in memory and the job process
writes them out when it exits.  ``aggregate()`` turns the spans of a run into calls,
inclusive time and self time per name.

A function is replaced in its defining module *and* in every ``mclift``
module that bound it with ``from .x import name``; otherwise calls through
the alias (``cyclic`` calling ``solve``, say) would not be recorded.
Class members are patched on the class.

Counters that need the arguments or the result (matrix sizes, distinct
inputs, coefficient bit lengths) are taken after the span ends; the time
they take is recorded as the span's ``bookkeeping`` and excluded from
its parent's self time.
"""

import functools
import importlib
import sys
import time

LAYERS = ("linalg", "dg", "hochschild", "cyclic", "operads", "trees", "lifting", "cli")

# (module, attribute path, span name).  Span names start with the layer.
TARGETS = [
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "homology_dim", "linalg.homology_dim"),
    ("linalg", "QMatrix.__matmul__", "linalg.matmul"),
    ("dg", "DGModule.__init__", "dg.DGModule.init"),
    ("dg", "cone", "dg.cone"),
    ("hochschild", "hochschild_cohomology", "hochschild.hochschild_cohomology"),
    ("hochschild", "Algebra.unit_first_basis", "hochschild.unit_first_basis"),
    ("hochschild", "Algebra.change_basis", "hochschild.change_basis"),
    ("cyclic", "algebra_cocyclic_module", "cyclic.algebra_cocyclic_module"),
    ("cyclic", "lambda_complex", "cyclic.lambda_complex"),
    ("cyclic", "hc_dims_lambda", "cyclic.hc_dims_lambda"),
    ("cyclic", "hc_dims_bb", "cyclic.hc_dims_bb"),
    ("cyclic", "BBTotal.__init__", "cyclic.BBTotal.init"),
    ("cyclic", "BBTotal.d", "cyclic.BBTotal.d"),
    ("cyclic", "periodicity_S_matrix", "cyclic.periodicity_S_matrix"),
    ("cyclic", "hc_class_rank_through", "cyclic.hc_class_rank_through"),
    ("cyclic", "localize_c1", "cyclic.localize_c1"),
    ("cyclic", "omega_map", "cyclic.omega_map"),
    ("cyclic", "deformation_complex", "cyclic.deformation_complex"),
    ("operads", "mc_operad", "operads.mc_operad"),
    ("operads", "check_operad_map", "operads.check_operad_map"),
    ("operads", "derivation_complex", "operads.derivation_complex"),
    ("operads", "evaluate_key_with_values", "operads.evaluate_key_with_values"),
    ("operads", "FreeOperad.nc_basis", "operads.FreeOperad.nc_basis"),
    ("trees", "enumerate_trees", "trees.enumerate_trees"),
    ("trees", "parse_tree", "trees.parse_tree"),
    ("lifting", "lift", "lifting.lift"),
    ("lifting", "solve_step", "lifting.solve_step"),
    ("lifting", "residuals_at_weight", "lifting.residuals_at_weight"),
    ("lifting", "defect", "lifting.defect"),
    ("lifting", "verify_cocycle", "lifting.verify_cocycle"),
    ("cli", "cmd_hh", "cli.hh"),
    ("cli", "cmd_hc", "cli.hc"),
    ("cli", "cmd_defcomplex", "cli.defcomplex"),
    ("cli", "cmd_lift", "cli.lift"),
    ("cli", "cmd_trees", "cli.trees"),
    ("cli", "cmd_operad_dims", "cli.operad_dims"),
    ("cli", "_load_algebra_arg", "cli.load"),
    ("cli", "load_problem", "cli.load"),
    ("cli", "_emit", "cli.emit"),
]


def _max_bits(R):
    bits = 0
    for v in R.entries.values():
        bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
    return bits


def _count_rref(counts, args, result):
    M, (R, _pivots, _rank) = args[0], result
    counts["cells_in"] += M.rows * M.cols
    counts["nnz_in"] += len(M.entries)
    counts["nnz_out"] += len(R.entries)
    counts["max_bits"] = max(counts["max_bits"], _max_bits(R))
    counts.setdefault("inputs", set()).add(hash(M))


def _count_solve(counts, args, result):
    counts["none"] += result is None


def _count_derivation_complex(counts, args, result):
    counts["columns"] += sum(len(v) for v in result[1].values())


def _count_enumerate(counts, args, result):
    counts["trees_out"] += len(result)


def _count_parse(counts, args, result):
    counts.setdefault("inputs", set()).add(args[0])


COUNTERS = {
    "linalg.rref": _count_rref,
    "linalg.solve": _count_solve,
    "operads.derivation_complex": _count_derivation_complex,
    "trees.enumerate_trees": _count_enumerate,
    "trees.parse_tree": _count_parse,
}


class Tracer:
    """Spans and counters of one job process."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.counts = {}
        self.missing = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        counts = self.counts.setdefault(name, _Counts())
        if name not in self.names:
            self.names.append(name)
        ident = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [ident, clock(), 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counter is not None:
                counter(counts, args, result)
                span[4] = clock() - span[2]
            return result

        return traced

    def install(self):
        """Patch every target in place; names not found go to ``missing``."""
        modules = {m: importlib.import_module("mclift." + m) for m in LAYERS}
        loaded = [mod for key, mod in sys.modules.items()
                  if key.startswith("mclift.") and mod is not None]
        for module, path, name in TARGETS:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self):
        """JSON-ready spans and counters."""
        counts = {}
        for name, c in self.counts.items():
            c = dict(c)
            if "inputs" in c:
                c["distinct"] = len(c.pop("inputs"))
            counts[name] = c
        return {"names": self.names, "spans": self.spans, "counts": counts,
                "missing": self.missing}


class _Counts(dict):
    def __missing__(self, key):
        return 0


def aggregate(traces):
    """Calls, inclusive seconds, self seconds and counters per span name,
    summed over the traces of many jobs."""
    out = {}
    for trace in traces:
        names, spans = trace["names"], trace["spans"]
        child_s = [0.0] * len(spans)
        for _ident, start, end, parent, book in spans:
            if parent >= 0:
                child_s[parent] += end - start + book
        for i, (ident, start, end, parent, _book) in enumerate(spans):
            entry = out.setdefault(names[ident], {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - child_s[i]
            # A recursive name adds its inclusive time once, at the outermost span.
            if not _has_ancestor(spans, parent, ident):
                entry["s"] += end - start
        for name, counts in trace["counts"].items():
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in counts.items():
                if key == "max_bits":
                    entry[key] = max(entry.get(key, 0), value)
                else:
                    entry[key] = entry.get(key, 0) + value
    return out


def _has_ancestor(spans, parent, ident):
    while parent >= 0:
        if spans[parent][0] == ident:
            return True
        parent = spans[parent][3]
    return False
