"""Per-layer tracer for the subext engine, applied from outside the program.

`Tracer.install()` replaces the public entry points of each engine module
with wrappers, at every place the name is bound: the defining module, every
other `subext` module that imported it with `from .x import y`, and class
attributes such as `Subquotient.__init__` or `NumFn.__call__`.  Each wrapper
records a span (name, start, end, parent span) in flat in-memory arrays and
folds its time into per-name self-time totals as it closes: a span's self
time is its duration minus the time its child spans cover.

`Scalar.__init__` is counted but gets no span, so memory stays bounded when
a run builds millions of scalars.  For a few functions the tracer also
records whether the argument objects were passed to that function before
(`repeat_ratio`); it keys arguments by identity and keeps a reference to
each key object, so an id cannot be reused within a run.

Layer names are the engine module names.  Nothing under `src/` is changed.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

LAYERS = ("dcoeff", "rings", "modules", "ext", "subfun", "ulrich", "scenarios")

# Module-level entry points per layer.  The polynomial helpers of dcoeff
# (padd, pmul, pgcd, ...) are scalar internals: they are measured through
# the Scalar construction count instead of spans.
FUNCTIONS = {
    "dcoeff": ("smith", "kernel", "solve", "solve_matrix", "in_span",
               "cokernel_invariants", "hstack", "vstack"),
    "rings": ("semigroup_closure", "frobenius_number", "semigroup_gaps",
              "is_symmetric_semigroup", "pseudo_frobenius", "apery_set",
              "minimal_semigroup_gens", "build_ring", "colon", "trace_ideal",
              "principal_reduction", "valuation_triangular_basis",
              "value_semigroup", "blow_up", "canonical_ideal", "m_ideal",
              "ring_invariants"),
    "modules": ("normalize_rows", "solve_like", "free_module",
                "regular_module", "zero_module", "residue_field",
                "subquotient_module", "submodule", "quotient_module",
                "from_quotient_ideal", "from_fractional_ideal", "direct_sum",
                "canonical_module", "validate_module", "mu", "length", "nu",
                "tensor_length_with_quotient", "socle", "torsion_part",
                "annihilator", "loewy_length", "colon_in_module", "is_mcm",
                "depth01", "hom", "dualize_omega", "minimal_presentation",
                "resolution", "assert_minimal", "syzygy", "transpose",
                "is_surjective", "is_isomorphic"),
    "ext": ("split_sequence", "direct_sum_seq", "ext", "ext_length", "middle",
            "classify", "is_split", "pushout_seq", "pullback_seq",
            "baer_sum_by_construction", "scalar_by_pushout",
            "scalar_by_pullback", "enumerate_classes", "group_order",
            "chain_lift", "ext_induced", "hom_induced", "connecting_map",
            "six_term_check", "tor1_length"),
    "subfun": ("tensor_length", "tor_multiplicity", "fn_mu", "fn_colength",
               "fn_hom_from", "fn_hom_to", "fn_tensor", "fn_tor_mult",
               "is_additive_on", "exactness_on", "half_exact_agreement",
               "submodule_members", "ext1_subfunctor", "ext1_additive",
               "ext1_ulrich", "ideal_times_ext", "member_coords",
               "check_closure_axioms", "default_pairs"),
    "ulrich": ("multiplicity_hilbert", "multiplicity_reduction",
               "multiplicity", "phi", "is_ulrich", "ulrich_samples",
               "restrict_to_blowup", "restrict_to_base",
               "blowup_sequence_comparison", "in_add",
               "mcm_approximation_of_k"),
    "scenarios": ("list_scenarios", "run_scenario", "render_report"),
}

# Public methods that are entry points of their layer.
METHODS = {
    "dcoeff": {"Mat": ("__matmul__", "__add__", "__sub__", "__neg__", "scale",
                       "transpose"),
               "Subquotient": ("__init__", "contains", "project", "lift")},
    "rings": {"FracIdeal": ("span", "span_basis", "contains_element",
                            "contains_ideal", "__eq__", "__add__", "__mul__",
                            "power", "reduce_gens", "as_ring_ideal",
                            "quotient_length", "length_over",
                            "min_gen_count"),
              "RingElement": ("mult_matrix", "__mul__", "__add__",
                              "__sub__")},
    "modules": {"CoeffModule": ("element_action",),
                "ModMap": ("is_r_linear",)},
    "ext": {"SES": ("certify",), "ExtClass": ("scale", "cocycle")},
    "subfun": {"NumFn": ("__call__",)},
}

# Metric groups: metric prefix -> span keys ("layer.qualname").
GROUPS = {
    "dcoeff.smith": ("dcoeff.smith",),
    "dcoeff.subquotient": ("dcoeff.Subquotient.__init__",),
    "rings.principal_reduction": ("rings.principal_reduction",),
    "rings.blow_up": ("rings.blow_up",),
    "modules.resolution": ("modules.resolution",),
    "modules.hom": ("modules.hom",),
    "modules.invariant": ("modules.mu", "modules.nu", "modules.length"),
    "ext.ext": ("ext.ext",),
    "ext.middle": ("ext.middle",),
    "ext.classify": ("ext.classify",),
    "ext.construct": ("ext.pushout_seq", "ext.pullback_seq",
                      "ext.baer_sum_by_construction"),
    "subfun.numfn": ("subfun.NumFn.__call__",),
    "subfun.certify": ("subfun.submodule_members",),
    "ulrich.is_ulrich": ("ulrich.is_ulrich",),
    "ulrich.multiplicity": ("ulrich.multiplicity",
                            "ulrich.multiplicity_reduction"),
    "ulrich.hilbert": ("ulrich.multiplicity_hilbert",),
}

# Span keys whose argument objects are checked for reuse.
REPEAT_TRACKED = ("ext.ext", "ext.middle", "rings.principal_reduction",
                  "subfun.NumFn.__call__", "ulrich.is_ulrich")

# The per-layer metrics a traced run reports, in order, with units.
PER_LAYER = (
    ("dcoeff.self_s", "s"), ("dcoeff.scalar.new", "count"),
    ("dcoeff.scalar.den1_frac", "ratio"), ("dcoeff.smith.calls", "count"),
    ("dcoeff.smith.cells", "count"), ("dcoeff.smith.self_s", "s"),
    ("dcoeff.subquotient.calls", "count"),
    ("dcoeff.subquotient.self_s", "s"),
    ("rings.self_s", "s"), ("rings.principal_reduction.calls", "count"),
    ("rings.principal_reduction.repeat_ratio", "ratio"),
    ("rings.blow_up.calls", "count"),
    ("modules.self_s", "s"), ("modules.resolution.calls", "count"),
    ("modules.hom.calls", "count"), ("modules.hom.self_s", "s"),
    ("modules.invariant.calls", "count"),
    ("ext.self_s", "s"), ("ext.ext.calls", "count"),
    ("ext.ext.repeat_ratio", "ratio"), ("ext.classes", "count"),
    ("ext.middle.calls", "count"), ("ext.middle.repeat_ratio", "ratio"),
    ("ext.middle.self_s", "s"), ("ext.classify.calls", "count"),
    ("ext.classify.self_s", "s"), ("ext.construct.calls", "count"),
    ("ext.construct.self_s", "s"),
    ("subfun.self_s", "s"), ("subfun.numfn.calls", "count"),
    ("subfun.numfn.repeat_ratio", "ratio"), ("subfun.certify.self_s", "s"),
    ("ulrich.self_s", "s"), ("ulrich.is_ulrich.calls", "count"),
    ("ulrich.is_ulrich.repeat_ratio", "ratio"),
    ("ulrich.multiplicity.self_s", "s"), ("ulrich.hilbert.self_s", "s"),
    ("scenarios.self_s", "s"),
    ("trace.overhead_frac", "ratio"), ("trace.spans", "count"),
)


class Tracer:
    """Spans, call counts and argument-reuse counts for one process."""

    def __init__(self):
        self.keys = []              # span key per name index
        self._index = {}
        self.calls = []             # per name index
        self.self_time = []         # per name index, seconds
        self.repeats = {}           # name index -> repeated calls
        self._seen = {}             # name index -> set of argument keys
        self._keep = []             # key objects, so ids stay unique
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []            # [span id, time covered by children]
        self.scalar_new = 0
        self.scalar_den1 = 0
        self.smith_cells = 0
        self.classes = 0
        self.sites = {}             # span key -> number of bindings patched

    # -- installation --------------------------------------------------------

    def install(self):
        import subext.scenarios  # noqa: F401  (loads every engine module)
        mods = [m for name, m in sorted(sys.modules.items())
                if (name == "subext" or name.startswith("subext."))
                and m is not None]
        for layer, names in FUNCTIONS.items():
            home = sys.modules["subext." + layer]
            for name in names:
                orig = getattr(home, name)
                key = f"{layer}.{name}"
                wrapper = self._wrap(orig, key)
                self.sites[key] = 0
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self.sites[key] += 1
        for layer, classes in METHODS.items():
            home = sys.modules["subext." + layer]
            for cname, meths in classes.items():
                cls = getattr(home, cname)
                for meth in meths:
                    key = f"{layer}.{cname}.{meth}"
                    setattr(cls, meth, self._wrap(cls.__dict__[meth], key))
                    self.sites[key] = 1
        self._count_scalars(sys.modules["subext.dcoeff"].Scalar)
        return self

    def _name(self, key):
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = len(self.keys)
            self.keys.append(key)
            self.calls.append(0)
            self.self_time.append(0.0)
        return idx

    def _count_scalars(self, scalar_cls):
        orig = scalar_cls.__dict__["__init__"]
        tr = self

        def __init__(obj, base, num, den=(1,), _normalized=False):
            tr.scalar_new += 1
            if den == (1,):
                tr.scalar_den1 += 1
            orig(obj, base, num, den, _normalized)

        scalar_cls.__init__ = __init__

    def _wrap(self, fn, key):
        idx = self._name(key)
        tr = self
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_time = self.calls, self.self_time
        tracked = key in REPEAT_TRACKED
        if tracked:
            self._seen[idx] = set()
            self.repeats[idx] = 0
        is_smith = key == "dcoeff.smith"
        is_enum = key == "ext.enumerate_classes"

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if tracked:
                tr._note_args(idx, args, kwargs)
            if is_smith:
                tr.smith_cells += args[0].m * args[0].n
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[sid] = t1
                dur = t1 - t0
                stack.pop()
                self_time[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if is_enum:
                tr.classes += len(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        wrapper.__qualname__ = getattr(fn, "__qualname__", key)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- argument reuse --------------------------------------------------------

    def _arg_key(self, a):
        if a is None or isinstance(a, (bool, int, float, str)):
            return a
        kind = type(a).__name__
        if kind == "ExtClass":
            self._keep.append(a.pres)
            return ("class", id(a.pres), a.coords)
        if kind == "NumFn":
            self._keep.append(a.payload)
            return ("fn", a.kind, id(a.payload))
        self._keep.append(a)
        return ("id", id(a))

    def _note_args(self, idx, args, kwargs):
        key = tuple(self._arg_key(a) for a in args)
        if kwargs:
            key += tuple((k, self._arg_key(v)) for k, v in sorted(kwargs.items()))
        seen = self._seen[idx]
        if key in seen:
            self.repeats[idx] += 1
        else:
            seen.add(key)

    # -- results ---------------------------------------------------------------

    def _group(self, prefix):
        return [self._index[k] for k in GROUPS[prefix] if k in self._index]

    def counts(self):
        """Deterministic counts: calls per span key plus the hook counters."""
        out = {k: self.calls[i] for i, k in enumerate(self.keys) if self.calls[i]}
        out["Scalar.__init__"] = self.scalar_new
        out["Scalar.__init__.den1"] = self.scalar_den1
        out["smith.cells"] = self.smith_cells
        out["enumerate_classes.classes"] = self.classes
        for idx, rep in self.repeats.items():
            out[self.keys[idx] + ".repeats"] = rep
        return out

    def metrics(self):
        """Per-layer metrics except the trace.overhead_frac, which needs an
        untraced run to compare with."""
        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                t for k, t in zip(self.keys, self.self_time)
                if k.split(".", 1)[0] == layer)
        for prefix in GROUPS:
            idxs = self._group(prefix)
            m[f"{prefix}.calls"] = sum(self.calls[i] for i in idxs)
            m[f"{prefix}.self_s"] = sum(self.self_time[i] for i in idxs)
            tracked = [i for i in idxs if i in self.repeats]
            if tracked:
                n = sum(self.calls[i] for i in tracked)
                m[f"{prefix}.repeat_ratio"] = (
                    sum(self.repeats[i] for i in tracked) / n if n else 0.0)
        m["dcoeff.scalar.new"] = self.scalar_new
        m["dcoeff.scalar.den1_frac"] = (self.scalar_den1 / self.scalar_new
                                        if self.scalar_new else 0.0)
        m["dcoeff.smith.cells"] = self.smith_cells
        m["ext.classes"] = self.classes
        m["trace.spans"] = len(self.span_name)
        return m

    def write_spans(self, path):
        """Gzipped CSV, one line per span: id, parent id, span key, start,
        end (seconds on the process's perf_counter clock)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,key,start_s,end_s\n")
            keys = self.keys
            for sid in range(len(self.span_name)):
                fh.write(f"{sid},{self.span_parent[sid]},"
                         f"{keys[self.span_name[sid]]},"
                         f"{self.span_start[sid]:.9f},{self.span_end[sid]:.9f}\n")
