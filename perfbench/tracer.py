"""Layer tracer for the qcrit benchmark, installed from outside the package.

``Tracer.install()`` rebinds the public functions and methods of the five
layers (finite_field, digits, series, theorems, cli) to timing wrappers.
Module-level functions are rebound in every ``qcrit`` module that holds
them, so names that one module imported from another with ``from ...
import`` are wrapped too. ``Tracer.restore()`` puts every original back.
Nothing in the package changes.

Every wrapped call pushes a frame on one stack, so a call's self time is
its duration minus the time of the wrapped calls it made, and the self
times of all calls inside a job add up to the job's duration. Series
operations, theorem suites and the CLI stages also record a span (name,
start, end, parent span, job id and, for series, the field order); the hot
field-element and digit helpers keep only aggregate counters.
"""

from __future__ import annotations

import sys
import time
from functools import wraps

COUNTER, SPAN, GENERATOR = "counter", "span", "generator"

# (owner, attribute, metric name, kind). An owner "module:Class" wraps a
# class attribute; a bare module name wraps the function in every qcrit
# module that holds it. Attributes that do not exist are skipped and listed
# in Tracer.unresolved, and the metrics they feed read 0.
SITES = [
    # finite_field
    ("qcrit.finite_field:FieldElement", "__add__", "finite_field.add", COUNTER),
    ("qcrit.finite_field:FieldElement", "__mul__", "finite_field.mul", COUNTER),
    ("qcrit.finite_field:FieldElement", "inverse", "finite_field.inverse", COUNTER),
    ("qcrit.finite_field:FieldElement", "__pow__", "finite_field.pow", COUNTER),
    ("qcrit.finite_field:FieldElement", "frobenius", "finite_field.frobenius", COUNTER),
    ("qcrit.finite_field:FieldElement", "__neg__", "finite_field.neg", COUNTER),
    ("qcrit.finite_field:FieldElement", "__sub__", "finite_field.sub", COUNTER),
    ("qcrit.finite_field:FieldSpec", "element", "finite_field.element", COUNTER),
    ("qcrit.finite_field:FieldSpec", "from_index", "finite_field.from_index", COUNTER),
    ("qcrit.finite_field:FieldSpec", "subfield_elements",
     "finite_field.subfield_elements", COUNTER),
    ("qcrit.finite_field", "field_make", "finite_field.field_make", COUNTER),
    # digits
    ("qcrit.digits", "admissible_quadruples", "digits.admissible_quadruples", GENERATOR),
    ("qcrit.digits", "admissible_witness", "digits.admissible_witness", COUNTER),
    ("qcrit.digits", "is_admissible", "digits.is_admissible", COUNTER),
    ("qcrit.digits", "lucas_binom", "digits.lucas_binom", COUNTER),
    ("qcrit.digits", "orbit_min", "digits.orbit_min", COUNTER),
    ("qcrit.digits", "orbit_id", "digits.orbit_id", COUNTER),
    ("qcrit.digits", "is_critical", "digits.is_critical", COUNTER),
    ("qcrit.digits", "critical_base_set", "digits.critical_base_set", COUNTER),
    ("qcrit.digits", "p_core", "digits.p_core", COUNTER),
    ("qcrit.digits", "critical_members", "digits.critical_members", COUNTER),
    ("qcrit.digits", "_orbit_min_table", "digits.orbit_min_table", COUNTER),
    ("qcrit.digits", "min_residue", "digits.min_residue", COUNTER),
    ("qcrit.digits", "orbit_residues", "digits.orbit_residues", COUNTER),
    ("qcrit.digits", "coprime_part", "digits.coprime_part", COUNTER),
    ("qcrit.digits", "digital_key", "digits.digital_key", COUNTER),
    ("qcrit.digits", "digital_cmp", "digits.digital_cmp", COUNTER),
    ("qcrit.digits", "ord_p", "digits.ord_p", COUNTER),
    ("qcrit.digits", "p_defect", "digits.p_defect", COUNTER),
    ("qcrit.digits", "to_digits", "digits.to_digits", COUNTER),
    # series
    ("qcrit.series:TruncSeries", "__mul__", "series.mul", SPAN),
    ("qcrit.series:TruncSeries", "inverse_mult", "series.inverse_mult", SPAN),
    ("qcrit.series:TruncSeries", "compose", "series.compose", SPAN),
    ("qcrit.series", "log_deriv", "series.log_deriv", SPAN),
    ("qcrit.series", "solve_log_deriv", "series.solve_log_deriv", SPAN),
    ("qcrit.series:AdditiveSeries", "apply_to", "series.apply_to", SPAN),
    ("qcrit.series", "critical_projection", "series.critical_projection", SPAN),
    ("qcrit.series:AdditiveSeries", "inverse", "series.additive_inverse", SPAN),
    ("qcrit.series", "twisted_orbit_series", "series.twisted_orbit_series", SPAN),
    ("qcrit.series", "artin_hasse", "series.artin_hasse", SPAN),
    ("qcrit.series", "_random_unit", "series.random_unit", SPAN),
    ("qcrit.series", "_critical_set", "series.critical_set", COUNTER),
    ("qcrit.series:TruncSeries", "from_json", "series.from_json", SPAN),
    ("qcrit.series:AdditiveSeries", "from_json", "series.from_json", SPAN),
    ("qcrit.series:TruncSeries", "to_json", "series.to_json", SPAN),
    ("qcrit.series:AdditiveSeries", "to_json", "series.to_json", SPAN),
    ("qcrit.series:TruncSeries", "__add__", "series.add", SPAN),
    ("qcrit.series:TruncSeries", "__sub__", "series.sub", SPAN),
    ("qcrit.series:TruncSeries", "__pow__", "series.pow", SPAN),
    ("qcrit.series:TruncSeries", "scale", "series.scale", SPAN),
    ("qcrit.series:TruncSeries", "scale_arg", "series.scale_arg", SPAN),
    ("qcrit.series:TruncSeries", "agrees", "series.agrees", SPAN),
    ("qcrit.series:TruncSeries", "__eq__", "series.eq", SPAN),
    ("qcrit.series:AdditiveSeries", "compose", "series.additive_compose", SPAN),
    ("qcrit.series:AdditiveSeries", "as_trunc", "series.as_trunc", SPAN),
    ("qcrit.series", "orbit_series", "series.orbit_series", SPAN),
    ("qcrit.series", "critical_projection_formula",
     "series.critical_projection_formula", SPAN),
    ("qcrit.series", "_random_gamma", "series.random_gamma", SPAN),
    # theorems
    ("qcrit.theorems", "verify_equivariance", "theorems.equivariance", SPAN),
    ("qcrit.theorems", "verify_logderiv", "theorems.logderiv", SPAN),
    ("qcrit.theorems", "verify_admissible_order", "theorems.admissible_order", SPAN),
    ("qcrit.theorems", "verify_admissible_witness", "theorems.admissible_witness", SPAN),
    ("qcrit.theorems", "verify_orbit_min", "theorems.orbit_min", SPAN),
    ("qcrit.theorems", "verify_cyclic_digits", "theorems.cyclic_digits", SPAN),
    ("qcrit.theorems", "verify_projection_formula", "theorems.projection", SPAN),
    ("qcrit.theorems", "verify_coleman", "theorems.coleman", SPAN),
    ("qcrit.theorems", "verify_all", "theorems.all", SPAN),
    ("qcrit.theorems", "explore_generators", "theorems.explore", SPAN),
    # cli: handlers are looked up when build_parser runs, so wrapping the
    # module attributes reaches them
    ("qcrit.cli", "build_parser", "cli.parse", SPAN),
    ("qcrit.cli", "_load_json", "cli.load_json", SPAN),
] + [("qcrit.cli", name, "cli.handler", SPAN) for name in (
    "_cmd_criticals", "_cmd_is_critical", "_cmd_mu", "_cmd_core",
    "_cmd_defect", "_cmd_cmp", "_cmd_lucas", "_cmd_admissible",
    "_cmd_witness", "_cmd_verify", "_cmd_explore", "_cmd_series")]

LAYERS = ("finite_field", "digits", "series", "theorems", "cli")

# Module caches that the hit-ratio probes look into, as (module, attribute).
CACHES = [("qcrit.finite_field", "_SPEC_CACHE"),
          ("qcrit.series", "_CRITICAL_CACHE"),
          ("qcrit.series", "_artin_hasse_residues")]

# Metrics reported per layer (all are in BENCHMARK.json's per_layer list).
_CALLS_AND_S = [
    "finite_field.add", "finite_field.mul", "finite_field.inverse",
    "finite_field.pow", "finite_field.frobenius", "finite_field.field_make",
    "digits.admissible_witness", "digits.lucas_binom", "digits.orbit_min",
    "digits.orbit_id", "digits.is_critical", "digits.critical_base_set",
    "digits.is_admissible",
    "series.mul", "series.inverse_mult", "series.log_deriv",
    "series.solve_log_deriv", "series.compose", "series.apply_to",
    "series.critical_projection", "series.additive_inverse",
    "series.twisted_orbit_series", "series.artin_hasse", "series.random_unit",
]
_COEFF_OPS = ["series.mul", "series.inverse_mult", "series.log_deriv",
              "series.solve_log_deriv", "series.compose"]
SUITES = ["equivariance", "logderiv", "admissible_order", "admissible_witness",
          "orbit_min", "cyclic_digits", "projection", "coleman"]


def _qcrit_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qcrit" or name.startswith("qcrit."))]


def _field_order(args) -> int:
    for a in args:
        order = getattr(getattr(a, "spec", a), "order", None)
        if isinstance(order, int):
            return order
    return 0


class Tracer:
    """Wraps qcrit's layers; collects per-name counters and spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}   # extra counts (hits, coeffs, ...)
        self.spans: list[list] = []        # [name, start, end, parent, job, q]
        self._stack: list[list] = [[0.0]]  # frames: [child seconds]
        self._open: list[int] = []         # indices of open spans
        self._job = None
        self._patches: list[tuple] = []    # (owner, attribute, original)
        self.unresolved: list[str] = []    # SITES and CACHES not found

    # -- installing and restoring ----------------------------------------

    def install(self) -> None:
        self.unresolved = [f"{module}.{attr}" for module, attr in CACHES
                           if getattr(sys.modules.get(module), attr, None) is None]
        for owner, attr, name, kind in SITES:
            module, _, cls_name = owner.partition(":")
            holder = sys.modules.get(module)
            if cls_name:
                holder = getattr(holder, cls_name, None)
            if holder is None or attr not in vars(holder):
                self.unresolved.append(f"{owner}.{attr}")
                continue
            if cls_name:
                self._patch(holder, attr, self._wrap_descriptor(
                    vars(holder)[attr], name, kind))
                continue
            original = vars(holder)[attr]
            wrapper = self._wrap(original, name, kind)
            for module in _qcrit_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap_descriptor(self, raw, name, kind):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name, kind))
        return self._wrap(raw, name, kind)

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def _wrap(self, fn, name, kind):
        if kind == GENERATOR:
            return self._wrap_generator(fn, name)
        st = self._stat(name)
        stack = self._stack
        clock = time.perf_counter
        before = self._before_hook(name)
        after = self._after_hook(name)

        if kind == COUNTER:
            @wraps(fn)
            def counter(*args, **kwargs):
                if before is not None:
                    before(args)
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[0]
                    stack[-1][0] += dt
            return counter

        spans, open_spans = self.spans, self._open
        tracer = self
        is_series = name.startswith("series.")
        is_parse = name == "cli.parse"

        @wraps(fn)
        def span(*args, **kwargs):
            q = _field_order(args) if is_series else 0
            sid = len(spans)
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else None,
                      tracer._job, q]
            spans.append(record)
            open_spans.append(sid)
            frame = [0.0]
            stack.append(frame)
            t0 = record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = record[2] = clock()
                dt = t1 - t0
                stack.pop()
                open_spans.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                stack[-1][0] += dt
            if after is not None:
                after(result)
            if is_parse and hasattr(result, "parse_args"):
                result.parse_args = span_of(result.parse_args)
            return result

        def span_of(method):
            return self._wrap(method, "cli.parse", SPAN)
        return span

    def _wrap_generator(self, fn, name):
        st = self._stat(name)
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts
        key = name + ".yielded"

        @wraps(fn)
        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = [0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - frame[0]
                    stack[-1][0] += dt
                counts[key] = counts.get(key, 0) + 1
                yield item
        return generator

    def _before_hook(self, name):
        """Cache probes: count a hit when the key is already cached."""
        counts = self.counts
        if name == "finite_field.field_make":
            cache = getattr(sys.modules["qcrit.finite_field"], "_SPEC_CACHE", None)

            def probe(args):
                modulus = args[2] if len(args) > 2 else None
                key = (*args[:2], tuple(modulus) if modulus is not None else None)
                if cache is not None and key in cache:
                    counts[name + ".hits"] = counts.get(name + ".hits", 0) + 1
            return probe
        if name == "series.critical_set":
            cache = getattr(sys.modules["qcrit.series"], "_CRITICAL_CACHE", None)

            def probe(args):
                pq, bound = args
                if cache is not None and (pq.p, pq.lam, bound) in cache:
                    counts[name + ".hits"] = counts.get(name + ".hits", 0) + 1
            return probe
        return None

    def _after_hook(self, name):
        """Work counts read off results: output coefficients, checks."""
        counts = self.counts
        if name in _COEFF_OPS:
            key = name + ".coeffs"

            def coeffs(result):
                counts[key] = counts.get(key, 0) + getattr(result, "prec", -1) + 1
            return coeffs
        if name.startswith("theorems.") and name[len("theorems."):] in SUITES:
            key = name + ".checks"

            def checks(result):
                counts[key] = counts.get(key, 0) + getattr(result, "checks", 0)
            return checks
        return None

    # -- jobs ---------------------------------------------------------------

    def run_job(self, job_id, fn, *args):
        """Call fn(*args) as the root span "cli.job" of job job_id."""
        self._job = job_id
        try:
            return self._wrap(fn, "cli.job", SPAN)(*args)
        finally:
            self._job = None

    # -- results ------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values, by BENCHMARK.json name."""
        def stat(name, i):
            return self.stats.get(name, [0, 0.0, 0.0])[i]

        def ratio(hits, calls):
            return hits / calls if calls else 0.0

        m: dict[str, float] = {}
        for name in _CALLS_AND_S:
            m[name + ".calls"] = stat(name, 0)
            m[name + ".s"] = stat(name, 1)
        for name in _COEFF_OPS:
            m[name + ".coeffs"] = self.counts.get(name + ".coeffs", 0)
        m["finite_field.field_make.hit_ratio"] = ratio(
            self.counts.get("finite_field.field_make.hits", 0),
            stat("finite_field.field_make", 0))
        m["finite_field.subfield_elements.s"] = stat("finite_field.subfield_elements", 1)
        m["digits.admissible_quadruples.s"] = stat("digits.admissible_quadruples", 1)
        m["digits.admissible_quadruples.yielded"] = self.counts.get(
            "digits.admissible_quadruples.yielded", 0)
        m["digits.p_core.calls"] = stat("digits.p_core", 0)
        m["series.critical_set.hit_ratio"] = ratio(
            self.counts.get("series.critical_set.hits", 0),
            stat("series.critical_set", 0))
        info = getattr(getattr(sys.modules["qcrit.series"],
                               "_artin_hasse_residues", None), "cache_info", None)
        if info is not None:
            ci = info()
            m["series.artin_hasse.hit_ratio"] = ratio(ci.hits, ci.hits + ci.misses)
        else:
            m["series.artin_hasse.hit_ratio"] = 0.0
        m["series.from_json.s"] = stat("series.from_json", 1)
        m["series.to_json.s"] = stat("series.to_json", 1)
        for suite in SUITES:
            name = "theorems." + suite
            m[name + ".s"] = stat(name, 1)
            m[name + ".self_s"] = stat(name, 2)
            m[name + ".checks"] = self.counts.get(name + ".checks", 0)
        m["cli.parse.s"] = stat("cli.parse", 1)
        m["cli.handler.s"] = stat("cli.handler", 1)
        m["cli.render.s"] = stat("cli.job", 2)
        for layer, seconds in self.layer_self().items():
            m[layer + ".self_s"] = seconds
        return m
