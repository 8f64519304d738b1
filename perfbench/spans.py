"""Per-layer spans timed from outside the program.

``Tracer.installed()`` replaces each public function of the layers
``indices``, ``zeta``, ``series``, ``harmonic``, ``closedform`` and ``cli``
with a timing wrapper, everywhere the package binds it: in its own module,
in every ``mzvsums`` module that imported it by name, and on ``ZetaCache``.
Calls inside the package look these names up in module globals, so the
wrappers see internal calls too.  Nothing under ``src/`` is edited; leaving
the ``with`` block puts the originals back.

A span's self time is its duration minus the durations of the spans it
called directly.  Spans are aggregated by name as they close; nothing is
kept per call.
"""

from __future__ import annotations

import functools
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# Span name -> (module, attribute names).  Generators (``decompositions``,
# ``iter_family_series*``) are not wrapped: a wrapper would time only their
# creation.  They run inside the spans that consume them.
SPANS = {
    "indices.family": ("indices", ("index_family_I", "index_family_J")),
    "indices.shuffles": ("indices", ("shuffles",)),
    "zeta.cache": ("zeta.ZetaCache", ("zeta", "zeta_star")),
    "zeta.cache_io": ("zeta.ZetaCache", ("save", "load")),
    "zeta.trunc": ("zeta", ("zeta_trunc", "zeta_star_trunc")),
    "zeta.family_sum": ("zeta", ("s_direct", "s_star_direct", "t_direct", "t_star_direct")),
    "zeta.identity": ("zeta", ("verify_identity_s", "verify_identity_t")),
    "series.plain": ("series", ("family_series",)),
    "series.star": ("series", ("family_series_star",)),
    "series.run_poly": ("series", ("zeta_run_poly", "zeta_star_run_poly")),
    "series.sides": ("series", ("star_factorization_sides", "symmetric_form_sides")),
    "series.check": ("series", ("check_star_factorization", "check_symmetric_form")),
    "harmonic.mul": ("harmonic", ("harmonic_mul",)),
    "harmonic.star_expand": ("harmonic", ("star_expand",)),
    "harmonic.word_sum": ("harmonic", ("word_sum_s", "word_sum_t")),
    "harmonic.verify": ("harmonic", ("verify_identity_s_symbolic", "verify_identity_t_symbolic")),
    "harmonic.z_eval": ("harmonic", ("z_eval", "z_star_eval")),
    "closedform": ("closedform", ("bernoulli", "bernoulli_via_tangent", "beta", "s_closed", "s_star_closed")),
    "closedform.converge": ("closedform", ("converge_report",)),
    "cli": ("cli", ("_build_parser", "_run_verify", "_run_eval", "_run_converge", "_map_cases",
                    "_load_cache", "_save_cache", "_emit_report", "_frac_str")),
}

LAYERS = ("indices", "zeta", "series", "harmonic", "closedform", "cli")

# Per-layer metrics reported by a traced run, with their units.
METRICS = (
    ("indices.calls", "count"), ("indices.self_s", "s"), ("indices.entries", "count"),
    ("zeta.cache.calls", "count"), ("zeta.cache.self_s", "s"),
    ("zeta.family_sum.calls", "count"), ("zeta.family_sum.self_s", "s"),
    ("zeta.identity.self_s", "s"), ("zeta.trunc.self_s", "s"), ("zeta.den_bits_max", "bits"),
    ("zeta.cache_io.self_s", "s"), ("zeta.cache_file_bytes", "bytes"),
    ("series.steps", "count"), ("series.plain.self_s", "s"), ("series.star.self_s", "s"),
    ("series.run_poly.self_s", "s"), ("series.sides.self_s", "s"), ("series.check.self_s", "s"),
    ("harmonic.mul.calls", "count"), ("harmonic.mul.self_s", "s"), ("harmonic.mul.terms_out", "count"),
    ("harmonic.star_expand.self_s", "s"), ("harmonic.star_expand.terms_out", "count"),
    ("harmonic.word_sum.self_s", "s"), ("harmonic.verify.self_s", "s"), ("harmonic.z_eval.self_s", "s"),
    ("closedform.self_s", "s"), ("closedform.converge.self_s", "s"),
    ("cli.self_s", "s"), ("cli.report_bytes", "bytes"),
)


def _den_bits(value) -> int:
    if isinstance(value, Fraction):
        return value.denominator.bit_length()
    lhs = getattr(value, "lhs", None)  # IdentityReport
    return max(_den_bits(lhs), _den_bits(value.rhs)) if lhs is not None else 0


def _count_result(tracer: "Tracer", name: str, result, args) -> None:
    """Work counters read off a span's arguments and result."""
    counts = tracer.counts
    if name == "zeta.cache_io":
        if result is None:  # save(path); load returns the cache
            counts["zeta.cache_file_bytes"] += os.path.getsize(args[1])
    elif name.startswith("zeta."):
        bits = _den_bits(result)
        if bits > counts["zeta.den_bits_max"]:
            counts["zeta.den_bits_max"] = bits
    elif name == "indices.family":
        counts["indices.entries"] += len(result)
    elif name in ("series.plain", "series.star"):
        counts["series.steps"] += args[0]
    elif name in ("harmonic.mul", "harmonic.star_expand"):
        counts[f"{name}.terms_out"] += len(result)


class Tracer:
    """Span totals and work counters for the ops run while ``installed()``."""

    def __init__(self, mzvsums_modules: dict):
        self.modules = mzvsums_modules
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.covered_s = 0.0  # time inside outermost spans
        self._stack: list[float] = []  # per open span: time spent in its direct children
        self._patches = self._plan()

    def _wrap(self, name: str, fn):
        stack = self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur
                else:
                    self.covered_s += dur
            _count_result(self, name, result, args)
            return result

        return span

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every binding to replace."""
        patches = []
        for name, (where, attrs) in SPANS.items():
            mod_name, _, cls_name = where.partition(".")
            owner = self.modules[mod_name]
            if cls_name:
                cls = getattr(owner, cls_name)
                for attr in attrs:
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    patches.append((cls, attr, raw, wrapped))
                continue
            for attr in attrs:
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original)
                for module in self.modules.values():
                    for key, value in vars(module).items():
                        if value is original:
                            patches.append((module, key, original, wrapped))
        return patches

    @contextmanager
    def installed(self):
        for target, attr, _, wrapped in self._patches:
            setattr(target, attr, wrapped)
        try:
            yield self
        finally:
            for target, attr, original, _ in self._patches:
                setattr(target, attr, original)

    def layer_self_s(self, op_wall_s: float) -> dict[str, float]:
        """Self time per layer; ``cli`` also gets the op wall no span covers."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.self_s.items():
            totals[name.split(".")[0]] += value
        totals["cli"] = op_wall_s - sum(v for layer, v in totals.items() if layer != "cli")
        return totals

    def metrics(self, op_wall_s: float, report_bytes: int, overhead_ratio: float) -> dict:
        """Per-layer metrics for ops that took ``op_wall_s`` in total."""
        layers = self.layer_self_s(op_wall_s)
        values = {
            "indices.calls": self.calls["indices.family"],
            "indices.self_s": layers["indices"],
            "cli.self_s": layers["cli"],
            "cli.report_bytes": report_bytes,
        }
        for key, _ in METRICS:
            if key in values:
                continue
            if key.endswith(".calls"):
                values[key] = self.calls[key[: -len(".calls")]]
            elif key.endswith(".self_s"):
                values[key] = self.self_s[key[: -len(".self_s")]]
            else:
                values[key] = self.counts[key]
        out = {key: {"value": values[key], "unit": unit} for key, unit in METRICS}
        out["trace.coverage"] = {"value": self.covered_s / op_wall_s, "unit": "ratio"}
        out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
        return out
