"""Spans around the package's layer entry points, recorded from outside.

The traced child wraps each function listed in LAYERS in every siegelz
module namespace that binds it (modules bind names at import time, so
wrapping only the defining module would charge, say, fz_expansion inside
soudry to E_Z).  A span is [name, parent index, start ns, end ns]; spans
stay in memory and are reduced to per-layer calls, self time and work
counts when the job ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = "job"

# (module, function) pairs whose calls become spans; the cli suite runners
# are added from cli.SUITE_RUNNERS
LAYERS = (
    ("arith", "series_mul"),
    ("theta", "theta_expansion"),
    ("theta", "six_tuple_expansion"),
    ("theta", "fz_expansion"),
    ("theta", "theta_eval"),
    ("theta", "verify_igusa_transformation"),
    ("theta", "orbit_decomposition"),
    ("theta", "slash_character_exact"),
    ("theta", "pair_character_any_parity"),
    ("soudry", "ez_eval"),
    ("soudry", "two_form_pullback"),
    ("soudry", "ez_two_form_check"),
    ("soudry", "resolve_ez_convention"),
    ("soudry", "ez_phi_match"),
    ("cmform", "g_expansion"),
    ("cmform", "hecke_Tp_check"),
    ("pointcount", "count_variety"),
    ("pointcount", "verify_count_formulas"),
    ("pointcount", "verify_birational_map"),
    ("pointcount", "verify_boundary_lines"),
    ("lfactors", "h2_lpoly"),
    ("lfactors", "lefschetz_check"),
    ("lfactors", "spin_identity_check"),
    ("cli", "main"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _series_mul_name(args, kwargs):
    return f"arith.series_mul.g{args[0].genus}"


def _g_expansion_name(args, kwargs):
    return f"cmform.g_expansion.{_arg(args, kwargs, 0, 'source')}"


def _count_variety_name(args, kwargs):
    return f"pointcount.count_variety.{_arg(args, kwargs, 2, 'method', 'naive')}"


NAMERS = {
    "arith.series_mul": _series_mul_name,
    "cmform.g_expansion": _g_expansion_name,
    "pointcount.count_variety": _count_variety_name,
}


def _series_mul_counts(tracer, name, args, kwargs, result):
    tracer.count(name + ".pairs", len(args[0].coeffs) * len(args[1].coeffs))
    tracer.count(name + ".terms_out", len(result.coeffs))


def _ez_eval_counts(tracer, name, args, kwargs, result):
    tau = np.asarray(_arg(args, kwargs, 0, "tau"), dtype=complex)
    tracer.minimum(name + ".min_eig_im", float(np.linalg.eigvalsh(tau.imag).min()))


COUNTERS = {
    "arith.series_mul": _series_mul_counts,
    "soudry.ez_eval": _ez_eval_counts,
}


class Tracer:
    """Nested spans on a monotonic nanosecond clock, plus work counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.minima: dict[str, float] = {}
        self.caches: dict[str, object] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.clock(), None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][3] = self.clock()
        self.stack.pop()

    def count(self, key: str, amount):
        self.counters[key] += amount

    def minimum(self, key: str, value: float):
        self.minima[key] = min(value, self.minima.get(key, value))

    def wrap(self, fn, layer: str):
        namer = NAMERS.get(layer)
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else layer
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter:
                counter(self, name, args, kwargs, result)
            return result

        return traced


def _rebind(original, replacement, modules) -> int:
    bound = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound += 1
    return bound


def install(tracer: Tracer):
    """Wrap every LAYERS function and cli suite runner wherever it is bound."""
    import siegelz
    import siegelz.cli as cli

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "siegelz" or n.startswith("siegelz."))]
    for mod_name, fn_name in LAYERS:
        original = getattr(getattr(siegelz, mod_name), fn_name)
        if hasattr(original, "cache_info"):
            tracer.caches[f"{mod_name}.{fn_name}"] = original
        wrapped = tracer.wrap(original, f"{mod_name}.{fn_name}")
        if not _rebind(original, wrapped, modules):
            raise RuntimeError(f"{mod_name}.{fn_name} is bound nowhere")
    for suite, runner in list(cli.SUITE_RUNNERS.items()):
        wrapped = tracer.wrap(runner, f"cli.suite.{suite}")
        cli.SUITE_RUNNERS[suite] = wrapped
        _rebind(runner, wrapped, modules)


# ---------------------------------------------------------------------------
# reduction

def self_times(spans: list) -> dict[str, int]:
    """Per-name self time: each span's duration minus the part of its
    interval covered by its children (clipped to the span, overlaps merged)."""
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict[str, int] = defaultdict(int)
    for idx, (name, _, start, end) in enumerate(spans):
        covered = 0
        cursor = start
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, cursor), min(ce, end)
            if ce > cs:
                covered += ce - cs
                cursor = ce
        out[name] += (end - start) - covered
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Flat metrics: NAME.calls, NAME.self_s, NAME.s (inclusive), the work
    counters, cache statistics, and the job totals."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    inclusive: dict[str, int] = defaultdict(int)
    for name, _, start, end in tracer.spans:
        calls[name] += 1
        inclusive[name] += end - start
    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = selfs[name] / 1e9
        out[f"{name}.s"] = inclusive[name] / 1e9
    out.update(tracer.counters)
    out.update(tracer.minima)
    for name, fn in tracer.caches.items():
        info = fn.cache_info()
        out[f"{name}.cache_hits"] = info.hits
        out[f"{name}.cache_misses"] = info.misses
    out["cli.suite.self_s"] = sum(selfs[n] for n in selfs if n.startswith("cli.suite.")) / 1e9
    out["trace.job_s"] = inclusive[ROOT] / 1e9
    out["trace.unattributed_s"] = selfs.get(ROOT, 0) / 1e9
    out["trace.spans"] = len(tracer.spans)
    return out
