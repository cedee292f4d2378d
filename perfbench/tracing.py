"""Span tracing of fsothz's layers from outside the program.

Public functions are wrapped by module (or class) attribute, so every call
that goes through the attribute, including calls between functions of the
same module, opens a span.  Spans are aggregated in memory as they close:
per name (calls, inclusive time, self time, work units), per call path
(self time) and per parent/child edge, so nothing per call is kept.

The outermost ``specfun.meijer_g`` call of each evaluation is classified by
the route that produced its value, from what ran beneath it and from the
flags of the value it returned:

    asymptotic        the value carries the ``asymptotic-tail`` flag
    contour_fallback  the value carries ``contour-fallback``: a residue
                      series ran and was thrown away for the contour
    contour           the contour ran without a residue attempt
    residue           the residue series ran and its value was kept
    reduction         neither ran: an exact closed form answered
"""

from __future__ import annotations

import time
import types
from collections import defaultdict

MEIJER_G = "specfun.meijer_g"
RESIDUE = "specfun.meijer_g_residue"
CONTOUR = "specfun.meijer_g_contour"
QUAD = "metrics_analytic.quad"
PDF = "channel_fso.fso_snr_pdf"
ROUTES = ("reduction", "residue", "contour", "asymptotic", "contour_fallback")

METRIC_FAMILIES = ("outage", "capacity", "aber", "asymptotic")


class _Frame:
    __slots__ = ("name", "path", "start", "child_s", "ran")

    def __init__(self, name, path, start):
        self.name = name
        self.path = path
        self.start = start
        self.child_s = 0.0
        self.ran = set()


class Tracer:
    """Wraps layer entry points and aggregates their spans.

    ``record_meijer`` keeps the arguments and value of the first few
    outermost Meijer-G calls of each route whose arguments pass
    ``record_if``, for the mpmath oracle.
    """

    def __init__(self, record_meijer: int = 0, record_if=None):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.units = defaultdict(float)
        self.path_self_s = defaultdict(float)
        self.edge_s = defaultdict(float)
        self.routes = defaultdict(int)
        self.record_meijer = record_meijer
        self.record_if = record_if
        self.meijer_samples = defaultdict(list)
        self._stack = []
        self._outer_mg = None
        self._restore = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, units=None) -> None:
        original = getattr(owner, attr)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, (parent.path + (name,)) if parent else (name,),
                           clock())
            stack.append(frame)
            outer_mg = False
            if name == MEIJER_G and tracer._outer_mg is None:
                tracer._outer_mg = frame
                outer_mg = True
            elif name in (RESIDUE, CONTOUR) and tracer._outer_mg is not None:
                tracer._outer_mg.ran.add(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                tracer.calls[name] += 1
                tracer.total_s[name] += duration
                own = duration - frame.child_s
                tracer.self_s[name] += own
                tracer.path_self_s[frame.path] += own
                if parent is not None:
                    parent.child_s += duration
                tracer.edge_s[(parent.name if parent else None, name)] += duration
                if units is not None:
                    tracer.units[name] += units(args, kwargs)
                if outer_mg:
                    tracer._outer_mg = None
            if outer_mg:
                tracer._classify(frame, args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, original))

    def proxy(self, module, attr: str, func: str, name: str) -> None:
        """Wrap ``module.attr.func`` only as ``module`` sees it.

        ``module.attr`` is a library module (``scipy.integrate``); it is
        replaced in ``module`` by a namespace whose ``func`` is traced and
        whose other attributes are the library's own.
        """
        library = getattr(module, attr)
        view = _ModuleView(library)
        setattr(module, attr, view)
        self._restore.append((module, attr, library))
        self.wrap(view, func, name)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- Meijer-G routes ---------------------------------------------------

    def _classify(self, frame: _Frame, args, result) -> None:
        flags = getattr(result, "flags", frozenset())
        if "asymptotic-tail" in flags:
            route = "asymptotic"
        elif "contour-fallback" in flags:
            route = "contour_fallback"
        elif CONTOUR in frame.ran and RESIDUE not in frame.ran:
            route = "contour"
        elif RESIDUE in frame.ran:
            route = "residue"
        else:
            route = "reduction"
        self.routes[route] += 1
        samples = self.meijer_samples[route]
        if (len(samples) < self.record_meijer
                and self.record_if(args[0], result)):
            samples.append((args[0], float(result.value)))

    # -- summaries ----------------------------------------------------------

    def under(self, ancestor: str, name: str) -> float:
        """Self time of every path on which ``name`` runs below ``ancestor``."""
        total = 0.0
        for path, seconds in self.path_self_s.items():
            if ancestor in path and name in path[path.index(ancestor) + 1:]:
                total += seconds
        return total

    def top_paths(self, count: int) -> list:
        ranked = sorted(self.path_self_s.items(), key=lambda kv: -kv[1])
        return ranked[:count]


class _ModuleView:
    """Attribute view of a library module with some names overridden."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _n_arg(index: int, key: str):
    def units(args, kwargs):
        return kwargs[key] if key in kwargs else args[index]
    return units


def _len_arg(args, kwargs):
    return len(kwargs["gamma_f"] if "gamma_f" in kwargs else args[0])


def install(tracer: Tracer) -> None:
    """Wrap the entry points of every fsothz layer the benchmark reports."""
    from fsothz import (channel_access, channel_fso, channel_thz, config,
                        metrics_analytic, monte_carlo, specfun, switching)

    for attr in ("meijer_g", "meijer_g_residue", "meijer_g_contour"):
        tracer.wrap(specfun, attr, f"specfun.{attr}")
    for attr in ("fso_snr_pdf", "fso_snr_cdf", "rytov_turbulence_params"):
        tracer.wrap(channel_fso, attr, f"channel_fso.{attr}")
    for attr in ("thz_snr_pdf", "thz_snr_cdf", "thz_path_gain"):
        tracer.wrap(channel_thz, attr, f"channel_thz.{attr}")
    for attr in ("access_snr_pdf", "access_snr_cdf"):
        tracer.wrap(channel_access, attr, f"channel_access.{attr}")
    tracer.wrap(config.ScenarioConfig, "system_spec", "config.system_spec")

    for attr, value in sorted(vars(metrics_analytic).items()):
        if (isinstance(value, types.FunctionType)
                and value.__module__ == metrics_analytic.__name__
                and attr.split("_")[0] in METRIC_FAMILIES):
            tracer.wrap(metrics_analytic, attr, f"metrics_analytic.{attr}")
    tracer.proxy(metrics_analytic, "integrate", "quad", "metrics_analytic.quad")

    for attr in ("sample_fso_snr", "sample_thz_snr", "sample_access_snr"):
        tracer.wrap(monte_carlo, attr, f"monte_carlo.{attr}",
                    units=_n_arg(3, "n"))
    for attr in ("estimate_outage", "estimate_capacity", "estimate_aber",
                 "sample_trace_snrs"):
        tracer.wrap(monte_carlo, attr, f"monte_carlo.{attr}")
    tracer.proxy(monte_carlo, "sp", "gammaincinv", "monte_carlo.gammaincinv")

    # monte_carlo holds its own reference to the state machine
    for module in (switching, monte_carlo):
        tracer.wrap(module, "evaluate_soft_trace",
                    "switching.evaluate_soft_trace", units=_len_arg)
    tracer.wrap(switching, "count_switch_events",
                "switching.count_switch_events")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from one traced round, as {name: (value, unit)}."""
    t = tracer
    ms = lambda name: 1e3 * t.total_s.get(name, 0.0)
    out = {}
    for route in ROUTES:
        out[f"specfun.route.{route}.calls"] = (t.routes.get(route, 0), "count")
    out["specfun.meijer_g_residue.ms"] = (ms(RESIDUE), "ms")
    out["specfun.meijer_g_contour.ms"] = (ms(CONTOUR), "ms")
    for name in ("channel_fso.fso_snr_pdf", "channel_fso.fso_snr_cdf",
                 "channel_thz.thz_snr_cdf", "channel_thz.thz_snr_pdf",
                 "channel_access.access_snr_cdf",
                 "channel_access.access_snr_pdf", "metrics_analytic.quad"):
        out[f"{name}.calls"] = (t.calls.get(name, 0), "count")
        out[f"{name}.ms"] = (ms(name), "ms")
    out["channel_fso.rytov_turbulence_params.calls"] = (
        t.calls.get("channel_fso.rytov_turbulence_params", 0), "count")
    out["channel_thz.thz_path_gain.calls"] = (
        t.calls.get("channel_thz.thz_path_gain", 0), "count")
    out["config.system_spec.ms"] = (ms("config.system_spec"), "ms")

    # a family's time is that of its calls entered from outside the module
    family_s = defaultdict(float)
    for (parent, child), seconds in t.edge_s.items():
        if (child.startswith("metrics_analytic.") and child != QUAD
                and not (parent or "").startswith("metrics_analytic.")):
            family_s[child.split(".")[1].split("_")[0]] += seconds
    for family in METRIC_FAMILIES:
        out[f"metrics_analytic.{family}.ms"] = (1e3 * family_s[family], "ms")
    out["metrics_analytic.self_ms"] = (1e3 * sum(
        s for name, s in t.self_s.items()
        if name.startswith("metrics_analytic.") and name != QUAD), "ms")

    for link in ("fso", "thz", "access"):
        name = f"monte_carlo.sample_{link}_snr"
        seconds = t.total_s.get(name, 0.0)
        rate = t.units.get(name, 0.0) / seconds if seconds > 0 else 0.0
        out[f"{name}.draws_per_s"] = (rate, "1/s")
    out["monte_carlo.gammaincinv.ms"] = (ms("monte_carlo.gammaincinv"), "ms")
    out["monte_carlo.self_ms"] = (1e3 * sum(
        s for name, s in t.self_s.items()
        if name.startswith("monte_carlo.")
        and name != "monte_carlo.gammaincinv"), "ms")
    trace_s = t.total_s.get("switching.evaluate_soft_trace", 0.0)
    slots = t.units.get("switching.evaluate_soft_trace", 0.0)
    out["switching.evaluate_soft_trace.slots_per_s"] = (
        slots / trace_s if trace_s > 0 else 0.0, "1/s")
    out["switching.evaluate_soft_trace.ms"] = (1e3 * trace_s, "ms")
    out["switching.count_switch_events.ms"] = (
        ms("switching.count_switch_events"), "ms")

    all_self = sum(t.self_s.values())
    pdf_under_quad = t.under(QUAD, PDF)
    out["channel_fso.fso_snr_pdf.under_quad.pct"] = (
        100.0 * pdf_under_quad / all_self if all_self > 0 else 0.0, "%")
    return out
