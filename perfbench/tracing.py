"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions of the package's modules
with wrappers that record spans (group, start, end, parent) in memory,
and ``uninstall`` puts every original back. Each function is wrapped at
the name its callers look it up by: ``evolution`` imports ``fftconvolve``
by name, ``kernels`` imports ``fourier_symmetric``, ``gamma_cx`` and
``hyp4f3_coefficients``, and ``barriers`` imports ``log_gamma_right``.
Amplitude methods are wrapped on each Barrier subclass.

A span's self time is its duration minus the time its direct child
spans cover. A group's inclusive time sums only its outermost spans, so
nested calls of one group are not counted twice.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

import numpy as np

from wigner_tunnel import barriers, cli, evolution, kernels, specfun

BARRIER_CLASSES = (barriers.DeltaBarrier, barriers.PoschlTellerBarrier,
                   barriers.NumericBarrier, barriers.EikonalBarrier)
AMPLITUDE_METHODS = ("amplitude_a", "amplitude_b", "ba_ratio", "amplitudes")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _size(x):
    return int(np.size(x))


# Counters run before the wrapped call as counter(tracer, outermost, args, kwargs).
def _count_rows(tr, outer, a, kw):
    tr.counts["cli.rows_written"] += len(_arg(a, kw, 3, "rows"))


def _count_bytes(tr, outer, a, kw):
    tr.counts["cli.bytes_written"] += len(_arg(a, kw, 1, "text").encode("utf-8"))


def _count_fft(tr, outer, a, kw):
    tr.counts["evolution.fft_points"] += (_size(_arg(a, kw, 0, "in1"))
                                          + _size(_arg(a, kw, 1, "in2")))


def _count_quadrature(tr, outer, a, kw):
    tr.counts["kernels.quadrature_lags"] += _size(_arg(a, kw, 2, "r_grid"))
    if tr.depth["evolution.propagate"]:
        tr.counts["kernels.band_fallbacks"] += 1


def _count_delta_lags(tr, outer, a, kw):
    tr.counts["kernels.closed_lags"] += _size(_arg(a, kw, 2, "r"))


def _count_pt_lags(tr, outer, a, kw):
    tr.counts["kernels.closed_lags"] += _size(_arg(a, kw, 3, "r"))


def _count_total_probabilities(tr, outer, a, kw):
    tr.counts["kernels.total_probabilities_calls"] += 1


def _count_log_gamma(tr, outer, a, kw):
    tr.counts["specfun.log_gamma_points"] += _size(_arg(a, kw, 0, "z"))


def _amplitude_counter(kind):
    def count(tr, outer, a, kw):
        if outer:
            tr.counts[f"barriers.{kind}.kappa"] += _size(_arg(a, kw, 1, "kappa"))
    return count


# (owner, attribute, span group or None for a count-only wrapper, counter)
WRAPS = [
    (cli, "main", "cli.main", None),
    (cli, "_write_csv", None, _count_rows),
    (cli, "_atomic_write", None, _count_bytes),
    (evolution, "barrier_propagate", "evolution.propagate", None),
    (evolution, "fftconvolve", "evolution.fft", _count_fft),
    (evolution, "gaussian_detection", "evolution.detection", None),
    (kernels, "kernel_by_quadrature", "kernels.quadrature", _count_quadrature),
    (kernels, "delta_kernels", "kernels.closed", _count_delta_lags),
    (kernels, "pt_kernels", "kernels.closed", _count_pt_lags),
    (kernels, "kernel_by_residues", "kernels.residues", None),
    (kernels, "total_probabilities", None, _count_total_probabilities),
    (kernels, "fourier_symmetric", "quadrature.fourier", None),
    (kernels, "fourier_halfline", "quadrature.fourier", None),
    (kernels, "adaptive_complex_quad", "quadrature.adaptive", None),
    (barriers, "find_poles", "barriers.find_poles", None),
    (barriers, "log_gamma_right", "specfun.log_gamma", _count_log_gamma),
    (specfun, "log_gamma_right", "specfun.log_gamma", _count_log_gamma),
    (barriers, "gamma_cx", "specfun.gamma_cx", None),
    (kernels, "gamma_cx", "specfun.gamma_cx", None),
    (kernels, "hyp4f3_coefficients", "specfun.hyp4f3", None),
] + [
    (cls, name, f"barriers.amplitude.{cls.kind}", _amplitude_counter(cls.kind))
    for cls in BARRIER_CLASSES for name in AMPLITUDE_METHODS
]


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        # span: [group, outermost-in-group, start, end, parent index]
        self.spans = []
        self.counts = Counter()
        self.depth = Counter()
        self._stack = []
        self._saved = []

    def _span_wrapper(self, fn, group, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = self.depth[group] == 0
            if counter is not None:
                counter(self, outer, args, kwargs)
            rec = [group, outer, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self.depth[group] += 1
            rec[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self.depth[group] -= 1
                self._stack.pop()
        return wrapper

    def _count_wrapper(self, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter(self, True, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, name, group, counter in WRAPS:
            own = name in vars(owner)
            fn = getattr(owner, name)
            self._saved.append((owner, name, own, vars(owner).get(name)))
            new = (self._count_wrapper(fn, counter) if group is None
                   else self._span_wrapper(fn, group, counter))
            setattr(owner, name, new)

    def uninstall(self):
        while self._saved:
            owner, name, own, original = self._saved.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


def summarize(spans):
    """Per group: calls, inclusive seconds (outermost spans), self seconds."""
    child_time = [0.0] * len(spans)
    for group, outer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, incl, self_s = Counter(), Counter(), Counter()
    for i, (group, outer, start, end, parent) in enumerate(spans):
        calls[group] += 1
        if outer:
            incl[group] += end - start
        self_s[group] += (end - start) - child_time[i]
    return calls, incl, self_s


def layer_metrics(tracer):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    calls, incl, self_s = summarize(tracer.spans)
    c = tracer.counts
    amp = [g for g in calls if g.startswith("barriers.amplitude.")]

    def rate(kind):
        t = incl[f"barriers.amplitude.{kind}"]
        return c[f"barriers.{kind}.kappa"] / t if t > 0 else 0.0

    s, n = "s", "count"
    return {
        "cli.self_s": (self_s["cli.main"], s),
        "cli.rows_written": (c["cli.rows_written"], n),
        "cli.bytes_written": (c["cli.bytes_written"], n),
        "evolution.propagate_s": (incl["evolution.propagate"], s),
        "evolution.lag_conv_s": (self_s["evolution.propagate"], s),
        "evolution.fft_s": (incl["evolution.fft"], s),
        "evolution.fft_calls": (calls["evolution.fft"], n),
        "evolution.fft_points": (c["evolution.fft_points"], n),
        "evolution.detection_s": (incl["evolution.detection"], s),
        "evolution.detection_calls": (calls["evolution.detection"], n),
        "kernels.quadrature_s": (incl["kernels.quadrature"], s),
        "kernels.quadrature_calls": (calls["kernels.quadrature"], n),
        "kernels.quadrature_lags": (c["kernels.quadrature_lags"], n),
        "kernels.band_fallbacks": (c["kernels.band_fallbacks"], n),
        "kernels.closed_s": (incl["kernels.closed"], s),
        "kernels.closed_lags": (c["kernels.closed_lags"], n),
        "kernels.residues_s": (incl["kernels.residues"], s),
        "kernels.total_probabilities_calls":
            (c["kernels.total_probabilities_calls"], n),
        "quadrature.fourier_s": (incl["quadrature.fourier"], s),
        "quadrature.fourier_calls": (calls["quadrature.fourier"], n),
        "quadrature.adaptive_s": (incl["quadrature.adaptive"], s),
        "barriers.amplitude_s": (sum(self_s[g] for g in amp), s),
        "barriers.kappa_evals": (sum(c[f"barriers.{cls.kind}.kappa"]
                                     for cls in BARRIER_CLASSES), n),
        "barriers.numeric.kappa_per_s": (rate("numeric"), "1/s"),
        "barriers.eikonal.kappa_per_s": (rate("eikonal"), "1/s"),
        "barriers.find_poles_calls": (calls["barriers.find_poles"], n),
        "barriers.find_poles_s": (incl["barriers.find_poles"], s),
        "specfun.log_gamma_s": (incl["specfun.log_gamma"], s),
        "specfun.log_gamma_points": (c["specfun.log_gamma_points"], n),
        "specfun.gamma_cx_s": (incl["specfun.gamma_cx"], s),
        "specfun.hyp4f3_s": (incl["specfun.hyp4f3"], s),
        "trace.spans": (len(tracer.spans), n),
    }
