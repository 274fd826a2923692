"""Built-in validation scenarios: unitarity, causality, kernel-route
triangulation, probability recovery, Gaussian master consistency,
reciprocity, and transient scaling, each reported as a measured deviation
against its tolerance.

These are the only definitions of the scenarios. ``fast=True`` runs
smaller grids and case lists; ``fast=False`` runs the acceptance grids,
which ``tests/test_acceptance.py`` checks against pinned tolerances.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from . import barriers as _b
from . import evolution as ev
from . import kernels as _k
from . import transients as tr
from .errors import warning_messages

__all__ = ["run_suites", "SUITES"]


def _record(name, deviation, tolerance, detail=""):
    return {
        "suite": name,
        "deviation": float(deviation),
        "tolerance": float(tolerance),
        "passed": bool(deviation <= tolerance),
        "detail": detail,
    }


def _max_abs(*arrays):
    return max(float(np.max(np.abs(a))) for a in arrays)


def suite_unitarity(fast=False):
    s = 0.4
    num = _b.NumericBarrier.from_callable(
        lambda q: 1.0 / np.cosh(q / s) ** 2, -12 * s, 12 * s, 1201 if fast else 1601)
    ks = np.linspace(0.1, 5.0, 200)
    recs = []
    for bar, name, kk, tol in (
            (_b.DeltaBarrier(2.0), "delta", ks, 1e-10),
            (_b.PoschlTellerBarrier(1.0, s), "poschl_teller", ks, 1e-10),
            (num, "numeric", np.linspace(0.1, 5.0, 60) if fast else ks, 1e-6)):
        a, b = bar.amplitudes(kk)
        recs.append(_record(f"unitarity/{name}",
                            _max_abs(np.abs(a) ** 2 - np.abs(b) ** 2 - 1.0), tol))
    return recs


# delta kernel sweep shared by causality and triangulation; r = 0 stays
# off-node (the exact routes report the r -> 0+ limit there while the
# Fourier route gives the distributional midpoint of the jump)
_SWEEP_CONFIGS = ((2.0, 1.0), (2.0, 0.3), (0.5, 1.0))


def _sweep(fast):
    return np.linspace(-1.95, 9.95, 24 if fast else 60)


def _delta_routes(v0, p, r):
    """Quadrature (T, R), residue T and closed-form (T, R) densities."""
    bar = _b.DeltaBarrier(v0)
    kt_q, kr_q = _k.kernel_by_quadrature(bar, p, r)
    kt_r = _k.kernel_by_residues(bar, p, r, 1)
    t_c, r_c = _k.delta_kernels(v0, p, r)
    return kt_q.density, kr_q.density, kt_r.density, t_c, r_c


def suite_causality(fast=False):
    if fast:
        r, configs = np.linspace(-2.0, -0.05, 14), _SWEEP_CONFIGS[:2]
    else:
        r, configs = _sweep(fast), _SWEEP_CONFIGS
    neg = r < 0
    quad = exact = 0.0
    for v0, p in configs:
        t_q, r_q, t_r, t_c, r_c = (d[neg] for d in _delta_routes(v0, p, r))
        quad = max(quad, _max_abs(t_q, r_q))
        exact = max(exact, _max_abs(t_r, t_c, r_c))
    return [_record("causality/delta", quad, 1e-6),
            _record("causality/delta exact", exact, 0.0,
                    "residue and closed-form routes")]


def suite_triangulation(fast=False):
    recs = []
    for v0, p in _SWEEP_CONFIGS:
        t_q, r_q, t_r, t_c, r_c = _delta_routes(v0, p, _sweep(fast))
        dev = _max_abs(t_q - t_c, t_r - t_c, t_q - t_r, r_q - r_c)
        recs.append(_record(f"triangulation/delta v0={v0} p={p}", dev, 1e-6))
    v0, s = 1.0, 0.4
    pt = _b.PoschlTellerBarrier(v0, s)
    r_pt = np.linspace(0.21, 3.0, 12) if fast else np.linspace(0.5 * s, 3.0, 25)
    for p in (0.3, 0.6, 0.9):
        kt_q, kr_q = _k.kernel_by_quadrature(pt, p, r_pt)
        kt_r = _k.kernel_by_residues(pt, p, r_pt, 40)
        t_c, r_c = _k.pt_kernels(v0, s, p, r_pt)
        dev = _max_abs(kt_q.density - t_c, kt_r.density - t_c, kr_q.density - r_c)
        recs.append(_record(f"triangulation/pt p={p}", dev, 1e-6))
    return recs


def suite_probability(fast=False):
    recs = []
    for v0, p in ((2.0, 1.0), (2.0, 0.7), (0.5, 1.0)):
        # start exactly at 0 (the closed form reports the r -> 0+ limit
        # there) and extend +- 14 decay lengths of the kernel envelope
        r = np.linspace(0.0, 14.0 / v0, 6000 if fast else 20000)
        t_c, r_c = _k.delta_kernels(v0, p, r)
        t_tot, r_tot = _k.total_probabilities(_b.DeltaBarrier(v0), p)
        dev = max(abs(1.0 + np.trapezoid(t_c, r) - t_tot),
                  abs(np.trapezoid(r_c, r) - r_tot))
        recs.append(_record(f"probability/delta v0={v0} p={p}", dev, 1e-4))
    # analytically exact point
    t_tot, r_tot = _k.total_probabilities(_b.DeltaBarrier(2.0), 1.0)
    recs.append(_record("probability/delta v0=2 p=1 T=R=1/2",
                        max(abs(t_tot - 0.5), abs(r_tot - 0.5)), 1e-14))
    return recs


_INIT = ev.GaussianState(-40.0, 1.0, 25.0)


def _grid_detection(propagate, src, dst, bar, t, q, p):
    """Overlap of ``dst`` with ``src`` carried by ``propagate`` on the q x p grid."""
    return ev.detect(propagate(ev.gaussian_to_grid(src, q, p), bar, t),
                     ev.gaussian_to_grid(dst, q, p))


def suite_gaussian_master(fast=False):
    configs = [(ev.GaussianState(40.0, 1.0, 25.0), 40.0),
               (ev.GaussianState(20.0, 1.0, 25.0), 30.0),
               (ev.GaussianState(-90.0, -1.0, 25.0), 65.0)]
    if fast:
        q, p = np.linspace(-160.0, 120.0, 1201), np.linspace(-1.9, 1.9, 241)
        configs = configs[:1]
    else:
        q, p = np.linspace(-160.0, 120.0, 1600), np.linspace(-1.9, 1.9, 281)
    grid0 = ev.gaussian_to_grid(_INIT, q, p)
    recs = []
    for bar, name in ((_b.DeltaBarrier(2.0), "delta"),
                      (_b.PoschlTellerBarrier(1.0, 0.4), "poschl_teller")):
        # one propagation call serves every config time of the barrier
        grids = ev.barrier_propagate(grid0, bar, [t for _, t in configs])
        for (det, t), gt in zip(configs, grids):
            w_grid = ev.detect(gt, ev.gaussian_to_grid(det, q, p))
            w_closed = ev.gaussian_detection(_INIT, det, bar, t).w_total
            dev = abs(w_grid - w_closed) / max(abs(w_closed), 1e-12)
            recs.append(_record(f"gaussian_master/{name} t={t}", dev, 1e-3,
                                f"grid={w_grid:.6g} closed={w_closed:.6g}"))
    return recs


def suite_reciprocity(fast=False):
    bar = _b.DeltaBarrier(2.0)
    det = ev.GaussianState(40.0, 1.0, 25.0)
    q = np.linspace(-160.0, 120.0, 1201 if fast else 1600)
    p = np.linspace(-1.9, 1.9, 201 if fast else 281)
    t = 40.0
    w_fwd = _grid_detection(ev.barrier_propagate, _INIT, det, bar, t, q, p)
    w_bwd = _grid_detection(ev.detector_propagate, det, _INIT, bar, t, q, p)
    dev = abs(w_fwd - w_bwd) / max(abs(w_fwd), 1e-12)
    return [_record("reciprocity/delta", dev, 1e-4,
                    f"forward={w_fwd:.6g} backward={w_bwd:.6g}")]


def suite_transients(fast=False):
    v0 = 2.0
    # large t in units of 1/v0^2: t v0^2 from 100 to 10000
    ts = np.geomspace(25.0, 2500.0, 12 if fast else 30)
    js = np.array([abs(tr.delta_transient_J(v0, 1.0, 1.0, t).J) for t in ts])
    slope = float(np.polyfit(np.log(ts), np.log(js), 1)[0])
    ratio = tr.delta_transient_J(v0, 1.0, 1.0, float(ts[-1])).ratio
    kappas = np.linspace(0.2, 6.0, 8 if fast else 20)
    lhs, rhs = np.array([tr.discontinuity_check_delta(v0, 0.7, 1.1, float(k))
                         for k in kappas]).T
    # D(kappa; k, k) = -(2 kappa / pi) lhs is a probability density, >= 0
    d_min = float(np.min(-(2.0 * kappas / math.pi) * lhs))
    return [_record("transients/slope", abs(slope + 1.5), 0.02,
                    f"slope={slope:.4f}"),
            _record("transients/ratio", abs(ratio - 1.0), 0.02,
                    f"ratio={ratio:.5f}"),
            _record("transients/discontinuity", _max_abs(lhs - rhs), 1e-12),
            _record("transients/positivity", max(0.0, -d_min), 0.0,
                    f"min D={d_min:.4g}")]


def suite_semiclassical(fast=False):
    v0 = 1.0
    # deep tunneling: (s, p) with p / v0 well below 1
    cases = ([(4.0, p) for p in (0.2, 0.35, 0.5)] if fast else
             [(s, f * v0) for s in (2.0, 4.0) for f in (0.15, 0.3, 0.5)])
    worst = 1.0
    for s, p in cases:
        exact_t = _k.total_probabilities(_b.PoschlTellerBarrier(v0, s), p)[0]
        sc = math.exp(-2.0 * math.pi * s * (v0 - p))
        worst = max(worst, sc / exact_t, exact_t / sc)
    s, p0 = 4.0, 0.45
    lag = _k.classical_limit_lag(v0, s, p0)
    alpha = (3.0 * s * v0 ** 2 * (v0 ** 2 - 3 * p0 ** 2)
             / (12 * p0 ** 2 * (v0 ** 2 - p0 ** 2) ** 2)) ** (1.0 / 3.0)
    r = np.linspace(lag.lag - 70.0 * alpha, lag.lag + 40.0 * alpha, 3001)
    vals = _k.semiclassical_kernel(_b.PoschlTellerBarrier(v0, s), p0, r, mode="airy").value
    integral = float(np.trapezoid(vals, r))
    return [_record("semiclassical/deep_tunneling_factor", worst, 2.0,
                    "exp(-2I) vs |a|^-2"),
            _record("semiclassical/airy_normalization", abs(integral / lag.weight - 1.0),
                    0.05, f"integral={integral:.4g} weight={lag.weight:.4g}")]


SUITES = {
    "unitarity": suite_unitarity,
    "causality": suite_causality,
    "triangulation": suite_triangulation,
    "probability": suite_probability,
    "gaussian_master": suite_gaussian_master,
    "reciprocity": suite_reciprocity,
    "transients": suite_transients,
    "semiclassical": suite_semiclassical,
}


def run_suites(names=None, fast=True, tolerance_override=None):
    """Run the named suites (all by default) and report a machine-readable dict.

    ``tolerance_override``, when given, replaces every suite tolerance --
    overriding to 0 makes every check fail, which is itself a sensitivity
    check of the reporting path. Warnings raised by the suites are
    recorded, not shown: "warnings" lists their distinct messages in
    first-seen order.
    """
    names = list(SUITES) if not names else list(names)
    records = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name in names:
            if name not in SUITES:
                raise KeyError(f"unknown validation suite {name!r}")
            records.extend(SUITES[name](fast=fast))
    if tolerance_override is not None:
        for rec in records:
            rec["tolerance"] = float(tolerance_override)
            rec["passed"] = rec["deviation"] <= rec["tolerance"]
    return {
        "checks": records,
        "passed": all(r["passed"] for r in records),
        "n_failed": sum(not r["passed"] for r in records),
        "warnings": warning_messages(caught),
    }
