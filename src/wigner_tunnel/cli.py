"""Command-line front end: amplitudes, kernels, evolution, detection
sweeps, and the validation suite, all driven by JSON configs and emitting
CSV/JSON for external plotting.

Exit codes: 0 success, 2 config error, 3 method/barrier incompatibility,
4 validation failure. Output is byte-stable for a fixed config: no
timestamps, no seeded randomness, deterministic quadrature orders. Every
number in a CSV file is printed with ``%.17g``, so it reads back to the
same float; ``evolve`` writes its rows in q-major order, p varying
fastest.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

import numpy as np

from . import barriers as _b
from . import evolution as ev
from . import kernels as _k
from . import validate as _v
from .errors import (
    ConfigError,
    MethodCompatibilityError,
    NonMeromorphicError,
    WignerTunnelError,
)

UNITS_NOTE = "# units: hbar=1, 2m=1, velocity v=2p"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INCOMPATIBLE = 3
EXIT_VALIDATION = 4


def _atomic_write(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


_NUM = "%.17g"


def _fmt(x):
    return _NUM % float(x)


def _write_csv(path, header_lines, names, *columns):
    """Write equal-length columns as CSV rows below the header lines.

    A column of str is written as it is, any other column as floats with
    %.17g. The rows are filled from one %-template in a single pass.
    """
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("CSV columns differ in length")
    k = len(columns)
    specs, cells = [], [None] * (n * k)
    for j, col in enumerate(columns):
        if n and isinstance(col[0], str):
            specs.append("%s")
            cells[j::k] = col
        else:
            specs.append(_NUM)
            cells[j::k] = np.asarray(col, dtype=float).tolist()
    head = "".join(line + "\n" for line in header_lines) + ",".join(names) + "\n"
    _atomic_write(path, head + ((",".join(specs) + "\n") * n) % tuple(cells))


def _write_json(path, payload):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def _check_keys(d, required, optional, path):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _barrier_from_config(cfg, path="barrier"):
    try:
        return _b.barrier_from_dict(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _grid_from_config(cfg, path, n_min=2):
    """{"min": a, "max": b, "n": k} or {"values": [...]} -> ndarray."""
    if "values" in cfg:
        _check_keys(cfg, ["values"], [], path)
        arr = np.asarray(cfg["values"], dtype=float)
    else:
        _check_keys(cfg, ["min", "max", "n"], [], path)
        if cfg["n"] < n_min or cfg["max"] <= cfg["min"]:
            raise ConfigError(f"{path}: need max > min and n >= {n_min}")
        arr = np.linspace(cfg["min"], cfg["max"], int(cfg["n"]))
    if arr.size == 0:
        raise ConfigError(f"{path}: empty grid")
    return arr


def _times_from_config(raw, path):
    """A list of finite numbers >= 0 -> list of float."""
    if not isinstance(raw, list) or not all(
            isinstance(t, (int, float)) and not isinstance(t, bool)
            and 0.0 <= t < math.inf for t in raw):
        raise ConfigError(f"{path}: expected a list of finite numbers >= 0")
    return [float(t) for t in raw]


def _state_from_config(cfg, path):
    _check_keys(cfg, ["Q", "P", "lambda"], [], path)
    try:
        return ev.GaussianState(float(cfg["Q"]), float(cfg["P"]), float(cfg["lambda"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_amplitudes(cfg, out_dir, args):
    _check_keys(cfg, ["barrier", "kappa_grid"], [], "config")
    barrier = _barrier_from_config(cfg["barrier"])
    ks = _grid_from_config(cfg["kappa_grid"], "kappa_grid")
    if np.any(ks == 0):
        raise ConfigError("kappa_grid: kappa = 0 is not evaluable")

    # Python complex, not numpy: |a|^2 must raise OverflowError, not give inf
    def one(k, a, b, ratio):
        a, b = complex(a), complex(b)
        try:
            t_tot, r_tot = _k.total_probabilities(barrier, float(k), a, complex(ratio))
            return (k, a.real, a.imag, b.real, b.imag,
                    abs(a) ** 2 - abs(b) ** 2, t_tot, r_tot)
        except OverflowError as exc:
            raise ConfigError(f"kappa_grid: |a|^2 overflows at kappa = {float(k)!r}; "
                              "kappa is too close to 0") from exc

    rows = [one(*row) for row in zip(ks, barrier.amplitude_a(ks), barrier.amplitude_b(ks),
                                     barrier.ba_ratio(ks))]
    _write_csv(os.path.join(out_dir, "amplitudes.csv"),
               [UNITS_NOTE, f"# barrier: {json.dumps(barrier.descriptor())[:160]}"],
               ["kappa", "re_a", "im_a", "re_b", "im_b",
                "unitarity", "T", "R"],
               *zip(*rows))
    return EXIT_OK


_KERNEL_METHODS = ("quadrature", "residues", "closed", "semiclassical", "all")


def _kernel_one_method(barrier, method, p, r_grid, n_poles, tol):
    if method == "quadrature":
        kt, kr = _k.kernel_by_quadrature(barrier, p, r_grid, tol=tol)
        return kt.density, kr.density, np.full_like(r_grid, kt.error_estimate), None
    if method == "residues":
        kt = _k.kernel_by_residues(barrier, p, r_grid, n_poles)
        trunc = kt.truncation_error if kt.truncation_error is not None \
            else np.zeros_like(r_grid)
        return kt.density, np.full_like(r_grid, np.nan), trunc, None
    if method == "closed":
        if isinstance(barrier, _b.DeltaBarrier):
            t_d, r_d = _k.delta_kernels(barrier.v0, p, r_grid)
        elif isinstance(barrier, _b.PoschlTellerBarrier):
            # closed 4F3 series away from r = 0, quadrature across the band
            t_d, r_d = _k.kernel_row(barrier, p, np.where(r_grid == 0.0, 1e-12,
                                                          r_grid), tol)
        else:
            raise MethodCompatibilityError(
                "closed-form kernels exist for delta and poschl_teller only")
        return t_d, r_d, np.zeros_like(r_grid), None
    if method == "semiclassical":
        if not barrier.has_potential_function():
            raise MethodCompatibilityError(
                "semiclassical kernels need a pointwise potential")
        res = _k.semiclassical_kernel(barrier, p, r_grid, mode="quadrature")
        w = barrier.integral_strength()
        flags = ((r_grid * p >= 1.0) & (p <= 0.2 * w)
                 & (r_grid * p * p <= 0.2 * w)).astype(float)
        return np.asarray(res.value), np.full_like(r_grid, np.nan), \
            np.zeros_like(r_grid), flags
    raise ConfigError(f"unknown kernel method {method!r}")


def cmd_kernel(cfg, out_dir, args):
    _check_keys(cfg, ["barrier", "p", "r_grid"],
                ["method", "n_poles", "tol"], "config")
    barrier = _barrier_from_config(cfg["barrier"])
    p = float(cfg["p"])
    if p <= 0:
        raise ConfigError("p must be positive (incident from the left)")
    r_grid = _grid_from_config(cfg["r_grid"], "r_grid")
    method = args.method or cfg.get("method", "quadrature")
    if method not in _KERNEL_METHODS:
        raise ConfigError(f"method must be one of {_KERNEL_METHODS}")
    n_poles = int(cfg.get("n_poles", 40))
    if barrier.pole_count_limit is not None:
        n_poles = min(n_poles, barrier.pole_count_limit)
    tol = float(args.tol if args.tol is not None else cfg.get("tol", 2e-7))

    methods = [m for m in ("quadrature", "residues", "closed")] \
        if method == "all" else [method]
    results = {}
    for m in methods:
        t_d, r_d, trunc, flags = _kernel_one_method(barrier, m, p, r_grid,
                                                    n_poles, tol)
        results[m] = (t_d, r_d)
        names = ["r", "T_density", "R_density", "method", "truncation_error"]
        cols = [r_grid, t_d, r_d, [m] * len(r_grid), trunc]
        if flags is not None:
            names.append("regime_ok")
            cols.append(flags)
        _write_csv(os.path.join(out_dir, f"kernel_{m}.csv"),
                   [UNITS_NOTE, f"# p = {_fmt(p)}"], names, *cols)

    if method == "all":
        per_r = np.zeros_like(r_grid)
        names = list(results)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                ti, _ = results[names[i]]
                tj, _ = results[names[j]]
                per_r = np.maximum(per_r, np.abs(np.asarray(ti) - np.asarray(tj)))
        _write_json(os.path.join(out_dir, "agreement.json"), {
            "methods": names,
            "max_deviation": float(np.max(per_r)),
            "per_r": [{"r": float(r), "deviation": float(d)}
                      for r, d in zip(r_grid, per_r)],
        })
    return EXIT_OK


def cmd_evolve(cfg, out_dir, args):
    _check_keys(cfg, ["barrier", "state", "q_axis", "p_axis", "times"],
                ["include_interference"], "config")
    barrier = _barrier_from_config(cfg["barrier"])
    state = _state_from_config(cfg["state"], "state")
    q_axis = _grid_from_config(cfg["q_axis"], "q_axis", n_min=8)
    p_axis = _grid_from_config(cfg["p_axis"], "p_axis", n_min=8)
    times = _times_from_config(cfg["times"], "times")
    interference = bool(cfg.get("include_interference", False))
    if not barrier.is_meromorphic:
        raise MethodCompatibilityError(
            f"evolve needs S-matrix poles; barrier kind {barrier.kind!r} is not meromorphic")

    grid0 = ev.gaussian_to_grid(state, q_axis, p_axis)
    marg = grid0.momentum_marginal()
    pos = p_axis > 0
    t_of_p = np.array([_k.total_probabilities(barrier, pp)[0] for pp in p_axis[pos]])
    pred_t = float(np.trapezoid(t_of_p * marg[pos], p_axis[pos]))
    initial = grid0.mass()

    accounting = {"initial_mass": initial, "predicted_transmitted": pred_t,
                  "predicted_reflected": initial - pred_t, "times": []}
    for idx, t in enumerate(times):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gt = ev.barrier_propagate(grid0, barrier, t,
                                      include_interference=interference)
        m_t, m_r = ev.sector_masses(gt)
        accounting["times"].append({
            "t": t, "transmitted": m_t, "reflected": m_r,
            "total": m_t + m_r,
            "accounting_error": abs(m_t + m_r - initial) / initial,
        })
        # rows in q-major order: each axis value is formatted once
        q_txt = [_NUM % v for v in gt.q.tolist()]
        p_txt = [_NUM % v for v in gt.p.tolist()]
        _write_csv(os.path.join(out_dir, f"evolve_t{idx}.csv"),
                   [UNITS_NOTE,
                    f"# t = {_fmt(t)}",
                    f"# q_axis: min={_fmt(gt.q[0])} max={_fmt(gt.q[-1])} n={len(gt.q)}",
                    f"# p_axis: min={_fmt(gt.p[0])} max={_fmt(gt.p[-1])} n={len(gt.p)}"],
                   ["q", "p", "value"],
                   [qs for qs in q_txt for _ in p_txt], p_txt * len(q_txt),
                   gt.values.ravel())
    _write_json(os.path.join(out_dir, "mass_accounting.json"), accounting)
    return EXIT_OK


def cmd_probe(cfg, out_dir, args):
    _check_keys(cfg, ["barrier", "init", "detector", "times"], [], "config")
    barrier = _barrier_from_config(cfg["barrier"])
    init = _state_from_config(cfg["init"], "init")
    det = _state_from_config(cfg["detector"], "detector")
    times = _grid_from_config(cfg["times"], "times")

    def one(t):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = ev.gaussian_detection(init, det, barrier, float(t))
        return (t, res.w_total, res.w_t, res.w_r, res.w_s)

    rows = [one(t) for t in times]
    _write_csv(os.path.join(out_dir, "probe.csv"),
               [UNITS_NOTE], ["t", "w_total", "w_t", "w_r", "w_s"], *zip(*rows))
    try:
        t_star = ev.arrival_time_estimate(init, det, barrier)
    except ZeroDivisionError:
        t_star = math.nan
    _write_json(os.path.join(out_dir, "arrival.json"),
                {"t_star": t_star})
    return EXIT_OK


def cmd_validate(cfg, out_dir, args):
    cfg = cfg or {}
    _check_keys(cfg, [], ["suites", "fast"], "config")
    names = cfg.get("suites")
    if names is not None and not (isinstance(names, list) and all(
            isinstance(n, str) and n in _v.SUITES for n in names)):
        raise ConfigError(f"suites: expected a list of names from {sorted(_v.SUITES)}")
    fast = cfg.get("fast", True)
    if not isinstance(fast, bool):
        raise ConfigError("fast: expected true or false")
    report = _v.run_suites(names, fast=fast, tolerance_override=args.tol)
    _write_json(os.path.join(out_dir, "validate_report.json"), report)
    for rec in report["checks"]:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"{status} {rec['suite']}: deviation {rec['deviation']:.3e} "
              f"(tol {rec['tolerance']:.3e})")
    return EXIT_OK if report["passed"] else EXIT_VALIDATION


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="wigner-tunnel",
        description="Phase-space propagators for 1D barrier scattering")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn, needs_cfg in (
            ("amplitudes", cmd_amplitudes, True),
            ("kernel", cmd_kernel, True),
            ("evolve", cmd_evolve, True),
            ("probe", cmd_probe, True),
            ("validate", cmd_validate, False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_cfg,
                       help="JSON configuration file")
        p.add_argument("--out", required=True, help="output directory")
        if name == "kernel":
            p.add_argument("--method", default=None, help="kernel method override")
        if name in ("kernel", "validate"):
            p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.set_defaults(fn=fn)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else None
        os.makedirs(args.out, exist_ok=True)
        return args.fn(cfg, args.out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MethodCompatibilityError, NonMeromorphicError) as exc:
        print(f"incompatible method: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except WignerTunnelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
