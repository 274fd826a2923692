"""Checks of every CLI output the benchmark produces.

Each check reads what one command wrote and returns a list of failure
messages; an empty list means the output is correct. Tolerances come
from the package's acceptance criteria:

* grid detection read back from ``evolve_t*.csv`` against the closed
  form ``gaussian_detection``: 1e-3 relative (criterion 09);
* ``mass_accounting.json``: accounting error below 1e-4, the order of
  today's values (1e-6 to 1e-5);
* unitarity |a|^2 - |b|^2 = 1: 1e-10 for closed forms, 1e-6 for ODE
  amplitudes (criteria 01 and 06);
* kernel routes agree within 1e-6; for Poschl-Teller only where
  |r| >= 0.21, outside the band where the 40-pole truncation dominates
  (criteria 02 and 05);
* probe: w_total = w_t + w_r + 2 w_s and w_s^2 <= w_t w_r.

``digest`` fingerprints a command's outputs, so that a pass can be
checked against an earlier, fully checked one byte for byte.

Checks also fold their largest deviations into a ``diag`` dict, the
deterministic accuracy diagnostics of a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings

import numpy as np

from wigner_tunnel import barriers as _b
from wigner_tunnel import evolution as ev
from wigner_tunnel.errors import WignerTunnelError

DETECTION_REL_TOL = 1e-3
MASS_ACCOUNTING_TOL = 1e-4
UNITARITY_TOL_CLOSED = 1e-10
UNITARITY_TOL_ODE = 1e-6
KERNEL_TOL = 1e-6
PT_KERNEL_RMIN = 0.21

# accuracy diagnostics and their units
DIAGNOSTICS = {"detection_rel_err": "ratio", "mass_accounting_err": "ratio",
               "kernel_agreement": "abs", "unitarity_dev": "abs"}


def new_diagnostics():
    return dict.fromkeys(DIAGNOSTICS, 0.0)


def _worst(diag, key, value):
    diag[key] = max(diag[key], float(value))


def _axis(cfg):
    return np.linspace(cfg["min"], cfg["max"], int(cfg["n"]))


def read_csv(path):
    """Numeric columns of a CLI CSV file, keyed by header name."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    names = lines[0].strip().split(",")
    keep = [i for i, n in enumerate(names) if n != "method"]
    data = np.loadtxt(lines[1:], delimiter=",", usecols=keep, ndmin=2)
    return {names[i]: data[:, k] for k, i in enumerate(keep)}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def detectors(init, t):
    """Detectors centred on the free transmitted and reflected packets."""
    x = init.Q + 2.0 * init.P * t
    return (ev.GaussianState(x, init.P, init.lam),
            ev.GaussianState(-x, -init.P, init.lam))


def check_evolve(cfg, out_dir, diag):
    fails = []
    bar = _b.barrier_from_dict(cfg["barrier"])
    st = cfg["state"]
    init = ev.GaussianState(st["Q"], st["P"], st["lambda"])
    q_ax, p_ax = _axis(cfg["q_axis"]), _axis(cfg["p_axis"])
    for i, t in enumerate(cfg["times"]):
        cols = read_csv(os.path.join(out_dir, f"evolve_t{i}.csv"))
        n_q, n_p = len(q_ax), len(p_ax)
        if len(cols["value"]) != n_q * n_p:
            fails.append(f"evolve_t{i}: {len(cols['value'])} rows, want {n_q * n_p}")
            continue
        q, p = cols["q"][::n_p], cols["p"][:n_p]
        if not (np.allclose(q, q_ax, rtol=0, atol=1e-12)
                and np.allclose(p, p_ax, rtol=0, atol=1e-12)):
            fails.append(f"evolve_t{i}: axes differ from the config")
            continue
        grid = ev.WignerGrid(q, p, cols["value"].reshape(n_q, n_p))
        for det in detectors(init, t):
            w_grid = ev.detect(grid, ev.gaussian_to_grid(det, q, p))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                w_closed = ev.gaussian_detection(init, det, bar, t).w_total
            err = abs(w_grid - w_closed) / abs(w_closed)
            _worst(diag, "detection_rel_err", err)
            if not err <= DETECTION_REL_TOL:
                fails.append(f"evolve_t{i}: detection at Q={det.Q:.3f} off by "
                             f"{err:.3e} relative")
    acc = _read_json(os.path.join(out_dir, "mass_accounting.json"))
    if [rec["t"] for rec in acc["times"]] != list(cfg["times"]):
        fails.append("mass_accounting: times differ from the config")
    for rec in acc["times"]:
        err = rec["accounting_error"]
        _worst(diag, "mass_accounting_err", err)
        if not err <= MASS_ACCOUNTING_TOL:
            fails.append(f"mass_accounting: error {err:.3e} at t={rec['t']}")
    return fails


def check_amplitudes(cfg, out_dir, diag):
    fails = []
    kind = cfg["barrier"]["kind"]
    cols = read_csv(os.path.join(out_dir, "amplitudes.csv"))
    if not np.array_equal(cols["kappa"], _axis(cfg["kappa_grid"])):
        return ["amplitudes: kappa column differs from the config"]
    a = cols["re_a"] + 1j * cols["im_a"]
    b = cols["re_b"] + 1j * cols["im_b"]
    u = np.abs(a) ** 2 - np.abs(b) ** 2
    if not np.allclose(cols["unitarity"], u, rtol=1e-12, atol=1e-12):
        fails.append("amplitudes: unitarity column disagrees with a and b")
    if not np.allclose(cols["T"], 1.0 / np.abs(a) ** 2, rtol=1e-12, atol=0):
        fails.append("amplitudes: T column disagrees with 1/|a|^2")
    if not np.allclose(cols["R"], np.abs(b / a) ** 2, rtol=1e-10, atol=1e-15):
        fails.append("amplitudes: R column disagrees with |b/a|^2")
    if kind == "eikonal":
        # exp(iS) with b = 0: only |a| >= 1 (tunneling suppression) holds
        if np.any(cols["R"] != 0.0) or np.any(cols["T"] > 1.0 + 1e-12):
            fails.append("amplitudes: eikonal T > 1 or R != 0")
        return fails
    tol = UNITARITY_TOL_ODE if kind == "numeric" else UNITARITY_TOL_CLOSED
    dev = float(np.max(np.abs(u - 1.0)))
    _worst(diag, "unitarity_dev", dev)
    if not dev <= tol:
        fails.append(f"amplitudes: {kind} unitarity off by {dev:.3e}")
    return fails


def check_kernel(cfg, out_dir, diag):
    r_ax = _axis(cfg["r_grid"])
    agree = _read_json(os.path.join(out_dir, "agreement.json"))
    if agree["methods"] != ["quadrature", "residues", "closed"]:
        return [f"kernel: methods {agree['methods']}"]
    r = np.array([rec["r"] for rec in agree["per_r"]])
    dev = np.array([rec["deviation"] for rec in agree["per_r"]])
    if not np.array_equal(r, r_ax):
        return ["kernel: lag grid differs from the config"]
    tables = {m: read_csv(os.path.join(out_dir, f"kernel_{m}.csv"))
              for m in agree["methods"]}
    if not all(np.array_equal(cols["r"], r_ax) for cols in tables.values()):
        return ["kernel: a CSV lag grid differs from the config"]
    r_dev = np.abs(tables["quadrature"]["R_density"] - tables["closed"]["R_density"])
    mask = np.ones_like(r, dtype=bool)
    if cfg["barrier"]["kind"] == "poschl_teller":
        mask = np.abs(r) >= PT_KERNEL_RMIN
    worst = float(max(np.max(dev[mask]), np.max(r_dev[mask])))
    _worst(diag, "kernel_agreement", worst)
    return [] if worst <= KERNEL_TOL else [f"kernel: routes disagree by {worst:.3e}"]


def check_probe(cfg, out_dir, diag):
    fails = []
    cols = read_csv(os.path.join(out_dir, "probe.csv"))
    t_ax = _axis(cfg["times"])
    if not np.array_equal(cols["t"], t_ax):
        return ["probe: time column differs from the config"]
    w, wt, wr, ws = cols["w_total"], cols["w_t"], cols["w_r"], cols["w_s"]
    if not np.allclose(w, wt + wr + 2.0 * ws, rtol=1e-14, atol=1e-300):
        fails.append("probe: w_total != w_t + w_r + 2 w_s")
    if np.any(ws ** 2 > wt * wr * (1.0 + 1e-12)):
        fails.append("probe: w_s^2 > w_t w_r")
    t_star = _read_json(os.path.join(out_dir, "arrival.json"))["t_star"]
    if not (math.isfinite(t_star) and t_ax[0] <= t_star <= t_ax[-1]):
        fails.append(f"probe: arrival estimate {t_star} outside the sweep")
    return fails


def digest(out_dir):
    """SHA-256 over the names and bytes of every file in ``out_dir``."""
    h = hashlib.sha256()
    try:
        for name in sorted(os.listdir(out_dir)):
            h.update(name.encode("utf-8") + b"\0")
            with open(os.path.join(out_dir, name), "rb") as fh:
                h.update(fh.read())
    except OSError:
        return None
    return h.hexdigest()


CHECKS = {"evolve": check_evolve, "amplitudes": check_amplitudes,
          "kernel": check_kernel, "probe": check_probe}


def check(cmd, out_dir, diag):
    """Failure messages for the outputs of one command."""
    try:
        return CHECKS[cmd.command](cmd.config, out_dir, diag)
    except (OSError, ValueError, KeyError, IndexError, WignerTunnelError) as exc:
        return [f"{cmd.label}: unreadable output ({type(exc).__name__}: {exc})"]
