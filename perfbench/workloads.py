"""Seeded inputs for the benchmark workloads.

A workload is a list of CLI commands, each a JSON config plus extra
arguments. The seed perturbs the delta strength, the packet momentum,
the Poschl-Teller pair (v0, s) with v0*s kept away from 1/2, and the
width of the tabulated sech^2 table, inside ranges that keep each
workload's layer split. Evolution and probe times follow the
stationary-phase arrival estimate of the transmitted packet.

Grids are smaller than the acceptance grid (q 1600 x p 281) so that one
pass takes a few seconds and a run holds several passes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("evolve_delta", "evolve_pt", "spectra")

Q0 = -40.0          # initial packet centre
Q_DET = 40.0        # detector centre used for the arrival estimate
LAM = 25.0          # coordinate dispersion of packet and detector
Q_AXIS = {"min": -160.0, "max": 120.0, "n": 800}
P_AXIS_DELTA = {"min": -1.9, "max": 1.9, "n": 141}
P_AXIS_PT = {"min": -1.9, "max": 1.9, "n": 61}
R_GRID = {"min": -1.95, "max": 9.95, "n": 60}
TABLE_ROWS = 241


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``wigner-tunnel <command> --config <cfg> ...``."""
    label: str
    command: str
    config: dict
    extra: tuple = ()


def draw_params(seed):
    """The seeded physical parameters shared by every workload."""
    rng = np.random.default_rng(seed)
    params = {
        "delta_v0": rng.uniform(1.9, 2.1),
        # P >= 0.97 keeps the p = 0 row of the symmetric p axis below the
        # propagation floor (1e-10 of the peak): that node can round to
        # +2e-16, and the Poschl-Teller kernels fail there
        "P": rng.uniform(0.97, 1.03),
        # v0*s stays in [0.38, 0.42], away from the degenerate pole pair
        # of the Poschl-Teller barrier at v0*s = 1/2
        "pt_v0": rng.uniform(0.95, 1.05),
        # inside this window the reflected rows' lag lattice keeps the
        # same number of nodes in the quadrature band |r| <= 0.05 s
        # (4 rows, as at s = 0.4); a wider window swings the band
        # fallbacks between 0 and 30 rows and the pass time by ~50%
        "pt_s": rng.uniform(0.3985, 0.4005),
        "table_half_width": rng.uniform(4.6, 5.0),
    }
    return {k: round(float(v), 6) for k, v in params.items()}


def _state(P):
    return {"Q": Q0, "P": P, "lambda": LAM}


def _arrival_time(barrier_cfg, P):
    from wigner_tunnel import barriers, evolution

    bar = barriers.barrier_from_dict(barrier_cfg)
    init = evolution.GaussianState(Q0, P, LAM)
    det = evolution.GaussianState(Q_DET, P, LAM)
    return evolution.arrival_time_estimate(init, det, bar)


def _barriers(params):
    delta = {"kind": "delta", "v0": params["delta_v0"]}
    pt = {"kind": "poschl_teller", "v0": params["pt_v0"], "s": params["pt_s"]}
    return delta, pt


def _sech2_table(params):
    q = np.linspace(-params["table_half_width"], params["table_half_width"],
                    TABLE_ROWS)
    v = params["pt_v0"] ** 2 / np.cosh(q / params["pt_s"]) ** 2
    return [[float(x), float(y)] for x, y in zip(q, v)]


def _evolve(barrier, P, p_axis, offsets):
    t_star = _arrival_time(barrier, P)
    return Command("evolve", "evolve", {
        "barrier": barrier, "state": _state(P),
        "q_axis": Q_AXIS, "p_axis": p_axis,
        "times": [round(t_star + d, 3) for d in offsets],
    })


def _spectra(params):
    delta, pt = _barriers(params)
    P = params["P"]
    table = _sech2_table(params)
    cmds = [
        Command("amplitudes_numeric", "amplitudes", {
            "barrier": {"kind": "numeric", "table": table},
            "kappa_grid": {"min": 0.2, "max": 3.0, "n": 10}}),
        Command("amplitudes_eikonal", "amplitudes", {
            "barrier": {"kind": "eikonal", "table": table},
            "kappa_grid": {"min": 0.2, "max": 3.0, "n": 3}}),
        Command("amplitudes_pt", "amplitudes", {
            "barrier": pt, "kappa_grid": {"min": 0.05, "max": 5.0, "n": 400}}),
    ]
    for name, bar in (("delta", delta), ("pt", pt)):
        cmds.append(Command(f"kernel_{name}", "kernel",
                            {"barrier": bar, "p": P, "r_grid": R_GRID},
                            ("--method", "all")))
    # a PT detection costs ~40 ms against ~3 ms for delta
    for name, bar, n_times in (("delta", delta, 33), ("pt", pt, 17)):
        t_star = _arrival_time(bar, P)
        cmds.append(Command(f"probe_{name}", "probe", {
            "barrier": bar, "init": _state(P),
            "detector": {"Q": Q_DET, "P": P, "lambda": LAM},
            "times": {"min": round(t_star - 8.0, 3), "max": round(t_star + 8.0, 3),
                      "n": n_times}}))
    return cmds


def commands(workload, seed):
    """The CLI commands of one pass of ``workload`` for ``seed``."""
    params = draw_params(seed)
    delta, pt = _barriers(params)
    if workload == "evolve_delta":
        return [_evolve(delta, params["P"], P_AXIS_DELTA, (-10.0, 0.0, 10.0))]
    if workload == "evolve_pt":
        return [_evolve(pt, params["P"], P_AXIS_PT, (0.0,))]
    if workload == "spectra":
        return _spectra(params)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_configs(cmds, config_dir):
    """Write one JSON config per command; returns their paths in order."""
    os.makedirs(config_dir, exist_ok=True)
    paths = []
    for cmd in cmds:
        path = os.path.join(config_dir, f"{cmd.label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cmd.config, fh, indent=1, sort_keys=True)
        paths.append(path)
    return paths
