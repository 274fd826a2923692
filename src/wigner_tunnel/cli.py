"""Command-line front end: amplitudes, kernels, evolution, detection
sweeps, and the validation suite, all driven by JSON configs and emitting
CSV/JSON for external plotting.

Exit codes: 0 success, 2 config error, 3 method/barrier incompatibility,
4 validation failure. Output is byte-stable for a fixed config: no
timestamps, no seeded randomness, deterministic quadrature orders. Every
number in a CSV file is printed with ``%.17g``, so it reads back to the
same float; ``evolve`` writes its rows in q-major order, p varying
fastest. ``evolve``'s grid values are formatted in numpy
(``_g17_fields``), byte-identical to Python's ``%.17g``, with Python as
the fallback for the values the numpy digits cannot decide. Warnings of
``evolve``, ``probe`` and ``validate`` go into their JSON files, under
"warnings".

Importing this module loads numpy and no scipy module: the package
imports each scipy function inside the function that calls it. A command
then loads only the scipy subpackages its route uses, and a short command
does not wait for the ones it never calls. ``amplitudes``, ``probe``,
``evolve`` and ``kernel`` load none for any barrier kind, but for
``kernel --method semiclassical``, whose spline of the eikonal action is
``scipy.interpolate``'s (importing it alone takes longer than a delta
``kernel`` or ``probe`` run).
"""

from __future__ import annotations

import argparse
import functools
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
from .barriers import _is_real
from .errors import (
    BranchAmbiguityError,
    ConfigError,
    GridCoverageError,
    MethodCompatibilityError,
    NonMeromorphicError,
    WignerTunnelError,
    warning_messages,
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


# Grid values are formatted in numpy, one field of _FIELD bytes per value
# holding the "%.17g" text padded with _PAD, which no such text holds.
_FIELD = 24                 # len("-4.9406564584124654e-324")
_PAD = b"\0"
_BLOCK = 1 << 14            # most grid values formatted at once
_POW10_K = 300              # the table holds 10**k for |k| <= _POW10_K
_SPLIT = 134217729.0        # 2**27 + 1, Veltkamp's splitter


@functools.cache
def _pow10_table():
    """Rows hi, hi_head, hi_tail, lo over k = -_POW10_K.._POW10_K.

    hi is 10**k correctly rounded, lo the correctly rounded rest, and
    hi = hi_head + hi_tail splits hi into 26-bit halves. Only exact int
    arithmetic and correctly rounded int division are used.
    """
    rows = []
    for k in range(-_POW10_K, _POW10_K + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        m, d = hi.as_integer_ratio()
        lo = (num * d - m * den) / (den * d)
        c = _SPLIT * hi
        head = c - (c - hi)
        rows.append((hi, head, hi - head, lo))
    return np.array(rows).T.copy()


def _fixed_layouts():
    """Per exponent e in [-4, 16], where each byte of a fixed-notation field
    comes from: 0 pad, 1 sign, 2 point, 3 "0", 4 + i digit i."""
    out = np.zeros((21, _FIELD), np.intp)
    for e in range(-4, 17):
        if e >= 0:
            cols = [1, *range(4, 5 + e), 2, *range(5 + e, 21)]
        else:
            cols = [1, 3, 2] + [3] * (-e - 1) + list(range(4, 21))
        out[e + 4, :len(cols)] = cols
    return out


_FIXED = _fixed_layouts()


def _times_pow10(a, k):
    """a * 10**k as hi + lo, within about 1e-31 of it relative.

    hi + err is Dekker's exact product of a and the table's hi, by
    Veltkamp splits, since numpy has no fma; a times the table's lo adds
    the rest. Needs |a| and |a * 10**k| well inside the normal range.
    """
    hi, head, tail, lo = _pow10_table()[:, k + _POW10_K]
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    err = ((a_head * head - p) + a_head * tail + a_tail * head) + a_tail * tail
    return p, err + a * lo


def _decade_step(hi, lo):
    """+1, -1 or 0: the exponent's correction for y = hi + lo.

    Any y in [1e16 - 0.01, 1e17 + 0.01) is kept. Just outside [1e16, 1e17)
    both exponents round to the same text, and the margin is far wider than
    the product's error, so the correction cannot cycle.
    """
    return ((hi - 1e17) + lo >= 0.01).astype(np.int64) - ((hi - 1e16) + lo < -0.01)


def _g17_fields(x):
    """Fields of "%.17g" % v for the values v of x: (x.size, _FIELD) bytes.

    With e = floor(log10|v|), the 17 digits are round(y), y = |v| 10**(16 - e)
    formed by ``_times_pow10`` within 1e-14. log10 only guesses e, and
    ``_decade_step`` corrects it, so no last bit of a libm result matters.
    Python formats every value within 1e-9 of a rounding tie, outside
    [1e-280, 1e280) or not finite. Returns the fields, a view of a
    transposed array, and the indices Python formatted.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    a = np.abs(x)
    fast = (a >= 1e-280) & (a < 1e280)
    a[~fast] = 1.0          # keeps their arithmetic finite; their text is replaced
    e = np.floor(np.log10(a)).astype(np.int64)
    y_hi, y_lo = _times_pow10(a, 16 - e)
    rows, step = np.arange(a.size), _decade_step(y_hi, y_lo)
    while True:
        moved = step != 0
        if not moved.any():
            break
        rows, step = rows[moved], step[moved]
        e[rows] += step
        y_hi[rows], y_lo[rows] = h, l = _times_pow10(a[rows], 16 - e[rows])
        step = _decade_step(h, l)
    # every kept y_hi is above 1e16 - 0.01 - |y_lo| > 2**53, so an integer
    r = np.rint(y_lo)
    fast &= np.abs(np.abs(y_lo - r) - 0.5) >= 1e-9
    n = y_hi.astype(np.int64) + r.astype(np.int64)
    top = n == 10 ** 17
    n[top] = 10 ** 16
    e += top

    d = np.empty((17, a.size), np.uint8)     # digit i of n, as ASCII, in row i
    for part, digits in zip(np.divmod(n, 10 ** 9), (range(7, -1, -1), range(16, 7, -1))):
        part = part.astype(np.int32)
        for i in digits:
            q = part // 10
            d[i] = part - q * 10
            part = q
    d += ord("0")
    keep = np.empty((17, a.size), bool)      # digit i is not a trailing zero
    keep[16] = d[16] != ord("0")
    for i in range(15, -1, -1):
        np.logical_or(keep[i + 1], d[i] != ord("0"), out=keep[i])

    # scientific layout: sign, d0, point, d1..d16, "e", exponent sign, 3 digits
    f = np.zeros((_FIELD, a.size), np.uint8)
    f[0] = np.signbit(x) * np.uint8(ord("-"))
    f[1] = d[0]
    f[2] = keep[1] * np.uint8(ord("."))
    np.multiply(d[1:], keep[1:], out=f[3:19])
    f[19] = ord("e")
    f[20] = np.where(e < 0, ord("-"), ord("+"))
    ae = np.abs(e).astype(np.int32)
    hundreds, tens = ae // 100, ae // 10
    f[21] = np.where(hundreds > 0, hundreds + ord("0"), 0)
    f[22] = tens - hundreds * 10 + ord("0")
    f[23] = ae - tens * 10 + ord("0")

    # fixed notation for -4 <= e < 17, as C's %g, gathered by _FIXED
    sel = np.flatnonzero(fast & (e >= -4) & (e < 17))
    if sel.size:
        es = e[sel]
        ks = keep[:, sel] | (np.arange(17)[:, None] <= es)   # integer digits stay
        src = np.zeros((21, sel.size), np.uint8)
        src[1] = f[0, sel]
        src[3] = ord("0")
        src[4:] = d[:, sel] * ks
        point = np.maximum(es, -1)
        at = np.arange(sel.size)
        src[2] = ((point < 16) & ks[np.minimum(point + 1, 16), at]) * np.uint8(ord("."))
        f[:, sel] = src.ravel().take(_FIXED[es + 4].T * sel.size + at)

    zero = np.flatnonzero(x == 0)
    f[1:, zero] = 0
    f[1, zero] = ord("0")
    slow = np.flatnonzero(~fast & (x != 0))
    if slow.size:
        texts = np.array([(_NUM % v).encode() for v in x[slow].tolist()], f"S{_FIELD}")
        f[:, slow] = texts.view(np.uint8).reshape(-1, _FIELD).T
    return f.T, slow


def _axis_fields(axis):
    """Each value's "%.17g," text as a row of bytes padded with _PAD."""
    texts = [(_fmt(v) + ",").encode() for v in axis.tolist()]
    return np.array(texts).view(np.uint8).reshape(len(texts), -1)


def _grid_rows(q_text, p_text, values):
    """The CSV bytes of a block of grid rows: q, p and value, q-major."""
    wq, wp = q_text.shape[1], p_text.shape[1]
    block = np.empty(values.shape + (wq + wp + _FIELD + 1,), np.uint8)
    block[..., :wq] = q_text[:, None]
    block[..., wq:wq + wp] = p_text
    block[..., wq + wp:-1] = _g17_fields(values)[0].reshape(values.shape + (_FIELD,))
    block[..., -1] = ord("\n")
    return block.tobytes().translate(None, _PAD)


def _write_csv(path, header_lines, names, *columns, q_major=None):
    """Write equal-length columns as CSV rows below the header lines.

    A column of str is written as it is, any other column as floats with
    %.17g. The rows are filled from one %-template in a single pass.

    With ``q_major=(q, p)`` the one column holds a grid's values in
    q-major order, p varying fastest, and each row is written as q, p,
    value. The values are formatted in numpy by ``_g17_fields`` in blocks
    of at most ``_BLOCK``; the text is the same as from q, p and value
    columns.
    """
    head = "".join(line + "\n" for line in header_lines) + ",".join(names) + "\n"
    if q_major is not None:
        q, p = (np.asarray(axis, dtype=float) for axis in q_major)
        values = np.asarray(columns[0], dtype=float).reshape(len(q), len(p))
        q_text, p_text = _axis_fields(q), _axis_fields(p)
        rows = max(1, _BLOCK // len(p))
        # the list of blocks dies with the join, the joined bytes with the
        # decode: the file's text is held at most twice at once
        _atomic_write(path, b"".join([head.encode()] + [
            _grid_rows(q_text[i:i + rows], p_text, values[i:i + rows])
            for i in range(0, len(q), rows)]).decode("ascii"))
        return
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


def _integral(v, path, least):
    """A config count: an integral number >= least, as int."""
    if not (_is_real(v) and v == int(v) and v >= least):
        raise ConfigError(f"{path}: expected an integer >= {least}, got {v!r}")
    return int(v)


def _grid_from_config(cfg, path, n_min=2):
    """{"min": a, "max": b, "n": k} or {"values": [...]} -> ndarray."""
    if isinstance(cfg, dict) and "values" in cfg:
        _check_keys(cfg, ["values"], [], path)
        values = cfg["values"]
        if not (isinstance(values, list) and all(map(_is_real, values))):
            raise ConfigError(f"{path}.values: expected a list of finite numbers")
        arr = np.array(values, dtype=float)
    else:
        _check_keys(cfg, ["min", "max", "n"], [], path)
        for key in ("min", "max"):
            if not _is_real(cfg[key]):
                raise ConfigError(f"{path}.{key}: expected a finite number, got {cfg[key]!r}")
        n = _integral(cfg["n"], f"{path}.n", n_min)
        if cfg["max"] <= cfg["min"]:
            raise ConfigError(f"{path}: need max > min")
        arr = np.linspace(cfg["min"], cfg["max"], n)
    if arr.size == 0:
        raise ConfigError(f"{path}: empty grid")
    return arr


def _times_from_config(raw, path):
    """A list of finite numbers >= 0 -> list of float."""
    if not isinstance(raw, list) or not all(_is_real(t) and t >= 0 for t in raw):
        raise ConfigError(f"{path}: expected a list of finite numbers >= 0")
    return [float(t) for t in raw]


def _state_from_config(cfg, path):
    _check_keys(cfg, ["Q", "P", "lambda"], [], path)
    for key in ("Q", "P", "lambda"):
        if not _is_real(cfg[key]):
            raise ConfigError(f"{path}.{key}: expected a finite number, got {cfg[key]!r}")
    try:
        return ev.GaussianState(float(cfg["Q"]), float(cfg["P"]), float(cfg["lambda"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_amplitudes(cfg, out_dir, args):
    _check_keys(cfg, ["barrier", "kappa_grid"], [], "config")
    ks = _grid_from_config(cfg["kappa_grid"], "kappa_grid")
    if np.any(ks == 0):
        raise ConfigError("kappa_grid: kappa = 0 is not evaluable")
    barrier = _barrier_from_config(cfg["barrier"])

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

    try:
        amps = barrier.amplitude_a(ks), barrier.amplitude_b(ks), barrier.ba_ratio(ks)
    except BranchAmbiguityError as exc:   # an eikonal kappa^2 on the barrier top
        k = ks[np.argmin(np.abs(np.abs(ks) - math.sqrt(barrier.max_potential())))]
        raise ConfigError(f"kappa_grid: kappa = {float(k)!r} puts kappa^2 on max V, "
                          "where the eikonal square-root branch is undefined") from exc
    rows = [one(*row) for row in zip(ks, *amps)]
    _write_csv(os.path.join(out_dir, "amplitudes.csv"),
               [UNITS_NOTE, f"# barrier: {json.dumps(barrier.descriptor())[:160]}"],
               ["kappa", "re_a", "im_a", "re_b", "im_b",
                "unitarity", "T", "R"],
               *zip(*rows))
    return EXIT_OK


_KERNEL_METHODS = ("quadrature", "residues", "closed", "semiclassical", "all")


def _check_method(barrier, method):
    """Fail fast, before any work, when ``method`` cannot serve ``barrier``."""
    if method == "residues" and not barrier.is_meromorphic:
        raise NonMeromorphicError("eikonal amplitude has a branch point; no pole expansion")
    if method == "closed" and not isinstance(barrier, (_b.DeltaBarrier, _b.PoschlTellerBarrier)):
        raise MethodCompatibilityError(
            "closed-form kernels exist for delta and poschl_teller only")


def _kernel_one_method(barrier, method, p, r_grid, n_poles, tol):
    if method == "quadrature":
        kt, kr = _k.kernel_by_quadrature(barrier, p, r_grid, tol=tol)
        return kt.density, kr.density, np.full_like(r_grid, kt.error_estimate), None
    if method == "residues":
        kt = _k.kernel_by_residues(barrier, p, r_grid, n_poles)
        return kt.density, np.full_like(r_grid, np.nan), kt.truncation_error, None
    if method == "closed":
        t_d, r_d = _k.kernel_row(barrier, p, r_grid)   # reads r = 0 as 0+
        return t_d, r_d, np.zeros_like(r_grid), None
    if method == "semiclassical":
        res = _k.semiclassical_kernel(barrier, p, r_grid, mode="quadrature")
        regime = _k.small_lag_regime(barrier.integral_strength(), p, r_grid)
        flags = np.all(list(regime.values()), axis=0).astype(float)
        return np.asarray(res.value), np.full_like(r_grid, np.nan), \
            np.full_like(r_grid, res.error_estimate), flags
    raise ConfigError(f"unknown kernel method {method!r}")


def cmd_kernel(cfg, out_dir, args):
    _check_keys(cfg, ["barrier", "p", "r_grid"],
                ["method", "n_poles", "tol"], "config")
    p = cfg["p"]
    if not (_is_real(p) and p > 0):
        raise ConfigError(f"p: expected a finite number > 0 (incident from the left), "
                          f"got {p!r}")
    p = float(p)
    r_grid = _grid_from_config(cfg["r_grid"], "r_grid")
    method = args.method or cfg.get("method", "quadrature")
    if method not in _KERNEL_METHODS:
        raise ConfigError(f"method must be one of {_KERNEL_METHODS}")
    n_poles = _integral(cfg.get("n_poles", 40), "n_poles", 1)
    tol = args.tol if args.tol is not None else cfg.get("tol", 2e-7)
    if not (_is_real(tol) and tol > 0):
        raise ConfigError(f"tol: expected a finite number > 0, got {tol!r}")
    tol = float(tol)
    barrier = _barrier_from_config(cfg["barrier"])

    methods = ["quadrature", "residues", "closed"] if method == "all" else [method]
    for m in methods:
        _check_method(barrier, m)
    t_rows = []
    for m in methods:
        t_d, r_d, trunc, flags = _kernel_one_method(barrier, m, p, r_grid,
                                                    n_poles, tol)
        t_rows.append(t_d)
        names = ["r", "T_density", "R_density", "method", "truncation_error"]
        cols = [r_grid, t_d, r_d, [m] * len(r_grid), trunc]
        if flags is not None:
            names.append("regime_ok")
            cols.append(flags)
        _write_csv(os.path.join(out_dir, f"kernel_{m}.csv"),
                   [UNITS_NOTE, f"# p = {_fmt(p)}"], names, *cols)

    if method == "all":
        # the largest pairwise T deviation at each lag
        per_r = np.ptp(t_rows, axis=0)
        _write_json(os.path.join(out_dir, "agreement.json"), {
            "methods": methods,
            "max_deviation": float(np.max(per_r)),
            "per_r": [{"r": float(r), "deviation": float(d)}
                      for r, d in zip(r_grid, per_r)],
        })
    return EXIT_OK


def cmd_evolve(cfg, out_dir, args):
    _check_keys(cfg, ["barrier", "state", "q_axis", "p_axis", "times"],
                ["include_interference"], "config")
    state = _state_from_config(cfg["state"], "state")
    q_axis = _grid_from_config(cfg["q_axis"], "q_axis", n_min=8)
    p_axis = _grid_from_config(cfg["p_axis"], "p_axis", n_min=8)
    for path, axis in (("q_axis", q_axis), ("p_axis", p_axis)):
        try:
            ev._check_axis(path, axis, n_min=8)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    times = _times_from_config(cfg["times"], "times")
    interference = cfg.get("include_interference", False)
    if not isinstance(interference, bool):
        raise ConfigError("include_interference: expected true or false")
    try:
        grid0 = ev.gaussian_to_grid(state, q_axis, p_axis)
    except GridCoverageError as exc:
        # a leak over 1e-6 leaves at least one axis short of its +-6 widths
        short = [(name, lo, hi) for name, axis, (lo, hi) in
                 (("q_axis", q_axis, exc.suggested_q), ("p_axis", p_axis, exc.suggested_p))
                 if axis[0] > lo or axis[-1] < hi]
        raise ConfigError(f"{', '.join(name for name, _, _ in short)}: {exc}; " + "; ".join(
            f"{name} should cover [{lo:.6g}, {hi:.6g}]" for name, lo, hi in short)) from exc
    try:
        ev._check_incident(grid0)
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc
    barrier = _barrier_from_config(cfg["barrier"])
    if isinstance(barrier, _b.EikonalBarrier):
        raise MethodCompatibilityError(
            "evolve cannot close the mass accounting on an eikonal barrier: its b is "
            "identically 0 while |a|^-2 < 1 below the top, so the reflected sector is empty")

    marg = grid0.momentum_marginal()
    pos = p_axis > 0
    a = barrier.amplitude_a(p_axis[pos])
    t_of_p = 1.0 / np.hypot(a.real, a.imag) ** 2      # |a|^-2, as total_probabilities
    pred_t = float(np.trapezoid(t_of_p * marg[pos], p_axis[pos]))
    initial = grid0.mass()

    accounting = {"initial_mass": initial, "predicted_transmitted": pred_t,
                  "predicted_reflected": initial - pred_t, "times": []}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        grids = ev.barrier_propagate(grid0, barrier, times,
                                     include_interference=interference)
    accounting["warnings"] = warning_messages(caught)
    for idx, (t, gt) in enumerate(zip(times, grids)):
        m_t, m_r = ev.sector_masses(gt)
        accounting["times"].append({
            "t": t, "transmitted": m_t, "reflected": m_r,
            "total": m_t + m_r,
            "accounting_error": abs(m_t + m_r - initial) / initial,
        })
        _write_csv(os.path.join(out_dir, f"evolve_t{idx}.csv"),
                   [UNITS_NOTE,
                    f"# t = {_fmt(t)}",
                    f"# q_axis: min={_fmt(gt.q[0])} max={_fmt(gt.q[-1])} n={len(gt.q)}",
                    f"# p_axis: min={_fmt(gt.p[0])} max={_fmt(gt.p[-1])} n={len(gt.p)}"],
                   ["q", "p", "value"], gt.values.ravel(), q_major=(gt.q, gt.p))
    _write_json(os.path.join(out_dir, "mass_accounting.json"), accounting)
    return EXIT_OK


def cmd_probe(cfg, out_dir, args):
    _check_keys(cfg, ["barrier", "init", "detector", "times"], [], "config")
    init = _state_from_config(cfg["init"], "init")
    det = _state_from_config(cfg["detector"], "detector")
    times = _grid_from_config(cfg["times"], "times")
    if np.any(times < 0):
        raise ConfigError("times: expected finite numbers >= 0")
    barrier = _barrier_from_config(cfg["barrier"])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = ev.gaussian_detection(init, det, barrier, times)
    _write_csv(os.path.join(out_dir, "probe.csv"),
               [UNITS_NOTE], ["t", "w_total", "w_t", "w_r", "w_s"],
               times, res.w_total, res.w_t, res.w_r, res.w_s)
    try:
        t_star = ev.arrival_time_estimate(init, det, barrier)
    except ZeroDivisionError:
        t_star = math.nan
    _write_json(os.path.join(out_dir, "arrival.json"),
                {"t_star": t_star, "warnings": warning_messages(caught)})
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
