import csv
import json
import math
import time
import warnings

import numpy as np
import pytest

from wigner_tunnel import cli
from wigner_tunnel import evolution as ev
from wigner_tunnel import validate as wt_validate
from wigner_tunnel.barriers import DeltaBarrier, PoschlTellerBarrier
from wigner_tunnel.kernels import pt_kernels


def run(args):
    return cli.main([str(a) for a in args])


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    with open(path) as fh:
        rows = [r for r in fh if not r.startswith("#")]
    reader = csv.DictReader(rows)
    return list(reader)


def g17(x):
    return format(float(x), ".17g")


def frozen_row_csv(header_lines, names, rows):
    """The row-tuple CSV writer the columnar one replaced, kept to pin bytes."""
    lines = list(header_lines)
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, str) else g17(c) for c in row))
    return "\n".join(lines) + "\n"


def assert_same_text(actual, expected):
    # pytest's own diff of two multi-megabyte strings takes minutes
    if actual != expected:
        a, e = actual.split("\n"), expected.split("\n")
        i = next((i for i, (x, y) in enumerate(zip(a, e)) if x != y), min(len(a), len(e)))
        pytest.fail(f"text differs at line {i}: {a[i:i + 1]} != {e[i:i + 1]}")


def delta_cfg(extra):
    cfg = {"barrier": {"kind": "delta", "v0": 2.0}}
    cfg.update(extra)
    return cfg


class TestCsvWriter:
    def test_matches_row_writer_on_edge_values(self, tmp_path):
        x = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300,
             np.float64(0.1), np.float32(1 / 3), 7, np.int64(-3)]
        y = np.array([1e-300, -1e300, 0.0, -0.0, math.nan, 2.0 ** 0.5,
                      -5e-324, 1.0, 123456789.123456789, -math.inf])
        label = ["a", "b c", "-0", "nan", "", "x", "y", "z", "1e300", "q"]
        head = ["# units line", "# p = 1"]
        names = ["x", "label", "y"]
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), head, names, x, label, y)
        expected = frozen_row_csv(head, names, zip(x, label, y))
        assert_same_text(path.read_text(encoding="utf-8"), expected)
        for line in ("-0,a,1e-300", "inf,-0,0", "-inf,nan,-0",
                     "4.9406564584124654e-324,", "-3,q,-inf"):
            assert f"\n{line}" in expected

    def test_empty_and_ragged_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_csv(str(path), ["# h"], ["a", "b"], [], np.array([]))
        assert path.read_text() == frozen_row_csv(["# h"], ["a", "b"], [])
        with pytest.raises(ValueError):
            cli._write_csv(str(path), [], ["a", "b"], [1.0], [1.0, 2.0])


# a small valid config per command, so that only the flag can fail the call
FLAG_CONFIGS = {
    "amplitudes": delta_cfg({"kappa_grid": {"min": 0.5, "max": 1.0, "n": 3}}),
    "evolve": delta_cfg({
        "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
        "q_axis": {"min": -150.0, "max": 110.0, "n": 200},
        "p_axis": {"min": -1.9, "max": 1.9, "n": 41}, "times": [25.0]}),
    "probe": delta_cfg({
        "init": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
        "detector": {"Q": 40.0, "P": 1.0, "lambda": 25.0},
        "times": {"min": 38.0, "max": 42.0, "n": 3}}),
    "validate": {"suites": ["probability"], "fast": True},
}


@pytest.mark.parametrize("command, flag, value", [
    ("amplitudes", "--method", "all"), ("amplitudes", "--tol", 1e-3),
    ("evolve", "--method", "all"), ("evolve", "--tol", 1e-3),
    ("probe", "--method", "all"), ("probe", "--tol", 1e-3),
    ("validate", "--method", "all")])
def test_flag_a_command_does_not_read_is_rejected(tmp_path, capsys, command, flag, value):
    cfg = write_cfg(tmp_path, "c.json", FLAG_CONFIGS[command])
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", cfg, "--out", tmp_path / "out", flag, value])
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestAmplitudesCommand:
    def test_unitarity_column(self, tmp_path):
        cfg = write_cfg(tmp_path, "a.json", delta_cfg(
            {"kappa_grid": {"min": 0.1, "max": 5.0, "n": 60}}))
        assert run(["amplitudes", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "amplitudes.csv")
        assert len(rows) == 60
        dev = max(abs(float(r["unitarity"]) - 1.0) for r in rows)
        assert dev < 1e-10

    def test_pt_vs_numeric_cross_method(self, tmp_path):
        cfg_pt = write_cfg(tmp_path, "pt.json", {
            "barrier": {"kind": "poschl_teller", "v0": 1.0, "s": 0.4},
            "kappa_grid": {"min": 0.2, "max": 3.0, "n": 15}})
        out_pt = tmp_path / "pt"
        assert run(["amplitudes", "--config", cfg_pt, "--out", out_pt]) == 0
        q = np.linspace(-4.8, 4.8, 1201)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg_num = write_cfg(tmp_path, "num.json", {
            "barrier": {"kind": "numeric", "table": table},
            "kappa_grid": {"min": 0.2, "max": 3.0, "n": 15}})
        out_num = tmp_path / "num"
        assert run(["amplitudes", "--config", cfg_num, "--out", out_num]) == 0
        rows_pt = read_csv(out_pt / "amplitudes.csv")
        rows_num = read_csv(out_num / "amplitudes.csv")
        worst = max(
            abs(complex(float(a["re_a"]), float(a["im_a"]))
                - complex(float(b["re_a"]), float(b["im_a"])))
            for a, b in zip(rows_pt, rows_num))
        assert worst < 1e-6

    def test_empty_grid_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "a.json", delta_cfg({"kappa_grid": {"values": []}}))
        assert run(["amplitudes", "--config", cfg, "--out", tmp_path]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "a.json", delta_cfg(
            {"kappa_grid": {"min": 0.1, "max": 1.0, "n": 4}, "bogus": 1}))
        assert run(["amplitudes", "--config", cfg, "--out", tmp_path]) == 2

    def test_missing_config_file(self, tmp_path):
        assert run(["amplitudes", "--config", tmp_path / "nope.json",
                    "--out", tmp_path]) == 2

    @pytest.mark.parametrize("barrier", [{"kind": "delta", "v0": 2.0},
                                         {"kind": "poschl_teller", "v0": 1.0, "s": 0.4}])
    def test_kappa_near_zero_is_config_error(self, tmp_path, capsys, barrier):
        # |a| ~ 1/kappa, so |a|^2 leaves the double range below kappa ~ 1e-154
        cfg = write_cfg(tmp_path, "a.json", {"barrier": barrier,
                                             "kappa_grid": {"values": [0.5, 1e-160]}})
        assert run(["amplitudes", "--config", cfg, "--out", tmp_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1e-160" in err

    def test_numeric_runs_one_ode_system_per_amplitude_call(self, tmp_path, monkeypatch):
        from wigner_tunnel import barriers
        sizes = []
        solve = barriers.NumericBarrier._solve

        def counted(self, kappa):
            sizes.append(np.size(kappa))
            return solve(self, kappa)

        monkeypatch.setattr(barriers.NumericBarrier, "_solve", counted)
        q = np.linspace(-4.8, 4.8, 241)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "a.json", {
            "barrier": {"kind": "numeric", "table": table},
            "kappa_grid": {"min": 0.2, "max": 3.0, "n": 10}})
        assert run(["amplitudes", "--config", cfg, "--out", tmp_path]) == 0
        assert sizes == [10, 10, 10]   # a, b and b/a

    def test_one_eikonal_action_per_kappa(self, tmp_path, monkeypatch):
        from wigner_tunnel import barriers
        calls = []
        action = barriers.eikonal_action

        def counted(potential, kappa):
            calls.append(kappa)
            return action(potential, kappa)

        monkeypatch.setattr(barriers, "eikonal_action", counted)
        q = np.linspace(-4.8, 4.8, 241)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "a.json", {
            "barrier": {"kind": "eikonal", "table": table},
            "kappa_grid": {"values": [0.5, 1.5, 3.0]}})
        assert run(["amplitudes", "--config", cfg, "--out", tmp_path]) == 0
        assert len(calls) == 3
        for row in read_csv(tmp_path / "amplitudes.csv"):
            a = complex(float(row["re_a"]), float(row["im_a"]))
            assert float(row["T"]) == 1.0 / abs(a) ** 2
            assert float(row["R"]) == 0.0


class TestKernelCommand:
    def test_method_all_agreement(self, tmp_path):
        cfg = write_cfg(tmp_path, "k.json", delta_cfg({
            "p": 1.0, "r_grid": {"min": -1.95, "max": 9.95, "n": 36},
            "method": "all"}))
        assert run(["kernel", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "agreement.json").read_text())
        assert set(report["methods"]) == {"quadrature", "residues", "closed"}
        assert report["max_deviation"] < 1e-6

    def test_negative_lags_vanish_for_exact_methods(self, tmp_path):
        cfg = write_cfg(tmp_path, "k.json", delta_cfg({
            "p": 1.0, "r_grid": {"min": -2.0, "max": -0.1, "n": 9},
            "method": "closed"}))
        assert run(["kernel", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "kernel_closed.csv")
        assert all(float(r["T_density"]) == 0.0 for r in rows)
        assert all(float(r["R_density"]) == 0.0 for r in rows)

    def test_semiclassical_regime_flag_column(self, tmp_path):
        q = np.linspace(-6.8, 6.8, 801)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "k.json", {
            "barrier": {"kind": "eikonal", "table": table},
            "p": 0.5, "r_grid": {"min": 0.5, "max": 6.0, "n": 7},
            "method": "semiclassical"})
        assert run(["kernel", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "kernel_semiclassical.csv")
        assert "regime_ok" in rows[0]
        flags = [float(r["regime_ok"]) for r in rows]
        assert 0.0 in flags    # p/w condition violated somewhere on the grid

    def test_residues_on_eikonal_is_incompatible(self, tmp_path):
        q = np.linspace(-2.0, 2.0, 101)
        table = [[float(x), float(np.exp(-x * x))] for x in q]
        cfg = write_cfg(tmp_path, "k.json", {
            "barrier": {"kind": "eikonal", "table": table},
            "p": 1.0, "r_grid": {"min": 0.1, "max": 2.0, "n": 5},
            "method": "residues"})
        assert run(["kernel", "--config", cfg, "--out", tmp_path]) == 3

    def test_numeric_quadrature_matches_pt_closed_form(self, tmp_path):
        # a 41-row sech^2 table on [-2, 2] samples the PT barrier (1.0, 0.4);
        # the Fourier quadrature needs amplitudes out to kappa of a few hundred
        q = np.linspace(-2.0, 2.0, 41)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "k.json", {
            "barrier": {"kind": "numeric", "table": table},
            "p": 1.0, "r_grid": {"min": -0.95, "max": 4.55, "n": 12},
            "method": "quadrature"})
        start = time.perf_counter()
        assert run(["kernel", "--config", cfg, "--out", tmp_path]) == 0
        assert time.perf_counter() - start < 30.0
        rows = read_csv(tmp_path / "kernel_quadrature.csv")
        r = np.array([float(row["r"]) for row in rows])
        t_pt, r_pt = pt_kernels(1.0, 0.4, 1.0, r)
        assert np.max(np.abs([float(row["T_density"]) for row in rows] - t_pt)) < 1e-3
        assert np.max(np.abs([float(row["R_density"]) for row in rows] - r_pt)) < 1e-3

    def test_byte_stable_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, "k.json", delta_cfg({
            "p": 1.0, "r_grid": {"min": 0.1, "max": 5.0, "n": 12},
            "method": "quadrature"}))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["kernel", "--config", cfg, "--out", out1]) == 0
        assert run(["kernel", "--config", cfg, "--out", out2]) == 0
        assert (out1 / "kernel_quadrature.csv").read_bytes() == \
            (out2 / "kernel_quadrature.csv").read_bytes()


class TestEvolveCommand:
    def _cfg(self, tmp_path, v0):
        return write_cfg(tmp_path, "e.json", {
            "barrier": {"kind": "delta", "v0": v0},
            "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "q_axis": {"min": -150.0, "max": 110.0, "n": 650},
            "p_axis": {"min": -1.9, "max": 1.9, "n": 96},
            "times": [25.0]})

    def test_vanishing_barrier_matches_free_shear(self, tmp_path):
        from wigner_tunnel.evolution import (GaussianState, free_propagate,
                                             gaussian_to_grid)
        cfg = self._cfg(tmp_path, 1e-12)
        assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "evolve_t0.csv")
        q = np.linspace(-150.0, 110.0, 650)
        p = np.linspace(-1.9, 1.9, 96)
        ref = free_propagate(gaussian_to_grid(GaussianState(-40.0, 1.0, 25.0),
                                              q, p), 25.0)
        vals = np.array([float(r["value"]) for r in rows]).reshape(650, 96)
        assert np.max(np.abs(vals - ref.values)) < 1e-7

    def test_mass_accounting_report(self, tmp_path):
        cfg = self._cfg(tmp_path, 2.0)
        assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "mass_accounting.json").read_text())
        entry = report["times"][0]
        assert entry["accounting_error"] < 1e-4
        assert entry["transmitted"] == pytest.approx(
            report["predicted_transmitted"], rel=1e-3)

    def test_csv_matches_row_writer(self, tmp_path):
        q = np.linspace(-150.0, 110.0, 650)
        p = np.linspace(-1.9, 1.9, 96)
        cfg = self._cfg(tmp_path, 2.0)
        assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 0
        grid0 = ev.gaussian_to_grid(ev.GaussianState(-40.0, 1.0, 25.0), q, p)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            gt = ev.barrier_propagate(grid0, DeltaBarrier(2.0), 25.0)
        rows = [(qv, pv, gt.values[i, j])
                for i, qv in enumerate(gt.q) for j, pv in enumerate(gt.p)]
        expected = frozen_row_csv(
            [cli.UNITS_NOTE, "# t = 25",
             f"# q_axis: min={g17(q[0])} max={g17(q[-1])} n=650",
             f"# p_axis: min={g17(p[0])} max={g17(p[-1])} n=96"],
            ["q", "p", "value"], rows)
        assert_same_text((tmp_path / "evolve_t0.csv").read_text(encoding="utf-8"),
                         expected)

    def test_rounded_zero_momentum_node(self, tmp_path):
        # the middle p node rounds to -2.2e-16; at P = 0.958 its mirrored
        # row clears the propagation floor, which once failed the PT kernels
        cfg = write_cfg(tmp_path, "e.json", {
            "barrier": {"kind": "poschl_teller", "v0": 1.06, "s": 0.3866},
            "state": {"Q": -40.0, "P": 0.958, "lambda": 25.0},
            "q_axis": {"min": -160.0, "max": 120.0, "n": 800},
            "p_axis": {"min": -1.9, "max": 1.9, "n": 61},
            "times": [40.0]})
        assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "mass_accounting.json").read_text())
        assert report["times"][0]["accounting_error"] < 1e-4

    @pytest.mark.parametrize("n_p", [41, 40])
    def test_eikonal_barrier_is_incompatible(self, tmp_path, capsys, n_p):
        # n_p = 41 puts a node at kappa^2 = max V, where the eikonal
        # amplitude has its branch point
        cfg = write_cfg(tmp_path, "e.json", {
            "barrier": {"kind": "eikonal",
                        "table": [[-2, 0], [-1, 0.5], [0, 1], [1, 0.5], [2, 0]]},
            "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "q_axis": {"min": -150.0, "max": 110.0, "n": 200},
            "p_axis": {"min": 0.2, "max": 1.8, "n": n_p},
            "times": [25.0]})
        assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 3
        err = capsys.readouterr().err
        assert "evolve" in err and "eikonal" in err

    @pytest.mark.parametrize("times", [40, "40", [-5.0], [None]],
                             ids=["number", "string", "negative", "null"])
    def test_bad_times_is_config_error(self, tmp_path, capsys, times):
        cfg = write_cfg(tmp_path, "e.json", delta_cfg({
            "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "q_axis": {"min": -150.0, "max": 110.0, "n": 200},
            "p_axis": {"min": -1.9, "max": 1.9, "n": 41},
            "times": times}))
        assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 2
        assert "config error: times" in capsys.readouterr().err


class TestProbeCommand:
    def test_sweep_and_arrival(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.json", {
            "barrier": {"kind": "delta", "v0": 2.0},
            "init": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "detector": {"Q": 40.0, "P": 1.0, "lambda": 25.0},
            "times": {"min": 32.0, "max": 48.0, "n": 17}})
        assert run(["probe", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "probe.csv")
        assert len(rows) == 17
        arrival = json.loads((tmp_path / "arrival.json").read_text())
        assert arrival["t_star"] == pytest.approx(40.25, rel=1e-9)
        ws = np.array([float(r["w_total"]) for r in rows])
        ts = np.array([float(r["t"]) for r in rows])
        k = int(np.argmax(ws))
        coef = np.polyfit(ts[k - 1:k + 2], ws[k - 1:k + 2], 2)
        t_peak = -coef[1] / (2 * coef[0])
        assert arrival["t_star"] == pytest.approx(t_peak, rel=0.05)


class TestValidateCommand:
    def test_subset_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json", {
            "suites": ["unitarity", "probability", "transients"],
            "fast": True})
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["passed"]
        assert report["n_failed"] == 0

    @pytest.mark.parametrize("payload", [
        {"suites": ["unitarty"]}, {"suites": "unitarity"}, {"suites": [1]},
        {"fast": "no"}], ids=["misspelt", "string", "number", "fast_string"])
    def test_bad_config_is_config_error(self, tmp_path, capsys, payload):
        cfg = write_cfg(tmp_path, "v.json", payload)
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_zero_tolerance_fails_everything(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json", {
            "suites": ["unitarity", "probability"], "fast": True})
        assert run(["validate", "--config", cfg, "--out", tmp_path,
                    "--tol", 0.0]) == 4
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["n_failed"] == len(report["checks"])

    def test_injected_sign_error_trips_unitarity(self, monkeypatch):
        # mutation check: flip the sign convention of b and the unitarity
        # suite must fail
        original = PoschlTellerBarrier.amplitude_b

        def broken(self, kappa):
            val = original(self, kappa)
            return val + 0.05j * np.sign(np.real(np.atleast_1d(kappa)))[0] \
                if np.ndim(kappa) == 0 else val + 0.05j

        monkeypatch.setattr(PoschlTellerBarrier, "amplitude_b", broken)
        report = wt_validate.run_suites(["unitarity"], fast=True)
        assert not report["passed"]
