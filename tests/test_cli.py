import csv
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from unittest import mock

import numpy as np
import pytest

from wigner_tunnel import cli
from wigner_tunnel import evolution as ev
from wigner_tunnel import validate as wt_validate
from wigner_tunnel.barriers import DeltaBarrier, PoschlTellerBarrier
from wigner_tunnel.kernels import kernel_by_quadrature, pt_kernels


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

    def test_q_major_rows_match_columns_on_edge_values(self, tmp_path, monkeypatch):
        # evolve's writer formats the values in numpy, in blocks of whole q
        # rows; its text must be what the generic writer makes of q, p and
        # value columns, wherever the blocks split the grid
        q = np.array([-1.5, -0.0, 5e-324, 1e300])
        p = np.array([-0.0, 0.1, -2.0 ** 0.5])
        values = np.array([[-0.0, math.nan, math.inf],
                           [-math.inf, 5e-324, -1e-310],
                           [0.0, 1.0 / 3.0, 123456789.123456789],
                           [1e-300, -5e-324, 2.0]])
        head, names = ["# h"], ["q", "p", "value"]
        generic, q_major = tmp_path / "generic.csv", tmp_path / "q_major.csv"
        cli._write_csv(str(generic), head, names,
                       [g17(x) for x in q for _ in p], [g17(x) for x in p] * len(q),
                       values.ravel())
        # one block, two blocks of two q rows, one q row per block
        for block in (cli._BLOCK, 2 * len(p), 1):
            monkeypatch.setattr(cli, "_BLOCK", block)
            cli._write_csv(str(q_major), head, names, values.ravel(), q_major=(q, p))
            assert q_major.read_bytes() == generic.read_bytes(), block
        for line in ("-1.5,-0,-0", "-0,-0,-inf", "4.9406564584124654e-324,-0,0"):
            assert f"\n{line}\n" in generic.read_text()

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


KERNEL_CFG = delta_cfg({"p": 1.0, "r_grid": {"min": 0.5, "max": 2.0, "n": 4}})


@pytest.mark.parametrize("command, cfg, extra, key", [
    ("amplitudes", {"kappa_grid": {"min": 0.5, "max": 1.0, "n": "5"}}, [], "kappa_grid.n"),
    ("amplitudes", {"kappa_grid": {"min": "a", "max": 1.0, "n": 3}}, [], "kappa_grid.min"),
    ("amplitudes", {"kappa_grid": {"values": [0.5, "x"]}}, [], "kappa_grid.values"),
    ("amplitudes", {"kappa_grid": {"min": 0.5, "max": 1.0, "n": 2.7}}, [], "kappa_grid.n"),
    ("amplitudes", {"kappa_grid": {"min": 0.5, "max": math.nan, "n": 3}}, [],
     "kappa_grid.max"),
    ("kernel", {"n_poles": 0, "method": "residues"}, [], "n_poles"),
    ("kernel", {"n_poles": -3, "method": "residues"}, [], "n_poles"),
    ("kernel", {"n_poles": "x", "method": "residues"}, [], "n_poles"),
    ("kernel", {"n_poles": 2.5, "method": "residues"}, [], "n_poles"),
    ("kernel", {"tol": "x"}, [], "tol"),
    ("kernel", {"tol": 0}, [], "tol"),
    ("kernel", {"tol": -1.0}, [], "tol"),
    ("kernel", {}, ["--tol", 0.0], "tol"),
    ("kernel", {"p": "x"}, [], "p"),
    ("amplitudes", {"kappa_grid": 5}, [], "kappa_grid"),
    ("probe", {"init": {"Q": None, "P": 1.0, "lambda": 25.0}}, [], "init.Q"),
    ("probe", {"detector": {"Q": 40.0, "P": 1.0, "lambda": math.nan}}, [], "detector.lambda"),
], ids=["n_string", "min_string", "values_string", "n_fraction", "max_nan",
        "n_poles_zero", "n_poles_negative", "n_poles_string", "n_poles_fraction",
        "tol_string", "tol_zero", "tol_negative", "tol_flag_zero", "p_string",
        "grid_number", "state_null", "state_nan"])
def test_malformed_config_number_is_config_error(tmp_path, capsys, command, cfg, extra, key):
    base = {"amplitudes": delta_cfg({}), "kernel": KERNEL_CFG,
            "probe": FLAG_CONFIGS["probe"]}[command]
    path = write_cfg(tmp_path, "c.json", {**base, **cfg})
    assert run([command, "--config", path, "--out", tmp_path / "out", *extra]) == 2
    assert f"config error: {key}:" in capsys.readouterr().err


TABLE_WITH = '[[-2, 0], [-1, 0.5], [0, %s], [1, 0.5], [2, 0]]'


@pytest.mark.parametrize("barrier, key", [
    ('{"kind": "delta", "v0": NaN}', "barrier.v0"),
    ('{"kind": "delta", "v0": Infinity}', "barrier.v0"),
    ('{"kind": "delta", "v0": 1e400}', "barrier.v0"),
    ('{"kind": "delta", "v0": true}', "barrier.v0"),
    ('{"kind": "poschl_teller", "v0": 1.0, "s": true}', "barrier.s"),
    ('{"kind": "numeric", "table": %s}' % (TABLE_WITH % "true"), "barrier.table"),
    ('{"kind": "numeric", "table": %s}' % (TABLE_WITH % '"1"'), "barrier.table"),
], ids=["v0_nan", "v0_infinity", "v0_overflow", "v0_bool", "s_bool", "table_bool",
        "table_string"])
def test_barrier_number_is_config_error(tmp_path, capsys, barrier, key):
    # each once ran, as nan rows or as 1.0
    path = tmp_path / "c.json"
    path.write_text('{"barrier": %s, "kappa_grid": {"min": 0.5, "max": 1.0, "n": 3}}' % barrier)
    assert run(["amplitudes", "--config", path, "--out", tmp_path / "out"]) == 2
    assert f"{key}: expected" in capsys.readouterr().err
    assert os.listdir(tmp_path / "out") == []


# run in a fresh interpreter: import the CLI, run the command given as JSON
# argv (if any) and print the scipy modules then loaded
IMPORT_SET_CODE = """
import json, sys
from wigner_tunnel import cli
args = json.loads(sys.argv[1])
if args:
    assert cli.main(args) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(args):
    src = os.path.dirname(os.path.dirname(cli.__file__))    # the package under test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SET_CODE, json.dumps(args)],
                          env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("command, cfg, extra", [
    (None, None, []),
    ("kernel", KERNEL_CFG, ["--method", "all"]),
    ("probe", FLAG_CONFIGS["probe"], []),
    ("evolve", FLAG_CONFIGS["evolve"], []),
], ids=["import", "delta_kernel_all", "delta_probe", "delta_evolve"])
def test_delta_commands_load_no_scipy(tmp_path, command, cfg, extra):
    # scipy is imported where it is called, and no delta route calls it:
    # evolve resamples and convolves its rows with numpy alone
    args = [] if command is None else [
        command, "--config", str(write_cfg(tmp_path, "c.json", cfg)),
        "--out", str(tmp_path / "out"), *extra]
    assert scipy_modules_after(args) == set()


PT_BARRIER = {"kind": "poschl_teller", "v0": 1.0, "s": 0.4}


@pytest.mark.parametrize("command, cfg, extra", [
    ("amplitudes", {"barrier": PT_BARRIER, "kappa_grid": {"min": 0.05, "max": 5.0, "n": 20}},
     []),
    ("kernel", {**KERNEL_CFG, "barrier": PT_BARRIER}, ["--method", "all"]),
    ("probe", {**FLAG_CONFIGS["probe"], "barrier": PT_BARRIER}, []),
    ("evolve", {**FLAG_CONFIGS["evolve"], "barrier": PT_BARRIER}, []),
], ids=["pt_amplitudes", "pt_kernel_all", "pt_probe", "pt_evolve"])
def test_pt_commands_load_no_scipy(tmp_path, command, cfg, extra):
    # the Poschl-Teller amplitudes and kernels take their Gamma functions
    # from specfun's numpy log-Gamma, and no route of these calls scipy:
    # kernel --method all runs the closed series, quadrature and residues
    args = [command, "--config", str(write_cfg(tmp_path, "c.json", cfg)),
            "--out", str(tmp_path / "out"), *extra]
    assert scipy_modules_after(args) == set()


TABLE = json.loads(TABLE_WITH % 1)


@pytest.mark.parametrize("kind", ["numeric", "eikonal"])
@pytest.mark.parametrize("command, cfg", [
    ("amplitudes", {"kappa_grid": {"min": 0.2, "max": 3.0, "n": 10}}),
    ("probe", FLAG_CONFIGS["probe"]),
], ids=["amplitudes", "probe"])
def test_table_commands_load_no_scipy(tmp_path, command, cfg, kind):
    # a table's spline, with its roots and critical points, is the package's own
    cfg = {**cfg, "barrier": {"kind": kind, "table": TABLE}}
    args = [command, "--config", str(write_cfg(tmp_path, "c.json", cfg)),
            "--out", str(tmp_path / "out")]
    assert scipy_modules_after(args) == set()


@pytest.mark.parametrize("command, entry, key", [
    ("amplitudes", {"kappa_grid": {"min": 0.5, "max": 1.0, "n": 1}}, "kappa_grid.n"),
    ("kernel", {"r_grid": {"min": 2.0, "max": 0.5, "n": 4}}, "r_grid"),
    ("evolve", {"times": [None]}, "times"),
    ("probe", {"times": {"min": 38.0, "max": 42.0}}, "times"),
])
def test_config_error_fits_no_table(tmp_path, capsys, command, entry, key):
    # every other key is checked before the barrier is built
    from wigner_tunnel import barriers

    base = {"kernel": KERNEL_CFG}.get(command) or FLAG_CONFIGS[command]
    cfg = {**base, "barrier": {"kind": "numeric", "table": TABLE}, **entry}
    with mock.patch.object(barriers, "_TabulatedPotential",
                           wraps=barriers._TabulatedPotential) as table:
        assert run([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                    "--out", tmp_path / "out"]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert table.call_count == 0


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

    def test_eikonal_kappa_on_barrier_top_is_config_error(self, tmp_path, capsys):
        # kappa = 1.0 of the grid puts kappa^2 on max V = 1 of the 41-row
        # sech^2 table, where the square-root branch is undefined
        q = np.linspace(-2.0, 2.0, 41)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "a.json", {
            "barrier": {"kind": "eikonal", "table": table},
            "kappa_grid": {"min": 0.5, "max": 1.5, "n": 3}})
        assert run(["amplitudes", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: kappa_grid:") and "kappa = 1.0 " in err
        assert not (tmp_path / "out" / "amplitudes.csv").exists()

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
            calls.append(np.size(kappa))
            return action(potential, kappa)

        monkeypatch.setattr(barriers, "eikonal_action", counted)
        q = np.linspace(-4.8, 4.8, 241)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "a.json", {
            "barrier": {"kind": "eikonal", "table": table},
            "kappa_grid": {"values": [0.5, 1.5, 3.0]}})
        assert run(["amplitudes", "--config", cfg, "--out", tmp_path]) == 0
        assert sum(calls) == 3
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

    def test_semiclassical_writes_its_error_estimate(self, tmp_path):
        q = np.linspace(-2.0, 2.0, 41)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "k.json", {
            "barrier": {"kind": "eikonal", "table": table},
            "p": 1.6, "r_grid": {"min": 0.1, "max": 1.3, "n": 4},
            "method": "semiclassical"})
        assert run(["kernel", "--config", cfg, "--out", tmp_path]) == 0
        errs = {float(r["truncation_error"])
                for r in read_csv(tmp_path / "kernel_semiclassical.csv")}
        assert len(errs) == 1
        assert 0.0 < errs.pop() < math.inf

    def test_residues_on_eikonal_is_incompatible(self, tmp_path):
        q = np.linspace(-2.0, 2.0, 101)
        table = [[float(x), float(np.exp(-x * x))] for x in q]
        cfg = write_cfg(tmp_path, "k.json", {
            "barrier": {"kind": "eikonal", "table": table},
            "p": 1.0, "r_grid": {"min": 0.1, "max": 2.0, "n": 5},
            "method": "residues"})
        assert run(["kernel", "--config", cfg, "--out", tmp_path]) == 3

    @pytest.mark.parametrize("kind", ["eikonal", "numeric"])
    def test_method_all_checks_every_method_first(self, tmp_path, capsys, monkeypatch, kind):
        # an eikonal table has no residues and no table a closed form, so
        # "all" exits 3 before the quadrature runs and writes no file
        monkeypatch.setattr(cli._k, "kernel_by_quadrature",
                            mock.Mock(side_effect=AssertionError("quadrature ran")))
        cfg = write_cfg(tmp_path, "k.json", {
            "barrier": {"kind": kind,
                        "table": [[-2, 0], [-1, 0.5], [0, 1], [1, 0.5], [2, 0]]},
            "p": 1.0, "r_grid": {"min": 0.1, "max": 2.0, "n": 5}})
        out = tmp_path / "out"
        assert run(["kernel", "--config", cfg, "--out", out, "--method", "all"]) == 3
        assert "incompatible method" in capsys.readouterr().err
        assert not any(out.iterdir())

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

    def test_numeric_residues_at_default_n_poles(self, tmp_path):
        # the Newton search finds 10 poles on the table; n_poles (default
        # 40) is an upper bound, so the sum takes those 10
        q = np.linspace(-2.0, 2.0, 41)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "k.json", {
            "barrier": {"kind": "numeric", "table": table},
            "p": 1.0, "r_grid": {"min": -0.95, "max": 4.55, "n": 12},
            "method": "residues"})
        assert run(["kernel", "--config", cfg, "--out", tmp_path]) == 0
        rows = read_csv(tmp_path / "kernel_residues.csv")
        r = np.array([float(row["r"]) for row in rows])
        far = r > 1.0
        t_pt, _ = pt_kernels(1.0, 0.4, 1.0, r[far])
        t_res = np.array([float(row["T_density"]) for row in rows])
        assert np.all(t_res[r < 0] == 0.0)
        assert np.max(np.abs(t_res[far] - t_pt)) < 1e-3

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

    def test_warnings_go_to_mass_accounting(self, tmp_path):
        # at t = 25 about a tenth of the packet's free paths have not passed
        # the barrier, which the propagator warns of once for that time
        cfg = write_cfg(tmp_path, "e.json", FLAG_CONFIGS["evolve"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "mass_accounting.json").read_text())
        assert len(report["warnings"]) == 1
        assert re.fullmatch(r"0\.\d+ of the incident mass has not classically cleared the "
                            r"barrier by t = 25; the asymptotic propagator is approximate here",
                            report["warnings"][0])

    def test_numeric_table_evolves(self, tmp_path):
        # the 41-row sech^2 table on [-2, 2] as a numeric barrier: each of the
        # 5 kernel rows (p > 0) is one Fourier quadrature of ODE-solved
        # amplitudes; at t = 40 the packet has cleared the barrier
        q = np.linspace(-2.0, 2.0, 41)
        table = [[float(x), float(1.0 / np.cosh(x / 0.4) ** 2)] for x in q]
        cfg = write_cfg(tmp_path, "e.json", {
            "barrier": {"kind": "numeric", "table": table},
            "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "q_axis": {"min": -150.0, "max": 110.0, "n": 200},
            "p_axis": {"min": -1.9, "max": 1.9, "n": 11}, "times": [40.0]})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "mass_accounting.json").read_text())
        assert report["warnings"] == []
        assert report["times"][0]["accounting_error"] < 1e-4

    @pytest.mark.parametrize("offset", [-10.0, 10.0], ids=["before", "after"])
    def test_not_cleared_warning_measures_the_share_behind(self, tmp_path, offset):
        # the share of |rho| on p > 0 whose free path q + 2pt is short of the
        # delta's far edge 0: above 1e-3 at t* - 10, below it at t* + 10
        state = ev.GaussianState(-40.0, 1.0, 25.0)
        t = round(ev.arrival_time_estimate(state, ev.GaussianState(40.0, 1.0, 25.0),
                                           DeltaBarrier(2.0)) + offset, 3)
        cfg = write_cfg(tmp_path, "e.json", dict(FLAG_CONFIGS["evolve"], times=[t]))
        assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "mass_accounting.json").read_text())
        q, p = np.linspace(-150.0, 110.0, 200), np.linspace(-1.9, 1.9, 41)
        rho = np.abs(ev.gaussian_to_grid(state, q, p).values[:, p > 0])
        share = np.sum(rho[q[:, None] + 2.0 * p[p > 0] * t < 0.0]) / np.sum(rho)
        if offset > 0:
            assert share < 1e-3
            assert report["warnings"] == []
        else:
            assert share > 1e-3
            assert report["warnings"] == [
                f"{share:.2g} of the incident mass has not classically cleared the barrier "
                f"by t = {t:g}; the asymptotic propagator is approximate here"]

    def test_include_interference_must_be_a_bool(self, tmp_path, capsys, monkeypatch):
        # the string "false" once turned interference on; true, false and an
        # absent key reach the propagator as they did
        calls = []
        propagate = ev.barrier_propagate

        def spy(*args, include_interference):
            calls.append(include_interference)
            return propagate(*args, include_interference=include_interference)

        monkeypatch.setattr(ev, "barrier_propagate", spy)
        outs = {}
        for name, extra in (("absent", {}), ("false", {"include_interference": False}),
                            ("true", {"include_interference": True})):
            cfg = write_cfg(tmp_path, f"{name}.json", dict(FLAG_CONFIGS["evolve"], **extra))
            assert run(["evolve", "--config", cfg, "--out", tmp_path / name]) == 0
            outs[name] = (tmp_path / name / "evolve_t0.csv").read_bytes()
        assert calls == [False, False, True]
        assert outs["absent"] == outs["false"] != outs["true"]
        cfg = write_cfg(tmp_path, "string.json",
                        dict(FLAG_CONFIGS["evolve"], include_interference="false"))
        assert run(["evolve", "--config", cfg, "--out", tmp_path / "string"]) == 2
        assert "config error: include_interference:" in capsys.readouterr().err
        assert calls == [False, False, True]

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

    def test_times_share_one_propagation(self, tmp_path, monkeypatch):
        # one barrier_propagate call serves every time; zero, repeated and
        # unsorted times write the files that single-time runs write
        times = [25.0, 0.0, 40.0, 25.0]
        calls = []
        propagate = ev.barrier_propagate

        def counted(*args, **kwargs):
            calls.append(args[2])
            return propagate(*args, **kwargs)

        monkeypatch.setattr(ev, "barrier_propagate", counted)
        base = {"barrier": {"kind": "delta", "v0": 2.0},
                "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
                "q_axis": {"min": -150.0, "max": 110.0, "n": 200},
                "p_axis": {"min": -1.9, "max": 1.9, "n": 41}}
        out = tmp_path / "all"
        assert run(["evolve", "--config", write_cfg(tmp_path, "all.json",
                                                    dict(base, times=times)),
                    "--out", out]) == 0
        assert calls == [times]
        report = json.loads((out / "mass_accounting.json").read_text())
        for idx, t in enumerate(times):
            one = tmp_path / f"one{idx}"
            assert run(["evolve", "--config", write_cfg(tmp_path, f"one{idx}.json",
                                                        dict(base, times=[t])),
                        "--out", one]) == 0
            assert ((out / f"evolve_t{idx}.csv").read_bytes()
                    == (one / "evolve_t0.csv").read_bytes()), t
            single = json.loads((one / "mass_accounting.json").read_text())
            assert report["times"][idx] == single["times"][0]

    def test_no_times_write_no_grids(self, tmp_path):
        cfg = write_cfg(tmp_path, "e.json", delta_cfg({
            "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "q_axis": {"min": -150.0, "max": 110.0, "n": 200},
            "p_axis": {"min": -1.9, "max": 1.9, "n": 41},
            "times": []}))
        assert run(["evolve", "--config", cfg, "--out", tmp_path / "out"]) == 0
        report = json.loads((tmp_path / "out" / "mass_accounting.json").read_text())
        assert report["times"] == []
        assert not list((tmp_path / "out").glob("*.csv"))

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

    @pytest.mark.parametrize("key, entry", [
        ("state", {"state": {"Q": -40.0, "P": -1.0, "lambda": 25.0}}),
        ("q_axis", {"q_axis": {"values": [-150, -100, -60, -40, -20, 0, 50, 110]}}),
        ("q_axis", {"q_axis": {"values": [110, 50, 0, -20, -40, -60, -100, -150]}}),
        ("p_axis", {"p_axis": {"values": [0.5, 1.0, 1.5]}}),
    ], ids=["negative_momentum", "nonuniform", "descending", "too_few"])
    def test_bad_state_or_axis_is_config_error(self, tmp_path, capsys, key, entry):
        # a packet reaching p <= 0, or an axis the grid cannot take
        payload = delta_cfg({
            "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "q_axis": {"min": -150.0, "max": 110.0, "n": 200},
            "p_axis": {"min": -1.9, "max": 1.9, "n": 41},
            "times": [25.0]})
        payload.update(entry)
        out = tmp_path / "out"
        assert run(["evolve", "--config", write_cfg(tmp_path, "e.json", payload),
                    "--out", out]) == 2
        assert f"config error: {key}" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("entry, message", [
        ({"q_axis": {"min": -45.0, "max": 110.0, "n": 200}},
         "q_axis: state leaks 7.86e-02 of its mass off the grid; "
         "q_axis should cover [-61.2132, -18.7868]"),
        ({"p_axis": {"min": 0.9, "max": 1.9, "n": 41}},
         "p_axis: state leaks 2.40e-01 of its mass off the grid; "
         "p_axis should cover [0.151472, 1.84853]"),
    ], ids=["q_axis", "p_axis"])
    def test_axis_short_of_the_packet_is_config_error(self, tmp_path, capsys, entry, message):
        # the packet (-40, 1, 25) spreads 6 widths to -40 +- 21.2 and 1 +- 0.85
        payload = delta_cfg({
            "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "q_axis": {"min": -150.0, "max": 110.0, "n": 200},
            "p_axis": {"min": -1.9, "max": 1.9, "n": 41},
            "times": [25.0]})
        payload.update(entry)
        out = tmp_path / "out"
        assert run(["evolve", "--config", write_cfg(tmp_path, "e.json", payload),
                    "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not any(out.iterdir())

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


class TestMergedPolePair:
    # at v0 s = 1/2 the two S-matrix pole families merge into double poles
    BARRIER = {"kind": "poschl_teller", "v0": 0.5, "s": 1.0}

    def _kernel_cfg(self, tmp_path):
        # r = 0.02 lies in the band |r| <= 0.05 s
        return write_cfg(tmp_path, "k.json", {
            "barrier": self.BARRIER, "p": 1.0,
            "r_grid": {"min": -1.98, "max": 6.02, "n": 21}})

    def test_evolve_accounts_mass(self, tmp_path):
        cfg = write_cfg(tmp_path, "e.json", {
            "barrier": self.BARRIER,
            "state": {"Q": -40.0, "P": 1.0, "lambda": 25.0},
            "q_axis": {"min": -150.0, "max": 110.0, "n": 400},
            "p_axis": {"min": -1.9, "max": 1.9, "n": 41},
            "times": [25.0]})
        assert run(["evolve", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "mass_accounting.json").read_text())
        assert report["times"][0]["accounting_error"] < 1e-4

    def test_closed_kernel_matches_quadrature(self, tmp_path):
        cfg = self._kernel_cfg(tmp_path)
        assert run(["kernel", "--config", cfg, "--out", tmp_path, "--method", "closed"]) == 0
        rows = read_csv(tmp_path / "kernel_closed.csv")
        r = np.array([float(row["r"]) for row in rows])
        kt, kr = kernel_by_quadrature(PoschlTellerBarrier(0.5, 1.0), 1.0, r, tol=1e-11)
        assert np.max(np.abs([float(row["T_density"]) for row in rows] - kt.density)) < 1e-8
        assert np.max(np.abs([float(row["R_density"]) for row in rows] - kr.density)) < 1e-8

    def test_residues_fail_with_clear_message(self, tmp_path, capsys):
        cfg = self._kernel_cfg(tmp_path)
        assert run(["kernel", "--config", cfg, "--out", tmp_path,
                    "--method", "residues"]) == 1
        assert "pole pair nearly degenerate" in capsys.readouterr().err


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


    @pytest.mark.parametrize("detector_q, expected", [
        (40.0, []),
        (0.0, ["detector overlaps the barrier region; closed-form detection "
               "assumes well-separated packets"])], ids=["clear", "overlap"])
    def test_warnings_go_to_arrival(self, tmp_path, detector_q, expected):
        cfg = dict(FLAG_CONFIGS["probe"],
                   detector={"Q": detector_q, "P": 1.0, "lambda": 25.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["probe", "--config", write_cfg(tmp_path, "p.json", cfg),
                        "--out", tmp_path]) == 0
        arrival = json.loads((tmp_path / "arrival.json").read_text())
        assert arrival["warnings"] == expected

    def test_negative_times_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.json", dict(
            FLAG_CONFIGS["probe"], times={"min": -10.0, "max": 10.0, "n": 3}))
        assert run(["probe", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "config error: times" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_one_detection_call_over_all_times(self, tmp_path, monkeypatch):
        calls = []

        def spy(init, det, barrier, t):
            calls.append(np.shape(t))
            return detection(init, det, barrier, t)

        detection = ev.gaussian_detection
        monkeypatch.setattr(ev, "gaussian_detection", spy)
        cfg = write_cfg(tmp_path, "p.json", FLAG_CONFIGS["probe"])
        assert run(["probe", "--config", cfg, "--out", tmp_path]) == 0
        assert calls == [(3,)]
        rows = read_csv(tmp_path / "probe.csv")
        init, det = ev.GaussianState(-40.0, 1.0, 25.0), ev.GaussianState(40.0, 1.0, 25.0)
        for row in rows:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                one = detection(init, det, DeltaBarrier(2.0), float(row["t"]))
            assert float(row["w_total"]) == pytest.approx(one.w_total, rel=1e-12)


class TestValidateCommand:
    def test_subset_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "v.json", {
            "suites": ["unitarity", "probability", "transients"],
            "fast": True})
        assert run(["validate", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["passed"]
        assert report["n_failed"] == 0
        assert report["warnings"] == []

    def test_warnings_go_to_report(self, tmp_path, monkeypatch):
        # the fast suites raise no warnings, so a suite that does stands in:
        # the report records each distinct message once, in first-seen
        # order, and nothing is shown
        def noisy(fast):
            for message in ("first", "second", "first"):
                warnings.warn(message)
            return [wt_validate._record("noisy", 0.0, 1.0)]

        monkeypatch.setitem(wt_validate.SUITES, "noisy", noisy)
        cfg = write_cfg(tmp_path, "v.json", {"suites": ["noisy"], "fast": True})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["validate", "--config", cfg, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "validate_report.json").read_text())
        assert report["passed"]
        assert report["warnings"] == ["first", "second"]

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
