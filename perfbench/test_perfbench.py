"""Tests of the benchmark's own code: python3 -m pytest -q perfbench"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from wigner_tunnel import cli  # noqa: E402


def _run_cmd(cmd, tmp_path):
    cfg = workloads.write_configs([cmd], str(tmp_path / "cfg"))[0]
    out = str(tmp_path / cmd.label)
    assert cli.main([cmd.command, "--config", cfg, "--out", out, *cmd.extra]) == 0
    return out


def _corrupt_csv(path, row, column):
    """Add 1e-3 relative to one numeric cell of a CLI CSV file."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    first = next(i for i, ln in enumerate(lines) if not ln.startswith("#")) + 1
    cells = lines[first + row].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-3) + 1e-3)
    lines[first + row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert workloads.commands(workload, 7) == workloads.commands(workload, 7)
    assert workloads.commands(workload, 7) != workloads.commands(workload, 8)


def test_parameters_stay_in_their_ranges():
    for seed in range(50):
        p = workloads.draw_params(seed)
        assert 0.97 <= p["P"] <= 1.03
        assert 0.38 <= p["pt_v0"] * p["pt_s"] <= 0.42
        assert 1.9 <= p["delta_v0"] <= 2.1


def test_config_files_round_trip(tmp_path):
    cmds = workloads.commands("spectra", 3)
    paths = workloads.write_configs(cmds, str(tmp_path))
    for cmd, path in zip(cmds, paths):
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == json.loads(json.dumps(cmd.config))


def test_amplitude_corruption_is_caught(tmp_path):
    cmd = workloads.Command("amp", "amplitudes", {
        "barrier": {"kind": "poschl_teller", "v0": 1.0, "s": 0.4},
        "kappa_grid": {"min": 0.1, "max": 3.0, "n": 12}})
    out = _run_cmd(cmd, tmp_path)
    diag = checks.new_diagnostics()
    assert checks.check(cmd, out, diag) == []
    assert 0.0 < diag["unitarity_dev"] <= checks.UNITARITY_TOL_CLOSED
    _corrupt_csv(os.path.join(out, "amplitudes.csv"), row=4, column=1)
    assert checks.check(cmd, out, checks.new_diagnostics())


def test_probe_corruption_is_caught(tmp_path):
    cmd = [c for c in workloads.commands("spectra", 1) if c.label == "probe_delta"][0]
    out = _run_cmd(cmd, tmp_path)
    assert checks.check(cmd, out, checks.new_diagnostics()) == []
    _corrupt_csv(os.path.join(out, "probe.csv"), row=10, column=1)
    assert checks.check(cmd, out, checks.new_diagnostics())


def test_evolve_corruption_is_caught(tmp_path):
    cmd = workloads.commands("evolve_delta", 1)[0]
    out = _run_cmd(cmd, tmp_path)
    diag = checks.new_diagnostics()
    assert checks.check(cmd, out, diag) == []
    assert 0.0 < diag["detection_rel_err"] <= checks.DETECTION_REL_TOL
    # scale the whole transmitted half of the grid by 1%
    path = os.path.join(out, "evolve_t1.csv")
    cols = checks.read_csv(path)
    assert cols["value"].size == 800 * 141
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for i, ln in enumerate(lines):
        parts = ln.split(",")
        if len(parts) == 3 and not ln.startswith(("#", "q")) and float(parts[1]) > 0:
            parts[2] = repr(1.01 * float(parts[2]))
            lines[i] = ",".join(parts)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    assert checks.check(cmd, out, checks.new_diagnostics())


def test_kernel_corruption_is_caught(tmp_path):
    cmd = [c for c in workloads.commands("spectra", 1) if c.label == "kernel_delta"][0]
    out = _run_cmd(cmd, tmp_path)
    diag = checks.new_diagnostics()
    assert checks.check(cmd, out, diag) == []
    assert 0.0 < diag["kernel_agreement"] <= checks.KERNEL_TOL
    _corrupt_csv(os.path.join(out, "kernel_quadrature.csv"), row=20, column=2)
    assert checks.check(cmd, out, checks.new_diagnostics())


def test_missing_output_is_a_failure(tmp_path):
    cmd = workloads.commands("evolve_pt", 1)[0]
    assert checks.check(cmd, str(tmp_path), checks.new_diagnostics())


def test_failed_invocation_is_counted(tmp_path):
    bad = workloads.Command("bad", "amplitudes", {"barrier": {"kind": "delta"}})
    good = workloads.Command("good", "amplitudes", {
        "barrier": {"kind": "delta", "v0": 2.0},
        "kappa_grid": {"min": 0.1, "max": 3.0, "n": 5}})
    paths = workloads.write_configs([bad, good], str(tmp_path / "cfg"))
    out = str(tmp_path / "out")
    elapsed, failed, ref = run.run_pass([bad, good], paths, out,
                                        checks.new_diagnostics())
    assert failed == 1 and elapsed > 0
    assert ref["bad"] is None and ref["good"] is not None
    # a failed command stays failed; a good one must reproduce its bytes
    _, failed, _ = run.run_pass([bad, good], paths, out, None, reference=ref)
    assert failed == 1
    ref["good"] = "0" * 64
    _, failed, _ = run.run_pass([good], paths[1:], out, None, reference=ref)
    assert failed == 1


def test_self_time_on_nested_spans():
    # a[0,10] holds b[1,4] and c[5,9]; c holds d[6,7] of b's group
    spans = [
        ["a", True, 0.0, 10.0, -1],
        ["b", True, 1.0, 4.0, 0],
        ["c", True, 5.0, 9.0, 0],
        ["b", True, 6.0, 7.0, 2],
        ["b", False, 6.2, 6.5, 3],   # recursion inside the previous b span
    ]
    calls, incl, self_s = tracing.summarize(spans)
    assert calls == {"a": 1, "b": 3, "c": 1}
    assert self_s["a"] == pytest.approx(10 - 3 - 4)
    assert self_s["c"] == pytest.approx(4 - 1)
    assert self_s["b"] == pytest.approx(3 + (1 - 0.3) + 0.3)
    assert incl["b"] == pytest.approx(3 + 1)   # the nested b is not counted twice
    assert sum(self_s.values()) == pytest.approx(10)


def test_wrappers_are_restored(tmp_path):
    before = [(owner, name, name in vars(owner), vars(owner).get(name))
              for owner, name, _, _ in tracing.WRAPS]
    tracer = tracing.Tracer()
    cmd = workloads.Command("amp", "amplitudes", {
        "barrier": {"kind": "poschl_teller", "v0": 1.0, "s": 0.4},
        "kappa_grid": {"min": 0.1, "max": 3.0, "n": 6}})
    tracer.install()
    try:
        for owner, name, _, _ in tracing.WRAPS:
            assert getattr(owner, name).__wrapped__ is not None
        _run_cmd(cmd, tmp_path)
    finally:
        tracer.uninstall()
    for owner, name, own, original in before:
        assert (name in vars(owner)) == own, (owner, name)
        assert vars(owner).get(name) is original, (owner, name)
    m = tracing.layer_metrics(tracer)
    assert m["barriers.kappa_evals"][0] == 6 * 3   # amplitudes + T + R per kappa
    assert m["kernels.total_probabilities_calls"][0] == 6
    assert m["cli.rows_written"][0] == 6
    assert m["cli.self_s"][0] > 0
    assert not tracer.depth or max(tracer.depth.values()) == 0


def test_trace_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {name: unit for name, (_, unit) in
             tracing.layer_metrics(tracing.Tracer()).items()}
    units.update({"trace.overhead_s": "s", "error_rate": "ratio"})
    units.update({f"check.{d}": u for d, u in checks.DIAGNOSTICS.items()})
    assert units == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == {"pass_s", "setup_s",
                                                        "peak_rss_mb"}
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS


def test_speed_probe_samples_and_restores_the_timer():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        t0 = run.perf_counter()
        while run.perf_counter() - t0 < 10 * speed.INTERVAL_S:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # one sample on entry, one on exit, and the timer's in between
    assert len(probe.samples) >= 5
    assert all(s > 0 for s in probe.samples)
    assert probe.slowdown() > 0


def test_slowdown_is_the_inverse_mean_speed():
    probe = speed.SpeedProbe()
    # half the time at the reference speed, half at half of it: the work
    # went on at 0.75 of the reference rate
    probe.samples = [speed.REFERENCE_S] * 10 + [2 * speed.REFERENCE_S] * 10
    assert probe.slowdown() == pytest.approx(1 / 0.75)
    # a pre-empted sample is trimmed away
    probe.samples = [speed.REFERENCE_S] * 20 + [100 * speed.REFERENCE_S]
    assert probe.slowdown() == pytest.approx(1.0)
    assert speed.trimmed_mean([1.0, 2.0]) == 1.5


def test_detectors_follow_the_free_packets():
    from wigner_tunnel.evolution import GaussianState

    t_det, r_det = checks.detectors(GaussianState(-40.0, 1.0, 25.0), 40.0)
    assert (t_det.Q, t_det.P) == (40.0, 1.0)
    assert (r_det.Q, r_det.P) == (-40.0, -1.0)
    assert np.isclose(t_det.lam, 25.0)
