"""Benchmark runner for the wigner-tunnel command line.

    python3 perfbench/run.py --workload evolve_delta --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop with a single client in this
process: each pass calls ``wigner_tunnel.cli.main`` once per command of
the workload, on JSON configs generated from ``--seed``, and writes
outputs under ``.perfbench_work/`` in the checkout (removed on exit).
After one untimed warm-up pass, passes repeat until ``--seconds`` of
timed passes have accumulated. Every pass's outputs are checked outside
the timed interval: the warm-up pass in full (see checks.py), every
later pass byte for byte against it.

With ``--trace 0`` the result holds the end-to-end metrics: ``pass_s``
(median seconds of one pass), ``setup_s`` (median over three fresh
interpreters of importing ``wigner_tunnel.cli`` and generating the
configs) and ``peak_rss_mb`` (peak resident memory of this process).
Both times are wall times rescaled to a fixed reference CPU speed by
the probe of speed.py, which runs during each timed pass and each
set-up; the line before the result holds the raw wall times too.
With ``--trace 1`` untraced and traced passes alternate, and the result
holds the per-layer metrics of tracing.py (medians over traced passes),
the accuracy diagnostics of checks.py, ``error_rate`` and the tracing
overhead. The last line of standard output is the JSON result; the line
before it records the environment.

``WIGNER_TUNNEL_THREADS`` is removed from the environment, so the CLI
keeps its default of one worker, and BLAS runs one thread: the process
holds one thread per core at most.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# run in a fresh interpreter: import the CLI and generate the configs
# under the speed probe, and print the probe's slowdown
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import speed\n"
    "with speed.SpeedProbe() as probe:\n"
    "    import wigner_tunnel.cli, workloads\n"
    "    workloads.write_configs(workloads.commands(sys.argv[3], int(sys.argv[4])), "
    "sys.argv[5])\n"
    "print(probe.slowdown())"
)


def _import_package():
    """Import the package from this checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "wigner_tunnel", "cli.py")):
        raise SystemExit(f"perfbench: no wigner_tunnel sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import wigner_tunnel

    if not os.path.abspath(wigner_tunnel.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported {wigner_tunnel.__file__}, not {SRC}")


def _blas_threads():
    """Thread counts reported by every OpenBLAS library mapped into the process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def _thread_count():
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(threads_env):
    import numpy
    import scipy

    threads = _thread_count()
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "WIGNER_TUNNEL_THREADS": threads_env,
        "processes": 1,
        "threads": threads,
        "threads_within_nproc": threads is not None and threads <= nproc,
    }


def measure_setup(workload, seed, work):
    """Wall seconds and probe slowdowns of fresh interpreters importing
    the CLI and writing the workload's configs."""
    times, slowdowns = [], []
    for i in range(SETUP_REPEATS):
        argv = [sys.executable, "-c", SETUP_CODE, SRC, HERE, workload, str(seed),
                os.path.join(work, f"setup{i}")]
        t0 = perf_counter()
        proc = subprocess.run(argv, check=True, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True)
        times.append(perf_counter() - t0)
        slowdowns.append(float(proc.stdout.split()[-1]))
    return times, slowdowns


def run_pass(cmds, config_paths, out_root, diag, tracer=None, reference=None,
             probe=None):
    """One pass over the commands.

    Returns (wall seconds, failed commands, output digests). Only the CLI
    calls are timed. Without ``reference`` every output is checked in
    full; with it, each command's outputs must match the digest of a
    fully checked pass byte for byte (the CLI's outputs are byte-stable).
    With a tracer its wrappers are present during the calls alone; a
    ``speed.SpeedProbe`` samples the CPU speed during them.
    """
    from wigner_tunnel import cli

    import checks

    shutil.rmtree(out_root, ignore_errors=True)
    outs = [os.path.join(out_root, cmd.label) for cmd in cmds]
    argvs = [[cmd.command, "--config", cfg, "--out", out, *cmd.extra]
             for cmd, cfg, out in zip(cmds, config_paths, outs)]
    codes = []
    gc.collect()    # every pass starts from the same collector state
    if tracer is not None:
        tracer.install()
    if probe is not None:
        probe.start()
    t0 = perf_counter()
    try:
        for argv in argvs:
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash is a failed invocation, not a lost run
                traceback.print_exc()
                codes.append(None)
    finally:
        elapsed = perf_counter() - t0
        if probe is not None:
            probe.stop()
        if tracer is not None:
            tracer.uninstall()
    failed, digests = 0, {}
    for cmd, code, out in zip(cmds, codes, outs):
        digest = checks.digest(out)
        if code != 0:
            problems = [f"exit code {code}"]
        elif reference is None:
            problems = checks.check(cmd, out, diag)
        elif digest != reference[cmd.label]:
            problems = ["outputs differ from the checked pass"]
        else:
            problems = []
        for msg in problems:
            print(f"perfbench: {cmd.label}: {msg}", file=sys.stderr)
        failed += bool(problems)
        digests[cmd.label] = None if problems else digest
    return elapsed, failed, digests


def _rescale(wall, slowdown):
    """Wall seconds at the probe's reference CPU speed."""
    return wall / slowdown


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(workload, seed, seconds, trace, work):
    import checks
    import workloads
    from speed import SpeedProbe
    from tracing import Tracer, layer_metrics

    cmds = workloads.commands(workload, seed)
    paths = workloads.write_configs(cmds, os.path.join(work, "configs"))
    out_root = os.path.join(work, "out")
    diag = checks.new_diagnostics()
    setup_wall, setup_slow = ([], []) if trace else measure_setup(workload, seed, work)

    # the warm-up pass is checked in full; later passes must reproduce it
    _, failed, ref = run_pass(cmds, paths, out_root, diag)
    attempted = len(cmds)
    plain, slow, traced, layers = [], [], [], []
    while not plain or sum(plain) + sum(traced) < seconds:
        # the traced run compares raw wall times and needs no probe
        probe = None if trace else SpeedProbe()
        elapsed, f, _ = run_pass(cmds, paths, out_root, diag, reference=ref,
                                 probe=probe)
        plain.append(elapsed)
        if probe is not None:
            slow.append(probe.slowdown())
        attempted, failed = attempted + len(cmds), failed + f
        if trace:
            tracer = Tracer()
            elapsed, f, _ = run_pass(cmds, paths, out_root, diag, tracer, ref)
            traced.append(elapsed)
            layers.append(layer_metrics(tracer))
            attempted, failed = attempted + len(cmds), failed + f

    if trace:
        metrics = {name: _metric(statistics.median(m[name][0] for m in layers), unit)
                   for name, (_, unit) in layers[0].items()}
        metrics["trace.overhead_s"] = _metric(
            statistics.median(traced) - statistics.median(plain), "s")
        for name, value in diag.items():
            metrics[f"check.{name}"] = _metric(value, checks.DIAGNOSTICS[name])
        metrics["error_rate"] = _metric(failed / attempted, "ratio")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "pass_s": _metric(statistics.median(map(_rescale, plain, slow)), "s"),
            "setup_s": _metric(
                statistics.median(map(_rescale, setup_wall, setup_slow)), "s"),
            "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        }
    detail = {"workload": workload, "seed": seed, "passes_wall_s": plain,
              "passes_slowdown": slow, "traced_passes_wall_s": traced,
              "setup_wall_s": setup_wall, "setup_slowdown": setup_slow}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one client, one worker: the CLI's default of one thread and a
    # single-threaded BLAS, set before numpy is imported
    threads_env = os.environ.pop("WIGNER_TUNNEL_THREADS", None)
    os.environ.update(dict.fromkeys(BLAS_ENV, "1"))
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {workloads.WORKLOADS}")
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        result, detail = run(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({"env": environment(threads_env), **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
