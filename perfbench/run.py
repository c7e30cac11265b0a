"""Benchmark of opcoupling: time to a verified answer, on four workloads.

Usage (from the root of a checkout that holds ``src/opcoupling``)::

    python3 perfbench/run.py --workload pipeline-200 --seed 1 --seconds 35 --trace 0

The program under test is the package in ``src/`` next to this directory;
the benchmark imports it from there and changes nothing in it.  The inputs
are made from ``--seed``.  One client runs operations in a closed loop,
each after the previous one finished, for ``--seconds`` seconds; a run ends
only between whole units of its workload (see ``workloads.py``), and only if
the next unit would not fit in the time left.  Every operation's output is
checked by the benchmark's own code.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
operation list twice per operation, once plain and once under the tracer of
``tracing.py``, and prints the per-layer metrics, normalised per operation.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  BLAS threading is left at the library default and recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work" / str(os.getpid())   # inputs and outputs of a run
SETUP_REPS = 9    # set-up is repeated and its median reported
IMPORT_REPS = 5   # so is the import of the program, in fresh interpreters
PROGRAM_MODULES = ("errors", "instances", "reduction", "cli")
EPS = 2.0 ** -52
P90_MIN_SAMPLES = 100   # p90 is printed only when >= 10 samples lie beyond it


def load_program():
    """Import opcoupling from the checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "opcoupling" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'opcoupling'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"opcoupling.{name}")
               for name in PROGRAM_MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"perfbench: opcoupling imported from {origin}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return SimpleNamespace(**modules)


# ---------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads() -> str:
    """Thread count of the loaded OpenBLAS, as found (not set)."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8")
    except OSError:
        return "unknown"
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.split()[-1].lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for getter in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measurement


def call(workload, op):
    """Run one operation; an exception is its result (this loop must go on)."""
    try:
        return workload.run(op)
    except Exception as exc:  # noqa: BLE001 - every outcome is classified
        return exc


def timed(workload, op, tracer=None):
    workload.prepare(op)
    with tracer.active() if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        result = call(workload, op)
        elapsed = time.perf_counter() - start
    return elapsed, workload.check(op, result)


def import_s(reps: int) -> float:
    """Median time to import the program, each time in a fresh interpreter.
    numpy is loaded first and not timed, as in the benchmark's process."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import numpy; "
            "start = time.perf_counter(); "
            + "; ".join(f"import opcoupling.{name}" for name in PROGRAM_MODULES)
            + "; print(time.perf_counter() - start)")
    times = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                              capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(proc.stdout))
    return statistics.median(times)


def set_up(workload, seed: int, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        workload.setup(seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def closed_loop(workload, seconds: float):
    """Whole units of operations while the next unit fits in ``seconds``."""
    cycle = workload.ops()
    samples, outcomes = [], []
    start = time.perf_counter()
    last_unit, i = 0.0, 0
    while not samples or time.perf_counter() - start + last_unit <= seconds:
        unit_start = time.perf_counter()
        for _ in range(workload.unit):
            elapsed, outcome = timed(workload, cycle[i % len(cycle)])
            i += 1
            samples.append(elapsed)
            outcomes.append(outcome)
        last_unit = time.perf_counter() - unit_start
    return samples, outcomes


def margins(outcomes) -> list[float]:
    """``log10(tol / residual)`` of each ok operation; residuals below
    machine epsilon count as epsilon."""
    return [math.log10(o.tol / max(o.residual, EPS))
            for o in outcomes if o.status == "ok"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float):
    program = load_program()
    wl = workload(program, WORK)
    setup_s = import_s(IMPORT_REPS) + set_up(wl, seed, SETUP_REPS)
    samples, outcomes = closed_loop(wl, seconds)
    rss = peak_rss_mb()

    answered = sum(o.status != "failed" for o in outcomes)
    units = sum(o.answered for o in outcomes)
    failed = len(outcomes) - answered
    digits = margins(outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (units / sum(samples), "1/s"),
        "op_s_p50": (statistics.median(samples), "s"),
        "answered_ratio": (answered / len(outcomes), "1"),
        "tol_margin_digits": (statistics.median(digits) if digits else 0.0,
                              "digits"),
        "peak_rss_mb": (rss, "MiB"),
    }
    info = [f"operations: {len(outcomes)} attempted, "
            f"{sum(o.status == 'ok' for o in outcomes)} ok, "
            f"{sum(o.status == 'refused' for o in outcomes)} refused correctly, "
            f"{failed} failed (failed_ratio {failed / len(outcomes):.4f})",
            f"op_s_p50 over {len(samples)} samples",
            f"tol_margin_digits is the median over {len(digits)} ok operations; "
            f"smallest {min(digits, default=0.0):.4f}"]
    if len(samples) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(samples, n=10)[-1]
        info.append(f"op_s_p90 {p90:.6f} s over {len(samples)} samples")
    else:
        info.append(f"op_s_p90 not reported: {len(samples)} samples "
                    f"< {P90_MIN_SAMPLES}")
    notes = sorted({o.note for o in outcomes if o.status == "failed"})
    info += [f"failure: {note}" for note in notes]
    return metrics, outcomes, info


def traced(workload, seed: int):
    import layers
    from tracing import Tracer

    program = load_program()
    wl = workload(program, WORK)
    tracer = Tracer()
    with tracer.active():
        wl.setup(seed)
    setup_stats = layers.snapshot(tracer)
    tracer.reset()

    plain, under, outcomes = [], [], []
    for op in wl.trace_ops():
        for samples, tr in ((plain, None), (under, tracer)):
            elapsed, outcome = timed(wl, op, tr)
            samples.append(elapsed)
            outcomes.append(outcome)
    extra, extra_outcomes = wl.trace_extra(plain, under)
    outcomes += extra_outcomes

    metrics = layers.per_layer(tracer, setup_stats, len(under), extra)
    overhead = statistics.median(under) / statistics.median(plain) - 1.0
    metrics["trace.overhead_share"] = (overhead, "1")
    info = [f"traced {len(under)} operations, each also run untraced: "
            f"p50 {statistics.median(plain):.4f} s untraced, "
            f"{statistics.median(under):.4f} s traced, "
            f"tracing overhead {overhead:+.2%}"]
    return metrics, outcomes, info


def main(argv=None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, outcomes, info = traced(workload, args.seed)
        else:
            metrics, outcomes, info = end_to_end(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if WORK.parent.is_dir() and not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()

    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    failed = sum(o.status == "failed" for o in outcomes)
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
