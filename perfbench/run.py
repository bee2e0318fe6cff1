#!/usr/bin/env python3
"""Benchmark of blockexpm: end-to-end timings, or per-layer figures from a
traced run, for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk_adaptive --seed 20250816 \\
        --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``desk_adaptive``: ``run_adaptive`` over the 30 stages of a random
  instance of dimension 857 with blocks of 20-40 (criterion 3's desk
  instance at the default seed 20250816).
* ``thin_blocks``: ``run_adaptive`` over 300 blocks of 2-4, dimension 919
  (default seed 7).
* ``price_adaptive``: ``price_call`` on criterion 9's Jacobi configuration
  with eps = 1e-3, converging at degree 60; deterministic, no seed.

Each run pins OpenBLAS to one thread before numpy loads and reads the
count back from the loaded libraries; it stops if the pin did not take.
After one untimed warm-up pass it repeats the workload's timed call while
the next call is expected to end within ``--seconds``, checking every
output outside the timed sections.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds
of one pass), ``tail_step_s`` (mean over the last five stages of each
stage's median seconds across passes),
``setup_s`` (median over repetitions of the import seconds in a fresh
interpreter plus the input-generation seconds) and ``peak_heap_mb`` (the
most memory the warm-up pass holds beyond its inputs, as tracemalloc
sees numpy's and Python's allocations; resident memory moved by up to
10% between runs of the same code and seed).  The three times are
rescaled to a reference core speed by ``speed.py``, which samples a
fixed calibration kernel while they are measured, because a shared host's
core speed can drift more between runs than the bounds allow; the measured
seconds, the speed factors and the peak resident memory are in the
context line.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer figures of ``spans.py``, from-scratch comparators and a DGEMM
rate.  ``--smoke`` shrinks every workload for a quick check of the harness.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the machine context and the chosen inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from statistics import mean, median
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPS = 5
SETUP_SPEED_SAMPLES = 5
DGEMM_REPS = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import blockexpm; print(time.perf_counter() - t)"
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk_adaptive", "thin_blocks", "price_adaptive"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for testing the harness")
    return ap.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def import_seconds() -> float:
    """Seconds to import blockexpm in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def repeat_for(run, seconds: float) -> list:
    """Results of ``run()``, called at least once and then again while the
    next call, taking as long as the last, would end within ``seconds``."""
    out = []
    start = perf_counter()
    last = 0.0
    while not out or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        out.append(run())
        last = perf_counter() - t0
    return out


def setup_seconds(inputs, probe) -> tuple[float, float]:
    """Median measured set-up seconds over the repetitions, and the core
    speed sampled between them.  The import runs in a fresh interpreter,
    so the probe samples only while no repetition is running."""
    start = len(probe.gemm)
    raw = []
    for _ in range(SETUP_REPS):
        for _ in range(SETUP_SPEED_SAMPLES):
            probe.sample()
        raw.append(import_seconds() + timed(inputs.build))
    return median(raw), probe.speed(start)


def tail_seconds(passes, speeds) -> float:
    """Mean over the last stages of each stage's median across passes."""
    n = min(len(p.tail) for p in passes)
    return mean(median(p.tail[k] * v for p, v in zip(passes, speeds)) for k in range(n))


def end_to_end(wl, inputs, args, warm, peak_mb):
    """Untraced passes; returns (metrics, passes, baseline check, measured).

    Times are rescaled to the reference core speed (``speed.py``): each
    pass by the speed sampled while it ran, set-up by the speed sampled
    between its repetitions.
    """
    from speed import SpeedProbe

    probe = SpeedProbe()

    def sampled_pass():
        first = len(probe.gemm)
        return wl.run_pass(inputs, warm.final), first, len(probe.gemm)

    with probe.running():
        passes, firsts, stops = zip(*repeat_for(sampled_pass, args.seconds))
    speeds = [probe.speed(a, b) for a, b in zip(firsts, stops)]
    setup, setup_speed = setup_seconds(inputs, probe)
    baseline_ok = wl.final_matches_baseline(inputs, warm)
    metrics = {
        "wall_s": metric(median(p.seconds * v for p, v in zip(passes, speeds)), "s"),
        "tail_step_s": metric(tail_seconds(passes, speeds), "s"),
        "setup_s": metric(setup * setup_speed, "s"),
        "peak_heap_mb": metric(peak_mb, "MB"),
    }
    measured = {
        "wall_s": median(p.seconds for p in passes),
        "tail_step_s": tail_seconds(passes, [1.0] * len(passes)),
        "setup_s": setup,
        "pass_speed": median(speeds),
        "setup_speed": setup_speed,
        "speed_samples": len(probe.gemm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    return metrics, list(passes), baseline_ok, measured


def per_layer(wl, inputs, args, warm, blas_threads):
    """Alternating untraced and traced passes; returns (metrics, passes, baseline check).

    The from-scratch comparators (``scipy.linalg.expm`` and
    ``expm_baseline``) run on every stage of desk_adaptive and on the last
    stage elsewhere, where every stage would take minutes;
    ``ref.speedup_vs_scipy`` divides by the untraced engine time of the
    same stages.
    """
    import numpy as np
    import scipy.linalg

    from blockexpm.pade import expm_baseline
    from spans import UNITS, Tracer

    def pair():
        plain = wl.run_pass(inputs, warm.final)
        tracer = Tracer()
        with tracer.installed():
            traced = wl.run_pass(inputs, warm.final)
        return plain, traced, tracer.summary()

    untraced, traced, summaries = zip(*repeat_for(pair, args.seconds))
    baseline_ok = wl.final_matches_baseline(inputs, warm)

    layer = {k: median(s[k] for s in summaries) for k in summaries[0]}
    wall = median(p.seconds for p in untraced)

    scipy_s = baseline_s = 0.0
    dim = 0
    for g in wl.reference_stages(inputs):
        scipy_s += timed(lambda: scipy.linalg.expm(g))
        baseline_s += timed(lambda: expm_baseline(g))
        dim = g.shape[0]
    same_stages = wall if wl.ref_all_stages else median(p.last_stage for p in untraced)

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((dim, dim)), rng.standard_normal((dim, dim))
    gemm_s = median(timed(lambda: a @ b) for _ in range(DGEMM_REPS))

    metrics = {name: metric(value, UNITS[name]) for name, value in layer.items()}
    metrics["pricing.terminal_degree"] = metric(traced[-1].terminal_degree, "count")
    metrics["ref.scipy_cum_s"] = metric(scipy_s, "s")
    metrics["ref.baseline_cum_s"] = metric(baseline_s, "s")
    metrics["ref.speedup_vs_scipy"] = metric(scipy_s / same_stages, "ratio")
    metrics["blas.dgemm_gflops"] = metric(2.0 * dim**3 / gemm_s / 1e9, "GFLOP/s")
    metrics["blas.threads"] = metric(blas_threads, "count")
    metrics["trace.overhead_s"] = metric(median(p.seconds for p in traced) - wall, "s")
    return metrics, list(untraced + traced), baseline_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blockexpm" / "__init__.py").is_file():
        print(f"error: blockexpm sources not found under {SRC}", file=sys.stderr)
        return 2

    from machine import machine_context, pin_blas_threads, verified_blas_threads

    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import blockexpm

    if Path(blockexpm.__file__).resolve().parent != SRC / "blockexpm":
        print(f"error: imported blockexpm from {blockexpm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import COMPUTED
    from workloads import WORKLOADS

    try:
        blas_threads = verified_blas_threads()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    inputs = wl.prepare(args.seed, args.smoke)
    if args.trace:
        warm = wl.run_pass(inputs)
        metrics, passes, baseline_ok = per_layer(wl, inputs, args, warm, blas_threads)
        measured = None
    else:
        tracemalloc.start()
        warm = wl.run_pass(inputs)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        tracemalloc.stop()
        metrics, passes, baseline_ok, measured = end_to_end(wl, inputs, args, warm, peak_mb)

    passes = [warm] + passes
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if not baseline_ok:
        # every pass's last stage equals the warm-up's bit for bit or
        # already counts as failed; count the rest now
        failed = min(attempted, failed + len(passes))
    if args.trace:
        metrics["fail_rate"] = metric(failed / attempted, "ratio")

    context = {
        "workload": args.workload,
        "computed_metrics": list(COMPUTED) if args.trace else [],
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs": inputs.context,
        "timed_passes": len(passes) - 1,
        "warmup_passes": 1,
        "fail_rate": failed / attempted,
        "final_stage_vs_baseline_ok": baseline_ok,
        "blas_threads": blas_threads,
        "measured_at_host_speed": measured,
        "machine": machine_context(),
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0 and baseline_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
