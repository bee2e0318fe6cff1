"""Run alternating perfbench pairs of two source trees and summarise them.

    python tools/perf_pairs.py PARENT CHANGE --workload W --seed S --pairs N [--seconds T]

PARENT and CHANGE are source trees of this repository.  Pair i runs the
benchmark's command, ``python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0`` (T defaults to the benchmark's ``run_seconds``),
once from the root of each tree, one run at a time: the parent first in
even pairs and the change first in odd ones, so that a drift of the
host's speed falls on both sides alike.  Each run's last line of output is its result; a run that
exits nonzero, reports ``correct`` false or counts a failed operation
stops the script with exit code 1.

For each end-to-end metric of the ``BENCHMARK.json`` beside this script
it prints each side's median and quartiles over the N runs, the change's
wins out of N pairs in the metric's ``better`` direction (a tie counts for
neither side), the change of the median in percent, whether that change
is worse than the metric's ``bound`` (a relative change), and whether the
claim rule holds: wins in at least nine of ten pairs, and a median better
by more than the parent's interquartile range.  It only prints; nothing
is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import quantiles

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarise(parent_runs: list[dict], change_runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One summary per end-to-end metric of pairs of runs.

    ``parent_runs[i]`` and ``change_runs[i]`` are the ``metrics`` dicts of
    pair i, each mapping a metric's name to ``{"value": v, "unit": u}``, as
    perfbench prints them; ``end_to_end`` is ``BENCHMARK.json``'s list of
    metrics with their ``better`` direction and ``bound``.
    """
    rows = []
    n = len(parent_runs)
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        parent = [run[name]["value"] for run in parent_runs]
        change = [run[name]["value"] for run in change_runs]
        p1, pmed, p3 = quantiles(parent, n=4, method="inclusive")
        c1, cmed, c3 = quantiles(change, n=4, method="inclusive")
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change, strict=True))
        relative = (cmed - pmed) / abs(pmed) if pmed else 0.0
        rows.append({
            "name": name,
            "unit": spec["unit"],
            "parent": (p1, pmed, p3),
            "change": (c1, cmed, c3),
            "wins": wins,
            "pairs": n,
            "median_change_pct": 100.0 * relative,
            "worse_than_bound": sign * relative > spec["bound"],
            "claim_holds": wins >= 0.9 * n and sign * (pmed - cmed) > p3 - p1,
        })
    return rows


def format_summary(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        (p1, pmed, p3), (c1, cmed, c3) = r["parent"], r["change"]
        lines.append(
            f"{r['name']:>12} [{r['unit']}]  parent {pmed:.4g} ({p1:.4g}-{p3:.4g})"
            f"  change {cmed:.4g} ({c1:.4g}-{c3:.4g})  wins {r['wins']}/{r['pairs']}"
            f"  {r['median_change_pct']:+.1f}%"
            f"  {'WORSE THAN BOUND' if r['worse_than_bound'] else 'within bound'}"
            f"  claim {'holds' if r['claim_holds'] else 'does not hold'}"
        )
    return "\n".join(lines)


def _run(command: list[str], checkout: str, args) -> dict:
    """The metrics of one perfbench run from ``checkout``; SystemExit on a
    run that failed."""
    argv = command + ["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {checkout}: perfbench exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: {checkout}: correct {result['correct']}, "
                         f"{result['failed']} of {result['attempted']} operations failed")
    return result["metrics"]


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    parent_runs, change_runs = [], []
    for i in range(args.pairs):
        order = ((parent_runs, args.parent), (change_runs, args.change))
        for runs, checkout in order if i % 2 == 0 else order[::-1]:
            runs.append(_run(bench["command"], os.path.abspath(checkout), args))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs at --seconds {args.seconds:g}")
    print(format_summary(summarise(parent_runs, change_runs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
