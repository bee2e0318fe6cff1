"""Command line interface.

Subcommands:

* ``expm``        exponential of one matrix file.
* ``incremental`` exponentials of a growing sequence from a block-column
                  stream, emitting each stage and a step report CSV.
* ``generator``   generator matrix of a stochastic volatility model.
* ``price``       European call price under the Jacobi model.
* ``bench``       timing comparison of the method families on a random
                  instance.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .bench import (RandomInstanceSpec, blas_threads, generate_instance, parse_method,
                    run_benchmark, write_bench_csv)
from .blocks import matrix_from_columns, read_column_stream
from .dense import read_matrix, rel_error_fro, write_matrix, write_partition
from .generators import (
    HestonParams,
    JacobiParams,
    build_generator_matrix,
    heston_spec,
    jacobi_spec,
)
from .incremental import run_adaptive, run_fixed
from .pade import expm_baseline
from .pricing import PricingConfig, price_call

# Each model's parameter class and generator builder.
_MODELS = {"jacobi": (JacobiParams, jacobi_spec), "heston": (HestonParams, heston_spec)}

# The StepReport fields that split a step into its phases.
_PHASES = ("power_seconds", "solve_seconds", "squaring_seconds", "growth_seconds")


def _model_params(model: str, text: str):
    """Parse "key=value,..." into the model's parameters: every field of
    its parameter class is required, and no other key is accepted."""
    keys = tuple(f.name for f in dataclasses.fields(_MODELS[model][0]))
    values: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad parameter item {item!r}, expected key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys:
            raise ValueError(f"unknown parameter {key!r}, expected one of {keys}")
        if key in values:
            raise ValueError(f"duplicate parameter {key!r}")
        values[key] = float(value)
    missing = [k for k in keys if k not in values]
    if missing:
        raise ValueError(f"missing parameters for {model}: {', '.join(missing)}")
    return _MODELS[model][0](**values)


def _parse_scaling(text: str, adaptive: bool = True) -> int | None:
    """Fixed scaling power for "fixed:<s>", None for "adaptive" where
    ``adaptive`` allows it; the benchmark's method grammar without "naive"."""
    method = parse_method(text)
    if method.kind == "fixed" or (adaptive and method.kind == "adaptive"):
        return method.s
    expected = "fixed:<s> or adaptive" if adaptive else "fixed:<s>"
    raise ValueError(f"bad scaling {text!r}, expected {expected}")


def _cmd_expm(args) -> int:
    g = read_matrix(args.in_path)
    f = expm_baseline(g)
    write_matrix(args.out, f)
    print(f"wrote {f.shape[0]}x{f.shape[1]} exponential to {args.out}")
    return 0


def _cmd_incremental(args) -> int:
    columns = read_column_stream(args.columns)
    s = _parse_scaling(args.scaling)
    runner = run_adaptive(columns) if s is None else run_fixed(columns, s=s)
    os.makedirs(args.emit, exist_ok=True)
    # each stage's from-scratch reference is computed as the stage is
    # written, so only one is held at a time
    full = matrix_from_columns(columns) if args.check else None
    # one report row per stage file, written as the stage is, so a run
    # stopped by an error keeps the rows of the stages it emitted
    csv_path = os.path.join(args.emit, "steps.csv")
    emitted = 0
    with open(csv_path, "w") as fh:
        fh.write("step,dim,s,restart,seconds,rel_err_vs_baseline,cache_bytes,"
                 + ",".join(_PHASES) + "\n")
        for f, report in runner:
            write_matrix(os.path.join(args.emit, f"f_{report.step:04d}.txt"), f.data)
            err = ""
            if full is not None:
                d = report.dim
                err = f"{rel_error_fro(f.data, expm_baseline(full.data[:d, :d].copy())):.6e}"
            phases = ",".join(f"{getattr(report, p):.9f}" for p in _PHASES)
            fh.write(
                f"{report.step},{report.dim},{report.s},{int(report.restart)},"
                f"{report.seconds:.9f},{err},{report.cache_bytes},{phases}\n"
            )
            emitted += 1
    print(f"emitted {emitted} exponentials to {args.emit} (report: {csv_path})")
    return 0


def _cmd_generator(args) -> int:
    spec = _MODELS[args.model][1](_model_params(args.model, args.params))
    g, partition = build_generator_matrix(spec, args.degree)
    write_matrix(args.out, g)
    if args.partition_out:
        write_partition(args.partition_out, partition.sizes)
    print(f"wrote {g.shape[0]}x{g.shape[1]} generator matrix to {args.out}")
    return 0


def _cmd_price(args) -> int:
    cfg = PricingConfig(
        params=_model_params("jacobi", args.params),
        y0=args.y0,
        v0=args.v0,
        tau=args.tau,
        logstrike=args.logstrike,
        muw=args.muw,
        sigmaw=args.sigmaw,
        eps=args.eps,
        n_max=args.n_max,
        scaling=None if args.scaling is None else _parse_scaling(args.scaling, adaptive=False),
    )
    result = price_call(cfg)
    rows = ["n,l_n,f_n,term,partial_price,cum_seconds,expm_seconds,quad_seconds,"
            "moment_seconds,cache_bytes"]
    for r in result.rows:
        rows.append(
            f"{r.n},{r.l_n:.17g},{r.f_n:.17g},{r.term:.17g},"
            f"{r.partial_price:.17g},{r.cum_seconds:.9f},"
            f"{r.expm_seconds:.9f},{r.quad_seconds:.9f},"
            f"{r.moment_seconds:.9f},{r.cache_bytes}"
        )
    with open(args.ledger, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    status = "converged" if result.converged else "stopped at degree cap"
    print(
        f"price {result.price:.12g} at degree {result.terminal_degree} "
        f"({status}, s = {result.scaling}, log2 basis scale {result.basis_scale}, "
        f"shift {result.shift:.6g}, "
        f"{result.seconds:.3f}s, ledger: {args.ledger})"
    )
    return 0


def _cmd_bench(args) -> int:
    lo, _, hi = args.spectrum.partition(":")
    spec = RandomInstanceSpec(
        seed=args.seed,
        nblocks=args.blocks,
        bmin=args.bmin,
        bmax=args.bmax,
        spectrum=(float(lo), float(hi)),
        cond_target=args.cond,
    )
    instance = generate_instance(spec)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    records = run_benchmark(instance, methods, check=args.check, repeats=args.repeats)
    write_bench_csv(records, args.out)
    totals = {}
    for r in records:
        totals[r.method] = r.cum_seconds
    summary = ", ".join(f"{k} {v:.3f}s" for k, v in totals.items())
    print(f"instance dim {instance.dim}; total seconds: {summary}; "
          f"BLAS threads {blas_threads()}; wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockexpm",
        description="incremental exponentials of block triangular matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expm", help="exponential of a matrix file")
    p.add_argument("--in", dest="in_path", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_expm)

    p = sub.add_parser("incremental", help="exponentials of a block-column stream")
    p.add_argument("--columns", required=True, metavar="FILE")
    p.add_argument("--scaling", default="adaptive",
                   help="fixed:<s> or adaptive (default adaptive)")
    p.add_argument("--emit", required=True, metavar="DIR")
    p.add_argument("--check", action="store_true",
                   help="also report each stage's error against a from-scratch pass")
    p.set_defaults(func=_cmd_incremental)

    p = sub.add_parser("generator", help="model generator matrix on the graded basis")
    p.add_argument("--model", choices=tuple(_MODELS), required=True)
    p.add_argument("--params", required=True,
                   help="comma list of key=value, one for each model parameter")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--partition-out", metavar="FILE")
    p.set_defaults(func=_cmd_generator)

    p = sub.add_parser("price", help="European call price under the Jacobi model")
    p.add_argument("--params", required=True,
                   help="comma list of key=value, one for each Jacobi parameter")
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--logstrike", type=float, required=True)
    p.add_argument("--muw", type=float, required=True)
    p.add_argument("--sigmaw", type=float, required=True)
    p.add_argument("--eps", type=float, default=1e-3)
    p.add_argument("--scaling", metavar="fixed:<s>",
                   help="scaling power of every exponential of the generator on "
                        "the rescaled basis the series runs on (default: from "
                        "that generator's norm bound at --n-max)")
    p.add_argument("--n-max", type=int, default=100)
    p.add_argument("--ledger", required=True, metavar="CSV")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("bench", help="time the method families on a random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--blocks", type=int, default=46)
    p.add_argument("--bmin", type=int, default=20)
    p.add_argument("--bmax", type=int, default=80)
    p.add_argument("--spectrum", default="-80:-0.5", help="eigenvalue range lo:hi")
    p.add_argument("--cond", type=float, default=100.0)
    p.add_argument("--methods", default="naive,fixed:6,fixed:12,adaptive")
    p.add_argument("--check", action="store_true")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", required=True, metavar="CSV")
    p.set_defaults(func=_cmd_bench)

    return parser


def _merge_spectrum_flag(argv: list[str]) -> list[str]:
    # "--spectrum -80:-0.5" has a value that argparse mistakes for an
    # option; fold it into the "--spectrum=..." form.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--spectrum" and i + 1 < len(argv):
            out.append(f"--spectrum={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_spectrum_flag(list(argv)))
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
