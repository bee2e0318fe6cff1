"""Random block triangular instances and method timing runs.

Instances are upper triangular with prescribed eigenvalue range (the
diagonal) and a noise level in the strict upper triangle that is rescaled
iteratively until an eigenvector-conditioning proxy lands near a target.
The proxy computes the (unit 2-norm column) eigenvector matrix of the
triangular instance by back substitution and reports the product of the
1-norms of that matrix and its inverse.  It stands in for the exact
2-norm condition number, which is out of scope; the target only needs to
be hit within a factor of two.

The benchmark runner times three method families on the same growing
sequence: from-scratch scaling and squaring per stage (naive), the
incremental engine at a fixed scaling power, and the incremental engine
with adaptive scaling.  Timings use a monotonic clock and report
per-stage medians over a configurable number of repeats, accumulated into
cumulative seconds as the stage index grows.  The runs use whatever BLAS
thread count the process has; nothing here limits it, and
:func:`blas_threads` reads it back for the record.  To pin it, set
``OPENBLAS_NUM_THREADS`` (or the variable of the BLAS in use) before numpy
is first imported, as the ``perfbench`` harness does.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .blocks import BlockTriangularMatrix, Partition
from .dense import one_norm, rel_error_fro
from .incremental import run_adaptive, run_fixed
from .pade import as_scaling_power, expm_baseline

_EPS = float(np.finfo(np.float64).eps)
# Noise rescales generate_instance tries before giving up on the target.
_MAX_RESCALES = 50


def blas_threads() -> int | None:
    """The BLAS thread count this process runs with, read back through
    ctypes from the OpenBLAS libraries it has loaded (numpy and scipy may
    each load one): the largest count any of them reports, or None if no
    count can be read, as without OpenBLAS or without /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    counts = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # numpy's and scipy's wheels export the OpenBLAS API under a
        # "scipy_openblas" prefix, numpy's with a "64_" suffix.
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                counts.append(int(fn()))
                break
    return max(counts, default=None)


@dataclass(frozen=True)
class RandomInstanceSpec:
    """Recipe for a random block triangular instance.

    Block sizes are drawn uniformly in [bmin, bmax]; eigenvalues uniformly
    in ``spectrum``; the strict upper triangle is uniform noise scaled to
    approach ``cond_target`` within a factor of two.
    """

    seed: int
    nblocks: int
    bmin: int
    bmax: int
    spectrum: tuple[float, float] = (-80.0, -0.5)
    cond_target: float = 100.0

    def __post_init__(self):
        if self.nblocks < 1 or self.bmin < 1 or self.bmax < self.bmin:
            raise ValueError("need nblocks >= 1 and 1 <= bmin <= bmax")
        lo, hi = self.spectrum
        if not lo <= hi:
            raise ValueError(f"empty spectrum interval {self.spectrum}")
        if self.cond_target <= 1.0:
            raise ValueError("condition target must exceed 1")


def eigenvector_condition(t: np.ndarray) -> float:
    """Conditioning proxy of a triangular matrix's eigenvector basis.

    Solves (t - lambda_i I) x_i = 0 for every eigenvalue by backward
    recurrence, normalizes columns to unit 2-norm, and returns
    ||X||_1 * ||X^-1||_1.  Requires distinct diagonal entries.
    """
    d = t.shape[0]
    lam = np.diag(t).copy()
    x = np.eye(d)
    idx = np.arange(d)
    for j in range(d - 2, -1, -1):
        numer = t[j, j + 1 :] @ x[j + 1 :, :]
        mask = idx > j
        x[j, mask] = numer[mask] / (lam[mask] - t[j, j])
    norms = np.linalg.norm(x, axis=0)
    xn = x / norms
    xinv = scipy.linalg.solve_triangular(xn, np.eye(d), check_finite=False)
    return one_norm(xn) * one_norm(xinv)


def generate_instance(spec: RandomInstanceSpec) -> BlockTriangularMatrix:
    """Draw a random instance and rescale its noise to the target
    conditioning.

    Deterministic in the seed: all randomness is drawn up front and only
    the noise amplitude changes across rescale iterations.

    Raises
    ------
    RuntimeError
        If the conditioning target is not reached within a factor of two
        after ``_MAX_RESCALES`` adjustments.
    """
    rng = np.random.default_rng(spec.seed)
    sizes = tuple(int(b) for b in rng.integers(spec.bmin, spec.bmax + 1, spec.nblocks))
    d = sum(sizes)
    lo, hi = spec.spectrum
    lam = rng.uniform(lo, hi, d)
    noise = np.triu(rng.uniform(-1.0, 1.0, (d, d)), 1)
    target = spec.cond_target
    # start near the scale where normalized eigenvector entries are O(1)
    c = target * (hi - lo) / max(d**2, 1)
    cond = None
    for _ in range(_MAX_RESCALES):
        g = np.diag(lam) + c * noise
        cond = eigenvector_condition(g)
        # accept before adjusting: a 1x1 instance has cond exactly 1 and
        # no noise to rescale, which is fine when the window allows it
        if np.isfinite(cond) and target / 2 <= cond <= 2 * target:
            return BlockTriangularMatrix(g, Partition(sizes))
        if not np.isfinite(cond):
            c *= 1e-3
        elif cond <= 1.0:
            c *= 1e3
        else:
            c *= (target / cond) ** 0.7
    raise RuntimeError(
        f"conditioning target {target} not reached in {_MAX_RESCALES} rescales "
        f"(last estimate {cond})"
    )


@dataclass(frozen=True)
class BenchRecord:
    """Per-stage result of one method on one instance."""

    method: str
    step: int
    dim: int
    cum_seconds: float
    rel_err: float | None
    restart: bool


@dataclass(frozen=True)
class MethodSpec:
    """Parsed benchmark method: kind plus, for "fixed", its scaling power."""

    name: str
    kind: str  # "naive" | "fixed" | "adaptive"
    s: int | None = None


def parse_method(name: str) -> MethodSpec:
    """Parse "naive", "fixed:<s>" or "adaptive"."""
    parts = name.split(":")
    kind = parts[0]
    if kind == "naive" and len(parts) == 1:
        return MethodSpec(name=name, kind="naive")
    if kind == "fixed" and len(parts) == 2:
        return MethodSpec(name=name, kind="fixed", s=as_scaling_power(int(parts[1])))
    if kind == "adaptive" and len(parts) == 1:
        return MethodSpec(name=name, kind="adaptive")
    raise ValueError(f"unrecognized method {name!r}")


def _method_stage_results(matrix, method: MethodSpec, check: bool):
    """Run one method once; per stage yield (dim, seconds, restart, rel_err).

    With ``check`` each stage is compared against a from-scratch baseline
    of its leading block, computed outside the timed section where the
    stage is compared and dropped after, so one reference is held at a
    time.
    """

    def err(f, dim):
        if not check:
            return None
        return _floored_err(f, expm_baseline(matrix.data[:dim, :dim].copy()))

    out = []
    if method.kind == "naive":
        off = matrix.partition.offsets
        for l in range(matrix.nblocks):
            dl = off[l + 1]
            gl = matrix.data[:dl, :dl].copy()
            t0 = time.perf_counter()
            f = expm_baseline(gl)
            seconds = time.perf_counter() - t0
            out.append((dl, seconds, False, err(f, dl)))
        return out
    columns = matrix.block_columns()
    if method.kind == "fixed":
        runner = run_fixed(columns, s=method.s)
    else:
        runner = run_adaptive(columns)
    for f, report in runner:
        out.append((report.dim, report.seconds, report.restart, err(f.data, report.dim)))
    return out


def _floored_err(f, ref) -> float:
    # agreement beyond machine precision is reported as machine precision
    return max(rel_error_fro(np.asarray(f), ref), _EPS)


def run_benchmark(
    matrix: BlockTriangularMatrix,
    methods,
    check: bool = False,
    repeats: int = 3,
) -> list[BenchRecord]:
    """Time each method over all stages of a growing instance.

    Parameters
    ----------
    matrix : BlockTriangularMatrix
        The full instance; stage l covers its leading l + 1 blocks.
    methods : iterable of str or MethodSpec
        Method names as accepted by :func:`parse_method`.
    check : bool
        Also compute each stage's relative Frobenius error, in the first
        run of each method, against a from-scratch baseline computed
        outside the timed sections.  Each reference is computed where its
        stage is compared, once per method, so at most one is held.
    repeats : int
        Per-stage seconds are medians over this many full runs.

    Returns
    -------
    list of BenchRecord
        One record per method and stage, with cumulative median seconds.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    specs = [m if isinstance(m, MethodSpec) else parse_method(m) for m in methods]
    records: list[BenchRecord] = []
    for spec in specs:
        runs = [_method_stage_results(matrix, spec, check and r == 0)
                for r in range(repeats)]
        cum = 0.0
        for l in range(matrix.nblocks):
            seconds = float(np.median([run[l][1] for run in runs]))
            cum += seconds
            dim, _, restart, err = runs[0][l]
            records.append(
                BenchRecord(
                    method=spec.name,
                    step=l,
                    dim=dim,
                    cum_seconds=cum,
                    rel_err=err,
                    restart=restart,
                )
            )
    return records


def write_bench_csv(records, path) -> None:
    """Write benchmark records as CSV with a fixed column set."""
    lines = ["method,step,dim,cum_seconds,rel_err,restart"]
    for r in records:
        err = "" if r.rel_err is None else f"{r.rel_err:.6e}"
        lines.append(
            f"{r.method},{r.step},{r.dim},{r.cum_seconds:.9f},{err},{int(r.restart)}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
