"""Spans around blockexpm's public functions, recorded from outside.

The tracer replaces module and class attributes that the engine looks up
at call time with timing wrappers, and puts the originals back when the
traced pass ends.  Each call becomes a span (name, start, end, parent);
spans stay in memory and are reduced to per-layer figures after the pass.
Nothing under ``src/`` knows it is traced; the private step phases are
therefore only visible as the self time of ``IncrementalExpState.step``.

What each figure is expected to move:

* ``incremental.step_*``: ``wall_s`` on desk_adaptive, where steps are
  about 70% of the run; a sparse-generator change moves it on
  price_adaptive only.  ``step_gflop`` is computed from the shapes.
* ``incremental.restarts``, ``restart_s``: ``wall_s`` and ``peak_heap_mb``
  on price_adaptive only; zero on the other two.
* ``incremental.exponential_copy_s``: ``tail_step_s`` on every workload.
* ``incremental.cache_mb``: ``peak_heap_mb`` on price_adaptive.
* ``blocks.extend_square_*``: ``wall_s`` on thin_blocks and desk_adaptive,
  ``peak_heap_mb`` on price_adaptive.  ``extend_square_gb`` is computed
  bytes written.
* ``dense.lu_*``: ``wall_s`` on thin_blocks; no change on price_adaptive.
* ``generators.*`` and ``pricing.*``: ``wall_s`` on price_adaptive only.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import blockexpm.incremental as incremental
import blockexpm.pricing as pricing
from blockexpm.incremental import IncrementalExpState

STEP = "incremental.step"
INIT = "incremental.init"
EXPONENTIAL = "incremental.exponential"
EXTEND = "blocks.extend_square"
LU_SOLVE = "dense.lu_solve"
LU_FACTOR = "dense.lu_factor"
COLUMN = "generators.column"
QUADRATURE = "pricing.quadrature"
MOMENT = "pricing.moment"


def step_flops(d: int, b: int, s: int, m: int, offsets) -> int:
    """Computed dense-equivalent flops of the GEMMs in one engine step.

    For a state of dimension d with block offsets ``offsets``, a new block
    of size b, scaling power s and Pade degree m: m b x b powers of the
    diagonal block, m - 1 power-recurrence updates (d x d times d x b plus
    d x b times b x b), the q_top f_diag product, one back-substitution
    product per cached block row, and per squaring level two products
    for the column plus one for the diagonal block.  Counted from the
    shapes, not measured.
    """
    pq = m * 2 * b**3 + (m - 1) * (2 * d * d * b + 2 * d * b * b)
    backsub = sum(
        2 * (offsets[l + 1] - offsets[l]) * (d - offsets[l + 1]) * b
        for l in range(len(offsets) - 1)
    )
    solve = 2 * d * b * b + backsub
    squaring = s * (2 * d * d * b + 2 * d * b * b + 2 * b**3)
    return pq + solve + squaring


def held_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds in attributes, lists and
    dataclass fields."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(held_bytes(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return sum(held_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if hasattr(obj, "__dict__"):
        return sum(held_bytes(x) for x in vars(obj).values())
    return 0


# Figures counted from array shapes rather than measured.
COMPUTED = ("incremental.step_gflop", "incremental.step_gflops", "blocks.extend_square_gb")

UNITS = {
    "incremental.step_s": "s",
    "incremental.step_calls": "count",
    "incremental.step_self_s": "s",
    "incremental.step_gflop": "GFLOP",
    "incremental.step_gflops": "GFLOP/s",
    "incremental.restarts": "count",
    "incremental.restart_s": "s",
    "incremental.exponential_copy_s": "s",
    "incremental.cache_mb": "MB",
    "blocks.extend_square_s": "s",
    "blocks.extend_square_calls": "count",
    "blocks.extend_square_gb": "GB",
    "dense.lu_solve_s": "s",
    "dense.lu_solve_calls": "count",
    "dense.lu_factor_s": "s",
    "dense.lu_factor_calls": "count",
    "generators.column_s": "s",
    "generators.columns": "count",
    "generators.nnz_per_column": "count",
    "pricing.quadrature_s": "s",
    "pricing.quadrature_calls": "count",
    "pricing.moment_s": "s",
}


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.last_state: IncrementalExpState | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``; hooks run outside the span."""

        def wrapped(*args, **kwargs):
            if before is not None:
                before(*args)
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(out, *args)
            return out

        return wrapped

    def wrap_columns(self, fn):
        """A column generator whose every ``next`` is a span."""

        def wrapped(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(COLUMN)
                try:
                    col = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                self.counts["columns"] += 1
                self.counts["nnz"] += int(np.count_nonzero(col.top)) + int(
                    np.count_nonzero(col.diag)
                )
                yield col

        return wrapped

    # -- hooks ------------------------------------------------------------

    def _count_step(self, state, col) -> None:
        self.counts["step_flop"] += step_flops(
            state.dim, col.block_size, state.s, state.pade.degree, state.partition.offsets
        )

    def _keep_state(self, _out, state, *_args) -> None:
        self.last_state = state

    def _count_extend(self, out, *_args) -> None:
        self.counts["extend_bytes"] += out.nbytes

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        exponential = IncrementalExpState.__dict__["exponential"]
        targets = [
            (incremental, "extend_square", self.wrap(EXTEND, incremental.extend_square,
                                                     after=self._count_extend)),
            (incremental, "lu_solve", self.wrap(LU_SOLVE, incremental.lu_solve)),
            (incremental, "lu_factor", self.wrap(LU_FACTOR, incremental.lu_factor)),
            (IncrementalExpState, "step", self.wrap(STEP, IncrementalExpState.step,
                                                    before=self._count_step)),
            (IncrementalExpState, "__init__", self.wrap(INIT, IncrementalExpState.__init__,
                                                        after=self._keep_state)),
            (IncrementalExpState, "exponential",
             property(self.wrap(EXPONENTIAL, exponential.fget))),
            (pricing, "fourier_coefficient", self.wrap(QUADRATURE, pricing.fourier_coefficient)),
            (pricing, "hermite_moment", self.wrap(MOMENT, pricing.hermite_moment)),
            (pricing, "generator_block_columns",
             self.wrap_columns(pricing.generator_block_columns)),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, new in targets:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer figures of the pass, keyed and measured as in UNITS.

        Raises RuntimeError if the children of any span add up to more
        than the span itself, which would make self times meaningless.
        """
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, _) in enumerate(self.spans):
            if child_time[i] > (t1 - t0) + 1e-9:
                raise RuntimeError(
                    f"span {name} lasted {t1 - t0:.3e}s but its children {child_time[i]:.3e}s"
                )
        step_children = sum(
            child_time[i] for i, span in enumerate(self.spans) if span[0] == STEP
        )
        inits = [t1 - t0 for name, t0, t1, _ in self.spans if name == INIT]
        step_s = total[STEP]
        return {
            "incremental.step_s": step_s,
            "incremental.step_calls": calls[STEP],
            "incremental.step_self_s": step_s - step_children,
            "incremental.step_gflop": self.counts["step_flop"] / 1e9,
            "incremental.step_gflops": (
                self.counts["step_flop"] / 1e9 / step_s if step_s > 0 else 0.0
            ),
            "incremental.restarts": max(len(inits) - 1, 0),
            "incremental.restart_s": sum(inits[1:]),
            "incremental.exponential_copy_s": total[EXPONENTIAL],
            "incremental.cache_mb": (
                held_bytes(self.last_state) / 1e6 if self.last_state is not None else 0.0
            ),
            "blocks.extend_square_s": total[EXTEND],
            "blocks.extend_square_calls": calls[EXTEND],
            "blocks.extend_square_gb": self.counts["extend_bytes"] / 1e9,
            "dense.lu_solve_s": total[LU_SOLVE],
            "dense.lu_solve_calls": calls[LU_SOLVE],
            "dense.lu_factor_s": total[LU_FACTOR],
            "dense.lu_factor_calls": calls[LU_FACTOR],
            "generators.column_s": total[COLUMN],
            "generators.columns": self.counts["columns"],
            "generators.nnz_per_column": (
                self.counts["nnz"] / self.counts["columns"] if self.counts["columns"] else 0.0
            ),
            "pricing.quadrature_s": total[QUADRATURE],
            "pricing.quadrature_calls": calls[QUADRATURE],
            "pricing.moment_s": total[MOMENT],
        }
