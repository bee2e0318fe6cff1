"""Incremental matrix exponentials for growing block triangular matrices.

Given a sequence of matrices G_0, G_1, ... where each G_n extends G_{n-1}
by one block column (and a new diagonal block), computing exp(G_n) from
scratch costs O(d_n^3) per step.  The engine here caches the intermediate
quantities of the Pade scaling-and-squaring pass -- the scaled matrix and
every repeated square of the rational approximant -- and extends all of
them by one block column per step.  The rational solve needs no cache of
its own: the approximant commutes with its denominator, so its new block
column follows from the cached approximant, square 0, and the LU factors
of the denominator's new diagonal block.  The per-step cost drops to
O(d^2 b) for a new block of size b, and counts only the blocks that can be
nonzero: every cache is block upper triangular, so each product with a
new block column skips the zero lower block triangle (down to the edges of
the column chunks below).  The power recurrence also skips, column chunk
by column chunk, the leading rows that the scaled matrix's zero-row
profile keeps exactly zero, so a banded scaled matrix, such as a
polynomial generator, costs only its band.
Only new block columns are ever computed, so earlier stages survive bit
for bit inside later ones.  The first block is one step from an empty
state, and that step's arithmetic is the baseline's, so the first stage is
bitwise what a from-scratch pass with the same scaling power produces.

Every cache that a product reads -- the scaled matrix and squares 0 ..
max(s, 1) - 1 -- is an append-only list of column chunks.  A chunk of
block columns keeps only the rows down to its last column, so the zero
lower block triangle is mostly not stored, and a step writes its new block
column into the open chunk or into a new one: no chunk is copied or
written once a later one opens.  A wide block column opens a chunk of
exactly its own width, and narrow ones are packed into shared chunks, so
the chunks hold little beyond the block upper triangle.  The first step
adopts its new diagonal blocks as the first chunks.  A product with a new
block column makes one GEMM per chunk: the last chunk writes the product,
and BLAS accumulates each earlier chunk's share in place in the output,
with no temporary and no separate add.  The current
exponential, which no product reads, is instead the leading d x d block
of one contiguous buffer with a few percent of spare capacity,
reallocated when full, so an emitted stage is a read-only view of it that
no later step writes.  Each step also hands back the new block column of
the exponential.  A reader that needs only some of its columns, as
Hermite-series pricing does, drives the engine at a fixed scaling power
without the buffer and names the columns it keeps (see ``_drive``):
squares 0 .. s - 1 are still formed in full, since the next step's
products read them, but square s, which nothing reads for s >= 1, is
formed only on the kept columns, at every step from the first.  The stage
path forms every column as before.

Two drivers share one loop, which tracks the running 1-norm of G and the
scaling power it needs; they differ only once the norm outgrows
THETA_13 * 2^s:

* ``run_fixed`` keeps the scaling power s fixed for the whole sequence
  and raises ``ValueError`` before the column that takes the norm past
  that bound, so it never emits an inaccurate stage.
* ``run_adaptive`` picks s from the current 1-norm and restarts on a
  merged partition there.  Restart stages are recomputed from scratch at
  the new scaling power, so the exponential emitted at a restart equals a
  fresh baseline call exactly; exponentials emitted before the restart
  are not revised.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm

from .blocks import BlockColumn, BlockTriangularMatrix, Partition, extend_square
from .dense import SingularMatrixError, lu_factor, lu_solve
from .pade import PADE_13, THETA_13, as_scaling_power, scaling_power

# The width of a new chunk (see _ChunkedCache._opened_columns).  A block of
# b >= 23 columns gets a chunk exactly its own width, so wide blocks leave
# no idle capacity.  Narrow blocks are packed into chunks about
# _CHUNK_WORK / b columns wide, so that each chunk's product with a block
# column of width b still does about _CHUNK_WORK multiply-adds per row:
# narrower chunks cost each product more BLAS calls, each with its fixed
# overhead.  A chunk is at most _CHUNK_GROWTH times as wide as the
# dimension it starts at, so a small cache stays small, and its chunks
# grow geometrically to the packed width.
_CHUNK_WORK = 512
_CHUNK_GROWTH = 4

# A full exponential buffer is reallocated to this multiple of the new
# dimension, or to room for two more blocks of the size just added if that
# is more.  Growing by 5% spreads the copying over many steps while adding
# at most about 10% to the bytes held; doubling would add up to 300%.  The
# two blocks matter where blocks grow as a share of the dimension, as the
# degree blocks of a polynomial generator do below degree 80: there 5% does
# not hold the next block, and every step would copy the buffer.
_GROWTH = 1.05


@dataclass(frozen=True)
class StepReport:
    """Bookkeeping for one emitted exponential.

    ``restart`` is True when the stage was recomputed from scratch on a
    merged partition (adaptive driver only).  ``seconds`` covers the
    exponential work of the stage, not any caller-side consumption.
    ``cache_bytes`` is what the state's cache buffers hold after the
    stage, spare capacity included.

    The last four fields split the stage's one :meth:`IncrementalExpState.step`
    into its phases: the power recurrence, the rational solve, the squaring
    and the growth of the caches.  ``squaring_seconds`` covers squares 1 ..
    s; in the column stream square s is formed only on the kept columns.
    A restart or first stage is one step from an empty state, so they time
    that step; ``seconds`` of a restart also covers merging the matrix.
    """

    step: int
    dim: int
    block_size: int
    s: int
    restart: bool
    seconds: float
    cache_bytes: int
    power_seconds: float
    solve_seconds: float
    squaring_seconds: float
    growth_seconds: float


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_cache_bytes(need: int, dim: int, s: int) -> None:
    """Raise MemoryError if the ``need`` bytes that the caches of dimension
    ``dim`` at scaling power ``s`` would hold exceed physical memory."""
    have = _physical_memory_bytes()
    if need > have:
        raise MemoryError(
            f"the caches of dimension {dim} at scaling power {s} would hold "
            f"{need} bytes, more than the {have} bytes of physical memory"
        )


class _ChunkedCache:
    """A block upper triangular cache stored as an append-only list of
    column chunks.

    Chunk k holds the columns [starts[k], k1), where k1 is the next
    chunk's start or, for the last chunk, ``dim``; it keeps only their rows
    [0, k1), in a zeroed array of starts[k] + cap rows and cap columns.  A
    block column goes into the last chunk while it fits; otherwise a new
    chunk opens: as wide as the block if that is 23 columns or more, else
    about 512 / b columns wide for a block of size b, capped at 4 times
    the dimension it starts at but never narrower than the block.  An
    empty cache adopts the first diagonal block as its first chunk.  No
    chunk is written once a later one opens.  Every chunk is C-ordered, so
    that :meth:`product` hands BLAS its transpose as a Fortran operand
    to read in place.
    """

    def __init__(self):
        self.dim = 0
        self.starts: list[int] = []
        self.chunks: list[np.ndarray] = []

    @property
    def nbytes(self) -> int:
        return sum(chunk.nbytes for chunk in self.chunks)

    def _fits(self, b: int) -> bool:
        return bool(self.chunks) and self.starts[-1] + self.chunks[-1].shape[1] >= self.dim + b

    def _opened_columns(self, b: int) -> int:
        """Columns of the chunk that a block column of size b opens."""
        return max(b, min(-(-_CHUNK_WORK // b), _CHUNK_GROWTH * self.dim))

    def opened_bytes(self, b: int) -> int:
        """Bytes of the chunk that appending a block column of size b opens
        or adopts (at dimension 0 the rule gives b columns, the adopted
        diagonal block's); 0 if the column fits the last chunk."""
        if self._fits(b):
            return 0
        cap = self._opened_columns(b)
        return (self.dim + cap) * cap * 8

    def append(self, top: np.ndarray, diag: np.ndarray) -> None:
        """Append the block column [top; diag]."""
        d = self.dim
        e = d + diag.shape[0]
        if d == 0:
            self.starts.append(0)
            # BLAS reads a chunk in place only if it is C-ordered.
            self.chunks.append(np.ascontiguousarray(diag))
        else:
            if not self._fits(diag.shape[0]):
                cap = self._opened_columns(diag.shape[0])
                self.starts.append(d)
                self.chunks.append(np.zeros((d + cap, cap)))
            k0, chunk = self.starts[-1], self.chunks[-1]
            chunk[:d, d - k0 : e - k0] = top
            chunk[d:e, d - k0 : e - k0] = diag
        self.dim = e

    def product(self, x: np.ndarray, c: int = 0,
                lead: np.ndarray | None = None) -> np.ndarray:
        """``a @ x`` for the cache a, reading no stored zero below the chunks.

        The rows of ``x`` above ``c`` are zero, so only the chunks right of
        c contribute.  The last chunk writes the product, and BLAS adds
        each earlier one's straight into its leading rows, with no
        temporary: ``dgemm`` forms C <- A B + C on the transposes, which
        for C-ordered arrays are the Fortran operands it reads in place.
        So every operand it gets is contiguous: ``x`` is made so once, and
        an earlier chunk passes all its stored columns, each with its row
        of ``x``.  Those left of c meet zero rows of ``x``, and the spare
        columns of a chunk that closed before filling up are stored zeros:
        the rows of ``x`` they meet, which the next chunk's first block
        column reads, add exactly nothing while they are finite.

        ``lead``, the zero-row profile of a (see :func:`_grow_lead`),
        windows each chunk further: the columns [j0, k1) that a chunk
        contributes are zero above row lead[j0], so it reads only the rows
        from lead[j0], and the last chunk writes zeros above its window.
        """
        d = self.dim
        if c >= d:
            return np.zeros((d, x.shape[1]))
        x = np.ascontiguousarray(x)
        out = np.empty((d, x.shape[1]))
        k1 = d
        for k0, chunk in zip(reversed(self.starts), reversed(self.chunks)):
            if k1 <= c:
                break
            j0 = max(k0, c)
            i0 = 0 if lead is None else int(lead[j0])
            if k1 == d:
                out[:i0] = 0.0
                np.matmul(chunk[i0:k1, j0 - k0 : k1 - k0], x[j0:k1], out=out[i0:k1])
            else:
                xs = x[k0 : k0 + chunk.shape[1]]
                dgemm(1.0, xs.T, chunk[i0:k1].T, beta=1.0, c=out[i0:k1].T, overwrite_c=True)
            k1 = k0
        return out

    def dense(self) -> np.ndarray:
        """The cache as a d x d array."""
        d = self.dim
        out = np.zeros((d, d))
        for k0, k1, chunk in zip(self.starts, self.starts[1:] + [d], self.chunks):
            out[:k1, k0:k1] = chunk[:k1, : k1 - k0]
        return out


def _write_column(buf: np.ndarray, d: int, top: np.ndarray, diag: np.ndarray,
                  capacity: int) -> np.ndarray:
    """Append the block column [top; diag] to the cache whose leading d x d
    block ``buf`` holds, and return the buffer that holds the grown cache.

    The buffer is ``buf`` itself while it has room; otherwise a zeroed one
    of ``capacity`` rows and columns takes a copy of the leading block.  An
    empty cache adopts ``diag`` as its buffer.  Nothing below the block
    diagonal is written, so those entries stay the buffer's zeros.
    """
    if d == 0:
        return diag
    e = d + diag.shape[0]
    if buf.shape[0] < e:
        grown = np.zeros((capacity, capacity))
        grown[:d, :d] = buf[:d, :d]
        buf = grown
    buf[:d, d:e] = top
    buf[d:e, d:e] = diag
    return buf


def _grow_lead(lead: np.ndarray, top: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Zero-row profile of a matrix after appending the block column
    [top; diag].

    ``lead[c]`` is the smallest row holding a nonzero in any column >= c,
    where a zero column counts as its own index, and ``lead[d] = d``.
    """
    d, b = top.shape[0], diag.shape[0]
    nonzero = np.vstack([top != 0, diag != 0])
    first = np.where(nonzero.any(axis=0), nonzero.argmax(axis=0), d + np.arange(b))
    suffix = np.minimum.accumulate(first[::-1])[::-1]
    return np.concatenate([np.minimum(lead[:d], suffix[0]), suffix, [d + b]])


class IncrementalExpState:
    """Cached scaling-and-squaring intermediates for one matrix sequence.

    A new state is empty, of dimension 0, and every block column enters
    through :meth:`step`, the first included, so the first block gets the
    same pivot and memory checks as every later one.  The state holds
    two kinds of cache, each block upper triangular and grown by one block
    column per step:

    * the scaled matrix 2^-s G;
    * the squares r(2^-s G)^(2^l) for l = 0 .. s; square s is the current
      exponential, and square 0, the approximant F itself, also gives the
      rational solve of the next step (see :meth:`_solve_rational_column`).

    The scaled matrix and squares 0 .. max(s, 1) - 1 are read by the next
    step's products and are stored as column chunks
    (:class:`_ChunkedCache`), so at s = 0 square 0 is kept there as well;
    square s is emitted as the leading ``dim`` x ``dim`` block of one
    buffer with spare capacity.  A state of ``_drive``'s column stream is
    built with a selection ``_keep`` that indexes the columns of each new
    block column, the first included: it keeps no buffer, forms the new
    block column of square s >= 1 only on those columns, and hands them
    back.  ``_keep=None``, the default, is a stage state.  The state also
    keeps the zero-row profile of the scaled matrix (see
    :func:`_grow_lead`), which windows the power recurrence, and in
    ``phase_seconds`` the seconds of each phase of the last step, keyed by
    the matching :class:`StepReport` fields.
    """

    # The approximant every cache extends; tracing tools read its degree.
    pade = PADE_13

    def __init__(self, s: int, *, _keep=None):
        self.s = as_scaling_power(s)
        self.partition = Partition(())
        self._lead = np.zeros(1, dtype=np.intp)
        self._gt = _ChunkedCache()
        self._squares = [_ChunkedCache() for _ in range(max(self.s, 1))]
        # A state of _drive's column stream keeps no buffer: the kept
        # columns of each new block column of the exponential leave only
        # as step's return.
        self._keep = _keep
        self._exp = np.empty((0, 0)) if _keep is None else None

    @property
    def dim(self) -> int:
        return self.partition.dim

    @property
    def cache_bytes(self) -> int:
        """Bytes of every array the state holds: the chunks, the
        exponential buffer with its spare capacity, if the state keeps
        one, and the zero-row profile."""
        chunks = self._gt.nbytes + sum(sq.nbytes for sq in self._squares)
        exp = 0 if self._exp is None else self._exp.nbytes
        return chunks + exp + self._lead.nbytes

    @property
    def exponential(self) -> BlockTriangularMatrix:
        """The current exp(G) as an immutable block matrix, not a copy.

        Its data is a read-only view of the leading block of the
        exponential buffer.  No step writes into that block, so the stage
        never changes, but the view keeps the whole buffer alive, capacity
        included, for as long as it is held: ``.data.copy()`` a stage that
        outlives the run to release the buffer.
        """
        if self._exp is None:
            raise RuntimeError("this state keeps no exponential, only its new block columns")
        d = self.dim
        return BlockTriangularMatrix._wrap(self._exp[:d, :d], self.partition)

    def unscaled_matrix(self) -> np.ndarray:
        """Assemble G from the scaled cache's chunks; exact, since the scale
        is a power of two."""
        g = self._gt.dense()
        g *= 2.0**self.s
        return g

    def _capacity(self, e: int, b: int) -> int:
        """Rows and columns of the exponential buffer once it holds
        dimension e after a block of size b; the first step's adopted
        diagonal block has no spare room."""
        held = self._exp.shape[0]
        if held >= e:
            return held
        return e if self.dim == 0 else max(int(_GROWTH * e), e + 2 * b)

    def step(self, col: BlockColumn) -> tuple[np.ndarray, np.ndarray]:
        """Grow the matrix by one block column and update all caches.

        Returns the new block column [top; diag] of exp(G) as the pair
        (top, diag); the whole new exponential is available as
        :attr:`exponential` afterwards.  A state of the column stream
        returns only the columns ``_keep`` of the new block column, and
        forms only those of square s.

        Raises
        ------
        ValueError
            If the column's row count is not the current dimension: on an
            empty state the first column has an empty top part.
        SingularMatrixError
            If the denominator polynomial of the new diagonal block is
            singular or numerically singular, which signals a norm far
            outside the Pade regime for the current scaling power.  The
            drivers keep every scaled norm at or below THETA_13, so only
            direct users of this class can reach it.
        MemoryError
            If the grown caches would not fit in physical memory.
        """
        if col.rows != self.dim:
            raise ValueError(
                f"block column has {col.rows} rows, current dimension is {self.dim}"
            )
        d, b = self.dim, col.block_size
        # What the step leaves held, plus the old exponential buffer while
        # a full one is reallocated: the chunked caches open their chunks
        # together, and the zero-row profile grows by b entries.
        need = self.cache_bytes + 8 * b + (len(self._squares) + 1) * self._gt.opened_bytes(b)
        if self._exp is not None:
            capacity = self._capacity(d + b, b)
            if capacity > self._exp.shape[0]:
                need += capacity * capacity * 8
        _check_cache_bytes(need, d + b, self.s)
        t0 = time.perf_counter()
        p_top, p_diag, q_top, q_diag, gt_col, dt, lead, c = self._extend_pq(col)
        t1 = time.perf_counter()
        f_col, f_diag = self._solve_rational_column(p_top, p_diag, q_top, q_diag, c)
        t2 = time.perf_counter()
        square_cols, (z, dsq) = self._squaring_column(f_col, f_diag)
        t3 = time.perf_counter()

        # Every phase has succeeded; only now are the caches grown.
        self._lead = lead
        self._gt.append(gt_col, dt)
        for cache, (top, diag) in zip(self._squares, square_cols):
            cache.append(top, diag)
        if self._exp is not None:
            self._exp = _write_column(self._exp, d, z, dsq, capacity)
        self.partition = self.partition.append(b)
        self.phase_seconds = {
            "power_seconds": t1 - t0,
            "solve_seconds": t2 - t1,
            "squaring_seconds": t3 - t2,
            "growth_seconds": time.perf_counter() - t3,
        }
        return z, dsq

    # -- step phases --------------------------------------------------

    def _extend_pq(self, col: BlockColumn):
        """New block columns of the numerator and denominator polynomials.

        With the scaled column g and scaled diagonal block D, the powers of
        the extended matrix have last block column X_l following

            X_1 = g,   X_l = Gprev X_{l-1} + g D^{l-1},

        so one pass accumulates sum alpha_l X_l and sum beta_l X_l in
        ascending order, reusing each X_l for both polynomials.  The same
        pass forms each power D^l once, from one running D^(l-1), and adds
        it to both new diagonal blocks p(D) and q(D) in the ascending order
        the baseline sums its powers in.

        If the rows of X_{l-1} above c are zero, so are those of X_l above
        r = min(lead[c], c): the product reads each column chunk of Gprev
        right of c only from the profile's row for its first column read,
        at or below row r, so a banded Gprev costs only its band.  The
        term g D^(l-1) is formed only on the rows from g's first nonzero
        row, and both sums are accumulated only on the rows from r.  The
        last such row bound is returned with the columns: the rows of both
        top parts above it are zero.  The zero-row profile grown with the
        new column, whose entry at d bounds g's first nonzero row, is
        returned as well, for :meth:`step` to commit with the caches.
        """
        m = self.pade.degree
        alpha, beta = self.pade.alpha, self.pade.beta
        scale = 2.0 ** (-self.s)
        gt_col = col.top * scale
        dt = col.diag * scale

        d = self.dim
        lead = _grow_lead(self._lead, gt_col, dt)
        c = g0 = min(int(lead[d]), d)
        eye = np.eye(dt.shape[0])
        # D^(l-1) at the top of iteration l; D^1 is I @ D, as in the baseline
        d_prev = eye @ dt
        x = gt_col
        p_top = alpha[1] * x
        q_top = beta[1] * x
        p_diag = alpha[0] * eye + alpha[1] * d_prev
        q_diag = beta[0] * eye + beta[1] * d_prev
        for l in range(2, m + 1):
            x = self._gt.product(x, c, self._lead)
            x[g0:] += gt_col[g0:] @ d_prev
            c = min(int(self._lead[c]), c)
            d_prev = d_prev @ dt
            p_top[c:] += alpha[l] * x[c:]
            q_top[c:] += beta[l] * x[c:]
            p_diag += alpha[l] * d_prev
            q_diag += beta[l] * d_prev
        return p_top, p_diag, q_top, q_diag, gt_col, dt, lead, c

    def _solve_rational_column(self, p_top, p_diag, q_top, q_diag, c):
        """Last block column of F = Q^-1 P for the extended polynomials.

        F and Q are rational functions of the same matrix, so they commute,
        and F Q = P.  With Q = [[Qprev, q_top], [0, Q_nn]] and F = [[Fprev,
        f_top], [0, F_nn]] the last block column of F Q = P reads
        Fprev q_top + f_top Q_nn = p_top, so

            F_nn = Q_nn^-1 P_nn,   f_top = (p_top - Fprev q_top) Q_nn^-1.

        Fprev is square 0, which the state caches, and the rows of q_top
        above c are zero, so the one product reads only its chunks right
        of c.  Both divisions reuse the LU factors of the new diagonal
        block: the left one solves with them, and the right one multiplies
        by the b x b inverse Q_nn^-1 that they give, a local of the step.
        """
        lu_nn = lu_factor(q_diag)
        if lu_nn.ill_conditioned:
            raise SingularMatrixError(
                "denominator diagonal block is numerically singular "
                f"(smallest pivot {lu_nn.smallest_pivot:.3e}); "
                "the matrix norm is outside the Pade regime for this scaling",
                pivot=lu_nn.smallest_pivot,
            )
        f_diag = lu_solve(lu_nn, p_diag)
        rhs = self._squares[0].product(q_top, c)
        np.subtract(p_top, rhs, out=rhs)
        f_col = rhs @ lu_solve(lu_nn, np.eye(q_diag.shape[0]))
        return f_col, f_diag

    def _squaring_column(self, f_col, f_diag):
        """New block columns of the cached squares 0 .. max(s, 1) - 1, as a
        list, and of square s, the exponential.

        Level 0 is the rational approximant itself.  For level l >= 1 the
        off-diagonal column follows

            Z_l = Fprev^(2^(l-1)) Z_{l-1} + Z_{l-1} D^(2^(l-1)),

        where Fprev powers come from the cache before extension and D
        powers are squared locally along the way.  Column j of level l
        reads only column j of Z_{l-1} and of D^(2^(l-1)) on the right, so
        a state of the column stream forms level s >= 1, which no cache
        keeps, only on its kept columns.  At s = 0 the level is square 0,
        which its cache keeps in full for the rational solve.
        """
        keep = slice(None) if self._keep is None else self._keep
        z, dsq = f_col, f_diag
        cols = []
        for l in range(self.s):
            cols.append((z, dsq))
            j = keep if l == self.s - 1 else slice(None)
            z = self._squares[l].product(z[:, j]) + z @ dsq[:, j]
            dsq = dsq @ dsq[:, j]
        if self.s == 0:
            cols.append((z, dsq))
            z, dsq = z[:, keep], dsq[:, keep]
        return cols, (z, dsq)


def _drive(columns, fixed: int | None, keep=None):
    """The one loop of both drivers and of Hermite-series pricing: a fixed
    scaling power, or None for adaptive scaling.  The running 1-norm is
    the largest absolute column sum so far, exact for block upper
    triangular G.

    With ``keep=None`` it yields each stage as
    :attr:`IncrementalExpState.exponential`.  Otherwise ``keep`` is a
    numpy index of the columns of each block column of ``columns`` (a
    slice or a list of positions), its state keeps no exponential buffer,
    and it yields in place of each stage the pair (top, diag) of the
    kept columns of the column's block column of exp(G): d x k and b x k
    for k kept columns of a block of size b at dimension d.  Square s is
    formed only on those columns.  Such a column stream runs at a fixed
    scaling power only, so it never restarts: ValueError at the first
    ``next`` if ``keep`` is given with ``fixed=None``.
    """
    if keep is not None and fixed is None:
        raise ValueError("a column stream runs at a fixed scaling power")
    state = None
    norm = 0.0
    for n, col in enumerate(columns):
        col_norms = np.abs(col.top).sum(axis=0) + np.abs(col.diag).sum(axis=0)
        norm = max(norm, float(col_norms.max()))
        need = scaling_power(norm)
        if fixed is not None and need > fixed:
            raise ValueError(
                f"block column {n} takes the 1-norm to {norm!r}, above THETA_13 * 2^{fixed}"
                f" = {THETA_13 * 2.0**fixed!r}: fixed scaling power s = {fixed} is too"
                f" small, the matrix needs s >= {need}"
            )
        restart = state is not None and need > state.s
        t0 = time.perf_counter()
        step_col = col
        if restart:
            g = extend_square(state.unscaled_matrix(), col.top, col.diag)
            # Free the old caches before the merged pass builds its own, and
            # g once the column holds its copy.
            state = None
            step_col = BlockColumn(np.empty((0, g.shape[0])), g, check_finite=False)
            del g
        if state is None:
            state = IncrementalExpState(need if fixed is None else fixed, _keep=keep)
        stage = state.step(step_col)
        seconds = time.perf_counter() - t0
        report = StepReport(step=n, dim=state.dim, block_size=col.block_size, s=state.s,
                            restart=restart, seconds=seconds, cache_bytes=state.cache_bytes,
                            **state.phase_seconds)
        if keep is None:
            # Hold no copy of the new column beside the buffer while the
            # stage is out.
            stage = state.exponential
        yield stage, report


def run_fixed(columns, s: int):
    """Incrementally exponentiate a block-column sequence at fixed scaling.

    Parameters
    ----------
    columns : iterable of BlockColumn
        The first column must have an empty top part; each later column's
        row count must match the accumulated dimension.
    s : int
        Scaling power used for every stage.  An s above the one the norm
        needs is accepted but costs accuracy, as in
        :func:`~blockexpm.pade.expm_baseline`: the error about doubles
        with each extra power.

    Yields
    ------
    (BlockTriangularMatrix, StepReport)
        The exponential of the matrix accumulated so far and the stage's
        bookkeeping.

    Raises
    ------
    ValueError
        At the call for an s that is not a nonnegative integer.  During
        iteration, before stepping a column that takes the running 1-norm
        above THETA_13 * 2^s, where the approximant loses accuracy; the
        stages already yielded stay valid.
    """
    return _drive(columns, as_scaling_power(s))


def run_adaptive(columns):
    """Incrementally exponentiate with norm-driven scaling and restarts.

    The initial scaling power is picked from the first diagonal block's
    1-norm.  Whenever a new column pushes 2^-s ||G||_1 above THETA_13, the
    accumulated blocks and the new column are merged into a single leading
    block, s is re-selected from the grown norm, and the stage is computed
    from scratch on the merged matrix.  Such stages are flagged with
    ``restart=True`` in their report and match a baseline call with the
    new scaling power exactly; earlier emitted exponentials keep the old
    scaling.  Since each restart strictly increases s, the number of
    restarts is at most ceil(log2(||G||_1 / THETA_13)).

    Yields the same pairs as :func:`run_fixed`.
    """
    return _drive(columns, None)
