"""Incremental matrix exponentials for growing block triangular matrices.

Given a sequence of matrices G_0, G_1, ... where each G_n extends G_{n-1}
by one block column (and a new diagonal block), computing exp(G_n) from
scratch costs O(d_n^3) per step.  The engine here caches the intermediate
quantities of the Pade scaling-and-squaring pass -- the scaled matrix A,
its powers A^2 and A^6, and the repeated squares of the rational
approximant -- and extends all of them by one block column per step.  The
numerator and denominator polynomials take six products a step, by
Higham's evaluation of r_13 made incremental (see
``IncrementalExpState._six_product_tops``), where summing the powers of A
takes twelve.  The rational solve needs no cache of its own: the
approximant commutes with its denominator, so its new block column follows
from the cached approximant, square 0, and the LU factors of the
denominator's new diagonal block.  The per-step cost drops to O(d^2 b) for
a new block of size b, and counts only the blocks that can be nonzero:
every cache is block upper triangular, so each product with a new block
column skips the zero lower block triangle (down to the edges of the
column chunks below).  A sparse scaled matrix, such as a polynomial
generator, is held as compressed sparse columns; the state then drops A^2
and A^6 and sums the powers by the recurrence, which reads only its
nonzeros and costs only its band.  Only new block columns are ever
computed, so earlier stages survive bit for bit inside later ones.  The
first block is one step from an empty state, and every new diagonal block
is evaluated as the baseline evaluates a matrix, so the first stage is
bitwise what a from-scratch pass with the same scaling power produces.

Every cache that a product reads -- the scaled matrix while it is dense,
A^2, A^6 and squares 0 .. s - t, t = min(s, 2) -- is an append-only list
of column chunks.  A chunk of block columns keeps only the rows down to its last
column, so the zero lower block triangle is mostly not stored, and a step
writes its new block column into the open chunk or into a new one: no
chunk is copied or written once a later one opens.  A wide block column
opens a chunk of exactly its own width, and narrow ones are packed into
shared chunks, so the chunks hold little beyond the block upper triangle.
The first step adopts its new diagonal blocks as the first chunks.  A
product with a new block column makes one GEMM per chunk: the last chunk
writes the product, and BLAS accumulates each earlier chunk's share in
place in the output, with no temporary and no separate add.  The scaled
matrix converts once to compressed sparse columns when that form takes
fewer bytes than its block triangle, and a product with it is one CSC
product (see ``IncrementalExpState._scaled_growth``); the squares are
dense, and stay chunked, and A^2 and A^6 are dropped.  The store's arrays
hold exactly its entries, and each step replaces them by their
concatenation with the new column's; its row indices are the state's only
record of where A's nonzeros lie, and bound the rows that the power
recurrence writes (see ``_SparseColumns.first_row``).  The current
exponential, which no product reads, is instead the leading d x d block
of one contiguous buffer with a few percent of spare capacity,
reallocated when full, so an emitted stage is a read-only view of it that
no later step writes.  Each step also
hands back the new block column of the exponential.  Square s is formed
from square s - t as S^(2^t - 1) [z; D], by 2^t - 1 b-wide products with
S: one product more than the two squarings it replaces, for one cache
fewer, which holds the heap peak down while A^2 and A^6 are cached (see
``_STAGE_LEVELS``).

A reader that needs only u^T exp(G) for one fixed row u, as
Hermite-series pricing does, drives the engine at a fixed scaling power as
a row stream (see ``_drive``): the scaling and squaring read from the
left, the idea of the action of the exponential (Al-Mohy and Higham, SIAM
J. Sci. Comput. 33(2), 2011) applied to u^T, with the engine's own r_13
and scaling power.  Its state caches the scaled matrix and its powers as
a stage state does, but no square and no exponential: it holds the 2^s +
1 rows r_k = u^T F^k of the approximant F = r_13(A), k = 0 .. 2^s, and
r_(2^s) is u^T exp(G).  Each step extends every row by its b new entries:
two products of the rows with the new top parts of the polynomials give
the rows' products with F's new top part, since r_k = r_(k-1) Fprev, and
a doubling over k adds the new diagonal block's powers (see
``IncrementalExpState._row_powers``).  No product reads a d x d cache
past the power phase, and the leading entries of every row are never
rewritten.  The rows grow with 2^s where the squares grow with s, so the
row stream holds less only up to s of about 12.

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
from .pade import (PADE_13, THETA_13, as_scaling_power, pade_polynomials, pade_powers,
                   scaling_power)

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

# A full exponential buffer, or a row state's buffer of rows, is
# reallocated to this multiple of the new dimension, or to room for two
# more blocks of the size just added if that is more.  Growing by 5% spreads the copying over many steps while adding
# at most about 10% to the bytes held; doubling would add up to 300%.  The
# two blocks matter where blocks grow as a share of the dimension, as the
# degree blocks of a polynomial generator do below degree 80: there 5% does
# not hold the next block, and every step would copy the buffer.
_GROWTH = 1.05

# A stage state at scaling power s caches squares 0 .. s - t, with
# t = min(s, _STAGE_LEVELS), and forms the new block column of square s as
# S^(2^t - 1) [z; D] by 2^t - 1 b-wide products with S, square s - t.  At
# t = 1 that is the squaring of square s - 1; level t makes 2^(t-1) - 1
# products a step more than level t - 1, and caches a square fewer.  The
# six-product power phase caches A^2 and A^6 beside the scaled matrix, so
# at t = 1 a stage state holds two caches more than summing powers did,
# and at t = 2 one.  Sized on perfbench's desk and thin
# workloads (1 BLAS thread, the warm-up pass's tracemalloc peak, as
# perfbench takes it, and the best of 5 passes, two processes per t run
# in turn), against 30.30 and 34.53 MB when the powers were summed: t = 1
# peaked at 35.37 and 42.63 MB, t = 2 at 32.24 and 38.58 MB and t = 3 at
# 29.12 and 34.52 MB; desk's passes took 0.085-0.089 s at t = 1,
# 0.088-0.091 s at t = 2 and 0.101-0.107 s at t = 3, thin's 0.39-0.42,
# 0.39-0.42 and 0.46-0.49 s.
_STAGE_LEVELS = 2

# The sparse form of the scaled matrix holds 32-bit indices, so it stores
# at most this many nonzeros in at most this many columns.
_MAX_INDEX = int(np.iinfo(np.int32).max)


@dataclass(frozen=True)
class StepReport:
    """Bookkeeping for one emitted exponential.

    ``restart`` is True when the stage was recomputed from scratch on a
    merged partition (adaptive driver only).  ``seconds`` covers the
    exponential work of the stage, not any caller-side consumption.
    ``cache_bytes`` is what the state's cache buffers hold after the
    stage, spare capacity included.

    The last four fields split the stage's one :meth:`IncrementalExpState.step`
    into its phases: the powers (``power_seconds``: the new block columns
    of the numerator and denominator polynomials, by six products while
    the scaled matrix is dense and by the power recurrence once it is
    sparse, see :meth:`IncrementalExpState._extend_pq`), the rational
    solve, the squaring and the growth of the caches.  On the stage path
    ``squaring_seconds`` covers squares 1 .. s: squares 1 .. s - t
    squared, and square s as 2^t - 1 b-wide products with square s - t,
    t = min(s, 2) (see :meth:`IncrementalExpState._squaring_column`).  In
    the row stream ``solve_seconds`` covers the LU of the new diagonal
    block and the rows' two products, and ``squaring_seconds`` the
    doubling (see :meth:`IncrementalExpState._row_powers`).
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


def _check_cache_bytes(need: int, dim: int, s: int, rows: int | None = None) -> None:
    """Raise MemoryError if the ``need`` bytes that the caches of dimension
    ``dim`` at scaling power ``s`` would hold exceed physical memory; a row
    state names its ``rows`` rows u^T F^k."""
    have = _physical_memory_bytes()
    if need > have:
        held = "" if rows is None else f", with {rows} rows u^T F^k,"
        raise MemoryError(
            f"the caches of dimension {dim} at scaling power {s}{held} would hold "
            f"{need} bytes, more than the {have} bytes of physical memory"
        )


class _ChunkedCache:
    """A block upper triangular cache stored as an append-only list of
    column chunks: each square, and the scaled matrix while it is dense.

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

    def product(self, x: np.ndarray, c: int = 0) -> np.ndarray:
        """``a @ x`` for the cache a, reading no stored zero below the chunks.

        The rows of ``x`` above ``c`` are zero, so only the chunks right of
        c contribute.  The last chunk writes the product, and BLAS adds
        each earlier one's straight into it, with no temporary: ``dgemm``
        forms C <- A B + C on the transposes, which for C-ordered arrays
        are the Fortran operands it reads in place.  So every operand it
        gets is contiguous: ``x`` is made so once, and an earlier chunk
        passes all its stored columns, each with its row of ``x``.  Those
        left of c meet zero rows of ``x``, and the spare columns of a chunk
        that closed before filling up are stored zeros: the rows of ``x``
        they meet, which the next chunk's first block column reads, add
        exactly nothing while they are finite.
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
            if k1 == d:
                j0 = max(k0, c)
                np.matmul(chunk[:k1, j0 - k0 : k1 - k0], x[j0:k1], out=out)
            else:
                xs = x[k0 : k0 + chunk.shape[1]]
                dgemm(1.0, xs.T, chunk[:k1].T, beta=1.0, c=out[:k1].T, overwrite_c=True)
            k1 = k0
        return out

    def block_columns(self):
        """Each chunk's stored columns as a block column (top, diag): the
        rows above the chunk's start, and the square below them."""
        for k0, k1, chunk in zip(self.starts, self.starts[1:] + [self.dim], self.chunks):
            yield chunk[:k0, : k1 - k0], chunk[k0:k1, : k1 - k0]

    def dense(self) -> np.ndarray:
        """The cache as a d x d array."""
        d = self.dim
        out = np.zeros((d, d))
        for k0, k1, chunk in zip(self.starts, self.starts[1:] + [d], self.chunks):
            out[:k1, k0:k1] = chunk[:k1, : k1 - k0]
        return out


class _SparseColumns:
    """A block upper triangular matrix stored as compressed sparse columns,
    in arrays of exactly its size.

    Column j holds the values ``data[indptr[j] : indptr[j + 1]]`` in the
    rows ``indices[...]``, ascending.  Each append replaces the three
    arrays by their concatenation with the new column's entries, so the
    store holds no spare capacity, and the old arrays are held beside the
    new ones only while they are built.  The indices are 32-bit, the type
    scipy's sparse products take without a copy, so a nonzero takes 12
    bytes and a column 4, and a store holds at most 2^31 - 1 nonzeros and
    columns (see :meth:`check_size`).  The row indices also say where the
    nonzeros lie (see :meth:`first_row`), so the state keeps no other
    record of A's sparsity.
    """

    def __init__(self):
        self.dim = 0
        self.data = np.empty(0)
        self.indices = np.empty(0, dtype=np.int32)
        self.indptr = np.zeros(1, dtype=np.int32)

    @staticmethod
    def bytes_for(nnz: int, dim: int) -> int:
        """Bytes of a store of ``nnz`` nonzeros in ``dim`` columns."""
        return 12 * nnz + 4 * (dim + 1)

    @staticmethod
    def check_size(nnz: int, dim: int) -> None:
        """Raise ValueError unless 32-bit indices address ``nnz`` nonzeros
        in ``dim`` columns."""
        if max(nnz, dim) > _MAX_INDEX:
            raise ValueError(
                f"the scaled matrix would hold {nnz} nonzeros in {dim} columns, past the "
                f"{_MAX_INDEX} that the 32-bit indices of its sparse form address"
            )

    @classmethod
    def from_chunks(cls, cache: _ChunkedCache) -> "_SparseColumns":
        """The columns of a chunked cache."""
        store = cls()
        for top, diag in cache.block_columns():
            store.append(top, diag)
        return store

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def first_row(self, c: int) -> int:
        """The first row holding a nonzero in any column from ``c`` on, or
        c if that is smaller: the rows of a product ``a @ x`` above it are
        zero whenever the rows of ``x`` above c are."""
        return int(self.indices[self.indptr[c] :].min(initial=c))

    def append(self, top: np.ndarray, diag: np.ndarray) -> None:
        """Append the block column [top; diag], storing its nonzeros only."""
        d, b = self.dim, diag.shape[1]
        # the transpose lists the nonzeros column by column, rows ascending
        block = np.vstack([top, diag]).T
        cols, rows = np.nonzero(block)
        ptr = self.indptr[d] + np.cumsum(np.bincount(cols, minlength=b))
        self.data = np.concatenate([self.data, block[cols, rows]])
        self.indices = np.concatenate([self.indices, rows], dtype=np.int32)
        self.indptr = np.concatenate([self.indptr, ptr], dtype=np.int32)
        self.dim = d + b

    def product(self, x: np.ndarray, c: int = 0) -> np.ndarray:
        """``a @ x`` for the stored a, where the rows of ``x`` above ``c``
        are zero: one CSC product with the columns right of c, which reads
        only their nonzeros and leaves every row they miss exactly 0."""
        from scipy.sparse import csc_matrix

        d = self.dim
        if c >= d:
            return np.zeros((d, x.shape[1]))
        ptr = self.indptr[c:]
        p0 = int(ptr[0])
        a = csc_matrix((self.data[p0:], self.indices[p0:], ptr - p0), shape=(d, d - c))
        return a @ x[c:d]

    def dense(self) -> np.ndarray:
        """The stored matrix as a d x d array."""
        d = self.dim
        out = np.zeros((d, d))
        out[self.indices, np.repeat(np.arange(d), np.diff(self.indptr))] = self.data
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


class IncrementalExpState:
    """Cached scaling-and-squaring intermediates for one matrix sequence.

    A new state is empty, of dimension 0, and every block column enters
    through :meth:`step`, the first included, so the first block gets the
    same pivot and memory checks as every later one.  The state holds
    three kinds of cache, each block upper triangular and grown by one
    block column per step:

    * the scaled matrix A = 2^-s G;
    * its powers A^2 and A^6, which the six-product evaluation of the Pade
      polynomials reads (see :meth:`_extend_pq`), while A is held as
      column chunks;
    * on the stage path, the squares r(A)^(2^l) for l = 0 .. s - t; square
      0, the approximant F itself, also gives the rational solve of the
      next step (see :meth:`_solve_rational_column`), and square s is the
      current exponential.

    Every cache but the exponential is read by the next step's products,
    and each is stored as column chunks (:class:`_ChunkedCache`).  The
    scaled matrix starts so and converts once to compressed sparse columns
    (:class:`_SparseColumns`) when that form takes fewer bytes (see
    :meth:`_scaled_growth`), as a polynomial generator does at degree 4
    and a dense matrix never does; the state then drops A^2 and A^6 and
    extends the polynomials by the power recurrence, which reads only the
    sparse store, whose row indices also bound the rows it writes.  A
    stage state, the default, has t = min(s, 2): it forms square s from
    square s - t (see :meth:`_squaring_column`) and emits it as the
    leading ``dim`` x ``dim`` block of one buffer with spare capacity.  A
    row state of ``_drive``'s row stream is built with ``_row=u``: it
    keeps no square and no exponential, only u and one buffer of the 2^s
    + 1 rows u[:d]^T F^k, k = 0 .. 2^s, with spare columns grown as the
    exponential buffer's are, which its first step allocates; each step
    extends the rows (see :meth:`_solve_rational_column` and
    :meth:`_row_powers`) and hands back the b entries of u^T exp(G) at
    the new block.  The state also keeps in ``phase_seconds`` the seconds
    of each phase of the last step, keyed by the matching
    :class:`StepReport` fields.
    """

    # The approximant every cache extends; tracing tools read its degree.
    pade = PADE_13

    def __init__(self, s: int, *, _row: np.ndarray | None = None):
        self.s = as_scaling_power(s)
        self.partition = Partition(())
        self._gt: _ChunkedCache | _SparseColumns = _ChunkedCache()
        # A^2 and A^6, held while the scaled matrix is chunked
        self._powers = [_ChunkedCache(), _ChunkedCache()]
        # The scaled matrix's nonzeros and block-triangle entries, which
        # decide when its chunks convert to sparse columns.
        self._nnz = 0
        self._entries = 0
        self._t = min(self.s, _STAGE_LEVELS)
        # A row state of _drive's row stream keeps neither squares nor an
        # exponential, only the row u and the buffer of the rows u^T F^k,
        # whose 2^s + 1 rows its first step shapes, after the memory guard.
        self._row = _row
        stage = _row is None
        self._squares = [_ChunkedCache() for _ in range(self.s - self._t + 1)] if stage else []
        self._exp = np.empty((0, 0)) if stage else None
        self._rows = None if stage else np.empty((0, 0))

    @property
    def dim(self) -> int:
        return self.partition.dim

    @property
    def cache_bytes(self) -> int:
        """Bytes of every array the state holds: the scaled matrix's
        chunks or sparse store, the chunks of its powers and of the
        squares, and the exponential buffer of a stage state or the row u
        and the buffer of the rows u^T F^k of a row state, each with its
        spare capacity."""
        caches = self._gt.nbytes + sum(c.nbytes for c in self._powers + self._squares)
        if self._row is None:
            return caches + self._exp.nbytes
        return caches + self._row.nbytes + self._rows.nbytes

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
            raise RuntimeError("this state keeps no exponential, only the rows u^T F^k")
        d = self.dim
        return BlockTriangularMatrix._wrap(self._exp[:d, :d], self.partition)

    def unscaled_matrix(self) -> np.ndarray:
        """Assemble G from the scaled cache's chunks; exact, since the scale
        is a power of two."""
        g = self._gt.dense()
        g *= 2.0**self.s
        return g

    def _capacity(self, held: int, e: int, b: int) -> int:
        """Columns of a buffer of ``held`` columns, the exponential's or
        the rows', once it holds dimension e after a block of size b; the
        first step's adopted block has no spare room."""
        if held >= e:
            return held
        return e if self.dim == 0 else max(int(_GROWTH * e), e + 2 * b)

    def step(self, col: BlockColumn) -> tuple[np.ndarray, np.ndarray]:
        """Grow the matrix by one block column and update all caches.

        Returns the new block column [top; diag] of exp(G) as the pair
        (top, diag); the whole new exponential is available as
        :attr:`exponential` afterwards.  A row state returns instead the b
        entries of u^T exp(G) at the new block, a 1-D array.

        Raises
        ------
        ValueError
            If the column's row count is not the current dimension: on an
            empty state the first column has an empty top part.  Also if
            the sparse form of the scaled matrix would pass the 2^31 - 1
            nonzeros or columns its 32-bit indices address, and, in a row
            state, if u has fewer entries than the grown matrix columns.
        SingularMatrixError
            If the denominator polynomial of the new diagonal block is
            singular or numerically singular, which signals a norm far
            outside the Pade regime for the current scaling power.  The
            drivers keep every scaled norm at or below THETA_13, so only
            direct users of this class can reach it.
        MemoryError
            If the grown caches would not fit in physical memory; a row
            state counts its 2^s + 1 rows before it allocates them.
        """
        if col.rows != self.dim:
            raise ValueError(
                f"block column has {col.rows} rows, current dimension is {self.dim}"
            )
        d, b = self.dim, col.block_size
        scale = 2.0 ** (-self.s)
        gt_col, dt = col.top * scale, col.diag * scale
        nnz = int(np.count_nonzero(gt_col) + np.count_nonzero(dt))
        gt_bytes, to_sparse = self._scaled_growth(nnz, b)
        # What the step leaves held, plus what it drops at the end: the old
        # exponential or rows buffer while a full one is reallocated, and
        # the old store or chunks of the scaled matrix (see _scaled_growth).
        # The squares, and the powers unless the step drops them, open their
        # chunks together.
        grown = self._squares + ([] if to_sparse else self._powers)
        need = self.cache_bytes + gt_bytes + sum(cache.opened_bytes(b) for cache in grown)
        # The exponential buffer is square, the rows' buffer has 2^s + 1
        # rows; both are counted in Python ints, before any allocation.
        k = 2**self.s
        if self._row is None:
            held, rows = self._exp.shape[0], None
        else:
            if self._row.shape[0] < d + b:
                raise ValueError(f"the row u has {self._row.shape[0]} entries, fewer than "
                                 f"the {d + b} columns of the grown matrix")
            held, rows = self._rows.shape[1], k + 1
        capacity = self._capacity(held, d + b, b)
        if capacity > held:
            need += (capacity if rows is None else rows) * capacity * 8
        _check_cache_bytes(need, d + b, self.s, rows)
        if rows is not None and d == 0:
            self._rows = np.empty((rows, 0))
        t0 = time.perf_counter()
        p_top, p_diag, q_top, q_diag, c, power_cols = self._extend_pq(gt_col, dt)
        t1 = time.perf_counter()
        f_col, f_diag = self._solve_rational_column(p_top, p_diag, q_top, q_diag, c)
        t2 = time.perf_counter()
        if self._row is None:
            square_cols, (z, dsq) = self._squaring_column(f_col, f_diag)
        else:
            square_cols, v = [], self._row_powers(f_col, f_diag, self._row[d : d + b])
        t3 = time.perf_counter()

        # Every phase has succeeded; only now are the caches grown.
        if to_sparse:
            self._gt = _SparseColumns.from_chunks(self._gt)
            self._powers, power_cols = [], []
        self._gt.append(gt_col, dt)
        self._nnz += nnz
        self._entries += (d + b) * b
        for cache, col in zip(self._powers + self._squares, power_cols + square_cols,
                              strict=True):
            cache.append(*col)
        # The caches hold copies of the step's new columns: drop those, so
        # that they are not held while a full exponential or rows buffer is
        # reallocated beside the old one, where the heap peaks.
        del gt_col, p_top, q_top, f_col, power_cols, square_cols
        if self._row is None:
            self._exp = _write_column(self._exp, d, z, dsq, capacity)
            out = z, dsq
        else:
            self._rows = _write_rows(self._rows, d, v, capacity)
            out = v[k].copy()
        self.partition = self.partition.append(b)
        self.phase_seconds = {
            "power_seconds": t1 - t0,
            "solve_seconds": t2 - t1,
            "squaring_seconds": t3 - t2,
            "growth_seconds": time.perf_counter() - t3,
        }
        return out

    def _scaled_growth(self, nnz: int, b: int) -> tuple[int, bool]:
        """Bytes that appending a block column of size b with ``nnz``
        nonzeros allocates for the scaled matrix, and whether the append
        converts its chunks to sparse columns first.  A sparse append, the
        converting one included, builds a new store of exactly the grown
        matrix's nonzeros beside the old store or chunks, so it allocates
        that store's bytes.

        The chunks convert once the sparse form of the grown matrix would
        take fewer bytes than the block upper triangle it holds, counted
        at 16 bytes per nonzero and 8 per column, against 8 per entry.
        That count is a policy, not the store's size: with 32-bit indices a
        nonzero takes 12 bytes, and counting those would convert the upper
        triangular first block of a dense random instance, 54% nonzero at
        26 columns, and keep the whole matrix sparse.  The chunks' spare
        columns are left out of the count, since the chunks fill them as
        they grow; counting the room that a packed chunk opens with would
        convert a dense matrix of narrow blocks at its second block.  So a
        matrix converts only while fewer than half the entries of its
        block triangle are nonzero, as in a polynomial generator past
        degree 3, and never if its diagonal blocks are full upper triangles
        below full tops, as in the random test instances.  A converting step
        holds both forms until the chunks are dropped, and a store never
        converts back.  ValueError, before any cache changes, if the store
        would pass the size its indices address.
        """
        e, n = self.dim + b, self._nnz + nnz
        sparse = isinstance(self._gt, _SparseColumns)
        if sparse or 16 * n + 8 * (e + 1) < 8 * (self._entries + e * b):
            _SparseColumns.check_size(n, e)
            return _SparseColumns.bytes_for(n, e), not sparse
        return self._gt.opened_bytes(b), False

    # -- step phases --------------------------------------------------

    def _extend_pq(self, gt_col: np.ndarray, dt: np.ndarray):
        """New block columns of the numerator and denominator polynomials.

        The new diagonal blocks are p(D) and q(D) for the scaled diagonal
        block D, evaluated by :func:`~blockexpm.pade.pade_polynomials` as
        the baseline evaluates a whole matrix, whatever form the scaled
        matrix takes, so a one-block stage is the baseline's bit for bit.
        The top parts extend products of block upper triangular matrices:
        the new block column of X Y, for X = [[Xprev, x], [0, X_D]] and Y
        likewise, is Xprev y + x Y_D.  While the scaled matrix A is chunked,
        its powers A^2 and A^6 are cached beside it and the tops follow
        Higham's six-product evaluation (see :meth:`_six_product_tops`);
        once it is held as sparse columns, they follow the power recurrence
        (see :meth:`_recurrence_tops`), which reads only its nonzeros and
        is faster there.

        Returned with the four blocks: a row bound c, above which the rows
        of both top parts are zero, so that the solve's products read only
        the chunks of square 0, or the columns of the rows, right of it, and
        the new block columns of
        A^2 and A^6, or an empty list on the recurrence.  Only the
        recurrence tracks c, starting from the first row g0 where the new
        column's top part holds a nonzero, or the dimension if it holds
        none: a scaled matrix held dense has nonzeros in at least half its
        block triangle, so the six-product tops take c = 0.
        """
        if self._powers:
            p_diag, q_diag = pade_polynomials(pade_powers(dt))
            p_top, q_top, power_cols = self._six_product_tops(gt_col, dt)
            c = 0
        else:
            d_powers = list(pade_powers(dt))
            p_diag, q_diag = pade_polynomials(d_powers)
            rows = np.flatnonzero(gt_col.any(axis=1))
            g0 = int(rows[0]) if rows.size else self.dim
            p_top, q_top, c = self._recurrence_tops(gt_col, g0, d_powers)
            power_cols = []
        return p_top, p_diag, q_top, q_diag, c, power_cols

    def _six_product_tops(self, g: np.ndarray, dt: np.ndarray):
        """Top parts of p and q by Higham's evaluation of r_13 (SIAM J.
        Matrix Anal. Appl. 26(4), 2005), with b_l the numerator's
        coefficients:

            U = A [A^6 W + b7 A^6 + b5 A^4 + b3 A^2 + b1 I],   W = b13 A^6 + b11 A^4 + b9 A^2,
            V = A^6 Z + b6 A^6 + b4 A^4 + b2 A^2 + b0 I,       Z = b12 A^6 + b10 A^4 + b8 A^2,

        p = V + U and q = V - U.  Extended by a block column, with the new
        columns a2, a4 and a6 of A^2, A^4 and A^6,

            a2 = Aprev g + g D,  a4 = A2prev a2 + a2 D^2,  a6 = A2prev a4 + a2 D^4,

        w and z are the same combinations of them as W and Z, the new
        columns of A^6 W and A^6 Z come from one product A6prev [w | z] +
        a6 [W_D | Z_D], u1 and v follow from those as the bracket of U and
        V do, and u = Aprev u1 + g U1_D.  That is two b-wide products with
        the scaled matrix, two with A^2 and one 2b-wide with A^6, where the
        recurrence makes twelve b-wide ones; A^4 is never cached.  The
        b x b blocks D^2 .. U1_D are formed here the same way.  Returns the
        tops and the new block columns of A^2 and A^6.
        """
        bc = self.pade.alpha
        a, a2_cache, a6_cache = self._gt, *self._powers
        b = g.shape[1]
        d2 = dt @ dt
        d4 = d2 @ d2
        d6 = d2 @ d4
        w_d = bc[13] * d6 + bc[11] * d4 + bc[9] * d2
        z_d = bc[12] * d6 + bc[10] * d4 + bc[8] * d2
        u1_d = d6 @ w_d + bc[7] * d6 + bc[5] * d4 + bc[3] * d2 + bc[1] * np.eye(b)
        a2 = a.product(g) + g @ dt
        a4 = a2_cache.product(a2) + a2 @ d2
        a6 = a2_cache.product(a4) + a2 @ d4
        w = bc[13] * a6 + bc[11] * a4 + bc[9] * a2
        z = bc[12] * a6 + bc[10] * a4 + bc[8] * a2
        wz = a6_cache.product(np.hstack([w, z])) + a6 @ np.hstack([w_d, z_d])
        u1 = wz[:, :b] + bc[7] * a6 + bc[5] * a4 + bc[3] * a2
        v = wz[:, b:] + bc[6] * a6 + bc[4] * a4 + bc[2] * a2
        u = a.product(u1) + g @ u1_d
        return v + u, v - u, [(a2, d2), (a6, d6)]

    def _recurrence_tops(self, g: np.ndarray, g0: int, d_powers: list):
        """Top parts of p and q by the power recurrence, for a scaled
        matrix held as sparse columns.

        With the scaled column g and diagonal block D, the powers of the
        extended matrix have last block column X_l following

            X_1 = g,   X_l = Aprev X_{l-1} + g D^{l-1},

        so one pass accumulates sum alpha_l X_l and sum beta_l X_l in
        ascending order, reusing each X_l for both polynomials, and reads
        D^(l-1) from ``d_powers``, the powers D^0 .. D^13 that the diagonal
        block's polynomials summed.  Aprev is read only at its nonzeros, so
        a banded one, as a polynomial generator is, costs only its band.

        The rows of g above g0 are zero.  If the rows of X_{l-1} above c are
        zero, so are those of X_l above r, the first row of Aprev's
        nonzeros in the columns right of c, or c if that is smaller (see
        :meth:`_SparseColumns.first_row`), and the product reads only those
        columns.  The term g D^(l-1) is formed only on the rows from g0,
        and both sums are accumulated only on the rows from r.  Returns the
        tops and the last such r.
        """
        alpha, beta = self.pade.alpha, self.pade.beta
        c = g0
        x = g
        p_top = alpha[1] * x
        q_top = beta[1] * x
        for l in range(2, self.pade.degree + 1):
            x = self._gt.product(x, c)
            x[g0:] += g[g0:] @ d_powers[l - 1]
            c = self._gt.first_row(c)
            p_top[c:] += alpha[l] * x[c:]
            q_top[c:] += beta[l] * x[c:]
        return p_top, q_top, c

    def _solve_rational_column(self, p_top, p_diag, q_top, q_diag, c):
        """Last block column of F = Q^-1 P for the extended polynomials, or,
        in a row state, its products with the rows u^T F^k.

        F and Q are rational functions of the same matrix, so they commute,
        and F Q = P.  With Q = [[Qprev, q_top], [0, Q_nn]] and F = [[Fprev,
        f_top], [0, F_nn]] the last block column of F Q = P reads
        Fprev q_top + f_top Q_nn = p_top, so

            F_nn = Q_nn^-1 P_nn,   f_top = (p_top - Fprev q_top) Q_nn^-1.

        Fprev is square 0, which a stage state caches, and the rows of
        q_top above c are zero, so the one product reads only its chunks
        right of c.  A row state reads the same identity from the left: it
        holds r_k = u^T Fprev^k for k = 0 .. 2^s, and r_k = r_(k-1) Fprev,
        so

            r_(k-1) f_top = (r_(k-1) p_top - r_k q_top) Q_nn^-1,

        from two products of the rows, one with p_top and one with q_top,
        each reading only the columns right of c; neither Fprev nor f_top
        is formed, and it returns those 2^s rows in place of f_top.  Both divisions reuse the LU factors of the new diagonal
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
        b = q_diag.shape[0]
        f_diag = lu_solve(lu_nn, p_diag)
        if self._row is None:
            rhs = self._squares[0].product(q_top, c)
            np.subtract(p_top, rhs, out=rhs)
        else:
            r = self._rows[:, c : self.dim]
            rhs = r[:-1] @ p_top[c:]
            rhs -= r[1:] @ q_top[c:]
        return rhs @ lu_solve(lu_nn, np.eye(b)), f_diag

    def _squaring_column(self, f_col, f_diag):
        """New block columns of the cached squares, as a list, and of square
        s, the exponential, in a stage state.

        Level 0 is the rational approximant itself.  For level l >= 1 the
        off-diagonal column follows

            Z_l = Fprev^(2^(l-1)) Z_{l-1} + Z_{l-1} D^(2^(l-1)),

        where Fprev powers come from the cache before extension and D
        powers are squared locally along the way.  Squares 0 .. s - t, the
        ones the state caches, t = min(s, 2), are formed so.  Square s is
        S^(2^t) for S = [[Sprev, z], [0, D]], square s - t with its new
        block column, so its new block column is S^(2^t - 1) [z; D], and
        each of the 2^t - 1 products S v = [Sprev v_top + z v_d; D v_d]
        reads the cache Sprev once: three b-wide products with square s -
        2 at s >= 2 where two squarings would make two, for one cache fewer
        (see _STAGE_LEVELS).  The diagonal block of square s is still
        formed by t squarings of D, so that a one-block stage is the
        baseline's bit for bit.
        """
        z, dsq = f_col, f_diag
        cols = []
        for l in range(self.s - self._t):
            cols.append((z, dsq))
            z = self._squares[l].product(z) + z @ dsq
            dsq = dsq @ dsq
        cols.append((z, dsq))
        cache, top, diag = self._squares[-1], z, dsq
        for _ in range(2**self._t - 1):
            z, dsq = cache.product(z) + top @ dsq, diag @ dsq
        # the diagonal block by t squarings, as the baseline forms it
        dsq = diag
        for _ in range(self._t):
            dsq = dsq @ dsq
        return cols, (z, dsq)

    def _row_powers(self, h, f_diag, v0):
        """The new entries v_k of the rows u^T F^k, k = 0 .. 2^s, of a row
        state, as a (2^s + 1) x b array, from the products h[k - 1] =
        r_(k-1) f_top of :meth:`_solve_rational_column` and the row's new
        entries v0.

        With F = [[Fprev, f_top], [0, F_nn]], the new entries follow v_k =
        v_(k-1) F_nn + h[k - 1], so v_k = sum_j w_j F_nn^(k-j) over j = 0
        .. k, with w_0 = v0 and w_j = h[j - 1].  They are formed by
        doubling, not k by k: with z_k = w_k, the levels m = 1, 2, 4, ..,
        2^s add z_(k-m) F_nn^m to every z_k with k >= m, all from the
        previous level's values, so after level m each z_k sums the 2m
        terms j > k - 2m, and after level 2^s all of them.  That is s + 1
        products of at most 2^s rows with a b x b power, each power the
        square of the one before, in place of 2^s products of one row, and
        each v_k is reached through s + 1 products, as square s is through
        s squarings.
        """
        z = np.vstack([v0[None, :], h])
        power = f_diag
        for level in range(self.s + 1):
            if level:
                power = power @ power
            m = 2**level
            z[m:] += z[:-m] @ power
        return z


def _write_rows(buf: np.ndarray, d: int, v: np.ndarray, capacity: int) -> np.ndarray:
    """Append the columns ``v`` to the rows whose leading d columns ``buf``
    holds, and return the buffer that holds them all: ``buf`` itself while
    it has room, else a zeroed one of ``capacity`` columns that takes a
    copy of the leading columns."""
    e = d + v.shape[1]
    if buf.shape[1] < e:
        grown = np.zeros((buf.shape[0], capacity))
        grown[:, :d] = buf[:, :d]
        buf = grown
    buf[:, d:e] = v
    return buf


def _drive(columns, fixed: int | None, row: np.ndarray | None = None):
    """The one loop of both drivers and of Hermite-series pricing: a fixed
    scaling power, or None for adaptive scaling.  The running 1-norm is
    the largest absolute column sum so far, exact for block upper
    triangular G.

    By default it yields each stage as
    :attr:`IncrementalExpState.exponential`.  Given a ``row`` u, with at
    least as many entries as the matrix grows columns, it runs a row
    stream: it yields in place of each stage the b entries of u^T exp(G)
    at the new block, u's leading d + b entries for a block of size b at
    dimension d.  Its state keeps no square and no exponential, only the
    rows u^T F^k, k = 0 .. 2^s, of the approximant F = r(2^-s G) (see
    :meth:`IncrementalExpState._row_powers`), so its memory and work
    grow with 2^s where cached squares grow with s: on the pricing
    generator to degree 60 it took less time than a stream that cached
    its squares up to s = 11, and less memory up to s = 12.
    It runs at a fixed scaling power only, so it never restarts:
    ValueError at the first ``next`` if ``row`` is given with
    ``fixed=None``.
    """
    if row is not None and fixed is None:
        raise ValueError("a row stream runs at a fixed scaling power")
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
            state = IncrementalExpState(need if fixed is None else fixed, _row=row)
        stage = state.step(step_col)
        seconds = time.perf_counter() - t0
        report = StepReport(step=n, dim=state.dim, block_size=col.block_size, s=state.s,
                            restart=restart, seconds=seconds, cache_bytes=state.cache_bytes,
                            **state.phase_seconds)
        if row is None:
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
