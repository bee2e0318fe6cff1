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
the column chunks below).  A sparse scaled matrix, such as a polynomial
generator, is held as compressed sparse columns, so the power recurrence
reads only its nonzeros and costs only its band.
Only new block columns are ever computed, so earlier stages survive bit
for bit inside later ones.  The first block is one step from an empty
state, and that step's arithmetic is the baseline's, so the first stage is
bitwise what a from-scratch pass with the same scaling power produces.

Every square that a product reads -- squares 0 .. max(s, 1) - 1, or
fewer in the column stream below -- is an append-only list of column
chunks, and so is the scaled matrix while it is dense.  A chunk of block
columns keeps only the rows down to its last column, so the zero lower
block triangle is mostly not stored, and a step writes its new block
column into the open chunk or into a new one: no chunk is copied or
written once a later one opens.  A wide block column opens a chunk of
exactly its own width, and narrow ones are packed into shared chunks, so
the chunks hold little beyond the block upper triangle.  The first step
adopts its new diagonal blocks as the first chunks.  A product with a new
block column makes one GEMM per chunk: the last chunk writes the product,
and BLAS accumulates each earlier chunk's share in place in the output,
with no temporary and no separate add.  The scaled matrix converts once
to compressed sparse columns, in buffers that only grow, when that form
takes fewer bytes than its block triangle, and a product with it is one
CSC product (see ``IncrementalExpState._scaled_growth``); the squares
are dense, and stay chunked.  The current
exponential, which no product reads, is instead the leading d x d block
of one contiguous buffer with a few percent of spare capacity,
reallocated when full, so an emitted stage is a read-only view of it that
no later step writes.  Each step also hands back the new block column of
the exponential.  A reader that needs only the first column of each, as
Hermite-series pricing does, drives the engine at a fixed scaling power
as a column stream, without the buffer (see ``_drive``).  With t = min(s,
3), it forms and caches squares 0 .. s - t in full, since the next step's
products read them, and forms the first column of square s as S^(2^t) e
by 2^t - 1 one-column products with S, square s - t: repeated products
with a vector cost less than squaring the matrix when one column is read,
the idea of the action of the exponential (Al-Mohy and Higham, SIAM J.
Sci. Comput. 33(2), 2011).  At s = 3 square 0, which the rational solve
reads anyway, is the one square cached.  The stage path forms every
column of every square as before.

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
# is more, and so is each full buffer of a sparse scaled matrix, counted in
# nonzeros or columns.  Growing by 5% spreads the copying over many steps while adding
# at most about 10% to the bytes held; doubling would add up to 300%.  The
# two blocks matter where blocks grow as a share of the dimension, as the
# degree blocks of a polynomial generator do below degree 80: there 5% does
# not hold the next block, and every step would copy the buffer.
_GROWTH = 1.05

# A column stream at scaling power s caches squares 0 .. s - t, with
# t = min(s, _COLUMN_LEVELS), and forms its one kept column of square s as
# S^(2^t) e by 2^t - 1 one-column products with S, square s - t.  At
# degree 60 of the pricing stream a product with square 0 (dimension 1830,
# 50 chunks) takes 4.9 ms on 61 columns and 0.70 ms on one, so each level
# moved onto the column saves a full-width squaring and a cache, while the
# column products double per level.  A sweep of one price_call (eps =
# 1e-3, stopping at degree 60, 1 BLAS thread, mean of 2 runs) took 0.50 /
# 0.42 / 0.38 s at t <= 1 / 2 / 3 with n_max = 100 (s = 3), and 0.73 /
# 0.60 / 0.58 / 0.58 / 0.66 s at t <= 1 / 2 / 3 / 4 / 5 with n_max = 200
# (s = 6), its heap peak 15.6 MB lower per level: past 3 the column
# products cost more time than the squarings they replace.
_COLUMN_LEVELS = 3


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
    s; in the column stream squares s - t + 1 .. s are formed only on the
    kept column, as 2^t - 1 one-column products with square s - t (see
    :meth:`IncrementalExpState._squaring_column`).
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


def _grown_capacity(need: int, added: int) -> int:
    """Capacity of a full buffer reallocated to hold ``need`` entries after
    ``added`` more: _GROWTH times ``need``, or room for two more additions
    of the same size if that is more."""
    return max(int(_GROWTH * need), need + 2 * added)


class _SparseColumns:
    """A block upper triangular matrix stored as compressed sparse columns,
    in buffers that only grow.

    Column j holds the values ``data[indptr[j] : indptr[j + 1]]`` in the
    rows ``indices[...]``, ascending.  Only ``indptr[: dim + 1]`` and the
    first ``indptr[dim]`` entries of ``data`` and ``indices`` are in use;
    the rest is spare capacity.  A new store holds exactly the capacity it
    is built with, and a full buffer is reallocated as the exponential
    buffer is (see :func:`_grown_capacity`).  The indices are 64-bit, so a
    nonzero takes 16 bytes, twice what a dense entry takes, and a matrix
    converts only while fewer than half its stored entries are nonzero
    (see :meth:`IncrementalExpState._scaled_growth`); with 32-bit ones the
    upper triangular first block of a dense random instance, 54% nonzero at
    26 columns, would convert and keep the whole matrix sparse.  scipy
    copies the indices to 32 bits for each product while they fit.
    """

    def __init__(self, nnz: int, dim: int):
        self.dim = 0
        self.data = np.empty(nnz)
        self.indices = np.empty(nnz, dtype=np.int64)
        self.indptr = np.zeros(dim + 1, dtype=np.int64)

    @staticmethod
    def bytes_for(nnz: int, dim: int) -> int:
        """Bytes of a store built for ``nnz`` nonzeros in ``dim`` columns."""
        return 16 * nnz + 8 * (dim + 1)

    @classmethod
    def from_chunks(cls, cache: _ChunkedCache, nnz: int, dim: int) -> "_SparseColumns":
        """The columns of a chunked cache, in a store built for ``nnz``
        nonzeros in ``dim`` columns."""
        store = cls(nnz, dim)
        for top, diag in cache.block_columns():
            store.append(top, diag)
        return store

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def _reallocated(self, nnz: int, b: int) -> tuple[int, int]:
        """Entries of the data and index buffers, and of ``indptr``, that
        appending a block column of size b with ``nnz`` nonzeros
        reallocates; 0 for a buffer it still fits."""
        n, e = int(self.indptr[self.dim]) + nnz, self.dim + b
        data = _grown_capacity(n, nnz) if n > self.data.shape[0] else 0
        ptr = _grown_capacity(e, b) + 1 if e + 1 > self.indptr.shape[0] else 0
        return data, ptr

    def grown_bytes(self, nnz: int, b: int) -> int:
        """Bytes of the buffers that appending a block column of size b
        with ``nnz`` nonzeros reallocates."""
        data, ptr = self._reallocated(nnz, b)
        return 16 * data + 8 * ptr

    def append(self, top: np.ndarray, diag: np.ndarray) -> None:
        """Append the block column [top; diag], storing its nonzeros only."""
        d, b = self.dim, diag.shape[1]
        # the transpose lists the nonzeros column by column, rows ascending
        block = np.vstack([top, diag]).T
        cols, rows = np.nonzero(block)
        data, ptr = self._reallocated(rows.size, b)
        p0 = int(self.indptr[d])
        p1 = p0 + rows.size
        if data:
            self.data = _regrown(self.data, data, p0)
            self.indices = _regrown(self.indices, data, p0)
        if ptr:
            self.indptr = _regrown(self.indptr, ptr, d + 1)
        self.data[p0:p1] = block[cols, rows]
        self.indices[p0:p1] = rows
        self.indptr[d + 1 : d + b + 1] = p0 + np.cumsum(np.bincount(cols, minlength=b))
        self.dim = d + b

    def product(self, x: np.ndarray, c: int = 0) -> np.ndarray:
        """``a @ x`` for the stored a, where the rows of ``x`` above ``c``
        are zero: one CSC product with the columns right of c, which reads
        only their nonzeros and leaves every row they miss exactly 0."""
        from scipy.sparse import csc_matrix

        d = self.dim
        if c >= d:
            return np.zeros((d, x.shape[1]))
        ptr = self.indptr[c : d + 1]
        p0, p1 = int(ptr[0]), int(ptr[-1])
        a = csc_matrix((self.data[p0:p1], self.indices[p0:p1], ptr - p0), shape=(d, d - c))
        return a @ x[c:d]

    def dense(self) -> np.ndarray:
        """The stored matrix as a d x d array."""
        d = self.dim
        nnz = int(self.indptr[d])
        out = np.zeros((d, d))
        out[self.indices[:nnz], np.repeat(np.arange(d), np.diff(self.indptr[: d + 1]))] = (
            self.data[:nnz])
        return out


def _regrown(buf: np.ndarray, size: int, used: int) -> np.ndarray:
    """A buffer of ``size`` entries holding the first ``used`` of ``buf``."""
    grown = np.empty(size, dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


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
    step's products.  The squares are stored as column chunks
    (:class:`_ChunkedCache`), so at s = 0 square 0 is kept there as well;
    the scaled matrix starts as column chunks and converts once to
    compressed sparse columns (:class:`_SparseColumns`) when that form
    takes fewer bytes (see :meth:`_scaled_growth`), as a polynomial
    generator does at degree 4 and a dense matrix never does.  Square s is
    emitted as the leading ``dim`` x ``dim`` block of one buffer with
    spare capacity.  A state of ``_drive``'s column stream is built with
    ``_first_column=True``: it keeps no buffer, caches only squares 0 ..
    s - t, for t = min(s, 3), so s - t + 1 chunked squares, which is 1 for
    every s <= 3, forms square s only on the first column of each new
    block column, from square s - t (see :meth:`_squaring_column`), and
    hands that column back.  The default is a stage state.  The state
    also keeps the zero-row profile of the scaled matrix (see
    :func:`_grow_lead`), which bounds the nonzero rows of the power
    recurrence, and in ``phase_seconds`` the seconds of each phase of the
    last step, keyed by the matching :class:`StepReport` fields.
    """

    # The approximant every cache extends; tracing tools read its degree.
    pade = PADE_13

    def __init__(self, s: int, *, _first_column: bool = False):
        self.s = as_scaling_power(s)
        self.partition = Partition(())
        self._lead = np.zeros(1, dtype=np.intp)
        self._gt: _ChunkedCache | _SparseColumns = _ChunkedCache()
        # The scaled matrix's nonzeros and block-triangle entries, which
        # decide when its chunks convert to sparse columns.
        self._nnz = 0
        self._entries = 0
        # A state of _drive's column stream keeps no buffer: the first
        # column of each new block column of the exponential leaves only as
        # step's return, formed from square s - t, the last one cached.
        self._t = min(self.s, _COLUMN_LEVELS) if _first_column else 0
        levels = self.s - self._t + 1 if _first_column else max(self.s, 1)
        self._squares = [_ChunkedCache() for _ in range(levels)]
        self._exp = None if _first_column else np.empty((0, 0))

    @property
    def dim(self) -> int:
        return self.partition.dim

    @property
    def cache_bytes(self) -> int:
        """Bytes of every array the state holds: the scaled matrix's
        chunks or sparse buffers, the squares' chunks, the exponential
        buffer, if the state keeps one, and the zero-row profile, each
        with its spare capacity."""
        caches = self._gt.nbytes + sum(sq.nbytes for sq in self._squares)
        exp = 0 if self._exp is None else self._exp.nbytes
        return caches + exp + self._lead.nbytes

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
        return e if self.dim == 0 else _grown_capacity(e, b)

    def step(self, col: BlockColumn) -> tuple[np.ndarray, np.ndarray]:
        """Grow the matrix by one block column and update all caches.

        Returns the new block column [top; diag] of exp(G) as the pair
        (top, diag); the whole new exponential is available as
        :attr:`exponential` afterwards.  A state of the column stream
        returns only the first column of the new block column, as a d x 1
        top and a b x 1 diagonal part, and forms only that column of
        square s.

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
        scale = 2.0 ** (-self.s)
        gt_col, dt = col.top * scale, col.diag * scale
        nnz = np.count_nonzero(gt_col) + np.count_nonzero(dt)
        gt_bytes, to_sparse = self._scaled_growth(nnz, b)
        # What the step leaves held, plus what it drops at the end: the old
        # exponential buffer while a full one is reallocated, and the old
        # buffers or chunks of the scaled matrix (see _scaled_growth).  The
        # squares open their chunks together, and the zero-row profile
        # grows by b entries.
        need = (self.cache_bytes + 8 * b + gt_bytes
                + len(self._squares) * self._squares[0].opened_bytes(b))
        if self._exp is not None:
            capacity = self._capacity(d + b, b)
            if capacity > self._exp.shape[0]:
                need += capacity * capacity * 8
        _check_cache_bytes(need, d + b, self.s)
        t0 = time.perf_counter()
        p_top, p_diag, q_top, q_diag, lead, c = self._extend_pq(gt_col, dt)
        t1 = time.perf_counter()
        f_col, f_diag = self._solve_rational_column(p_top, p_diag, q_top, q_diag, c)
        t2 = time.perf_counter()
        square_cols, (z, dsq) = self._squaring_column(f_col, f_diag)
        t3 = time.perf_counter()

        # Every phase has succeeded; only now are the caches grown.
        self._lead = lead
        if to_sparse:
            self._gt = _SparseColumns.from_chunks(self._gt, self._nnz + nnz, d + b)
        self._gt.append(gt_col, dt)
        self._nnz += nnz
        self._entries += (d + b) * b
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

    def _scaled_growth(self, nnz: int, b: int) -> tuple[int, bool]:
        """Bytes that appending a block column of size b with ``nnz``
        nonzeros allocates for the scaled matrix, and whether the append
        converts its chunks to sparse columns first.

        The chunks convert once the sparse form of the grown matrix takes
        fewer bytes than the block upper triangle it holds: 16 per nonzero
        and 8 per column, against 8 per entry.  Spare capacity is left out
        of both counts, since either form fills it as it grows; counting
        the room that a packed chunk opens with would convert a dense
        matrix of narrow blocks at its second block.  So a matrix converts
        only while fewer than half the entries of its block triangle are
        nonzero, as in a polynomial generator past degree 3, and never if
        its diagonal blocks are full upper triangles below full tops, as in
        the random test instances.  A converting step holds both forms
        until the chunks are dropped, and a store never converts back.
        """
        if isinstance(self._gt, _SparseColumns):
            return self._gt.grown_bytes(nnz, b), False
        e = self.dim + b
        sparse = _SparseColumns.bytes_for(self._nnz + nnz, e)
        if sparse < 8 * (self._entries + e * b):
            return sparse, True
        return self._gt.opened_bytes(b), False

    # -- step phases --------------------------------------------------

    def _extend_pq(self, gt_col: np.ndarray, dt: np.ndarray):
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
        r = min(lead[c], c), and the product reads only the columns of
        Gprev right of c.  Held as sparse columns, as a polynomial
        generator is, Gprev is read only at its nonzeros, so a banded Gprev
        costs only its band.  The term g D^(l-1) is formed only on the
        rows from g's first nonzero row, and both sums are accumulated only
        on the rows from r.  The
        last such row bound is returned with the columns: the rows of both
        top parts above it are zero.  The zero-row profile grown with the
        new column, whose entry at d bounds g's first nonzero row, is
        returned as well, for :meth:`step` to commit with the caches.
        """
        m = self.pade.degree
        alpha, beta = self.pade.alpha, self.pade.beta
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
            x = self._gt.product(x, c)
            x[g0:] += gt_col[g0:] @ d_prev
            c = min(int(self._lead[c]), c)
            d_prev = d_prev @ dt
            p_top[c:] += alpha[l] * x[c:]
            q_top[c:] += beta[l] * x[c:]
            p_diag += alpha[l] * d_prev
            q_diag += beta[l] * d_prev
        return p_top, p_diag, q_top, q_diag, lead, c

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
        """New block columns of the cached squares, as a list, and of square
        s, the exponential.

        Level 0 is the rational approximant itself.  For level l >= 1 the
        off-diagonal column follows

            Z_l = Fprev^(2^(l-1)) Z_{l-1} + Z_{l-1} D^(2^(l-1)),

        where Fprev powers come from the cache before extension and D
        powers are squared locally along the way.  A stage state forms
        every level so, up to square s, and caches squares 0 .. max(s, 1)
        - 1; at s = 0 square s is square 0, which its cache keeps for the
        rational solve.

        A state of the column stream forms only squares 0 .. s - t so, the
        ones it caches, and the first column of square s, which is S^(2^t)
        e for S = [[Sprev, z], [0, D]], square s - t with its new block
        column, and e the first column of that block column.  S e is
        [z; D] e, and each of the 2^t - 1 further products S v = [Sprev
        v_top + z v_d; D v_d] reads one column of the cache Sprev.  At
        degree 60 of the pricing stream the seven one-column products with
        square 0 at s = 3 take about 5 ms, where the two b-wide squaring
        products and the one-column one that they replace take about 10.5
        ms (see _COLUMN_LEVELS).
        """
        z, dsq = f_col, f_diag
        cols = []
        for l in range(self.s - self._t):
            cols.append((z, dsq))
            z = self._squares[l].product(z) + z @ dsq
            dsq = dsq @ dsq
        if len(cols) < len(self._squares):
            # the last cached square is square s - t of a stream, or square
            # 0 = s of a stage state at s = 0
            cols.append((z, dsq))
        if self._exp is None:
            cache, top, diag = self._squares[-1], z, dsq
            z, dsq = top[:, :1], diag[:, :1]
            for _ in range(2**self._t - 1):
                z, dsq = cache.product(z) + top @ dsq, diag @ dsq
        return cols, (z, dsq)


def _drive(columns, fixed: int | None, first_column: bool = False):
    """The one loop of both drivers and of Hermite-series pricing: a fixed
    scaling power, or None for adaptive scaling.  The running 1-norm is
    the largest absolute column sum so far, exact for block upper
    triangular G.

    By default it yields each stage as
    :attr:`IncrementalExpState.exponential`.  With ``first_column=True``
    its state keeps no exponential buffer, and it yields in place of each
    stage the pair (top, diag) of the first column of the column's block
    column of exp(G): d x 1 and b x 1 for a block of size b at dimension
    d.  Such a column stream caches squares 0 .. s - t, t = min(s, 3), and
    forms the first column of square s by 2^t - 1 one-column products
    with square s - t (see :meth:`IncrementalExpState._squaring_column`).
    It runs at a fixed scaling power only, so it never restarts:
    ValueError at the first ``next`` if ``first_column`` is set with
    ``fixed=None``.
    """
    if first_column and fixed is None:
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
            state = IncrementalExpState(need if fixed is None else fixed, _first_column=first_column)
        stage = state.step(step_col)
        seconds = time.perf_counter() - t0
        report = StepReport(step=n, dim=state.dim, block_size=col.block_size, s=state.s,
                            restart=restart, seconds=seconds, cache_bytes=state.cache_bytes,
                            **state.phase_seconds)
        if not first_column:
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
