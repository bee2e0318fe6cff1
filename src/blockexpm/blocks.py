"""Block upper triangular matrices with a nested partition structure.

A partition splits the index range into contiguous blocks.  A block upper
triangular matrix is dense below the surface but guarantees exact zeros
strictly below the block diagonal.  Values are immutable: a matrix is
assembled from its block columns in one allocation, not grown one column
at a time, and accessors hand out copies.

The block-column stream text format is defined at the bottom; it is how a
sequence of growing matrices is described on disk, one new block column at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import as_matrix, format_matrix, parse_matrix


@dataclass(frozen=True)
class Partition:
    """Sizes of the contiguous diagonal blocks; all sizes are >= 1.

    A size is a Python or numpy integer, so a float such as 2.5 is refused
    instead of truncated.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = []
        for b in self.sizes:
            if not isinstance(b, (int, np.integer)) or b < 1:
                raise ValueError(f"block sizes must be positive integers, got {b!r}")
            sizes.append(int(b))
        object.__setattr__(self, "sizes", tuple(sizes))

    @property
    def nblocks(self) -> int:
        return len(self.sizes)

    @property
    def dim(self) -> int:
        return sum(self.sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        # offsets[l] is the first index of block l; offsets[-1] == dim
        out = [0]
        for b in self.sizes:
            out.append(out[-1] + b)
        return tuple(out)

    def index_range(self, l: int) -> tuple[int, int]:
        if not 0 <= l < self.nblocks:
            raise IndexError(f"block index {l} out of range for {self.nblocks} blocks")
        off = self.offsets
        return off[l], off[l + 1]

    def append(self, b: int) -> "Partition":
        return Partition(self.sizes + (b,))


class BlockColumn:
    """One new block column: the part above the diagonal and the new
    diagonal block.

    ``top`` has shape (previous dimension, b) and ``diag`` shape (b, b),
    with b >= 1 as in a :class:`Partition`.  Both are copied and frozen on
    construction.
    """

    __slots__ = ("top", "diag")

    def __init__(self, top, diag, check_finite: bool = True):
        top = as_matrix(top, check_finite=check_finite).copy()
        diag = as_matrix(diag, check_finite=check_finite).copy()
        if diag.shape[0] != diag.shape[1] or diag.shape[0] == 0:
            raise ValueError(f"diagonal block must be square and nonempty, got {diag.shape}")
        if top.shape[1] != diag.shape[0]:
            raise ValueError(
                f"column width mismatch: top {top.shape}, diag {diag.shape}"
            )
        top.setflags(write=False)
        diag.setflags(write=False)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "diag", diag)

    def __setattr__(self, name, value):
        raise AttributeError("BlockColumn is immutable")

    @property
    def rows(self) -> int:
        return self.top.shape[0]

    @property
    def block_size(self) -> int:
        return self.diag.shape[0]

    def stacked(self) -> np.ndarray:
        """The full new column, top part over diagonal block."""
        return np.vstack([self.top, self.diag])


def extend_square(old: np.ndarray, top: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Grow a square array by one block column/row.

    The new strictly-lower band is set to exact zeros; existing entries are
    copied bitwise.
    """
    d = old.shape[0]
    b = diag.shape[0]
    new = np.empty((d + b, d + b))
    new[:d, :d] = old
    new[:d, d:] = top
    new[d:, :d] = 0.0
    new[d:, d:] = diag
    return new


class BlockTriangularMatrix:
    """Immutable block upper triangular matrix value.

    Construction validates squareness, the partition dimension, finiteness,
    and that everything strictly below the block diagonal is exactly zero.
    """

    __slots__ = ("_data", "partition")

    def __init__(self, data, partition):
        if not isinstance(partition, Partition):
            partition = Partition(tuple(partition))
        data = as_matrix(data).copy()
        if data.shape[0] != data.shape[1]:
            raise ValueError(f"matrix must be square, got {data.shape}")
        if data.shape[0] != partition.dim:
            raise ValueError(
                f"dimension {data.shape[0]} does not match partition dim {partition.dim}"
            )
        off = partition.offsets
        for l in range(1, partition.nblocks):
            r0, r1 = off[l], off[l + 1]
            if np.any(data[r0:r1, :r0] != 0.0):
                raise ValueError(
                    f"entries below the block diagonal are not zero (block row {l})"
                )
        data.setflags(write=False)
        object.__setattr__(self, "_data", data)
        object.__setattr__(self, "partition", partition)

    def __setattr__(self, name, value):
        raise AttributeError("BlockTriangularMatrix is immutable")

    @classmethod
    def _wrap(cls, data: np.ndarray, partition: Partition) -> "BlockTriangularMatrix":
        # trusted constructor: data already validated, and the caller never
        # writes to it again (it may be a view into a larger buffer)
        obj = object.__new__(cls)
        data.setflags(write=False)
        object.__setattr__(obj, "_data", data)
        object.__setattr__(obj, "partition", partition)
        return obj

    @property
    def data(self) -> np.ndarray:
        """The backing array, read-only.  Copy before mutating."""
        return self._data

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def nblocks(self) -> int:
        return self.partition.nblocks

    def leading(self, l: int) -> "BlockTriangularMatrix":
        """The sub-matrix made of blocks 0..l (inclusive)."""
        if not 0 <= l < self.nblocks:
            raise IndexError(f"block index {l} out of range for {self.nblocks} blocks")
        d = self.partition.offsets[l + 1]
        return BlockTriangularMatrix._wrap(
            self._data[:d, :d].copy(), Partition(self.partition.sizes[: l + 1])
        )

    def block_column(self, l: int) -> BlockColumn:
        """Block column l as a BlockColumn (top part and diagonal block)."""
        c0, c1 = self.partition.index_range(l)
        return BlockColumn(self._data[:c0, c0:c1], self._data[c0:c1, c0:c1],
                           check_finite=False)

    def block_columns(self) -> list[BlockColumn]:
        return [self.block_column(l) for l in range(self.nblocks)]


def matrix_from_columns(columns) -> BlockTriangularMatrix:
    """Assemble a block triangular matrix from its block columns.

    One zero array of the final dimension is allocated and each column's
    top part and diagonal block are written into it.

    Raises
    ------
    ValueError
        For a column whose row count is not the dimension of the columns
        before it.
    """
    columns = list(columns)
    partition = Partition(tuple(col.block_size for col in columns))
    data = np.zeros((partition.dim, partition.dim))
    for col, d, e in zip(columns, partition.offsets, partition.offsets[1:]):
        if col.rows != d:
            raise ValueError(f"column top has {col.rows} rows, matrix dimension is {d}")
        data[:d, d:e] = col.top
        data[d:e, d:e] = col.diag
    return BlockTriangularMatrix._wrap(data, partition)


# ---------------------------------------------------------------------------
# Block-column stream text format.
#
# Line 1: the number of block columns.
# Then for each block column: a line with its block size b, followed by the
# full new column (top part stacked over the diagonal block) in the matrix
# text format of the dense module, i.e. a "rows cols" header plus rows.
# Row counts must be consistent: column j has prior-dimension + b_j rows.
# ---------------------------------------------------------------------------


def write_column_stream(path, columns) -> None:
    columns = list(columns)
    chunks = [f"{len(columns)}\n"]
    for col in columns:
        chunks.append(f"{col.block_size}\n")
        chunks.append(format_matrix(col.stacked()))
    with open(path, "w") as fh:
        fh.write("".join(chunks))


def read_column_stream(path) -> list[BlockColumn]:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty block-column stream file")
    pos = 0
    nblocks = int(lines[pos])
    pos += 1
    if nblocks < 0:
        raise ValueError(f"block-column count must be nonnegative, got {nblocks}")
    columns: list[BlockColumn] = []
    dim = 0
    for j in range(nblocks):
        if pos >= len(lines):
            raise ValueError(f"stream truncated before block column {j}")
        b = int(lines[pos])
        pos += 1
        if b < 1:
            raise ValueError(f"block column {j}: block size must be positive, got {b}")
        if pos >= len(lines):
            raise ValueError(f"stream truncated in block column {j}")
        header = lines[pos].split()
        if len(header) != 2:
            raise ValueError(f"block column {j}: bad matrix header {lines[pos]!r}")
        rows = int(header[0])
        stacked = parse_matrix("\n".join(lines[pos : pos + 1 + rows]))
        pos += 1 + rows
        if stacked.shape != (dim + b, b):
            raise ValueError(
                f"block column {j}: expected shape {(dim + b, b)}, got {stacked.shape}"
            )
        columns.append(BlockColumn(stacked[:dim], stacked[dim:]))
        dim += b
    if pos != len(lines):
        raise ValueError(f"trailing content after {nblocks} block columns")
    return columns
