"""Dense float64 matrix kernels and plain-text matrix I/O.

Everything downstream (Pade approximants, the incremental engine, the
benchmark harness) works on C-contiguous float64 2-D arrays.  This module
pins down that representation, wraps the LAPACK LU routines with explicit
pivot diagnostics, and defines the on-disk text formats for matrices and
block partitions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class SingularMatrixError(ValueError):
    """Raised when an LU factorization hits an exactly zero pivot."""

    def __init__(self, message: str, pivot: float = 0.0):
        super().__init__(message)
        self.pivot = pivot


# Pivots below this multiple of the 1-norm flag the factors as unreliable.
ILL_CONDITION_RTOL = 1e-14


def as_matrix(a, check_finite: bool = True) -> np.ndarray:
    """Coerce ``a`` to a C-contiguous float64 2-D array.

    Parameters
    ----------
    a : array_like
        Anything numpy can turn into a 2-D array of floats.
    check_finite : bool
        Reject NaN or infinite entries.  Keep enabled at external input
        boundaries; internal callers that already validated may disable.

    Returns
    -------
    numpy.ndarray
        A float64 C-ordered array.  A copy is made unless ``a`` already
        satisfies the representation.
    """
    m = np.asarray(a, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if check_finite and m.size and not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    return m


def one_norm(a: np.ndarray) -> float:
    """Induced 1-norm (maximum absolute column sum).  Empty matrix -> 0.0."""
    if a.size == 0:
        return 0.0
    return float(np.abs(a).sum(axis=0).max())


def rel_error_fro(a: np.ndarray, ref: np.ndarray) -> float:
    """Relative Frobenius error of ``a`` against reference ``ref``.

    A zero reference makes the error 0.0 when ``a`` is also zero and
    infinity otherwise.
    """
    if a.shape != ref.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {ref.shape}")
    denom = float(np.linalg.norm(ref))
    num = float(np.linalg.norm(a - ref))
    if denom == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / denom


@dataclass(frozen=True)
class LuFactors:
    """Packed LU factors of a square matrix with partial pivoting.

    Attributes
    ----------
    lu : numpy.ndarray
        Combined L (unit lower, below diagonal) and U (upper) factors in
        one square array, as returned by LAPACK getrf.
    ipiv : numpy.ndarray
        Successive row interchanges (getrf convention): row k was swapped
        with row ``ipiv[k]``, for k in increasing order.
    smallest_pivot : float
        Minimum absolute diagonal entry of U.
    ill_conditioned : bool
        True when ``smallest_pivot`` fell below
        ``ILL_CONDITION_RTOL * one_norm(input)``.
    """

    lu: np.ndarray
    ipiv: np.ndarray
    smallest_pivot: float
    ill_conditioned: bool

    @property
    def dim(self) -> int:
        return self.lu.shape[0]


def lu_factor(a: np.ndarray) -> LuFactors:
    """Factor a square matrix as P a = L U with partial pivoting.

    Raises
    ------
    SingularMatrixError
        If a pivot is exactly zero.  A nonzero pivot smaller than
        ``ILL_CONDITION_RTOL`` times the 1-norm only sets the
        ``ill_conditioned`` flag on the result.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"lu_factor needs a square matrix, got {a.shape}")
    norm = one_norm(a)
    with warnings.catch_warnings():
        # getrf warns on exact singularity; we raise our own error below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, ipiv = scipy.linalg.lu_factor(a, check_finite=False)
    diag = np.abs(np.diag(lu))
    smallest = float(diag.min()) if diag.size else 0.0
    if a.size and smallest == 0.0:
        raise SingularMatrixError(
            f"singular matrix: zero pivot in LU of {a.shape[0]}x{a.shape[0]} matrix",
            pivot=0.0,
        )
    return LuFactors(
        lu=lu,
        ipiv=ipiv,
        smallest_pivot=smallest,
        ill_conditioned=bool(smallest < ILL_CONDITION_RTOL * norm),
    )


def lu_solve(factors: LuFactors, b: np.ndarray) -> np.ndarray:
    """Solve a x = b using precomputed factors; b may have many columns."""
    if b.ndim not in (1, 2) or b.shape[0] != factors.dim:
        raise ValueError(
            f"lu_solve shape mismatch: factors dim {factors.dim}, rhs {b.shape}"
        )
    return scipy.linalg.lu_solve((factors.lu, factors.ipiv), b, check_finite=False)


# ---------------------------------------------------------------------------
# Text formats.
#
# Matrix file: a header line "rows cols", then `rows` lines each holding
# `cols` whitespace-separated decimal entries.  Entries are written with 17
# significant digits so float64 values round-trip exactly.
#
# Partition file: a single line of whitespace-separated block sizes.
# ---------------------------------------------------------------------------


def format_matrix(a: np.ndarray) -> str:
    a = as_matrix(a)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header {lines[0]!r}, expected 'rows cols'")
    rows, cols = int(header[0]), int(header[1])
    if rows < 0 or cols < 0:
        raise ValueError(f"negative dimensions in header {lines[0]!r}")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data rows, found {len(lines) - 1}")
    data = np.empty((rows, cols), dtype=np.float64)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != cols:
            raise ValueError(f"row {i}: expected {cols} entries, found {len(parts)}")
        data[i] = [float(p) for p in parts]
    return as_matrix(data)


def write_matrix(path, a: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(format_matrix(a))


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        return parse_matrix(fh.read())


def write_partition(path, sizes) -> None:
    with open(path, "w") as fh:
        fh.write(" ".join(str(int(b)) for b in sizes) + "\n")


def read_partition(path) -> "Partition":
    """The :class:`~blockexpm.blocks.Partition` of a file of block sizes;
    ``ValueError`` from it names a size that is not a positive integer."""
    from .blocks import Partition  # blocks imports this module

    with open(path) as fh:
        return Partition(tuple(int(p) for p in fh.read().split()))
