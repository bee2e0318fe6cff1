"""Diagonal Pade approximants of the exponential, with scaling and squaring.

The baseline routine here evaluates exp(a) as r(2^-s a)^(2^s) where r = p/q
is the degree (13, 13) diagonal Pade approximant and s is the smallest
power that brings 2^-s ||a||_1 down to THETA_13 or below.  Degree and
threshold are fixed together: THETA_13 is only valid for degree 13.

Both polynomials are summed as the powers are formed (see
:func:`pade_powers` and :func:`pade_polynomials`): each power of the scaled
matrix is computed once and added to the numerator and denominator in
ascending monomial order.
The incremental engine evaluates every new diagonal block with the same
function, so a one-block state -- its first stage and every adaptive
restart -- reproduces this baseline exactly, operation for operation.  While
its scaled matrix is dense, the engine's off-diagonal columns follow
Higham's six-product evaluation instead (see
``IncrementalExpState._extend_pq``), which needs six matrix
products where this sum needs twelve, but rounds about twice as far from
the exact approximant: on 400 points uniform in [-THETA_13, THETA_13] the
scalar r_13 came out a mean 16 u and at most 169 u from the exact rational
value, u the unit roundoff, where this sum came out 8 u and at most 88 u.
For the diagonal blocks the products cost O(b^3) either way, so they keep
this sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import as_matrix, lu_factor, lu_solve, one_norm

# 1-norm threshold for the degree-13 diagonal approximant: scaling halves the
# norm until it drops below this value.
THETA_13 = 5.371920351148152


@dataclass(frozen=True)
class PadeCoefficients:
    """Coefficients of the degree (m, m) diagonal Pade approximant.

    ``alpha[l]`` multiplies z^l in the numerator p; the denominator q has
    coefficients ``beta[l] = (-1)^l alpha[l]``, so q(z) = p(-z).
    """

    degree: int
    alpha: np.ndarray
    beta: np.ndarray


def pade_coefficients(m: int) -> PadeCoefficients:
    """Numerator and denominator coefficients of the (m, m) approximant.

    Uses the recurrence alpha_0 = 1,
    alpha_{l+1} = alpha_l * (m - l) / ((2m - l) * (l + 1)).

    Raises
    ------
    ValueError
        For a degree that is not a positive integer.
    """
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"unsupported Pade degree {m!r}: need a positive integer")
    alpha = np.empty(m + 1)
    alpha[0] = 1.0
    for l in range(m):
        alpha[l + 1] = alpha[l] * (m - l) / ((2 * m - l) * (l + 1))
    beta = alpha * (-1.0) ** np.arange(m + 1)
    alpha.setflags(write=False)
    beta.setflags(write=False)
    return PadeCoefficients(degree=m, alpha=alpha, beta=beta)


# The approximant every exponential in the package uses.
PADE_13 = pade_coefficients(13)


def scaling_power(norm: float, theta: float = THETA_13) -> int:
    """Smallest integer s >= 0 with 2^-s * norm <= theta.

    Halving is exact in binary floating point, so the boundary cases behave
    predictably: norm == theta gives s = 0.  Every exponential in the
    package scales with the default, the degree-13 threshold; the
    truncated-Taylor oracle of the acceptance tests passes its own bound.
    """
    if not np.isfinite(norm) or norm < 0:
        raise ValueError(f"matrix norm must be finite and nonnegative, got {norm}")
    if theta <= 0 or not np.isfinite(theta):
        raise ValueError(f"scaling threshold must be positive, got {theta}")
    s = 0
    x = norm
    while x > theta:
        x *= 0.5
        s += 1
    return s


# The scaling power of the largest float: no finite matrix needs more, and
# each further power only adds a squaring (and, in the incremental engine,
# a cache).
_MAX_SCALING = scaling_power(float(np.finfo(np.float64).max))


def as_scaling_power(s) -> int:
    """``s`` as an int; ValueError unless it is a nonnegative Python or numpy
    integer, so a float such as 2.7 is refused instead of truncated, and
    unless it is at most 1022, the power of the largest finite norm."""
    if not isinstance(s, (int, np.integer)) or s < 0:
        raise ValueError(f"scaling power must be a nonnegative integer, got {s!r}")
    if s > _MAX_SCALING:
        raise ValueError(
            f"scaling power {s} is above {_MAX_SCALING}, the most any finite matrix needs"
        )
    return int(s)


def pade_powers(a: np.ndarray):
    """Yield the powers a^0 = I, a, a^2, ..., a^13 of a square array: a^1 is
    ``a`` itself, and each later power is formed once, from the one before,
    as a^(l-1) @ a.  A caller that reads them again keeps them as a list;
    :func:`expm_baseline` holds one at a time."""
    yield np.eye(a.shape[0])
    power = a
    yield power
    for _ in range(PADE_13.degree - 1):
        power = power @ a
        yield power


def pade_polynomials(powers) -> tuple[np.ndarray, np.ndarray]:
    """The degree-13 numerator p(a) and denominator q(a) from the powers
    a^0 .. a^13 of :func:`pade_powers`, each added to both in ascending
    monomial order."""
    alpha, beta = PADE_13.alpha, PADE_13.beta
    powers = iter(powers)
    power = next(powers)
    p = alpha[0] * power
    q = beta[0] * power
    for l, power in enumerate(powers, 1):
        p += alpha[l] * power
        q += beta[l] * power
    return p, q


def expm_baseline(a, s: int | None = None) -> np.ndarray:
    """Matrix exponential by degree-13 Pade scaling and squaring.

    Parameters
    ----------
    a : array_like
        Square matrix with finite entries.
    s : int, optional
        Force this scaling power, at least the one selected from the norm
        and THETA_13, instead of selecting it.  A larger s than the norm
        needs is accepted but costs accuracy: each extra power is one more
        rounded squaring, and the error about doubles with each.  For
        ``np.triu(np.random.default_rng(0).standard_normal((12, 12)))``,
        which needs s = 1, the relative error against
        ``scipy.linalg.expm`` is 3.0e-15 at s = 3, 4.1e-14 at 9, 3.3e-13
        at 12, 1.2e-10 at 20, 9.4e-5 at 40 and 0.58 at 60.

    Returns
    -------
    numpy.ndarray
        Approximation of exp(a).

    Raises
    ------
    ValueError
        For an s below the one the norm needs, where the approximant loses
        accuracy, naming both.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got {a.shape}")
    norm = one_norm(a)
    need = scaling_power(norm)
    s = need if s is None else as_scaling_power(s)
    if s < need:
        raise ValueError(
            f"the 1-norm {norm!r} is above THETA_13 * 2^{s} = {THETA_13 * 2.0**s!r}:"
            f" scaling power s = {s} is too small, the matrix needs s >= {need}"
        )
    p, q = pade_polynomials(pade_powers(a * 2.0 ** (-s)))
    r = lu_solve(lu_factor(q), p)
    for _ in range(s):
        r = r @ r
    return r
