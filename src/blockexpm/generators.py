"""Generator matrices of polynomial diffusions on graded monomial bases.

A polynomial diffusion in d variables has drift entries of degree at most 1
and squared-diffusion entries of degree at most 2, so its infinitesimal
generator

    G f = 1/2 tr(A grad^2 f) + b . grad f

maps polynomials of total degree n to polynomials of total degree at most
n.  On the graded monomial basis this makes the matrix representation block
upper triangular, with one block per total degree: exactly the nested
structure the incremental exponential engine consumes.

Polynomials are immutable coefficient maps without arithmetic: the operator
sends x^k to the exponent shifts x^(k - e_i) b_i and x^(k - e_i - e_j) a_ij,
and is applied by that derivative stencil.  The matrix is assembled from
the same stencil written as arrays over each degree's monomials, whose
target rows come from the closed-form graded index.

Basis order: monomials are grouped by total degree, ascending; within one
degree the exponent tuples are in descending lexicographic order.  For two
variables (y, v) this reads 1, y, v, y^2, yv, v^2, ...

Model builders for the Jacobi and Heston stochastic volatility models are
included, with closed-form and stencil bounds (:func:`norm_bound`) on the
1-norm of generator matrices, and the stencil's shifted bound
(:func:`shifted_norm_bound`) on the 1-norm of G - mu I, which let callers
pick a scaling power a priori.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .blocks import BlockColumn, Partition, matrix_from_columns

MultiIndex = tuple[int, ...]


class Polynomial:
    """Validated coefficient map of a polynomial: exponent tuple -> coefficient.

    Zero coefficients are dropped, so equal polynomials have equal term
    maps.  Instances are immutable, and ``terms`` is a read-only view of
    the map, so an operator spec cannot be changed after its checks ran.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[MultiIndex, float] | None = None):
        if dim < 1:
            raise ValueError(f"polynomial dimension must be >= 1, got {dim}")
        clean: dict[MultiIndex, float] = {}
        for k, c in (terms or {}).items():
            k = tuple(int(e) for e in k)
            if len(k) != dim or any(e < 0 for e in k):
                raise ValueError(f"bad exponent tuple {k} for dimension {dim}")
            c = float(c)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient for {k}")
            if c != 0.0:
                clean[k] = clean.get(k, 0.0) + c
                if clean[k] == 0.0:
                    del clean[k]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def monomial(cls, k: MultiIndex, c: float = 1.0) -> "Polynomial":
        return cls(len(k), {tuple(k): c})

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1."""
        return max((sum(k) for k in self.terms), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return f"Polynomial(dim={self.dim}, terms={dict(self.terms)})"


# -- graded basis ----------------------------------------------------------


@lru_cache(maxsize=None)
def degree_monomials(d: int, j: int) -> tuple[MultiIndex, ...]:
    """All exponent tuples of total degree j in descending lex order."""
    if d < 1 or j < 0:
        raise ValueError(f"bad arguments d={d}, j={j}")
    if d == 1:
        return ((j,),)
    out = []
    for e in range(j, -1, -1):
        out.extend((e,) + rest for rest in degree_monomials(d - 1, j - e))
    return tuple(out)


def basis_size(d: int, n: int) -> int:
    """Dimension of the space of d-variate polynomials of degree <= n."""
    if n < 0:
        return 0
    return math.comb(n + d, d)


def basis_index(k: MultiIndex) -> int:
    """Position of a monomial in the graded basis of its own dimension."""
    return int(_graded_index(np.array(k, dtype=np.intp)))


def _comb(n: np.ndarray, r: int) -> np.ndarray:
    """Binomial coefficients C(n, r) of a nonnegative integer array."""
    out = np.ones_like(n)
    for t in range(r):
        out = out * (n - t) // (t + 1)
    return out


def _graded_index(exps: np.ndarray) -> np.ndarray:
    """Positions in the graded basis of the exponent tuples in the last
    axis of ``exps``, in closed form.

    A monomial x^k of total degree j follows the C(j - 1 + d, d)
    monomials of lower degree.  Among those of degree j, descending lex
    order puts before it, for each variable i < d - 1, the ones that
    agree with k before i and exceed it at i: C(t + d - i - 2, d - i - 1)
    of them, with t the sum of k's exponents after i.
    """
    d = exps.shape[-1]
    tails = np.cumsum(exps[..., ::-1], axis=-1)[..., ::-1]  # sums of k_i .. k_(d-1)
    index = _comb(tails[..., 0] - 1 + d, d)
    for i in range(d - 1):
        index += _comb(tails[..., i + 1] + d - i - 2, d - i - 1)
    return index


@lru_cache(maxsize=None)
def _degree_exponents(d: int, j: int) -> np.ndarray:
    """Exponent tuples of total degree j, one per row, in basis order."""
    exps = np.array(degree_monomials(d, j), dtype=np.intp).reshape(-1, d)
    exps.setflags(write=False)
    return exps


def basis_values(d: int, n: int, point) -> np.ndarray:
    """Evaluate every basis monomial of degree <= n at a point.

    Each monomial is the product, in variable order, of entries of the
    table of powers x_i^e for e = 0 .. n.
    """
    point = tuple(float(x) for x in point)
    if len(point) != d:
        raise ValueError(f"point has {len(point)} coordinates, expected {d}")
    if n < 0:
        return np.empty(0)
    exps = np.concatenate([_degree_exponents(d, j) for j in range(n + 1)])
    powers = np.power.outer(np.array(point), np.arange(n + 1, dtype=np.float64))
    vals = powers[0, exps[:, 0]]
    for i in range(1, d):
        vals *= powers[i, exps[:, i]]
    return vals


# -- polynomial diffusion operators ----------------------------------------


@dataclass(frozen=True)
class PolynomialOperatorSpec:
    """Second-order operator G f = 1/2 tr(a grad^2 f) + b . grad f.

    ``a`` is the d x d symmetric squared-diffusion matrix with polynomial
    entries of degree <= 2; ``b`` is the drift vector with entries of
    degree <= 1.  These degree bounds are exactly what keeps the operator
    degree-preserving on polynomials.
    """

    dim: int
    a: tuple[tuple[Polynomial, ...], ...]
    b: tuple[Polynomial, ...]

    def __post_init__(self):
        d = self.dim
        a = tuple(tuple(row) for row in self.a)
        b = tuple(self.b)
        if len(a) != d or any(len(row) != d for row in a):
            raise ValueError(f"a must be {d}x{d}")
        if len(b) != d:
            raise ValueError(f"b must have {d} entries")
        for i in range(d):
            if b[i].dim != d or b[i].degree > 1:
                raise ValueError(f"drift entry {i} must have degree <= 1")
            for j in range(d):
                if a[i][j].dim != d or a[i][j].degree > 2:
                    raise ValueError(f"diffusion entry ({i},{j}) must have degree <= 2")
                if a[i][j] != a[j][i]:
                    raise ValueError(f"diffusion matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


def _lowered(k: MultiIndex, i: int) -> MultiIndex:
    return k[:i] + (k[i] - 1,) + k[i + 1 :]


def _stencil(spec: PolynomialOperatorSpec, k: MultiIndex, c: float):
    """Yield the (exponent, coefficient) contributions of c x^k under the
    operator, in the order i, drift before diffusion, j.

    The term contributes c k_i b_i x^(k - e_i) for each variable i with
    k_i > 0, and 1/2 c k_i (k - e_i)_j a_ij x^(k - e_i - e_j) for each j
    with (k - e_i)_j > 0.
    """
    for i in range(spec.dim):
        if k[i] == 0:
            continue
        ki, ci = _lowered(k, i), c * k[i]
        for kb, cb in spec.b[i].terms.items():
            yield tuple(x + y for x, y in zip(kb, ki)), cb * ci
        for j in range(spec.dim):
            if ki[j] > 0:
                kij, cij = _lowered(ki, j), ci * ki[j]
                for ka, ca in spec.a[i][j].terms.items():
                    yield tuple(x + y for x, y in zip(ka, kij)), ca * cij * 0.5


def apply_generator(spec: PolynomialOperatorSpec, f: Polynomial) -> Polynomial:
    """Apply the operator to a polynomial by its derivative stencil,
    summing the contributions of each term into one coefficient map."""
    if f.dim != spec.dim:
        raise ValueError("dimension mismatch between operator and polynomial")
    out: dict[MultiIndex, float] = {}
    for k, c in f.terms.items():
        for m, v in _stencil(spec, k, c):
            out[m] = out.get(m, 0.0) + v
    return Polynomial(spec.dim, out)


@lru_cache(maxsize=None)
def _target_rows(d: int, j: int, shift: MultiIndex) -> np.ndarray:
    """Graded-basis rows of x^(k + shift) for the degree-j monomials k, in
    basis order; an entry is meaningless where k + shift has a negative
    exponent."""
    rows = _graded_index(_degree_exponents(d, j) + np.array(shift, dtype=np.intp))
    rows.setflags(write=False)
    return rows


def _degree_stencil(spec: PolynomialOperatorSpec, j: int):
    """:func:`_stencil` of every degree-j monomial at once, as arrays.

    Returns one pair (shift, coefficients) per stencil term, in
    :func:`_stencil`'s order (i, drift before diffusion, j).  The term
    sends x^k to x^(k + shift) with coefficient ``coefficients[local]``,
    for the monomial k at position ``local`` of the degree; that
    coefficient is zero where the term does not apply (k_i = 0 or
    (k - e_i)_j = 0).  Each coefficient is formed with :func:`_stencil`'s
    operations, so it has the same bits.
    """
    d = spec.dim
    exps = _degree_exponents(d, j)
    terms = []
    for i in range(d):
        ki = exps[:, i].astype(np.float64)
        for kb, cb in spec.b[i].terms.items():
            terms.append((_lowered(kb, i), cb * ki))
        for jj in range(d):
            kij = (exps[:, i] * (exps[:, jj] - int(i == jj))).astype(np.float64)
            for ka, ca in spec.a[i][jj].terms.items():
                terms.append((_lowered(_lowered(ka, i), jj), ca * kij * 0.5))
    return terms


def build_generator_matrix(
    spec: PolynomialOperatorSpec, n: int
) -> tuple[np.ndarray, Partition]:
    """Matrix of the operator on the graded basis of degree-n polynomials.

    Returns the dense matrix, read-only, with its degree partition.  It is
    assembled from :func:`generator_block_columns`, so it is block upper
    triangular by construction.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    g = matrix_from_columns(generator_block_columns(spec, max_degree=n))
    return g.data, g.partition


def generator_block_columns(
    spec: PolynomialOperatorSpec,
    max_degree: int | None = None,
    scale: float = 1.0,
    shift: float = 0.0,
):
    """Yield the generator matrix one degree block at a time.

    Block column j covers the monomials of total degree j; entries are
    multiplied by ``scale`` (e.g. a time horizon), and ``shift`` is then
    subtracted from the diagonal, so the blocks are those of
    scale * G - shift * I.  With ``max_degree`` None the stream is
    unbounded.  For the matrix on a rescaled basis, pass the operator of
    :func:`scaled_spec`.
    """
    d = spec.dim
    j = 0
    while max_degree is None or j <= max_degree:
        b = len(degree_monomials(d, j))
        prev = basis_size(d, j - 1)
        col = np.zeros((prev + b, b))
        # term by term, so each entry sums its contributions in stencil order
        for target, coef in _degree_stencil(spec, j):
            local = np.flatnonzero(coef)
            col[_target_rows(d, j, target)[local], local] += coef[local]
        col *= scale
        col[prev + np.arange(b), np.arange(b)] -= shift
        yield BlockColumn(col[:prev], col[prev:], check_finite=False)
        j += 1


def scaled_spec(
    spec: PolynomialOperatorSpec, exponents: tuple[int, ...]
) -> PolynomialOperatorSpec:
    """The operator of the rescaled state x' = (2^e_1 x_1, ..., 2^e_d x_d).

    Its matrix on the monomials of x' is D^-1 G D, D = diag(2^(e . k)):
    the drift 2^e_i b_i and squared diffusion 2^(e_i + e_j) a_ij of x',
    written in x = 2^-e x', multiply the coefficient of x^k by
    2^(e_i - e . k) and 2^(e_i + e_j - e . k).  These are powers of two,
    so the matrices are exact and, as D's leading part does not depend on
    the degree, nested.  Raises ``ValueError`` unless ``exponents`` are d
    integers, or if a factor takes a coefficient out of the normal range.
    """
    e = tuple(exponents)
    if len(e) != spec.dim or not all(float(x).is_integer() for x in e):
        raise ValueError(f"scaled_spec needs {spec.dim} integer exponents, got {exponents!r}")
    e = tuple(int(x) for x in e)

    def scaled(poly: Polynomial, shift: int) -> Polynomial:
        terms = {}
        for k, c in poly.terms.items():
            power = shift - sum(x * y for x, y in zip(e, k))
            # normal floats have frexp exponents in [min_exp, max_exp]
            if power and not (sys.float_info.min_exp <= math.frexp(c)[1] + power
                              <= sys.float_info.max_exp):
                raise ValueError(f"exponents {e} take the coefficient {c!r} of monomial "
                                 f"{k} out of the normal float range")
            terms[k] = math.ldexp(c, power)
        return Polynomial(spec.dim, terms)

    idx = range(spec.dim)
    return PolynomialOperatorSpec(
        dim=spec.dim,
        a=tuple(tuple(scaled(spec.a[i][j], e[i] + e[j]) for j in idx) for i in idx),
        b=tuple(scaled(spec.b[i], e[i]) for i in idx),
    )


def norm_bound(spec: PolynomialOperatorSpec, n: int) -> float:
    """Upper bound on the 1-norm of the operator's degree-n matrix: the
    largest sum of |stencil coefficients| over the degree-n monomials.

    Every term's factor k_i or k_i (k - e_i)_j grows with each exponent,
    so degree n holds the maximum over all degrees <= n.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return float(np.max(sum(np.abs(coef) for _, coef in _degree_stencil(spec, n))))


def shifted_norm_bound(spec: PolynomialOperatorSpec, n: int) -> tuple[float, float]:
    """The shift mu and the radius min over mu of max over degrees j <= n
    of the 1-norm of G_j - mu I, for the operator's matrices G_j.

    A monomial's column of G_n has the diagonal entry d_k and off-diagonal
    entries whose absolute values sum to o_k, so
    ||G_n - mu I||_1 = max_k |d_k - mu| + o_k.  This is smallest, at
    (max(d + o) - min(d - o)) / 2, for mu = (max(d + o) + min(d - o)) / 2:
    Ward's (1977) shift of the spectrum's centre to zero, from the exact
    entries.  Each degree's columns are read off the stencil without being
    assembled.  Returns (mu, radius).
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    hi, lo = -math.inf, math.inf
    for j in range(n + 1):
        # terms with the same shift hit the same row: their coefficients
        # sum in stencil order, as in the block column
        entries: dict[MultiIndex, np.ndarray] = {}
        for target, coef in _degree_stencil(spec, j):
            entries[target] = entries[target] + coef if target in entries else coef
        diag = entries.pop((0,) * spec.dim, 0.0)
        off = sum(np.abs(coef) for coef in entries.values())
        hi = max(hi, float(np.max(diag + off)))
        lo = min(lo, float(np.min(diag - off)))
    return (hi + lo) / 2, (hi - lo) / 2


# -- stochastic volatility models ------------------------------------------
#
# Heston is the Jacobi model's limit vmin -> 0, vmax -> inf (Ackerer,
# Filipovic & Pulido, "The Jacobi stochastic volatility model", 2018): Q(v)
# tends to v and the bound's alpha to sigma / 2.  Both models share one
# validation, one spec builder taking Q and one closed-form norm bound.


def _check_finite(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class _VolatilityParams:
    """Fields shared by the stochastic volatility models and their checks.

    kappa and theta are the mean-reversion speed and level of the
    variance, sigma the vol-of-vol, r the interest rate, rho the spot-vol
    correlation.  The variance lives in the range [vmin, vmax] that each
    model's ``_variance_range`` gives.
    """

    kappa: float
    theta: float
    sigma: float
    r: float
    rho: float

    def __post_init__(self):
        _check_finite(**{f.name: getattr(self, f.name) for f in fields(self)})
        vmin, vmax = self._variance_range()
        if not 0 <= vmin < vmax:
            raise ValueError(f"need 0 <= vmin < vmax, got [{vmin}, {vmax}]")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if not vmin <= self.theta <= vmax:
            raise ValueError(
                f"theta must lie in [vmin, vmax] = [{vmin}, {vmax}], got {self.theta}"
            )
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if self.r < 0:
            raise ValueError(f"r must be nonnegative, got {self.r}")
        if not -1 <= self.rho <= 1:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")


@dataclass(frozen=True)
class JacobiParams(_VolatilityParams):
    """Jacobi stochastic volatility model parameters: the variance
    process lives in [vmin, vmax]."""

    vmin: float
    vmax: float

    def _variance_range(self) -> tuple[float, float]:
        return self.vmin, self.vmax


@dataclass(frozen=True)
class HestonParams(_VolatilityParams):
    """Heston model parameters; the variance process lives on [0, inf)."""

    def _variance_range(self) -> tuple[float, float]:
        return 0.0, math.inf


def _drift(r: float, kappa: float, theta: float) -> tuple[Polynomial, Polynomial]:
    # state is (y, v) with y the log price and v the variance:
    # dy has drift r - v/2, dv has drift kappa (theta - v)
    by = Polynomial(2, {(0, 0): r, (0, 1): -0.5})
    bv = Polynomial(2, {(0, 0): kappa * theta, (0, 1): -kappa})
    return by, bv


def _volatility_spec(p: _VolatilityParams, q: dict[MultiIndex, float]) -> PolynomialOperatorSpec:
    """Generator of the model with squared diffusion
    [[v, rho sigma Q(v)], [rho sigma Q(v), sigma^2 Q(v)]], where ``q``
    holds the coefficients of Q."""
    a11 = Polynomial(2, {(0, 1): 1.0})
    a12 = Polynomial(2, {k: c * (p.rho * p.sigma) for k, c in q.items()})
    a22 = Polynomial(2, {k: c * p.sigma**2 for k, c in q.items()})
    return PolynomialOperatorSpec(
        dim=2, a=((a11, a12), (a12, a22)), b=_drift(p.r, p.kappa, p.theta)
    )


def _jacobi_scale(p: JacobiParams) -> float:
    """S = (sqrt(vmax) - sqrt(vmin))^2, the denominator of Jacobi's Q."""
    return (math.sqrt(p.vmax) - math.sqrt(p.vmin)) ** 2


def jacobi_spec(params: JacobiParams) -> PolynomialOperatorSpec:
    """Generator of the Jacobi model as a polynomial operator.

    The squared diffusion uses Q(v) = (v - vmin)(vmax - v) / S with
    S = (sqrt(vmax) - sqrt(vmin))^2.
    """
    p, s_den = params, _jacobi_scale(params)
    return _volatility_spec(p, {
        (0, 2): -1.0 / s_den,
        (0, 1): (p.vmax + p.vmin) / s_den,
        (0, 0): -p.vmax * p.vmin / s_den,
    })


def heston_spec(params: HestonParams) -> PolynomialOperatorSpec:
    """Generator of the Heston model as a polynomial operator: Q(v) = v."""
    return _volatility_spec(params, {(0, 1): 1.0})


def _volatility_norm_bound(p: _VolatilityParams, alpha: float, n: int) -> float:
    """The closed-form bound n (r + kappa + kappa theta - sigma alpha)
    + n^2 / 2 (1 + |rho| alpha + 2 sigma alpha) on the 1-norm of the
    degree-n generator matrix, where alpha is sigma / 2 times the sum of
    the absolute coefficients of Q."""
    return n * (p.r + p.kappa + p.kappa * p.theta - p.sigma * alpha) + 0.5 * n**2 * (
        1 + abs(p.rho) * alpha + 2 * p.sigma * alpha
    )


def jacobi_norm_bound(params: JacobiParams, n: int) -> float:
    """Upper bound on the 1-norm of the degree-n Jacobi generator matrix.

    The bound grows quadratically in n.  Acceptance criteria 6 and 7 and
    :func:`~blockexpm.pricing.scaling_from_bound` use it;
    :func:`norm_bound` is tighter (5000 against 5797 at degree 100 for
    criterion 9's parameters).
    """
    p = params
    alpha = p.sigma * (1 + p.vmin * p.vmax + p.vmax + p.vmin) / (2 * _jacobi_scale(p))
    return _volatility_norm_bound(p, alpha, n)


def heston_norm_bound(params: HestonParams, n: int) -> float:
    """Upper bound on the 1-norm of the degree-n Heston generator matrix:
    the Jacobi bound's limit, alpha = sigma / 2."""
    return _volatility_norm_bound(params, params.sigma / 2, n)
