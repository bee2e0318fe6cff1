"""European call pricing under the Jacobi model via Hermite series.

The log price density at the horizon is expanded against a Gaussian
auxiliary density N(muw, sigmaw^2): the option price becomes

    price = sum_n  l_n * f_n,

where l_n is a Hermite moment of the model, computed from the matrix
exponential of the scaled generator on degree-n polynomials, and f_n is a
Fourier coefficient of the discounted payoff against the weighted Hermite
functions.  The moments for n = 0, 1, 2, ... need exp(tau G_n) for the
growing family of generator matrices, which is exactly the workload the
incremental engine is built for: each degree adds one block column.

The series is truncated once a term's magnitude falls below a relative
tolerance; the truncation heuristic follows the partial sum itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .generators import (
    JacobiParams,
    _check_finite,
    basis_values,
    generator_block_columns,
    jacobi_norm_bound,
    jacobi_spec,
    scaled_spec,
    shifted_norm_bound,
)
from .incremental import _drive
from .pade import as_scaling_power, scaling_power

# Tiny floor that keeps the relative termination test meaningful when the
# accumulated price is still zero.
_PRICE_FLOOR = 1e-300

# Limits of the pricing basis (see rescaled_basis): a >= 2^-_BASIS_SHIFT,
# and 2^-_BASIS_RANGE <= a^n_max, so the factor a^n_max stays far above the
# subnormal range (2^-1022) and a^-n far below the overflow threshold.
_BASIS_SHIFT = 4
_BASIS_RANGE = 600

# Largest |mu| of the shifted stream (see price_call): its columns are
# e^-mu times the exponential's, at most 2^256 times larger or smaller.
_SHIFT_LIMIT = 256 * math.log(2)


# The weight, degree and last two vectors (None before h~_0) of the last
# call of hermite_y_coefficients, which a later call resumes from.
_last_hermite = None


def hermite_y_coefficients(n: int, muw: float, sigmaw: float) -> np.ndarray:
    """Coefficients in y of (1/sqrt(n!)) h_n((y - muw) / sigmaw).

    h_n is the probabilists' Hermite polynomial.  The coefficients are
    built with the normalized recurrence
    h~_{j+1}(x) = (x h~_j(x) - sqrt(j) h~_{j-1}(x)) / sqrt(j + 1), so no
    factorial is formed and they stay finite past degree 170.  Entry p of
    the result multiplies y^p.  ``muw`` and ``sigmaw`` must be finite.
    Raises ``ValueError`` if the coefficients overflow the float range,
    as they do for a narrow weight at high degree: they grow like
    sigmaw^-n / sqrt(n!).

    A call for the degree after the last call's, or any later one, at the
    same weight resumes the recurrence from that call's last two vectors,
    so :func:`price_call`'s read-off, which asks for degrees 0, 1, 2, ...
    in turn, pays one O(n) update per degree; the floats are the same as
    from h~_0.
    """
    global _last_hermite
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    _check_finite(muw=muw, sigmaw=sigmaw)
    if sigmaw <= 0:
        raise ValueError(f"sigmaw must be positive, got {sigmaw}")
    last = _last_hermite
    if last is not None and last[:2] == (muw, sigmaw) and last[2] <= n:
        j, prev, cur = last[2:]
    else:
        j, prev, cur = 0, None, np.array([1.0])  # h~_0
    # x = (y - muw) / sigmaw; multiply-by-x maps coefficient vectors via a
    # shift (for the y factor) and a scalar combination.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(j, n):
            if k == 0:
                nxt = np.array([-muw / sigmaw, 1.0 / sigmaw])  # h~_1(x(y))
            else:
                nxt = np.zeros(k + 2)
                nxt[1:] += cur / sigmaw
                nxt[: k + 1] += -(muw / sigmaw) * cur
                nxt[:k] += -math.sqrt(k) * prev
                nxt /= math.sqrt(k + 1)
            prev, cur = cur, nxt
    _last_hermite = (muw, sigmaw, n, prev, cur)
    if not np.isfinite(cur).all():
        raise ValueError(f"the degree-{n} Hermite coefficients overflow the float range for "
                         f"the weight N(muw = {muw!r}, sigmaw = {sigmaw!r}^2)")
    return cur.copy()


def _normal_cdf(z: float) -> float:
    """Standard normal distribution function, accurate in both tails."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def fourier_coefficient(
    n: int,
    logstrike: float,
    muw: float,
    sigmaw: float,
    r: float = 0.0,
    tau: float = 0.0,
) -> float:
    """Payoff Fourier coefficient against the weighted Hermite functions.

    Computes e^(-r tau) * integral over (logstrike, inf) of
    (e^y - e^logstrike) h~_n(y) phi(y) dy with phi the N(muw, sigmaw^2)
    density and h~_n the normalized Hermite polynomial of
    :func:`hermite_y_coefficients`, in closed form (Ackerer, Filipovic &
    Pulido, "The Jacobi stochastic volatility model", 2018).

    With x = (y - muw) / sigmaw, k the strike in x, N and Phi the standard
    normal density and distribution, and I_m the integral over (k, inf) of
    e^(sigmaw x) h~_m(x) N(x) dx, integrating by parts with
    (h_(m-1) N)' = -h_m N gives
    I_m = (h~_(m-1)(k) e^(sigmaw k) N(k) + sigmaw I_(m-1)) / sqrt(m) from
    I_0 = e^(sigmaw^2 / 2) Phi(sigmaw - k).  The strike term cancels the
    boundary term of I_n, so f_n = e^(-r tau) e^muw sigmaw I_(n-1) / sqrt(n)
    for n >= 1.  The weighted values h~_m(k) e^(sigmaw k) N(k) start from
    one exponential, so a strike far out of the money gives exact zeros.

    Raises ``ValueError`` naming a float argument that is not finite, and
    if the coefficient leaves the float range, as it does for a wide
    weight: f_0 grows like e^(sigmaw^2 / 2).
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    _check_finite(logstrike=logstrike, muw=muw, sigmaw=sigmaw, r=r, tau=tau)
    if sigmaw <= 0:
        raise ValueError(f"sigmaw must be positive, got {sigmaw}")
    try:
        f_n = _closed_form_coefficient(n, logstrike, muw, sigmaw, r, tau)
    except OverflowError:
        f_n = math.inf
    if not math.isfinite(f_n):
        raise ValueError(
            f"payoff coefficient f_{n} overflows the float range for the weight "
            f"N(muw = {muw!r}, sigmaw = {sigmaw!r}^2)"
        )
    return f_n


def _closed_form_coefficient(n, logstrike, muw, sigmaw, r, tau) -> float:
    """The recursion of :func:`fourier_coefficient` on validated input."""
    k = (logstrike - muw) / sigmaw
    integral = math.exp(sigmaw**2 / 2) * _normal_cdf(sigmaw - k)
    if n == 0:
        return math.exp(-r * tau) * (
            math.exp(muw) * integral - math.exp(logstrike) * _normal_cdf(-k)
        )
    weighted_prev, weighted = 0.0, math.exp(sigmaw * k - k * k / 2) / math.sqrt(2 * math.pi)
    for m in range(1, n):
        integral = (weighted + sigmaw * integral) / math.sqrt(m)
        weighted_prev, weighted = (
            weighted,
            (k * weighted - math.sqrt(m - 1) * weighted_prev) / math.sqrt(m),
        )
    return math.exp(-r * tau) * math.exp(muw) * sigmaw * integral / math.sqrt(n)


@dataclass(frozen=True)
class PriceLedgerRow:
    """One term of the Hermite series with its running aggregates.

    ``expm_seconds`` is the engine's time for exp(tau G_n) and
    ``cache_bytes`` the bytes its caches hold after it, both from the
    stage's ``StepReport``; ``quad_seconds`` is the time spent on the
    payoff coefficient f_n (closed form) and ``moment_seconds`` on reading
    l_n off the raw moments: storing m_n, which the engine's step returns
    as the first of its new entries of u^T exp(B_n), and
    :func:`hermite_moment`.  ``cum_seconds`` is the wall time since the
    series started, so cum_seconds - expm - quad - moment is the generator
    assembly and bookkeeping time.
    """

    n: int
    l_n: float
    f_n: float
    term: float
    partial_price: float
    cum_seconds: float
    expm_seconds: float
    quad_seconds: float
    moment_seconds: float
    cache_bytes: int


@dataclass(frozen=True)
class PriceResult:
    """The price, where the series stopped, its ledger, the scaling power
    every exponential of the series was computed at, the exponents
    (log2 a, log2 b) of the basis they were computed on, and the shift mu
    subtracted from their diagonals (see :func:`price_call`)."""

    price: float
    terminal_degree: int
    converged: bool
    rows: tuple[PriceLedgerRow, ...]
    seconds: float
    scaling: int
    basis_scale: tuple[int, int]
    shift: float


@dataclass(frozen=True)
class PricingConfig:
    """Inputs of a call price computation under the Jacobi model.

    ``scaling`` is the scaling power of every exponential in the series,
    each one of the generator on the rescaled basis of
    :func:`rescaled_basis`, shifted by mu (see :func:`price_call`): None
    takes it from that generator's shifted norm bound at ``n_max``
    (:func:`~blockexpm.generators.shifted_norm_bound`), which covers every
    degree the series can reach, or a nonnegative integer fixes it.  The
    shift is taken either way; there is no unshifted path.  A fixed
    power above the need is accepted but costs accuracy: the error of each
    exponential about doubles with each extra power (see
    :func:`~blockexpm.pade.expm_baseline`).  ``eps`` is
    the relative truncation tolerance of the Hermite series; eps = 0
    disables the test and runs to ``n_max``.  Every float input must be
    finite.
    """

    params: JacobiParams
    y0: float
    v0: float
    tau: float
    logstrike: float
    muw: float
    sigmaw: float
    eps: float = 1e-3
    n_max: int = 100
    scaling: int | None = None

    def __post_init__(self):
        _check_finite(**{name: getattr(self, name) for name in
                         ("y0", "v0", "tau", "logstrike", "muw", "sigmaw", "eps")})
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.sigmaw <= 0:
            raise ValueError(f"sigmaw must be positive, got {self.sigmaw}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if not isinstance(self.n_max, (int, np.integer)) or self.n_max < 0:
            raise ValueError(f"n_max must be a nonnegative integer, got {self.n_max!r}")
        if self.scaling is not None:
            as_scaling_power(self.scaling)
        if not (self.params.vmin <= self.v0 <= self.params.vmax):
            raise ValueError(
                f"v0 must lie in [vmin, vmax] = [{self.params.vmin}, {self.params.vmax}]"
            )


def scaling_from_bound(params: JacobiParams, tau: float, n: int) -> int:
    """Scaling power that covers tau * G_n a priori, via the closed-form
    bound :func:`~blockexpm.generators.jacobi_norm_bound`.

    This is the s of the unscaled generator, the one acceptance criteria
    7 and 9 use: 7 at degree 60 and 9 at degree 100.  It is not the s
    :func:`price_call` runs at, which is taken from the shifted bound on
    the rescaled basis (3 at the default n_max = 100, see
    :class:`PricingConfig`).
    """
    return scaling_power(tau * jacobi_norm_bound(params, n))


def rescaled_basis(n_max: int) -> tuple[int, int]:
    """Exponents (log2 a, log2 b) of the basis of monomials of (a y, b v)
    that a series to degree ``n_max`` is priced on.

    a is the smallest power of two with a >= 2^-4 and a^n_max >= 2^-600,
    and b = 4a capped at 1: (-4, -2) up to n_max = 150, (-3, -1) to 200,
    (-2, 0) to 300, (-1, 0) to 600 and the unscaled basis (0, 0) past
    it.  The rule is bounded at both ends of the float range.  With
    a <= b <= 1 every entry of the rescaled matrices is its unscaled value times a factor in
    [a^n_max, 1], and 2^-600 keeps that factor far above the subnormal
    range (2^-1022).  The read-off's Hermite coefficients of y / a grow
    like (a sigmaw)^-n; a^-n <= 2^600 leaves them 2^424 of headroom for
    sigmaw^-n / sqrt(n!), and :func:`hermite_y_coefficients` refuses
    coefficients that overflow all the same.
    """
    e = min(_BASIS_SHIFT, _BASIS_RANGE // max(n_max, 1))
    return -e, min(0, 2 - e)


def hermite_moment(moments, muw: float, sigmaw: float) -> float:
    """Expected normalized Hermite polynomial of the log price against the
    weight N(muw, sigmaw^2), from the raw moments of the log price.

    ``moments[p]`` is the expectation of y^p, p = 0 .. n with
    n = len(moments) - 1, and the result is c_n^T moments, where c_n holds
    the :func:`hermite_y_coefficients` of degree n (Ackerer, Filipovic &
    Pulido 2018).  Raises ``ValueError`` if they overflow.
    """
    return float(hermite_y_coefficients(len(moments) - 1, muw, sigmaw) @ moments)


def price_call(cfg: PricingConfig) -> PriceResult:
    """Price a European call by the truncated Hermite series.

    Degree n contributes l_n * f_n, with l_n read off exp(tau G_n) from
    the incremental engine and f_n in closed form from
    :func:`fourier_coefficient`.  The series stops
    once two consecutive terms satisfy |l_n f_n| <= eps * |price so far|;
    with eps = 0 it runs to n_max.  Requiring two terms guards against
    the parity structure of the series: when the weight is nearly
    centered on the log-price law, odd-degree terms are much smaller
    than their even neighbours long before the tail has decayed, so a
    single small term says nothing about truncation error.  The ledger
    rows record every term, its partial sum, cumulative wall time and the
    seconds of its exponential and of its payoff coefficient.

    A series that diverges is refused, not summed: with eps > 0, a series
    that reaches n_max unconverged with its last term larger in magnitude
    than its first, f_0 (l_0 = 1), raises ``ValueError`` naming the weight
    N(muw, sigmaw^2), the degree and both magnitudes.  It happens when the
    weight is far narrower than the log-price law, as for a long horizon.
    The test sees only where the series stops: at tau = 2, kappa = 1,
    sigma = 0.5 (other inputs as the benchmark's) the last term is 6.1
    times f_0 at n_max = 20, but 0.03 and 0.09 times at n_max = 8 and 12,
    which return unconverged.  With eps = 0 the caller asked for the raw
    series, which is returned as it stands.

    The engine exponentiates B = D^-1 tau G_n D, tau times the generator
    of the model in the variables (a y, b v)
    (:func:`~blockexpm.generators.scaled_spec`) with a and b the powers of
    two of :func:`rescaled_basis` and D = diag(a^i b^j).  This is the
    balancing step of classical expm codes (Ward 1977; Higham 2005) with
    one scale per variable: it shrinks the off-diagonal blocks that
    dominate the 1-norm of tau G_n, and so the scaling power, while the
    sequence stays nested.  The moment is
    u(a y0, b v0)^T exp(B) D^-1 h_n, where D^-1 h_n is the Hermite
    polynomial of y / a, the one for N(a muw, (a sigmaw)^2), so each one
    is read off exp(B) at that state against that weight, and D^-1, whose
    a^-n overflows at high degree, is never formed.

    The engine runs on B - mu I, the other half of Ward's preprocessing:
    exp(B) = e^mu exp(B - mu I), and for one mu the shifted sequence is
    still nested.  mu is the centre of the real interval that the
    Gershgorin column discs of tau G on the rescaled basis span up to
    n_max, which :func:`~blockexpm.generators.shifted_norm_bound` reads
    off the exact entries, so
    ||B_n - mu I||_1 is at most the bound's radius at every degree, and
    s comes from that radius.  On the default inputs the diagonal of
    tau G_100 runs from 0 down to -46.9, and on the basis (2^-4, 2^-2)
    the shift cuts the bound from 55.7 to 39.1: s = 3 against 4
    unshifted.  G sends 1 to 0, so the exponential's first entry is
    e^-mu, and each l_n is divided by the stream's own value of it, which
    keeps l_0 = 1 exactly.  The stream's columns are e^-mu times
    exp(B)'s, so |mu| is clipped at 256 ln 2 to keep them far inside the
    float range, and the radius grows by what the clip moves mu.
    :attr:`PriceResult.shift` records mu.

    Every exponential is computed at one scaling power, chosen before any
    matrix is formed (see :class:`PricingConfig`), so the engine extends
    its caches by one block column per degree and never restarts.  A
    fixed power too small for a degree's rescaled generator stops the
    series with a ``ValueError`` before that degree instead of returning
    an inaccurate price.

    Neither the engine nor the loop keeps an exponential column here.
    The moment l_n reads only the columns at y^0 .. y^n, and column y^p of
    exp(B_n) is column y^p of exp(B_p) with zeros below it, since the
    engine never revises a block column once it is computed.  So the raw
    moment m_p = u^T exp(B_p - mu I) e_(y^p), with u = u(a y0, b v0), is
    one scalar, fixed from degree p on, and u is fixed too: the engine runs
    as a row stream on u (see :func:`~blockexpm.incremental._drive`),
    which holds the 2^s + 1 rows u^T F^k of the approximant F, caches no
    square and makes no product with one, and each degree returns the
    entries of u^T exp(B_n - mu I) at its new block; m_n is the first of
    them, since y^n leads the degree-n monomials.  Then
    l_n = c_n^T m_(0..n) / m_0 (:func:`hermite_moment`), where m_0 is the
    stream's e^-mu exactly, as u_0 = 1.  The rows round differently from
    the squarings, and the moments sum in another order than
    u^T (exp(B_n) h_n), so l_n equals the read-off of the whole
    exponential to rounding, not bit for bit.  The rows grow with 2^s, so
    past s of about 12 they cost more than cached squares would (see
    ``_drive``); the default s is 3 at n_max = 100 and 10 at 400.
    """
    basis = rescaled_basis(cfg.n_max)
    ea, eb = basis
    x0 = (math.ldexp(cfg.y0, ea), math.ldexp(cfg.v0, eb))
    muw, sigmaw = math.ldexp(cfg.muw, ea), math.ldexp(cfg.sigmaw, ea)
    spec = scaled_spec(jacobi_spec(cfg.params), basis)
    mu, radius = (cfg.tau * x for x in shifted_norm_bound(spec, cfg.n_max))
    # keep e^-mu in the float range; the radius grows by what the clip
    # moves mu
    clipped = min(max(mu, -_SHIFT_LIMIT), _SHIFT_LIMIT)
    mu, radius = clipped, radius + abs(mu - clipped)
    if cfg.scaling is None:
        s = scaling_power(radius)
    else:
        s = as_scaling_power(cfg.scaling)
    columns = generator_block_columns(spec, max_degree=cfg.n_max, scale=cfg.tau, shift=mu)
    runner = _drive(columns, s, row=basis_values(2, cfg.n_max, x0))

    t0 = time.perf_counter()
    price = 0.0
    rows: list[PriceLedgerRow] = []
    converged = False
    prev_small = False
    moments = np.empty(cfg.n_max + 1)  # u^T exp(B_p - mu I) e_(y^p), p = 0 .. n
    for entries, report in runner:
        n = report.step
        tm = time.perf_counter()
        moments[n] = entries[0]
        # exp(B) e_0 = e_0 and u_0 = 1, so moments[0] is the stream's own e^-mu
        l_n = hermite_moment(moments[: n + 1], muw, sigmaw) / float(moments[0])
        tq = time.perf_counter()
        moment_seconds = tq - tm
        f_n = fourier_coefficient(
            n, cfg.logstrike, cfg.muw, cfg.sigmaw, cfg.params.r, cfg.tau
        )
        quad_seconds = time.perf_counter() - tq
        term = l_n * f_n
        price += term
        rows.append(
            PriceLedgerRow(
                n=n,
                l_n=l_n,
                f_n=f_n,
                term=term,
                partial_price=price,
                cum_seconds=time.perf_counter() - t0,
                expm_seconds=report.seconds,
                quad_seconds=quad_seconds,
                moment_seconds=moment_seconds,
                cache_bytes=report.cache_bytes,
            )
        )
        small = cfg.eps > 0 and abs(term) <= cfg.eps * max(abs(price), _PRICE_FLOOR)
        if small and (n == 0 or prev_small):
            # n == 0 compares the sole term against itself, so only
            # eps >= 1 stops immediately; afterwards two consecutive
            # sub-threshold terms are required (see docstring).
            converged = True
            break
        prev_small = small
    if cfg.eps > 0 and not converged and abs(term) > abs(rows[0].term):
        raise ValueError(f"the Hermite series for the weight N({cfg.muw:g}, {cfg.sigmaw:g}^2)"
                         f" diverges: unconverged at degree n_max = {n}, where |term| ="
                         f" {abs(term):.3e} is above |f_0| = {abs(rows[0].term):.3e}")
    return PriceResult(
        price=price,
        terminal_degree=rows[-1].n,
        converged=converged,
        rows=tuple(rows),
        seconds=time.perf_counter() - t0,
        scaling=s,
        basis_scale=basis,
        shift=mu,
    )
