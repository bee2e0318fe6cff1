import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import expm_multiply

import blockexpm.incremental as incremental
import blockexpm.pricing as pricing
from blockexpm.blocks import matrix_from_columns
from blockexpm.dense import one_norm
from blockexpm.generators import (
    HestonParams,
    JacobiParams,
    basis_index,
    basis_size,
    basis_values,
    build_generator_matrix,
    generator_block_columns,
    heston_spec,
    jacobi_norm_bound,
    jacobi_spec,
    norm_bound,
    scaled_spec,
    shifted_norm_bound,
)
from blockexpm.incremental import IncrementalExpState, run_adaptive, run_fixed
from blockexpm.pade import expm_baseline, scaling_power
from blockexpm.pricing import (
    PricingConfig,
    conditional_moment,
    fourier_coefficient,
    hermite_moment,
    hermite_vector,
    hermite_y_coefficients,
    price_call,
    rescaled_basis,
    scaling_from_bound,
)

BENCH_PARAMS = JacobiParams(
    kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5, vmin=0.01, vmax=1.0
)


def bench_config(**overrides):
    kw = dict(
        params=BENCH_PARAMS,
        y0=0.0,
        v0=0.04,
        tau=0.25,
        logstrike=math.log(1.1),
        muw=0.0,
        sigmaw=0.5,
    )
    kw.update(overrides)
    return PricingConfig(**kw)


def norm_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def lognormal_call(logstrike, muw, sigmaw):
    # E[(e^Y - e^k)^+] for Y ~ N(muw, sigmaw^2)
    d1 = (muw + sigmaw**2 - logstrike) / sigmaw
    d2 = d1 - sigmaw
    return math.exp(muw + sigmaw**2 / 2) * norm_cdf(d1) - math.exp(logstrike) * norm_cdf(d2)


def scaled_read_off(cfg, basis=(0, 0)):
    # the state and weight a moment is read at on the basis of monomials
    # of (a y, b v), (log2 a, log2 b) = basis: (a y0, b v0), a muw, a sigmaw
    ea, eb = basis
    x0 = (math.ldexp(cfg.y0, ea), math.ldexp(cfg.v0, eb))
    return x0, math.ldexp(cfg.muw, ea), math.ldexp(cfg.sigmaw, ea)


def pure_y_columns(mat, n):
    # the columns at y^0 .. y^n of a degree-n matrix, each cut below the
    # rows of its own degree
    return [mat[: basis_size(2, p), basis_index((p, 0))] for p in range(n + 1)]


def normalized_hermite_e(x, n):
    # h_n(x) / sqrt(n!) from numpy's probabilists' Hermite series
    return np.polynomial.hermite_e.hermeval(x, [0.0] * n + [1.0]) / math.sqrt(math.factorial(n))


# -- Hermite polynomials -----------------------------------------------------


def test_hermite_y_coefficients_small():
    assert np.array_equal(hermite_y_coefficients(0, 0.3, 2.0), [1.0])
    mu, sg = 0.4, 1.5
    c1 = hermite_y_coefficients(1, mu, sg)
    assert c1 == pytest.approx([-mu / sg, 1 / sg], rel=1e-15)
    # h_3(x) = x^3 - 3x at x = 2y, normalized by sqrt(3!)
    c3 = hermite_y_coefficients(3, 0.0, 0.5)
    expect = np.array([0.0, -6.0, 0.0, 8.0]) / math.sqrt(6.0)
    assert np.max(np.abs(c3 - expect)) < 1e-14
    with pytest.raises(ValueError):
        hermite_y_coefficients(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        hermite_y_coefficients(2, 0.0, 0.0)


def test_hermite_y_coefficients_vs_numpy():
    # oracle: expand h_n in powers of x with numpy, then substitute
    # x = (y - mu) / sigma by polynomial composition
    mu, sg = 0.3, 0.7
    for n in range(16):
        cx = np.polynomial.hermite_e.herme2poly([0.0] * n + [1.0])
        comp = np.polynomial.Polynomial(cx)(np.polynomial.Polynomial([-mu / sg, 1 / sg]))
        oracle = np.zeros(n + 1)
        oracle[: len(comp.coef)] = comp.coef
        oracle /= math.sqrt(math.factorial(n))
        got = hermite_y_coefficients(n, mu, sg)
        assert got.shape == (n + 1,)
        assert np.max(np.abs(got - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_hermite_values_match_coefficients():
    mu, sg = -0.2, 0.8
    y = np.linspace(-2.5, 2.5, 11)
    for n in range(16):
        coeffs = hermite_y_coefficients(n, mu, sg)
        direct = np.polynomial.polynomial.polyval(y, coeffs)
        recur = normalized_hermite_e((y - mu) / sg, n)
        assert np.max(np.abs(direct - recur)) <= 1e-10 * max(1.0, np.max(np.abs(recur)))


def test_hermite_orthonormality():
    # the normalized family is orthonormal under N(mu, sg^2); 64-node
    # Gauss quadrature is exact through degree 127
    mu, sg = 0.2, 0.6
    x, w = np.polynomial.hermite_e.hermegauss(64)
    v = np.vstack(
        [np.polynomial.polynomial.polyval(mu + sg * x, hermite_y_coefficients(m, mu, sg))
         for m in range(16)]
    )
    gram = (v * w) @ v.T / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(gram - np.eye(16))) < 1e-12


def test_hermite_y_coefficients_past_factorial_overflow():
    # 171! overflows a float; the normalized recurrence never forms it.
    # At y = muw the polynomial is h_n(0) / sqrt(n!), which for even n is
    # (-1)^(n/2) sqrt(n!) / (2^(n/2) (n/2)!), and the leading coefficient
    # is 1 / (sigmaw^n sqrt(n!))
    n, sg = 200, 0.5
    coeffs = hermite_y_coefficients(n, 0.0, sg)
    assert coeffs.shape == (n + 1,) and np.all(np.isfinite(coeffs))
    log_h0 = 0.5 * math.lgamma(n + 1) - (n / 2) * math.log(2.0) - math.lgamma(n / 2 + 1)
    assert coeffs[0] == pytest.approx(math.exp(log_h0), rel=1e-12)
    log_lead = -n * math.log(sg) - 0.5 * math.lgamma(n + 1)
    assert coeffs[-1] == pytest.approx(math.exp(log_lead), rel=1e-12)
    # odd powers vanish exactly for a centered weight
    assert np.all(coeffs[1::2] == 0.0)


def test_hermite_vector_pure_y():
    n, mu, sg = 6, 0.1, 0.7
    vec = hermite_vector(n, mu, sg)
    coeffs = hermite_y_coefficients(n, mu, sg)
    assert vec.shape == (basis_size(2, n),)
    pure_y = {p * (p + 1) // 2 for p in range(n + 1)}
    for i, entry in enumerate(vec):
        if i in pure_y:
            assert entry == coeffs[[p for p in range(n + 1) if p * (p + 1) // 2 == i][0]]
        else:
            assert entry == 0.0  # exact zero on anything involving v


# -- payoff Fourier coefficients ---------------------------------------------


def test_fourier_zero_payoff():
    # strike 40 standard deviations out of the money: the Gaussian tail
    # underflows, and the coefficients are exact zeros
    mu, sg = 0.1, 0.4
    k = mu + 40.0 * sg
    for n in range(21):
        assert fourier_coefficient(n, k, mu, sg) == 0.0


def test_fourier_lognormal_closed_form():
    for logstrike, mu, sg in (
        (math.log(1.1), 0.0, 0.5),
        (0.0, 0.05, 0.3),
        (-0.4, -0.1, 0.9),
        (0.3, 0.2, 0.2),
    ):
        f0 = fourier_coefficient(0, logstrike, mu, sg)
        assert f0 == pytest.approx(lognormal_call(logstrike, mu, sg), rel=1e-11)


def test_fourier_discount_factor():
    base = fourier_coefficient(2, 0.1, 0.0, 0.5)
    disc = fourier_coefficient(2, 0.1, 0.0, 0.5, r=0.2, tau=0.5)
    assert disc == pytest.approx(math.exp(-0.1) * base, rel=1e-15)


def test_fourier_high_degree_converges():
    # the coefficients stay finite and decay deep into the series
    for n in (1, 5, 10, 20, 40, 60):
        f = fourier_coefficient(n, math.log(1.1), 0.0, 0.5)
        assert math.isfinite(f)
        if n >= 20:
            assert abs(f) < 1e-2


def _reference_fourier_coefficients(n_max, logstrike, muw, sigmaw, r, tau):
    # composite Gauss-Legendre quadrature, 32 nodes on each panel of width
    # 1/4 from the strike to 40 standard deviations, with h_n / sqrt(n!)
    # from numpy's hermite_e; returns f_0 .. f_n_max
    k = (logstrike - muw) / sigmaw
    edges = np.linspace(k, 40.0, int(math.ceil((40.0 - k) * 4)) + 1)
    t, w = np.polynomial.legendre.leggauss(32)
    half = 0.5 * np.diff(edges)[:, None]
    x = (0.5 * (edges[1:] + edges[:-1])[:, None] + half * t).ravel()
    weights = (half * w).ravel()
    payoff = np.exp(muw + sigmaw * x) - math.exp(logstrike)
    density = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    herm = np.polynomial.hermite_e.hermevander(x, n_max)
    norms = np.array([math.sqrt(math.factorial(m)) for m in range(n_max + 1)])
    return math.exp(-r * tau) * ((weights * payoff * density) @ herm) / norms


def test_fourier_matches_quadrature_reference():
    # closed form against an independent quadrature for degrees 0..100, on
    # criterion 9's inputs and on random weights, strikes and discounts
    cases = [(math.log(1.1), 0.0, 0.5, 0.0, 0.25)]
    rng = np.random.default_rng(2018)
    for _ in range(24):
        muw, sigmaw = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.1, 1.0))
        k = muw + float(rng.uniform(-3.0, 3.0)) * sigmaw
        cases.append((k, muw, sigmaw, float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.1, 2.0))))
    for case in cases:
        want = _reference_fourier_coefficients(100, *case)
        got = np.array([fourier_coefficient(n, *case) for n in range(101)])
        assert np.max(np.abs(got - want)) <= 1e-13, case


def test_fourier_validation():
    with pytest.raises(ValueError):
        fourier_coefficient(0, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError, match="nonnegative, got -1"):
        fourier_coefficient(-1, math.log(1.1), 0.0, 0.5)
    # a wide weight takes the coefficient out of the float range, as f_0
    # grows like e^(sigmaw^2 / 2): at sigmaw = 40 math.exp overflows, at 37.5
    # the recursion reaches inf
    with pytest.raises(ValueError, match=r"f_0 overflows .* sigmaw = 40\.0"):
        fourier_coefficient(0, 0.1, 0.0, 40.0)
    with pytest.raises(ValueError, match=r"f_5 overflows .* sigmaw = 37\.5"):
        fourier_coefficient(5, 0.1, 0.0, 37.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_payoff_and_hermite_inputs_are_named(bad):
    # a non-finite input is refused by name, not read as NaN or zero
    # coefficients, nor blamed on the weight as an overflow
    for name in ("muw", "sigmaw"):
        args = {"muw": 0.0, "sigmaw": 0.5, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            hermite_y_coefficients(3, **args)
    for name in ("logstrike", "muw", "sigmaw", "r", "tau"):
        args = {"logstrike": 0.0, "muw": 0.0, "sigmaw": 0.5, "r": 0.0, "tau": 0.5, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            fourier_coefficient(3, **args)


# -- conditional moments -----------------------------------------------------


def test_conditional_moment_constant():
    g, _ = build_generator_matrix(jacobi_spec(BENCH_PARAMS), 3)
    f = expm_baseline(0.7 * g)
    e0 = np.zeros(g.shape[0])
    e0[0] = 1.0
    assert conditional_moment(f, (0.3, 0.2), e0) == pytest.approx(1.0, abs=1e-13)


def test_conditional_moment_taylor_oracle():
    # small horizon: fourth-order Taylor expansion of the exponential
    tau = 0.01
    g, _ = build_generator_matrix(jacobi_spec(BENCH_PARAMS), 1)
    a = tau * g
    pvec = np.array([0.0, 0.0, 1.0])  # the polynomial v
    taylor = pvec.copy()
    power = pvec.copy()
    for k in (1, 2, 3, 4):
        power = a @ power / k
        taylor += power
    x0 = (0.0, 0.04)
    got = conditional_moment(expm_baseline(a), x0, pvec)
    assert got == pytest.approx(float(basis_values(2, 1, x0) @ taylor), abs=1e-8)


def test_conditional_moment_mean_reversion():
    # exact first moments of the state: v relaxes to theta exponentially,
    # y integrates r - v/2
    p = JacobiParams(kappa=0.8, theta=0.09, sigma=0.3, r=0.03, rho=-0.4, vmin=0.002, vmax=1.2)
    y0, v0, tau = -0.2, 0.2, 0.6
    g, _ = build_generator_matrix(jacobi_spec(p), 1)
    f = expm_baseline(tau * g)
    ev = p.theta + (v0 - p.theta) * math.exp(-p.kappa * tau)
    ey = y0 + (p.r - p.theta / 2) * tau - (v0 - p.theta) * (
        1 - math.exp(-p.kappa * tau)
    ) / (2 * p.kappa)
    assert conditional_moment(f, (y0, v0), np.array([0.0, 0.0, 1.0])) == pytest.approx(ev, rel=1e-12)
    assert conditional_moment(f, (y0, v0), np.array([0.0, 1.0, 0.0])) == pytest.approx(ey, rel=1e-12)


def test_conditional_moment_block_matrix_input():
    spec = jacobi_spec(BENCH_PARAMS)
    last = None
    for f, _ in run_fixed(generator_block_columns(spec, max_degree=2, scale=0.25), s=3):
        last = f
    pvec = np.arange(6.0)
    x0 = (0.1, 0.3)
    assert conditional_moment(last, x0, pvec) == conditional_moment(last.data, x0, pvec)


def test_conditional_moment_matches_the_dense_formula():
    # only the columns where pvec is nonzero are read; the dense formula
    # applies the whole matrix
    rng = np.random.default_rng(193)
    for n in (0, 3, 20, 60):
        size = basis_size(2, n)
        mat = rng.standard_normal((size, size))
        x0 = tuple(float(x) for x in rng.uniform(-1.0, 1.0, 2))
        row = basis_values(2, n, x0)
        sparse = np.zeros(size)
        sparse[rng.choice(size, min(size, 5), replace=False)] = rng.standard_normal(min(size, 5))
        hermite = hermite_vector(n, float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.2, 1.0)))
        for pvec in (hermite, sparse, rng.standard_normal(size)):
            want = float(row @ (mat @ pvec))
            # relative to the sum of the absolute terms, which bounds the
            # rounding of either order of summation
            scale = float(np.abs(row) @ (np.abs(mat) @ np.abs(pvec)))
            assert abs(conditional_moment(mat, x0, pvec) - want) <= 1e-13 * scale


def test_conditional_moment_validation():
    with pytest.raises(ValueError):
        conditional_moment(np.eye(3), (0.0, 0.1), np.zeros(2))
    with pytest.raises(ValueError):
        conditional_moment(np.eye(4), (0.0, 0.1), np.zeros(4))  # 4 is not a graded size
    with pytest.raises(ValueError):
        conditional_moment(np.ones((3, 2)), (0.0, 0.1), np.zeros(3))
    # an empty state has a one-element basis at every degree, so no
    # degree search could end
    with pytest.raises(ValueError, match="at least one coordinate"):
        conditional_moment(np.eye(3), (), np.ones(3))


# -- Hermite moments ---------------------------------------------------------


def test_hermite_moment_degree_zero():
    assert hermite_moment([np.ones(1)], *scaled_read_off(bench_config())) == 1.0


def test_hermite_moment_identity_exponential():
    # exp = I reduces the moment to evaluating the polynomial at the state
    cfg = bench_config(y0=0.3, muw=0.1, sigmaw=0.7)
    n = 9
    got = hermite_moment(pure_y_columns(np.eye(basis_size(2, n)), n), *scaled_read_off(cfg))
    expect = normalized_hermite_e(np.array([(0.3 - 0.1) / 0.7]), n)[0]
    assert got == pytest.approx(expect, rel=1e-12)


def test_hermite_moment_matches_baseline():
    # one adaptive sweep to degree 40, restarts included, against
    # from-scratch exponentials and against every moment of the default
    # price's ledger, which runs at one scaling power and never restarts
    cfg = bench_config()
    x0, muw, sigmaw = scaled_read_off(cfg)
    spec = jacobi_spec(BENCH_PARAMS)
    ledger = price_call(bench_config(eps=0.0, n_max=40)).rows
    moments = {}
    restarts = 0
    for f, rep in run_adaptive(generator_block_columns(spec, max_degree=40, scale=cfg.tau)):
        n = rep.step
        restarts += rep.restart
        l_inc = hermite_moment(pure_y_columns(f.data, n), x0, muw, sigmaw)
        assert abs(l_inc - ledger[n].l_n) <= 1e-11 * abs(ledger[n].l_n), f"degree {n}"
        if n <= 10 or n % 5 == 0:
            moments[n] = l_inc
    assert n == 40 and restarts >= 1
    for n, l_inc in moments.items():
        g, _ = build_generator_matrix(spec, n)
        l_base = conditional_moment(expm_baseline(cfg.tau * g), x0, hermite_vector(n, muw, sigmaw))
        tol = 1e-12 if n <= 10 else 1e-11
        assert abs(l_inc - l_base) <= tol * abs(l_base), f"degree {n}"


def test_hermite_moment_refuses_overflowing_coefficients():
    # h_200 of y / 0.001 has coefficients near 1000^200 / sqrt(200!): past
    # the float range, so the read-off raises instead of returning nan
    columns = [np.zeros(basis_size(2, p)) for p in range(201)]
    with pytest.raises(ValueError, match="degree-200 Hermite coefficients overflow"):
        hermite_moment(columns, (0.0, 0.04), 0.0, 1e-3)


def test_hermite_moments_match_a_sparse_expm_action():
    # independent of the engine: by nesting, w = exp(tau G_40^T) e_40(x0)
    # gives l_n = w[:d_n] . h_n for every n <= 40, and scipy's
    # expm_multiply (Al-Mohy and Higham) computes w from the sparse matrix
    cfg = bench_config(eps=0.0, n_max=40)
    rows = price_call(cfg).rows
    g, _ = build_generator_matrix(jacobi_spec(BENCH_PARAMS), 40)
    w = expm_multiply(csr_matrix(cfg.tau * g.T), basis_values(2, 40, (cfg.y0, cfg.v0)))
    assert len(rows) == 41
    for n, row in enumerate(rows):
        terms = w[: basis_size(2, n)] * hermite_vector(n, cfg.muw, cfg.sigmaw)
        assert abs(row.l_n - terms.sum()) <= 1e-12 * np.abs(terms).sum(), f"degree {n}"


# -- the pricing loop --------------------------------------------------------


def test_price_call_immediate_stop():
    cfg = bench_config(eps=1e9)
    res = price_call(cfg)
    assert res.converged
    assert res.terminal_degree == 0
    assert len(res.rows) == 1
    assert res.rows[0].l_n == 1.0
    f0 = fourier_coefficient(0, cfg.logstrike, cfg.muw, cfg.sigmaw, cfg.params.r, cfg.tau)
    assert res.price == f0


def test_price_call_runs_to_nmax():
    res = price_call(bench_config(eps=0.0, n_max=6))
    assert not res.converged
    assert res.terminal_degree == 6
    assert len(res.rows) == 7


def test_a_diverging_series_raises():
    # a long horizon makes the weight N(0, 0.5^2) far narrower than the
    # log-price law, and the series diverges: at n_max = 20 its last term
    # is 6.1 times f_0 at tau = 2 and 5.6e3 times at tau = 5
    diverging = r"N\(0, 0.5\^2\) diverges: unconverged at degree n_max = 20, where \|term\|"
    for tau, kappa, sigma in ((2.0, 1.0, 0.5), (5.0, 3.0, 1.0)):
        params = dataclasses.replace(BENCH_PARAMS, kappa=kappa, sigma=sigma)
        with pytest.raises(ValueError, match=diverging):
            price_call(bench_config(params=params, tau=tau, n_max=20))
    params = dataclasses.replace(BENCH_PARAMS, kappa=1.0, sigma=0.5)
    # eps = 0 asks for the raw series, which is returned
    res = price_call(bench_config(params=params, tau=2.0, eps=0.0, n_max=20))
    assert not res.converged
    assert abs(res.rows[-1].term) > abs(res.rows[0].term)
    # the test reads only where the series stops: at n_max = 12 the terms
    # have not outgrown f_0 yet, and the partial sum is returned
    res = price_call(bench_config(params=params, tau=2.0, n_max=12))
    assert not res.converged
    assert abs(res.rows[-1].term) < abs(res.rows[0].term)


def test_price_call_structure():
    eps = 0.05
    res = price_call(bench_config(eps=eps))
    assert res.converged
    assert 10 <= res.terminal_degree <= 35
    assert len(res.rows) == res.terminal_degree + 1
    assert res.rows[0].l_n == 1.0
    # partial prices are the prefix sums of the terms
    terms = np.array([row.term for row in res.rows])
    partials = np.array([row.partial_price for row in res.rows])
    assert np.array_equal(partials, np.cumsum(terms))
    assert all(row.term == row.l_n * row.f_n for row in res.rows)
    # wall clock only moves forward
    secs = [row.cum_seconds for row in res.rows]
    assert all(b >= a for a, b in zip(secs, secs[1:]))
    assert res.seconds >= secs[-1]
    # each row's exponential and quadrature seconds lie inside the wall clock
    assert all(row.expm_seconds > 0.0 and row.quad_seconds > 0.0 for row in res.rows)
    assert sum(row.expm_seconds + row.quad_seconds for row in res.rows) <= res.seconds
    # termination needed two consecutive sub-threshold terms
    for row in res.rows[-2:]:
        assert abs(row.term) <= eps * abs(row.partial_price)
    assert res.price == res.rows[-1].partial_price


def test_price_scaling_strategy_invariance():
    cfg_a = bench_config(eps=0.05)
    res_a = price_call(cfg_a)
    s = scaling_from_bound(BENCH_PARAMS, cfg_a.tau, res_a.terminal_degree)
    res_f = price_call(bench_config(eps=0.05, scaling=s))
    assert res_f.terminal_degree == res_a.terminal_degree
    assert abs(res_a.price - res_f.price) <= 1e-10


def test_pricing_config_validation():
    with pytest.raises(ValueError):
        bench_config(tau=0.0)
    with pytest.raises(ValueError):
        bench_config(sigmaw=-0.5)
    with pytest.raises(ValueError):
        bench_config(eps=-1e-3)
    with pytest.raises(ValueError):
        bench_config(n_max=-1)
    with pytest.raises(ValueError):
        bench_config(v0=2.0)  # above vmax
    # a non-finite input is one error that names it, before any other check
    # reads it: nan would otherwise pass every comparison
    for name in ("y0", "v0", "tau", "logstrike", "muw", "sigmaw", "eps"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                bench_config(**{name: value})
    # a float scaling power is refused, not truncated
    for scaling in (7.9, 7.0, -1):
        with pytest.raises(ValueError, match="nonnegative integer"):
            bench_config(scaling=scaling)
    assert bench_config(scaling=np.int64(7)).scaling == 7
    assert bench_config(scaling=7).scaling == 7
    with pytest.raises(ValueError, match="scaling power 1023 is above 1022"):
        bench_config(scaling=1023)
    assert bench_config(scaling=1022).scaling == 1022
    # so is a degree cap that is not an integer, before price_call reads it
    for n_max in (2.5, 30.0, "30", None):
        with pytest.raises(ValueError, match="^n_max must be a nonnegative integer"):
            bench_config(n_max=n_max)
    assert bench_config(n_max=np.int64(30)).n_max == 30


def test_scaling_from_bound():
    for n in (10, 60, 100):
        expect = scaling_power(0.25 * jacobi_norm_bound(BENCH_PARAMS, n))
        assert scaling_from_bound(BENCH_PARAMS, 0.25, n) == expect
    assert scaling_from_bound(BENCH_PARAMS, 0.25, 60) == 7
    assert scaling_from_bound(BENCH_PARAMS, 0.25, 100) == 9


def _random_jacobi_params(rng):
    vmin = rng.uniform(0.0, 0.2)
    vmax = vmin + rng.uniform(0.05, 2.0)
    return JacobiParams(
        kappa=rng.uniform(0.0, 3.0), theta=rng.uniform(vmin, vmax),
        sigma=rng.uniform(0.05, 1.0), r=rng.uniform(0.0, 0.1),
        rho=rng.uniform(-1.0, 1.0), vmin=vmin, vmax=vmax,
    )


def test_norm_bound_covers_fixed_scaling_prices_to_degree_100():
    # every default price runs at the bound's scaling, so it must never hit
    # the driver's norm check: the running 1-norm of tau G_n stays within
    # tau times the bound, for criterion 9's parameters to degree 100 and
    # for random valid parameters and horizons to degree 20
    rng = np.random.default_rng(12)
    cases = [(BENCH_PARAMS, 0.25, 100)]
    cases += [(_random_jacobi_params(rng), rng.uniform(0.05, 2.0), 20) for _ in range(10)]
    for params, tau, max_degree in cases:
        columns = generator_block_columns(jacobi_spec(params), max_degree=max_degree, scale=tau)
        norm = 0.0
        for n, col in enumerate(columns):
            col_norms = np.abs(col.top).sum(axis=0) + np.abs(col.diag).sum(axis=0)
            norm = max(norm, float(col_norms.max()))
            assert norm <= tau * jacobi_norm_bound(params, n), (params, tau, n)
            assert scaling_power(norm) <= scaling_from_bound(params, tau, n), (params, tau, n)
        assert n == max_degree


def _random_heston_params(rng):
    return HestonParams(
        kappa=rng.uniform(0.0, 3.0), theta=rng.uniform(0.0, 0.5),
        sigma=rng.uniform(0.05, 1.0), r=rng.uniform(0.0, 0.1), rho=rng.uniform(-1.0, 1.0),
    )


def _shifted_bound(params, tau, n_max, basis=None):
    # the shift mu and radius of tau G on the pricing basis of n_max
    spec = scaled_spec(jacobi_spec(params), rescaled_basis(n_max) if basis is None else basis)
    mu, radius = shifted_norm_bound(spec, n_max)
    return tau * mu, tau * radius


def _rescaled_bound_scaling(params, tau, n_max):
    return scaling_power(_shifted_bound(params, tau, n_max)[1])


def test_default_price_runs_at_the_bound_scaling():
    # scaling=None is the shifted bound's power at n_max, with no restart:
    # every ledger row and the price are bit-identical to an explicit run
    # at it, which takes the same shift
    res = price_call(bench_config(eps=0.05))
    assert res.scaling == _rescaled_bound_scaling(BENCH_PARAMS, 0.25, 100) == 3
    assert res.shift == _shifted_bound(BENCH_PARAMS, 0.25, 100)[0]
    fixed = price_call(bench_config(eps=0.05, scaling=res.scaling))
    assert fixed.scaling == res.scaling
    assert fixed.basis_scale == res.basis_scale == rescaled_basis(100)
    assert fixed.shift == res.shift
    assert [row.l_n for row in res.rows] == [row.l_n for row in fixed.rows]
    assert res.price == fixed.price
    assert price_call(bench_config(eps=0.05, n_max=30)).scaling == _rescaled_bound_scaling(
        BENCH_PARAMS, 0.25, 30
    )


def test_default_scaling_on_the_rescaled_basis():
    # the default n_max of 100 prices on the monomials of (y / 16, v / 4),
    # where the shifted bound needs s = 3 against the unscaled bound's 9;
    # the basis and the shift each need the other: unshifted, that basis
    # needs 4, and shifted, the old basis of (y / 8, v / 4) needs 4 too
    assert rescaled_basis(100) == (-4, -2)
    mu, radius = _shifted_bound(BENCH_PARAMS, 0.25, 100)
    assert scaling_power(radius) == 3
    assert mu == pytest.approx(-16.62, abs=0.01) and radius == pytest.approx(39.08, abs=0.01)
    assert scaling_from_bound(BENCH_PARAMS, 0.25, 100) == 9
    bench = scaled_spec(jacobi_spec(BENCH_PARAMS), (-4, -2))
    assert scaling_power(0.25 * norm_bound(bench, 100)) == 4
    assert scaling_power(_shifted_bound(BENCH_PARAMS, 0.25, 100, (-3, -2))[1]) == 4


def _rescaled_norms(spec, tau, max_degree, shift=0.0):
    # exact 1-norms of tau G_n - shift I for n = 0..max_degree; the
    # degree-max_degree matrix nests every smaller one
    cols = generator_block_columns(spec, max_degree=max_degree, scale=tau, shift=shift)
    b = matrix_from_columns(cols).data
    return [one_norm(b[: basis_size(2, n), : basis_size(2, n)]) for n in range(max_degree + 1)]


def test_rescaled_norm_bound_dominates():
    # as criterion 6 does for the closed-form bounds: 20 random valid
    # Jacobi and 20 Heston draws to degree 30 on the pricing basis and on
    # two others, and criterion 9's parameters to degree 100, where the
    # bound is the exact norm
    rng = np.random.default_rng(1606)
    bench = jacobi_spec(BENCH_PARAMS)
    cases = [(bench, 100, rescaled_basis(100))]
    for _ in range(20):
        for spec in (jacobi_spec(_random_jacobi_params(rng)),
                     heston_spec(_random_heston_params(rng))):
            cases += [(spec, 30, scale) for scale in (rescaled_basis(30), (-1, 0), (0, 0))]
    for spec, max_degree, scale in cases:
        scaled = scaled_spec(spec, scale)
        for n, norm in enumerate(_rescaled_norms(scaled, 1.0, max_degree)):
            assert norm <= norm_bound(scaled, n) * (1 + 1e-14), (spec, scale, n)
    for scale, pin in (((-3, -2), 334.375), ((0, 0), 5000.0)):
        bound = norm_bound(scaled_spec(bench, scale), 100)
        assert bound == pytest.approx(pin, rel=1e-14)
        assert _rescaled_norms(scaled_spec(bench, scale), 1.0, 100)[100] == pytest.approx(
            bound, rel=1e-14
        )


def test_shifted_norm_bound_dominates():
    # as test_rescaled_norm_bound_dominates does for norm_bound: 10 random
    # Jacobi and 10 Heston draws on four bases, where (mu, radius) at degree
    # n bounds ||tau G_j - mu I||_1 for every j <= n; the bound reads the
    # columns' exact entries, so at degree n it is the norm, and no other
    # shift does better
    rng = np.random.default_rng(2606)
    for _ in range(10):
        for spec in (jacobi_spec(_random_jacobi_params(rng)),
                     heston_spec(_random_heston_params(rng))):
            tau = rng.uniform(0.05, 2.0)
            for scale in ((0, 0), (-1, 0), (-4, -2), (-5, -3)):
                scaled = scaled_spec(spec, scale)
                for n in (0, 7, 24):
                    mu, radius = (tau * x for x in shifted_norm_bound(scaled, n))
                    norms = _rescaled_norms(scaled, tau, n, shift=mu)
                    assert max(norms) <= radius * (1 + 1e-14), (spec, scale, n)
                    assert max(norms) == pytest.approx(radius, rel=1e-13), (spec, scale, n)
                    for other in (mu - 0.5, mu + 0.5):
                        assert _rescaled_norms(scaled, tau, n, shift=other)[n] >= norms[n]
    with pytest.raises(ValueError):
        shifted_norm_bound(jacobi_spec(BENCH_PARAMS), -1)


def test_rescaled_basis_rule():
    # a = 2^ea is the smallest power of two >= 2^-4 with a^n_max >= 2^-600,
    # and b = 4a capped at 1
    for n_max in range(0, 1001):
        ea, eb = rescaled_basis(n_max)
        assert -4 <= ea <= 0 and n_max * ea >= -600, n_max
        assert ea == -4 or n_max * (ea - 1) < -600, n_max
        assert eb == min(0, ea + 2), n_max
    assert rescaled_basis(100) == rescaled_basis(150) == (-4, -2)
    assert rescaled_basis(400) == (-1, 0)
    assert rescaled_basis(601) == (0, 0)


def test_price_at_a_generous_n_max_backs_off_the_basis():
    # n_max = 400 backs off to the monomials of (y / 2, v) at s = 10: the
    # series still stops at degree 60, at the default n_max's price
    wide = price_call(bench_config(n_max=400))
    narrow = price_call(bench_config())
    assert wide.basis_scale == (-1, 0) and narrow.basis_scale == (-4, -2)
    assert (wide.scaling, narrow.scaling) == (10, 3)
    assert wide.terminal_degree == narrow.terminal_degree == 60
    assert abs(wide.price - narrow.price) <= 1e-10


def test_price_at_too_small_a_scaling_raises_before_the_degree():
    # the driver's norm check guards the shifted, rescaled generator: at
    # s = 1 the series stops with one error at the first degree whose
    # shifted norm passes THETA_13 * 2, before that degree is exponentiated
    mu, radius = _shifted_bound(BENCH_PARAMS, 0.25, 60)
    assert scaling_power(radius) == 2
    spec = scaled_spec(jacobi_spec(BENCH_PARAMS), rescaled_basis(60))
    norms = _rescaled_norms(spec, 0.25, 60, shift=mu)
    first = next(n for n, norm in enumerate(norms) if scaling_power(norm) > 1)
    with pytest.raises(ValueError, match=f"block column {first} .* s = 1 is too small"):
        price_call(bench_config(eps=0.0, n_max=60, scaling=1))


def test_price_clips_a_shift_far_outside_the_float_range():
    # a long horizon centres the spectrum of tau G_40 near -700: the shifted
    # stream's columns, e^-mu times the exponential's, would overflow, so mu
    # is clipped to -256 ln 2 and the bound grows by what the clip moved
    cfg = bench_config(eps=0.0, n_max=40, tau=20.0)
    mu, radius = _shifted_bound(BENCH_PARAMS, 20.0, 40)
    assert mu < -pricing._SHIFT_LIMIT
    res = price_call(cfg)
    assert res.shift == -pricing._SHIFT_LIMIT
    assert res.scaling == scaling_power(radius + res.shift - mu)
    g, _ = build_generator_matrix(jacobi_spec(BENCH_PARAMS), 40)
    w = expm_multiply(csr_matrix(cfg.tau * g.T), basis_values(2, 40, (cfg.y0, cfg.v0)))
    for n, row in enumerate(res.rows):
        terms = w[: basis_size(2, n)] * hermite_vector(n, cfg.muw, cfg.sigmaw)
        assert abs(row.l_n - terms.sum()) <= 1e-12 * np.abs(terms).sum(), f"degree {n}"


def test_rescaled_read_off_matches_the_unscaled_one():
    # the moment read off exp(D^-1 tau G D) at (a y0, b v0) against the
    # Hermite polynomial of y / a is the moment read off exp(tau G): the
    # read-off price_call makes
    cfg = bench_config(y0=0.1, v0=0.3, muw=0.05, sigmaw=0.4)
    scale = (-3, -2)
    spec = jacobi_spec(BENCH_PARAMS)
    for n in (0, 1, 5, 12):
        g = matrix_from_columns(generator_block_columns(spec, max_degree=n, scale=cfg.tau)).data
        b = matrix_from_columns(
            generator_block_columns(scaled_spec(spec, scale), max_degree=n, scale=cfg.tau)
        ).data
        x0, muw, sigmaw = scaled_read_off(cfg)
        want = conditional_moment(expm_baseline(g), x0, hermite_vector(n, muw, sigmaw))
        x0, muw, sigmaw = scaled_read_off(cfg, scale)
        got = conditional_moment(expm_baseline(b), x0, hermite_vector(n, muw, sigmaw))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), n
    # D^-1 h_n is exact: the coefficient of y^p is scaled by 2^(3p)
    h = hermite_vector(12, cfg.muw, cfg.sigmaw)
    h_scaled = hermite_vector(12, cfg.muw / 8, cfg.sigmaw / 8)
    pure_y = [p * (p + 1) // 2 for p in range(13)]
    assert np.array_equal(h_scaled[pure_y], np.ldexp(h[pure_y], 3 * np.arange(13)))


def test_tracer_targets_are_looked_up_at_call_time(monkeypatch):
    # perfbench's tracer swaps these attributes for timing wrappers: each
    # must sit where it looks, and the pricing path must reach the pricing
    # module's globals at call time, not bind them at import
    for owner, attr in (
        (incremental, "extend_square"), (incremental, "lu_solve"), (incremental, "lu_factor"),
        (IncrementalExpState, "step"), (IncrementalExpState, "__init__"),
        (pricing, "fourier_coefficient"), (pricing, "hermite_moment"),
        (pricing, "generator_block_columns"),
    ):
        assert callable(owner.__dict__[attr]), attr
    assert isinstance(IncrementalExpState.__dict__["exponential"], property)
    calls = {}
    for attr in ("generator_block_columns", "hermite_moment", "fourier_coefficient"):
        def counting(*args, _fn=getattr(pricing, attr), _attr=attr, **kwargs):
            calls[_attr] = calls.get(_attr, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(pricing, attr, counting)
    price_call(bench_config(eps=0.0, n_max=3))
    assert calls == {"generator_block_columns": 1, "hermite_moment": 4, "fourier_coefficient": 4}


def _ledgers_off_stages(cfgs):
    """price_call's series for each of ``cfgs``, which differ only in
    their state, read by conditional_moment off one pass of whole
    run_fixed stages of the shifted generator, each moment divided by the
    stage's e^-mu: per config the rows (n, l_n, f_n, term,
    partial_price), then the price, s, terminal degree, basis and shift."""
    cfg = cfgs[0]
    basis = rescaled_basis(cfg.n_max)
    spec = scaled_spec(jacobi_spec(cfg.params), basis)
    mu, radius = _shifted_bound(cfg.params, cfg.tau, cfg.n_max)
    s = scaling_power(radius)
    columns = generator_block_columns(spec, max_degree=cfg.n_max, scale=cfg.tau, shift=mu)
    series = {k: ([], 0.0, False) for k in range(len(cfgs))}  # rows, price, prev_small
    done = {}
    for f, report in run_fixed(columns, s=s):
        n = report.step
        f_n = fourier_coefficient(n, cfg.logstrike, cfg.muw, cfg.sigmaw, cfg.params.r, cfg.tau)
        for k, (rows, price, prev_small) in list(series.items()):
            x0, muw, sigmaw = scaled_read_off(cfgs[k], basis)
            l_n = conditional_moment(f, x0, hermite_vector(n, muw, sigmaw)) / f.data[0, 0]
            price += l_n * f_n
            rows.append((n, l_n, f_n, l_n * f_n, price))
            small = cfg.eps > 0 and abs(l_n * f_n) <= cfg.eps * max(abs(price), 1e-300)
            if small and (n == 0 or prev_small):
                done[k] = (rows, price, s, n, basis, mu)
                del series[k]
            else:
                series[k] = (rows, price, small)
        if not series:
            break
    for k, (rows, price, _) in series.items():
        done[k] = (rows, price, s, n, basis, mu)
    return [done[k] for k in range(len(cfgs))]


# price_call forms the kept column of the last squares by repeated
# one-column products, which round differently from the stages' wide
# squarings.  Over the cases below a moment deviated from the stages' by
# at most 3.6e-15 = 16 eps times the series' largest |l_m| on the
# unshifted stream, 1.6 eps on the shifted one with the last square alone
# on the column, and 1.5 eps with the last t = min(s, 3) as products with
# square s - t, a term or partial sum by less (1 and 2 BLAS threads,
# OpenBLAS); four times 16 eps bounds them all.
_LEDGER_TOL = 64 * np.finfo(float).eps


@pytest.mark.parametrize("eps, n_max", [(0.0, 30), (1e-3, 60), (1e-3, 150)])
def test_price_ledger_equals_the_read_off_of_whole_stages(eps, n_max):
    # the kept pure-y columns give every moment, term and partial sum as
    # the whole exponential does, to the rounding of the one-column
    # products, and one engine pass serves any state: a second state's
    # ledger is read off the same stages
    cfgs = [bench_config(eps=eps, n_max=n_max), bench_config(eps=eps, n_max=n_max, y0=0.1, v0=0.3)]
    ledgers = _ledgers_off_stages(cfgs)
    for cfg, (rows, price, s, terminal, basis, mu) in zip(cfgs, ledgers):
        res = price_call(cfg)
        assert [(r.n, r.f_n) for r in res.rows] == [(n, f_n) for n, _, f_n, _, _ in rows]
        tol = _LEDGER_TOL * max(abs(l_n) for _, l_n, _, _, _ in rows)
        for r, (_, l_n, _, term, partial) in zip(res.rows, rows):
            assert abs(r.l_n - l_n) <= tol
            assert abs(r.term - term) <= tol
            assert abs(r.partial_price - partial) <= tol
        assert abs(res.price - price) <= tol
        assert (res.scaling, res.terminal_degree, res.basis_scale, res.shift) == (
            s, terminal, basis, mu)
    assert ledgers[0][3] == (30 if eps == 0 else 60)


def test_pricing_state_holds_only_its_chunked_caches(monkeypatch):
    # no d x d array on the pricing path: each ledger row's cache_bytes is
    # the chunks and the zero-row profile that its step left held
    held = []
    states = []
    step = IncrementalExpState.step

    def recording_step(state, col):
        out = step(state, col)
        caches = [state._gt, *state._squares]
        held.append(sum(c.nbytes for c in caches) + state._lead.nbytes)
        states.append(state)
        return out

    monkeypatch.setattr(IncrementalExpState, "step", recording_step)
    res = price_call(bench_config(eps=0.0, n_max=25))
    assert [r.cache_bytes for r in res.rows] == held
    assert len({id(state) for state in states}) == 1
    # no exponential buffer, and no array beside the caches: each new
    # block column of the exponential leaves the state as step's return
    assert states[0]._exp is None
    assert [k for k, v in vars(states[0]).items() if isinstance(v, (np.ndarray, tuple))] == [
        "_lead"]
    assert all(r.moment_seconds >= 0 for r in res.rows)


def test_pure_y_columns_read_off_as_the_whole_exponential():
    # hermite_moment on the kept columns, each cut at its own degree's
    # rows, equals the read-off of the whole matrix, also with zero Hermite
    # coefficients (muw = 0 leaves every other one zero) and a shifted
    # weight
    n = 12
    f = expm_baseline(0.25 * build_generator_matrix(jacobi_spec(BENCH_PARAMS), n)[0])
    kept = pure_y_columns(f, n)
    for cfg in (bench_config(), bench_config(muw=0.3, y0=0.1)):
        for basis in ((0, 0), (-3, -2)):
            x0, muw, sigmaw = scaled_read_off(cfg, basis)
            assert hermite_moment(kept, x0, muw, sigmaw) == conditional_moment(
                f, x0, hermite_vector(n, muw, sigmaw))
