import dataclasses
import itertools
import math

import numpy as np
import pytest

from blockexpm.blocks import matrix_from_columns
from blockexpm.dense import one_norm
from blockexpm.generators import (
    HestonParams,
    JacobiParams,
    Polynomial,
    PolynomialOperatorSpec,
    apply_generator,
    basis_index,
    basis_size,
    basis_values,
    build_generator_matrix,
    degree_monomials,
    generator_block_columns,
    heston_norm_bound,
    heston_spec,
    jacobi_norm_bound,
    jacobi_spec,
    norm_bound,
    scaled_spec,
)
from blockexpm.generators import _stencil

BENCH_JACOBI = JacobiParams(
    kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5, vmin=0.01, vmax=1.0
)


def random_jacobi(rng):
    vmin = float(rng.uniform(0.005, 0.1))
    vmax = vmin + float(rng.uniform(0.1, 2.0))
    return JacobiParams(
        kappa=float(rng.uniform(0.05, 3.0)),
        theta=float(rng.uniform(vmin, vmax)),
        sigma=float(rng.uniform(0.05, 1.5)),
        r=float(rng.uniform(0.0, 0.1)),
        rho=float(rng.uniform(-1.0, 1.0)),
        vmin=vmin,
        vmax=vmax,
    )


def random_heston(rng):
    return HestonParams(
        kappa=float(rng.uniform(0.05, 3.0)),
        theta=float(rng.uniform(0.0, 0.5)),
        sigma=float(rng.uniform(0.05, 1.5)),
        r=float(rng.uniform(0.0, 0.1)),
        rho=float(rng.uniform(-1.0, 1.0)),
    )


def jacobi_degree2_reference(p):
    """Degree-2 Jacobi generator matrix written out entry by entry.

    Basis order 1, y, v, y^2, yv, v^2; entry (i, j) is the coefficient of
    basis element i in the image of basis element j.
    """
    s = (math.sqrt(p.vmax) - math.sqrt(p.vmin)) ** 2
    k, t, sg, r, rho = p.kappa, p.theta, p.sigma, p.r, p.rho
    return np.array(
        [
            [0, r, k * t, 0, -rho * sg * p.vmax * p.vmin / s, -sg**2 * p.vmax * p.vmin / s],
            [0, 0, 0, 2 * r, k * t, 0],
            [0, -0.5, -k, 1, r + rho * sg * (p.vmax + p.vmin) / s, 2 * k * t + sg**2 * (p.vmax + p.vmin) / s],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, -1, -k, 0],
            [0, 0, 0, 0, -0.5 - rho * sg / s, -2 * k - sg**2 / s],
        ]
    )


def heston_degree2_reference(p):
    """Degree-2 Heston generator matrix, same layout as the Jacobi one.

    The cross diffusion rho sigma v has degree 1, so unlike the Jacobi
    case it feeds only the v row, never the v^2 row.
    """
    k, t, sg, r, rho = p.kappa, p.theta, p.sigma, p.r, p.rho
    return np.array(
        [
            [0, r, k * t, 0, 0, 0],
            [0, 0, 0, 2 * r, k * t, 0],
            [0, -0.5, -k, 1, r + rho * sg, 2 * k * t + sg**2],
            [0, 0, 0, 0, 0, 0],
            [0, 0, 0, -1, -k, 0],
            [0, 0, 0, 0, -0.5, -2 * k],
        ]
    )


# -- Polynomial --------------------------------------------------------------


def test_polynomial_basics():
    p = Polynomial(2, {(1, 0): 2.0, (0, 1): -3.0})
    assert p.dim == 2
    assert p.degree == 1
    z = Polynomial(3)
    assert z.terms == {} and z.degree == -1
    # zero coefficients are dropped
    assert Polynomial(2, {(0, 0): 0.0}).terms == {}
    assert Polynomial.monomial((2, 1), 5.0).terms == {(2, 1): 5.0}


def test_polynomial_validation():
    with pytest.raises(ValueError):
        Polynomial(0)
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): 1.0})
    with pytest.raises(ValueError):
        Polynomial(1, {(0,): math.inf})
    with pytest.raises(AttributeError):
        Polynomial(1).dim = 2


def test_polynomial_terms_are_read_only():
    p = Polynomial(2, {(1, 0): 2.0})
    assert repr(p) == "Polynomial(dim=2, terms={(1, 0): 2.0})"
    spec = jacobi_spec(BENCH_JACOBI)
    with pytest.raises(TypeError):
        spec.b[0].terms[(0, 3)] = 1.0
    assert spec.b[0].degree == 1


# -- graded basis ------------------------------------------------------------


def test_degree_monomials_order():
    assert degree_monomials(2, 0) == ((0, 0),)
    assert degree_monomials(2, 1) == ((1, 0), (0, 1))
    assert degree_monomials(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert degree_monomials(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )
    with pytest.raises(ValueError):
        degree_monomials(0, 1)
    with pytest.raises(ValueError):
        degree_monomials(2, -1)


def test_basis_sizes_and_partition():
    assert basis_size(2, -1) == 0
    for d in (1, 2, 3):
        for n in range(6):
            assert basis_size(d, n) == math.comb(n + d, d)
    # the generator's partition has one block per degree, of the number of
    # monomials of that degree, and spans the whole basis
    for n in range(6):
        _, part = build_generator_matrix(jacobi_spec(BENCH_JACOBI), n)
        assert part.sizes == tuple(len(degree_monomials(2, j)) for j in range(n + 1))
        assert part.dim == basis_size(2, n)
    assert build_generator_matrix(jacobi_spec(BENCH_JACOBI), 3)[1].sizes == (1, 2, 3, 4)


def test_basis_index_round_trip():
    # basis_index follows the enumeration order of degree_monomials
    for d in (1, 2, 3):
        order = [k for j in range(6) for k in degree_monomials(d, j)]
        assert len(order) == basis_size(d, 5)
        assert [basis_index(k) for k in order] == list(range(len(order)))
    # pure powers of the first variable in two dimensions
    for p in range(8):
        assert basis_index((p, 0)) == p * (p + 1) // 2


def test_basis_values():
    vals = basis_values(2, 2, (2.0, 3.0))
    assert np.array_equal(vals, [1.0, 2.0, 3.0, 4.0, 6.0, 9.0])
    with pytest.raises(ValueError):
        basis_values(2, 2, (1.0,))


def test_basis_values_match_the_monomial_products():
    rng = np.random.default_rng(191)
    for d, n in ((1, 9), (2, 0), (2, 7), (2, 60), (3, 12)):
        for _ in range(4):
            point = rng.uniform(-1.5, 1.5, d)
            want = np.array([
                math.prod(float(x) ** e for x, e in zip(point, k))
                for j in range(n + 1)
                for k in degree_monomials(d, j)
            ])
            got = basis_values(d, n, point)
            assert got.shape == (basis_size(d, n),)
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


# -- operator application ----------------------------------------------------


def test_apply_generator_hand_cases():
    p = BENCH_JACOBI
    spec = jacobi_spec(p)
    # constants are killed
    assert apply_generator(spec, Polynomial(2, {(0, 0): 3.0})) == Polynomial(2)
    # image of y is the log-price drift r - v/2
    gy = apply_generator(spec, Polynomial.monomial((1, 0)))
    assert gy == Polynomial(2, {(0, 1): -0.5})
    # image of v is the variance drift kappa (theta - v)
    gv = apply_generator(spec, Polynomial.monomial((0, 1)))
    assert gv == Polynomial(2, {(0, 0): p.kappa * p.theta, (0, 1): -p.kappa})
    # image of y^2 picks up the squared diffusion of y: 2ry - yv + v
    gy2 = apply_generator(spec, Polynomial.monomial((2, 0)))
    assert gy2 == Polynomial(2, {(1, 1): -1.0, (0, 1): 1.0})
    with pytest.raises(ValueError):
        apply_generator(spec, Polynomial(3))


def test_apply_generator_heston_cross_term():
    p = HestonParams(kappa=0.7, theta=0.09, sigma=0.4, r=0.03, rho=-0.6)
    g = apply_generator(heston_spec(p), Polynomial.monomial((1, 1)))
    expect = Polynomial(
        2,
        {
            (1, 0): p.kappa * p.theta,
            (0, 1): p.r + p.rho * p.sigma,
            (1, 1): -p.kappa,
            (0, 2): -0.5,
        },
    )
    assert set(g.terms) == set(expect.terms)
    for k, c in expect.terms.items():
        assert g.terms[k] == pytest.approx(c, rel=1e-15)


def test_operator_spec_validation():
    one = Polynomial(2, {(0, 0): 1.0})
    v = Polynomial.monomial((0, 1))
    ok = PolynomialOperatorSpec(dim=2, a=((v, one), (one, v)), b=(one, one))
    assert ok.dim == 2
    with pytest.raises(ValueError):  # asymmetric diffusion
        PolynomialOperatorSpec(dim=2, a=((v, one), (v, v)), b=(one, one))
    with pytest.raises(ValueError):  # drift degree too high
        PolynomialOperatorSpec(dim=2, a=((v, one), (one, v)), b=(Polynomial.monomial((0, 2)), one))
    cubed = Polynomial.monomial((0, 3))
    with pytest.raises(ValueError):  # diffusion degree too high
        PolynomialOperatorSpec(dim=2, a=((cubed, one), (one, v)), b=(one, one))
    with pytest.raises(ValueError):  # wrong shape
        PolynomialOperatorSpec(dim=2, a=((v,),), b=(one, one))
    with pytest.raises(ValueError):  # wrong drift length
        PolynomialOperatorSpec(dim=2, a=((v, one), (one, v)), b=(one,))


def _evaluate(terms, x):
    return sum(c * math.prod(xi**e for xi, e in zip(x, k)) for k, c in terms.items())


def _partial(terms, i):
    """Exponent-wise partial derivative of a coefficient map in variable i."""
    out = {}
    for k, c in terms.items():
        if k[i] > 0:
            kk = k[:i] + (k[i] - 1,) + k[i + 1 :]
            out[kk] = out.get(kk, 0.0) + c * k[i]
    return out


def test_apply_generator_matches_pointwise_derivatives():
    # independent oracle on multi-term f: G f (x) = sum_i b_i(x) d_i f(x)
    # + 1/2 sum_ij a_ij(x) d_i d_j f(x), derivatives taken from the exponents
    rng = np.random.default_rng(1703)
    specs = [jacobi_spec(random_jacobi(rng)) for _ in range(5)]
    specs += [heston_spec(random_heston(rng)) for _ in range(5)]
    monos = [k for j in range(9) for k in degree_monomials(2, j)]
    for spec in specs:
        for _ in range(4):
            picks = rng.choice(len(monos), size=6, replace=False)
            terms = {monos[m]: float(rng.uniform(-1.0, 1.0)) for m in picks}
            image = apply_generator(spec, Polynomial(2, terms))
            for _ in range(3):
                x = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.0, 1.0)))
                parts = []
                for i in range(2):
                    di = _partial(terms, i)
                    parts.append(_evaluate(spec.b[i].terms, x) * _evaluate(di, x))
                    for j in range(2):
                        dij = _evaluate(_partial(di, j), x)
                        parts.append(0.5 * _evaluate(spec.a[i][j].terms, x) * dij)
                expect = math.fsum(parts)
                scale = math.fsum(abs(t) for t in parts)
                assert abs(_evaluate(image.terms, x) - expect) <= 1e-12 * scale


# -- generator matrices ------------------------------------------------------


def test_degree2_matrix_matches_reference():
    g, part = build_generator_matrix(jacobi_spec(BENCH_JACOBI), 2)
    ref = jacobi_degree2_reference(BENCH_JACOBI)
    assert part.sizes == (1, 2, 3)
    assert np.all(np.abs(g - ref) <= 1e-15 * np.abs(ref).max())
    # structural zeros are exact: nothing maps onto y^2, nothing hits 1
    assert np.array_equal(g[3, :], np.zeros(6))
    assert np.array_equal(g[:, 0], np.zeros(6))


def test_degree2_matrix_random_params():
    rng = np.random.default_rng(4021)
    for _ in range(10):
        pj = random_jacobi(rng)
        gj, _ = build_generator_matrix(jacobi_spec(pj), 2)
        refj = jacobi_degree2_reference(pj)
        assert np.all(np.abs(gj - refj) <= 1e-14 * np.abs(refj).max())
        ph = random_heston(rng)
        gh, _ = build_generator_matrix(heston_spec(ph), 2)
        refh = heston_degree2_reference(ph)
        assert np.all(np.abs(gh - refh) <= 1e-14 * np.abs(refh).max())


def test_matrix_is_block_upper_triangular():
    rng = np.random.default_rng(77)
    for _ in range(5):
        g, part = build_generator_matrix(jacobi_spec(random_jacobi(rng)), 5)
        assert g.shape == (part.dim, part.dim)
        for i in range(part.nblocks):
            for j in range(i):
                ri, rj = part.index_range(i), part.index_range(j)
                assert np.count_nonzero(g[ri[0] : ri[1], rj[0] : rj[1]]) == 0
    with pytest.raises(ValueError):
        build_generator_matrix(jacobi_spec(BENCH_JACOBI), -1)


def test_block_columns_assemble_to_matrix():
    rng = np.random.default_rng(913)
    for scale in (1.0, 0.25, 1.7):
        p = random_jacobi(rng)
        spec = jacobi_spec(p)
        cols = list(generator_block_columns(spec, max_degree=4, scale=scale))
        assert len(cols) == 5
        g, part = build_generator_matrix(spec, 4)
        assert [c.block_size for c in cols] == list(part.sizes)
        assert np.array_equal(matrix_from_columns(cols).data, scale * g)


def test_block_columns_are_the_images_of_the_monomials():
    # column j holds scale * G x^k for each degree-j monomial k, entry for
    # entry as apply_generator sums it, and nothing else
    rng = np.random.default_rng(61)
    for spec in (jacobi_spec(random_jacobi(rng)), heston_spec(random_heston(rng))):
        for j, col in enumerate(generator_block_columns(spec, max_degree=12, scale=0.3)):
            want = np.zeros((basis_size(2, j), len(degree_monomials(2, j))))
            for local, k in enumerate(degree_monomials(2, j)):
                for m, c in apply_generator(spec, Polynomial.monomial(k)).terms.items():
                    want[basis_index(m), local] = c * 0.3
            assert np.array_equal(col.stacked(), want), j


def _walked_block_columns(spec, max_degree, scale):
    # the per-monomial assembly the array stencil replaced: each degree-j
    # monomial's stencil walked term by term, each target found by
    # basis_index, each entry summed in stencil order
    for j in range(max_degree + 1):
        monos = degree_monomials(spec.dim, j)
        col = np.zeros((basis_size(spec.dim, j), len(monos)))
        for local, k in enumerate(monos):
            for m, c in _stencil(spec, k, 1.0):
                col[basis_index(m), local] += c
        col *= scale
        yield col


def test_block_columns_equal_the_stencil_walk_bit_for_bit():
    # the array stencil sums every entry's contributions in the walk's
    # order, so the columns keep their bits, on random Jacobi and Heston
    # operators, unscaled and rescaled, to degree 40
    rng = np.random.default_rng(4040)
    for _ in range(2):
        for spec in (jacobi_spec(random_jacobi(rng)), heston_spec(random_heston(rng))):
            for basis in ((0, 0), (-4, -2)):
                scaled = scaled_spec(spec, basis)
                got = generator_block_columns(scaled, max_degree=40, scale=0.37)
                for j, (col, want) in enumerate(
                    zip(got, _walked_block_columns(scaled, 40, 0.37), strict=True)
                ):
                    assert np.array_equal(col.stacked(), want), (basis, j)


def test_block_columns_shift_the_diagonal_only():
    # shift subtracts from each diagonal entry of scale * G and touches no
    # other entry; shift 0 keeps every bit
    spec = jacobi_spec(BENCH_JACOBI)
    plain = list(generator_block_columns(spec, max_degree=8, scale=0.25))
    zero = generator_block_columns(spec, max_degree=8, scale=0.25, shift=0.0)
    shifted = generator_block_columns(spec, max_degree=8, scale=0.25, shift=-1.5)
    for col, col0, col_s in zip(plain, zero, shifted, strict=True):
        assert np.array_equal(col0.stacked(), col.stacked())
        assert np.array_equal(col_s.top, col.top)
        assert np.array_equal(col_s.diag, col.diag + 1.5 * np.eye(col.block_size))


def test_block_columns_on_a_rescaled_basis_are_exact():
    # the operator of (2^ea y, 2^eb v) has the matrix D^-1 G D with
    # D = diag(2^(ea i + eb j)): each entry is the unscaled one times a
    # power of two, bit for bit
    rng = np.random.default_rng(67)
    for spec in (jacobi_spec(random_jacobi(rng)), heston_spec(random_heston(rng))):
        for scale in ((-3, -2), (2, -1), (0, 0)):
            g = matrix_from_columns(generator_block_columns(spec, max_degree=9, scale=0.3)).data
            cols = generator_block_columns(scaled_spec(spec, scale), max_degree=9, scale=0.3)
            b = matrix_from_columns(cols).data
            shift = np.concatenate(
                [[scale[0] * k[0] + scale[1] * k[1] for k in degree_monomials(2, j)]
                 for j in range(10)]
            )
            assert np.array_equal(b, np.ldexp(g, shift[None, :] - shift[:, None]))
    for bad in ((-3,), (-3, -2, 0), (-2.5, 0), (math.nan, 0)):
        with pytest.raises(ValueError, match="needs 2 integer exponents"):
            scaled_spec(spec, bad)
    # 2^-1200 times the v coefficient of a_yy would flush to zero, and
    # 2^1200 times it would overflow: both are refused, not rounded
    for bad in ((-600, 0), (600, 0)):
        with pytest.raises(ValueError, match=r"1.0 of monomial \(0, 1\) out of the normal"):
            scaled_spec(jacobi_spec(BENCH_JACOBI), bad)
    # a coefficient that stays put is kept even when it is subnormal
    tiny = Polynomial(2, {(0, 0): 1e-310})
    zero = Polynomial(2)
    spec = PolynomialOperatorSpec(dim=2, a=((zero, zero), (zero, zero)), b=(zero, tiny))
    assert scaled_spec(spec, (-3, 0)) == spec
    with pytest.raises(ValueError, match="normal float range"):
        scaled_spec(spec, (0, -3))


def test_block_column_stream_is_unbounded():
    spec = heston_spec(random_heston(np.random.default_rng(5)))
    cols = list(itertools.islice(generator_block_columns(spec), 8))
    assert [c.block_size for c in cols] == list(range(1, 9))
    # rows counts what sits above the diagonal block
    assert [c.rows for c in cols] == [basis_size(2, j - 1) for j in range(8)]


# -- models and norm bounds --------------------------------------------------


def test_jacobi_params_validation():
    good = dict(kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5, vmin=0.01, vmax=1.0)
    JacobiParams(**good)
    for bad in (
        dict(good, vmin=1.0, vmax=1.0),
        dict(good, vmin=-0.1),
        dict(good, kappa=-0.1),
        dict(good, theta=2.0),
        dict(good, theta=0.001),
        dict(good, sigma=0.0),
        dict(good, r=-0.01),
        dict(good, rho=1.5),
    ):
        with pytest.raises(ValueError):
            JacobiParams(**bad)
    for name in good:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                JacobiParams(**dict(good, **{name: value}))


def test_heston_params_validation():
    good = dict(kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5)
    HestonParams(**good)
    for bad in (
        dict(good, kappa=-0.1),
        dict(good, theta=-0.1),
        dict(good, sigma=0.0),
        dict(good, r=-0.01),
        dict(good, rho=-1.5),
    ):
        with pytest.raises(ValueError):
            HestonParams(**bad)
    for name in good:
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                HestonParams(**dict(good, **{name: value}))


def test_heston_params_keep_five_fields_on_a_fixed_variance_range():
    # Heston is the Jacobi model's vmin -> 0, vmax -> inf limit: its
    # variance range [0, inf) is fixed, not a field, and theta is checked
    # against it by the same validation as Jacobi's
    assert [f.name for f in dataclasses.fields(HestonParams)] == [
        "kappa", "theta", "sigma", "r", "rho"]
    assert [f.name for f in dataclasses.fields(JacobiParams)] == [
        "kappa", "theta", "sigma", "r", "rho", "vmin", "vmax"]
    p = HestonParams(kappa=0.5, theta=0.0, sigma=0.15, r=0.0, rho=-0.5)
    assert p == HestonParams(0.5, 0.0, 0.15, 0.0, -0.5)
    # a Jacobi-only reader fails loudly on Heston parameters
    assert not hasattr(p, "vmin")
    with pytest.raises(ValueError, match=r"theta must lie in \[vmin, vmax\] = \[0.0, inf\]"):
        HestonParams(kappa=0.5, theta=-0.1, sigma=0.15, r=0.0, rho=-0.5)
    with pytest.raises(TypeError):
        HestonParams(kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5, vmin=0.0)


def _written_out_spec(p, qv):
    """The model's operator with its coefficients written out: drift
    (r - v/2, kappa (theta - v)) and squared diffusion
    [[v, rho sigma Q], [rho sigma Q, sigma^2 Q]] for Q given by ``qv``."""
    a11 = Polynomial(2, {(0, 1): 1.0})
    a12 = Polynomial(2, {k: c * (p.rho * p.sigma) for k, c in qv.items()})
    a22 = Polynomial(2, {k: c * p.sigma**2 for k, c in qv.items()})
    by = Polynomial(2, {(0, 0): p.r, (0, 1): -0.5})
    bv = Polynomial(2, {(0, 0): p.kappa * p.theta, (0, 1): -p.kappa})
    return PolynomialOperatorSpec(dim=2, a=((a11, a12), (a12, a22)), b=(by, bv))


def test_model_specs_equal_their_written_out_coefficients():
    rng = np.random.default_rng(2717)
    for _ in range(200):
        p = random_jacobi(rng)
        s_den = (math.sqrt(p.vmax) - math.sqrt(p.vmin)) ** 2
        qv = {
            (0, 2): -1.0 / s_den,
            (0, 1): (p.vmax + p.vmin) / s_den,
            (0, 0): -p.vmax * p.vmin / s_den,
        }
        assert jacobi_spec(p) == _written_out_spec(p, qv)
        h = random_heston(rng)
        assert heston_spec(h) == _written_out_spec(h, {(0, 1): 1.0})


def test_closed_form_bounds_match_their_written_out_formulas():
    # the Jacobi bound is bit for bit the written-out formula; the Heston
    # bound is its alpha = sigma / 2 limit, which forms sigma^2 as
    # sigma * sigma where the formula below calls pow: over 100,000
    # (draw, degree) pairs that moved 26 bounds, 4 of them by 2 ulps
    rng = np.random.default_rng(2716)
    for _ in range(500):
        p = random_jacobi(rng)
        s_den = (math.sqrt(p.vmax) - math.sqrt(p.vmin)) ** 2
        alpha = p.sigma * (1 + p.vmin * p.vmax + p.vmax + p.vmin) / (2 * s_den)
        h = random_heston(rng)
        for n in (0, 1, 2, 7, 30, 100):
            assert jacobi_norm_bound(p, n) == n * (
                p.r + p.kappa + p.kappa * p.theta - p.sigma * alpha
            ) + 0.5 * n**2 * (1 + abs(p.rho) * alpha + 2 * p.sigma * alpha)
            want = n * (h.r + h.kappa + h.kappa * h.theta - h.sigma**2 / 2) + 0.5 * n**2 * (
                1 + abs(h.rho) * h.sigma / 2 + h.sigma**2
            )
            assert abs(heston_norm_bound(h, n) - want) <= 2 * math.ulp(want)


def test_norm_bound_pinned_value():
    # kappa=0.5, theta=0.04, sigma=0.15, r=0, rho=-0.5, vmin=0.01, vmax=1:
    # S = (1 - 0.1)^2 = 0.81, alpha = 0.15 * 2.02 / 1.62
    alpha = 0.15 * 2.02 / 1.62
    expect = 1 * (0.5 + 0.02 - 0.15 * alpha) + 0.5 * (1 + 0.5 * alpha + 0.3 * alpha)
    assert jacobi_norm_bound(BENCH_JACOBI, 1) == pytest.approx(expect, rel=1e-14)


def test_norm_bounds_dominate():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        pj = random_jacobi(rng)
        sj = jacobi_spec(pj)
        ph = random_heston(rng)
        sh = heston_spec(ph)
        for n in (1, 2, 3, 5, 8):
            gj, _ = build_generator_matrix(sj, n)
            bj = jacobi_norm_bound(pj, n)
            assert one_norm(gj) <= bj + 1e-9 * abs(bj)
            gh, _ = build_generator_matrix(sh, n)
            bh = heston_norm_bound(ph, n)
            assert one_norm(gh) <= bh + 1e-9 * abs(bh)


def test_rescaled_norm_bound_on_the_unscaled_basis():
    # the stencil bound bounds the unscaled matrix, and it is never looser
    # than the closed form of jacobi_norm_bound
    rng = np.random.default_rng(2719)
    for p in [BENCH_JACOBI] + [random_jacobi(rng) for _ in range(10)]:
        g, _ = build_generator_matrix(jacobi_spec(p), 12)
        for n in (0, 1, 2, 5, 12):
            bound = norm_bound(jacobi_spec(p), n)
            assert one_norm(g[: basis_size(2, n), : basis_size(2, n)]) <= bound * (1 + 1e-14)
            assert bound <= jacobi_norm_bound(p, n) * (1 + 1e-14)
    # the degree-100 generator of criterion 9: the off-diagonal blocks give
    # the unscaled norm of 5000, and the basis of (y / 8, v / 4) cuts it 15x
    spec = jacobi_spec(BENCH_JACOBI)
    assert norm_bound(spec, 100) == pytest.approx(5000.0)
    assert jacobi_norm_bound(BENCH_JACOBI, 100) == pytest.approx(5797.343, rel=1e-6)
    assert norm_bound(scaled_spec(spec, (-3, -2)), 100) == pytest.approx(334.375)
    assert norm_bound(spec, 0) == 0.0
    with pytest.raises(ValueError):
        norm_bound(spec, -1)


def test_norm_bounds_grow_quadratically():
    for p, bound in ((BENCH_JACOBI, jacobi_norm_bound),):
        vals = [bound(p, n) for n in (10, 20, 40)]
        # doubling n roughly quadruples the bound once n^2 dominates
        assert 3.0 < vals[1] / vals[0] < 5.0
        assert 3.0 < vals[2] / vals[1] < 5.0
