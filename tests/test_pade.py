import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from blockexpm.dense import one_norm, rel_error_fro
from blockexpm.pade import (
    THETA_13,
    expm_baseline,
    pade_coefficients,
    scaling_power,
)


def pade_alpha_oracle(m):
    # closed form: alpha_l = (2m-l)! m! / ((2m)! (m-l)! l!), exact rationals
    f = math.factorial
    return [
        Fraction(f(2 * m - l) * f(m), f(2 * m) * f(m - l) * f(l))
        for l in range(m + 1)
    ]


def taylor_expm_oracle(a, s=None, terms=60):
    """Scaled 60-term Taylor series, squared back up. Independent oracle."""
    if s is None:
        s = max(0, math.ceil(math.log2(max(one_norm(a), 1e-16))) + 2)
    b = a / 2.0**s
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, terms + 1):
        term = term @ b / j
        acc = acc + term
    for _ in range(s):
        acc = acc @ acc
    return acc


def test_coefficients_match_factorial_formula():
    for m in range(1, 14):
        c = pade_coefficients(m)
        want = pade_alpha_oracle(m)
        assert c.degree == m
        assert len(c.alpha) == m + 1
        for l in range(m + 1):
            assert c.alpha[l] == pytest.approx(float(want[l]), rel=1e-15)
            assert c.beta[l] == pytest.approx(float(want[l]) * (-1) ** l, rel=1e-15)


def test_coefficients_small_degrees_explicit():
    c1 = pade_coefficients(1)
    assert np.allclose(c1.alpha, [1.0, 0.5], rtol=0, atol=0)
    c3 = pade_coefficients(3)
    assert np.allclose(c3.alpha, [1.0, 0.5, 0.1, 1.0 / 120.0], rtol=1e-15)
    # q(z) = p(-z)
    z = 0.37
    p = sum(a * z**l for l, a in enumerate(c3.alpha))
    q = sum(b * z**l for l, b in enumerate(c3.beta))
    pm = sum(a * (-z) ** l for l, a in enumerate(c3.alpha))
    assert q == pytest.approx(pm, rel=1e-15)
    # degree-13 approximant matches exp on scalars below theta
    c13 = pade_coefficients(13)
    for z in (0.1, 1.0, -2.0, 5.371):
        p = sum(a * z**l for l, a in enumerate(c13.alpha))
        q = sum(b * z**l for l, b in enumerate(c13.beta))
        assert p / q == pytest.approx(math.exp(z), rel=1e-14)


def test_coefficients_reject_bad_degree():
    for bad in (0, -1, 2.5, "13"):
        with pytest.raises(ValueError):
            pade_coefficients(bad)


def test_scaling_power_boundaries():
    assert scaling_power(0.0) == 0
    assert scaling_power(THETA_13) == 0
    assert scaling_power(np.nextafter(THETA_13, np.inf)) == 1
    assert scaling_power(100.0) == 5  # 100/32 = 3.125 <= theta < 100/16
    assert scaling_power(2.0, theta=1.0) == 1
    # 1e300 * 2^-995 = 2.98 <= theta < 1e300 * 2^-994
    assert scaling_power(1e300) == 995
    with pytest.raises(ValueError):
        scaling_power(-1.0)
    with pytest.raises(ValueError):
        scaling_power(np.inf)
    with pytest.raises(ValueError):
        scaling_power(1.0, theta=0.0)


def test_scaling_power_above_the_largest_floats_is_refused():
    # no finite matrix needs more than the largest float's s = 1022; a
    # larger forced power is refused before any squaring
    assert scaling_power(sys.float_info.max) == 1022
    for s in (1023, np.int64(1023)):
        with pytest.raises(ValueError, match=f"scaling power {s} is above 1022"):
            expm_baseline(np.eye(2), s=s)
    assert np.array_equal(expm_baseline(np.eye(2), s=1022), np.eye(2))


def test_expm_baseline_against_taylor_oracle():
    rng = np.random.default_rng(41)
    for _ in range(10):
        d = int(rng.integers(1, 9))
        a = rng.standard_normal((d, d))
        a *= 5.0 / max(one_norm(a), 1e-3)
        assert rel_error_fro(expm_baseline(a), taylor_expm_oracle(a)) <= 1e-12


def test_expm_baseline_against_scipy():
    rng = np.random.default_rng(43)
    for _ in range(10):
        d = int(rng.integers(2, 12))
        a = rng.standard_normal((d, d)) * rng.uniform(0.1, 20.0)
        # scipy picks its own degrees/scaling, so only algorithm-level
        # agreement is expected here, not bitwise reproduction
        assert rel_error_fro(expm_baseline(a), scipy.linalg.expm(a)) <= 1e-12


def test_expm_baseline_forced_scaling_and_degrees():
    rng = np.random.default_rng(47)
    a = rng.standard_normal((5, 5))
    ref = taylor_expm_oracle(a)
    # forcing a larger s than the norm requires stays accurate
    for s in (0, 2, 6):
        assert rel_error_fro(expm_baseline(a, s=s), ref) <= 1e-12


def test_expm_baseline_identity_and_nilpotent():
    assert rel_error_fro(expm_baseline(np.zeros((3, 3))), np.eye(3)) == 0.0
    n = np.array([[0.0, 2.0], [0.0, 0.0]])
    # exp of 2x2 nilpotent is I + N
    assert rel_error_fro(expm_baseline(n), np.eye(2) + n) <= 1e-15


def test_expm_baseline_validation():
    with pytest.raises(ValueError):
        expm_baseline(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        expm_baseline(np.eye(2), s=-1)
    with pytest.raises(ValueError):
        expm_baseline([[np.nan, 0.0], [0.0, 0.0]])


def test_expm_baseline_diagonal_scaled_input():
    a = np.diag([1.0, 2.0]) * 40.0
    assert scaling_power(one_norm(a)) == 4
    # diagonal input: exponential is exp of the diagonal
    assert np.allclose(np.diag(expm_baseline(a)), np.exp([40.0, 80.0]), rtol=1e-13)
