import math

import numpy as np
import pytest
import scipy.linalg

from blockexpm.blocks import Partition
from blockexpm.dense import (
    ILL_CONDITION_RTOL,
    SingularMatrixError,
    as_matrix,
    format_matrix,
    lu_factor,
    lu_solve,
    one_norm,
    parse_matrix,
    read_matrix,
    read_partition,
    rel_error_fro,
    write_matrix,
    write_partition,
)


def test_as_matrix_coerces_and_validates():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.flags["C_CONTIGUOUS"]
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    # opting out of the finiteness check is allowed
    m = as_matrix([[np.inf, 0.0], [0.0, 1.0]], check_finite=False)
    assert np.isinf(m[0, 0])


def test_one_norm_is_max_abs_column_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
        want = max(sum(abs(a[i, j]) for i in range(a.shape[0])) for j in range(a.shape[1]))
        assert one_norm(a) == pytest.approx(want, rel=1e-15)
    assert one_norm(np.zeros((0, 0))) == 0.0
    assert one_norm(np.array([[-3.0, 1.0], [1.0, 1.0]])) == 4.0


def test_frobenius_norm_matches_sum_of_squares():
    # rel_error_fro takes both norms as sqrt of the sum of squares of every entry
    a = np.array([[1.0, -2.0], [2.0, 4.0]])
    e = np.diag([1.0, 0.0])
    assert rel_error_fro(a, e) == pytest.approx(math.sqrt(4 + 4 + 16), rel=1e-15)
    assert rel_error_fro(e, a) == pytest.approx(
        math.sqrt(4 + 4 + 16) / math.sqrt(1 + 4 + 4 + 16), rel=1e-15
    )


def test_rel_error_fro():
    ref = np.array([[2.0, 0.0], [0.0, 0.0]])
    a = np.array([[2.0, 0.0], [0.0, 2e-13]])
    assert rel_error_fro(a, ref) == pytest.approx(1e-13, rel=1e-10)
    assert rel_error_fro(ref, ref) == 0.0
    assert rel_error_fro(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
    assert rel_error_fro(a, np.zeros((2, 2))) == np.inf
    with pytest.raises(ValueError):
        rel_error_fro(np.zeros((2, 2)), np.zeros((3, 3)))


def test_lu_factor_reconstructs_permuted_matrix():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = int(rng.integers(1, 12))
        a = rng.standard_normal((d, d))
        f = lu_factor(a)
        lower = np.tril(f.lu, -1) + np.eye(d)
        upper = np.triu(f.lu)
        # apply the getrf interchanges in order: row k swaps with row ipiv[k]
        pa = a.copy()
        for k, p in enumerate(f.ipiv):
            pa[[k, p]] = pa[[p, k]]
        err = np.max(np.abs(pa - lower @ upper))
        assert err <= 1e-12 * max(1.0, one_norm(a))
        assert f.smallest_pivot > 0.0


def test_lu_solve_matches_numpy():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = int(rng.integers(1, 10))
        a = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
        b = rng.standard_normal((d, int(rng.integers(1, 4))))
        x = lu_solve(lu_factor(a), b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10, atol=1e-12)


def test_transposed_lu_solve_matches_scipy():
    # trans=1 solves with the transpose from the same factors, so that
    # lu_solve(f, c.T, trans=1).T is the right division c a^-1
    rng = np.random.default_rng(19)
    for _ in range(10):
        d = int(rng.integers(1, 10))
        a = rng.standard_normal((d, d)) + 3.0 * np.eye(d)
        b = rng.standard_normal((d, int(rng.integers(1, 4))))
        x = lu_solve(lu_factor(a), b, trans=1)
        assert np.allclose(x, scipy.linalg.solve(a.T, b), rtol=1e-10, atol=1e-12)
    c = rng.standard_normal((5, d))
    assert np.allclose(lu_solve(lu_factor(a), c.T, trans=1).T @ a, c, rtol=1e-10, atol=1e-12)


def test_lu_factor_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank 1
    with pytest.raises(SingularMatrixError) as exc:
        lu_factor(a)
    assert exc.value.pivot == 0.0
    # SingularMatrixError is a ValueError so generic handlers catch it
    assert isinstance(exc.value, ValueError)


def test_lu_factor_flags_ill_conditioning():
    a = np.diag([1.0, 1e-16])
    f = lu_factor(a)
    assert f.ill_conditioned
    assert f.smallest_pivot < ILL_CONDITION_RTOL * one_norm(a)
    assert not lu_factor(np.eye(3)).ill_conditioned


def test_lu_factor_rejects_nonsquare():
    with pytest.raises(ValueError):
        lu_factor(np.zeros((2, 3)))


def test_matrix_text_roundtrip_is_exact():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        a *= 10.0 ** rng.integers(-200, 200)
        b = parse_matrix(format_matrix(a))
        assert np.array_equal(a, b)


def test_matrix_file_roundtrip(tmp_path):
    a = np.array([[1.5, -2.25], [0.0, 1e-300]])
    p = tmp_path / "m.txt"
    write_matrix(p, a)
    assert np.array_equal(read_matrix(p), a)


def test_parse_matrix_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2\n1 2\n3 4\n")
    with pytest.raises(ValueError):
        parse_matrix("2 2\n1 2\n")
    with pytest.raises(ValueError):
        parse_matrix("1 2\n1 2 3\n")


def test_partition_file_roundtrip(tmp_path):
    p = tmp_path / "part.txt"
    write_partition(p, [3, 1, 4])
    assert read_partition(p) == Partition((3, 1, 4))
    p.write_text("2 0 1\n")
    with pytest.raises(ValueError, match="block sizes must be positive integers, got 0"):
        read_partition(p)
