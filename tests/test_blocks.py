import numpy as np
import pytest

from blockexpm.blocks import (
    BlockColumn,
    BlockTriangularMatrix,
    Partition,
    extend_square,
    matrix_from_columns,
    read_column_stream,
    write_column_stream,
)


def random_block_triangular(rng, sizes):
    """Strict block upper triangular data for the given sizes."""
    part = Partition(tuple(sizes))
    d = part.dim
    data = rng.standard_normal((d, d))
    off = part.offsets
    for l in range(1, part.nblocks):
        data[off[l] : off[l + 1], : off[l]] = 0.0
    return data, part


def test_partition_basics():
    p = Partition((2, 3, 1))
    assert p.nblocks == 3
    assert p.dim == 6
    assert p.offsets == (0, 2, 5, 6)
    assert p.index_range(1) == (2, 5)
    assert p.append(4) == Partition((2, 3, 1, 4))
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(IndexError):
        p.index_range(3)


def test_partition_refuses_non_integer_sizes():
    # a fractional size is refused, not truncated, as a scaling power is;
    # numpy integers are accepted and stored as Python ints
    p = Partition((np.int64(2), np.int32(1), 3))
    assert p.sizes == (2, 1, 3) and all(type(b) is int for b in p.sizes)
    for sizes in ((2.5, 1), (2, 1.0), (2, "1"), (2, np.float64(1.9))):
        with pytest.raises(ValueError, match="block sizes must be positive integers, got"):
            Partition(sizes)
    with pytest.raises(ValueError, match=r"got 2\.5"):
        p.append(2.5)
    with pytest.raises(ValueError, match=r"got 1\.9"):
        BlockTriangularMatrix(np.triu(np.ones((3, 3))), (1.9, 1.9, 1))


def test_block_column_shapes_and_immutability():
    col = BlockColumn(np.ones((3, 2)), np.eye(2))
    assert col.rows == 3
    assert col.block_size == 2
    assert col.stacked().shape == (5, 2)
    assert np.array_equal(col.stacked()[:3], np.ones((3, 2)))
    with pytest.raises(ValueError):
        col.top[0, 0] = 5.0  # read-only array
    with pytest.raises(AttributeError):
        col.top = np.zeros((3, 2))
    with pytest.raises(ValueError):
        BlockColumn(np.ones((3, 2)), np.ones((3, 2)))  # diag not square vs width
    with pytest.raises(ValueError):
        BlockColumn(np.ones((3, 1)), np.ones((2, 2)))  # width mismatch


def test_block_column_copies_input():
    top = np.ones((2, 1))
    col = BlockColumn(top, np.zeros((1, 1)))
    top[0, 0] = 99.0
    assert col.top[0, 0] == 1.0


def test_extend_square():
    old = np.full((2, 2), 7.0)
    new = extend_square(old, np.full((2, 1), 2.0), np.full((1, 1), 3.0))
    want = np.array(
        [[7.0, 7.0, 2.0], [7.0, 7.0, 2.0], [0.0, 0.0, 3.0]]
    )
    assert np.array_equal(new, want)


def test_matrix_validation():
    rng = np.random.default_rng(2)
    data, part = random_block_triangular(rng, (2, 2))
    m = BlockTriangularMatrix(data, part)
    assert m.dim == 4
    assert m.nblocks == 2
    # a nonzero below the block diagonal is rejected
    bad = data.copy()
    bad[3, 0] = 1e-30
    with pytest.raises(ValueError):
        BlockTriangularMatrix(bad, part)
    with pytest.raises(ValueError):
        BlockTriangularMatrix(data[:3], part)
    with pytest.raises(ValueError):
        BlockTriangularMatrix(data, Partition((2, 3)))


def test_matrix_accessors_and_leading():
    rng = np.random.default_rng(9)
    data, part = random_block_triangular(rng, (2, 3, 1))
    m = BlockTriangularMatrix(data, part)
    assert np.array_equal(m.data, data)
    lead = m.leading(1)
    assert lead.partition == Partition((2, 3))
    assert np.array_equal(lead.data, data[:5, :5])
    with pytest.raises(IndexError):
        m.leading(3)
    # data is read-only
    with pytest.raises(ValueError):
        m.data[0, 0] = 1.0


def test_append_and_column_roundtrip():
    rng = np.random.default_rng(13)
    data, part = random_block_triangular(rng, (2, 1, 3))
    m = BlockTriangularMatrix(data, part)
    cols = m.block_columns()
    assert [c.block_size for c in cols] == [2, 1, 3]
    rebuilt = matrix_from_columns(cols)
    assert np.array_equal(rebuilt.data, m.data)
    assert rebuilt.partition == m.partition
    # a column whose top does not match the dimension so far fails
    with pytest.raises(ValueError, match="matrix dimension is 6"):
        matrix_from_columns(cols + [BlockColumn(np.ones((2, 1)), np.ones((1, 1)))])


def test_empty_matrix():
    m = matrix_from_columns([])
    assert m.dim == 0
    assert m.nblocks == 0
    grown = matrix_from_columns([BlockColumn(np.zeros((0, 2)), np.eye(2))])
    assert grown.dim == 2
    assert np.array_equal(grown.data, np.eye(2))


def test_column_stream_roundtrip(tmp_path):
    rng = np.random.default_rng(31)
    data, part = random_block_triangular(rng, (3, 2, 4, 1))
    cols = BlockTriangularMatrix(data, part).block_columns()
    p = tmp_path / "stream.txt"
    write_column_stream(p, cols)
    back = read_column_stream(p)
    assert len(back) == 4
    for a, b in zip(cols, back):
        assert np.array_equal(a.top, b.top)
        assert np.array_equal(a.diag, b.diag)


def test_column_stream_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("")
    with pytest.raises(ValueError):
        read_column_stream(p)
    p.write_text("2\n1\n1 1\n0.5\n")  # truncated second column
    with pytest.raises(ValueError):
        read_column_stream(p)
    p.write_text("1\n2\n1 1\n0.5\n")  # wrong stacked shape for size-2 block
    with pytest.raises(ValueError):
        read_column_stream(p)
    p.write_text("1\n1\n1 1\n0.5\n1 1\n0.5\n")  # trailing content
    with pytest.raises(ValueError):
        read_column_stream(p)
    p.write_text("-2\n")  # negative column count
    with pytest.raises(ValueError, match="-2"):
        read_column_stream(p)
