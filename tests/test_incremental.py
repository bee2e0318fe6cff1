import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import blockexpm
import blockexpm.incremental as incremental
from blockexpm.blocks import BlockColumn, Partition, matrix_from_columns
from blockexpm.dense import SingularMatrixError, lu_factor, lu_solve, one_norm, rel_error_fro
from blockexpm.generators import (
    JacobiParams,
    basis_values,
    generator_block_columns,
    jacobi_spec,
    scaled_spec,
)
from blockexpm.incremental import IncrementalExpState, run_adaptive, run_fixed
from blockexpm.pade import (
    THETA_13,
    expm_baseline,
    pade_coefficients,
    scaling_power,
)

JACOBI = JacobiParams(kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5, vmin=0.01, vmax=1.0)


def random_columns(rng, sizes, scale=1.0):
    """Random block-column sequence with the given block sizes."""
    cols = []
    dim = 0
    for b in sizes:
        cols.append(
            BlockColumn(
                scale * rng.standard_normal((dim, b)),
                scale * rng.standard_normal((b, b)),
            )
        )
        dim += b
    return cols


def test_two_by_two_closed_form():
    # two 1x1 blocks: exp([[a, c], [0, b]]) has corner c (e^a - e^b)/(a - b)
    a, b, c = 0.7, -1.3, 2.1
    cols = [
        BlockColumn(np.zeros((0, 1)), [[a]]),
        BlockColumn([[c]], [[b]]),
    ]
    results = list(run_fixed(cols, s=3))
    f = results[-1][0]
    want = c * (math.exp(a) - math.exp(b)) / (a - b)
    assert f.data[0, 0] == pytest.approx(math.exp(a), rel=1e-14)
    assert f.data[1, 1] == pytest.approx(math.exp(b), rel=1e-14)
    assert f.data[0, 1] == pytest.approx(want, rel=1e-13)
    assert f.data[1, 0] == 0.0


def test_first_stage_is_bitwise_baseline():
    rng = np.random.default_rng(101)
    cols = random_columns(rng, (4, 3))
    f0, _ = next(iter(run_fixed(cols, s=5)))
    assert np.array_equal(f0.data, expm_baseline(cols[0].diag, s=5))


def test_rational_solve_reads_square_0_and_keeps_no_inverse(monkeypatch):
    # F commutes with Q, so each new top block satisfies
    # Fprev q_top + f_top Q_nn = p_top; checked against dense products to
    # 3 gamma_n of the same sums of absolute values, for the product with
    # square 0, the b x b solve for Q_nn^-1 and its product, and the
    # check's own products
    # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1, 9.4:
    # Q_nn is close to a multiple of I in the Pade regime, so its LU has
    # no growth to speak of)
    rng = np.random.default_rng(211)
    sizes = tuple(int(b) for b in rng.integers(1, 12, 40))
    cols = random_columns(rng, sizes, scale=0.05)
    u = np.finfo(float).eps / 2
    solve = IncrementalExpState._solve_rational_column
    product = incremental._ChunkedCache.product
    calls = None  # the products of the running solve: (cache, width)
    solves = []

    def recorded_solve(self, *args):
        nonlocal calls
        calls = []
        out = solve(self, *args)
        solves.append((calls, args, out))
        calls = None
        return out

    def recorded_product(self, x, *args):
        if calls is not None:
            calls.append((self, x.shape[1]))
        return product(self, x, *args)

    monkeypatch.setattr(IncrementalExpState, "_solve_rational_column", recorded_solve)
    monkeypatch.setattr(incremental._ChunkedCache, "product", recorded_product)
    for s in (0, 3):
        state = IncrementalExpState(s)
        for col in cols:
            square0 = state._squares[0]
            f_prev = square0.dense()
            state.step(col)
            products, (p, _, q, qnn, _), (f, _) = solves[-1]
            # one product per step, with square 0, b columns wide
            assert products == [(square0, col.block_size)]
            residual = np.abs(f_prev @ q + f @ qnn - p)
            n = state.dim
            scale = np.abs(f_prev) @ np.abs(q) + np.abs(f) @ np.abs(qnn) + np.abs(p)
            assert np.all(residual <= 3 * n * u / (1 - n * u) * scale)
        # the chunked caches are the scaled matrix, its powers A^2 and A^6
        # and squares 0 .. s - min(s, 2): no factor or inverse of Q
        chunked = [v for v in vars(state).values() if isinstance(v, incremental._ChunkedCache)]
        assert chunked == [state._gt]
        assert len(state._powers) == 2
        assert len(state._squares) == s - min(s, 2) + 1
        assert state.cache_bytes == _held_bytes(state)


def test_scaling_power_0_stages_match_the_baseline():
    # at s = 0 square 0 is the exponential, and the state caches it in
    # chunks as well, for the rational solve: the first stage is the
    # baseline's bit for bit, later ones agree within criterion 2's
    # tolerance, and a row stream reads u^T times the stage path's new
    # block columns, to rounding
    rng = np.random.default_rng(223)
    cols = random_columns(rng, (4, 3, 5, 1, 2, 6, 3), scale=0.1)
    g = matrix_from_columns(cols)
    assert scaling_power(one_norm(g.data)) == 0
    stages = list(run_fixed(cols, s=0))
    assert np.array_equal(stages[0][0].data, expm_baseline(cols[0].diag, s=0))
    for n, (f, report) in enumerate(stages):
        assert report.s == 0
        assert rel_error_fro(f.data, expm_baseline(g.leading(n).data, s=0)) <= 1e-12
    u = _row(g.dim)
    streamed = incremental._drive(cols, 0, row=u)
    for (f, report), (got, _) in zip(stages, streamed, strict=True):
        d = report.dim - report.block_size
        assert rel_error_fro(got, u[: report.dim] @ f.data[:, d:]) <= 1e-14


def _random_sequence():
    return random_columns(np.random.default_rng(103), (3, 2, 4, 1, 3))


def _jacobi_sequence():
    # banded: the new column of each degree is zero above degree n - 2
    return list(generator_block_columns(jacobi_spec(JACOBI), max_degree=12, scale=0.25))


@pytest.mark.parametrize("make_columns", [_random_sequence, _jacobi_sequence],
                         ids=["random", "jacobi"])
@pytest.mark.parametrize("s", [0, 3])
def test_each_step_makes_two_b_wide_lu_solves(monkeypatch, make_columns, s):
    # the left division F_nn = Q_nn^-1 P_nn and the b x b inverse of Q_nn
    # for the right one: two solves per step, the first included, each
    # with b right-hand sides, and no factor or inverse kept after it
    solve = incremental.lu_solve
    shapes = []

    def recorded_solve(factors, rhs):
        shapes.append(rhs.shape)
        return solve(factors, rhs)

    monkeypatch.setattr(incremental, "lu_solve", recorded_solve)
    cols = make_columns()
    # a stage state, and a row state, whose right division is of the
    # products with its rows
    for state in (IncrementalExpState(s), IncrementalExpState(s, _row=_row(91))):
        for col in cols:
            shapes.clear()
            state.step(col)
            b = col.block_size
            assert shapes == [(b, b), (b, b)]
            assert state.cache_bytes == _held_bytes(state)


@pytest.mark.parametrize("make_columns", [_random_sequence, _jacobi_sequence],
                         ids=["random", "jacobi"])
def test_fixed_run_matches_baseline_every_stage(make_columns):
    cols = make_columns()
    g = matrix_from_columns(cols)
    s = scaling_power(one_norm(g.data))
    partial = None
    for n, (f, report) in enumerate(run_fixed(cols, s=s)):
        partial = g.leading(n).data
        base = expm_baseline(partial, s=s)
        assert rel_error_fro(f.data, base) <= 1e-12
        assert report.step == n
        assert report.dim == partial.shape[0]
        assert report.s == s
        assert not report.restart
        # the four phases of the stage's one step lie inside its seconds
        phases = (report.power_seconds, report.solve_seconds, report.squaring_seconds,
                  report.growth_seconds)
        assert min(phases) >= 0.0 and sum(phases) <= report.seconds
    # last stage against an independent implementation
    assert rel_error_fro(f.data, scipy.linalg.expm(g.data)) <= 1e-12


def test_fixed_run_nesting_is_bitwise():
    rng = np.random.default_rng(107)
    cols = random_columns(rng, (2, 3, 1, 4, 2))
    prev = None
    for n, (f, _) in enumerate(run_fixed(cols, s=4)):
        if prev is not None:
            assert np.array_equal(f.leading(n - 1).data, prev.data)
        prev = f


def test_emitted_exponentials_are_stable_snapshots():
    rng = np.random.default_rng(109)
    cols = random_columns(rng, (2, 2, 2))
    emitted = [f for f, _ in run_fixed(cols, s=3)]
    # growing the state further must not mutate earlier snapshots
    again = [f for f, _ in run_fixed(cols, s=3)]
    for a, b in zip(emitted, again):
        assert np.array_equal(a.data, b.data)
    assert emitted[0].dim == 2 and emitted[2].dim == 6
    with pytest.raises(ValueError):
        emitted[1].data[0, 0] = 0.0


def test_unscaled_matrix_roundtrip_is_exact():
    rng = np.random.default_rng(113)
    cols = random_columns(rng, (3, 2, 2), scale=7.0)
    state = IncrementalExpState(6)
    for col in cols:
        state.step(col)
    assert np.array_equal(state.unscaled_matrix(), matrix_from_columns(cols).data)


def test_singular_denominator_block_raises_and_leaves_state():
    # 17.8954... is the real root of the degree-13 denominator q, so at s=0
    # the new diagonal block of Q = q(D) has a pivot of roundoff size
    diag = np.diag([np.nextafter(17.895419349848392, 0), 0.0])
    powers = [np.eye(2)]
    for _ in range(13):
        powers.append(powers[-1] @ diag)
    beta = pade_coefficients(13).beta
    assert lu_factor(sum(c * p for c, p in zip(beta, powers))).ill_conditioned
    # the first block is checked like every later one
    with pytest.raises(SingularMatrixError):
        IncrementalExpState(0).step(BlockColumn(np.zeros((0, 2)), diag))
    # the driver refuses the block before stepping it: its norm needs s = 2
    with pytest.raises(ValueError, match="fixed scaling power s = 0 is too small"):
        list(run_fixed([BlockColumn(np.zeros((0, 2)), diag)], s=0))

    rng = np.random.default_rng(149)
    cols = random_columns(rng, (3, 2), scale=0.5)
    state = IncrementalExpState(0)
    for col in cols:
        state.step(col)
    before = state.exponential.data
    partition = state.partition
    with pytest.raises(SingularMatrixError):
        state.step(BlockColumn(rng.standard_normal((5, 2)), diag))
    assert state.dim == 5
    assert state.partition == partition
    assert np.array_equal(state.exponential.data, before)
    # the untouched state still grows and matches a from-scratch pass
    state.step(BlockColumn(rng.standard_normal((5, 1)), [[0.3]]))
    g = state.unscaled_matrix()
    assert rel_error_fro(state.exponential.data, expm_baseline(g, s=0)) <= 1e-12


@pytest.mark.parametrize("s", [0, 3])
def test_fixed_run_accepts_the_norm_bound_and_raises_above_it(s):
    bound = THETA_13 * 2.0**s
    first = BlockColumn(np.zeros((0, 1)), [[1.0]])
    # the second column's absolute sum is exactly the bound
    at_bound = [first, BlockColumn([[-bound]], [[0.0]])]
    g = matrix_from_columns(at_bound).data
    assert one_norm(g) == bound
    stages = [f for f, _ in run_fixed(at_bound, s=s)]
    assert rel_error_fro(stages[-1].data, scipy.linalg.expm(g)) <= 1e-13

    above = [first, BlockColumn([[-np.nextafter(bound, np.inf)]], [[0.0]])]
    runner = run_fixed(above, s=s)
    f0, _ = next(runner)
    assert np.array_equal(f0.data, expm_baseline([[1.0]], s=s))
    with pytest.raises(ValueError, match=f"s = {s} is too small, the matrix needs s >= {s + 1}"):
        next(runner)


def test_fixed_run_emits_stages_before_the_norm_outgrows_s():
    rng = np.random.default_rng(167)
    cols = random_columns(rng, (3, 2, 4, 2), scale=0.3)
    cols[2] = BlockColumn(cols[2].top, 50.0 * cols[2].diag)
    g = matrix_from_columns(cols)
    s = scaling_power(one_norm(g.leading(1).data))
    assert scaling_power(one_norm(g.leading(2).data)) > s
    emitted = []
    with pytest.raises(ValueError, match=f"block column 2 takes the 1-norm to .* s = {s} "):
        for f, _ in run_fixed(cols, s=s):
            emitted.append(f)
    assert len(emitted) == 2
    for n, f in enumerate(emitted):
        assert rel_error_fro(f.data, expm_baseline(g.leading(n).data, s=s)) <= 1e-12


def test_fixed_run_checks_scaling_before_reading_columns():
    class Unread:
        def __iter__(self):
            raise AssertionError("columns were read")

    with pytest.raises(ValueError, match="nonnegative"):
        run_fixed(Unread(), s=-1)


def test_non_integer_scaling_is_refused():
    cols = random_columns(np.random.default_rng(7), (2, 1), scale=0.5)
    for s in (2.7, 1.9, 2.0):
        with pytest.raises(ValueError, match="nonnegative integer"):
            run_fixed(cols, s=s)
        with pytest.raises(ValueError, match="nonnegative integer"):
            IncrementalExpState(s)
    # Python and numpy integers stay accepted
    for s in (2, np.int64(2)):
        assert [report.s for _, report in run_fixed(cols, s=s)] == [2, 2]
    assert IncrementalExpState(np.int32(1)).s == 1


def test_scaling_power_above_1022_is_refused_before_any_cache(monkeypatch):
    def sized(*args):
        raise AssertionError("the caches were sized")

    cols = random_columns(np.random.default_rng(7), (2, 1), scale=0.5)
    with monkeypatch.context() as m:
        m.setattr(incremental, "_check_cache_bytes", sized)
        with pytest.raises(ValueError, match="scaling power 1023 is above 1022"):
            run_fixed(cols, s=1023)
        with pytest.raises(ValueError, match="scaling power 1023 is above 1022"):
            IncrementalExpState(1023)
    state = IncrementalExpState(1022)
    state.step(BlockColumn(np.zeros((0, 1)), np.eye(1)))
    assert state.s == 1022
    assert next(run_fixed(cols, s=np.int64(1022)))[1].s == 1022


def test_fixed_run_refuses_too_small_scaling_instead_of_a_wrong_result():
    # three blocks, dim 10, ||G||_1 = 106.6: at s = 0 the last stage is
    # off by a relative 1.0 against scipy, and the driver must not emit it
    cols = random_columns(np.random.default_rng(0), (4, 3, 3), scale=10.0)
    g = matrix_from_columns(cols).data
    assert one_norm(g) > THETA_13 * 2.0**4
    with pytest.raises(ValueError, match="s = 0 is too small"):
        list(run_fixed(cols, s=0))
    # the scaling the norm asks for is accurate
    s = scaling_power(one_norm(g))
    last = list(run_fixed(cols, s=s))[-1][0]
    assert rel_error_fro(last.data, scipy.linalg.expm(g)) <= 1e-12


def test_adaptive_restarts_match_baseline_exactly():
    rng = np.random.default_rng(127)
    # escalate the diagonal magnitude so the norm outgrows theta repeatedly
    sizes = (2, 2, 3, 2, 3)
    cols = []
    dim = 0
    for j, b in enumerate(sizes):
        mag = 4.0**j
        cols.append(
            BlockColumn(
                mag * rng.standard_normal((dim, b)),
                mag * rng.standard_normal((b, b)),
            )
        )
        dim += b
    g = matrix_from_columns(cols)

    seen_restart = False
    prev = None
    prev_s = None
    for n, (f, report) in enumerate(run_adaptive(cols)):
        partial = g.leading(n).data
        expected_s = scaling_power(one_norm(partial))
        if report.restart:
            seen_restart = True
            assert report.s == expected_s
            assert prev_s is not None and report.s > prev_s
            # a restart stage is exactly a fresh baseline call
            assert np.array_equal(f.data, expm_baseline(partial, s=report.s))
            # the partition was merged down to (leading, new) blocks
            assert f.nblocks <= 2
            # the phases time the one from-scratch step, not the merge
            assert 0.0 < report.power_seconds + report.squaring_seconds < report.seconds
        else:
            assert rel_error_fro(f.data, expm_baseline(partial, s=report.s)) <= 1e-12
            if prev is not None:
                assert np.array_equal(f.data[: prev.dim, : prev.dim], prev.data)
        prev, prev_s = f, report.s
    assert seen_restart


def test_adaptive_runs_every_stage_at_the_scaling_its_norm_needs():
    # the norm grows slowly, so a restart is due as soon as it doubles
    rng = np.random.default_rng(173)
    cols = random_columns(rng, (2,) * 10)
    cols = [BlockColumn(1.4**j * c.top, 1.4**j * c.diag) for j, c in enumerate(cols)]
    g = matrix_from_columns(cols)
    reports = [r for _, r in run_adaptive(cols)]
    for n, report in enumerate(reports):
        assert report.s == scaling_power(one_norm(g.leading(n).data))
    assert sum(r.restart for r in reports) >= 2


def test_adaptive_without_growth_never_restarts():
    rng = np.random.default_rng(131)
    cols = random_columns(rng, (5, 2, 3), scale=0.05)
    reports = [r for _, r in run_adaptive(cols)]
    assert not any(r.restart for r in reports)
    assert all(r.s == reports[0].s for r in reports)


def test_input_validation():
    rng = np.random.default_rng(139)
    with pytest.raises(ValueError, match="2 rows, current dimension is 0"):
        # first column must not have a top part
        list(run_fixed([BlockColumn(np.ones((2, 1)), [[1.0]])], s=0))
    cols = random_columns(rng, (2,)) + [BlockColumn(np.ones((5, 1)), [[1.0]])]
    with pytest.raises(ValueError):
        list(run_fixed(cols, s=0))
    # a first block must be square and nonempty, like every later one
    for diag in (np.zeros((0, 0)), np.ones((2, 3))):
        with pytest.raises(ValueError, match="square and nonempty"):
            BlockColumn(np.zeros((0, diag.shape[1])), diag)
    with pytest.raises(ValueError):
        IncrementalExpState(-1)


def test_empty_diagonal_block_is_refused_as_a_value():
    # a 0 x 0 diagonal block is no partition block: it is refused where the
    # column is built, so a stream that yields one stops with ValueError,
    # not an IndexError from inside a step, and the state stays as it was
    def stream():
        yield BlockColumn(np.zeros((0, 2)), np.eye(2))
        yield BlockColumn(np.zeros((2, 0)), np.zeros((0, 0)))

    for runner in (run_fixed(stream(), s=0), run_adaptive(stream())):
        first, _ = next(runner)
        assert first.dim == 2
        with pytest.raises(ValueError, match="square and nonempty"):
            next(runner)
    state = IncrementalExpState(0)
    state.step(BlockColumn(np.zeros((0, 2)), np.eye(2)))
    before = state.exponential.data
    with pytest.raises(ValueError, match="square and nonempty"):
        state.step(BlockColumn(np.zeros((2, 0)), np.zeros((0, 0))))
    assert state.dim == 2 and np.array_equal(state.exponential.data, before)


def test_every_report_carries_its_own_column_block_size():
    # a restart steps the whole merged matrix as one block, but its report
    # gives the size of the column that triggered it, as every report does
    rng = np.random.default_rng(197)
    cols = random_columns(rng, tuple(int(b) for b in rng.integers(1, 6, 30)), scale=0.1)
    for n in (12, 21):
        cols[n] = BlockColumn(30.0 * cols[n].top, 30.0 * cols[n].diag)
    want = [col.block_size for col in cols]
    runs = {
        "fixed": run_fixed(cols, s=12),
        "adaptive": run_adaptive(cols),
        "stream": incremental._drive(cols, 12, row=_row(int(np.sum(want)))),
    }
    for name, runner in runs.items():
        reports = [report for _, report in runner]
        assert [r.block_size for r in reports] == want, name
        assert [r.dim for r in reports] == list(np.cumsum(want)), name
        if name == "adaptive":
            assert [n for n, r in enumerate(reports) if r.restart] == [12, 21], name


def _chunked(a, sizes):
    """The block upper triangular ``a`` appended block column by block
    column to an empty chunked cache."""
    cache = incremental._ChunkedCache()
    off = Partition(sizes).offsets
    for r0, r1 in zip(off, off[1:]):
        cache.append(a[:r0, r0:r1], a[r0:r1, r0:r1].copy())
    assert np.array_equal(cache.dense(), a)
    return cache


def _rule_starts(sizes):
    """Chunk starts of a cache grown by blocks of ``sizes``: the first block
    is adopted, and a block of b columns that does not fit opens a chunk
    max(b, min(ceil(512 / b), 4 d)) wide at dimension d."""
    starts, end, d = [0], sizes[0], sizes[0]
    for b in sizes[1:]:
        if d + b > end:
            starts.append(d)
            end = d + max(b, min(-(-512 // b), 4 * d))
        d += b
    return starts


# The chunks are the column panels of the cache products.
@pytest.mark.parametrize(
    "sizes, where",
    [
        (None, "inside"),  # x zero above a column inside a chunk
        (None, "boundary"),  # x zero above a chunk edge
        (None, "top"),  # c = 0
        (None, "zero"),  # c = d: all-zero x
        ((7,), "inside"),  # a single block, adopted as the only chunk
        ((7,), "top"),
        ((3, 5, 2), "inside"),  # the adopted block and one opened chunk
        ((3, 5, 2), "top"),
    ],
    ids=["inside", "boundary", "top", "zero", "single-inside", "single-top",
         "three-inside", "three-top"],
)
def test_panel_product_matches_dense_product(sizes, where):
    rng = np.random.default_rng(151)
    if sizes is None:
        # about 350 columns: the adopted first block and five opened chunks
        sizes = tuple(int(b) for b in rng.integers(1, 7, 100))
    a = matrix_from_columns(random_columns(rng, sizes)).data
    d = a.shape[0]
    cache = _chunked(a, sizes)
    starts = cache.starts
    # the first block is adopted whole, and the chunks open where the rule
    # says
    assert starts[0] == 0 and starts[1:2] in ([], [sizes[0]])
    assert starts == _rule_starts(sizes)
    assert len(starts) == {(7,): 1, (3, 5, 2): 2}.get(sizes, 6)
    if where == "inside":
        # strictly inside the second chunk, or the only one
        k = min(1, len(starts) - 1)
        k1 = (starts[1:] + [d])[k]
        c = (starts[k] + k1) // 2
        assert starts[k] < c < k1
    elif where == "boundary":
        c = starts[-2]
    else:
        c = 0 if where == "top" else d
    x = rng.standard_normal((d, 3))
    x[:c] = 0.0
    assert rel_error_fro(cache.product(x, c), a @ x) <= 1e-14


def _first_row(a, c):
    """min(c, the first row holding a nonzero in any column of a from c
    on), by brute force."""
    rows = np.flatnonzero(a[:, c:].any(axis=1))
    return min([c, *rows[:1].tolist()])


def _sparse(a, sizes):
    """The block upper triangular ``a`` appended block column by block
    column to a new sparse store, which after every append holds scipy's
    compressed sparse columns of the columns so far, and nothing more."""
    from scipy.sparse import csc_matrix

    store = incremental._SparseColumns()
    off = Partition(sizes).offsets
    for r0, r1 in zip(off, off[1:]):
        store.append(a[:r0, r0:r1], a[r0:r1, r0:r1])
        want = csc_matrix(a[:r1, :r1])
        assert store.dim == r1
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(store, name), getattr(want, name)), name
        # 32-bit indices: 12 bytes a nonzero and 4 a column
        assert store.indices.dtype == store.indptr.dtype == np.int32
        assert store.nbytes == incremental._SparseColumns.bytes_for(want.nnz, r1) == (
            12 * want.nnz + 4 * (r1 + 1))
    assert np.array_equal(store.dense(), a)
    return store


def test_panel_product_skips_rows_known_zero():
    # the sparse store's product from column c reads only the nonzeros
    # right of c, so the rows that are zero there come out exactly 0
    rng = np.random.default_rng(157)
    sizes = tuple(int(b) for b in rng.integers(1, 7, 100))
    a = matrix_from_columns(random_columns(rng, sizes)).data.copy()
    d = a.shape[0]
    r, c = d // 3, d // 2
    a[:r, c:] = 0.0
    store = _sparse(a, sizes)
    assert _first_row(a, c) >= r
    x = rng.standard_normal((d, 2))
    x[:c] = 0.0
    got = store.product(x, c)
    assert rel_error_fro(got, a @ x) <= 1e-14
    assert not got[:r].any()
    # from c = d there is nothing to read
    assert np.array_equal(store.product(x, d), np.zeros((d, 2)))


@pytest.mark.parametrize("where", ["inside", "boundary", "top"])
def test_panel_product_reads_only_the_band(where):
    rng = np.random.default_rng(163)
    sizes = tuple(int(b) for b in rng.integers(1, 7, 100))
    a = matrix_from_columns(random_columns(rng, sizes)).data.copy()
    d, width = a.shape[0], 40
    # a band: column j is zero above row j - width
    rows, cols = np.indices(a.shape)
    a[rows < cols - width] = 0.0
    store = _sparse(a, sizes)
    # the store holds the band's nonzeros only, well under the triangle
    assert int(store.indptr[d]) == np.count_nonzero(a) < d * (d + 1) // 4
    # c inside a block column, at the start of one, or at column 0
    off = Partition(sizes).offsets
    k = next(k for k in range(len(sizes) // 2, len(sizes)) if sizes[k] > 1)
    c = {"inside": off[k] + 1, "boundary": off[k], "top": 0}[where]
    assert (c > off[k]) == (where == "inside")
    r = _first_row(a, c)
    assert (r > 0) == (c > 0)
    # the rows of x above c are never read, so NaN there does not show
    x = rng.standard_normal((d, 3))
    x[:c] = np.nan
    got = store.product(x, c)
    assert rel_error_fro(got, a[:, c:] @ x[c:]) <= 1e-14
    assert not got[:r].any()


def test_first_row_of_banded_store_with_zero_columns():
    # first_row(c) is min(c, the first nonzero row of the columns from c
    # on), for every c from 0 to d, where zero columns leave it at c
    rng = np.random.default_rng(167)
    sizes = tuple(int(b) for b in rng.integers(1, 7, 60))
    a = matrix_from_columns(random_columns(rng, sizes)).data.copy()
    d, width = a.shape[0], 25
    rows, cols = np.indices(a.shape)
    a[rows < cols - width] = 0.0
    # zero columns: some alone, and a run of them up to the last column
    zero = np.concatenate([rng.choice(d - 10, 12, replace=False), np.arange(d - 4, d)])
    a[:, zero] = 0.0
    store = _sparse(a, sizes)
    got = [store.first_row(c) for c in range(d + 1)]
    assert got == [_first_row(a, c) for c in range(d + 1)]
    assert got[d - 4 :] == list(range(d - 4, d + 1))
    # the band: no column reaches above row c - width
    assert all(r >= c - width for c, r in enumerate(got))
    assert any(0 < r < c for c, r in enumerate(got))


# Every chunk but the last adds its share straight into the product in BLAS,
# at the chunk's full stored width.
@pytest.mark.parametrize("layout", ["spare", "inside", "lead", "strided"])
def test_chunk_products_accumulate_in_place(layout):
    # "lead": a banded cache, whose chunks store the band's zeros and add
    # them in
    rng = np.random.default_rng(191)
    # about 450 columns of blocks of 2-4, packed into shared chunks
    sizes = tuple(int(b) for b in rng.integers(2, 5, 150))
    a = matrix_from_columns(random_columns(rng, sizes)).data.copy()
    d, width = a.shape[0], 60
    if layout == "lead":
        # a band: column j is zero above row j - width
        rows, cols = np.indices(a.shape)
        a[rows < cols - width] = 0.0
    cache = _chunked(a, sizes)
    ends = cache.starts[1:]
    # closed chunks with spare columns, whose stored zeros meet the rows of
    # x that the next chunk reads
    spare = [k for k, (k0, k1) in enumerate(zip(cache.starts, ends))
             if cache.chunks[k].shape[1] > k1 - k0]
    assert len(spare) >= 2
    c = 0
    x = rng.standard_normal((d, 3))
    if layout == "inside":
        # c strictly inside a closed chunk with spare columns
        k = spare[-1]
        c = (cache.starts[k] + ends[k]) // 2
        assert cache.starts[k] < c < ends[k]
        x[:c] = 0.0
    elif layout == "lead":
        # closed chunks whose columns are zero at the top
        assert _first_row(a, cache.starts[-2]) > 0
    elif layout == "strided":
        x = rng.standard_normal((d, 6))[:, ::2]
        assert not x.flags.c_contiguous
    assert rel_error_fro(cache.product(x, c), cache.dense() @ x) <= 1e-14


def test_chunk_products_hand_blas_only_fortran_operands(monkeypatch):
    # f2py silently copies any dgemm operand that is not Fortran-contiguous,
    # on every call: each must be the transpose of a C-ordered array, and
    # the output must be written in place
    phase = [None]
    for name in ("_extend_pq", "_solve_rational_column", "_squaring_column"):
        def in_phase(self, *args, _name=name, _method=getattr(IncrementalExpState, name)):
            phase[0] = _name
            return _method(self, *args)
        monkeypatch.setattr(IncrementalExpState, name, in_phase)
    calls = []
    dgemm = incremental.dgemm

    def checked(alpha, a, b, *, beta, c, overwrite_c):
        for operand in (a, b, c):
            assert operand.dtype == np.float64 and operand.flags.f_contiguous
        out = dgemm(alpha, a, b, beta=beta, c=c, overwrite_c=overwrite_c)
        assert out.shape == c.shape and np.shares_memory(out, c)
        calls.append(phase[0])
        return out

    monkeypatch.setattr(incremental, "dgemm", checked)
    rng = np.random.default_rng(193)
    # packed chunks with spare columns, and one restart
    cols = random_columns(rng, tuple(int(b) for b in rng.integers(2, 5, 120)), scale=0.02)
    cols[60] = BlockColumn(100.0 * cols[60].top, 100.0 * cols[60].diag)
    assert sum(r.restart for _, r in run_adaptive(cols)) == 1
    # wide blocks, in the row stream
    for _ in incremental._drive(generator_block_columns(jacobi_spec(JACOBI), max_degree=30,
                                                         scale=0.25), 5, row=_row(496)):
        pass
    assert set(calls) == {"_extend_pq", "_solve_rational_column", "_squaring_column"}
    # a strided x is made contiguous before it reaches BLAS
    sizes = (3, 5, 2, 4, 6)
    a = matrix_from_columns(random_columns(rng, sizes)).data
    cache = _chunked(a, sizes)
    x = rng.standard_normal((a.shape[0], 4))[:, ::2]
    n = len(calls)
    assert rel_error_fro(cache.product(x), a @ x) <= 1e-14
    assert len(calls) > n


def test_narrow_blocks_are_packed_and_wide_blocks_get_their_own_chunk():
    # blocks of 2-4, as in the thin_blocks benchmark, are packed about
    # 512 / b columns to a chunk, so each product makes few BLAS calls
    sizes = tuple(int(b) for b in np.random.default_rng(7).integers(2, 5, 300))
    cache = _chunked(np.zeros((sum(sizes),) * 2), sizes)
    assert len(cache.chunks) <= 10
    # a block of 23 columns or more opens a chunk of exactly its width, so
    # no capacity is idle
    sizes = tuple(int(b) for b in np.random.default_rng(11).integers(23, 62, 30))
    cache = _chunked(np.zeros((sum(sizes),) * 2), sizes)
    assert cache.starts == list(Partition(sizes).offsets[:-1])
    assert [chunk.shape for chunk in cache.chunks] == [
        (k0 + b, b) for k0, b in zip(cache.starts, sizes)]


def test_pricing_caches_hold_little_beyond_the_block_triangle():
    # a pricing pass to degree 60 at s = 4 holds no block triangle at all:
    # the scaled matrix, as sparse columns, takes exactly its nonzeros and
    # column pointers, and the 2^4 + 1 rows u^T F^k take at most 10% more
    # columns than the dimension 1891, beside the row u itself
    cols = generator_block_columns(scaled_spec(jacobi_spec(JACOBI), (-3, -2)),
                                   max_degree=60, scale=0.25)
    u = basis_values(2, 60, (0.3, 0.2))
    state = IncrementalExpState(4, _row=u)
    for col in cols:
        state.step(col)
    d = state.dim
    assert d == 1891
    rows = state._rows.nbytes
    assert state._squares == [] and rows <= 1.10 * 17 * 8 * d
    assert isinstance(state._gt, incremental._SparseColumns)
    nnz = np.count_nonzero(state._gt.dense())
    assert nnz < d * 7
    assert state._gt.nbytes == incremental._SparseColumns.bytes_for(nnz, d)
    assert state.cache_bytes == rows + u.nbytes + incremental._SparseColumns.bytes_for(nnz, d)


def _scaled_forms(cols, make_state):
    """The form of the scaled matrix after each step of a new state."""
    state = make_state()
    forms = []
    for col in cols:
        state.step(col)
        forms.append(type(state._gt))
    return forms


def test_scaled_matrix_converts_to_sparse_columns_once_they_take_fewer_bytes():
    # a Jacobi generator's scaled matrix converts at degree 4, where its 54
    # nonzeros in 15 columns take 16 * 54 + 8 * 16 = 992 bytes against the
    # 8 * 140 = 1120 of its block triangle (at degree 3: 568 against 520),
    # in the row and the stage state alike, and stays converted
    chunked, sparse = incremental._ChunkedCache, incremental._SparseColumns
    cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=12, scale=0.25))
    for s in (0, 3, 6):
        for row in (_row(91), None):
            forms = _scaled_forms(cols, lambda: IncrementalExpState(s, _row=row))
            assert forms == [chunked] * 4 + [sparse] * 9, (s, row is None)
    # dense matrices never convert: random blocks at the sizes of the desk
    # (20-40) and thin (2-4) benchmark instances, full or, as in those
    # instances, upper triangular on the diagonal below full tops, whose
    # nonzeros fill more than half the block triangle
    rng = np.random.default_rng(229)
    for sizes in (rng.integers(20, 41, 12), rng.integers(2, 5, 150)):
        cols = random_columns(rng, tuple(int(b) for b in sizes), scale=0.02)
        triangular = [BlockColumn(c.top, np.triu(c.diag)) for c in cols]
        for case in (cols, triangular):
            assert _scaled_forms(case, lambda: IncrementalExpState(3)) == [chunked] * len(cols)


def test_first_block_that_converts_is_bitwise_baseline(monkeypatch):
    # a diagonal first block of b >= 4 converts to sparse columns at its
    # first step (24 b + 8 policy bytes against the 8 b^2 of its triangle),
    # so the state drops A^2 and A^6 before its second step; its stage is
    # still the baseline's bit for bit, since every diagonal block is
    # evaluated as the baseline evaluates a matrix, whatever form the scaled
    # matrix takes, and so is a restart stage whose merged matrix converts
    rng = np.random.default_rng(239)
    cols = [BlockColumn(np.zeros((0, 5)), np.diag(rng.uniform(-1.0, 1.0, 5)))]
    dim = 5
    for b, scale in ((2, 0.5), (3, 0.5), (1, 0.5), (2, 8.0), (3, 0.5)):
        top = np.zeros((dim, b))
        top[rng.integers(dim), 0] = scale
        cols.append(BlockColumn(top, scale * np.triu(rng.standard_normal((b, b)))))
        dim += b
    g = matrix_from_columns(cols)
    forms = []
    step = IncrementalExpState.step

    def recording_step(state, col):
        out = step(state, col)
        forms.append((type(state._gt), state._powers))
        return out

    monkeypatch.setattr(IncrementalExpState, "step", recording_step)
    stages = list(run_adaptive(cols))
    monkeypatch.undo()
    assert [r.restart for _, r in stages] == [False] * 4 + [True, False]
    assert all(form is incremental._SparseColumns and powers == [] for form, powers in forms)
    for n, (f, report) in enumerate(stages):
        want = expm_baseline(g.leading(n).data, s=report.s)
        if n in (0, 4):
            assert np.array_equal(f.data, want), n
        assert rel_error_fro(f.data, want) <= 1e-12, n
    assert stages[0][1].s < stages[4][1].s


def _products_by_phase(monkeypatch):
    """Record each chunked-cache product as (cache, width), keyed by the
    step phase that makes it: the powers, the solve or the squaring; the
    caller clears the dict before each step."""
    calls = {}
    phase = None
    product = incremental._ChunkedCache.product

    def recorded_product(self, x, *args):
        calls.setdefault(phase, []).append((self, x.shape[1]))
        return product(self, x, *args)

    def in_phase(name, method):
        def wrapped(self, *args):
            nonlocal phase
            phase = name
            try:
                return method(self, *args)
            finally:
                phase = None
        return wrapped

    for name in ("_extend_pq", "_solve_rational_column", "_squaring_column"):
        monkeypatch.setattr(IncrementalExpState, name,
                            in_phase(name, getattr(IncrementalExpState, name)))
    monkeypatch.setattr(incremental._ChunkedCache, "product", recorded_product)
    return calls


@pytest.mark.parametrize("s", [0, 1, 2, 3, 5])
def test_dense_stage_step_makes_six_power_products(monkeypatch, s):
    # per step of a dense stage state, the first included: two b-wide
    # products with the scaled matrix, two with A^2 and one 2b-wide with
    # A^6 in the power phase, six b-wide where the recurrence made twelve;
    # one with square 0 in the solve; and in the squaring, with t = min(s,
    # 2), s - t squarings of squares 0 .. s - t - 1 and 2^t - 1 products
    # with square s - t: s - 2 + 3 at s >= 2
    rng = np.random.default_rng(241)
    cols = random_columns(rng, tuple(int(b) for b in rng.integers(1, 8, 25)), scale=0.05)
    calls = _products_by_phase(monkeypatch)
    state = IncrementalExpState(s)
    t = min(s, 2)
    for col in cols:
        a, (a2, a6), squares = state._gt, state._powers, state._squares
        calls.clear()
        state.step(col)
        b = col.block_size
        assert calls.pop("_extend_pq") == [(a, b), (a2, b), (a2, b), (a6, 2 * b), (a, b)]
        assert calls.pop("_solve_rational_column") == [(squares[0], b)]
        assert calls.pop("_squaring_column", []) == (
            [(squares[l], b) for l in range(s - t)] + [(squares[s - t], b)] * (2**t - 1))
        assert calls == {}
    monkeypatch.undo()
    assert len(state._squares) == s - t + 1
    assert isinstance(state._gt, incremental._ChunkedCache)
    want = expm_baseline(state.unscaled_matrix(), s=s)
    assert rel_error_fro(state.exponential.data, want) <= 1e-12


def test_pricing_generator_drops_the_powers_when_it_converts(monkeypatch):
    # the Jacobi generator's scaled matrix converts at degree 4: the state,
    # stage or row state, then holds no A^2 or A^6 cache, and its power phase
    # reads the sparse store alone, by the recurrence, with no chunked
    # product
    cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=12, scale=0.25))
    calls = _products_by_phase(monkeypatch)
    for row in (None, _row(91)):
        state = IncrementalExpState(3, _row=row)
        for n, col in enumerate(cols):
            calls.clear()
            state.step(col)
            converted = n >= 4
            assert isinstance(state._gt, incremental._SparseColumns) == converted
            assert len(state._powers) == (0 if converted else 2)
            assert [len(v) for k, v in calls.items() if k == "_extend_pq"] == (
                [] if n > 4 else [5])


def test_sparse_store_hands_scipy_its_32_bit_indices(monkeypatch):
    # scipy builds each product's matrix on the store's own buffers, with no
    # copy of the indices
    import scipy.sparse

    rng = np.random.default_rng(251)
    sizes = tuple(int(b) for b in rng.integers(1, 7, 40))
    a = matrix_from_columns(random_columns(rng, sizes)).data.copy()
    a[rng.random(a.shape) < 0.8] = 0.0
    store = _sparse(a, sizes)
    made = []
    csc_matrix = scipy.sparse.csc_matrix

    def recording(*args, **kwargs):
        made.append(csc_matrix(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(scipy.sparse, "csc_matrix", recording)
    x = rng.standard_normal((a.shape[0], 3))
    assert rel_error_fro(store.product(x), a @ x) <= 1e-14
    (m,) = made
    assert np.shares_memory(m.indices, store.indices) and np.shares_memory(m.data, store.data)


@pytest.mark.parametrize("limit, refused", [(53, 4), (54, 5)])
def test_sparse_store_refuses_more_nonzeros_than_its_indices_address(monkeypatch, limit,
                                                                     refused):
    # the Jacobi generator's scaled matrix converts at degree 4 with 54
    # nonzeros: below a limit of 54 the converting step is refused, and at
    # 54 the next one, each with one ValueError before any cache changes
    monkeypatch.setattr(incremental, "_MAX_INDEX", limit)
    cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=6, scale=0.25))
    state = IncrementalExpState(3)
    for col in cols[:refused]:
        state.step(col)
    held, form, before = state.cache_bytes, type(state._gt), state.exponential.data
    with pytest.raises(ValueError, match=f"nonzeros in [0-9]+ columns, past the {limit} that "
                                         "the 32-bit indices"):
        state.step(cols[refused])
    assert state.dim == before.shape[0] and state.cache_bytes == held
    assert type(state._gt) is form and np.array_equal(state.exponential.data, before)


def test_import_does_not_load_scipy_sparse():
    # the sparse store imports scipy.sparse where it first multiplies, so
    # importing the package costs nothing for it
    root = os.path.dirname(os.path.dirname(blockexpm.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import blockexpm; "
            "assert 'scipy.sparse' not in sys.modules, 'scipy.sparse was imported'")
    subprocess.run([sys.executable, "-c", code, root], check=True)


def test_first_row_of_generator():
    # the Jacobi generator's sparse store, whose degree 0 column is zero
    cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=9, scale=0.25))
    state = IncrementalExpState(3)
    for col in cols:
        state.step(col)
    assert isinstance(state._gt, incremental._SparseColumns)
    gt = state.unscaled_matrix()  # the zero pattern of the scaled cache
    d = gt.shape[0]
    assert [state._gt.first_row(c) for c in range(d + 1)] == [
        _first_row(gt, c) for c in range(d + 1)]
    # the band: degree n reaches no lower than degree n - 2
    off = state.partition.offsets
    assert state._gt.first_row(off[9]) == off[7]


def test_exponential_buffer_is_reallocated_every_other_step_or_less():
    # degree n adds a block of n + 1 to a dimension of about n^2 / 2, more
    # than 5% below degree 40: the buffer grows by at least two blocks, so
    # at most every other step copies it
    cols = generator_block_columns(scaled_spec(jacobi_spec(JACOBI), (-3, -2)),
                                   max_degree=60, scale=0.25)
    state = IncrementalExpState(3)
    state.step(next(cols))
    buffers = [state._exp]
    for col in cols:
        state.step(col)
        if state._exp is not buffers[-1]:
            buffers.append(state._exp)
    assert state.dim == 1891
    assert len(buffers) - 1 <= 31
    assert all(b.shape[0] <= max(int(1.05 * 1891), 1891 + 2 * 61) for b in buffers)


def test_memory_guard_raises_and_leaves_state(monkeypatch):
    rng = np.random.default_rng(163)
    cols = random_columns(rng, (3, 2), scale=0.5)
    state = IncrementalExpState(2)
    state.step(cols[0])
    before = state.exponential.data
    # At s = 2 the chunked caches are the scaled matrix, its powers A^2 and
    # A^6, and square 0.  The step holds their four adopted 3 x 3 chunks
    # (4 * 72 = 288 bytes), four opened chunks of 15 x 12 doubles (4 * 1440
    # = 5760: a block of 2 at dimension 3 opens min(256, 4 * 3) = 12
    # columns of 3 + 12 rows), and the new exponential buffer with room for
    # two more blocks of 2, 9 x 9, beside the old 3 x 3 one (648 + 72):
    # 288 + 5760 + 648 + 72 = 6768 bytes.
    held = 4 * 72 + 72
    assert state.cache_bytes == held
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: 6767)
    with pytest.raises(MemoryError, match="dimension 5 .* 6768 bytes.*6767 bytes"):
        state.step(cols[1])
    assert state.dim == 3
    assert state.partition.sizes == (3,)
    assert state.cache_bytes == held
    assert np.array_equal(state.exponential.data, before)
    # an s no finite matrix needs is refused as a value; the first step's
    # guard refuses an admissible s whose caches memory cannot hold, and
    # leaves the new state empty
    with pytest.raises(ValueError, match="above 1022"):
        IncrementalExpState(10**6)
    big = IncrementalExpState(1000)
    with pytest.raises(MemoryError, match="dimension 200 at scaling power 1000"):
        big.step(BlockColumn(np.zeros((0, 200)), np.eye(200)))
    assert big.dim == 0 and big.cache_bytes == 0
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: 6768)
    state.step(cols[1])
    assert state.dim == 5
    # the old 3 x 3 exponential buffer is dropped
    assert state.cache_bytes == 6768 - 72
    # a small state holds small caches
    assert state.cache_bytes <= 8 * 1024


def _held_bytes(obj) -> int:
    """Bytes of the arrays reachable from ``obj`` through attributes,
    lists, tuples and dataclass fields: what a profiler that walks the
    state's attributes, as the benchmark's tracer does, counts."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(x) for x in obj)
    if dataclasses.is_dataclass(obj):
        return sum(_held_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if hasattr(obj, "__dict__"):
        return sum(_held_bytes(x) for x in vars(obj).values())
    return 0


def _stored_below_diagonal(state):
    """Entries of the state's arrays that lie below the block diagonal or
    past the dimension, where only zeros belong."""
    d = state.dim
    ends = np.repeat(state.partition.offsets[1:], state.partition.sizes)
    caches = [state._gt, *state._powers, *state._squares]
    out = []
    for cache in caches:
        for k0, chunk in zip(cache.starts, cache.chunks):
            cols = k0 + np.arange(chunk.shape[1])
            col_end = np.where(cols < d, ends[np.minimum(cols, d - 1)], 0)
            out.append(chunk[np.arange(chunk.shape[0])[:, None] >= col_end])
    rows = np.arange(state._exp.shape[0])[:, None]
    cols = np.arange(state._exp.shape[1])
    col_end = np.where(cols < d, ends[np.minimum(cols, d - 1)], 0)
    out.append(state._exp[rows >= col_end])
    return np.concatenate(out)


def test_caches_are_chunked_adopted_and_never_copied(monkeypatch):
    rng = np.random.default_rng(179)
    sizes = tuple(int(b) for b in rng.integers(1, 5, 200))
    cols = random_columns(rng, sizes, scale=0.02)
    # one heavy column forces exactly one restart
    cols[100] = BlockColumn(100.0 * cols[100].top, 100.0 * cols[100].diag)

    # per pass: (cache index, chunk index) -> (array, contents at closing)
    passes = []
    adopted = []
    step = IncrementalExpState.step

    def checked_step(state, col):
        first = state.dim == 0
        step(state, col)
        caches = [state._gt, *state._powers, *state._squares]
        d = state.dim
        if first:
            # a first step, at construction or a restart, adopts its
            # diagonal blocks: one chunk and a buffer without spare room
            passes.append({})
            adopted.append(d)
            for cache in caches:
                assert cache.starts == [0] and cache.chunks[0].shape == (d, d)
            assert state._exp.shape == (d, d)
        closed = passes[-1]
        for i, cache in enumerate(caches):
            assert cache.dim == d
            for k, chunk in enumerate(cache.chunks[:-1]):
                if (i, k) in closed:
                    array, contents = closed[i, k]
                    assert chunk is array
                    assert np.array_equal(chunk, contents)
                else:
                    closed[i, k] = (chunk, chunk.copy())
        assert not _stored_below_diagonal(state).any()
        assert state.cache_bytes == (
            sum(chunk.nbytes for cache in caches for chunk in cache.chunks) + state._exp.nbytes
        )

    monkeypatch.setattr(IncrementalExpState, "step", checked_step)
    held = list(run_adaptive(cols))
    monkeypatch.undo()

    restarts = [n for n, (_, r) in enumerate(held) if r.restart]
    assert restarts == [100]
    assert adopted == [sizes[0], held[100][0].dim]
    # every cache, the scaled matrix, A^2, A^6 and squares 0 .. s - min(s,
    # 2), closed at least two chunks in each pass: the adopted first block
    # and an opened one
    for closed, (_, report) in zip(passes, (held[0], held[-1]), strict=True):
        assert len(closed) >= 2 * (3 + report.s - min(report.s, 2) + 1)
    fresh = [f.data.copy() for f, _ in run_adaptive(cols)]
    prev = None
    for (f, report), want in zip(held, fresh, strict=True):
        assert np.array_equal(f.data, want)
        if prev is not None and not report.restart:
            assert np.array_equal(f.data[: prev.dim, : prev.dim], prev.data)
        prev = f


def _jacobi_nonzeros(n: int) -> int:
    """Nonzeros of the Jacobi generator at r = 0 to degree n, counted by
    hand.

    The generator takes y^a v^b, a + b = k, to a (r - v/2) y^(a-1) v^b +
    kappa b (theta - v) y^a v^(b-1) + a (a-1)/2 v y^(a-2) v^b + rho sigma
    a b Q(v) y^(a-1) v^(b-1) + sigma^2 b (b-1)/2 Q(v) y^a v^(b-2), with Q
    quadratic.  At r = 0 its column holds the rows y^(a-1) v^(b+1) if a >=
    1, y^(a-2) v^(b+1) if a >= 2, y^a v^(b-1) and y^a v^b if b >= 1,
    y^(a-1) v^(b-1) and y^(a-1) v^b if a, b >= 1, and y^a v^(b-2) if b >=
    2.  Over the k + 1 columns of degree k >= 1 that is k + (k - 1) + 2k +
    2(k - 1) + (k - 1) = 7k - 4, and degree 0's column is zero, so degrees
    0 .. n hold 7 n (n + 1) / 2 - 4n: 54 to degree 4, 85 to degree 5.
    """
    return 7 * n * (n + 1) // 2 - 4 * n


def test_cache_bytes_counts_every_array_the_state_holds(monkeypatch):
    rng = np.random.default_rng(181)
    cols = random_columns(rng, tuple(int(b) for b in rng.integers(20, 41, 12)), scale=0.05)
    cols[6] = BlockColumn(60.0 * cols[6].top, 60.0 * cols[6].diag)
    # a generator's scaled matrix converts to sparse columns at degree 4,
    # and its store grows by the exact size of each later column
    generator = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=12, scale=0.25))
    walked = []
    step = IncrementalExpState.step

    def walking_step(state, col):
        step(state, col)
        # the bytes of every array but the scaled matrix's: a stage state's
        # exponential buffer, or a row state's row and rows
        rest = sum(cache.nbytes for cache in state._powers + state._squares)
        if state._exp is None:
            assert state._rows.shape == (2**state.s + 1, state._rows.shape[1])
            rest += state._row.nbytes + state._rows.nbytes
        else:
            rest += state._exp.nbytes
        walked.append((type(state._gt), _held_bytes(state), rest))

    monkeypatch.setattr(IncrementalExpState, "step", walking_step)
    for runner, converts in ((run_adaptive(cols), False), (run_fixed(generator, 3), True),
                             (incremental._drive(generator, 3, row=_row(91)), True)):
        walked.clear()
        reports = [r for _, r in runner]
        assert any(r.restart for r in reports) != converts
        assert [r.cache_bytes for r in reports] == [held for _, held, _ in walked]
        sparse = [form is incremental._SparseColumns for form, _, _ in walked]
        assert sparse == [False] * 4 + [True] * 9 if converts else not any(sparse)
        # a sparse state holds its other arrays and a store of 12 bytes a
        # nonzero and 4 a column pointer: degree n has dimension (n + 1) (n
        # + 2) / 2
        for n, (form, held, rest) in enumerate(walked):
            if form is incremental._SparseColumns:
                dim = (n + 1) * (n + 2) // 2
                assert held == rest + 12 * _jacobi_nonzeros(n) + 4 * (dim + 1), n


def _restarting_columns():
    """40 random blocks of 1-5 whose column 25 makes run_adaptive restart;
    it restarts at 22 and 25."""
    rng = np.random.default_rng(191)
    cols = random_columns(rng, tuple(int(b) for b in rng.integers(1, 6, 40)), scale=0.1)
    cols[25] = BlockColumn(40.0 * cols[25].top, 40.0 * cols[25].diag)
    return cols


def _row(n, seed=0):
    """A row u of n entries in [-1, 1]."""
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def _chunked_caches(state):
    """The chunked caches the state holds, directly or in a list."""
    out = []
    for v in vars(state).values():
        for x in v if isinstance(v, list) else [v]:
            if isinstance(x, incremental._ChunkedCache):
                out.append(x)
    return out


def _row_and_stage(monkeypatch, cols, s, u):
    """Step a row state and a stage state side by side; yield, per step,
    the row state, its entries, u^T times the stage's new block column and
    the bound on their difference.

    Both read the new entries of u^T F^K, K = 2^s, off the approximant F
    whose diagonal blocks F_nn = Q_nn^-1 P_nn and tops f_top = (p_top -
    Fprev q_top) Q_nn^-1 come from the same bits of p_top, q_top, P_nn and
    Q_nn, and the same bits of Q_nn^-1: both states build the same caches,
    which the test checks, and both take the inverse from the same LU
    factors.  Take as exact the F built from those bits without rounding.
    Past them each path is a straight-line computation of sums,
    differences and products, so to first order its result is off the
    exact one by at most gamma_L times the same computation run on the
    absolute values of its inputs, with each difference made a sum, where
    L bounds the roundings along any chain from an input to the result
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and 3.5).
    Both such runs give W = |u|^T Fabs^K at the new columns, with Fabs the
    matrix of diagonal blocks |F_nn| and tops (|p_top| + Fabs_prev |q_top|)
    |Q_nn^-1|: the row stream's rows become |u|^T Fabs^k, since its
    doubling sums the same terms as the recurrence v_k = v_(k-1) F_nn +
    h_(k-1), and the stage's squares Fabs^(2^l).  Within one step a chain
    rounds at most n + 2b + 2 times per product phase (a product over the
    dimension n, one over a block of b, a difference), and a step has at
    most 2s + 3 of them: the solve, then s + 1 doubling levels whose
    powers come from up to s squarings in the row stream, or s - t
    squarings and 2^t - 1 <= 3 products and the final dot product with u
    in the stage path.  Errors in the stored rows or squares carry into
    every later step, so after N steps L = (N + 1) (2s + 3) (n + 2b + 2),
    and the two differ by at most 2 gamma_L W.
    """
    unit = np.finfo(float).eps / 2
    solve = IncrementalExpState._solve_rational_column
    seen = []

    def recorded_solve(self, *args):
        seen.append((self, args))
        return solve(self, *args)

    monkeypatch.setattr(IncrementalExpState, "_solve_rational_column", recorded_solve)
    rows = IncrementalExpState(s, _row=u)
    staged = IncrementalExpState(s)
    fabs = np.zeros((0, 0))
    widest = 0
    for steps, col in enumerate(cols, 1):
        d, b = staged.dim, col.block_size
        widest = max(widest, b)
        seen.clear()
        got = rows.step(col)
        staged.step(col)
        assert [state for state, _ in seen] == [rows, staged]
        (_, mine), (_, (p_top, p_diag, q_top, q_diag, _)) = seen
        for x, y in zip(mine, seen[1][1], strict=True):
            assert np.array_equal(x, y)
        assert len(_chunked_caches(rows)) == len(_chunked_caches(staged)) - len(staged._squares)
        for mine, theirs in zip([rows._gt, *rows._powers], [staged._gt, *staged._powers]):
            assert np.array_equal(mine.dense(), theirs.dense())
        factors = lu_factor(q_diag)
        q_inv = np.abs(lu_solve(factors, np.eye(b)))
        grown = np.zeros((d + b, d + b))
        grown[:d, :d] = fabs
        grown[:d, d:] = (np.abs(p_top) + fabs @ np.abs(q_top)) @ q_inv
        grown[d:, d:] = np.abs(lu_solve(factors, p_diag))
        fabs = grown
        w = np.abs(u[: d + b])
        for _ in range(2**s):
            w = w @ fabs
        n = d + b
        length = (steps + 1) * (2 * s + 3) * (n + 2 * widest + 2)
        bound = 2 * length * unit / (1 - length * unit) * w[d:]
        want = u[:n] @ staged.exponential.data[:, d:]
        yield rows, got, want, bound
    monkeypatch.undo()


@pytest.mark.parametrize("case", ["random", "jacobi"])
@pytest.mark.parametrize("s", [0, 1, 3, 6])
def test_row_stream_entries_agree_with_the_stage_columns(monkeypatch, case, s):
    # each step returns the b entries of u^T exp(G) at the new block, which
    # the stage path gives as u^T times its new block column, within the
    # bound of _row_and_stage; the stream shares the stage's scaled matrix
    # and powers bit for bit, holds no square, and never rewrites a column
    # of its rows
    if case == "random":
        cols = _restarting_columns()
        u = _row(sum(col.block_size for col in cols), seed=s)
    else:
        cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=30, scale=0.25))
        u = basis_values(2, 30, (0.3, 0.2))
    kept = []
    for state, got, want, bound in _row_and_stage(monkeypatch, cols, s, u):
        d = state.dim
        assert got.shape == (state.partition.sizes[-1],)
        assert np.all(np.abs(got - want) <= bound), (case, s, d)
        assert state._squares == [] and state._exp is None
        assert state._rows.shape[0] == 2**s + 1
        assert np.array_equal(state._rows[-1, d - got.shape[0] : d], got)
        kept.append(state._rows[:, :d].copy())
        for before in kept:
            assert np.array_equal(state._rows[:, : before.shape[1]], before)


def _sequential_rows(h, f, v0):
    """v_k = v_(k-1) F + h_(k-1) from v_0 = v0, k by k."""
    v = [v0]
    for row in h:
        v.append(v[-1] @ f + row)
    return np.array(v)


@pytest.mark.parametrize("s", [0, 1, 2, 3, 6, 10])
def test_row_doubling_equals_the_sequential_recurrence(s):
    # both sum v_k = sum_j w_j F^(k - j), w_0 = v0 and w_j = h_(j-1), so to
    # first order each is off the exact sum by at most gamma_L times the
    # same sum on absolute values, W_k = sum_j |w_j| |F|^(k - j), which the
    # recurrence on |h|, |F| and |v0| gives (Higham, Accuracy and Stability
    # of Numerical Algorithms, 3.5): L = 2^s (b + 1) for the recurrence,
    # and for the doubling at most (s + 1) (b + 1) along the updates plus
    # s b along the squarings of F that reach the last level
    rng = np.random.default_rng(263)
    unit = np.finfo(float).eps / 2
    b, k = 7, 2**s
    f = scipy.linalg.expm(rng.standard_normal((b, b)) / (4 * b)) + rng.standard_normal((b, b)) / b
    h = rng.standard_normal((k, b))
    v0 = rng.standard_normal(b)
    state = IncrementalExpState(s, _row=v0)
    got = state._row_powers(h, f, v0)
    want = _sequential_rows(h, f, v0)
    w = _sequential_rows(np.abs(h), np.abs(f), np.abs(v0))
    gamma = [n * unit / (1 - n * unit) for n in (k * (b + 1), (s + 1) * (b + 1) + s * b)]
    assert got.shape == (k + 1, b)
    assert np.array_equal(got[0], v0)
    assert np.all(np.abs(got - want) <= sum(gamma) * w)
    if s == 0:
        # one level, the recurrence's one step
        assert np.array_equal(got, want)


def test_row_stream_needs_a_fixed_scaling_power_and_a_long_enough_row():
    # a row stream never restarts, so it needs a fixed scaling power, and
    # its row must cover every column the matrix grows
    cols = _restarting_columns()
    dim = sum(col.block_size for col in cols)
    with pytest.raises(ValueError, match="a row stream runs at a fixed scaling power"):
        next(incremental._drive(cols, None, row=_row(dim)))
    stream = incremental._drive(cols, 12, row=_row(dim - 1))
    with pytest.raises(ValueError, match=f"the row u has {dim - 1} entries, fewer than the "
                                         f"{dim} columns"):
        for _ in stream:
            pass


@pytest.mark.parametrize("case", ["jacobi", "random"])
def test_row_stream_makes_no_product_with_a_cache_past_its_powers(monkeypatch, case):
    # the row stream's solve and doubling read only the rows u^T F^k and b
    # x b blocks: every chunked-cache product of a step is the power
    # phase's, and the state holds no square
    if case == "jacobi":
        s = 5
        cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=30, scale=0.25))
    else:
        s = 6
        rng = np.random.default_rng(199)
        cols = random_columns(rng, tuple(int(b) for b in rng.integers(2, 30, 40)), scale=0.05)
    calls = _products_by_phase(monkeypatch)
    state = IncrementalExpState(s, _row=_row(sum(col.block_size for col in cols)))
    products = 0
    for col in cols:
        calls.clear()
        state.step(col)
        products += len(calls.pop("_extend_pq", []))
        assert calls == {}
    monkeypatch.undo()
    assert products > 0 and state._squares == []


@pytest.mark.parametrize("s, stage_caches", [(0, 2), (1, 2), (2, 2), (3, 3), (4, 4), (6, 6)])
def test_row_stream_caches_no_square(monkeypatch, s, stage_caches):
    # a row state caches the scaled matrix, A^2 and A^6 and no square, at
    # every s; a stage state caches squares 0 .. s - min(s, 2) as well,
    # s - min(s, 2) + 2 chunked caches besides A^2 and A^6, and its
    # exponential buffer.  Each report's cache_bytes is what the state
    # holds after its step.
    rng = np.random.default_rng(227)
    cols = random_columns(rng, tuple(int(b) for b in rng.integers(1, 6, 20)), scale=0.02)
    held = []
    step = IncrementalExpState.step

    def walking_step(state, col):
        out = step(state, col)
        held.append((len(_chunked_caches(state)), state._exp is None, _held_bytes(state)))
        return out

    monkeypatch.setattr(IncrementalExpState, "step", walking_step)
    u = _row(sum(col.block_size for col in cols))
    streamed = [r for _, r in incremental._drive(cols, s, row=u)]
    staged = [r for _, r in run_fixed(cols, s)]
    monkeypatch.undo()

    n = len(cols)
    assert held[:n] == [(3, True, r.cache_bytes) for r in streamed]
    assert held[n:] == [(stage_caches + 2, False, r.cache_bytes) for r in staged]


def test_row_state_keeps_no_exponential_and_guards_only_its_caches(monkeypatch):
    # the case of test_memory_guard_raises_and_leaves_state for a row state
    # at s = 2: it caches the scaled matrix, A^2 and A^6, three adopted 3 x
    # 3 chunks (3 * 72 bytes), and holds the row u of 5 entries (40) and
    # its 2^2 + 1 = 5 rows, adopted 3 columns wide (5 * 3 * 8 = 120).  The
    # second step opens three 15 x 12 chunks (3 * 1440) and a rows buffer
    # of max(int(1.05 * 5), 5 + 2 * 2) = 9 columns (5 * 9 * 8 = 360) beside
    # the old one, which it then drops.
    rng = np.random.default_rng(163)
    cols = random_columns(rng, (3, 2), scale=0.5)
    u = _row(5)
    state = IncrementalExpState(2, _row=u)
    staged = IncrementalExpState(2)
    got = state.step(cols[0])
    staged.step(cols[0])
    assert got.shape == (3,)
    assert rel_error_fro(got, u[:3] @ staged.exponential.data) <= 1e-14
    held = 3 * 72 + 40 + 120
    assert state.cache_bytes == _held_bytes(state) == held
    with pytest.raises(RuntimeError, match="keeps no exponential"):
        state.exponential
    need = held + 3 * 15 * 12 * 8 + 360
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"with 5 rows u\\^T F\\^k, would hold {need} bytes"):
        state.step(cols[1])
    assert state.cache_bytes == held and state.dim == 3
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: need)
    got = state.step(cols[1])
    assert state.cache_bytes == _held_bytes(state) == need - 120
    monkeypatch.undo()
    staged.step(cols[1])
    assert rel_error_fro(got, u @ staged.exponential.data[:, 3:]) <= 1e-14

    # a Jacobi generator's row state at s = 2 converts its scaled matrix at
    # degree 4.  Degrees 0 .. 3 add blocks of 1 .. 4 and leave each of the
    # scaled matrix, A^2 and A^6 with the chunks of 8 + 160 + 1440 = 1608
    # bytes (see the column arithmetic in the memory guard tests above), u
    # of basis_size(2, 5) = 21 entries (168 bytes) and 5 rows whose buffer
    # grew at dimensions 1, 3 and 10 to 1, max(3, 3 + 2 * 2) = 7 and
    # max(10, 10 + 2 * 4) = 18 columns (720 bytes): 3 * 1608 + 168 + 720 =
    # 5712.  Degree 4's block of 5 fits the buffer; the step builds the
    # sparse store, 54 nonzeros in 15 columns (12 * 54 + 4 * 16 = 712, see
    # _jacobi_nonzeros), and then drops the 3 * 1608 bytes of chunks.
    # Degree 5 builds a store of 85 nonzeros in 21 columns (12 * 85 + 4 *
    # 22 = 1108) and a rows buffer of max(int(1.05 * 21), 21 + 2 * 6) = 33
    # columns (5 * 33 * 8 = 1320) beside the old ones, and drops those.
    cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=5, scale=0.25))
    state = IncrementalExpState(2, _row=basis_values(2, 5, (0.3, 0.2)))
    for col in cols[:4]:
        state.step(col)
    held = 3 * 1608 + 168 + 720
    assert state.cache_bytes == _held_bytes(state) == held
    assert [cache.nbytes for cache in [state._gt, *state._powers]] == [1608] * 3
    # 6424 = 5712 + 712 leaves 712 + 168 + 720 = 1600; 4028 = 1600 + 1108 +
    # 1320 leaves 4028 - 712 - 720 = 2596
    for col, need, dropped in ((cols[4], 6424, 3 * 1608), (cols[5], 4028, 712 + 720)):
        form = type(state._gt)
        monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: need - 1)
        with pytest.raises(MemoryError, match=f"{need} bytes"):
            state.step(col)
        assert state.cache_bytes == held and type(state._gt) is form
        monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: need)
        state.step(col)
        held = need - dropped
        assert state.cache_bytes == _held_bytes(state) == held
        assert isinstance(state._gt, incremental._SparseColumns) and state._powers == []
        assert state._gt.data.size == _jacobi_nonzeros(len(state.partition.sizes) - 1)
    assert held == 2596

    # at s = 60 the first step's rows would take (2^60 + 1) * 4 * 8 bytes:
    # the guard counts them in Python ints and refuses the step before any
    # allocation, leaving the state empty
    import tracemalloc

    state = IncrementalExpState(60, _row=_row(4))
    tracemalloc.start()
    try:
        with pytest.raises(MemoryError, match=f"scaling power 60, with {2**60 + 1} rows"):
            state.step(BlockColumn(np.zeros((0, 4)), 0.1 * np.eye(4)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert state.dim == 0 and state.cache_bytes == 4 * 8 and state._rows.size == 0
