import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import blockexpm.incremental as incremental
from blockexpm.blocks import BlockColumn, Partition, matrix_from_columns
from blockexpm.dense import SingularMatrixError, lu_factor, one_norm, rel_error_fro
from blockexpm.generators import JacobiParams, generator_block_columns, jacobi_spec, scaled_spec
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
        # the chunked caches are the scaled matrix and max(s, 1) squares:
        # no factor or inverse of Q
        chunked = [v for v in vars(state).values() if isinstance(v, incremental._ChunkedCache)]
        assert chunked == [state._gt]
        assert len(state._squares) == max(s, 1)
        assert state.cache_bytes == _held_bytes(state)


def test_scaling_power_0_stages_match_the_baseline():
    # at s = 0 square 0 is the exponential, and the state caches it in
    # chunks as well, for the rational solve: the first stage is the
    # baseline's bit for bit, later ones agree within criterion 2's
    # tolerance, and a stream that keeps the first column of each block
    # column reads the stage path's columns
    rng = np.random.default_rng(223)
    cols = random_columns(rng, (4, 3, 5, 1, 2, 6, 3), scale=0.1)
    g = matrix_from_columns(cols)
    assert scaling_power(one_norm(g.data)) == 0
    stages = list(run_fixed(cols, s=0))
    assert np.array_equal(stages[0][0].data, expm_baseline(cols[0].diag, s=0))
    for n, (f, report) in enumerate(stages):
        assert report.s == 0
        assert rel_error_fro(f.data, expm_baseline(g.leading(n).data, s=0)) <= 1e-12
    streamed = incremental._drive(cols, 0, keep=[0])
    for (f, report), ((top, diag), _) in zip(stages, streamed, strict=True):
        d = report.dim - report.block_size
        assert np.array_equal(np.vstack([top, diag]), f.data[: report.dim, d : d + 1])


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
    state = IncrementalExpState(s)
    for col in make_columns():
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
        "stream": incremental._drive(cols, 12, keep=[0]),
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


def _profile(a, sizes):
    """The zero-row profile of a, grown block column by block column."""
    off = Partition(sizes).offsets
    lead = np.zeros(1, dtype=np.intp)
    for r0, r1 in zip(off, off[1:]):
        lead = incremental._grow_lead(lead, a[:r0, r0:r1], a[r0:r1, r0:r1])
    return lead


def test_panel_product_skips_rows_known_zero():
    rng = np.random.default_rng(157)
    sizes = tuple(int(b) for b in rng.integers(1, 7, 100))
    a = matrix_from_columns(random_columns(rng, sizes)).data.copy()
    # rows above r are zero right of c: r inside the third chunk, c inside
    # the fourth
    starts = _chunked(a, sizes).starts
    r, c = (starts[2] + starts[3]) // 2, (starts[3] + starts[4]) // 2
    assert starts[2] < r < starts[3] < c < starts[4]
    a[:r, c:] = 0.0
    cache = _chunked(a, sizes)
    lead = _profile(a, sizes)
    assert lead[c] >= r
    x = rng.standard_normal((a.shape[0], 2))
    x[:c] = 0.0
    got = cache.product(x, c, lead)
    assert rel_error_fro(got, a @ x) <= 1e-14
    assert not got[:r].any()


@pytest.mark.parametrize("where", ["inside", "boundary", "top"])
def test_panel_product_reads_only_the_band(where):
    rng = np.random.default_rng(163)
    # about 350 columns: the adopted first block and five opened chunks
    sizes = tuple(int(b) for b in rng.integers(1, 7, 100))
    a = matrix_from_columns(random_columns(rng, sizes)).data.copy()
    d, width = a.shape[0], 40
    # a band: column j is zero above row j - width, so the profile rises
    # inside every chunk and each chunk's window starts at its own row
    rows, cols = np.indices(a.shape)
    a[rows < cols - width] = 0.0
    cache = _chunked(a, sizes)
    lead = _profile(a, sizes)
    assert lead.tolist() == np.maximum(np.arange(d) - width, 0).tolist() + [d]
    starts = cache.starts
    assert starts == _rule_starts(sizes) and len(starts) == 6
    # c in, or at the edge of, the third chunk from the end: below the
    # band's top, so that r > 0, with two chunks right of it
    if where == "inside":
        c = (starts[-3] + starts[-2]) // 2
        assert starts[-3] < c < starts[-2]
    elif where == "boundary":
        c = starts[-3]
    else:
        c = 0
    r = min(int(lead[c]), c)
    assert (r > 0) == (c > 0)
    # the last chunk's window starts below r, so the windows trim
    assert lead[max(starts[-1], c)] > r
    x = rng.standard_normal((d, 3))
    x[:c] = 0.0
    # leave NaN in the memory the product's output is likely to reuse, so
    # that an output row nothing writes shows
    junk = np.full((d, 3), np.nan)
    del junk
    got = cache.product(x, c, lead)
    assert rel_error_fro(got, a @ x) <= 1e-14
    assert not got[:r].any()


# Every chunk but the last adds its share straight into the product in BLAS,
# at the chunk's full stored width.
@pytest.mark.parametrize("layout", ["spare", "inside", "lead", "strided"])
def test_chunk_products_accumulate_in_place(layout):
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
    c, lead = 0, None
    x = rng.standard_normal((d, 3))
    if layout == "inside":
        # c strictly inside a closed chunk with spare columns
        k = spare[-1]
        c = (cache.starts[k] + ends[k]) // 2
        assert cache.starts[k] < c < ends[k]
        x[:c] = 0.0
    elif layout == "lead":
        lead = _profile(a, sizes)
        # the windows of closed chunks start below row 0
        assert lead[cache.starts[-2]] > 0
    elif layout == "strided":
        x = rng.standard_normal((d, 6))[:, ::2]
        assert not x.flags.c_contiguous
    assert rel_error_fro(cache.product(x, c, lead), cache.dense() @ x) <= 1e-14


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
    # wide blocks with zero-row windows, in the column stream
    for _ in incremental._drive(generator_block_columns(jacobi_spec(JACOBI), max_degree=30,
                                                         scale=0.25), 5, keep=[0]):
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
    # price_adaptive's pass to degree 60 at s = 4: the s + 1 chunked caches
    # (the scaled matrix and squares 0 .. s - 1) store the block upper
    # triangle of dimension 1891 with at most 10% idle capacity, and the
    # zero-row profile
    cols = generator_block_columns(scaled_spec(jacobi_spec(JACOBI), (-3, -2)),
                                   max_degree=60, scale=0.25)
    s = 4
    *_, (_, report) = incremental._drive(cols, s, keep=[0])
    d = report.dim
    assert d == 1891
    triangle = 8 * d * (d + 1) // 2
    assert report.cache_bytes <= 1.10 * (s + 1) * triangle + 8 * (d + 1)


def test_zero_row_profile_of_generator():
    cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=9, scale=0.25))
    state = IncrementalExpState(3)
    for col in cols:
        state.step(col)
    gt = state.unscaled_matrix()  # the zero pattern of the scaled cache
    d = gt.shape[0]
    first = [int(np.flatnonzero(gt[:, j])[0]) if gt[:, j].any() else j for j in range(d)]
    want = [min(first[c:]) for c in range(d)] + [d]
    assert state._lead.tolist() == want
    # the band: degree n reaches no lower than degree n - 2
    off = state.partition.offsets
    assert state._lead[off[9]] == off[7]


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
    # At s = 2 the chunked caches are the scaled matrix and squares 0 and 1.
    # The step holds their three adopted 3 x 3 chunks (216 bytes), three
    # opened chunks of 15 x 12 doubles (4320: a block of 2 at dimension 3
    # opens min(256, 4 * 3) columns), the new exponential buffer with room
    # for two more blocks of 2, 9 x 9, beside the old 3 x 3 one (648 + 72)
    # and a zero-row profile of 6 entries (48): 5304 bytes.
    held = 3 * 72 + 72 + 32
    assert state.cache_bytes == held
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: 5303)
    with pytest.raises(MemoryError, match="dimension 5 .* 5304 bytes.*5303 bytes"):
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
    assert big.dim == 0 and big.cache_bytes == 8
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: 5304)
    state.step(cols[1])
    assert state.dim == 5
    assert state.cache_bytes == 5304 - 72
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
    caches = [state._gt, *state._squares]
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
        caches = [state._gt, *state._squares]
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
            sum(chunk.nbytes for cache in caches for chunk in cache.chunks)
            + state._exp.nbytes + state._lead.nbytes
        )

    monkeypatch.setattr(IncrementalExpState, "step", checked_step)
    held = list(run_adaptive(cols))
    monkeypatch.undo()

    restarts = [n for n, (_, r) in enumerate(held) if r.restart]
    assert restarts == [100]
    assert adopted == [sizes[0], held[100][0].dim]
    # every cache, the scaled matrix and squares 0 .. max(s, 1) - 1, closed
    # at least two chunks in each pass: the adopted first block and an
    # opened one
    for closed, (_, report) in zip(passes, (held[0], held[-1]), strict=True):
        assert len(closed) >= 2 * (1 + max(report.s, 1))
    fresh = [f.data.copy() for f, _ in run_adaptive(cols)]
    prev = None
    for (f, report), want in zip(held, fresh, strict=True):
        assert np.array_equal(f.data, want)
        if prev is not None and not report.restart:
            assert np.array_equal(f.data[: prev.dim, : prev.dim], prev.data)
        prev = f


def test_cache_bytes_counts_every_array_the_state_holds(monkeypatch):
    rng = np.random.default_rng(181)
    cols = random_columns(rng, tuple(int(b) for b in rng.integers(20, 41, 12)), scale=0.05)
    cols[6] = BlockColumn(60.0 * cols[6].top, 60.0 * cols[6].diag)
    walked = []
    step = IncrementalExpState.step

    def walking_step(state, col):
        step(state, col)
        walked.append(_held_bytes(state))

    monkeypatch.setattr(IncrementalExpState, "step", walking_step)
    reports = [r for _, r in run_adaptive(cols)]
    assert any(r.restart for r in reports)
    assert [r.cache_bytes for r in reports] == walked


def _restarting_columns():
    """40 random blocks of 1-5 whose column 25 makes run_adaptive restart;
    it restarts at 22 and 25."""
    rng = np.random.default_rng(191)
    cols = random_columns(rng, tuple(int(b) for b in rng.integers(1, 6, 40)), scale=0.1)
    cols[25] = BlockColumn(40.0 * cols[25].top, 40.0 * cols[25].diag)
    return cols


def _last_square_rounding(cols, s):
    """Per step of a full-width column stream at fixed s, how far two
    evaluations of the new block column of square s can differ.

    That column is S S[:, new], with S the step's square s - 1, whose
    caches both evaluations share.  Each entry is an inner product of
    length n = dim, which rounds by at most gamma_n = n u / (1 - n u) times
    the same product of |S| (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1), whatever order BLAS sums it in, so two evaluations
    differ by at most twice that.
    """
    u = np.finfo(float).eps / 2
    state = IncrementalExpState(s, _keep=slice(None))
    bounds = []
    for col in cols:
        d = state.dim
        state.step(col)
        n = state.dim
        sq = np.abs(state._squares[s - 1].dense())
        bounds.append(2 * n * u / (1 - n * u) * (sq @ sq[:, d:]))
    return bounds


def test_column_stream_assembles_the_stages_bit_for_bit():
    # the stream of new exponential block columns that pricing reads comes
    # from the stage path's arithmetic: with every column kept, each stage's
    # new block column is the stage's, bit for bit
    cols = _restarting_columns()
    streamed = incremental._drive(cols, 6, keep=slice(None))
    for (f, report), ((top, diag), col_report) in zip(run_fixed(cols, s=6), streamed,
                                                      strict=True):
        d, e = report.dim - col_report.block_size, report.dim
        assert top.shape == (d, e - d) and diag.shape == (e - d, e - d)
        assert np.array_equal(top, f.data[:d, d:e])
        assert np.array_equal(diag, f.data[d:e, d:e])
        assert (col_report.step, col_report.dim, col_report.s, col_report.restart) == (
            report.step, report.dim, report.s, report.restart)
    # a stream never restarts, so it needs a fixed scaling power
    with pytest.raises(ValueError, match="a column stream runs at a fixed scaling power"):
        next(incremental._drive(cols, None, keep=[0]))


@pytest.mark.parametrize("case, keep", [
    pytest.param("jacobi", [0], id="jacobi"),
    pytest.param("random", [0], id="random"),
    pytest.param("jacobi", [-1], id="jacobi-last"),
    pytest.param("jacobi", slice(0, 2), id="jacobi-first-two"),
    pytest.param("random", slice(0, 2), id="random-first-two"),
])
def test_column_stream_forms_the_last_square_on_the_kept_columns_only(monkeypatch, case,
                                                                      keep):
    # a stream that keeps some columns of each block column forms squares
    # 0 .. s - 1 in full, as the caches hold them, and square s only on the
    # kept columns: its reports are those of the full-width stream, and its
    # columns agree with that stream's same columns within the rounding
    # bound of the last square's products
    if case == "jacobi":
        s = 5
        def columns():
            return generator_block_columns(jacobi_spec(JACOBI), max_degree=30, scale=0.25)
    else:
        s = 6
        rng = np.random.default_rng(199)
        cols = random_columns(rng, tuple(int(b) for b in rng.integers(2, 30, 40)), scale=0.05)
        def columns():
            return cols
    full = list(incremental._drive(columns(), s, keep=slice(None)))
    bounds = _last_square_rounding(columns(), s)

    squarings = []  # per step: the block size and, per product, [width, dgemm widths]
    calls = None
    squaring = IncrementalExpState._squaring_column
    product = incremental._ChunkedCache.product
    dgemm = incremental.dgemm

    def recorded_squaring(self, f_col, f_diag):
        nonlocal calls
        calls = []
        try:
            return squaring(self, f_col, f_diag)
        finally:
            squarings.append((f_diag.shape[0], calls))
            calls = None

    def recorded_product(self, x, *args):
        if calls is not None:
            calls.append([x.shape[1]])
        return product(self, x, *args)

    def recorded_dgemm(alpha, a, b, **kwargs):
        if calls is not None:
            calls[-1].append(a.shape[0])  # a is the transpose of x's rows
        return dgemm(alpha, a, b, **kwargs)

    monkeypatch.setattr(IncrementalExpState, "_squaring_column", recorded_squaring)
    monkeypatch.setattr(incremental._ChunkedCache, "product", recorded_product)
    monkeypatch.setattr(incremental, "dgemm", recorded_dgemm)
    narrow = list(incremental._drive(columns(), s, keep=keep))
    monkeypatch.undo()

    assert len(narrow) == len(full)
    for ((top, diag), report), ((ftop, fdiag), freport), bound in zip(narrow, full, bounds,
                                                                     strict=True):
        assert [(r.step, r.dim, r.block_size, r.s, r.restart, r.cache_bytes)
                for r in (report, freport)] == [
            (freport.step, freport.dim, freport.block_size, freport.s, freport.restart,
             freport.cache_bytes)] * 2
        got, want = np.vstack([top, diag]), np.vstack([ftop, fdiag])[:, keep]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound[:, keep]), report.step
    # every step, the first included, forms square s on the k kept columns
    # of its block, down to each chunk's BLAS call
    for b, step_calls in squarings:
        k = np.arange(b)[keep].size
        widths = [call[0] for call in step_calls]
        assert widths == [b] * (s - 1) + [k]
        assert all(w == b for call in step_calls[:-1] for w in call[1:])
        assert all(w == k for w in step_calls[-1][1:])
    assert any(len(step_calls[-1]) > 1 for _, step_calls in squarings[1:])


def test_column_state_keeps_no_exponential_and_guards_only_its_caches(monkeypatch):
    # the case of test_memory_guard_raises_and_leaves_state without the
    # exponential buffer: three adopted 3 x 3 chunks and a zero-row profile
    # of 4 entries, then three opened 15 x 12 chunks and 6 entries
    rng = np.random.default_rng(163)
    cols = random_columns(rng, (3, 2), scale=0.5)
    state = IncrementalExpState(2, _keep=slice(None))
    staged = IncrementalExpState(2)
    top, diag = state.step(cols[0])
    staged.step(cols[0])
    assert top.shape == (0, 3)
    assert np.array_equal(diag, staged.exponential.data)
    assert state.cache_bytes == _held_bytes(state) == 3 * 72 + 32
    with pytest.raises(RuntimeError, match="keeps no exponential"):
        state.exponential
    need = 3 * 72 + 3 * 15 * 12 * 8 + 48
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: need - 1)
    with pytest.raises(MemoryError, match=f"{need} bytes"):
        state.step(cols[1])
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: need)
    top, diag = state.step(cols[1])
    assert state.cache_bytes == _held_bytes(state) == need
    monkeypatch.undo()
    staged.step(cols[1])
    assert np.array_equal(staged.exponential.data[:3, 3:], top)
    assert np.array_equal(staged.exponential.data[3:, 3:], diag)
