import math

import numpy as np
import pytest
import scipy.linalg

import blockexpm.incremental as incremental
from blockexpm.blocks import BlockColumn, Partition, matrix_from_columns
from blockexpm.dense import SingularMatrixError, lu_factor, one_norm, rel_error_fro
from blockexpm.generators import JacobiParams, generator_block_columns, jacobi_spec
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


def _random_sequence():
    return random_columns(np.random.default_rng(103), (3, 2, 4, 1, 3))


def _jacobi_sequence():
    # banded: the new column of each degree is zero above degree n - 2
    return list(generator_block_columns(jacobi_spec(JACOBI), max_degree=12, scale=0.25))


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
        assert report.seconds >= 0.0
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
    state = IncrementalExpState(cols[0].diag, s=6)
    for col in cols[1:]:
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
        IncrementalExpState(diag, s=0)
    # the driver refuses the block before stepping it: its norm needs s = 2
    with pytest.raises(ValueError, match="fixed scaling power s = 0 is too small"):
        list(run_fixed([BlockColumn(np.zeros((0, 2)), diag)], s=0))

    rng = np.random.default_rng(149)
    cols = random_columns(rng, (3, 2), scale=0.5)
    state = IncrementalExpState(cols[0].diag, s=0)
    state.step(cols[1])
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
            IncrementalExpState(np.eye(2), s)
    # Python and numpy integers stay accepted
    for s in (2, np.int64(2)):
        assert [report.s for _, report in run_fixed(cols, s=s)] == [2, 2]
    assert IncrementalExpState(np.eye(2), np.int32(1)).s == 1


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
    with pytest.raises(ValueError):
        # first column must not have a top part
        list(run_fixed([BlockColumn(np.ones((2, 1)), [[1.0]])], s=0))
    cols = random_columns(rng, (2,)) + [BlockColumn(np.ones((5, 1)), [[1.0]])]
    with pytest.raises(ValueError):
        list(run_fixed(cols, s=0))
    with pytest.raises(ValueError):
        IncrementalExpState(np.zeros((0, 0)), s=0)
    with pytest.raises(ValueError):
        IncrementalExpState(np.eye(2), s=-1)


@pytest.mark.parametrize(
    "sizes, where",
    [
        (None, "inside"),  # x zero above a row inside a panel
        (None, "boundary"),  # x zero above a panel boundary
        (None, "top"),  # c = 0
        (None, "zero"),  # all-zero x
        ((7,), "inside"),  # a single block
        ((7,), "top"),
        ((3, 5, 2), "inside"),  # fewer than four blocks
        ((3, 5, 2), "top"),
    ],
    ids=["inside", "boundary", "top", "zero", "single-inside", "single-top",
         "three-inside", "three-top"],
)
def test_panel_product_matches_dense_product(sizes, where):
    rng = np.random.default_rng(151)
    if sizes is None:
        sizes = tuple(int(b) for b in rng.integers(1, 6, 12))
    a = matrix_from_columns(random_columns(rng, sizes)).data
    d = a.shape[0]
    cuts = incremental._panel_cuts(Partition(sizes).offsets)
    assert cuts[0] == 0 and cuts[-1] == d and len(cuts) <= 5
    c = {"inside": cuts[1] - 1, "boundary": cuts[1], "top": 0, "zero": d}[where]
    if where == "inside":
        # the row falls strictly inside the first panel
        assert cuts[0] < c < cuts[1]
    x = rng.standard_normal((d, 3))
    x[:c] = 0.0
    assert rel_error_fro(incremental._panel_product(a, x, cuts, c), a @ x) <= 1e-14


def test_panel_product_skips_rows_known_zero():
    rng = np.random.default_rng(157)
    sizes = tuple(int(b) for b in rng.integers(1, 6, 12))
    a = matrix_from_columns(random_columns(rng, sizes)).data.copy()
    cuts = incremental._panel_cuts(Partition(sizes).offsets)
    c, r = cuts[2] + 1, cuts[1] + 1
    a[:r, c:] = 0.0
    x = rng.standard_normal((a.shape[0], 2))
    x[:c] = 0.0
    got = incremental._panel_product(a, x, cuts, c, r)
    assert rel_error_fro(got, a @ x) <= 1e-14
    assert not got[:r].any()


def test_zero_row_profile_of_generator():
    cols = list(generator_block_columns(jacobi_spec(JACOBI), max_degree=9, scale=0.25))
    state = IncrementalExpState(cols[0].diag, s=3)
    for col in cols[1:]:
        state.step(col)
    gt = state.unscaled_matrix()  # the zero pattern of the scaled cache
    d = gt.shape[0]
    first = [int(np.flatnonzero(gt[:, j])[0]) if gt[:, j].any() else j for j in range(d)]
    want = [min(first[c:]) for c in range(d)] + [d]
    assert state._lead.tolist() == want
    # the band: degree n reaches no lower than degree n - 2
    off = state.partition.offsets
    assert state._lead[off[9]] == off[7]


def test_memory_guard_raises_and_leaves_state(monkeypatch):
    rng = np.random.default_rng(163)
    cols = random_columns(rng, (3, 2), scale=0.5)
    state = IncrementalExpState(cols[0].diag, s=2)
    before = state.exponential.data
    # five caches of 5 x 5 doubles need 1000 bytes after the step
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: 999)
    with pytest.raises(MemoryError, match="1000 bytes.*999 bytes"):
        state.step(cols[1])
    assert state.dim == 3
    assert state.partition.sizes == (3,)
    assert np.array_equal(state.exponential.data, before)
    with pytest.raises(MemoryError):
        IncrementalExpState(np.eye(2), s=10**6)
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: 1000)
    state.step(cols[1])
    assert state.dim == 5


def _upper_block_mask(capacity, offsets):
    """True on the block upper triangle of the leading block of a buffer."""
    mask = np.zeros((capacity, capacity), dtype=bool)
    for r0, r1 in zip(offsets, offsets[1:]):
        mask[:r1, r0:r1] = True
    return mask


def test_caches_grow_in_place_reallocate_and_adopt(monkeypatch):
    rng = np.random.default_rng(179)
    sizes = tuple(int(b) for b in rng.integers(1, 4, 60))
    cols = random_columns(rng, sizes, scale=0.02)
    # one heavy column forces exactly one restart
    cols[30] = BlockColumn(100.0 * cols[30].top, 100.0 * cols[30].diag)

    seen = set()
    step = IncrementalExpState.step

    def checked_step(state, col):
        before = state._gt
        step(state, col)
        if before.size == 0:
            seen.add("adopt")
            assert state._gt is not before
        else:
            seen.add("in place" if state._gt is before else "reallocate")
        buffers = [state._gt, state._qinv, *state._squares]
        assert {buf.shape for buf in buffers} == {state._gt.shape}
        outside = ~_upper_block_mask(state._gt.shape[0], state.partition.offsets)
        for buf in buffers:
            assert not buf[outside].any()
        assert state.cache_bytes == sum(buf.nbytes for buf in buffers)

    monkeypatch.setattr(IncrementalExpState, "step", checked_step)
    held = list(run_adaptive(cols))
    monkeypatch.undo()

    assert seen == {"adopt", "in place", "reallocate"}
    assert [n for n, (_, r) in enumerate(held) if r.restart] == [30]
    fresh = [f.data.copy() for f, _ in run_adaptive(cols)]
    prev = None
    for (f, report), want in zip(held, fresh, strict=True):
        assert np.array_equal(f.data, want)
        assert report.cache_bytes >= (report.s + 3) * report.dim**2 * 8
        if prev is not None and not report.restart:
            assert np.array_equal(f.data[: prev.dim, : prev.dim], prev.data)
        prev = f
