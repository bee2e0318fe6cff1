import csv
import weakref

import numpy as np
import pytest

from blockexpm import bench
from blockexpm.bench import (
    BenchRecord,
    MethodSpec,
    RandomInstanceSpec,
    eigenvector_condition,
    generate_instance,
    parse_method,
    run_benchmark,
    write_bench_csv,
)

EPS = float(np.finfo(np.float64).eps)


def tiny_spec(**overrides):
    kw = dict(seed=42, nblocks=5, bmin=3, bmax=6, cond_target=50.0)
    kw.update(overrides)
    return RandomInstanceSpec(**kw)


def test_spec_validation():
    tiny_spec()
    for bad in (
        dict(nblocks=0),
        dict(bmin=0),
        dict(bmin=5, bmax=4),
        dict(spectrum=(-0.5, -80.0)),
        dict(cond_target=1.0),
    ):
        with pytest.raises(ValueError):
            tiny_spec(**bad)


def test_eigenvector_condition_diagonal():
    t = np.diag([-3.0, -2.0, -1.0, -0.5])
    assert eigenvector_condition(t) == pytest.approx(1.0, rel=1e-14)


def test_eigenvector_condition_at_least_one():
    rng = np.random.default_rng(7)
    for _ in range(5):
        t = np.triu(rng.uniform(-1, 1, (8, 8)))
        t[np.diag_indices(8)] = rng.uniform(-9, -1, 8)
        assert eigenvector_condition(t) >= 1.0 - 1e-12


def test_generate_instance_deterministic():
    a = generate_instance(tiny_spec())
    b = generate_instance(tiny_spec())
    assert a.partition.sizes == b.partition.sizes
    assert np.array_equal(a.data, b.data)
    c = generate_instance(tiny_spec(seed=43))
    assert not np.array_equal(a.data, c.data)


def test_generate_instance_contract():
    spec = tiny_spec(seed=11, nblocks=8, bmin=2, bmax=7, spectrum=(-80.0, -0.5))
    m = generate_instance(spec)
    assert m.nblocks == 8
    assert all(2 <= b <= 7 for b in m.partition.sizes)
    assert m.dim == sum(m.partition.sizes)
    diag = np.diag(m.data)
    assert np.all(diag >= -80.0) and np.all(diag <= -0.5)
    # strictly lower part is empty
    assert np.count_nonzero(np.tril(m.data, -1)) == 0
    # conditioning proxy lands within a factor two of the target
    cond = eigenvector_condition(m.data)
    assert spec.cond_target / 2 <= cond <= 2 * spec.cond_target


def test_generate_instance_degenerate():
    spec = RandomInstanceSpec(
        seed=0, nblocks=1, bmin=1, bmax=1, spectrum=(-1.0, -1.0), cond_target=1.5
    )
    m = generate_instance(spec)
    assert np.array_equal(m.data, [[-1.0]])
    # a 1x1 instance cannot reach a large conditioning target
    with pytest.raises(RuntimeError):
        generate_instance(
            RandomInstanceSpec(
                seed=0, nblocks=1, bmin=1, bmax=1, spectrum=(-1.0, -1.0), cond_target=100.0
            )
        )


def test_parse_method():
    assert parse_method("naive") == MethodSpec(name="naive", kind="naive")
    m = parse_method("fixed:6")
    assert (m.kind, m.s) == ("fixed", 6)
    assert parse_method("adaptive") == MethodSpec(name="adaptive", kind="adaptive")
    assert parse_method("fixed:1022").s == 1022
    for bad in ("fixed", "fixed:-1", "fixed:1023", "fixed:x", "adaptive:0", "adaptive:4.0",
                "naive:2", "turbo", "adaptive:1:2"):
        with pytest.raises(ValueError):
            parse_method(bad)


def test_run_benchmark_checked():
    m = generate_instance(tiny_spec())
    methods = ["naive", "fixed:6", "adaptive"]
    records = run_benchmark(m, methods, check=True, repeats=2)
    assert len(records) == len(methods) * m.nblocks
    by_method = {name: [r for r in records if r.method == name] for name in methods}
    offsets = m.partition.offsets
    for name, rows in by_method.items():
        assert [r.step for r in rows] == list(range(m.nblocks))
        assert [r.dim for r in rows] == [offsets[l + 1] for l in range(m.nblocks)]
        secs = [r.cum_seconds for r in rows]
        assert all(b >= a for a, b in zip(secs, secs[1:]))
        for r in rows:
            # error floor is machine epsilon by contract
            assert r.rel_err >= EPS
            assert r.rel_err <= 1e-10
    # the naive method is its own reference, so it sits exactly on the floor
    assert all(r.rel_err == EPS for r in by_method["naive"])
    # only the adaptive method may ever restart
    assert not any(r.restart for r in by_method["naive"] + by_method["fixed:6"])


def test_run_benchmark_check_holds_one_reference_at_a_time(monkeypatch):
    # each stage's reference is computed where the stage is compared and
    # dropped after it, so no earlier reference is alive when the next one
    # is computed: the check holds one, not one per stage
    m = generate_instance(tiny_spec())
    made, live_at_call = [], []
    baseline = bench.expm_baseline

    def tracked(a, s=None):
        live_at_call.append(sum(ref() is not None for ref in made))
        f = baseline(a, s)
        made.append(weakref.ref(f))
        return f

    monkeypatch.setattr(bench, "expm_baseline", tracked)
    records = run_benchmark(m, ["fixed:6", "adaptive"], check=True, repeats=2)
    # one reference per method and stage, in the first run only
    assert len(made) == 2 * m.nblocks
    assert live_at_call == [0] * len(made)
    assert all(EPS <= r.rel_err <= 1e-10 for r in records)


def test_run_benchmark_unchecked_and_errors():
    m = generate_instance(tiny_spec(nblocks=3))
    records = run_benchmark(m, ["adaptive"], check=False, repeats=1)
    assert all(r.rel_err is None for r in records)
    with pytest.raises(ValueError):
        run_benchmark(m, ["adaptive"], repeats=0)
    with pytest.raises(ValueError):
        run_benchmark(m, ["warp"], repeats=1)


def test_write_bench_csv(tmp_path):
    records = [
        BenchRecord(method="naive", step=0, dim=4, cum_seconds=0.25, rel_err=1e-14, restart=False),
        BenchRecord(method="adaptive", step=1, dim=9, cum_seconds=0.5, rel_err=None, restart=True),
    ]
    path = tmp_path / "bench.csv"
    write_bench_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,step,dim,cum_seconds,rel_err,restart"
    assert len(lines) == 3
    rows = list(csv.DictReader(lines))
    assert rows[0]["method"] == "naive"
    assert int(rows[0]["step"]) == 0
    assert int(rows[0]["dim"]) == 4
    assert float(rows[0]["cum_seconds"]) == pytest.approx(0.25)
    assert float(rows[0]["rel_err"]) == pytest.approx(1e-14)
    assert rows[0]["restart"] == "0"
    assert rows[1]["rel_err"] == ""
    assert rows[1]["restart"] == "1"
