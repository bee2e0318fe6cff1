import csv
import math

import numpy as np
import pytest

import blockexpm.cli as cli
import blockexpm.incremental as incremental
from blockexpm.bench import blas_threads
from blockexpm.blocks import BlockColumn, Partition, matrix_from_columns, write_column_stream
from blockexpm.cli import main
from blockexpm.dense import one_norm, read_matrix, read_partition, rel_error_fro, write_matrix
from blockexpm.generators import JacobiParams, build_generator_matrix, jacobi_spec
from blockexpm.incremental import run_fixed
from blockexpm.pade import THETA_13, expm_baseline
from blockexpm.pricing import PricingConfig, price_call

JACOBI_ARG = "kappa=0.5,theta=0.04,sigma=0.15,r=0,rho=-0.5,vmin=0.01,vmax=1"


def make_columns(rng, sizes, scale=0.5):
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


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_expm_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(31)
    g = rng.standard_normal((7, 7))
    src = tmp_path / "g.txt"
    dst = tmp_path / "f.txt"
    from blockexpm.dense import write_matrix

    write_matrix(src, g)
    assert main(["expm", "--in", str(src), "--out", str(dst)]) == 0
    assert "wrote 7x7 exponential" in capsys.readouterr().out
    assert np.array_equal(read_matrix(dst), expm_baseline(read_matrix(src)))


def test_expm_missing_file(tmp_path, capsys):
    rc = main(["expm", "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "f.txt")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_incremental_fixed_with_check(tmp_path, capsys):
    rng = np.random.default_rng(99)
    sizes = (3, 2, 4, 2)
    cols = make_columns(rng, sizes)
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, cols)
    emit = tmp_path / "out"
    rc = main(
        ["incremental", "--columns", str(stream), "--scaling", "fixed:5",
         "--emit", str(emit), "--check"]
    )
    assert rc == 0
    assert "emitted 4 exponentials" in capsys.readouterr().out

    rows = read_csv(emit / "steps.csv")
    assert list(rows[0]) == ["step", "dim", "s", "restart", "seconds", "rel_err_vs_baseline",
                             "cache_bytes", "power_seconds", "solve_seconds",
                             "squaring_seconds", "growth_seconds"]
    assert [int(r["step"]) for r in rows] == [0, 1, 2, 3]
    assert [int(r["dim"]) for r in rows] == [3, 5, 9, 11]
    assert all(int(r["s"]) == 5 for r in rows)
    assert all(r["restart"] == "0" for r in rows)
    assert all(float(r["rel_err_vs_baseline"]) <= 1e-10 for r in rows)

    # every emitted stage matches a from-scratch exponential
    full = matrix_from_columns(cols)
    off = full.partition.offsets
    for l in range(4):
        stage = read_matrix(emit / f"f_{l:04d}.txt")
        ref = expm_baseline(full.data[: off[l + 1], : off[l + 1]].copy())
        assert rel_error_fro(stage, ref) <= 1e-12


def test_incremental_steps_csv_has_cache_bytes_and_phase_seconds(tmp_path):
    # the step ledger carries every StepReport figure: the bytes the caches
    # hold and the four phases that split the step's seconds
    cols = make_columns(np.random.default_rng(7), (3, 2, 4))
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, cols)
    emit = tmp_path / "out"
    assert main(["incremental", "--columns", str(stream), "--scaling", "fixed:3",
                 "--emit", str(emit)]) == 0
    rows = read_csv(emit / "steps.csv")
    phases = ["power_seconds", "solve_seconds", "squaring_seconds", "growth_seconds"]
    assert list(rows[0])[-5:] == ["cache_bytes", *phases]
    reports = [r for _, r in run_fixed(cols, s=3)]
    assert [int(r["cache_bytes"]) for r in rows] == [r.cache_bytes for r in reports]
    for r in rows:
        split = [float(r[p]) for p in phases]
        assert all(t >= 0 for t in split)
        assert sum(split) <= float(r["seconds"]) + 1e-8  # printed to 1e-9


def test_incremental_adaptive_default(tmp_path):
    rng = np.random.default_rng(5)
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, make_columns(rng, (2, 3, 2)))
    emit = tmp_path / "out"
    assert main(["incremental", "--columns", str(stream), "--emit", str(emit)]) == 0
    rows = read_csv(emit / "steps.csv")
    assert len(rows) == 3
    assert all(r["rel_err_vs_baseline"] == "" for r in rows)


def test_incremental_bad_scaling(tmp_path, capsys):
    rng = np.random.default_rng(5)
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, make_columns(rng, (2, 2)))
    for scaling in ("fixed:-2", "naive"):
        rc = main(["incremental", "--columns", str(stream), "--scaling", scaling,
                   "--emit", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


def test_incremental_negative_block_count(tmp_path, capsys):
    stream = tmp_path / "cols.txt"
    stream.write_text("-2\n")
    rc = main(["incremental", "--columns", str(stream), "--emit", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "-2" in err[0]


def test_incremental_fixed_scaling_too_small(tmp_path, capsys):
    rng = np.random.default_rng(5)
    cols = make_columns(rng, (2, 3, 2), scale=4.0)
    assert one_norm(matrix_from_columns(cols).data) > THETA_13
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, cols)
    rc = main(["incremental", "--columns", str(stream), "--scaling", "fixed:0",
               "--emit", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "fixed scaling power s = 0 is too small" in err[0]


def test_incremental_stopped_run_keeps_its_report_rows(tmp_path, capsys):
    rng = np.random.default_rng(5)
    cols = make_columns(rng, (2, 2, 2))
    # the second column takes the 1-norm past THETA_13 * 2^2 = 21.49
    cols[1] = BlockColumn(cols[1].top, 30.0 * np.eye(2))
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, cols)
    emit = tmp_path / "out"
    rc = main(["incremental", "--columns", str(stream), "--scaling", "fixed:2",
               "--emit", str(emit)])
    assert rc == 2
    assert "fixed scaling power s = 2 is too small" in capsys.readouterr().err
    assert sorted(p.name for p in emit.iterdir()) == ["f_0000.txt", "steps.csv"]
    rows = read_csv(emit / "steps.csv")
    assert [(r["step"], r["dim"], r["s"]) for r in rows] == [("0", "2", "2")]


def test_incremental_check_computes_each_reference_with_its_stage(tmp_path, capsys,
                                                                 monkeypatch):
    # a run stopped by its norm check has computed one from-scratch
    # reference per stage it emitted, none for the stages it never reached
    rng = np.random.default_rng(5)
    cols = make_columns(rng, (2, 2, 2, 2))
    cols[2] = BlockColumn(cols[2].top, 30.0 * np.eye(2))  # past THETA_13 at s = 0
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, cols)
    dims = []

    def counting(a, s=None):
        dims.append(a.shape[0])
        return expm_baseline(a, s)

    monkeypatch.setattr(cli, "expm_baseline", counting)
    emit = tmp_path / "out"
    rc = main(["incremental", "--columns", str(stream), "--scaling", "fixed:0",
               "--emit", str(emit), "--check"])
    assert rc == 2
    assert "fixed scaling power s = 0 is too small" in capsys.readouterr().err
    rows = read_csv(emit / "steps.csv")
    assert [int(r["dim"]) for r in rows] == dims == [2, 4]
    assert all(float(r["rel_err_vs_baseline"]) <= 1e-12 for r in rows)


def test_incremental_memory_guard(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(5)
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, make_columns(rng, (2, 2)))
    monkeypatch.setattr(incremental, "_physical_memory_bytes", lambda: 100)
    rc = main(["incremental", "--columns", str(stream), "--scaling", "fixed:0",
               "--emit", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "physical memory" in err[0]


def test_generator_jacobi(tmp_path, capsys):
    out = tmp_path / "g.txt"
    part = tmp_path / "part.txt"
    rc = main(
        ["generator", "--model", "jacobi", "--params", JACOBI_ARG,
         "--degree", "2", "--out", str(out), "--partition-out", str(part)]
    )
    assert rc == 0
    assert "6x6 generator" in capsys.readouterr().out
    params = JacobiParams(kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5, vmin=0.01, vmax=1.0)
    g, partition = build_generator_matrix(jacobi_spec(params), 2)
    assert np.array_equal(read_matrix(out), g)
    assert read_partition(part) == partition == Partition((1, 2, 3))


def test_generator_heston(tmp_path):
    out = tmp_path / "g.txt"
    rc = main(
        ["generator", "--model", "heston",
         "--params", "kappa=0.5,theta=0.04,sigma=0.15,r=0.02,rho=-0.5",
         "--degree", "3", "--out", str(out)]
    )
    assert rc == 0
    assert read_matrix(out).shape == (10, 10)


def test_generator_errors(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    # missing vmax
    rc = main(["generator", "--model", "jacobi",
               "--params", "kappa=0.5,theta=0.04,sigma=0.15,r=0,rho=-0.5,vmin=0.01",
               "--degree", "2", "--out", out])
    assert rc == 2
    assert "missing parameters" in capsys.readouterr().err
    # unknown key
    rc = main(["generator", "--model", "jacobi", "--params", JACOBI_ARG + ",zeta=1",
               "--degree", "2", "--out", out])
    assert rc == 2
    assert "unknown parameter" in capsys.readouterr().err
    # duplicate key
    rc = main(["generator", "--model", "jacobi", "--params", JACOBI_ARG + ",kappa=1",
               "--degree", "2", "--out", out])
    assert rc == 2
    # negative degree
    rc = main(["generator", "--model", "jacobi", "--params", JACOBI_ARG,
               "--degree", "-1", "--out", out])
    assert rc == 2


def test_price_run(tmp_path, capsys):
    ledger = tmp_path / "ledger.csv"
    rc = main(
        ["price", "--params", JACOBI_ARG,
         "--y0", "0", "--v0", "0.04", "--tau", "0.25",
         "--logstrike", str(math.log(1.1)), "--muw", "0", "--sigmaw", "0.5",
         "--eps", "0.05", "--ledger", str(ledger)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("price ") and "converged" in out

    rows = read_csv(ledger)
    assert list(rows[0]) == ["n", "l_n", "f_n", "term", "partial_price", "cum_seconds",
                             "expm_seconds", "quad_seconds", "moment_seconds", "cache_bytes"]
    assert [int(r["n"]) for r in rows] == list(range(len(rows)))
    params = JacobiParams(kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5, vmin=0.01, vmax=1.0)
    res = price_call(
        PricingConfig(params=params, y0=0.0, v0=0.04, tau=0.25,
                      logstrike=math.log(1.1), muw=0.0, sigmaw=0.5, eps=0.05)
    )
    assert len(rows) == res.terminal_degree + 1
    assert float(rows[-1]["partial_price"]) == pytest.approx(res.price, rel=1e-12)
    assert [int(r["cache_bytes"]) for r in rows] == [r.cache_bytes for r in res.rows]
    for r in rows:
        spent = sum(float(r[k]) for k in ("expm_seconds", "quad_seconds", "moment_seconds"))
        assert float(r["moment_seconds"]) >= 0 and spent <= float(r["cum_seconds"])
    printed = float(out.split()[1])
    assert printed == pytest.approx(res.price, rel=1e-9)
    # s comes from the shifted Jacobi norm bound at the default --n-max of
    # 100, on the basis of monomials of (y / 16, v / 4)
    assert res.scaling == 3 and res.basis_scale == (-4, -2)
    assert f"s = 3, log2 basis scale (-4, -2), shift {res.shift:.6g}," in out
    # past n_max = 600 the basis backs off to the unscaled one, and the
    # summary line says so; the series still stops near degree 20
    rc = main(
        ["price", "--params", JACOBI_ARG,
         "--y0", "0", "--v0", "0.04", "--tau", "0.25",
         "--logstrike", str(math.log(1.1)), "--muw", "0", "--sigmaw", "0.5",
         "--eps", "0.05", "--n-max", "601", "--ledger", str(ledger)]
    )
    assert rc == 0
    assert ", log2 basis scale (0, 0)," in capsys.readouterr().out


def test_price_errors(tmp_path, capsys):
    ledger = str(tmp_path / "ledger.csv")
    base = ["--y0", "0", "--v0", "0.04", "--tau", "0.25", "--logstrike", "0.1",
            "--muw", "0", "--sigmaw", "0.5", "--ledger", ledger]
    # pricing is Jacobi only, so there is no model to choose
    with pytest.raises(SystemExit) as exc:
        main(["price", "--model", "heston", "--params", JACOBI_ARG] + base)
    assert exc.value.code == 2
    # price accepts no custom adaptive threshold
    rc = main(["price", "--params", JACOBI_ARG, "--scaling", "adaptive:4.0"] + base)
    assert rc == 2
    capsys.readouterr()
    # nor adaptive scaling at all: the series runs at one scaling power
    rc = main(["price", "--params", JACOBI_ARG, "--scaling", "adaptive"] + base)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: bad scaling 'adaptive', expected fixed:<s>"
    # nor a scaling power above what any finite matrix needs
    rc = main(["price", "--params", JACOBI_ARG, "--scaling", "fixed:1023", "--n-max", "2"]
              + base)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == (
        "error: scaling power 1023 is above 1022, the most any finite matrix needs")
    rc = main(["price", "--params", JACOBI_ARG, "--eps", "-1"] + base)
    assert rc == 2
    capsys.readouterr()
    # a payoff coefficient out of the float range is one error, not a
    # traceback (the last --sigmaw wins)
    rc = main(["price", "--params", JACOBI_ARG] + base + ["--sigmaw", "40"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: payoff coefficient f_0 overflows")
    # a diverging series is one error, not a meaningless price
    rc = main(["price", "--params", JACOBI_ARG.replace("kappa=0.5", "kappa=1").replace(
        "sigma=0.15", "sigma=0.5")] + base + ["--tau", "2", "--n-max", "20"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: the Hermite series for the weight N(0, 0.5^2) diverges")
    # a non-finite input is refused by name, not priced to nan
    rc = main(["price", "--params", JACOBI_ARG] + base + ["--y0", "nan"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0] == "error: y0 must be finite, got nan"


def test_model_keys_the_model_does_not_read_are_rejected(tmp_path, capsys):
    # tau is the --tau option, not a model parameter
    rc = main(["price", "--params", JACOBI_ARG + ",tau=5", "--y0", "0", "--v0", "0.04",
               "--tau", "0.25", "--logstrike", "0.1", "--muw", "0", "--sigmaw", "0.5",
               "--ledger", str(tmp_path / "ledger.csv")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown parameter 'tau'")
    # the Heston model has no variance bounds
    rc = main(["generator", "--model", "heston",
               "--params", "kappa=0.5,theta=0.04,sigma=0.15,r=0.02,rho=-0.5,vmin=0.3,vmax=9",
               "--degree", "2", "--out", str(tmp_path / "g.txt")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown parameter 'vmin'")


def test_degree_and_threshold_are_not_options(tmp_path, capsys):
    # degree 13 and THETA_13 are fixed; setting either must fail, not be ignored
    src = tmp_path / "g.txt"
    write_matrix(src, np.eye(2))
    for flag, value in (("--degree", "3"), ("--theta", "60")):
        with pytest.raises(SystemExit) as exc:
            main(["expm", "--in", str(src), "--out", str(tmp_path / "f.txt"), flag, value])
        assert exc.value.code == 2
    capsys.readouterr()
    stream = tmp_path / "cols.txt"
    write_column_stream(stream, make_columns(np.random.default_rng(5), (2, 2)))
    rc = main(["incremental", "--columns", str(stream), "--scaling", "adaptive:4.0",
               "--emit", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bench_run(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc = main(
        ["bench", "--seed", "3", "--blocks", "4", "--bmin", "2", "--bmax", "4",
         "--spectrum", "-80:-0.5", "--cond", "20",
         "--methods", "naive,fixed:5,adaptive", "--check", "--repeats", "1",
         "--out", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "total seconds" in printed
    # the BLAS thread count is read back from the loaded libraries
    threads = blas_threads()
    assert threads is None or threads >= 1
    assert f"; BLAS threads {threads}; " in printed
    rows = read_csv(out)
    assert list(rows[0]) == ["method", "step", "dim", "cum_seconds", "rel_err", "restart"]
    assert len(rows) == 3 * 4
    methods = {r["method"] for r in rows}
    assert methods == {"naive", "fixed:5", "adaptive"}
    assert all(float(r["rel_err"]) <= 1e-10 for r in rows)
    assert all(r["restart"] in ("0", "1") for r in rows)


def test_bench_fixed_scaling_too_small(tmp_path, capsys):
    # the instance of test_bench_run has ||G||_1 = 88.50 > THETA_13 * 2^4
    rc = main(
        ["bench", "--seed", "3", "--blocks", "4", "--bmin", "2", "--bmax", "4",
         "--spectrum", "-80:-0.5", "--cond", "20", "--methods", "fixed:4",
         "--repeats", "1", "--out", str(tmp_path / "bench.csv")]
    )
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "s = 4 is too small, the matrix needs s >= 5" in err[0]


def test_bench_spectrum_equals_form(tmp_path):
    out = tmp_path / "bench.csv"
    rc = main(
        ["bench", "--seed", "3", "--blocks", "2", "--bmin", "2", "--bmax", "3",
         "--spectrum=-9:-1", "--cond", "15", "--methods", "adaptive",
         "--repeats", "1", "--out", str(out)]
    )
    assert rc == 0
    assert len(read_csv(out)) == 2


def test_bench_errors(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--seed", "1", "--blocks", "2", "--bmin", "2", "--bmax", "3",
               "--spectrum", "abc", "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    rc = main(["bench", "--seed", "1", "--blocks", "2", "--bmin", "2", "--bmax", "3",
               "--spectrum", "-0.5:-80", "--out", out])
    assert rc == 2
