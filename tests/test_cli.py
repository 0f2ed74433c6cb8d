import csv
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from spectrace import cli, estimators, linalg, montecarlo, theory
from spectrace.cli import main
from spectrace.estimators import jackknife_estimate, make_scheme, plugin_estimate
from spectrace.functions import builtin
from spectrace.linalg import (
    CovarianceModel,
    load_samples_csv,
    sample_gaussian,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def result_line(out):
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    assert len(lines) == 1
    fields = {}
    for part in lines[0][len("RESULT "):].split():
        k, _, v = part.partition("=")
        fields[k] = v
    return fields


def test_estimate_plugin_matches_library(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--model", "identity:4", "--f", "square",
        "--n", "50", "--seed", "77", "--out", str(tmp_path),
    )
    assert code == 0
    fields = result_line(out)
    x = sample_gaussian(CovarianceModel.identity(4), 50, 77)
    expect = plugin_estimate(builtin("square"), x)
    assert float(fields["estimate"]) == expect
    assert fields["mode"] == "plugin"
    assert (tmp_path / "config.resolved").is_file()


def test_estimate_jackknife_deterministic(tmp_path, capsys):
    args = (
        "estimate", "--model", "identity:5", "--f", "log1p", "--mode", "jackknife",
        "--m", "2", "--subsets", "6", "--n", "64", "--seed", "3",
        "--out", str(tmp_path),
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert result_line(out1) == result_line(out2)
    x = sample_gaussian(CovarianceModel.identity(5), 64, 3)
    expect = jackknife_estimate(
        builtin("log1p"), x, make_scheme(2, 64, 2.0), subsets_per_level=6, seed=3
    )
    assert float(result_line(out1)["estimate"]) == expect


def test_estimate_from_data_csv(tmp_path, capsys):
    samples = sample_gaussian(CovarianceModel.from_values([2.0, 1.0]), 30, 5)
    path = tmp_path / "data.csv"
    np.savetxt(path, samples.data, delimiter=",", fmt="%.17g", header="x0,x1", comments="")
    code, out, _ = run_cli(
        capsys, "estimate", "--data", str(path), "--f", "log1p",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0
    loaded = load_samples_csv(path)
    assert float(result_line(out)["estimate"]) == plugin_estimate(builtin("log1p"), loaded)


def test_estimate_scheme_collision_exits_2_before_any_output(tmp_path, capsys):
    # the gate builds the scheme at the run's n, so neither error reaches the run
    for n, q, word in (("3", "2", "too small"), ("5", "1.1", "collide")):
        out = tmp_path / n
        code, stdout, err = run_cli(
            capsys, "estimate", "--model", "identity:4", "--f", "log1p",
            "--mode", "aggregate", "--m", "3", "--n", n, "--q", q,
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert word in err and "increase n or decrease q" in err
        assert stdout == "" and not out.exists()


@pytest.mark.parametrize("mode", ["plugin", "jackknife"])
def test_estimate_on_overflowing_data_exits_3_without_result(tmp_path, capsys, mode):
    # finite entries whose squares overflow: the Gram is not finite
    data = tmp_path / "big.csv"
    data.write_text("1e200,2e200\n-1e200,3e200\n2e200,1e200\n")
    code, out, err = run_cli(
        capsys, "estimate", "--data", str(data), "--f", "identity", "--mode", mode,
        "--m", "2", "--q", "1.5", "--subsets", "4", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 3
    assert "sample covariance overflows" in err
    assert "RESULT" not in out and "estimate:" not in out


@pytest.mark.parametrize("mode", ["plugin", "aggregate", "jackknife"])
def test_estimate_on_data_whose_gram_is_finite_near_the_top_of_the_range(
    tmp_path, capsys, mode
):
    # every entry of X'X / k is finite (up to 5.05e307 for the first two
    # rows) though X'X + (X'X)' is not: no level may report an overflow
    data = tmp_path / "near.csv"
    data.write_text("1e154,5e153\n1e153,1e153\n0,1e153\n")
    code, out, err = run_cli(
        capsys, "estimate", "--data", str(data), "--f", "identity", "--mode", mode,
        "--m", "2", "--q", "1.5", "--subsets", "4", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0, err
    assert np.isfinite(float(result_line(out)["estimate"]))


@pytest.mark.parametrize("mode", ["plugin", "jackknife"])
def test_estimate_on_overflowing_data_below_d_exits_3_without_result(tmp_path, capsys, mode):
    # 3 rows in 5 dimensions: every level takes the dual Gram, which overflows
    data = tmp_path / "big_wide.csv"
    data.write_text("1e200,2e200,0,1,-3e200\n-1e200,3e200,1,0,2e200\n"
                    "2e200,1e200,1,1,1e200\n")
    code, out, err = run_cli(
        capsys, "estimate", "--data", str(data), "--f", "identity", "--mode", mode,
        "--m", "2", "--q", "1.5", "--subsets", "4", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 3
    assert "sample covariance overflows" in err
    assert "RESULT" not in out and "estimate:" not in out


def test_normality_with_an_overflowing_error_moment_exits_3_without_result(tmp_path, capsys):
    # the limit scale is finite at eigenvalues 1e300, the spread of the estimates is not
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "normality", "--model", "custom:1e300,1e300", "--f", "identity",
            "--n", "50", "--reps", "200", "--seed", "3", "--out", str(tmp_path),
        )
    assert code == 3
    assert "std of the 200 estimates overflows" in err
    assert "RESULT" not in out
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("argv", [
    ("normality", "--reps", "200"),
    ("estimate",),
])
def test_a_test_function_overflowing_at_the_eigenvalues_exits_3_without_result(
    tmp_path, capsys, argv
):
    # f = square is not finite at eigenvalues 1e200, so neither is its trace
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, *argv, "--model", "custom:1e200,1e200", "--f", "square",
            "--n", "50", "--seed", "3", "--out", str(tmp_path),
        )
    assert code == 3
    assert "tau_f of square is not finite" in err
    assert "RESULT" not in out
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_estimate_whose_level_sum_overflows_exits_3_without_result(tmp_path, capsys):
    # each subset's tau_f is finite, twice the full-sample one is not
    data = tmp_path / "big.csv"
    np.savetxt(data, 1.1e77 * np.random.default_rng(1).standard_normal((400, 1)),
               fmt="%.17g")
    code, out, err = run_cli(
        capsys, "estimate", "--data", str(data), "--f", "square", "--mode", "jackknife",
        "-B", "20", "--seed", "3", "--out", str(tmp_path),
    )
    assert code == 3
    assert "level sum of tau_f of square overflows" in err
    assert "RESULT" not in out and "estimate:" not in out


def test_normality_with_a_zero_limit_scale_exits_3_and_plugin_scale_runs(
    tmp_path, capsys
):
    # f'(1) = 0 for this bump, so the oracle scale at the identity is zero
    base = ("normality", "--model", "identity:5", "--f", "bump:1.0:0.5", "--n", "50",
            "--reps", "200", "--seed", "3", "--out", str(tmp_path))
    code, out, err = run_cli(capsys, *base)
    assert code == 3
    assert "limit scale of bump:1.0:0.5 is 0.0" in err
    assert "RESULT" not in out
    code, out, _ = run_cli(capsys, *base, "--standardize", "plugin")
    assert code == 0
    assert all(np.isfinite(float(result_line(out)[k]))
               for k in ("ks", "w1", "standardized_var"))


def test_normality_below_its_replicate_floor_exits_3(tmp_path, capsys):
    # the floor is the run's own check, so it fails after config.resolved
    code, out, err = run_cli(
        capsys, "normality", "--model", "identity:3", "--f", "log1p", "--n", "50",
        "--reps", "199", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 3 and "needs >= 200 replications, got 199" in err
    assert "RESULT" not in out


def test_estimate_source_conflicts_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--f", "log1p", "--seed", "1", "--out", str(tmp_path)
    )
    assert code == 2 and "model or data" in err
    data = tmp_path / "d.csv"
    np.savetxt(data, np.eye(3), delimiter=",", fmt="%.17g")
    code, _, err = run_cli(
        capsys, "estimate", "--model", "identity:3", "--data", str(data),
        "--f", "log1p", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 2 and "model or data" in err
    code, _, err = run_cli(
        capsys, "estimate", "--data", str(data), "--f", "log1p", "--n", "3",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 2 and "conflicts" in err


def test_missing_seed_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--model", "identity:3", "--f", "log1p",
        "--n", "10", "--out", str(tmp_path),
    )
    assert code == 2
    assert "seed" in err


def test_bad_function_name_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--model", "identity:3", "--f", "sigmoid",
        "--n", "10", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 2
    assert "unknown" in err


def test_coeffs_oracle(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--m", "3", "--n", "400", "--q", "2", "--out", str(tmp_path)
    )
    assert code == 0
    fields = result_line(out)
    assert fields["sizes"] == "100,200,400"
    coeffs = [float(v) for v in fields["coeffs"].split(",")]
    assert np.allclose(coeffs, [1 / 3, -2.0, 8 / 3])
    assert "cancellation l=1" in out


def test_config_file_layering_and_override(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "# comment line\n"
        "model=identity:4\n"
        "f=square\n"
        "n=50\n"
        "seed=77\n"
        f"out={tmp_path}\n"
    )
    code, out, _ = run_cli(capsys, "estimate", "--config", str(cfgfile))
    assert code == 0
    base = float(result_line(out)["estimate"])
    # flag overrides the file seed, changing the draw
    code, out, _ = run_cli(capsys, "estimate", "--config", str(cfgfile), "--seed", "78")
    assert code == 0
    assert float(result_line(out)["estimate"]) != base
    resolved = (tmp_path / "config.resolved").read_text()
    assert "seed=78" in resolved and "command=estimate" in resolved


def test_config_resolved_reruns_identically(tmp_path, capsys):
    out1 = tmp_path / "a"
    code, out, _ = run_cli(
        capsys, "estimate", "--model", "identity:4", "--f", "log1p",
        "--mode", "aggregate", "--m", "2", "--n", "40", "--seed", "9",
        "--out", str(out1),
    )
    assert code == 0
    code, out2, _ = run_cli(capsys, "estimate", "--config", str(out1 / "config.resolved"))
    assert code == 0
    assert result_line(out) == result_line(out2)


def test_config_file_rejects_unknown_key_and_wrong_command(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model=identity:3\nf=log1p\nn=10\nseed=1\nbogus=1\n")
    code, _, err = run_cli(capsys, "estimate", "--config", str(bad))
    assert code == 2 and "bogus" in err
    mismatched = tmp_path / "mismatch.cfg"
    mismatched.write_text("command=coeffs\nm=2\nn=100\n")
    code, _, err = run_cli(capsys, "estimate", "--config", str(mismatched))
    assert code == 2 and "coeffs" in err


def test_mp_compare_is_close_to_the_law(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "mp-compare", "--d", "100", "--n", "200",
        "--seed", "12", "--out", str(tmp_path),
    )
    assert code == 0
    assert err == ""
    ks = float(result_line(out)["ks"])
    assert ks < 0.12
    csvs = list(tmp_path.glob("mp_compare_*.csv"))
    assert len(csvs) == 1
    header, *rows = csvs[0].read_text().splitlines()
    assert header == "eigenvalue,esd_cdf,mp_cdf"
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert ks == theory.esd_mp_ks(table[:, 0], 0.5)
    assert np.array_equal(table[:, 2], theory.mp_cdf(0.5, table[:, 0]))


def test_mp_compare_takes_its_ratio_from_d_over_n(tmp_path, capsys):
    # 70/150 is not dyadic: the law's ratio is the double d / n, not a rounded flag
    code, out, _ = run_cli(
        capsys, "mp-compare", "--d", "70", "--n", "150", "--seed", "3",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert result_line(out)["gamma"] == repr(70 / 150)
    csv_path = next(tmp_path.glob("mp_compare_*.csv"))
    table = np.array([[float(v) for v in row.split(",")]
                      for row in csv_path.read_text().splitlines()[1:]])
    assert np.array_equal(table[:, 2], theory.mp_cdf(70 / 150, table[:, 0]))
    assert "gamma" not in (tmp_path / "config.resolved").read_text()


def test_mp_compare_refuses_a_gamma_flag_or_key(tmp_path, capsys):
    cfgfile = tmp_path / "old.cfg"
    cfgfile.write_text("command=mp-compare\ngamma=0.5\nd=100\nn=200\nseed=1\n")
    out = tmp_path / "out"
    for argv in (("--gamma", "0.5", "--d", "100", "--n", "200", "--seed", "1"),
                 ("--config", str(cfgfile))):
        code, stdout, err = run_cli(capsys, "mp-compare", *argv, "--out", str(out))
        assert code == 2 and "gamma" in err
        assert stdout == "" and not out.exists()


def test_mp_compare_above_gamma_one_reads_the_padded_dual_spectrum(tmp_path, capsys):
    # d = 120 > n = 60: the spectrum is gram_spectra's 60 dual eigenvalues,
    # after the d - n null ones that mp-compare adds as exact zeros, the
    # law's atom at 0
    code, _, _ = run_cli(
        capsys, "mp-compare", "--d", "120", "--n", "60",
        "--seed", "13", "--out", str(tmp_path),
    )
    assert code == 0
    csv = next(tmp_path.glob("mp_compare_*.csv")).read_text().splitlines()[1:]
    got = np.array([float(line.split(",")[0]) for line in csv])
    x = linalg.sample_gaussian(linalg.CovarianceModel.identity(120), 60, 13)
    expect = np.concatenate([np.zeros(60), np.sort(linalg.gram_spectra(x.data))])
    assert np.array_equal(got, expect)
    assert (got[:60] == 0.0).all() and (got[60:] > 0.0).all()


@pytest.mark.parametrize("gamma", [2, 4])
def test_mp_compare_above_gamma_one_reports_the_bulk_gap(tmp_path, capsys, gamma):
    # fixed before the first run: the d - n null eigenvalues meet the law's
    # atom exactly, so the KS is the bulk's gap, a few hundredths at n = 100,
    # not the 1 - 1/gamma (0.5, 0.75) read with F(0-) taken as F(0)
    d, n = 100 * gamma, 100
    code, out, _ = run_cli(
        capsys, "mp-compare", "--d", str(d), "--n", str(n),
        "--seed", "4", "--out", str(tmp_path),
    )
    assert code == 0
    ks = float(result_line(out)["ks"])
    assert ks <= 0.05
    csv = next(tmp_path.glob("mp_compare_*.csv")).read_text().splitlines()[1:]
    table = np.array([[float(v) for v in line.split(",")] for line in csv])
    lam = table[:, 0]
    assert lam.size == d and ks == theory.esd_mp_ks(lam, gamma)
    assert np.array_equal(table[:, 2], theory.mp_cdf(gamma, lam))


def test_mp_compare_scale_preconditions(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "mp-compare", "--d", "10", "--n", "200",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 2
    assert "d >= 50" in err


def test_rates_smoke(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "rates", "--model", "identity:4", "--f", "identity",
        "--mode", "plugin", "--n-list", "50,100,200", "--reps", "120",
        "--seed", "22", "--out", str(tmp_path),
    )
    assert code == 0
    slope = float(result_line(out)["slope"])
    assert -0.9 < slope < -0.1
    assert list(tmp_path.glob("rates_*.csv"))
    assert len(list(tmp_path.glob("experiment_*_replicates.csv"))) == 3


def test_normality_smoke_and_rerun_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = (
        "normality", "--model", "identity:3", "--f", "identity",
        "--mode", "plugin", "--n", "100", "--reps", "200", "--seed", "33",
    )
    code, out, _ = run_cli(capsys, *args, "--out", str(out1))
    assert code == 0
    assert float(result_line(out)["ks"]) < 0.15
    assert list(out1.glob("experiment_*_qq.csv"))
    # rerun from the echoed config with a different worker count
    code, _, _ = run_cli(
        capsys, "normality", "--config", str(out1 / "config.resolved"),
        "--out", str(out2), "--workers", "2",
    )
    assert code == 0
    for name in [p.name for p in out1.glob("experiment_*.csv")]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_supnorm_smoke(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "supnorm", "--model", "identity:4", "--mode", "aggregate",
        "--m", "2", "--n", "60", "--reps", "40", "--grid-size", "3",
        "--seed", "44", "--out", str(tmp_path),
    )
    assert code == 0
    assert float(result_line(out)["max_error_mean"]) > 0
    grid_csvs = list(tmp_path.glob("supnorm_*_grid.csv"))
    err_csvs = list(tmp_path.glob("supnorm_*_errors.csv"))
    assert grid_csvs and err_csvs
    lines = err_csvs[0].read_text().strip().splitlines()
    assert lines[0] == "name,truth,mean_abs_error"
    assert len(lines) == 4


def test_supnorm_output_names_and_bytes_ignore_workers(tmp_path, capsys):
    args = (
        "supnorm", "--model", "identity:4", "--mode", "jackknife", "--m", "2",
        "-B", "3", "--n", "60", "--reps", "6", "--grid-size", "3", "--seed", "45",
    )
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    code1, _, _ = run_cli(capsys, *args, "--workers", "1", "--out", str(out1))
    code2, _, _ = run_cli(capsys, *args, "--workers", "2", "--out", str(out2))
    assert code1 == code2 == 0
    names = sorted(p.name for p in out1.glob("supnorm_*"))
    assert len(names) == 2
    assert names == sorted(p.name for p in out2.glob("supnorm_*"))
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# columns that hold text; every other cell of every table is a number
TEXT_COLUMNS = {"name", "parameters", "metric"}


def test_every_table_is_crlf_csv_with_a_header_and_numbers_that_parse(tmp_path, capsys):
    common = ("--model", "identity:3", "--seed", "5", "--out", str(tmp_path))
    for argv in (
        ("normality", "--f", "log1p", "--n", "40", "--reps", "200"),
        ("rates", "--f", "log1p", "--n-list", "20,40,80", "--reps", "20"),
        ("supnorm", "--m", "2", "--n", "40", "--reps", "5", "--grid-size", "3"),
    ):
        assert run_cli(capsys, *argv, *common)[0] == 0
    assert run_cli(capsys, "mp-compare", "--d", "50", "--n", "100",
                   "--seed", "5", "--out", str(tmp_path))[0] == 0
    paths = sorted(tmp_path.glob("*.csv"))
    # replicates, summary and qq of normality, two per rates level, one rates
    # table, supnorm's grid and errors, and one mp-compare table
    assert len(paths) == 3 + 6 + 1 + 2 + 1
    problems = []
    for path in paths:
        data = path.read_bytes()
        if not data.endswith(b"\r\n") or data.count(b"\n") != data.count(b"\r\n"):
            problems.append(f"{path.name}: a line does not end in CRLF")
        with path.open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        if not rows or not all(column.isidentifier() for column in header):
            problems.append(f"{path.name}: no header row and data rows")
        for row in rows:
            for column, cell in zip(header, row, strict=True):
                if column in TEXT_COLUMNS or (column == "se" and cell == ""):
                    continue
                try:
                    float(cell)
                except ValueError:
                    problems.append(f"{path.name}: {column} cell {cell!r}")
    assert problems == []


def test_estimate_eigendecomposes_once_per_engine_spectrum(
    tmp_path, capsys, monkeypatch
):
    # the effective-rank line reads the engine's full-sample spectrum;
    # counted in spectra, the rows sym_eigvalues returns
    spectra = []
    real = linalg.sym_eigvalues

    def counted(a):
        lam = real(a)
        spectra.append(lam.size // lam.shape[-1])
        return lam

    for mod in (linalg, estimators, montecarlo, theory, cli):
        if getattr(mod, "sym_eigvalues", None) is real:
            monkeypatch.setattr(mod, "sym_eigvalues", counted)
    base = ("estimate", "--model", "identity:6", "--f", "log1p", "--n", "64",
            "--m", "3", "-B", "5", "--seed", "8", "--out", str(tmp_path))
    for mode, expect in (("plugin", 1), ("aggregate", 3), ("jackknife", 1 + 5 * 2)):
        spectra.clear()
        code, out, _ = run_cli(capsys, *base, "--mode", mode)
        assert code == 0 and "sample effective rank" in out
        assert sum(spectra) == expect, mode


def test_each_command_builds_its_inputs_once(tmp_path, capsys, monkeypatch):
    calls = {}

    def counted(name, real):
        def build(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return build

    for name in ("_experiment_config", "builtin", "parse_model", "default_grid",
                 "level_plan", "make_scheme"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    data = tmp_path / "data.csv"
    data.write_text("1,2\n3,4\n5,7\n2,1\n")
    model = ("--model", "identity:3", "--seed", "1")
    experiment = {"_experiment_config": 1, "parse_model": 1, "builtin": 1}
    for argv, built in [
        (("estimate", *model, "--f", "log1p", "--n", "40"),
         {"parse_model": 1, "builtin": 1, "level_plan": 1}),
        (("estimate", "--data", str(data), "--f", "log1p", "--seed", "1"),
         {"builtin": 1, "level_plan": 1}),
        (("coeffs", "--m", "2", "--n", "100"), {"make_scheme": 1}),
        (("rates", *model, "--f", "square", "--n-list", "20,40,80", "--reps", "3"),
         experiment),
        (("normality", *model, "--f", "log1p", "--n", "40", "--reps", "200"), experiment),
        (("supnorm", *model, "--n", "40", "--reps", "2", "--grid-size", "2"),
         {"_experiment_config": 1, "parse_model": 1, "default_grid": 1}),
        (("mp-compare", "--d", "50", "--n", "50", "--seed", "1"), {}),
    ]:
        calls.clear()
        code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / argv[0]))
        assert code == 0, err
        assert calls == built, argv


def test_estimate_on_an_all_zero_model_reports_without_a_rate_budget(tmp_path, capsys):
    # the model's effective rank, which the rate budget needs, is undefined at 0
    code, out, err = run_cli(
        capsys, "estimate", "--model", "custom:0,0", "--f", "log1p", "--n", "5",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0 and err == ""
    assert result_line(out)["estimate"] == "0.0"
    assert "model value: 0.0" in out
    assert "rate budget" not in out and "effective rank" not in out


def test_supnorm_grid_seed_is_not_a_replicate_or_subset_seed(
    tmp_path, capsys, monkeypatch
):
    grid_seeds, sample_seeds, subset_seeds = [], [], []
    real_grid = cli.default_grid
    real_sample = montecarlo.sample_gaussian
    real_levels = montecarlo.level_spectra

    def grid(m, size, seed):
        grid_seeds.append(seed)
        return real_grid(m, size, seed)

    def sample(model, n, seed, out=None):
        sample_seeds.append(seed)
        return real_sample(model, n, seed, out=out)

    def levels(samples, scheme, subsets, seed):
        subset_seeds.append(seed)
        return real_levels(samples, scheme, subsets, seed)

    monkeypatch.setattr(cli, "default_grid", grid)
    monkeypatch.setattr(montecarlo, "sample_gaussian", sample)
    monkeypatch.setattr(montecarlo, "level_spectra", levels)
    code, _, _ = run_cli(
        capsys, "supnorm", "--model", "identity:4", "--mode", "jackknife",
        "--m", "2", "-B", "3", "--n", "60", "--reps", "5", "--grid-size", "3",
        "--seed", "44", "--out", str(tmp_path),
    )
    assert code == 0
    assert len(grid_seeds) == 1
    assert len(set(sample_seeds)) == len(set(subset_seeds)) == 5
    assert grid_seeds[0] not in set(sample_seeds) | set(subset_seeds)


def test_seed_streams_of_jackknife_runs_are_pairwise_distinct(
    tmp_path, capsys, monkeypatch
):
    subset_seeds = {linalg.derive_seed(45, i, linalg.Stream.SUBSET) for i in range(200)}
    # every entropy list a run derives a seed or a generator from
    entropies = []
    real = linalg._entropy

    def recorded(parts):
        entropy = real(parts)
        entropies.append(tuple(entropy))
        return entropy

    monkeypatch.setattr(linalg, "_entropy", recorded)
    common = ("--model", "identity:3", "--mode", "jackknife", "--m", "3", "-B", "2",
              "--seed", "45", "--out", str(tmp_path))
    runs = {"normality": (200, ("--f", "log1p", "--n", "40")),
            "supnorm": (5, ("--grid-size", "3", "--n", "40")),
            "rates": (5, ("--f", "log1p", "--n-list", "40,80,160"))}
    for command, (reps, extra) in runs.items():
        entropies.clear()
        code, _, _ = run_cli(capsys, command, *common, "--reps", str(reps), *extra)
        assert code == 0, command
        assert len(set(entropies)) == len(entropies), command
        if command == "rates":
            # size n runs on master (45, n, RATE), never on (45, n), the
            # sampling seed of replicate n of a run with master 45
            sizes = [e for e in entropies if e[1] == 45]
            assert sorted(sizes) == [(3, 45, n, linalg.Stream.RATE) for n in (40, 80, 160)]
            continue
        masters = [e for e in entropies if e[0] == 3 and e[1] == 45]
        levels = [e for e in entropies if e[0] == 3 and e[1] in subset_seeds]
        # a subset seed per replicate (and the grid seed), a level stream
        # per replicate and sub-full level
        assert len(masters) == reps + (command == "supnorm"), command
        assert len(levels) == 2 * reps and {e[2] for e in levels} == {0, 1}
        # the tag word alone keeps the level streams off the master's
        assert {e[3] for e in levels}.isdisjoint({e[3] for e in masters})


def test_help_and_bad_subcommand_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0
    code, _, _ = run_cli(capsys, "not-a-command")
    assert code == 2


def test_bad_mode_and_standardize_exit_2_before_any_output(tmp_path, capsys):
    base = ("--model", "identity:3", "--f", "log1p", "--seed", "1")
    named_f = ("--model", "identity:3", "--seed", "1", "--n", "50", "--f")
    no_model = ("--f", "log1p", "--seed", "1")
    bad_data = {"empty": "", "header_only": "a,b\n", "non_numeric": "1,2\n3,x\n",
                "ragged": "1,2\n3\n", "ragged_header": "a,b\n1,2\n3\n",
                "nan_cell": "1,2\nnan,4\n", "e400": "1,2\n1e400,4\n"}
    for name, text in bad_data.items():
        (tmp_path / f"{name}.csv").write_text(text)
    (tmp_path / "latin1.csv").write_bytes("1,2\n3,caf\xe9\n".encode("latin-1"))
    data = ("estimate", *no_model, "--data")
    for argv, word in [
        (("normality", *base, "--n", "100", "--mode", "bogus"), "mode"),
        (("estimate", *base, "--n", "100", "--mode", "bogus", "-B", "4"), "mode"),
        (("rates", *base, "--n-list", "50,100,200", "--standardize", "nope"),
         "standardize"),
        (("coeffs", "--m", "2", "--n", "100", "--q", "nan"), "q"),
        (("coeffs", "--m", "2", "--n", "100", "--q", "1"), "q"),
        (("coeffs", "--m", "1", "--n", "100"), "m must be >= 2"),
        (("normality", *base, "--n", "100", "--mode", "aggregate", "--m", "1"),
         "m must be >= 2"),
        # plans that cannot run at their n: m = 3, q = 2 needs n >= 8
        (("coeffs", "--m", "3", "--n", "5"), "n=5 is too small"),
        (("estimate", *base, "--n", "5", "--mode", "aggregate", "--m", "3"),
         "n=5 is too small"),
        (("normality", *base, "--n", "5", "--mode", "aggregate", "--m", "3",
          "--reps", "200"), "n=5 is too small"),
        (("rates", *base, "--n-list", "5,10,40", "--mode", "aggregate", "--m", "3",
          "--reps", "5"), "n=5 is too small"),
        # 1 + subsets * (m - 1) > 10,000 is known before any replicate runs
        (("normality", *base, "--n", "100", "--mode", "jackknife", "-B", "20000"),
         "budget is 10000"),
        (("estimate", *base, "--n", "100", "--mode", "jackknife", "--m", "3",
          "-B", "5000"), "budget is 10000"),
        (("supnorm", "--model", "identity:3", "--seed", "1", "--n", "100",
          "--mode", "jackknife", "-B", "10000"), "budget is 10000"),
        (("rates", *base, "--n-list", "50,100,200", "--mode", "jackknife",
          "-B", "20000"), "budget is 10000"),
        # run sizes that only the run itself needs
        (("rates", *base, "--reps", "10", "--n-list", "50,60,70"), "factor of 4"),
        (("rates", *base, "--reps", "10", "--n-list", "100,400"), "3 distinct"),
        (("rates", *base, "--reps", "10", "--n-list", "0,10,40"), ">= 1, got 0"),
        # too many parameters, and non-finite ones
        (("estimate", *named_f, "log1p:2"), "takes no parameters"),
        (("estimate", *named_f, "scaled_sine:1:2:3"), "at most 2"),
        (("estimate", *named_f, "scaled_sine:nan"), "must be finite"),
        (("estimate", *named_f, "scaled_sine:inf"), "must be finite"),
        (("estimate", *named_f, "bump:nan:1"), "must be finite"),
        (("estimate", *named_f, "scaled_sine:2:inf"), "must be finite"),
        (("normality", *named_f, "bump:1:inf", "--reps", "200"), "must be finite"),
        # a data path that is not a file, and empty model or f names
        (("estimate", *no_model, "--data", str(tmp_path / "missing.csv")),
         "data file not found"),
        (("estimate", *no_model, "--data", str(tmp_path)), "data file not found"),
        (("estimate", *no_model, "--data", ""), "data file not found"),
        # data files that do not parse
        ((*data, str(tmp_path / "empty.csv")), "no data rows"),
        ((*data, str(tmp_path / "header_only.csv")), "no data rows"),
        ((*data, str(tmp_path / "non_numeric.csv")), "non-numeric cell in ['3', 'x']"),
        ((*data, str(tmp_path / "ragged.csv")), "ragged.csv:2: 1 cells in ['3'], expected 2"),
        ((*data, str(tmp_path / "ragged_header.csv")), "ragged_header.csv:3: 1 cells"),
        ((*data, str(tmp_path / "nan_cell.csv")), "non-finite entries"),
        ((*data, str(tmp_path / "e400.csv")), "e400.csv:2: non-finite entries in ['1e400'"),
        ((*data, str(tmp_path / "latin1.csv")), "latin1.csv: not UTF-8 text"),
        # the grid's members would need derivatives past the families' order 12
        (("supnorm", "--model", "identity:3", "--m", "12", "--n", "40000", "--reps", "2",
          "--seed", "1"), "m must be <= 11"),
        (("coeffs", "--config", "", "--m", "3", "--n", "400"), "config file not found"),
        (("normality", *no_model, "--n", "100", "--model", ""), "model profile"),
        (("estimate", *no_model, "--n", "100", "--model", ""), "model profile"),
        (("estimate", *named_f, ""), "unknown test function"),
    ]:
        out = tmp_path / argv[0]
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and word in err
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argv of every ``spectrace`` command in README's ``sh`` blocks,
    backslash continuations joined and leading ``VAR=value`` words dropped."""
    commands, in_sh = [], False
    for line in README.read_text().replace("\\\n", " ").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            continue
        words = shlex.split(line, comments=True) if in_sh else []
        while words and "=" in words[0]:
            words.pop(0)
        if words[:1] == ["spectrace"]:
            commands.append(words[1:])
    return commands


def test_readme_commands_resolve_through_the_gate(tmp_path, monkeypatch):
    # resolved only, never run; each writes its config.resolved, which a
    # later re-run example reads
    monkeypatch.chdir(tmp_path)
    np.savetxt("observations.csv", np.arange(12.0).reshape(4, 3) ** 2, delimiter=",")
    commands = readme_commands()
    assert "mp-compare" in {argv[0] for argv in commands}
    assert any("--config" in argv for argv in commands)
    parser = cli._build_parser()
    for argv in commands:
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: spectrace {shlex.join(argv)}")
        cfg, _ = cli._resolve(args.command, args)
        cli._write_resolved(args.command, cfg)
