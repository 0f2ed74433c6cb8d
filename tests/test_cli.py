import numpy as np
import pytest

from spectrace import cli, montecarlo
from spectrace.cli import main
from spectrace.estimators import jackknife_estimate, make_scheme, plugin_estimate
from spectrace.functions import builtin
from spectrace.linalg import (
    CovarianceModel,
    SampleSet,
    load_samples_csv,
    sample_gaussian,
    save_samples_csv,
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
    save_samples_csv(samples, path)
    code, out, _ = run_cli(
        capsys, "estimate", "--data", str(path), "--f", "log1p",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0
    loaded = load_samples_csv(path)
    assert float(result_line(out)["estimate"]) == plugin_estimate(builtin("log1p"), loaded)


def test_estimate_scheme_collision_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--model", "identity:4", "--f", "log1p",
        "--mode", "aggregate", "--m", "2", "--n", "3", "--q", "2",
        "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 3
    assert "increase n or decrease q" in err


def test_estimate_source_conflicts_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "estimate", "--f", "log1p", "--seed", "1", "--out", str(tmp_path)
    )
    assert code == 2 and "model or data" in err
    data = tmp_path / "d.csv"
    save_samples_csv(SampleSet(np.eye(3)), data)
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


def test_mp_compare_close_and_warning(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "mp-compare", "--gamma", "0.5", "--d", "100", "--n", "200",
        "--seed", "12", "--out", str(tmp_path),
    )
    assert code == 0
    assert err == ""
    assert float(result_line(out)["ks"]) < 0.12
    csvs = list(tmp_path.glob("mp_compare_*.csv"))
    assert len(csvs) == 1
    header = csvs[0].read_text().splitlines()[0]
    assert header == "eigenvalue,esd_cdf,mp_cdf"
    # mismatched gamma draws a warning but still exits 0
    code, _, err = run_cli(
        capsys, "mp-compare", "--gamma", "0.8", "--d", "100", "--n", "200",
        "--seed", "12", "--out", str(tmp_path),
    )
    assert code == 0
    assert "warning" in err and "0.5" in err


def test_mp_compare_scale_preconditions(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "mp-compare", "--gamma", "0.5", "--d", "10", "--n", "200",
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


def test_supnorm_grid_seed_is_not_a_replicate_or_subset_seed(
    tmp_path, capsys, monkeypatch
):
    grid_seeds, sample_seeds, subset_seeds = [], [], []
    real_grid = cli.default_grid
    real_sample = montecarlo.sample_gaussian
    real_measure = montecarlo.spectral_measure_estimate

    def grid(m, size, seed):
        grid_seeds.append(seed)
        return real_grid(m, size, seed)

    def sample(model, n, seed):
        sample_seeds.append(seed)
        return real_sample(model, n, seed)

    def measure(*args, **kwargs):
        subset_seeds.append(kwargs["seed"])
        return real_measure(*args, **kwargs)

    monkeypatch.setattr(cli, "default_grid", grid)
    monkeypatch.setattr(montecarlo, "sample_gaussian", sample)
    monkeypatch.setattr(montecarlo, "spectral_measure_estimate", measure)
    code, _, _ = run_cli(
        capsys, "supnorm", "--model", "identity:4", "--mode", "jackknife",
        "--m", "2", "-B", "3", "--n", "60", "--reps", "5", "--grid-size", "3",
        "--seed", "44", "--out", str(tmp_path),
    )
    assert code == 0
    assert len(grid_seeds) == 1
    assert len(set(sample_seeds)) == len(set(subset_seeds)) == 5
    assert grid_seeds[0] not in set(sample_seeds) | set(subset_seeds)


def test_help_and_bad_subcommand_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0
    code, _, _ = run_cli(capsys, "not-a-command")
    assert code == 2


def test_bad_mode_and_standardize_exit_2_before_any_output(tmp_path, capsys):
    base = ("--model", "identity:3", "--f", "log1p", "--seed", "1")
    for argv, word in [
        (("normality", *base, "--n", "100", "--mode", "bogus"), "mode"),
        (("estimate", *base, "--n", "100", "--mode", "bogus", "-B", "4"), "mode"),
        (("rates", *base, "--n-list", "50,100,200", "--standardize", "nope"),
         "standardize"),
        (("coeffs", "--m", "2", "--n", "100", "--q", "nan"), "q"),
        (("coeffs", "--m", "2", "--n", "100", "--q", "1"), "q"),
        (("mp-compare", "--gamma", "nan", "--d", "60", "--n", "60", "--seed", "1"),
         "gamma"),
        (("mp-compare", "--gamma", "inf", "--d", "60", "--n", "60", "--seed", "1"),
         "gamma"),
    ]:
        out = tmp_path / argv[0]
        code, _, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and word in err
        assert not out.exists()
