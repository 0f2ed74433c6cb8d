import csv
import hashlib
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spectrace
from spectrace import cli, estimators, functions, linalg, montecarlo, theory
from spectrace.cli import main
from spectrace.estimators import (
    AggregationScheme,
    aggregate_estimate,
    jackknife_estimate,
    make_scheme,
)
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
    expect = aggregate_estimate(builtin("square"), x, AggregationScheme((x.n,)))
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
    expect = aggregate_estimate(builtin("log1p"), loaded, AggregationScheme((loaded.n,)))
    assert float(result_line(out)["estimate"]) == expect


def test_estimate_scheme_collision_exits_2_before_any_output(tmp_path, capsys):
    # the gate builds the scheme at the run's n, so neither error reaches the run;
    # a larger q spreads colliding levels apart (q 1.5 builds 2, 3, 5 at n 5)
    for n, q, word, advice in (("3", "2", "too small", "increase n or decrease q"),
                               ("5", "1.1", "collide", "increase n or q")):
        out = tmp_path / n
        code, stdout, err = run_cli(
            capsys, "estimate", "--model", "identity:4", "--f", "log1p",
            "--mode", "aggregate", "--m", "3", "--n", n, "--q", q,
            "--seed", "1", "--out", str(out),
        )
        assert code == 2
        assert word in err and advice in err
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
    assert out == ""


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


@pytest.mark.parametrize("argv", [
    # X'X of 4000 rows near 1.2e153 overflows, X'X / 4000 near 1e305 does not
    ("rates", "--model", "custom:1e305", "--f", "log1p", "--n-list", "50,100,4000",
     "--reps", "3"),
    ("estimate", "--model", "custom:1.7e308", "--f", "identity", "--n", "3"),
])
def test_a_gram_that_overflows_only_before_its_division_by_n_runs(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "1", "--out", str(tmp_path))
    assert code == 0, err
    fields = result_line(out)
    assert np.isfinite(float(fields["slope" if argv[0] == "rates" else "estimate"]))


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
    assert out == ""


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
    # each level's tau_f is finite; the integral -1 + 2 * 1.27e308 is not
    data = tmp_path / "big.csv"
    np.savetxt(data, [[1.0], [1.0], [1.5e77], [1.5e77]], fmt="%.17g")
    code, out, err = run_cli(
        capsys, "estimate", "--data", str(data), "--f", "square", "--mode", "aggregate",
        "--m", "2", "--seed", "3", "--out", str(tmp_path),
    )
    assert code == 3
    assert "level sum of tau_f of square overflows" in err
    assert out == ""


def test_estimate_whose_level_terms_overflow_but_not_the_integral(tmp_path, capsys):
    # -1e308 + 2 * 1e308 overflows as it is summed, but the estimate is 1e308
    data = tmp_path / "e77.csv"
    data.write_text("a\n" + "1e77\n" * 4)
    code, out, err = run_cli(
        capsys, "estimate", "--data", str(data), "--f", "square", "--mode", "aggregate",
        "--m", "2", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0, err
    assert result_line(out)["estimate"] == "1e+308"


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


def test_a_failing_rates_replicate_names_its_n(tmp_path, capsys):
    # a zero covariance has zero plug-in scale at every size; the first size fails
    code, out, err = run_cli(
        capsys, "rates", "--model", "custom:0,0", "--f", "log1p", "--n-list", "10,20,40",
        "--reps", "2", "--standardize", "plugin", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 3
    assert err.startswith("error: replicate 0 at n=10 (sampling seed ")
    assert "limit scale of log1p is 0.0" in err
    assert "RESULT" not in out


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
    heads = [line.split(" ", 1)[0] for line in out.splitlines()]
    assert heads == ["sum:", "RESULT"]


_MODEL_ARGS = ("--model", "identity:3", "--seed", "5")


# each command's stdout lines before RESULT, by head: only what RESULT lacks
_HEADS = {
    "estimate": ["sample effective rank:", "model value:", "rate budget:"],
    "coeffs": ["sum:"],
    "rates": ["rmse:", "wrote"],
    "normality": ["wrote"],
    "supnorm": ["family size:", "hardest member:", "wrote"],
    "mp-compare": ["wrote"],
}


@pytest.mark.parametrize("argv, fields", [
    (("estimate", *_MODEL_ARGS, "--f", "log1p", "--n", "40"),
     ["estimate", "f", "mode", "n", "dim", "seed"]),
    (("coeffs", "--m", "3", "--n", "400"), ["sizes", "coeffs", "coeff_l1"]),
    (("rates", *_MODEL_ARGS, "--f", "square", "--n-list", "20,40,80", "--reps", "3"),
     ["slope", "slope_se", "n_list", "seed"]),
    (("normality", *_MODEL_ARGS, "--f", "log1p", "--n", "40", "--reps", "200"),
     ["ks", "w1", "standardized_var", "reps", "seed"]),
    (("supnorm", *_MODEL_ARGS, "--n", "40", "--reps", "2", "--grid-size", "2"),
     ["max_error_mean", "grid_size", "seed"]),
    (("mp-compare", "--d", "50", "--n", "50", "--seed", "5"), ["ks", "gamma", "d", "n", "seed"]),
    (("estimate", *_MODEL_ARGS, "--f", "log1p", "--n", "40", "--mode", "aggregate", "--m", "2"),
     ["estimate", "f", "mode", "n", "dim", "seed"]),
])
def test_each_command_ends_with_its_one_result_line(tmp_path, capsys, argv, fields):
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("RESULT")] == lines[-1:]
    assert lines[-1].startswith(f"RESULT command={argv[0]} ")
    heads = _HEADS[argv[0]]
    if "--m" in argv and argv[0] == "estimate":  # estimate prints a plan of m > 1 levels
        heads = ["sizes:", "coeffs:", "coeff_l1:", *heads]
    assert [re.match(r"wrote|[^:]*:", line)[0] for line in lines[:-1]] == heads
    assert [part.partition("=")[0] for part in lines[-1].split()[1:]] == ["command", *fields]
    # every command that takes a seed reports it last; coeffs takes none
    assert lines[-1].endswith(" seed=5") == ("--seed" in argv)
    # the resolved config holds its command, and config.resolved writes it first
    assert (tmp_path / "config.resolved").read_text().splitlines()[0] == f"command={argv[0]}"


@pytest.mark.parametrize("argv, pattern", [
    (("supnorm", *_MODEL_ARGS, "--n", "40", "--reps", "2", "--grid-size", "2", "--workers", "2"),
     r"supnorm_([0-9a-f]{12})_(grid|errors)\.csv"),
    (("mp-compare", "--d", "50", "--n", "50", "--seed", "5"), r"mp_compare_([0-9a-f]{12})\.csv"),
], ids=["supnorm", "mp-compare"])
def test_output_tags_hash_the_config_resolved_beside_them(tmp_path, capsys, argv, pattern):
    # the tag is the sha256 of config.resolved without its out and workers lines
    assert run_cli(capsys, *argv, "--out", str(tmp_path))[0] == 0
    lines = (tmp_path / "config.resolved").read_text().splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith(("out=", "workers=")))
    assert len(kept) < len("".join(lines)) and kept.startswith(f"command={argv[0]}\n")
    tag = hashlib.sha256(kept.encode()).hexdigest()[:12]
    matches = [re.fullmatch(pattern, p.name) for p in tmp_path.glob("*.csv")]
    assert matches and all(m is not None and m.group(1) == tag for m in matches)


def test_an_empty_out_is_the_working_directory(tmp_path, capsys, monkeypatch):
    argv = ("mp-compare", "--d", "50", "--n", "60", "--seed", "1", "--out")
    runs = {}
    for out in ("", "."):
        cwd = tmp_path / f"out{out!r}"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        code, stdout, err = run_cli(capsys, *argv, out)
        assert code == 0 and err == ""
        runs[out] = stdout, {p.name: p.read_bytes() for p in cwd.iterdir()}
    (stdout, files), (dot_stdout, dot_files) = runs[""], runs["."]
    assert stdout == dot_stdout
    (csv_name,) = [name for name in files if re.fullmatch(r"mp_compare_[0-9a-f]{12}\.csv", name)]
    assert sorted(files) == sorted(dot_files) == sorted(["config.resolved", csv_name])
    assert files[csv_name] == dot_files[csv_name]
    # config.resolved records out as given, and differs in that line only
    assert files["config.resolved"] == dot_files["config.resolved"].replace(b"\nout=.\n", b"\nout=\n")


def test_python_dash_m_runs_the_cli(tmp_path):
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "spectrace", *argv, "--out", str(tmp_path)],
                              cwd=Path(spectrace.__file__).parent.parent,
                              capture_output=True, text=True)

    ok = run("coeffs", "--m", "3", "--n", "400")
    assert ok.returncode == 0, ok.stderr
    assert "RESULT command=coeffs " in ok.stdout
    refused = run("coeffs", "--m", "1", "--n", "400")
    assert refused.returncode == 2
    assert "error: m must be >= 2" in refused.stderr


@pytest.mark.parametrize("argv", [
    ("coeffs", "--m", "9", "--n", "26600"),
    ("coeffs", "--m", "12", "--n", str(10**30)),
    ("supnorm", "--model", "identity:3", "--m", "11", "--n", "2048", "--reps", "2",
     "--seed", "1"),
    ("coeffs", "--m", "100", "--n", str(10**12), "--q", "1.2"),
])
def test_plans_up_to_the_largest_m_run(tmp_path, capsys, argv):
    # past m of about 6 a Vandermonde solve of the weights is off by more
    # than 1e-8, so no check against it may refuse these valid plans; nor
    # may n_j**l, which overflows at n = 10**30, nor (n_1/n_j)**l, which
    # underflows to subnormals at m = 100
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0 and err == ""
    assert result_line(out)["command"] == argv[0]
    if argv[0] == "coeffs":  # the weights' sum and RESULT
        assert len(out.splitlines()) == 2


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
    resolved = (tmp_path / "config.resolved").read_text()
    # a leading UTF-8 byte-order mark is dropped, as in a --data file
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + cfgfile.read_bytes())
    assert run_cli(capsys, "estimate", "--config", str(bom)) == (0, out, "")
    assert (tmp_path / "config.resolved").read_text() == resolved
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
    # a key set twice is refused, naming the file, the key and both lines,
    # before config.resolved is written; so is a repeated command= line
    twice = tmp_path / "twice.cfg"
    for text, key, first, second in (
        ("model=identity:3\nf=log1p\nn=100\nseed=1\nreps=20\n\nn=200\n", "n", 3, 7),
        ("command=coeffs\nm=2\ncommand=coeffs\nn=100\n", "command", 1, 3),
    ):
        twice.write_text(text)
        out = tmp_path / f"out_{key}"
        command = "coeffs" if key == "command" else "normality"
        code, stdout, err = run_cli(capsys, command, "--config", str(twice), "--out", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert f"{twice}:{second}: {key} is set twice (first on line {first})" in err
    # a line with no key before its "=" is no key=value line
    nokey = tmp_path / "nokey.cfg"
    nokey.write_text("model=identity:3\nf=log1p\nn=100\nseed=1\n=5\n")
    out = tmp_path / "out_nokey"
    code, stdout, err = run_cli(capsys, "normality", "--config", str(nokey), "--out", str(out))
    assert code == 2 and stdout == "" and not out.exists()
    assert err == f"error: {nokey}:5: expected key=value, got '=5'\n"


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
    # counted at every import site, so a build inside the library counts too;
    # "config" counts ExperimentConfig constructions
    calls = {}

    def counted(name, real):
        def build(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return build

    for name, home in (("_experiment_config", cli), ("builtin", functions),
                       ("parse_model", montecarlo), ("default_grid", functions),
                       ("level_plan", estimators), ("make_scheme", estimators)):
        real = getattr(home, name)
        for mod in (cli, estimators, functions, linalg, montecarlo, theory):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted(name, real))
    for name, cls in (("config", montecarlo.ExperimentConfig),
                      ("scheme", estimators.AggregationScheme)):
        monkeypatch.setattr(cls, "__post_init__", counted(name, cls.__post_init__))
    data = tmp_path / "data.csv"
    data.write_text("1,2\n3,4\n5,7\n2,1\n")
    model = ("--model", "identity:3", "--seed", "1")
    jackknife = ("--mode", "jackknife", "--m", "2", "-B", "3")
    experiment = {"_experiment_config": 1, "config": 1, "parse_model": 1, "builtin": 1,
                  "level_plan": 1, "scheme": 1}
    # the sweep's config builds a plan per size, which the sizes run on
    sweep = {**experiment, "level_plan": 3, "scheme": 3}
    rates = ("rates", *model, "--f", "square", "--n-list", "20,40,80", "--reps", "3")
    for argv, built in [
        (("estimate", *model, "--f", "log1p", "--n", "40"),
         {"parse_model": 1, "builtin": 1, "level_plan": 1, "scheme": 1}),
        (("estimate", *model, "--f", "log1p", "--n", "40", *jackknife),
         {"parse_model": 1, "builtin": 1, "level_plan": 1, "make_scheme": 1, "scheme": 1}),
        (("estimate", "--data", str(data), "--f", "log1p", "--seed", "1"),
         {"builtin": 1, "level_plan": 1, "scheme": 1}),
        (("coeffs", "--m", "2", "--n", "100"), {"make_scheme": 1, "scheme": 1}),
        (rates, sweep),
        ((*rates, *jackknife), {**sweep, "make_scheme": 3}),
        (("normality", *model, "--f", "log1p", "--n", "40", "--reps", "200"), experiment),
        (("normality", *model, "--f", "log1p", "--n", "40", "--reps", "200", *jackknife),
         {**experiment, "make_scheme": 1}),
        # supnorm's config names the placeholder f identity, built once
        (("supnorm", *model, "--n", "40", "--reps", "2", "--grid-size", "2"),
         {**experiment, "default_grid": 1, "make_scheme": 1}),
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


def test_estimate_rate_budget_reads_the_sine_derivative_at_a_high_frequency(tmp_path, capsys):
    # f' = cos(1e16 x) at the identity's eigenvalue 1, so the main term is
    # sqrt(3) |cos 1e16| / sqrt(50); a phase added to 1e16 x rounds away
    code, out, err = run_cli(
        capsys, "estimate", "--model", "identity:3", "--f", "scaled_sine:1e16",
        "--n", "50", "--seed", "1", "--out", str(tmp_path),
    )
    assert code == 0 and err == ""
    assert f"{np.sqrt(3.0) * abs(np.cos(1e16)) / np.sqrt(50.0):.6g}" == "0.153379"
    assert "rate budget: main 0.153379 + " in out


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

    def levels(samples, scheme, seed):
        subset_seeds.append(seed)
        return real_levels(samples, scheme, seed)

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


def test_a_sample_that_cannot_be_allocated_exits_2_before_any_output(
    tmp_path, capsys, monkeypatch
):
    def out_of_memory(model, n, seed):
        raise MemoryError(*(() if model.dim == 100 else (f"no room for {n} rows",)))

    monkeypatch.setattr(cli, "sample_gaussian", out_of_memory)
    for argv, message in (
        (("estimate", "--model", "identity:1000", "--f", "log1p", "--n", "10000000"),
         "no room for 10000000 rows"),
        # an empty MemoryError is named by its type
        (("mp-compare", "--d", "100", "--n", "100"), "MemoryError"),
    ):
        out = tmp_path / argv[0]
        code, stdout, err = run_cli(capsys, *argv, "--seed", "1", "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()


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
                "nan_cell": "1,2\nnan,4\n", "e400": "1,2\n1e400,4\n",
                "long": "1," + "2" * (csv.field_size_limit() + 1) + "\n3,4\n5,6\n"}
    for name, text in bad_data.items():
        (tmp_path / f"{name}.csv").write_text(text)
    (tmp_path / "latin1.csv").write_bytes("1,2\n3,caf\xe9\n".encode("latin-1"))
    (tmp_path / "latin1.cfg").write_bytes(
        "# caf\xe9\nmodel=identity:3\nf=log1p\nn=40\nseed=1\n".encode("latin-1"))
    data = ("estimate", *no_model, "--data")
    big = "1" + "0" * 400
    # every count a command takes, set to 0 on a run that otherwise passes the
    # gate (the last of a repeated flag wins); the plug-in ignores m and
    # subsets but refuses them below 1 all the same
    floor_runs = [
        (("estimate", *base, "--n", "100"), ("m", "n", "subsets")),
        (("rates", *base, "--n-list", "50,100,200", "--reps", "10"),
         ("m", "subsets", "reps", "workers")),
        (("normality", *base, "--n", "100", "--reps", "200"),
         ("m", "n", "subsets", "reps", "workers")),
        (("supnorm", "--model", "identity:3", "--seed", "1", "--n", "100", "--reps", "2"),
         ("m", "n", "subsets", "reps", "workers", "grid-size")),
    ]
    names = {"reps": "replications", "grid-size": "grid_size"}
    floors = [((*run, f"--{key}", "0"), f"{names.get(key, key)} must be >= 1, got 0")
              for run, keys in floor_runs for key in keys]
    # a seed outside [0, 2**64) would alias one inside it: every command that
    # takes a seed refuses it (the last --seed wins)
    seed_runs = [run for run, _ in floor_runs] + [("mp-compare", "--d", "60", "--n", "60")]
    seeds = [((*run, "--seed", seed), f"seed {seed} is outside [0, 2**64)")
             for run in seed_runs for seed in ("-1", "18446744073709551616")]
    # a floor set in a config file is refused the same way
    (tmp_path / "floor.cfg").write_text("model=identity:3\nf=log1p\nn=100\nseed=1\nreps=0\n")
    for argv, word in [
        *floors,
        *seeds,
        # a seed or count that is no integer fails its conversion
        (("estimate", *base, "--n", "50", "--seed", "2.5"), "bad value for seed: '2.5'"),
        (("coeffs", "--m", "2.5", "--n", "100"), "bad value for m: '2.5'"),
        (("normality", "--config", str(tmp_path / "floor.cfg")),
         "replications must be >= 1, got 0"),
        (("coeffs", "--m", "0", "--n", "100"), "m must be >= 2"),
        (("coeffs", "--m", "2", "--n", "0"), "n=0 is too small"),
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
        # sum |C_j| = 9.95e55: no bit of the estimate would be significant
        (("estimate", "--model", "identity:2", "--f", "identity", "--mode", "aggregate",
          "--m", "60", "--q", "1.01", "--n", "2000", "--seed", "1"),
         "sum |C_j| is 9.95e+55 for sizes 1112..2000 (m=60), past 2**52"),
        # 2.0 ** 1099 overflows a float: refused by the same rule, not a traceback
        (("coeffs", "--m", "1100", "--n", "100"), "n=100 is too small for m=1100"),
        (("estimate", *base, "--n", "100", "--mode", "aggregate", "--m", "1100"),
         "n=100 is too small for m=1100"),
        # integers past the float range fail while what they size is built
        (("normality", *base, "--n", "100", "--reps", big), "int too large to convert"),
        (("normality", *base, "--n", "100", "--workers", big), "int too large to convert"),
        (("estimate", *base, "--n", "100", "--mode", "aggregate", "--m", big),
         "int too large to convert"),
        (("coeffs", "--m", "2", "--n", big), "int too large to convert"),
        (("estimate", *base, "--n", big), "int too large to convert"),
        (("mp-compare", "--d", big, "--n", "100", "--seed", "1"),
         "integer division result too large for a float"),
        # sizes within the float range but past any array's are refused as the
        # sample is drawn
        (("estimate", *base, "--n", str(10 ** 30)), "Maximum allowed dimension exceeded"),
        (("mp-compare", "--d", "100", "--n", str(10 ** 30), "--seed", "1"),
         "Maximum allowed dimension exceeded"),
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
        # a size that is no integer fails its conversion, an empty list the design
        (("rates", *base, "--reps", "10", "--n-list", "a,b"),
         "bad value for n_list: 'a,b' (invalid literal for int()"),
        (("rates", *base, "--reps", "10", "--n-list", ","), "3 distinct n values, got []"),
        # too many parameters, and non-finite ones
        (("estimate", *named_f, "log1p:2"), "takes no parameters"),
        (("estimate", *named_f, "scaled_sine:1:2:3"), "at most 2"),
        (("estimate", *named_f, "scaled_sine:nan"), "omega must be finite"),
        (("estimate", *named_f, "scaled_sine:inf"), "omega must be finite"),
        (("estimate", *named_f, "bump:nan:1"), "center must be finite"),
        (("estimate", *named_f, "scaled_sine:2:inf"), "power must be finite"),
        (("normality", *named_f, "bump:1:inf", "--reps", "200"), "width must be finite"),
        # finite parameters whose Python-float powers overflow, in f or only at a
        # higher order, refused when f is built, as an order not finite at 0 is
        (("estimate", *named_f, "bump:1:1e-300"),
         "bump:1.0:1e-300: derivative of order 0 is inf at 0"),
        (("normality", *named_f, "scaled_sine:1e-300:5", "--reps", "200"),
         "scaled_sine:1e-300:5.0: derivative of order 0 is inf at 0"),
        (("estimate", "--model", "identity:2", "--f", "scaled_sine:1e200:-1", "--n", "20",
          "--seed", "1"), "scaled_sine:1e+200:-1.0: derivative of order 1 is inf at 0"),
        (("normality", *named_f, "bump:0:1e-300", "--reps", "200"),
         "bump:0.0:1e-300: derivative of order 2 is inf at 0"),
        (("estimate", *named_f, "bump:2:1e-200"),
         "bump:2.0:1e-200: derivative of order 0 is inf at 0"),
        (("estimate", *named_f, "bump:2:0.5:1e308"),
         "bump:2.0:0.5:1e+308: derivative of order 1 is inf at 0"),
        # a data path that is not a file, and empty model or f names
        (("estimate", *no_model, "--data", str(tmp_path / "missing.csv")),
         "data file not found"),
        (("estimate", *no_model, "--data", str(tmp_path)), "data file not found"),
        (("estimate", *no_model, "--data", ""), "data file not found"),
        (("estimate", *base), "n is required when simulating from a model"),
        # data files that do not parse
        ((*data, str(tmp_path / "empty.csv")), "no data rows"),
        ((*data, str(tmp_path / "header_only.csv")), "no data rows"),
        ((*data, str(tmp_path / "non_numeric.csv")), "non-numeric cell in ['3', 'x']"),
        ((*data, str(tmp_path / "ragged.csv")), "ragged.csv:2: 1 cells in ['3'], expected 2"),
        ((*data, str(tmp_path / "ragged_header.csv")), "ragged_header.csv:3: 1 cells"),
        ((*data, str(tmp_path / "nan_cell.csv")), "non-finite entries"),
        ((*data, str(tmp_path / "e400.csv")), "e400.csv:2: non-finite entries in ['1e400'"),
        ((*data, str(tmp_path / "latin1.csv")), "latin1.csv: not UTF-8 text"),
        ((*data, str(tmp_path / "long.csv")), "long.csv:1: field larger than field limit"),
        # the grid's members would need derivatives past the families' order 12
        (("supnorm", "--model", "identity:3", "--m", "12", "--n", "40000", "--reps", "2",
          "--seed", "1"), "m must be <= 11"),
        (("coeffs", "--config", "", "--m", "3", "--n", "400"), "config file not found"),
        (("normality", "--config", str(tmp_path / "latin1.cfg")),
         "latin1.cfg: not UTF-8 text"),
        (("normality", *no_model, "--n", "100", "--model", ""), "model profile"),
        (("estimate", *no_model, "--n", "100", "--model", ""), "model profile"),
        (("estimate", *no_model, "--n", "100", "--model", "custom:"),
         "bad model profile 'custom:': eigenvalues must be a nonempty 1-d vector"),
        # k**-inf would be the rank-1 model [1, 0, 0, 0, 0]
        (("normality", *no_model, "--n", "40", "--reps", "200", "--model",
          "poly_decay:5:inf"), "beta must be finite"),
        (("normality", *no_model, "--n", "40", "--reps", "200", "--model",
          "poly_decay:5:1e400"), "beta must be finite"),
        (("estimate", *named_f, ""), "unknown test function"),
    ]:
        out = tmp_path / argv[0]
        code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert code == 2 and word in err
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
    # an --out that cannot be a directory: an existing file, or a path below one
    afile = tmp_path / "afile"
    afile.write_text("x")
    for out, word in ((afile, "File exists"), (afile / "sub", "Not a directory")):
        code, stdout, err = run_cli(capsys, "coeffs", "--m", "2", "--n", "100",
                                    "--out", str(out))
        assert code == 2 and word in err
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
    assert afile.read_text() == "x"


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


def readme_python_blocks() -> list[str]:
    """The source of every ``python`` block of README."""
    blocks, lines = [], None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if lines is not None:
                blocks.append("\n".join(lines) + "\n")
            lines = [] if line == "```python" else None
        elif lines is not None:
            lines.append(line)
    return blocks


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    # each block in a fresh namespace, as a reader would paste it
    monkeypatch.chdir(tmp_path)
    blocks = readme_python_blocks()
    assert any("jackknife_estimate" in block for block in blocks)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})


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
        cfg, _ = cli._resolve(args)
        cli._write_resolved(cfg)
