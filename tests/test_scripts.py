"""The experiment drivers in scripts/, run end to end at tiny sizes."""

import csv
import importlib.util
import sys
from math import isfinite
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, argv, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    code = module.main()
    out = capsys.readouterr().out
    return code, out.splitlines()


def test_bias_reduction_table_and_csv(tmp_path, monkeypatch, capsys):
    code, lines = run_script(
        "bias_reduction",
        ["--model", "identity:3", "--n-list", "40,80", "--reps", "20",
         "--out", str(tmp_path)],
        monkeypatch, capsys,
    )
    assert code == 0
    assert lines[1].split() == ["n", "estimator", "bias", "se"]
    assert len(lines) == 2 + 6 + 1
    with (tmp_path / "bias_reduction.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "estimator", "bias", "se"]
    assert [r[:2] for r in rows[1:4]] == [
        ["40", "plugin"], ["40", "aggregate m=2"], ["40", "aggregate m=3"],
    ]
    assert len(rows) == 7
    for row in rows[1:]:
        assert isfinite(float(row[2])) and isfinite(float(row[3]))


def test_rate_slopes_one_row_per_function(monkeypatch, capsys):
    code, lines = run_script(
        "rate_slopes",
        ["--model", "identity:3", "--functions", "identity,log1p", "--m", "2",
         "--n-list", "40,80,160", "--reps", "20"],
        monkeypatch, capsys,
    )
    assert code == 0
    assert lines[1].split()[:3] == ["f", "slope", "se"]
    rows = [line.split() for line in lines[2:]]
    assert [r[0] for r in rows] == ["identity", "log1p"]
    for r in rows:
        assert len(r) == 3 + 3  # name, slope, se and one rmse per n
        assert -2.0 < float(r[1]) < 0.0


def test_normal_approx_one_row_per_estimator(monkeypatch, capsys):
    code, lines = run_script(
        "normal_approx",
        ["--model", "identity:3", "--n", "80", "--subsets", "2,3",
         "--reps", "30"],
        monkeypatch, capsys,
    )
    assert code == 0
    assert lines[1].split() == ["estimator", "ks", "std", "var"]
    rows = lines[2:]
    assert [r.rsplit(maxsplit=2)[0].strip() for r in rows] == [
        "aggregate", "jackknife B=2", "jackknife B=3",
    ]
    for r in rows:
        ks, var = (float(v) for v in r.split()[-2:])
        assert 0.0 <= ks <= 1.0 and var > 0.0

