import sys
from dataclasses import replace
from math import sqrt

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from spectrace import estimators, linalg, montecarlo
from spectrace.estimators import (
    ComputeBudgetError,
    aggregate_estimate,
    jackknife_estimate,
    make_scheme,
    plugin_estimate,
)
from spectrace.functions import builtin, default_grid, tau_f
from spectrace.linalg import (
    CovarianceModel,
    derive_seed,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)
from spectrace.montecarlo import (
    ExperimentConfig,
    ReplicateError,
    config_hash,
    ks_to_normal,
    normal_quantiles,
    normality_check,
    parse_model,
    rate_sweep,
    run,
    supnorm_experiment,
    wasserstein1_to_normal,
    write_qq_csv,
    write_result_csvs,
)
from spectrace.theory import gaussian_limit_std


def test_parse_model_profiles():
    assert np.array_equal(parse_model("identity:3").eigenvalues, np.ones(3))
    decay = parse_model("poly_decay:4:1.0")
    assert np.allclose(decay.eigenvalues, [1, 0.5, 1 / 3, 0.25])
    custom = parse_model("custom:1.0,3.0,2.0")
    assert np.array_equal(custom.eigenvalues, [3.0, 2.0, 1.0])
    for bad in ("identity", "identity:0", "poly_decay:5", "custom:", "wishart:3"):
        with pytest.raises(ValueError):
            parse_model(bad)


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        ExperimentConfig(model="identity:2", f="identity", seed=0, mode="x", n=10)
    with pytest.raises(ValueError, match="n or n_list"):
        ExperimentConfig(model="identity:2", f="identity", seed=0)
    with pytest.raises(ValueError, match="replications"):
        ExperimentConfig(model="identity:2", f="identity", seed=0, n=5, replications=0)
    # a plan that cannot run at any n fails at construction, not in a replicate
    with pytest.raises(ComputeBudgetError, match="budget is 10000"):
        ExperimentConfig(model="identity:2", f="identity", seed=0, n=50,
                         mode="jackknife", subsets=20_000)
    for q in (float("inf"), 1.0):
        with pytest.raises(ValueError, match="q must be finite and > 1"):
            ExperimentConfig(model="identity:2", f="identity", seed=0, n=50, q=q)
    with pytest.raises(ValueError, match="m must be >= 2"):
        ExperimentConfig(model="identity:2", f="identity", seed=0, n=50,
                         mode="aggregate", m=1)


def test_single_replicate_matches_direct_computation():
    cfg = ExperimentConfig(
        model="identity:2", f="square", seed=13, mode="plugin", n=3, replications=1
    )
    res = run(cfg)
    x = sample_gaussian(CovarianceModel.identity(2), 3, derive_seed(13, 0))
    assert res.estimates[0] == plugin_estimate(builtin("square"), x)
    assert res.truth == 2.0


def test_runs_are_deterministic_and_worker_independent():
    base = dict(model="identity:5", f="log1p", seed=4, mode="aggregate",
                n=60, m=2, replications=40)
    r1 = run(ExperimentConfig(**base, workers=1))
    r2 = run(ExperimentConfig(**base, workers=1))
    r3 = run(ExperimentConfig(**base, workers=4))
    assert np.array_equal(r1.estimates, r2.estimates)
    assert np.array_equal(r1.estimates, r3.estimates)
    assert np.array_equal(r1.standardized, r3.standardized)
    assert r1.summary == r3.summary


def test_jackknife_run_worker_independent():
    base = dict(model="identity:4", f="rational", seed=6, mode="jackknife",
                n=40, m=2, subsets=5, replications=24)
    r1 = run(ExperimentConfig(**base, workers=1))
    r3 = run(ExperimentConfig(**base, workers=3))
    assert np.array_equal(r1.estimates, r3.estimates)


def test_jackknife_run_work_per_replicate(monkeypatch, level_draws):
    # the benchmark's jackknife workload at 3 replicates: 1 + 50 * 2
    # spectra and 50 * 2 index sets per replicate, and one solver call per
    # block of subsets; the engine takes every spectrum from gram_spectra
    spectra, calls = [], []
    real = estimators.gram_spectra

    def counted(x):
        lam = real(x)
        calls.append(lam.shape)
        spectra.append(lam.size // lam.shape[-1])
        return lam

    monkeypatch.setattr(estimators, "gram_spectra", counted)
    run(ExperimentConfig(model="identity:20", f="log1p", seed=1, mode="jackknife",
                         n=400, m=3, subsets=50, replications=3))
    assert sum(spectra) == 3 * (1 + 50 * 2)
    assert sum(b for _, (b, _) in level_draws) == 3 * 50 * 2
    blocks = sum(-(-50 // estimators._subsets_per_block(400, size, 20))
                 for size in (100, 200))
    assert len(calls) <= 3 * (1 + blocks)


def test_aggregate_run_work_per_replicate(monkeypatch):
    # the benchmark's aggregate workload at 3 replicates: levels of 100,
    # 200 and 400 rows in d = 200, so the 100-row level is solved as its
    # 100 x 100 dual and the solver never sees a 200 x 200 null space of 100
    shapes = []
    real = linalg.sym_eigvalues

    def counted(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "sym_eigvalues", counted)
    run(ExperimentConfig(model="identity:200", f="log1p", seed=1, mode="aggregate",
                         n=400, m=3, replications=3))
    assert shapes == [(100, 100), (200, 200), (200, 200)] * 3


def test_config_hash_ignores_workers_only():
    base = dict(model="identity:5", f="log1p", seed=4, mode="plugin", n=60,
                replications=40)
    h1 = config_hash(ExperimentConfig(**base, workers=1))
    h8 = config_hash(ExperimentConfig(**base, workers=8))
    assert h1 == h8
    assert config_hash(ExperimentConfig(**{**base, "seed": 5})) != h1
    assert config_hash(ExperimentConfig(**{**base, "n": 61})) != h1


def test_trace_variance_matches_gaussian_moments():
    # n Var(tr cov_n) = 2 tr(Sigma^2): for the identity that is 2d, and the
    # standardized replicates should have variance near 1
    cfg = ExperimentConfig(
        model="identity:5", f="identity", seed=88, mode="plugin",
        n=2000, replications=1500,
    )
    res = run(cfg)
    nvar = 2000 * res.estimates.var(ddof=1)
    assert abs(nvar - 10.0) < 0.15 * 10.0
    assert abs(res.summary["standardized_var"] - 1.0) < 0.15


def test_empirical_bias_never_exceeds_rmse():
    for seed in (1, 2, 3):
        cfg = ExperimentConfig(
            model="custom:2.0,1.0", f="log1p", seed=seed, mode="plugin",
            n=50, replications=100,
        )
        s = run(cfg).summary
        assert abs(s["bias"]) <= s["rmse"] + 1e-15


def test_oracle_vs_plugin_standardization():
    base = dict(model="identity:6", f="log1p", seed=9, mode="plugin",
                n=400, replications=300)
    oracle = run(ExperimentConfig(**base, standardize="oracle"))
    plug = run(ExperimentConfig(**base, standardize="plugin"))
    assert np.array_equal(oracle.estimates, plug.estimates)
    assert not np.array_equal(oracle.standardized, plug.standardized)
    # plug-in scale is consistent, so the distances should both be small
    assert plug.summary["ks_normal"] < 0.1
    assert oracle.summary["ks_normal"] < 0.1


def test_ks_and_w1_on_perfect_quantile_sample():
    r = 500
    z = normal_quantiles(r)
    assert ks_to_normal(z) <= 0.5 / r + 1e-12
    assert wasserstein1_to_normal(z) == 0.0


def test_normal_cdf_matches_scipy_ndtr():
    rng = np.random.default_rng(derive_seed(41, 10**4))
    x = np.concatenate([np.linspace(-8.0, 8.0, 1601), rng.standard_normal(10**4)])
    got = np.array([montecarlo._normal_cdf(v) for v in x.tolist()])
    np.testing.assert_allclose(got, ndtr(x), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("r", [200, 300, 1000, 2000])
def test_normal_quantiles_match_scipy_ndtri(r):
    expect = ndtri((np.arange(1, r + 1) - 0.5) / r)
    np.testing.assert_allclose(normal_quantiles(r), expect, rtol=0.0, atol=4e-15)


def test_summary_raises_naming_an_overflowing_moment():
    # mean 0 and std 1e100 are finite, but the fourth power of the errors is not
    estimates = np.array([1e100, -1e100])
    with pytest.raises(FloatingPointError, match="l4_error"):
        montecarlo._summarize(0.0, estimates, np.zeros(2))


def test_summary_raises_naming_overflowing_standardized_errors():
    with pytest.raises(FloatingPointError, match="standardized errors of the 2 estimates"):
        montecarlo._summarize(0.0, np.array([1.0, 2.0]), np.array([1.0, np.inf]))


def test_single_replicate_summary_has_nan_spread_statistics():
    res = run(ExperimentConfig(model="identity:2", f="square", seed=13, n=5,
                               replications=1))
    assert np.isnan(res.summary["bias_se"]) and np.isnan(res.summary["standardized_var"])
    assert np.isfinite(res.summary["ks_normal"])


def test_zero_oracle_scale_fails_before_any_replicate(monkeypatch):
    # f'(1) = 0 for the bump centred at 1, so ||Sigma f'(Sigma)|| = 0 at the identity
    calls = []
    monkeypatch.setattr(montecarlo, "sample_gaussian", lambda *a: calls.append(a))
    cfg = ExperimentConfig(model="identity:5", f="bump:1.0:0.5", seed=3, n=50,
                           replications=4)
    with pytest.raises(FloatingPointError, match="limit scale of bump:1.0:0.5 is 0.0"):
        run(cfg)
    assert calls == []


def test_zero_plugin_scale_fails_naming_the_replicate_seeds(monkeypatch):
    # the bump's plug-in scale is positive: its sample eigenvalues are not all 1
    plug = run(ExperimentConfig(model="identity:5", f="bump:1.0:0.5", seed=3, n=50,
                                replications=4, standardize="plugin"))
    assert np.isfinite(plug.standardized).all()
    monkeypatch.setattr(montecarlo, "gaussian_limit_std", lambda f, model: 0.0)
    cfg = ExperimentConfig(model="identity:3", f="log1p", seed=2, n=20,
                           replications=3, standardize="plugin")
    with pytest.raises(ReplicateError, match="limit scale of log1p is 0.0") as info:
        run(cfg)
    assert str(info.value).startswith(f"replicate 0 (sampling seed {derive_seed(2, 0)}):")


def test_ks_on_constant_sample_is_large():
    assert ks_to_normal(np.zeros(100)) >= 0.5


def test_ks_meta_trials_respect_critical_value():
    # 20 independent standard normal samples at two sizes: the 5% critical
    # value 1.358/sqrt(R) should be respected by at least 90% of trials
    for r in (500, 2000):
        crit = 1.358 / np.sqrt(r)
        hits = 0
        for t in range(20):
            rng = np.random.default_rng(derive_seed(900, r, t))
            if ks_to_normal(rng.standard_normal(r)) <= crit:
                hits += 1
        assert hits >= 18


def test_rate_sweep_identity_slope_is_half():
    cfg = ExperimentConfig(
        model="identity:10", f="identity", seed=31, mode="plugin",
        n_list=(250, 500, 1000, 2000), replications=800,
    )
    sweep = rate_sweep(cfg)
    assert abs(sweep.slope + 0.5) < 0.1
    assert sweep.n_values == (250, 500, 1000, 2000)
    assert np.all(np.diff(sweep.rmse) < 0)


def test_rate_sweep_rejects_degenerate_designs():
    base = dict(model="identity:4", f="identity", seed=0, mode="plugin",
                replications=10)
    with pytest.raises(ValueError, match="n_list"):
        rate_sweep(ExperimentConfig(**base, n=100))
    # a degenerate design fails at construction, before any size runs
    for n_list, match in (((100, 400, 100), "3 distinct"),
                          ((100, 200, 300), "factor of 4"),
                          ((0, 10, 40), ">= 1, got 0")):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**base, n_list=n_list)


def test_normality_check_minimum_replications():
    cfg = ExperimentConfig(
        model="identity:3", f="identity", seed=0, mode="plugin",
        n=50, replications=montecarlo.NORMALITY_MIN_REPS - 1,
    )
    with pytest.raises(ValueError, match=">= 200 replications, got 199"):
        normality_check(cfg)


def test_normality_check_qq_columns(tmp_path):
    cfg = ExperimentConfig(
        model="identity:3", f="identity", seed=14, mode="plugin",
        n=200, replications=250,
    )
    result = normality_check(cfg)
    assert result.summary == run(cfg).summary
    assert result.summary["ks_normal"] < 0.1
    path = write_qq_csv(result, tmp_path)
    assert path.name == f"experiment_{config_hash(cfg)}_qq.csv"
    header, *rows = path.read_text().splitlines()
    assert header == "normal_quantile,sample_quantile"
    # repr round-trips, so the CSV holds the pairs bit for bit
    qq = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(qq[:, 0], normal_quantiles(250))
    assert np.array_equal(qq[:, 1], np.sort(result.standardized))


def test_supnorm_worst_case_dominates_every_member():
    grid = default_grid(2, 4, seed=3)
    cfg = ExperimentConfig(
        model="identity:6", f="identity", seed=15, mode="aggregate",
        n=120, m=2, replications=60,
    )
    res = supnorm_experiment(grid, cfg)
    assert res.errors.shape == (60, 4)
    assert np.all(res.max_error[:, None] >= res.errors - 1e-15)
    assert res.max_error_mean >= float(np.max(res.per_function_mean)) - 1e-15
    assert np.isfinite(res.max_error_mean)
    # truths match direct evaluation
    model = parse_model("identity:6")
    for name, truth in zip(res.names, res.truths):
        assert truth == tau_f(builtin(name), model.eigenvalues)


def test_supnorm_single_member_equals_that_functions_error():
    grid = default_grid(2, 1, seed=3)
    cfg = ExperimentConfig(
        model="identity:4", f="identity", seed=16, mode="plugin",
        n=80, replications=30,
    )
    res = supnorm_experiment(grid, cfg)
    assert np.array_equal(res.max_error, res.errors[:, 0])
    assert res.max_error_mean == res.per_function_mean[0]


def test_supnorm_errors_are_each_members_scalar_run_errors():
    # d = 30 and sizes 20 and 40: the sub-full level is below d. Every
    # member's column is the error of a scalar run with f = that member,
    # bit for bit, in each mode
    grid = default_grid(2, 3, seed=3)
    for mode in ("plugin", "aggregate", "jackknife"):
        cfg = ExperimentConfig(
            model="poly_decay:30:1.0", f="identity", seed=17, mode=mode,
            n=40, m=2, subsets=4, replications=20,
        )
        res = supnorm_experiment(grid, cfg)
        for j, member in enumerate(grid.members):
            scalar = run(replace(cfg, f=member.name))
            assert np.array_equal(
                res.errors[:, j], np.abs(scalar.estimates - res.truths[j])
            ), (mode, member.name)


def test_every_experiment_resolves_its_plan_once(monkeypatch):
    # one replicate map serves run and supnorm alike, and each resolves
    # the mode's plan once, not once per replicate or per family member
    # (construction checks the plan too, so the count starts after it)
    cfg = ExperimentConfig(model="identity:4", f="log1p", seed=3, mode="jackknife",
                           n=40, m=2, subsets=3, replications=5)
    calls = []
    real = montecarlo.level_plan

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(montecarlo, "level_plan", counted)
    run(cfg)
    supnorm_experiment(default_grid(2, 2, seed=3), cfg)
    assert calls == [("jackknife", 40, 2, 2.0, 3)] * 2


def test_result_csvs_roundtrip_and_layout(tmp_path):
    cfg = ExperimentConfig(
        model="identity:3", f="square", seed=20, mode="plugin",
        n=40, replications=25,
    )
    res = run(cfg)
    rep_path, sum_path = write_result_csvs(res, tmp_path)
    assert config_hash(cfg) in rep_path.name
    rep_lines = rep_path.read_text().strip().splitlines()
    assert rep_lines[0] == "replicate,estimate,standardized"
    assert len(rep_lines) == 26
    # replicate estimates reparse exactly (repr round-trip)
    first = rep_lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == res.estimates[0]
    sum_lines = sum_path.read_text().strip().splitlines()
    assert sum_lines[0] == "metric,value,se"
    metrics = {line.split(",")[0] for line in sum_lines[1:]}
    assert {"mean", "bias", "rmse", "ks_normal", "w1_normal"} <= metrics


def _csvs_at_each_worker_count(tmp_path, base):
    # each worker thread reuses one sample buffer; no replicate may read
    # another's draw, also with more threads than cores switching often
    written = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            paths = write_result_csvs(run(ExperimentConfig(**base, workers=workers)), out)
            written[workers] = [(path.name, path.read_bytes()) for path in paths]
    finally:
        sys.setswitchinterval(interval)
    return written


def test_result_csvs_byte_identical_across_workers(tmp_path):
    base = dict(model="identity:4", f="log1p", seed=21, mode="jackknife",
                n=60, m=2, subsets=4, replications=30)
    written = _csvs_at_each_worker_count(tmp_path, base)
    assert written[1] == written[2] == written[8]


def test_aggregate_result_csvs_byte_identical_across_workers(tmp_path):
    # levels of 15 and 30 rows below d = 30 take the dual Gram
    base = dict(model="poly_decay:30:1.0", f="log1p", seed=21, mode="aggregate",
                n=60, m=3, replications=30)
    written = _csvs_at_each_worker_count(tmp_path, base)
    assert written[1] == written[2] == written[8]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_each_worker_draws_every_replicate_into_one_buffer(monkeypatch, workers):
    buffers = []
    real = montecarlo.sample_gaussian

    def spy(model, n, seed, out=None):
        buffers.append(out)
        return real(model, n, seed, out=out)

    monkeypatch.setattr(montecarlo, "sample_gaussian", spy)
    cfg = ExperimentConfig(model="identity:5", f="log1p", seed=4, mode="aggregate",
                           n=40, m=2, replications=12, workers=workers)
    res = run(cfg)
    assert len(buffers) == 12
    assert all(isinstance(buf, np.ndarray) and buf.shape == (40, 5) for buf in buffers)
    distinct = {id(buf) for buf in buffers}
    assert len(distinct) == 1 if workers == 1 else 1 <= len(distinct) <= workers
    model = parse_model(cfg.model)
    for i in (0, 11):
        expect = aggregate_estimate(builtin("log1p"), sample_gaussian(
            model, 40, derive_seed(4, i)), make_scheme(2, 40))
        assert res.estimates[i] == expect


def test_replicate_failure_carries_index(monkeypatch):
    # the engine fails inside replicate 0 of a jackknife run
    def fail(samples, scheme, subsets, seed):
        raise ValueError("boom")

    monkeypatch.setattr(montecarlo, "level_spectra", fail)
    cfg = ExperimentConfig(
        model="identity:3", f="identity", seed=0, mode="jackknife",
        n=40, m=2, subsets=5, replications=2,
    )
    with pytest.raises(RuntimeError, match="replicate 0") as info:
        run(cfg)
    # the message alone is enough to re-run the replicate
    assert f"sampling seed {derive_seed(0, 0)}," in str(info.value)
    assert f"subset seed {derive_seed(0, 0, 1)})" in str(info.value)


def test_replicate_failure_without_subsets_names_sampling_seed_only(monkeypatch):
    def fail(samples, scheme, subsets, seed):
        raise ValueError("boom")

    monkeypatch.setattr(montecarlo, "level_spectra", fail)
    cfg = ExperimentConfig(
        model="identity:3", f="identity", seed=5, mode="aggregate",
        n=40, m=2, replications=2,
    )
    with pytest.raises(ReplicateError) as info:
        run(cfg)
    assert str(info.value) == f"replicate 0 (sampling seed {derive_seed(5, 0)}): boom"


def test_plugin_standardization_matches_reference_in_every_mode():
    # the scale is gaussian_limit_std on the full-sample spectrum, which the
    # run takes from the engine's last level rather than a second eigensolve
    model = CovarianceModel.from_values([3.0, 2.0, 1.0, 0.5, 0.25, 0.1])
    f, n, seed = builtin("log1p"), 40, 61
    for mode in ("plugin", "aggregate", "jackknife"):
        cfg = ExperimentConfig(
            model="custom:3.0,2.0,1.0,0.5,0.25,0.1", f="log1p", seed=seed,
            mode=mode, n=n, m=2, subsets=3, replications=6, standardize="plugin",
        )
        res = run(cfg)
        for i in range(cfg.replications):
            s = sample_gaussian(model, n, derive_seed(seed, i))
            if mode == "plugin":
                est = plugin_estimate(f, s)
            elif mode == "aggregate":
                est = aggregate_estimate(f, s, make_scheme(2, n))
            else:
                est = jackknife_estimate(
                    f, s, make_scheme(2, n), 3, seed=derive_seed(seed, i, 1)
                )
            scale = gaussian_limit_std(
                f, CovarianceModel(sym_eigvalues(sample_covariance(s)))
            )
            assert res.estimates[i] == est
            assert res.standardized[i] == sqrt(n) * (est - res.truth) / (
                sqrt(2.0) * scale
            )
