"""Acceptance battery for the estimation library.

Eleven checks, one test each, covering the load-bearing claims: weight
identities of the aggregation scheme, exact and cancelled bias cases,
the quadratic remainder bound, bias-reduction dominance in a high
effective-rank regime, the RMSE rate in n, normal approximation of the
symmetrized statistic, the Gaussian variance limit, scalar/measure
consistency, the limiting spectral law, and worker-count determinism.

Each test prints one PASS/FAIL line with the measured numbers (the
lines bypass pytest capture so they always appear). Statistical checks
run at desk scale with frozen seeds; the whole module takes a few
minutes on one core.
"""

import numpy as np

from spectrace.estimators import (
    aggregate_estimate,
    coeffs_closed_form,
    jackknife_estimate,
    make_scheme,
    spectral_measure_estimate,
    taylor_remainder,
)
from spectrace.functions import builtin
from spectrace.linalg import (
    CovarianceModel,
    rng_from,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)
from spectrace.montecarlo import ExperimentConfig, rate_sweep, run, write_result_csvs
from spectrace.theory import esd_mp_ks, mp_cdf, mp_support
from oracles import coeffs_linear_system


def _report(capsys, label, ok, detail):
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{label}: {detail}"


def test_c01_weight_identities(capsys):
    worst_sum, worst_cancel, worst_agree = 0.0, 0.0, 0.0
    count = 0
    for m in range(2, 7):
        for q in (1.5, 2.0, 3.0):
            for n in (1000, 10_000):
                scheme = make_scheme(m, n, q)
                c = scheme.coeffs
                ns = np.asarray(scheme.sizes, dtype=float)
                worst_sum = max(worst_sum, abs(float(c.sum()) - 1.0))
                for ell in range(1, m):
                    terms = c / ns ** ell
                    resid = abs(float(terms.sum())) / float(np.max(np.abs(terms)))
                    worst_cancel = max(worst_cancel, resid)
                direct = coeffs_closed_form(scheme.sizes)
                solved = coeffs_linear_system(scheme.sizes)
                agree = float(
                    np.max(np.abs(direct - solved)) / np.max(np.abs(direct))
                )
                worst_agree = max(worst_agree, agree)
                count += 1
    ok = worst_sum <= 1e-10 and worst_cancel <= 1e-10 and worst_agree <= 1e-8
    _report(
        capsys, "check 01 weight identities", ok,
        f"{count} schemes: |sum C - 1| <= {worst_sum:.2e}, "
        f"normalized cancellation <= {worst_cancel:.2e}, "
        f"closed form vs solve <= {worst_agree:.2e}",
    )


def test_c02_identity_function_unbiased_all_modes(capsys):
    details, ok = [], True
    for mode in ("plugin", "aggregate", "jackknife"):
        res = run(ExperimentConfig(
            model="identity:20", f="identity", seed=201, mode=mode,
            n=400, m=3, subsets=50, replications=2000,
        ))
        bias, se = res.summary["bias"], res.summary["bias_se"]
        ok = ok and abs(bias) <= 3 * se
        details.append(f"{mode} bias {bias:+.4f} (se {se:.4f})")
    _report(capsys, "check 02 unbiased for f(x)=x", ok, ", ".join(details))


def test_c03_square_bias_value_and_cancellation(capsys):
    plugin = run(ExperimentConfig(
        model="identity:20", f="square", seed=301, mode="plugin",
        n=200, replications=4000,
    ))
    agg = run(ExperimentConfig(
        model="identity:20", f="square", seed=301, mode="aggregate",
        n=200, m=2, replications=4000,
    ))
    expect = (20.0 + 400.0) / 200.0  # (tr S^2 + (tr S)^2) / n for S = I_20
    pb, pse = plugin.summary["bias"], plugin.summary["bias_se"]
    ab, ase = agg.summary["bias"], agg.summary["bias_se"]
    ok = abs(pb - expect) <= 3 * pse and abs(ab) <= 3 * ase
    _report(
        capsys, "check 03 square-law bias", ok,
        f"plugin bias {pb:.4f} vs {expect} (se {pse:.4f}), "
        f"aggregate bias {ab:+.4f} (se {ase:.4f})",
    )


def _pair(k, d=8):
    rng = rng_from(400, k)
    model = CovarianceModel.from_values(
        rng.uniform(0.2, 3.0, size=d)
    ).with_random_basis(int(rng.integers(0, 2 ** 32)))
    n = int(rng.integers(d, 6 * d))
    x = sample_gaussian(model, n, int(rng.integers(0, 2 ** 32)))
    return model, sample_covariance(x)


def test_c04_remainder_quadratic_bound(capsys):
    fs = [builtin(name) for name in ("square", "log1p", "rational")]
    square = fs[0]
    worst_margin, worst_eq = np.inf, 0.0
    for k in range(1000):
        model, sigma_hat = _pair(k)
        h = sigma_hat - model.matrix()
        hsq = float(np.sum(h * h))
        upper = max(model.operator_norm(), float(np.max(sym_eigvalues(sigma_hat))))
        for f in fs:
            bound = 0.5 * f.lipschitz_fprime(upper) * hsq
            margin = bound * (1 + 1e-9) - abs(taylor_remainder(f, model, sigma_hat))
            worst_margin = min(worst_margin, margin)
        rel = abs(taylor_remainder(square, model, sigma_hat) - hsq) / hsq
        worst_eq = max(worst_eq, rel)
    ok = worst_margin >= 0.0 and worst_eq <= 1e-10
    _report(
        capsys, "check 04 remainder bound", ok,
        f"3000 draws: min bound margin {worst_margin:.3e}, "
        f"square-case relative equality gap {worst_eq:.2e}",
    )


def test_c05_bias_reduction_dominates_plugin(capsys):
    plugin = run(ExperimentConfig(
        model="identity:200", f="log1p", seed=501, mode="plugin",
        n=400, replications=2000,
    ))
    agg = run(ExperimentConfig(
        model="identity:200", f="log1p", seed=501, mode="aggregate",
        n=400, m=3, replications=2000,
    ))
    pb, pse = plugin.summary["bias"], plugin.summary["bias_se"]
    ab, ase = agg.summary["bias"], agg.summary["bias_se"]
    halved = abs(ab) < abs(pb) / 2
    separated = abs(pb) - 3 * pse > 2 * (abs(ab) + 3 * ase)
    _report(
        capsys, "check 05 bias reduction", halved and separated,
        f"plugin bias {pb:+.4f} (se {pse:.4f}), "
        f"aggregate bias {ab:+.4f} (se {ase:.4f}), "
        f"ratio {abs(ab) / abs(pb):.4f}",
    )


def test_c06_rmse_rate_slope(capsys):
    sweep = rate_sweep(ExperimentConfig(
        model="identity:20", f="log1p", seed=601, mode="aggregate",
        n_list=(500, 1000, 2000, 4000), m=3, replications=2000,
    ))
    ok = -0.65 <= sweep.slope <= -0.35
    _report(
        capsys, "check 06 rate slope", ok,
        f"log-log RMSE slope {sweep.slope:.4f} +- {sweep.slope_se:.4f} "
        f"over n in {sweep.n_values} (theory -0.5)",
    )


def test_c07_symmetrized_statistic_is_normal(capsys):
    res = run(ExperimentConfig(
        model="identity:10", f="log1p", seed=701, mode="jackknife",
        n=2000, m=2, subsets=50, replications=1000, standardize="oracle",
    ))
    ks = res.summary["ks_normal"]
    var = res.summary["standardized_var"]
    ok = ks <= 0.10 and 0.8 <= var <= 1.2
    _report(
        capsys, "check 07 normal approximation", ok,
        f"KS to N(0,1) {ks:.4f} (<= 0.10), standardized variance {var:.4f} "
        f"(in [0.8, 1.2])",
    )


def test_c08_trace_variance_matches_gaussian_limit(capsys):
    details, ok = [], True
    for d, seed in ((5, 801), (20, 802)):
        res = run(ExperimentConfig(
            model=f"identity:{d}", f="identity", seed=seed, mode="plugin",
            n=2000, replications=2000,
        ))
        ratio = 2000 * res.summary["std"] ** 2 / (2.0 * d)
        ok = ok and 0.85 <= ratio <= 1.15
        details.append(f"d={d}: n*Var/(2d) = {ratio:.4f}")
    _report(capsys, "check 08 variance limit", ok, ", ".join(details))


def test_c09_measure_integrals_match_scalar_estimates(capsys):
    fs = [builtin(name) for name in ("square", "log1p", "rational", "cube")]
    worst = 0.0
    for k in range(100):
        rng = rng_from(900, k)
        d = int(rng.integers(2, 9))
        model = CovarianceModel.from_values(rng.uniform(0.2, 3.0, size=d))
        m = int(rng.integers(2, 4))
        n = int(rng.integers(16, 121))
        x = sample_gaussian(model, n, int(rng.integers(0, 2 ** 32)))
        scheme = make_scheme(m, n, 2.0)
        f = fs[k % len(fs)]
        mode = "aggregate" if k % 2 == 0 else "jackknife"
        seed = 9000 + k
        measure = spectral_measure_estimate(
            x, scheme, mode=mode, subsets_per_level=6, seed=seed
        )
        if mode == "aggregate":
            scalar = aggregate_estimate(f, x, scheme)
        else:
            scalar = jackknife_estimate(
                f, x, scheme, subsets_per_level=6, seed=seed
            )
        gap = abs(measure.integrate(f) - scalar) / (1.0 + abs(scalar))
        worst = max(worst, gap)
    _report(
        capsys, "check 09 measure consistency", worst <= 1e-10,
        f"100 configs: max normalized gap {worst:.2e}",
    )


def test_c10_limiting_spectral_law(capsys):
    worst_mass = 0.0
    for gamma in (0.1, 0.5, 1.0, 2.0):
        _, b = mp_support(gamma)
        worst_mass = max(worst_mass, abs(mp_cdf(gamma, b) - 1.0))
    x = sample_gaussian(CovarianceModel.identity(500), 1000, 1001)
    lam = sym_eigvalues(sample_covariance(x))
    ks = esd_mp_ks(lam, 0.5)
    ok = worst_mass <= 1e-6 and ks <= 0.05
    _report(
        capsys, "check 10 spectral law", ok,
        f"max |total mass - 1| = {worst_mass:.2e} over gamma in "
        f"{{0.1, 0.5, 1, 2}}, ESD KS {ks:.4f} at d=500 n=1000",
    )


def test_c11_csv_outputs_independent_of_worker_count(capsys, tmp_path):
    outs = []
    for workers in (1, 2, 8):
        config = ExperimentConfig(
            model="identity:4", f="log1p", seed=111, mode="jackknife",
            n=60, m=2, subsets=10, replications=40, workers=workers,
        )
        outdir = tmp_path / f"w{workers}"
        outdir.mkdir()
        write_result_csvs(run(config), outdir)
        outs.append({p.name: p.read_bytes() for p in sorted(outdir.iterdir())})
    names = set(outs[0])
    ok = all(set(o) == names for o in outs) and all(
        o[name] == outs[0][name] for o in outs[1:] for name in names
    )
    _report(
        capsys, "check 11 worker determinism", ok,
        f"files {sorted(names)} byte-identical across workers 1, 2, 8",
    )
