import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from spectrace.estimators import (
    AggregationScheme,
    ComputeBudgetError,
    SchemeError,
    aggregate_estimate,
    coeffs_closed_form,
    coeffs_linear_system,
    degenerate_scheme,
    fit_bias_expansion,
    jackknife_estimate,
    linear_term,
    make_scheme,
    plugin_estimate,
    spectral_measure_estimate,
    taylor_remainder,
)
from spectrace.functions import builtin, tau_f
from spectrace.linalg import (
    CovarianceModel,
    SampleSet,
    derive_seed,
    rng_from,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)

# --- schemes ----------------------------------------------------------------


def test_scheme_m2_oracle():
    s = make_scheme(2, 100, 2.0)
    assert s.sizes == (50, 100)
    assert np.array_equal(s.coeffs, [-1.0, 2.0])


def test_scheme_m3_oracle():
    s = make_scheme(3, 400, 2.0)
    assert s.sizes == (100, 200, 400)
    assert np.allclose(s.coeffs, [1 / 3, -2.0, 8 / 3], atol=1e-14)
    # independent route: solve the defining equations directly
    ns = np.array([100.0, 200.0, 400.0])
    mat = np.vstack([np.ones(3), 1 / ns, 1 / ns ** 2])
    rhs = np.array([1.0, 0.0, 0.0])
    direct = np.linalg.solve(mat, rhs)
    assert np.allclose(s.coeffs, direct, atol=1e-10)


def test_scheme_identities_hold():
    for m, q, n in [(2, 2.0, 100), (4, 1.5, 5000), (5, 3.0, 100000)]:
        s = make_scheme(m, n, q)
        assert abs(float(s.coeffs.sum()) - 1.0) <= 1e-10
        ns = np.asarray(s.sizes, dtype=float)
        for ell in range(1, m):
            terms = s.coeffs / ns ** ell
            assert abs(float(terms.sum())) <= 1e-10 * float(np.max(np.abs(terms)))
        assert np.allclose(
            coeffs_closed_form(s.sizes), coeffs_linear_system(s.sizes), rtol=1e-8
        )


def test_scheme_rejects_small_n_with_hint():
    with pytest.raises(SchemeError, match="increase n or decrease q"):
        make_scheme(2, 3, 2.0)
    with pytest.raises(SchemeError):
        make_scheme(4, 10, 2.0)
    with pytest.raises(SchemeError):
        make_scheme(1, 100, 2.0)  # m too small
    with pytest.raises(SchemeError):
        make_scheme(2, 100, 1.0)  # q too small
    with pytest.raises(SchemeError):
        make_scheme(2, 100, float("nan"))


def test_scheme_largest_size_pinned_to_n():
    for n in (100, 101, 997):
        s = make_scheme(3, n, 1.7)
        assert s.sizes[-1] == n
        assert s.m == 3 and s.n == n


def test_scheme_direct_construction_validates():
    with pytest.raises(SchemeError, match="sum"):
        AggregationScheme((50, 100), np.array([-1.0, 2.5]))
    with pytest.raises(SchemeError, match="cancellation"):
        AggregationScheme((50, 100), np.array([-0.5, 1.5]))
    with pytest.raises(SchemeError, match="increasing"):
        AggregationScheme((100, 50), np.array([2.0, -1.0]))


@settings(max_examples=25, deadline=None)
@given(
    m=hst.integers(2, 6),
    q=hst.sampled_from([1.5, 2.0, 2.5, 3.0]),
    n=hst.integers(500, 20000),
)
def test_scheme_invariants_random(m, q, n):
    if n < 2 * q ** (m - 1):
        with pytest.raises(SchemeError):
            make_scheme(m, n, q)
        return
    s = make_scheme(m, n, q)
    assert len(set(s.sizes)) == m
    assert s.sizes[0] >= n / q ** (m - 1) - 0.5
    assert abs(float(s.coeffs.sum()) - 1.0) <= 1e-10


# --- scalar estimators --------------------------------------------------


def test_plugin_identity_equals_mean_squared_norm():
    x = sample_gaussian(CovarianceModel.identity(4), 25, 3)
    est = plugin_estimate(builtin("identity"), x)
    assert abs(est - float(np.mean(np.sum(x.data ** 2, axis=1)))) < 1e-12


def test_plugin_square_single_observation():
    # one observation v: the covariance is vv', tau_square = |v|^4
    s = SampleSet(np.array([[1.0, 2.0, 2.0]]))
    assert abs(plugin_estimate(builtin("square"), s) - 81.0) < 1e-12


def test_plugin_consistent_at_large_n():
    model = CovarianceModel.identity(10)
    x = sample_gaussian(model, 5000, 17)
    est = plugin_estimate(builtin("log1p"), x)
    assert abs(est - 10 * np.log(2.0)) < 0.2


def test_aggregate_with_degenerate_scheme_equals_plugin():
    x = sample_gaussian(CovarianceModel.from_values([2.0, 1.0, 0.5]), 40, 9)
    f = builtin("log1p")
    assert aggregate_estimate(f, x, degenerate_scheme(40)) == plugin_estimate(f, x)


def test_aggregate_rejects_wrong_sample_size():
    x = sample_gaussian(CovarianceModel.identity(3), 64, 0)
    with pytest.raises(SchemeError, match="n=100"):
        aggregate_estimate(builtin("identity"), x, make_scheme(2, 100, 2.0))


def test_aggregate_zero_data_gives_zero():
    s = SampleSet(np.zeros((100, 3)))
    assert aggregate_estimate(builtin("log1p"), s, make_scheme(2, 100, 2.0)) == 0.0


def test_aggregate_identity_unbiased():
    # f = identity: every level estimates the trace without bias, so the
    # aggregate does too; Monte Carlo mean within 3 SE of the truth
    model = CovarianceModel.from_values([2.0, 1.0, 1.0, 0.5, 0.5])
    scheme = make_scheme(2, 80, 2.0)
    f = builtin("identity")
    reps = 2000
    ests = np.array([
        aggregate_estimate(f, sample_gaussian(model, 80, derive_seed(40, i)), scheme)
        for i in range(reps)
    ])
    se = ests.std(ddof=1) / np.sqrt(reps)
    assert abs(ests.mean() - 5.0) < 3 * se


def test_square_first_order_bias_identity_matches_moments():
    # E tau_square(cov_n) - tau_square(Sigma) = (tr Sigma^2 + (tr Sigma)^2)/n
    # exactly for Gaussian samples; brute force at d=3, n=10
    model = CovarianceModel.from_values([2.0, 1.0, 0.5])
    expect = (5.25 + 3.5 ** 2) / 10
    f = builtin("square")
    reps = 20000
    ests = np.array([
        plugin_estimate(f, sample_gaussian(model, 10, derive_seed(41, i)))
        for i in range(reps)
    ])
    bias = ests.mean() - tau_f(f, model.eigenvalues)
    se = ests.std(ddof=1) / np.sqrt(reps)
    assert abs(bias - expect) < 3 * se


def test_jackknife_on_identical_observations_equals_aggregate():
    # every subset has the same covariance, so averaging changes nothing
    s = SampleSet(np.tile([1.0, -2.0, 0.5], (20, 1)))
    f = builtin("log1p")
    scheme = make_scheme(2, 20, 2.0)
    agg = aggregate_estimate(f, s, scheme)
    jk = jackknife_estimate(f, s, scheme, subsets_per_level=5, seed=8)
    assert abs(jk - agg) < 1e-12


def test_jackknife_deterministic_given_seed():
    x = sample_gaussian(CovarianceModel.identity(5), 60, 21)
    f = builtin("log1p")
    scheme = make_scheme(2, 60, 2.0)
    a = jackknife_estimate(f, x, scheme, subsets_per_level=7, seed=5)
    b = jackknife_estimate(f, x, scheme, subsets_per_level=7, seed=5)
    c = jackknife_estimate(f, x, scheme, subsets_per_level=7, seed=6)
    assert a == b
    assert a != c


def test_jackknife_identity_unbiased():
    model = CovarianceModel.from_values([2.0, 1.0, 1.0, 0.5, 0.5])
    scheme = make_scheme(2, 80, 2.0)
    f = builtin("identity")
    reps = 1500
    ests = np.array([
        jackknife_estimate(
            f, sample_gaussian(model, 80, derive_seed(42, i)), scheme,
            subsets_per_level=10, seed=derive_seed(42, i, 1),
        )
        for i in range(reps)
    ])
    se = ests.std(ddof=1) / np.sqrt(reps)
    assert abs(ests.mean() - 5.0) < 3 * se


def test_jackknife_averaging_does_not_increase_variance():
    # averaging over more subsets can only shrink the subset-selection
    # noise; compare B = 50 against B = 1 on the same replicates
    model = CovarianceModel.identity(10)
    scheme = make_scheme(2, 200, 2.0)
    f = builtin("log1p")
    reps = 1200
    many, single = np.empty(reps), np.empty(reps)
    for i in range(reps):
        x = sample_gaussian(model, 200, derive_seed(43, i))
        many[i] = jackknife_estimate(f, x, scheme, 50, seed=derive_seed(43, i, 1))
        single[i] = jackknife_estimate(f, x, scheme, 1, seed=derive_seed(43, i, 1))
    assert many.var(ddof=1) < single.var(ddof=1)


def test_jackknife_budget_error():
    x = sample_gaussian(CovarianceModel.identity(3), 100, 0)
    scheme = make_scheme(2, 100, 2.0)
    # 1 + 10_000 eigendecompositions, one over the fixed budget
    with pytest.raises(ComputeBudgetError, match="budget is 10000"):
        jackknife_estimate(builtin("identity"), x, scheme, 10_000)


def _reference_levels(x, scheme, subsets, seed):
    # (C_j, spectra) per level, one subset at a time; subsets=None means
    # nested prefixes
    levels = []
    for level, (size, weight) in enumerate(zip(scheme.sizes, scheme.coeffs)):
        if subsets is None or size == x.n:
            draws = [np.arange(size)]
        else:
            draws = [
                rng_from(seed, level, b).choice(x.n, size=size, replace=False)
                for b in range(subsets)
            ]
        spectra = [
            sym_eigvalues(sample_covariance(SampleSet(x.data[idx]))) for idx in draws
        ]
        levels.append((weight, spectra))
    return levels


def test_estimators_match_naive_per_subset_reference():
    # the scalar and measure paths share one subsample-spectrum engine, so
    # comparing them with each other cannot catch an engine fault; compare
    # both against the loop above, bit for bit
    rng = rng_from(778)
    for _ in range(12):
        d = int(rng.integers(2, 12))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(4 * 2 ** (m - 1), 240))
        subsets = int(rng.integers(1, 9))
        seed = int(rng.integers(0, 2 ** 32))
        model = CovarianceModel.from_values(rng.uniform(0.2, 3.0, size=d))
        x = sample_gaussian(model, n, seed)
        scheme = make_scheme(m, n, 2.0)
        f = builtin(["log1p", "square", "rational"][int(rng.integers(0, 3))])
        for mode, b in (("aggregate", None), ("jackknife", subsets)):
            levels = _reference_levels(x, scheme, b, seed + 1)
            expect = 0.0
            atoms = []
            for weight, spectra in levels:
                acc = 0.0
                for lam in spectra:
                    acc += tau_f(f, lam)
                    atoms += [(v, weight / len(spectra)) for v in lam.tolist()]
                expect += weight * (acc / len(spectra))
            if mode == "aggregate":
                got = aggregate_estimate(f, x, scheme)
            else:
                got = jackknife_estimate(f, x, scheme, subsets, seed=seed + 1)
            assert got == expect
            mu = spectral_measure_estimate(x, scheme, mode, subsets, seed=seed + 1)
            order = np.lexsort((mu.weights, mu.locations))
            got_atoms = list(zip(mu.locations[order].tolist(), mu.weights[order].tolist()))
            assert got_atoms == sorted(atoms)


# --- spectral measures ----------------------------------------------------


def test_measure_total_mass_and_identity_integral():
    x = sample_gaussian(CovarianceModel.identity(4), 100, 31)
    scheme = make_scheme(2, 100, 2.0)
    mu = spectral_measure_estimate(x, scheme, "aggregate")
    # each level carries dim atoms of weight C_j; masses sum to dim * 1
    assert abs(mu.total_mass() - 4.0) < 1e-12
    assert mu.locations.size == 8
    f = builtin("identity")
    assert abs(mu.integrate(f) - aggregate_estimate(f, x, scheme)) < 1e-12


def test_measure_single_observation_atom():
    s = SampleSet(np.array([[3.0, 4.0]]))
    mu = spectral_measure_estimate(s, degenerate_scheme(1), "aggregate")
    # covariance is rank one with eigenvalue |x|^2 = 25
    assert sorted(mu.locations.tolist()) == [0.0, 25.0]
    assert np.array_equal(mu.weights, [1.0, 1.0])


def test_measure_consistency_across_random_configs():
    rng = rng_from(777)
    for _ in range(20):
        d = int(rng.integers(2, 12))
        m = int(rng.integers(2, 5))
        q = float(rng.uniform(1.5, 3.0))
        n = int(rng.integers(int(2 * q ** (m - 1)) + m * 4, 400))
        mode = ["aggregate", "jackknife"][int(rng.integers(0, 2))]
        fname = ["log1p", "square", "rational", "scaled_sine:1.5"][int(rng.integers(0, 4))]
        seed = int(rng.integers(0, 2 ** 32))
        model = CovarianceModel.from_values(rng.uniform(0.2, 3.0, size=d))
        x = sample_gaussian(model, n, seed)
        scheme = make_scheme(m, n, q)
        f = builtin(fname)
        if mode == "aggregate":
            scalar = aggregate_estimate(f, x, scheme)
        else:
            scalar = jackknife_estimate(f, x, scheme, 10, seed=seed + 1)
        mu = spectral_measure_estimate(x, scheme, mode, 10, seed=seed + 1)
        assert abs(mu.integrate(f) - scalar) <= 1e-10 * (1.0 + abs(scalar))


def test_measure_jackknife_atoms_and_weights():
    x = sample_gaussian(CovarianceModel.identity(3), 60, 12)
    scheme = make_scheme(2, 60, 2.0)
    mu = spectral_measure_estimate(x, scheme, "jackknife", subsets_per_level=4, seed=5)
    # 4 subsets x 3 atoms at level 1 plus 3 full-sample atoms
    assert mu.locations.size == 15
    assert np.allclose(np.sort(np.unique(mu.weights)), [-0.25, 2.0])
    assert abs(mu.total_mass() - 3.0) < 1e-12


def test_measure_rejects_bad_mode_and_budget():
    x = sample_gaussian(CovarianceModel.identity(3), 40, 0)
    scheme = make_scheme(2, 40, 2.0)
    with pytest.raises(ValueError, match="mode"):
        spectral_measure_estimate(x, scheme, "plugin")
    with pytest.raises(ComputeBudgetError):
        spectral_measure_estimate(x, scheme, "jackknife", 10_000)


def test_measure_csv_sorted_and_stable(tmp_path):
    x = sample_gaussian(CovarianceModel.identity(3), 40, 4)
    mu = spectral_measure_estimate(x, make_scheme(2, 40, 2.0), "aggregate")
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    mu.to_csv(p1)
    mu.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = p1.read_text().strip().splitlines()
    assert rows[0] == "location,weight"
    locs = [float(r.split(",")[0]) for r in rows[1:]]
    assert locs == sorted(locs)


# --- expansion terms ------------------------------------------------------


def test_linear_term_vanishes_at_truth():
    model = CovarianceModel.from_values([2.0, 1.0]).with_random_basis(5)
    assert linear_term(builtin("log1p"), model, model.matrix()) == 0.0


def test_linear_term_identity_is_trace_gap():
    model = CovarianceModel.from_values([2.0, 1.0, 0.5]).with_random_basis(8)
    rng = rng_from(51)
    h = rng.standard_normal((3, 3))
    h = (h + h.T) / 10
    sigma_hat = model.matrix() + h
    lin = linear_term(builtin("identity"), model, sigma_hat)
    assert abs(lin - np.trace(h)) < 1e-12


def test_linear_term_square_diagonal_case():
    model = CovarianceModel.from_values([3.0, 1.0])
    h = np.diag([0.2, -0.1])
    lin = linear_term(builtin("square"), model, model.matrix() + h)
    # f'(lam) = 2 lam: contribution 2*3*0.2 + 2*1*(-0.1)
    assert abs(lin - 1.0) < 1e-14


def test_remainder_zero_for_identity():
    model = CovarianceModel.from_values([2.0, 1.0, 0.5])
    rng = rng_from(52)
    h = rng.standard_normal((3, 3))
    h = (h + h.T) / 10
    r = taylor_remainder(builtin("identity"), model, model.matrix() + h)
    assert abs(r) < 1e-12


def _random_pair(k, d=5):
    # PSD truth with random basis plus a Wishart-style perturbed estimate
    rng = rng_from(600, k)
    model = CovarianceModel.from_values(rng.uniform(0.2, 3.0, size=d)).with_random_basis(
        int(rng.integers(0, 2 ** 32))
    )
    n = int(rng.integers(d, 6 * d))
    x = sample_gaussian(model, n, int(rng.integers(0, 2 ** 32)))
    return model, sample_covariance(x)


def test_remainder_square_equals_frobenius_norm_squared():
    f = builtin("square")
    for k in range(25):
        model, sigma_hat = _random_pair(k)
        h = sigma_hat - model.matrix()
        expect = float(np.sum(h * h))
        got = taylor_remainder(f, model, sigma_hat)
        assert abs(got - expect) <= 1e-10 * (1.0 + expect)


@pytest.mark.parametrize("name", ["square", "log1p", "rational"])
def test_remainder_bounded_by_lipschitz_quadratic(name):
    f = builtin(name)
    for k in range(40):
        model, sigma_hat = _random_pair(k)
        h = sigma_hat - model.matrix()
        upper = max(model.operator_norm(), float(np.max(sym_eigvalues(sigma_hat))))
        bound = 0.5 * f.lipschitz_fprime(upper) * float(np.sum(h * h))
        assert abs(taylor_remainder(f, model, sigma_hat)) <= bound * (1 + 1e-9)


# --- bias expansion fit ------------------------------------------------


def test_fit_bias_identity_is_null():
    model = CovarianceModel.identity(4)
    fit = fit_bias_expansion(builtin("identity"), model, 2, [30, 60, 120], 2000, 71)
    for b, se in zip(fit.coefficients, fit.standard_errors):
        assert abs(b) < 3 * se


def test_fit_bias_square_recovers_moment_coefficient():
    # first-order coefficient for f = x^2 is tr Sigma^2 + (tr Sigma)^2 = 20
    model = CovarianceModel.identity(4)
    fit = fit_bias_expansion(builtin("square"), model, 2, [40, 80, 160], 4000, 72)
    b1, se1 = fit.coefficients[0], fit.standard_errors[0]
    assert abs(b1 - 20.0) < 3 * se1
    assert se1 < 8.0  # resolvable, not vacuous


def test_fit_bias_log1p_first_coefficient_negative():
    model = CovarianceModel.identity(5)
    fit = fit_bias_expansion(
        builtin("log1p"), model, 2, [250, 500, 1000, 2000], 10000, 73
    )
    b1, se1 = fit.coefficients[0], fit.standard_errors[0]
    assert b1 < 0
    assert b1 + 3 * se1 < 0  # significantly negative
    assert fit.n_values == (250, 500, 1000, 2000)


def test_fit_bias_rejects_degenerate_design():
    model = CovarianceModel.identity(3)
    with pytest.raises(ValueError, match="distinct n"):
        fit_bias_expansion(builtin("square"), model, 2, [100, 200], 50, 0)
