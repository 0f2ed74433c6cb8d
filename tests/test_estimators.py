import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from spectrace import estimators
from spectrace.estimators import (
    MODES,
    AggregationScheme,
    ComputeBudgetError,
    SchemeError,
    SignedSpectralMeasure,
    aggregate_estimate,
    coeffs_closed_form,
    jackknife_estimate,
    level_plan,
    level_spectra,
    linear_term,
    make_scheme,
    spectral_measure_estimate,
    taylor_remainder,
)
from spectrace.functions import builtin, tau_f
from spectrace.linalg import (
    CovarianceModel,
    SampleSet,
    Stream,
    derive_seed,
    rng_from,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)
from oracles import coeffs_linear_system

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
    with pytest.raises(SchemeError, match="q must be finite"):
        make_scheme(2, 100, float("inf"))


def test_scheme_largest_size_pinned_to_n():
    for n in (100, 101, 997):
        s = make_scheme(3, n, 1.7)
        assert s.sizes[-1] == n
        assert s.m == 3 and s.n == n


def test_scheme_direct_construction_validates():
    # the weights are derived from the sizes, never passed in, and the scheme
    # holds no q: any strictly increasing sizes define one
    assert np.array_equal(AggregationScheme((50, 100)).coeffs, [-1.0, 2.0])
    wide = AggregationScheme((10, 100))
    assert np.array_equal(wide.coeffs, coeffs_closed_form((10, 100)))
    with pytest.raises(TypeError):
        AggregationScheme((50, 100), q=2.0)
    with pytest.raises(SchemeError, match="increasing"):
        AggregationScheme((100, 50))
    with pytest.raises(TypeError):
        AggregationScheme((50, 100), np.array([-1.0, 2.0]))
    with pytest.raises(TypeError):
        AggregationScheme((50, 100), coeffs=np.array([-1.0, 2.0]))
    with pytest.raises(SchemeError, match="distinct"):
        coeffs_closed_form((3, 3))


def test_scheme_refuses_an_m_whose_size_rule_overflows_a_float():
    # 2.0 ** 1099 overflows; 1.5 ** 1099 does not, and both are refused alike
    for q, need in ((2.0, "inf"), (1.5, "6.68842e+193")):
        message = f"n=100 is too small for m=1100, q={q} (needs n >= {need})"
        with pytest.raises(SchemeError, match=re.escape(message)):
            make_scheme(1100, 100, q)


def test_scheme_weights_match_the_exact_rationals_at_n_1e30():
    # n_j**11 would overflow past n of about 1e28; the closed form does not
    s = make_scheme(12, 10**30)
    assert s.n == 10**30
    for c, exact in zip(s.coeffs.tolist(), exact_weights(s.sizes)):
        assert abs(Fraction(c) - exact) <= 1e-13 * abs(exact)


def test_scheme_refuses_weights_whose_sum_reaches_2_52():
    # weights past the float range (whose sum C_j reads nan), and sum |C_j|
    # = 9.95e55, where each level's round-off swamps the estimate
    for args, l1 in (((800, 10**8, 1.001), "inf"), ((60, 2000, 1.01), "9.95e+55")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SchemeError, match=re.escape(f"sum |C_j| is {l1} for sizes ")
                               + r".* past 2\*\*52"):
                make_scheme(*args)
    # valid plans whose z_j**l underflows to subnormals: a weight that is tiny
    # against sum |C_j| may round to 0, so the bound is relative to that sum
    for args in ((100, 10**12, 1.2), (200, 10**12, 1.1)):
        s = make_scheme(*args)
        l1 = s.coeff_l1()
        assert l1 < 2.0 ** 52
        for c, exact in zip(s.coeffs.tolist(), exact_weights(s.sizes)):
            assert abs(Fraction(c) - exact) <= 1e-13 * l1


def test_scheme_checks_its_subsets_and_budget_at_construction():
    scheme = make_scheme(3, 400, 2.0)
    assert scheme.subsets is None
    # a copy that sets subsets, and make_scheme given them, check alike
    for build in (lambda s: replace(scheme, subsets=s), lambda s: make_scheme(3, 400, 2.0, s)):
        assert build(4999).subsets == 4999  # 1 + 4999 * 2 evals
        with pytest.raises(ComputeBudgetError, match="10001 covariance eigendecompositions"):
            build(5000)
        with pytest.raises(SchemeError, match="subsets must be >= 1"):
            build(0)
    # the full-sample level is never subsampled, so one level draws nothing
    assert replace(AggregationScheme((40,)), subsets=20_000).subsets == 20_000


def test_level_plan_gives_only_the_jackknife_subsets():
    plugin = level_plan("plugin", 40, 3, 2.0, 7)
    assert (plugin.sizes, plugin.subsets) == ((40,), None)
    assert level_plan("aggregate", 40, 3, 2.0, 7).subsets is None
    jack = level_plan("jackknife", 40, 3, 2.0, 7)
    assert jack.sizes == make_scheme(3, 40, 2.0).sizes and jack.subsets == 7
    # the plug-in ignores m, but not q; only the jackknife is held to the budget
    assert level_plan("plugin", 40, 1, 2.0, 7).m == 1
    with pytest.raises(SchemeError, match="q must be finite and > 1"):
        level_plan("plugin", 40, 1, 0.5, 7)
    assert level_plan("aggregate", 40, 2, 2.0, 20_000).subsets is None
    with pytest.raises(ComputeBudgetError):
        level_plan("jackknife", 40, 2, 2.0, 20_000)
    with pytest.raises(ValueError, match="mode must be one of"):
        level_plan("bogus", 40, 2, 2.0, 7)
    # n, m and subsets below 1 are refused in every mode, even where ignored
    for mode in MODES:
        for args, name in (((0, 3, 7), "n"), ((40, 0, 7), "m"), ((40, 3, 0), "subsets")):
            n, m, subsets = args
            with pytest.raises(SchemeError, match=f"^{name} must be >= 1, got 0$"):
                level_plan(mode, n, m, 2.0, subsets)
    # q is a number: "2" is refused as a SchemeError, not read or failed on as a TypeError
    for build in (lambda q: make_scheme(2, 100, q), lambda q: level_plan("plugin", 40, 1, q, 7)):
        with pytest.raises(SchemeError, match="^q must be finite and > 1, got '2'$"):
            build("2")


def exact_weights(sizes) -> list[Fraction]:
    """The Lagrange weights at 0 for the nodes 1/n_j, in exact arithmetic."""
    out = []
    for j, nj in enumerate(sizes):
        w = Fraction(1)
        for i, ni in enumerate(sizes):
            if i != j:
                w *= Fraction(nj, nj - ni)
        out.append(w)
    return out


@settings(max_examples=200, deadline=None)
@given(
    m=hst.integers(2, 11),
    q=hst.sampled_from([1.1, 1.2, 1.5, 2.0, 2.5, 3.0]),
    n=hst.integers(2, 10**7),
)
# plans whose weights a Vandermonde solve gets wrong by more than 1e-8,
# though the closed form is exact to round-off
@example(m=9, q=2.0, n=26600)
@example(m=8, q=3.0, n=219700)
@example(m=11, q=1.5, n=6750)
# sum C_j is 1 - 6.8e-10 here, exact to round-off against max |C_j| = 1.5e6
@example(m=11, q=1.1, n=300)
def test_scheme_invariants_random(m, q, n):
    if n < 2 * q ** (m - 1):
        with pytest.raises(SchemeError):
            make_scheme(m, n, q)
        return
    try:
        s = make_scheme(m, n, q)
    except SchemeError as exc:
        # above the n bound, only rounding two levels onto one size refuses
        assert "collide" in str(exc)
        return
    assert len(set(s.sizes)) == m and s.n == n
    assert s.sizes[0] >= n / q ** (m - 1) - 0.5
    assert abs(float(s.coeffs.sum()) - 1.0) <= 1e-10 * float(np.max(np.abs(s.coeffs)))
    ns = np.asarray(s.sizes, dtype=float)
    for ell in range(1, m):
        terms = s.coeffs / ns ** ell
        assert abs(float(terms.sum())) <= 1e-10 * float(np.max(np.abs(terms)))
    for c, exact in zip(s.coeffs.tolist(), exact_weights(s.sizes)):
        assert abs(Fraction(c) - exact) <= 1e-13 * abs(exact)


# m sizes on an arithmetic grid base + step * k, k < 1000: close sizes give
# large weights, so both sides of the bound are drawn
_CLUSTERED_SIZES = hst.builds(
    lambda base, step, ks: sorted({base + step * k for k in ks}),
    hst.integers(1, 10**15), hst.integers(1, 10**6),
    hst.integers(1, 40).flatmap(
        lambda m: hst.lists(hst.integers(0, 999), min_size=m, max_size=m)),
)


@settings(max_examples=100, deadline=None)
@given(sizes=_CLUSTERED_SIZES)
@example(sizes=list(range(1000, 1040)))  # exact sum |C_j| 5.8e82
@example(sizes=[50, 100])
def test_scheme_builds_exactly_the_sizes_whose_weights_sum_below_2_52(sizes):
    l1 = sum(abs(w) for w in exact_weights(sizes))
    if l1 < 2 ** 51:
        assert AggregationScheme(tuple(sizes)).coeff_l1() < 2.0 ** 52
    elif l1 > 2 ** 53:  # between the two, round-off decides
        with pytest.raises(SchemeError, match=r"past 2\*\*52"):
            AggregationScheme(tuple(sizes))


# --- scalar estimators --------------------------------------------------


def test_plugin_identity_equals_mean_squared_norm():
    x = sample_gaussian(CovarianceModel.identity(4), 25, 3)
    est = aggregate_estimate(builtin("identity"), x, AggregationScheme((x.n,)))
    assert abs(est - float(np.mean(np.sum(x.data ** 2, axis=1)))) < 1e-12


def test_plugin_square_single_observation():
    # one observation v: the covariance is vv', tau_square = |v|^4
    s = SampleSet(np.array([[1.0, 2.0, 2.0]]))
    est = aggregate_estimate(builtin("square"), s, AggregationScheme((s.n,)))
    assert abs(est - 81.0) < 1e-12


def test_plugin_consistent_at_large_n():
    model = CovarianceModel.identity(10)
    x = sample_gaussian(model, 5000, 17)
    est = aggregate_estimate(builtin("log1p"), x, AggregationScheme((x.n,)))
    assert abs(est - 10 * np.log(2.0)) < 0.2


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
        aggregate_estimate(f, sample_gaussian(model, 10, derive_seed(41, i)),
                           AggregationScheme((10,)))
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


def test_jackknife_reads_b_from_its_plan():
    # a plan is one value, its subsets per level included: with no B given
    # the library's jackknife runs the plan as the engine (and the CLI) does
    x = sample_gaussian(CovarianceModel.identity(3), 40, 1)
    f = builtin("log1p")
    plan = make_scheme(2, 40, 2.0, subsets=7)
    engine = level_spectra(x, plan, 1)
    assert jackknife_estimate(f, x, plan, seed=1) == engine.integrate(f)
    (_, spectra), _ = spectral_measure_estimate(x, plan, "jackknife", seed=1).levels
    assert spectra.shape[0] == 7
    # an explicit B still wins, and a plan without subsets still runs 50
    assert jackknife_estimate(f, x, plan, 3, seed=1) == level_spectra(
        x, replace(plan, subsets=3), 1).integrate(f)
    bare = make_scheme(2, 40, 2.0)
    assert jackknife_estimate(f, x, bare, seed=1) == jackknife_estimate(f, x, bare, 50, seed=1)


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


def _reference_spectrum(rows):
    # the per-matrix rule spelled out: the d x d Gram, or below d the
    # exactly symmetrized k x k dual X X'/k, whose k eigenvalues are kept
    k, d = rows.shape
    if k >= d:
        return sym_eigvalues(sample_covariance(SampleSet(rows)))
    dual = rows @ rows.T
    return sym_eigvalues((dual + dual.T) / (2.0 * k))


def _reference_levels(x, scheme, subsets, seed):
    # (C_j, spectra) per level, one subset at a time; subsets=None means
    # nested prefixes. Subset b is the first n_j entries of the argsort of
    # row b of the level generator's uniforms, drawn here a row at a time
    levels = []
    for level, (size, weight) in enumerate(zip(scheme.sizes, scheme.coeffs)):
        if subsets is None or size == x.n:
            draws = [np.arange(size)]
        else:
            rng = rng_from(seed, level, Stream.LEVEL)
            draws = [np.argsort(rng.random(x.n))[:size] for _ in range(subsets)]
        spectra = [_reference_spectrum(x.data[idx]) for idx in draws]
        levels.append((weight, spectra))
    return levels


def test_estimators_match_naive_per_subset_reference():
    # the scalar and measure paths share one subsample-spectrum engine, so
    # comparing them with each other cannot catch an engine fault; compare
    # both against the loop above, bit for bit. The last 6 configurations
    # have n < 2d, so every sub-full level has n_j < d and takes the dual
    rng = rng_from(778)
    for wide in [False] * 12 + [True] * 6:
        d = int(rng.integers(2, 12))
        m = int(rng.integers(2, 5))
        n = int(rng.integers(4 * 2 ** (m - 1), 240))
        if wide:
            d = int(rng.integers(n // 2 + 1, n + 40))
        subsets = int(rng.integers(1, 9))
        seed = int(rng.integers(0, 2 ** 32))
        model = CovarianceModel.from_values(rng.uniform(0.2, 3.0, size=d))
        x = sample_gaussian(model, n, seed)
        scheme = make_scheme(m, n, 2.0)
        f = builtin(["log1p", "square", "rational"][int(rng.integers(0, 3))])
        for mode, b in (("aggregate", None), ("jackknife", subsets)):
            levels = _reference_levels(x, scheme, b, seed + 1)
            expect = 0.0
            for weight, spectra in levels:
                acc = 0.0
                for lam in spectra:
                    acc += tau_f(f, lam)
                expect += weight * (acc / len(spectra))
            if mode == "aggregate":
                got = aggregate_estimate(f, x, scheme)
            else:
                got = jackknife_estimate(f, x, scheme, subsets, seed=seed + 1)
            assert got == expect
            mu = spectral_measure_estimate(x, scheme, mode, subsets, seed=seed + 1)
            assert [(w, s.tolist()) for w, s in mu.levels] == [
                (w, [lam.tolist() for lam in spectra]) for w, spectra in levels]


def test_level_spectra_do_not_depend_on_the_block_size(monkeypatch, level_draws):
    # d = 6, sizes 100 and 200: the default block holds each level whole;
    # one subset per block, then 6 and 3 per block (50 = 8 * 6 + 2 =
    # 16 * 3 + 2), must give the same bits
    block_default = estimators._BLOCK_BYTES
    x = sample_gaussian(CovarianceModel.from_values([3.0, 2.0, 1.0, 1.0, 0.5, 0.1]),
                        400, 51)
    scheme = replace(make_scheme(3, 400, 2.0), subsets=50)
    default = level_spectra(x, scheme, 9).levels
    for block_bytes in (1, 3 * 200 * 6 * 8):
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_bytes)
        levels = level_spectra(x, scheme, 9).levels
        assert [w for w, _ in levels] == [w for w, _ in default]
        for (_, got), (_, expect) in zip(levels, default):
            assert got.shape == expect.shape and (got == expect).all()
    # d = 50, sizes 20, 40 and 80: the two sub-full levels take the dual,
    # whose Gram is 20^2 and 40^2 words, not 50^2, and whose spectra are
    # 20 and 40 long, not 50. A full block holds as many subsets as fit
    # with that Gram and spectrum counted (7 and 3 at 91,440 bytes; 3 and
    # 2 if it counted d^2)
    d, n = 50, 80
    x = sample_gaussian(CovarianceModel.from_values(np.linspace(2.0, 0.1, d)), n, 54)
    scheme = replace(make_scheme(3, n, 2.0), subsets=10)
    monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_default)
    default = level_spectra(x, scheme, 11).levels
    assert [s.shape for _, s in default] == [(10, 20), (10, 40), (1, d)]
    for block_bytes in (1, 91_440):
        level_draws.clear()
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_bytes)
        levels = level_spectra(x, scheme, 11).levels
        for (_, got), (_, expect) in zip(levels, default):
            assert got.shape == expect.shape and (got == expect).all()
        for i, (level, (b, _)) in enumerate(level_draws):
            size = scheme.sizes[level]
            width = min(size, d)
            per_subset = 8 * (2 * n + size * d + width ** 2 + width)
            assert b == 1 or b * per_subset <= block_bytes
            last = i + 1 == len(level_draws) or level_draws[i + 1][0] != level
            assert last or (b + 1) * per_subset > block_bytes
        if block_bytes == 91_440:
            assert [b for _, (b, _) in level_draws] == [7, 3, 3, 3, 3, 1]


def test_level_spectra_do_not_depend_on_the_block_size_when_the_draw_dominates(
    monkeypatch, level_draws
):
    # d = 2, n = 2000: a subset's uniforms and their argsort (2n = 4000
    # words) outweigh its rows (500 to 2000 words), so the draw must bound
    # the block. At 96,000 bytes rows alone would allow 24, 12 and 6
    # subsets per block at sizes 250, 500 and 1000; with the draw counted
    # at most 2, 2 and 1 fit. 7 = 2 + 2 + 2 + 1 leaves a short last block
    d, n = 2, 2000
    x = sample_gaussian(CovarianceModel.from_values([2.0, 0.5]), n, 53)
    scheme = replace(make_scheme(4, n, 2.0), subsets=7)
    default = level_spectra(x, scheme, 10).levels
    for block_bytes in (1, 96_000):
        level_draws.clear()
        monkeypatch.setattr(estimators, "_BLOCK_BYTES", block_bytes)
        levels = level_spectra(x, scheme, 10).levels
        for (_, got), (_, expect) in zip(levels, default):
            assert got.shape == expect.shape and (got == expect).all()
        assert sorted({level for level, _ in level_draws}) == [0, 1, 2]
        for level, (b, width) in level_draws:
            size = scheme.sizes[level]
            assert width == n
            assert b == 1 or 8 * b * (2 * n + size * d) <= block_bytes
        if block_bytes == 1:
            assert len(level_draws) == 3 * 7


@pytest.mark.parametrize("mode", ["plugin", "jackknife"])
def test_level_spectra_raise_on_an_overflowing_gram(mode):
    # finite data whose Gram overflows; jackknife overflows in a stacked block
    x = SampleSet(1e200 * rng_from(3).standard_normal((8, 2)))
    scheme = level_plan(mode, 8, 2, 2.0, 4)
    with pytest.raises(FloatingPointError, match="sample covariance overflows"):
        level_spectra(x, scheme, 0)


@settings(max_examples=30, deadline=None)
@given(
    mode=hst.sampled_from(MODES),
    d=hst.integers(2, 8),
    n=hst.integers(16, 80),
    m=hst.integers(2, 3),
    log_c=hst.floats(-3.0, 3.0),
    seed=hst.integers(0, 2 ** 32 - 1),
)
def test_identity_estimates_scale_with_the_square_of_the_data(mode, d, n, m, log_c, seed):
    # tr of c X'X/k is c^2 tr X'X/k; round-off per spectrum is far below
    # 1e-12 of its trace, and the scheme weighs spectra by at most coeff_l1
    c = 10.0 ** log_c
    f = builtin("identity")
    x = sample_gaussian(CovarianceModel.from_values(np.linspace(2.0, 0.1, d)), n, seed)
    scheme = level_plan(mode, n, m, 2.0, 5)
    base = level_spectra(x, scheme, seed).integrate(f)
    measure = level_spectra(SampleSet(c * x.data), scheme, seed)
    scaled = measure.integrate(f)
    tol = 1e-12 * scheme.coeff_l1() * float(measure.full_spectrum.sum())
    assert abs(scaled - c * c * base) <= tol


def test_measure_integral_raises_when_its_weighted_sum_overflows():
    # every tau_f is finite; the integral -1e308 + 2 * 1.5e308 is not
    f = builtin("identity")
    levels = [(-1.0, np.array([[1e308]])), (2.0, np.array([[1.5e308]]))]
    with pytest.raises(FloatingPointError, match="level sum of tau_f of identity"):
        SignedSpectralMeasure(levels).integrate(f)
    # the sum of two 1e308 rows overflows, their mean does not
    assert SignedSpectralMeasure([(1.0, np.array([[1e308], [1e308]]))]).integrate(f) == 1e308


def test_measure_integral_refuses_a_negative_spectrum_as_tau_f_does():
    f = builtin("log1p")
    bad = np.array([0.7, 0.2, -1e-3])
    levels = [(-1.0, np.array([[0.5, 0.1, 0.0], bad, [0.4, 0.3, 0.2]])),
              (2.0, np.array([[1.0, 0.5, 0.25]]))]
    with pytest.raises(ValueError) as from_tau_f:
        tau_f(f, bad)
    with pytest.raises(ValueError) as from_measure:
        SignedSpectralMeasure(levels).integrate(f)
    assert str(from_measure.value) == str(from_tau_f.value)
    assert "nonnegative" in str(from_tau_f.value)


@settings(max_examples=25, deadline=None)
@given(
    d=hst.integers(5, 24),
    n=hst.integers(4, 23),
    log_scale=hst.floats(-3.0, 3.0),
    seed=hst.integers(0, 2 ** 32 - 1),
)
def test_rank_deficient_data_never_trips_the_negativity_check(d, n, log_scale, seed):
    # n < d, so every level (n_j <= n) has a null space of dimension
    # d - n_j whose round-off must land in the clip band, in every mode
    n = min(n, d - 1)
    rng = rng_from(seed)
    x = SampleSet(10.0 ** log_scale * rng.standard_normal((n, d))
                  * rng.uniform(0.5, 2.0, size=d))
    for mode in MODES:
        scheme = level_plan(mode, n, 2, 2.0, 4)
        measure = level_spectra(x, scheme, seed)
        for f in (builtin("log1p"), builtin("rational")):
            assert np.isfinite(measure.integrate(f))
        for (_, spectra), size in zip(measure.levels, scheme.sizes):
            assert (spectra >= 0.0).all()
            # the d - n_j smallest are the null space, zero up to round-off
            assert (spectra[:, size:] <= 1e-10 * spectra[:, :1]).all()


@settings(max_examples=25, deadline=None)
@given(
    d=hst.integers(1, 12),
    n=hst.integers(1, 60),
    seed=hst.integers(0, 2 ** 32 - 1),
)
def test_plugin_is_invariant_under_row_permutation(d, n, seed):
    # a permutation reorders the Gram's sums only: equal to round-off,
    # 1e-10 relative being far above the float64 error of n-term sums
    rng = rng_from(seed)
    x = rng.standard_normal((n, d)) * rng.uniform(0.1, 3.0, size=d)
    f = builtin("log1p")
    scheme = level_plan("plugin", n, 2, 2.0, 1)
    base = level_spectra(SampleSet(x), scheme, 0).integrate(f)
    permuted = SampleSet(x[rng.permutation(n)])
    got = level_spectra(permuted, scheme, 0).integrate(f)
    assert abs(got - base) <= 1e-10 * max(1.0, abs(base))
    assert got == aggregate_estimate(f, permuted, AggregationScheme((permuted.n,)))


# --- spectral measures ----------------------------------------------------


def test_measure_total_mass_and_identity_integral():
    x = sample_gaussian(CovarianceModel.identity(4), 100, 31)
    scheme = make_scheme(2, 100, 2.0)
    mu = spectral_measure_estimate(x, scheme, "aggregate")
    # each level carries dim atoms of weight C_j; masses sum to dim * 1
    assert abs(sum(w * s.shape[1] for w, s in mu.levels) - 4.0) < 1e-12
    assert [s.shape for _, s in mu.levels] == [(1, 4), (1, 4)]
    f = builtin("identity")
    assert mu.integrate(f) == aggregate_estimate(f, x, scheme)


def test_measure_single_observation_atom():
    s = SampleSet(np.array([[3.0, 4.0]]))
    mu = spectral_measure_estimate(s, AggregationScheme((1,)), "aggregate")
    # covariance is rank one with eigenvalue |x|^2 = 25, its one atom: the
    # null eigenvalue adds nothing to an integral of f with f(0) = 0
    assert [(w, s.tolist()) for w, s in mu.levels] == [(1.0, [[25.0]])]


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
        assert mu.integrate(f) == scalar


def test_measure_integral_raises_when_the_engine_measure_overflows():
    # sizes 2 and 4 weigh C = (-1, 2); the full sample's tau_f of square is
    # 1.27e308, finite, and twice it is not. A dot product over the
    # flattened atoms returned inf here, with only a RuntimeWarning
    x = SampleSet(np.array([[1.0], [1.0], [1.5e77], [1.5e77]]))
    mu = spectral_measure_estimate(x, make_scheme(2, 4, 2.0), "aggregate")
    f = builtin("square")
    assert [w for w, _ in mu.levels] == [-1.0, 2.0]
    locations = np.concatenate([s.ravel() for _, s in mu.levels])
    weights = np.concatenate([np.full(s.size, w / len(s)) for w, s in mu.levels])
    with np.errstate(over="ignore"):
        assert np.dot(weights, f.deriv(0, locations)) == np.inf
    with pytest.raises(FloatingPointError, match="level sum of tau_f of square"):
        mu.integrate(f)


def test_measure_jackknife_atoms_and_weights():
    x = sample_gaussian(CovarianceModel.identity(3), 60, 12)
    scheme = make_scheme(2, 60, 2.0)
    mu = spectral_measure_estimate(x, scheme, "jackknife", subsets_per_level=4, seed=5)
    # 4 subsets x 3 atoms at level 1 plus 3 full-sample atoms
    assert [s.shape for _, s in mu.levels] == [(4, 3), (1, 3)]
    assert np.allclose([w / len(s) for w, s in mu.levels], [-0.25, 2.0])
    assert abs(sum(w * s.shape[1] for w, s in mu.levels) - 3.0) < 1e-12


def test_measure_rejects_bad_mode_and_budget():
    x = sample_gaussian(CovarianceModel.identity(3), 40, 0)
    scheme = make_scheme(2, 40, 2.0)
    for plan in (scheme, AggregationScheme((40,))):
        with pytest.raises(ValueError, match="mode"):
            spectral_measure_estimate(x, plan, "plugin")
    with pytest.raises(ComputeBudgetError):
        spectral_measure_estimate(x, scheme, "jackknife", 10_000)


# --- expansion terms ------------------------------------------------------


def test_linear_term_vanishes_at_truth():
    model = CovarianceModel.from_values([2.0, 1.0]).with_random_basis(5)
    assert linear_term(builtin("log1p"), model, model.matrix()) == 0.0
    with pytest.raises(ValueError, match=re.escape("sigma_hat must be 2x2, got (3, 3)")):
        linear_term(builtin("log1p"), model, np.eye(3))


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
