import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad

from spectrace.functions import TestFunction as SmoothFunction
from spectrace.functions import builtin
from spectrace.linalg import (
    CovarianceModel,
    gram_spectra,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)
from spectrace.theory import (
    effective_rank,
    esd_mp_ks,
    gaussian_limit_std,
    ks_distance,
    mp_atom,
    mp_cdf,
    mp_support,
    rate_budget,
)

# --- effective rank ---------------------------------------------------------


def test_effective_rank_identity_is_dim():
    assert effective_rank(CovarianceModel.identity(7)) == 7.0


def test_effective_rank_known_small_case():
    assert effective_rank(CovarianceModel.from_values([2.0, 1.0, 1.0])) == 2.0


def test_effective_rank_partial_zeta_limit():
    # lam_k = k^-2: r tends to zeta(2) = pi^2/6; at d = 1e4 the partial sum
    # is within 1e-3 of the limit
    r = effective_rank(CovarianceModel.poly_decay(10_000, 2.0))
    assert abs(r - np.pi ** 2 / 6) < 1e-3


def test_effective_rank_rejects_zero_spectrum():
    with pytest.raises(ValueError, match="zero"):
        effective_rank(CovarianceModel(np.zeros(3)))


@settings(max_examples=30, deadline=None)
@given(
    lam=hst.lists(hst.floats(0.01, 50.0), min_size=1, max_size=10),
    c=hst.floats(0.01, 100.0),
)
def test_effective_rank_scale_invariant_and_bounded(lam, c):
    model = CovarianceModel.from_values(lam)
    scaled = CovarianceModel.from_values([c * v for v in lam])
    r = effective_rank(model)
    assert abs(r - effective_rank(scaled)) < 1e-9 * r
    assert 1.0 - 1e-12 <= r <= len(lam) + 1e-12


# --- limiting standard deviation -----------------------------------------


def test_gaussian_limit_std_identity_model():
    # lam = 1, f' = identity' = 1: sqrt(d)
    assert gaussian_limit_std(builtin("identity"), CovarianceModel.identity(9)) == 3.0


def test_gaussian_limit_std_square_oracle():
    # f'(x) = 2x, lam = (2, 1): sqrt((2*4)^2 + (2*1)^2) = sqrt(68)
    got = gaussian_limit_std(builtin("square"), CovarianceModel.from_values([2.0, 1.0]))
    assert abs(got - np.sqrt(68.0)) < 1e-12


def test_gaussian_limit_std_zero_for_flat_function():
    flat = SmoothFunction("null", 1, lambda j, x: np.zeros_like(x))
    assert gaussian_limit_std(flat, CovarianceModel.identity(4)) == 0.0


def test_gaussian_limit_std_is_finite_when_the_sum_of_squares_overflows():
    got = gaussian_limit_std(builtin("identity"), CovarianceModel.from_values([1e300, 1e300]))
    assert got == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)


def test_gaussian_limit_std_raises_naming_f_when_a_term_overflows():
    # lam f'(lam) = 2 lam^2 is not finite at 1e200; no RuntimeWarning escapes
    with pytest.raises(FloatingPointError, match="of square is not finite"):
        gaussian_limit_std(builtin("square"), CovarianceModel.from_values([1e200, 1.0]))


def test_gaussian_limit_std_scales_linearly_for_identity_f():
    f = builtin("identity")
    base = gaussian_limit_std(f, CovarianceModel.from_values([2.0, 1.0]))
    scaled = gaussian_limit_std(f, CovarianceModel.from_values([6.0, 3.0]))
    assert abs(scaled - 3 * base) < 1e-12


# --- rate budget ------------------------------------------------------------


def test_rate_budget_identity_model_terms():
    f = builtin("identity")
    b = rate_budget(f, CovarianceModel.identity(20), n=400, m=3)
    assert abs(b.main_term - np.sqrt(20) / 20) < 1e-12  # sqrt(d)/sqrt(n)
    assert b.linear_residual == 0.05
    assert abs(b.bias_term - 20 * 0.05 ** 2) < 1e-12
    assert abs(b.total - (b.main_term + b.linear_residual + b.bias_term)) < 1e-15
    for n, m, name in ((0, 3, "n"), (400, 0, "m")):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            rate_budget(f, CovarianceModel.identity(20), n=n, m=m)


def test_rate_budget_decreases_in_n_and_m():
    f = builtin("log1p")
    model = CovarianceModel.identity(50)
    b1 = rate_budget(f, model, n=200, m=2)
    b2 = rate_budget(f, model, n=800, m=2)
    b3 = rate_budget(f, model, n=200, m=4)
    assert b2.total < b1.total
    assert b3.bias_term < b1.bias_term


# --- bulk spectral law ----------------------------------------------------


def test_mp_support_and_atom():
    a, b = mp_support(1.0)
    assert (a, b) == (0.0, 4.0)
    a, b = mp_support(0.25)
    assert abs(a - 0.25) < 1e-12 and abs(b - 2.25) < 1e-12
    assert mp_atom(0.5) == 0.0
    assert abs(mp_atom(2.0) - 0.5) < 1e-15
    with pytest.raises(ValueError):
        mp_support(0.0)


def test_mp_cdf_derivative_is_the_gamma_one_bulk_density():
    # at gamma = 1 the density is sqrt((4 - x)/x) / (2 pi)
    h = 1e-6
    for x in (0.5, 1.0, 2.0, 3.0):
        slope = (mp_cdf(1.0, x + h) - mp_cdf(1.0, x - h)) / (2 * h)
        assert slope == pytest.approx(np.sqrt((4 - x) / x) / (2 * np.pi), rel=1e-7)


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0])
def test_mp_total_mass_is_one(gamma):
    _, b = mp_support(gamma)
    mass = mp_cdf(gamma, b + 1.0)
    assert abs(mass - 1.0) <= 1e-6


def test_mp_cdf_monotone_and_edges():
    for gamma in (0.3, 1.0, 1.7):
        a, b = mp_support(gamma)
        grid = np.linspace(-0.5, b + 0.5, 80)
        cdf = mp_cdf(gamma, grid)
        assert cdf.shape == grid.shape and isinstance(mp_cdf(gamma, b), float)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert mp_cdf(gamma, -0.1) == 0.0
        assert abs(mp_cdf(gamma, b) - 1.0) <= 1e-6


def test_mp_cdf_atom_at_zero_for_tall_case():
    # gamma = 2: half the eigenvalues vanish, so the cdf starts at 1/2
    assert abs(mp_cdf(2.0, 0.0) - 0.5) <= 1e-12
    assert abs(mp_cdf(2.0, 1e-9) - 0.5) <= 1e-6


def test_mp_cdf_midpoint_symmetry_gamma_one():
    # the median of the gamma = 1 bulk is far below the midpoint 2.0 since
    # the density piles up near zero; sanity-pin two quantile brackets
    assert mp_cdf(1.0, 1.0) > 0.5
    assert mp_cdf(1.0, 0.2) < 0.5


def _quadpack_mp_cdf(gamma, x):
    """The law's cdf by QUADPACK, an oracle independent of the closed form.

    The inverse-square-root edges go into quad's algebraic weight: the left
    edge (x - a)**0.5, or x**-0.5 when gamma = 1 puts a at 0, for points in
    the lower half, and the right edge (b - x)**0.5 for the complement of
    points in the upper half.
    """
    a, b = mp_support(gamma)
    c = 2.0 * np.pi * gamma
    atom = mp_atom(gamma)
    if x <= a:
        return atom if x >= 0.0 else 0.0
    if x >= b:
        return 1.0
    kw = dict(weight="alg", epsabs=1e-14, epsrel=0.0, limit=200)
    if a > 0.0:
        left, left_w = (lambda t: np.sqrt(b - t) / (c * t)), (0.5, 0.0)
    else:
        left, left_w = (lambda t: np.sqrt(b - t) / c), (-0.5, 0.0)

    def right(t):
        return np.sqrt(t - a) / (c * t)

    mid = 0.5 * (a + b)
    if x <= mid:
        return atom + quad(left, a, x, wvar=left_w, **kw)[0]
    bulk = quad(left, a, mid, wvar=left_w, **kw)[0]
    bulk += quad(right, mid, b, wvar=(0.0, 0.5), **kw)[0]
    return atom + bulk - quad(right, x, b, wvar=(0.0, 0.5), **kw)[0]


@pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_mp_cdf_matches_quadpack(gamma):
    a, b = mp_support(gamma)
    near = (b - a) * 10.0 ** -np.arange(1.0, 16.0)
    x = np.concatenate([
        np.linspace(a, b, 401),
        np.random.default_rng(20240).uniform(a, b, 200),
        a + near,
        b - near,
    ])
    expect = np.array([_quadpack_mp_cdf(gamma, v) for v in x])
    assert np.max(np.abs(mp_cdf(gamma, x) - expect)) <= 1e-12


def test_esd_close_to_mp_at_moderate_scale():
    samples = sample_gaussian(CovarianceModel.identity(200), 800, 303)
    lam = sym_eigvalues(sample_covariance(samples))
    assert esd_mp_ks(lam, 0.25) < 0.08


def test_esd_ks_detects_wrong_gamma():
    samples = sample_gaussian(CovarianceModel.identity(200), 800, 303)
    lam = sym_eigvalues(sample_covariance(samples))
    assert esd_mp_ks(lam, 1.0) > 0.2


def test_ks_distance_is_the_two_sided_sup_gap():
    # sample 0.1, 0.5, 0.9 against the uniform cdf: gaps 1/3 - 0.1 and 0.9 - 2/3
    assert ks_distance([0.1, 0.5, 0.9]) == pytest.approx(0.9 - 2 / 3, abs=1e-15)
    assert ks_distance([1 / 6, 0.5, 5 / 6]) == pytest.approx(1 / 6, abs=1e-15)
    lam = np.linspace(0.2, 2.5, 40)
    assert esd_mp_ks(lam[::-1], 0.4) == ks_distance(mp_cdf(0.4, lam))
    with pytest.raises(ValueError, match="nonempty"):
        ks_distance([])


def test_ks_distance_takes_the_left_limit_at_an_atom():
    # two of four points tied at an atom of mass 1/2 (F(0-) = 0, F(0) = 1/2),
    # the others where F = 3/4 and 1: the empirical cdf matches F at 0, and
    # the gap is the 1/4 of F rising from 1/2 to 3/4 below the third point.
    # Taking F(0-) as F(0) reads a spurious 1/2 at the first tied point
    cdf = [0.5, 0.5, 0.75, 1.0]
    assert ks_distance(cdf, [0.0, 0.0, 0.75, 1.0]) == 0.25
    assert ks_distance(cdf) == 0.5


@pytest.mark.parametrize("gamma", [2.0, 4.0])
def test_esd_mp_ks_above_gamma_one_matches_the_null_mass_to_the_atom(gamma):
    # fixed before the first run: the d - n null eigenvalues are exactly the
    # atom 1 - 1/gamma, so only the n = 100 bulk eigenvalues can open a gap,
    # a few hundredths at this size; 0.05 is a tenth of the 1 - 1/gamma
    # (0.5 and 0.75) read when the atom's left limit was taken as F(0)
    n = 100
    d = int(gamma) * n
    samples = sample_gaussian(CovarianceModel.identity(d), n, 4)
    lam = np.concatenate([np.zeros(d - n), gram_spectra(samples.data)])
    ks = esd_mp_ks(lam, gamma)
    assert ks <= 0.05
    # the d x d solve returns about half its null eigenvalues as round-off
    # near 1e-15, not zeros; they are still the atom
    primal = sym_eigvalues(sample_covariance(samples))
    assert (primal[n:] != 0.0).any()
    assert abs(esd_mp_ks(primal, gamma) - ks) <= 1e-12
