import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from spectrace.estimators import (
    AggregationScheme,
    SchemeError,
    jackknife_estimate,
    level_plan,
    make_scheme,
)
from spectrace.functions import FunctionClassGrid, _bump, _scaled_sine, builtin, default_grid
from spectrace.functions import TestFunction as SmoothFunction
from spectrace.linalg import (
    CLIP_REL,
    SYM_TOL,
    CovarianceModel,
    EigenSolverError,
    SampleSet,
    Stream,
    _symmetric_gram,
    check_int,
    check_real,
    derive_seed,
    gram_spectra,
    load_samples_csv,
    rng_from,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)
from spectrace.montecarlo import ExperimentConfig
from spectrace.theory import mp_atom, mp_cdf, mp_support, rate_budget


def test_model_validation():
    with pytest.raises(ValueError):
        CovarianceModel(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(ValueError):
        CovarianceModel(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        CovarianceModel(np.array([]))
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        CovarianceModel.from_values([1.0, np.nan])
    m = CovarianceModel(np.array([2.0, 1.0]))
    assert m.dim == 2 and m.operator_norm() == 2.0


def test_model_constructors():
    assert np.array_equal(CovarianceModel.identity(3).eigenvalues, np.ones(3))
    decay = CovarianceModel.poly_decay(4, 1.0)
    assert np.allclose(decay.eigenvalues, [1, 1 / 2, 1 / 3, 1 / 4])
    unsorted = CovarianceModel.from_values([1.0, 3.0, 2.0])
    assert np.array_equal(unsorted.eigenvalues, [3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="dim must be >= 1"):
        CovarianceModel.poly_decay(0, 1.0)


def test_random_basis_is_orthonormal_and_preserves_matrix_spectrum():
    model = CovarianceModel.from_values([4.0, 2.0, 1.0, 0.5]).with_random_basis(11)
    v = model.basis
    assert np.max(np.abs(v.T @ v - np.eye(4))) < 1e-10
    lam = np.linalg.eigvalsh(model.matrix())[::-1]
    assert np.allclose(lam, model.eigenvalues, atol=1e-12)
    # same seed, same basis; different seed, different basis
    again = CovarianceModel.from_values([4.0, 2.0, 1.0, 0.5]).with_random_basis(11)
    assert np.array_equal(again.basis, v)
    other = CovarianceModel.from_values([4.0, 2.0, 1.0, 0.5]).with_random_basis(12)
    assert not np.array_equal(other.basis, v)


def test_non_orthonormal_basis_rejected():
    with pytest.raises(ValueError, match="orthonormal"):
        CovarianceModel(np.array([2.0, 1.0]), basis=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match=re.escape("basis must be 2x2, got (3, 3)")):
        CovarianceModel(np.array([2.0, 1.0]), basis=np.eye(3))


def test_sampling_is_deterministic_and_seed_sensitive():
    model = CovarianceModel.from_values([3.0, 1.0, 0.25])
    a = sample_gaussian(model, 50, 123)
    b = sample_gaussian(model, 50, 123)
    c = sample_gaussian(model, 50, 124)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_gaussian(model, 0, 123)


def test_sampling_from_zero_spectrum_is_zero():
    model = CovarianceModel(np.zeros(3))
    x = sample_gaussian(model, 10, 0)
    assert np.array_equal(x.data, np.zeros((10, 3)))


def test_sampling_marginal_variances():
    # per-coordinate sample variances at n = 1e5 sit within a few percent
    model = CovarianceModel.from_values([4.0, 1.0])
    x = sample_gaussian(model, 100_000, 77)
    var = np.mean(x.data ** 2, axis=0)
    assert abs(var[0] - 4.0) < 0.1
    assert abs(var[1] - 1.0) < 0.03


_DRAW_MODELS = {
    "identity": CovarianceModel.identity(6),
    "poly_decay": CovarianceModel.poly_decay(6, 1.5),
    "random_basis": CovarianceModel.poly_decay(6, 1.5).with_random_basis(3),
}


@pytest.mark.parametrize("name", sorted(_DRAW_MODELS))
def test_sampling_into_a_buffer_equals_the_fresh_draw(name):
    # the pre-buffer formula, Z * sqrt(lam) then V', is the reference
    model = _DRAW_MODELS[name]
    z = rng_from(31).standard_normal((40, model.dim))
    expect = z * np.sqrt(model.eigenvalues)
    if model.basis is not None:
        expect = expect @ model.basis.T
    fresh = sample_gaussian(model, 40, 31).data
    buf = np.full((40, model.dim), np.nan)
    x = sample_gaussian(model, 40, 31, out=buf).data
    assert np.array_equal(fresh, expect) and np.array_equal(x, expect)
    # a diagonal model's draw is the buffer itself; a rotation is a new array
    assert np.shares_memory(x, buf) == (model.basis is None)
    # a second draw into the same buffer depends on its seed alone
    sample_gaussian(model, 40, 32, out=buf)
    assert np.array_equal(sample_gaussian(model, 40, 31, out=buf).data, expect)


@pytest.mark.parametrize("out, error, match", [
    (np.empty((40, 5)), ValueError, "size must match out.shape"),
    (np.empty((40, 6), dtype=np.float32), TypeError, "wrong type"),
    (np.empty((6, 40)).T, ValueError, "^out must be C-contiguous$"),
    (np.empty((40, 12))[:, ::2], ValueError, "^out must be C-contiguous$"),
], ids=["shape", "float32", "fortran", "strided"])
def test_sampling_rejects_a_bad_buffer(out, error, match):
    # numpy rejects a wrong shape or dtype itself; an F-ordered buffer,
    # which numpy would fill with other bits, is rejected here
    with pytest.raises(error, match=match):
        sample_gaussian(CovarianceModel.identity(6), 40, 1, out=out)


def test_sample_covariance_single_observation():
    s = SampleSet(np.array([[1.0, 2.0]]))
    assert np.array_equal(sample_covariance(s), np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_sample_covariance_two_unit_vectors():
    s = SampleSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(sample_covariance(s), np.eye(2) / 2)


def test_sample_covariance_converges_in_operator_norm():
    model = CovarianceModel.from_values([2.0, 1.0])
    x = sample_gaussian(model, 10_000, 5)
    gap = np.linalg.eigvalsh(sample_covariance(x) - model.matrix())
    assert np.max(np.abs(gap)) < 0.15


@settings(max_examples=30, deadline=None)
@given(
    n=hst.integers(1, 12),
    d=hst.integers(1, 6),
    seed=hst.integers(0, 2 ** 32 - 1),
)
def test_sample_covariance_is_psd_with_bounded_rank(n, d, seed):
    x = sample_gaussian(CovarianceModel.identity(d), n, seed)
    lam = sym_eigvalues(sample_covariance(x))
    assert lam[-1] >= 0.0
    assert np.sum(lam > 1e-10 * max(lam[0], 1e-300)) <= min(n, d)


def test_sym_eig_diagonal_and_ordering():
    assert np.array_equal(sym_eigvalues(np.diag([3.0, 1.0, 2.0])), [3.0, 2.0, 1.0])


def test_sym_eig_indefinite_matrix_keeps_true_negatives():
    # [[0,1],[1,0]] has eigenvalues +-1; -1 is far outside the clip band
    lam = sym_eigvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(lam, [1.0, -1.0])


def test_sym_eigvalues_trace_and_frobenius_on_random_symmetric():
    # the spectrum of a symmetric A carries tr A = sum lam and
    # |A|_F^2 = sum lam^2
    rng = rng_from(42)
    a = rng.standard_normal((8, 8))
    a = (a + a.T) / 2
    lam = sym_eigvalues(a)
    assert np.all(np.diff(lam) <= 0.0)
    scale = 1.0 + float(np.max(np.abs(lam)))
    assert abs(lam.sum() - np.trace(a)) <= 1e-12 * scale
    assert abs(np.sum(lam ** 2) - np.sum(a * a)) <= 1e-12 * scale ** 2


def test_sym_eig_rejects_asymmetric_input():
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        sym_eigvalues(a)
    # asymmetry within SYM_TOL * max|entry| passes, just beyond it does not
    near = np.diag([4.0, 2.0, 1.0])
    near[0, 1] = 0.5 * SYM_TOL * 4.0
    assert sym_eigvalues(near).shape == (3,)
    near[0, 1] = 2.0 * SYM_TOL * 4.0
    with pytest.raises(ValueError, match="not symmetric"):
        sym_eigvalues(near)


def test_eigvalue_clipping_zeroes_roundoff_negatives():
    # a negative inside the round-off band is clipped, one outside is kept
    lam = sym_eigvalues(np.diag([1.0, -1e-12]))
    assert np.array_equal(lam, [1.0, 0.0])
    lam = sym_eigvalues(np.diag([1.0, -1e-8]))
    assert np.array_equal(lam, [1.0, -1e-8])
    lam = sym_eigvalues(np.diag([1.0, -1e-13, -0.5]))
    assert np.array_equal(lam, [1.0, 0.0, -0.5])
    # all-nonnegative spectra come back unchanged, zeros included
    lam = sym_eigvalues(np.diag([2.0, 0.0, 1e-300]))
    assert np.array_equal(lam, [2.0, 1e-300, 0.0])


def _reference_sym_eigvalues(a):
    # sym_eigvalues with every check always run: the scaled symmetry test
    # and the clip band, without the early returns
    a = np.asarray(a, dtype=float)
    scale = float(np.max(np.abs(a)))
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYM_TOL * max(scale, 1.0):
        raise ValueError("not symmetric")
    try:
        lam = np.linalg.eigvalsh(a)[::-1].copy()
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(str(exc)) from exc
    band = CLIP_REL * max(abs(lam[0]), abs(lam[-1]))
    lam[(lam < 0.0) & (lam > -band)] = 0.0
    return lam


def _outcome(fn, a):
    try:
        return fn(a.copy()).tobytes()
    except (ValueError, EigenSolverError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    kind=hst.sampled_from(["gram", "wide_gram", "averaged", "near", "asym",
                           "indefinite", "nan_off", "nan_diag"]),
    d=hst.integers(1, 7),
    seed=hst.integers(0, 2 ** 32 - 1),
)
def test_sym_eigvalues_fast_paths_match_the_full_checks(kind, d, seed):
    rng = rng_from(seed)
    x = rng.standard_normal((d + 3 if kind == "gram" else max(d - 2, 1), d))
    a = sample_covariance(SampleSet(x))
    if kind == "averaged":
        b = rng.standard_normal((d, d))
        a = (b + b.T) / 2
    elif kind == "near":
        a[0, -1] += 1e-14
    elif kind == "asym":
        a[-1, 0] += 1.0
    elif kind == "indefinite":
        a -= np.eye(d) * float(np.trace(a)) / d
    elif kind == "nan_off":
        a[0, -1] = a[-1, 0] = np.nan
    elif kind == "nan_diag":
        a[-1, -1] = np.nan
    expect = _outcome(_reference_sym_eigvalues, a)
    assert _outcome(sym_eigvalues, a) == expect
    if kind == "asym" and d > 1:
        assert expect is ValueError


@pytest.mark.parametrize("b, k, d", [(50, 100, 20), (50, 10, 20), (3, 400, 200),
                                     (3, 100, 200), (6, 1, 5)])
def test_sym_eigvalues_on_a_stack_equals_the_per_matrix_spectra(b, k, d):
    # Grams of k rows, rank-deficient when k < d, then the same stack
    # made indefinite; also stacked one level deeper
    rng = rng_from(b, k, d)
    grams = _symmetric_gram(rng.standard_normal((b, k, d)), k)
    for a in (grams, grams - np.eye(d) * float(np.trace(grams[0])) / d):
        lam = sym_eigvalues(a)
        assert lam.shape == (b, d)
        assert np.array_equal(lam, np.stack([sym_eigvalues(m) for m in a]))
        assert np.array_equal(sym_eigvalues(a.reshape(1, b, d, d))[0], lam)


@pytest.mark.parametrize("b, k, d", [(50, 10, 20), (3, 100, 200), (6, 1, 5), (4, 7, 8)])
def test_gram_spectra_of_a_stack_equal_the_per_matrix_dual_spectra(b, k, d):
    # k < d: every slice goes through its k x k dual and keeps its k
    # eigenvalues, all of them nonzero for Gaussian rows; also one level deeper
    x = rng_from(b, k, d, 1).standard_normal((b, k, d))
    lam = gram_spectra(x)
    assert lam.shape == (b, min(k, d))
    assert np.array_equal(lam, np.stack([gram_spectra(rows) for rows in x]))
    assert np.array_equal(gram_spectra(x.reshape(1, b, k, d))[0], lam)
    assert (lam > 0.0).all()


@settings(max_examples=60, deadline=None)
@given(
    k=hst.integers(1, 40),
    d=hst.integers(1, 40),
    log_scale=hst.floats(-3.0, 3.0),
    seed=hst.integers(0, 2 ** 32 - 1),
)
def test_dual_and_primal_spectra_agree(k, d, log_scale, seed):
    # fixed before the first run: both solves are backward stable, so each
    # eigenvalue is within a few (k + d) * eps of the trace ||X||_F^2 / k;
    # 1e-12 of the trace leaves a factor of ~100 over 80 * 1.1e-16
    rng = rng_from(seed)
    x = 10.0 ** log_scale * rng.standard_normal((k, d)) * rng.uniform(0.1, 3.0, size=d)
    primal = sym_eigvalues(sample_covariance(SampleSet(x)))
    lam = gram_spectra(x)
    assert lam.shape == (min(k, d),)
    if k >= d:
        assert np.array_equal(lam, primal)
        return
    assert (np.diff(lam) <= 0.0).all()
    # the dual's k eigenvalues are the primal's top k, and the primal's
    # other d - k, which the dual leaves out, are null up to the same bound
    trace = float(np.sum(x * x)) / k
    assert np.max(np.abs(lam - primal[:k])) <= 1e-12 * trace
    assert np.max(np.abs(primal[k:])) <= 1e-12 * trace


def _averaged_gram(y, k):
    # the symmetrization every Gram went through before the one-pass rule
    a = np.swapaxes(y, -1, -2) @ y
    return (a + np.swapaxes(a, -1, -2)) / (2.0 * k)


@pytest.mark.parametrize("shape", [(30, 7), (7, 30), (1, 4), (4, 1), (5, 30, 7),
                                   (5, 7, 30), (2, 3, 50, 20), (3, 400, 200),
                                   (3, 100, 200)])
def test_gram_equals_the_averaged_formula_bit_for_bit(shape):
    # 2a / 2k and a / k round the same real number, so skipping a + a' on
    # an exactly symmetric product changes no bit, primal or dual
    x = rng_from(*shape).standard_normal(shape) * rng_from(7).uniform(0.1, 3.0, shape[-1])
    k, d = shape[-2:]
    assert np.array_equal(_symmetric_gram(x, k), _averaged_gram(x, k))
    dual = x if k >= d else np.swapaxes(x, -1, -2)
    assert np.array_equal(gram_spectra(x), sym_eigvalues(_averaged_gram(dual, k)))


def test_gram_near_the_top_of_the_range_does_not_overflow():
    # X'X = [[1.01e308, 5.1e307], [5.1e307, 2.6e307]] is finite, and so is
    # X'X / 2; doubling it to form a + a' would pass DBL_MAX
    x = np.array([[1e154, 5e153], [1e153, 1e153]])
    a = sample_covariance(SampleSet(x))
    assert np.isfinite(a).all() and np.array_equal(a, (x.T @ x) / 2)
    assert np.isfinite(gram_spectra(x)).all()
    assert np.isfinite(gram_spectra(x.T[np.newaxis])).all()
    # a Gram whose entries pass DBL_MAX still raises
    with pytest.raises(FloatingPointError, match="sample covariance overflows"):
        sample_covariance(SampleSet(np.array([[1e155, 1e155], [1e155, 1e155]])))


def test_gram_is_refused_only_when_x_x_over_n_leaves_the_range():
    # X'X = 4000 * 1.44e306 overflows, X'X / 4000 = 1.44e306 does not
    big = np.full((4000, 1), 1.2e153)
    a = sample_covariance(SampleSet(big))
    assert np.isfinite(a).all() and abs(a[0, 0] / 1.44e306 - 1.0) < 1e-12
    # in a stack the retry scales each matrix by its own power of two, so
    # each result is the Gram of its slice alone, the unit one exactly 1
    unit = np.ones((4000, 1))
    lam = gram_spectra(np.stack([big, unit]))
    assert np.array_equal(lam, [a[0], [1.0]])
    # rescaled Grams equal the unscaled ones bit for bit
    x = rng_from(8).standard_normal((2, 30, 5))
    x[0] *= 5e153
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.swapaxes(x, -1, -2) @ x).all()
    assert np.array_equal(_symmetric_gram(x, 30)[1], _symmetric_gram(x[1], 30))
    assert np.array_equal(_symmetric_gram(x, 30)[0],
                          _symmetric_gram(x[0] / 2.0 ** 508, 30) * 2.0 ** 1016)


def test_gram_spectra_dual_keeps_the_overflow_check_and_the_clip_band():
    # 3 rows in 5 dimensions whose dual Gram overflows
    big = 1e200 * rng_from(4).standard_normal((2, 3, 5))
    with pytest.raises(FloatingPointError, match="sample covariance overflows: "
                                                 "the Gram of 3 rows"):
        gram_spectra(big)
    # 6 rows of rank 2 in 10 dimensions: the dual's 4 null eigenvalues are
    # round-off (3 of them negative from the solver), clipped into
    # [0, band] like the primal's
    x = rng_from(5).standard_normal((6, 2)) @ rng_from(6).standard_normal((2, 10))
    lam = gram_spectra(x)
    assert (lam >= 0.0).all()
    assert (lam[2:] <= 1e-10 * lam[0]).all()


def test_sym_eigvalues_clips_each_row_by_its_own_band():
    # -1e-6 beside a top of 1 is outside that row's band (1e-10) though
    # inside one scaled by the neighbour's 1e6 (1e-4); -1e-12 is inside
    stack = np.stack([np.diag([1.0, -1e-6]), np.diag([1e6, 1.0]), np.diag([1.0, -1e-12])])
    lam = sym_eigvalues(stack)
    assert np.array_equal(lam, [[1.0, -1e-6], [1e6, 1.0], [1.0, 0.0]])


def test_sym_eigvalues_judges_each_matrix_of_a_stack_by_its_own_scale():
    # |A - A'| = 1e-3 is within SYM_TOL of the stack's top entry 1e6 but
    # far beyond it for the small matrix, which is refused by its index
    small = np.array([[1e-3, 1e-3], [0.0, 1e-3]])
    stack = np.stack([np.diag([1e6, 1e6]), small, np.eye(2)])
    with pytest.raises(ValueError, match=r"matrix 1 is not symmetric: max \|A - A'\| = 1\.000e-03"):
        sym_eigvalues(stack)
    with pytest.raises(ValueError, match=r"matrix \(0, 1\) is not symmetric"):
        sym_eigvalues(stack.reshape(1, 3, 2, 2))
    with pytest.raises(ValueError, match="^matrix is not symmetric"):
        sym_eigvalues(small)
    with pytest.raises(ValueError, match="square"):
        sym_eigvalues(np.zeros((3, 2, 4)))


def test_eigensolver_failure_names_the_matrix_size(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    for a in (np.eye(3), np.stack([np.eye(3)] * 4)):
        with pytest.raises(EigenSolverError, match="failed on 3x3 input: Eigenvalues"):
            sym_eigvalues(a)


def test_rank_deficient_gram_has_no_negative_eigenvalues():
    x = SampleSet(np.outer(np.ones(5), [1.0, 2.0, 3.0]))
    lam = sym_eigvalues(sample_covariance(x))
    assert lam[0] > 13.9
    assert np.all(lam[1:] >= 0.0)
    assert np.all(lam[1:] <= 1e-10 * lam[0])


def test_derive_seed_stability_and_separation():
    # frozen values guard the stream derivation against accidental change
    assert derive_seed(0) == derive_seed(0)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(7) != derive_seed(7, 0)
    x = sample_gaussian(CovarianceModel.identity(2), 3, derive_seed(9, 4))
    y = sample_gaussian(CovarianceModel.identity(2), 3, derive_seed(9, 5))
    assert not np.array_equal(x.data, y.data)
    # frozen streams across the 64-bit range, both ends included
    pinned = {0: (7434755675892716031, 9331405124324880715),
              1: (77803131892610477, 11448594332913718274),
              2 ** 63: (1696002430330042732, 5921603202382683241),
              2 ** 64 - 1: (17494216426383749799, 8401326873596539901)}
    for seed, (plain, subset) in pinned.items():
        assert (derive_seed(seed), derive_seed(seed, 3, Stream.SUBSET)) == (plain, subset)
    # a part outside [0, 2**64) is refused, not wrapped onto an in-range seed
    for bad in (-1, 2 ** 64):
        for derive in (derive_seed, rng_from):
            with pytest.raises(ValueError, match=rf"seed {bad} is outside \[0, 2\*\*64\)"):
                derive(bad)
            with pytest.raises(ValueError, match="outside"):
                derive(1, bad, Stream.SUBSET)
    # so is a part that is no integer: 2.5 is not truncated, nor "7" parsed
    for bad in (2.5, "7"):
        for derive in (derive_seed, rng_from):
            for parts in ((bad,), (1, bad, Stream.SUBSET)):
                with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad!r}$"):
                    derive(*parts)


def test_check_int_reads_integral_spellings_and_refuses_the_rest():
    for value in (7, 7.0, np.int64(7), np.uint8(7), np.float32(7.0)):
        assert type(check_int("k", value)) is int and check_int("k", value) == 7
    assert type(check_int("k", True)) is int and check_int("k", True) == 1
    assert check_int("k", -3) == -3
    for bad in (2.5, "7", b"7", float("nan"), float("inf"), np.float64(-0.5), None, [1],
                np.array([3]), 1 + 0j):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {re.escape(repr(bad))}$"):
            check_int("k", bad)
    with pytest.raises(ValueError, match="^k must be >= 1, got 0.0$"):
        check_int("k", 0.0, 1)
    # a count is compared as a float, so one past the float range overflows;
    # a value with no floor, such as a seed, is read whatever its size
    assert check_int("k", 10 ** 400) == 10 ** 400
    with pytest.raises(OverflowError):
        check_int("k", 10 ** 400, 1)


_MODEL3 = CovarianceModel.identity(3)
_SAMPLE = sample_gaussian(_MODEL3, 40, 1)
_CONFIG = {"model": "identity:2", "f": "log1p", "seed": 1, "n": 50, "replications": 5}


def _linear(j, x):
    return x if j == 0 else np.ones_like(x) if j == 1 else np.zeros_like(x)


def _scheme(s):
    return s.sizes, s.subsets, s.coeffs.tolist()


def _exact(x):
    return repr(x.tolist() if isinstance(x, np.ndarray) else x)


def _grid(g):
    return g.order, g.names


def _config(key):
    def build(v):
        value = (v, 100, 400) if key == "n_list" else v
        extra = {"n": None} if key == "n_list" else {}
        return ExperimentConfig(**{**_CONFIG, **extra, key: value})
    return build


# Every entry point that takes a count, a size or a seed: (label, call, the
# name its messages give, its floor or None, its refusal class). Each reads
# 7 as an int, so 7.0 and np.int64(7) give what 7 gives, and refuses 2.5,
# "7", nan and inf as no integer and its floor - 1 as below the floor.
INTEGER_ENTRIES = [
    ("derive_seed", lambda v: derive_seed(1, v, Stream.SUBSET), "seed", None, ValueError),
    ("rng_from", lambda v: rng_from(v).random(3), "seed", None, ValueError),
    ("sample_gaussian.seed", lambda v: sample_gaussian(_MODEL3, 4, v).data, "seed", None,
     ValueError),
    ("sample_gaussian.n", lambda v: sample_gaussian(_MODEL3, v, 1).data, "n", 1, ValueError),
    ("with_random_basis", lambda v: _MODEL3.with_random_basis(v).basis, "seed", None,
     ValueError),
    ("identity", lambda v: CovarianceModel.identity(v).eigenvalues, "dim", 1, ValueError),
    ("poly_decay", lambda v: CovarianceModel.poly_decay(v, 1.0).eigenvalues, "dim", 1,
     ValueError),
    ("AggregationScheme.sizes", lambda v: _scheme(AggregationScheme((v, 10))), "sizes", 1,
     SchemeError),
    ("AggregationScheme.subsets", lambda v: _scheme(AggregationScheme((5, 10), subsets=v)),
     "subsets", 1, SchemeError),
    ("make_scheme.m", lambda v: _scheme(make_scheme(v, 1000, 2.0)), "m", 2, SchemeError),
    ("make_scheme.n", lambda v: _scheme(make_scheme(2, v, 2.0)), "n", None, SchemeError),
    ("level_plan.n", lambda v: _scheme(level_plan("jackknife", v, 2, 2.0, 3)), "n", 1,
     SchemeError),
    ("level_plan.plugin_n", lambda v: _scheme(level_plan("plugin", v, 2, 2.0, 3)), "n", 1,
     SchemeError),
    ("level_plan.m", lambda v: _scheme(level_plan("jackknife", 1000, v, 2.0, 3)), "m", 1,
     SchemeError),
    ("level_plan.subsets", lambda v: _scheme(level_plan("jackknife", 100, 2, 2.0, v)),
     "subsets", 1, SchemeError),
    ("jackknife_estimate", lambda v: jackknife_estimate(
        builtin("log1p"), _SAMPLE, make_scheme(2, 40, 2.0), v, 1), "subsets", 1, SchemeError),
    ("rate_budget.n", lambda v: rate_budget(builtin("log1p"), _MODEL3, v, 2), "n", 1,
     ValueError),
    ("rate_budget.m", lambda v: rate_budget(builtin("log1p"), _MODEL3, 100, v), "m", 1,
     ValueError),
    ("TestFunction", lambda v: repr(SmoothFunction("linear", v, _linear)), "max_order", 1,
     ValueError),
    # every family reads the order alike, so 7.0 gives what 7 gives in each
    *((f"deriv.{name}", lambda v, f=builtin(name): f.deriv(v, 0.5), "order", None, ValueError)
      for name in ("square", "log1p", "rational", "scaled_sine", "bump")),
    ("FunctionClassGrid", lambda v: _grid(FunctionClassGrid(v, [builtin("scaled_sine")])),
     "order", 1, ValueError),
    ("default_grid.order", lambda v: _grid(default_grid(v, 3, 1)), "m", 1, ValueError),
    ("default_grid.count", lambda v: _grid(default_grid(2, v, 1)), "grid_size", 1,
     ValueError),
    ("ExperimentConfig.seed", _config("seed"), "seed", None, ValueError),
    ("ExperimentConfig.n_list", _config("n_list"), "n_list", None, ValueError),
    # level_plan floors n, m and subsets, as SchemeError
    *((f"ExperimentConfig.{key}", _config(key), key, 1, ValueError)
      for key in ("n", "m", "subsets", "replications", "workers")),
]

# entry points where None is a value: no subsets, B from the plan, or n from n_list
NONE_IS_A_VALUE = {"AggregationScheme.subsets", "jackknife_estimate", "ExperimentConfig.n"}

INTEGER_CASES = [
    pytest.param(entry, kind, id=f"{entry[0]}-{kind}")
    for entry in INTEGER_ENTRIES
    for kind in ("7.0", "int64", "2.5", "'7'", "nan", "inf", "None", "[1]", "array", "complex",
                 "floor")
    if (kind != "floor" or entry[3] is not None)
    and (kind != "None" or entry[0] not in NONE_IS_A_VALUE)
]


@pytest.mark.parametrize("entry, kind", INTEGER_CASES)
def test_every_count_size_and_seed_follows_the_integer_rule(entry, kind):
    _, call, name, low, error = entry
    spellings = {"7.0": 7.0, "int64": np.int64(7)}
    if kind in spellings:  # equal objects, or bit-equal draws
        assert _exact(call(spellings[kind])) == _exact(call(7))
    elif kind == "floor":
        with pytest.raises(error, match=f"^{name} must be >= {low}, got {low - 1}$"):
            call(low - 1)
    else:
        bad = {"2.5": 2.5, "'7'": "7", "nan": float("nan"), "inf": float("inf"), "None": None,
               "[1]": [1], "array": np.array([3]), "complex": 1 + 0j}[kind]
        with pytest.raises(error, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)


def test_check_real_reads_real_spellings_and_refuses_the_rest():
    for value in (2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2), np.array(2.0)):
        assert type(check_real("x", value)) is float and check_real("x", value) == 2.0
    assert check_real("x", -1e300) == -1e300
    for bad in ("2", b"2", None, [2.0], np.array([2.0, 3.0]), 2 + 0j, float("nan"),
                float("-inf"), 10 ** 400):
        with pytest.raises(ValueError, match=f"^x must be finite, got {re.escape(repr(bad))}$"):
            check_real("x", bad)
    assert check_real("x", 0, 0, inclusive=True) == 0.0
    with pytest.raises(ValueError, match="^x must be finite and > 0, got 0$"):
        check_real("x", 0, 0)
    with pytest.raises(ValueError, match="^x must be finite and >= 0, got -0.5$"):
        check_real("x", -0.5, 0, inclusive=True)


def _family(f):
    return f.name, f.deriv(1, np.array([0.5, 3.0])).tolist()


_LOG1P = builtin("log1p")

# Every entry point that takes a real parameter: (label, call, the name its
# messages give, its bound, whether the bound is inclusive, its refusal
# class). Each reads 2.0 as a float, so 2 and np.float64(2.0) give what 2.0
# gives, and refuses "2", None, nan, inf and a value past its bound, if it has
# one. builtin parses a test function's parameters from its name and hands them
# to the family constructors, which are the entry points for omega, power,
# center, width and scale here.
REAL_ENTRIES = [
    ("make_scheme.q", lambda v: _scheme(make_scheme(2, 100, v)), "q", 1, False, SchemeError),
    ("level_plan.q", lambda v: _scheme(level_plan("jackknife", 100, 2, v, 3)), "q", 1, False,
     SchemeError),
    ("level_plan.plugin_q", lambda v: _scheme(level_plan("plugin", 100, 2, v, 3)), "q", 1,
     False, SchemeError),
    ("ExperimentConfig.q", _config("q"), "q", 1, False, SchemeError),
    ("mp_support", mp_support, "gamma", 0, False, ValueError),
    ("mp_atom", mp_atom, "gamma", 0, False, ValueError),
    ("mp_cdf", lambda v: mp_cdf(v, np.linspace(-1.0, 6.0, 8)), "gamma", 0, False, ValueError),
    ("poly_decay", lambda v: CovarianceModel.poly_decay(4, v).eigenvalues, "beta", 0, True,
     ValueError),
    ("derivative_bound", lambda v: _LOG1P.derivative_bound(1, v), "upper", 0, True, ValueError),
    ("lipschitz_fprime", _LOG1P.lipschitz_fprime, "upper", 0, True, ValueError),
    ("scaled_sine.omega", lambda v: _family(_scaled_sine(v)), "omega", 0, False, ValueError),
    ("scaled_sine.power", lambda v: _family(_scaled_sine(1.0, v)), "power", None, False,
     ValueError),
    ("bump.center", lambda v: _family(_bump(v, 0.5)), "center", None, False, ValueError),
    ("bump.width", lambda v: _family(_bump(2.0, v)), "width", 0, False, ValueError),
    ("bump.scale", lambda v: _family(_bump(2.0, 0.5, v)), "scale", None, False, ValueError),
]


@pytest.mark.parametrize("entry, kind", [
    pytest.param(entry, kind, id=f"{entry[0]}-{kind}")
    for entry in REAL_ENTRIES
    for kind in ("2", "float64", "'2'", "None", "nan", "inf", "bound")
    if kind != "bound" or entry[3] is not None
])
def test_every_real_parameter_follows_the_real_rule(entry, kind):
    _, call, name, low, inclusive, error = entry
    spellings = {"2": 2, "float64": np.float64(2.0)}
    if kind in spellings:  # equal objects, or bit-equal values
        assert _exact(call(spellings[kind])) == _exact(call(2.0))
        return
    bad = {"'2'": "2", "None": None, "nan": float("nan"), "inf": float("inf"),
           "bound": low - 1 if inclusive else low}[kind]
    if kind == "bound" and inclusive:
        call(low)  # the bound itself is in range
    bound = "" if low is None else f" and {'>=' if inclusive else '>'} {low}"
    with pytest.raises(error, match=f"^{name} must be finite{bound}, got {re.escape(repr(bad))}$"):
        call(bad)


def test_sampleset_validation():
    with pytest.raises(ValueError):
        SampleSet(np.array([1.0, 2.0]))  # 1-d
    with pytest.raises(ValueError):
        SampleSet(np.array([[np.nan, 1.0]]))
    s = SampleSet(np.arange(12, dtype=float).reshape(4, 3))
    assert (s.n, s.dim) == (4, 3)


def test_csv_roundtrip_with_and_without_header(tmp_path):
    s = SampleSet(np.array([[1.5, -2.25], [0.0, 1e-17], [3.0, 4.0]]))
    with_header = tmp_path / "with_header.csv"
    np.savetxt(with_header, s.data, delimiter=",", fmt="%.17g", header="x0,x1", comments="")
    assert with_header.read_text().startswith("x0,x1\n")
    assert np.array_equal(load_samples_csv(with_header).data, s.data)
    bare = tmp_path / "bare.csv"
    np.savetxt(bare, s.data, delimiter=",", fmt="%.17g")
    assert np.array_equal(load_samples_csv(bare).data, s.data)
    # the header is the first non-blank row, not only physical line 1
    blank_first = tmp_path / "blank_first.csv"
    blank_first.write_text("\n" + with_header.read_text())
    assert np.array_equal(load_samples_csv(blank_first).data, s.data)
    # a UTF-8 byte-order mark is not part of the first cell
    for plain in (with_header, bare, blank_first):
        bom = tmp_path / f"bom_{plain.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert np.array_equal(load_samples_csv(bom).data, s.data)


def test_csv_rejects_ragged_and_empty(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="cells"):
        load_samples_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("x0,x1\n")
    with pytest.raises(ValueError, match="no data"):
        load_samples_csv(empty)
    # only one header: a second non-numeric row is refused at its own line
    two_headers = tmp_path / "two_headers.csv"
    two_headers.write_text("\nx0,x1\ny0,y1\n1.0,2.0\n")
    with pytest.raises(ValueError, match=r"two_headers\.csv:3: non-numeric cell in \['y0'"):
        load_samples_csv(two_headers)
    # a cell past the csv module's field limit is refused at its line
    long_cell = tmp_path / "long.csv"
    long_cell.write_text("1," + "2" * (csv.field_size_limit() + 1) + "\n3,4\n")
    with pytest.raises(ValueError, match=r"long\.csv:1: field larger than field limit"):
        load_samples_csv(long_cell)
