import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from spectrace.linalg import (
    CLIP_REL,
    SYM_TOL,
    CovarianceModel,
    EigenSolverError,
    SampleSet,
    _symmetric_gram,
    derive_seed,
    gram_spectra,
    load_samples_csv,
    rng_from,
    sample_covariance,
    sample_gaussian,
    sym_eigvalues,
)


def test_model_validation():
    with pytest.raises(ValueError):
        CovarianceModel(np.array([1.0, 2.0]))  # increasing
    with pytest.raises(ValueError):
        CovarianceModel(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        CovarianceModel(np.array([]))
    m = CovarianceModel(np.array([2.0, 1.0]))
    assert m.dim == 2 and m.operator_norm() == 2.0


def test_model_constructors():
    assert np.array_equal(CovarianceModel.identity(3).eigenvalues, np.ones(3))
    decay = CovarianceModel.poly_decay(4, 1.0)
    assert np.allclose(decay.eigenvalues, [1, 1 / 2, 1 / 3, 1 / 4])
    unsorted = CovarianceModel.from_values([1.0, 3.0, 2.0])
    assert np.array_equal(unsorted.eigenvalues, [3.0, 2.0, 1.0])


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


def test_sampling_is_deterministic_and_seed_sensitive():
    model = CovarianceModel.from_values([3.0, 1.0, 0.25])
    a = sample_gaussian(model, 50, 123)
    b = sample_gaussian(model, 50, 123)
    c = sample_gaussian(model, 50, 124)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


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
    # a UTF-8 byte-order mark is not part of the first cell
    for plain in (with_header, bare):
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
