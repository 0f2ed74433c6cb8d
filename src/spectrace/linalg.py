"""Covariance models, seeded Gaussian sampling, and symmetric eigendecompositions.

Everything downstream (estimators, Monte Carlo) funnels through the primitives here, so
determinism, eigenvalue hygiene (sorting, clipping of negative round-off) and the number
rules (:func:`check_int` reads every count, size and seed, :func:`check_real` every real
parameter, each refusing None and any other value that is no number by its name) are
enforced once, by the object that takes the number: a plan or a model its own, each
test-function family its omega, power, center, width and scale; no parser re-checks them.
Every spectrum of a sample or subsample comes from :func:`gram_spectra`, which picks the
d x d Gram or its k x k dual. :func:`write_csv` writes every table the package outputs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import IntEnum, unique
from math import isfinite, nan
from pathlib import Path

import numpy as np

__all__ = [
    "EigenSolverError",
    "Stream",
    "CovarianceModel",
    "SampleSet",
    "check_int",
    "check_real",
    "check_seed",
    "derive_seed",
    "rng_from",
    "sample_gaussian",
    "sample_covariance",
    "gram_spectra",
    "sym_eigvalues",
    "load_samples_csv",
    "format_cell",
    "write_csv",
]

# Relative width of the clipping band for eigenvalues of nominally PSD
# matrices: values in (-CLIP_REL * max|eig|, 0) are round-off, not signal.
CLIP_REL = 1e-10

# Symmetry tolerance for eigensolver inputs, relative to max|entry|.
SYM_TOL = 1e-8


class EigenSolverError(RuntimeError):
    """Symmetric eigensolver failed to converge."""


@unique
class Stream(IntEnum):
    """Tags of the seed streams split off by three-part derivations.

    Every three-part derivation reads ``(parent seed, index, tag)`` with
    one of these tags last. Two of them with different tags therefore
    differ in the tag word of their entropy and cannot share a stream,
    whatever their parent seeds and indices; and none can meet a one- or
    two-part derivation such as a replicate's sampling seed
    ``(master, i)``, since the length word leads the entropy.
    """

    SUBSET = 1  # (master, replicate, SUBSET): the replicate's subset seed
    GRID = 2  # (master, 0, GRID): the supnorm function grid
    LEVEL = 3  # (subset seed, level, LEVEL): the level's index-set generator
    RATE = 4  # (master, n, RATE): the master seed of a rate sweep's size n


def _read_float(value) -> float:
    """``float(value)``; nan for a str and for any value ``float`` cannot read."""
    try:
        return nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, OverflowError):  # None, a list, a complex; a huge Fraction
        return nan


def check_int(name: str, value, low: int | None = None) -> int:
    """``value`` as a Python int; a ValueError naming ``name`` unless it is integral (7, 7.0,
    ``np.int64(7)``, True; not 2.5, nan, inf, a str or None) and, when ``low`` is given,
    >= ``low``. A count (one with a floor) past the float range raises OverflowError."""
    if not isinstance(value, int) and not _read_float(value).is_integer():  # an int is exact
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and float(value) < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def check_real(name: str, value, low: float | None = None, inclusive: bool = False) -> float:
    """``value`` as a Python float; a ValueError naming ``name`` unless ``float`` reads it
    (not a str, None, a list or a complex) to a finite value and, when ``low`` is given,
    > ``low``, or >= ``low`` when ``inclusive``."""
    x = _read_float(value)
    if not isfinite(x) or low is not None and not (x >= low if inclusive else x > low):
        bound = "" if low is None else f" and {'>=' if inclusive else '>'} {low}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return x


def check_seed(seed) -> int:
    """``seed`` as :func:`check_int` reads it, refused outside [0, 2**64) like every seed part."""
    if not 0 <= (value := check_int("seed", seed)) < 1 << 64:
        raise ValueError(f"seed {seed} is outside [0, 2**64)")
    return value


def _entropy(parts: tuple[int, ...]) -> list[int]:
    """The length word, so (s,) and (s, 0) differ, then each part through :func:`check_seed`."""
    return [len(parts), *map(check_seed, parts)]


def derive_seed(*parts: int) -> int:
    """Collapse parts in [0, 2**64) into one 64-bit seed, deterministically.

    Used everywhere a child stream is split off a parent seed (a replicate
    index, or an index and a :class:`Stream` tag), so that results never
    depend on scheduling or evaluation order.
    """
    return int(
        np.random.SeedSequence(_entropy(parts)).generate_state(1, np.uint64)[0]
    )


def rng_from(*parts: int) -> np.random.Generator:
    """Generator seeded from the same derivation as :func:`derive_seed`."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(parts)))


@dataclass(frozen=True)
class CovarianceModel:
    """Ground-truth covariance, specified by its spectrum.

    Parameters
    ----------
    eigenvalues : array
        Nonnegative, sorted non-increasing.
    basis : array, optional
        Orthonormal matrix whose column k is the eigenvector paired with
        ``eigenvalues[k]``. ``None`` means the model is diagonal in the
        standard basis.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must be a nonempty 1-d vector")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam < 0):
            raise ValueError("eigenvalues must be nonnegative")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted non-increasing")
        object.__setattr__(self, "eigenvalues", lam)
        if self.basis is not None:
            vec = np.asarray(self.basis, dtype=float)
            if vec.shape != (lam.size, lam.size):
                raise ValueError(
                    f"basis must be {lam.size}x{lam.size}, got {vec.shape}"
                )
            gram_err = float(np.max(np.abs(vec.T @ vec - np.eye(lam.size))))
            if gram_err > 1e-10:
                raise ValueError(
                    f"basis is not orthonormal: max |V'V - I| = {gram_err:.3e}"
                )
            object.__setattr__(self, "basis", vec)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def matrix(self) -> np.ndarray:
        """Dense covariance matrix V diag(lam) V'."""
        if self.basis is None:
            return np.diag(self.eigenvalues)
        return (self.basis * self.eigenvalues) @ self.basis.T

    def operator_norm(self) -> float:
        return float(self.eigenvalues[0])

    @staticmethod
    def identity(dim: int) -> "CovarianceModel":
        return CovarianceModel(np.ones(check_int("dim", dim, 1)))

    @staticmethod
    def poly_decay(dim: int, beta: float) -> "CovarianceModel":
        """Spectrum lam_k = k**(-beta), k = 1..dim."""
        dim, beta = check_int("dim", dim, 1), check_real("beta", beta, 0, inclusive=True)
        k = np.arange(1, dim + 1, dtype=float)
        return CovarianceModel(k ** -beta)

    @staticmethod
    def from_values(values) -> "CovarianceModel":
        """Model with the given eigenvalues, sorted for the caller."""
        lam = np.sort(np.asarray(values, dtype=float))[::-1]
        return CovarianceModel(lam.copy())

    def with_random_basis(self, seed: int) -> "CovarianceModel":
        """Same spectrum, conjugated by a seeded random orthogonal matrix."""
        rng = rng_from(seed)
        raw = rng.standard_normal((self.dim, self.dim))
        q, r = np.linalg.qr(raw)
        q = q * np.sign(np.diag(r))  # fix the sign convention
        return CovarianceModel(self.eigenvalues.copy(), q)


@dataclass(frozen=True)
class SampleSet:
    """Observations as rows of an (n, dim) array."""

    data: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"data must be a nonempty 2-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("data contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def sample_gaussian(
    model: CovarianceModel, n: int, seed: int, out: np.ndarray | None = None
) -> SampleSet:
    """n i.i.d. mean-zero Gaussian rows with covariance ``model``.

    Rows are V diag(sqrt(lam)) Z with Z standard normal, so the draw is a
    pure function of (model, n, seed). Z is drawn into ``out`` when one is
    given, a C-contiguous float64 (n, dim) array (numpy rejects any other
    shape or dtype), and scaled in place; the bits are those of a fresh
    draw. A diagonal model's sample then views ``out``, so it lives only
    until the next draw into the same buffer; a rotated model's sample is
    a new array either way.
    """
    n = check_int("n", n, 1)
    if out is not None and not out.flags.c_contiguous:
        # numpy fills an F-ordered buffer too, with other bits
        raise ValueError("out must be C-contiguous")
    rng = rng_from(seed)
    x = rng.standard_normal((n, model.dim), out=out)
    x *= np.sqrt(model.eigenvalues)
    if model.basis is not None:
        x = x @ model.basis.T
    return SampleSet(x)


def sample_covariance(samples: SampleSet) -> np.ndarray:
    """Gram-based covariance X'X / n (no centering), exactly symmetric.

    The product is formed once and divided by n (in power-of-two units when
    X'X alone overflows); numpy forms X'X exactly symmetric. Raises
    :class:`FloatingPointError` when an entry of X'X / n is not finite.
    Spectra of samples come from :func:`gram_spectra`, which forms this
    d x d matrix only when n >= d.
    """
    return _symmetric_gram(samples.data, samples.n)


def _symmetric_gram(y: np.ndarray, k: int) -> np.ndarray:
    # Y'Y / k, checked once for overflow; the primal Gram has y = X, the
    # dual y = X' (k is X's row count either way). numpy forms Y'Y exactly
    # symmetric (syrk, mirrored), so it needs no averaging with its
    # transpose, and sym_eigvalues still checks every matrix it solves. A
    # (..., k, d) stack gives the stack of its Grams, each bit-identical to
    # the Gram of its own slice.
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.swapaxes(y, -1, -2) @ y
        a /= float(k)
        if not np.isfinite(a).all():
            # Y'Y may overflow where Y'Y / k does not: redo each matrix in units
            # s of a power of two at or below its largest |entry| (never 2**1024),
            # exact scalings, so a matrix that did not overflow keeps its bits
            top = np.abs(y).max(axis=(-2, -1), keepdims=True)
            s = np.ldexp(1.0, np.frexp(top)[1] - 1)
            u = y / s
            a = np.swapaxes(u, -1, -2) @ u
            a /= float(k)
            a *= s
            a *= s
            if not np.isfinite(a).all():
                raise FloatingPointError(
                    f"sample covariance overflows: the Gram of {k} rows with "
                    f"entries up to {float(top.max()):.3e} is not finite"
                )
    return a


def gram_spectra(x: np.ndarray) -> np.ndarray:
    """Non-increasing spectra of X'X / k for a ``(..., k, d)`` row stack.

    Returns the ``(..., min(k, d))`` stack of spectra, one per ``(k, d)``
    slice. With k >= d this is ``sym_eigvalues`` of X'X / k. With
    k < d X'X / k has rank at most k, and its nonzero eigenvalues are those
    of the k x k dual X X' / k (same divisor k), so the dual is solved and
    the d - k null eigenvalues are left out. Any f with f(0) = 0 then
    gives tr f(X'X / k) = tr f(X X' / k) exactly; the spectra differ from
    the primal ones only by the solver's round-off. The dual keeps the
    primal's checks: overflow once per stack, symmetry and the clip band
    per matrix.
    """
    k, d = x.shape[-2:]
    return sym_eigvalues(_symmetric_gram(x if k >= d else np.swapaxes(x, -1, -2), k))


def _clip_roundoff(lam: np.ndarray) -> np.ndarray:
    # each row is sorted non-increasing, and its band width scales with its
    # own top magnitude. Nothing to clip when every row's smallest is >= 0
    # (a NaN fails the test).
    low = lam[..., -1:]
    if (low >= 0.0).all():
        return lam
    top = np.abs(lam[..., :1])
    # the larger of top and |low| where low < 0, top where low is NaN
    eps = CLIP_REL * np.where(-low > top, -low, top)
    lam[(lam < 0.0) & (lam > -eps)] = 0.0
    return lam


def _check_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(
            f"expected a square matrix or a stack of them, got shape {a.shape}"
        )
    at = np.swapaxes(a, -1, -2)
    if (a == at).all():  # exactly symmetric, as every Gram formed here is
        return a
    asym = np.abs(a - at).max(axis=(-2, -1))
    # each matrix is judged against its own largest entry
    tol = SYM_TOL * np.maximum(np.abs(a).max(axis=(-2, -1)), 1.0)
    bad = asym > tol
    if bad.any():
        at = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        which = "" if not at else f" {at[0]}" if len(at) == 1 else f" {at}"
        raise ValueError(
            f"matrix{which} is not symmetric: max |A - A'| = {asym[at]:.3e} "
            f"(tolerance {tol[at]:.3e})"
        )
    return a


def sym_eigvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, non-increasing.

    A ``(..., d, d)`` stack gives the ``(..., d)`` stack of its spectra in
    one solver call, each row bit-identical to the spectrum of its own
    matrix: the symmetry check and the clip band are per matrix. Negatives
    inside a matrix's round-off band are clipped to zero. Solver
    non-convergence raises :class:`EigenSolverError` with the backend
    diagnostic attached.
    """
    a = _check_symmetric(a)
    try:
        lam = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        d = a.shape[-1]
        raise EigenSolverError(f"eigensolver failed on {d}x{d} input: {exc}") from exc
    return _clip_roundoff(lam[..., ::-1].copy())


def load_samples_csv(path) -> SampleSet:
    """Read observations from CSV, one row per observation.

    Blank rows are skipped, and so is a first non-blank row that does not
    parse as numbers, as a header. Text that is not UTF-8, a cell past the
    csv module's field limit, and ragged rows, non-numeric cells or
    non-finite values elsewhere, are errors that name the file.
    """
    path = Path(path)
    rows: list[list[float]] = []
    nonblank = 0  # rows read that are not blank
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:  # drops a leading BOM
            reader = csv.reader(fh)
            for row in reader:
                lineno = reader.line_num  # the physical line the row ends on
                if not row or all(cell.strip() == "" for cell in row):
                    continue
                nonblank += 1
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    if nonblank == 1:
                        continue  # header
                    raise ValueError(f"{path}:{lineno}: non-numeric cell in {row!r}")
                if rows and len(values) != len(rows[0]):
                    raise ValueError(
                        f"{path}:{lineno}: {len(values)} cells in {row!r}, "
                        f"expected {len(rows[0])}"
                    )
                if not np.all(np.isfinite(values)):
                    raise ValueError(f"{path}:{lineno}: non-finite entries in {row!r}")
                rows.append(values)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:  # a cell past the field limit; a NUL byte before Python 3.11
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return SampleSet(np.asarray(rows, dtype=float))


def format_cell(value) -> str:
    """A table cell or RESULT value: a float, numpy's included, as
    ``repr(float(value))``, the shortest text that reads back to the same
    double; anything else as ``str(value)``."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Write a table: the ``header`` row, then ``rows``, each cell by
    :func:`format_cell`, in the csv module's default dialect (CRLF lines, as
    RFC 4180 has them). Makes the parent directory; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_cell(v) for v in row] for row in rows)
    return path
