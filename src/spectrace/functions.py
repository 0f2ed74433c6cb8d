"""Smooth test functions with tracked derivatives and derivative bounds.

A test function f vanishes at 0 and exposes derivatives up to a declared
order, vectorized over numpy arrays. Trace functionals are sums of f over
eigenvalues, so f(0) = 0 makes padding by zero eigenvalues harmless.
A derivative bound is a grid maximum, exact where the sup sits at an
endpoint, as for every derivative of identity, square, cube, log1p, rational.
"""

from __future__ import annotations

from math import factorial, isfinite, pi
from typing import Callable, Sequence

import numpy as np

from .linalg import rng_from, write_csv

__all__ = [
    "TestFunction",
    "FunctionClassGrid",
    "builtin",
    "tau_f",
    "tau_f_rows",
    "default_grid",
    "grid_to_csv",
]

_GRID_POINTS = 2001  # resolution of derivative bounds
_CHECK_UPPER = 20.0  # function-class grids bound derivatives on [0, _CHECK_UPPER]


class TestFunction:
    """Function on [0, inf) with f(0) = 0 and derivatives up to ``max_order``.

    Parameters
    ----------
    name : str
        Identifier; parameterized families encode their parameters after
        colons, e.g. ``"scaled_sine:0.5"``, and :func:`builtin` parses the
        same format back.
    max_order : int
        Highest available derivative order, >= 1.
    evaluate : callable
        ``evaluate(order, arr) -> arr`` for 0 <= order <= max_order,
        vectorized over a 1-d float array.
    """

    def __init__(
        self,
        name: str,
        max_order: int,
        evaluate: Callable[[int, np.ndarray], np.ndarray],
    ) -> None:
        if max_order < 1:
            raise ValueError("max_order must be >= 1")
        self.name = str(name)
        self.max_order = int(max_order)
        self._evaluate = evaluate
        with np.errstate(all="ignore"):  # a NaN f(0) is refused below, not warned of
            at_zero = float(np.asarray(evaluate(0, np.zeros(1)))[0])
        if not abs(at_zero) <= 1e-12:  # NaN fails too
            raise ValueError(f"{name}: f(0) = {at_zero!r}, must vanish")

    def __repr__(self) -> str:
        return f"TestFunction({self.name!r}, max_order={self.max_order})"

    def deriv(self, order: int, x):
        """Evaluate the order-th derivative (order 0 is f itself)."""
        if not 0 <= order <= self.max_order:
            raise ValueError(
                f"{self.name}: derivative order {order} outside [0, {self.max_order}]"
            )
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self._evaluate(order, np.atleast_1d(arr).ravel()), dtype=float)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def __call__(self, x):
        return self.deriv(0, x)

    def derivative_bound(self, order: int, upper: float) -> float:
        """sup of |f^(order)| over [0, upper], as the max over
        ``_GRID_POINTS`` equally spaced points, both ends included."""
        if not 0 <= upper < np.inf:  # np.linspace to inf or nan gives nan points
            raise ValueError(f"upper must be finite and >= 0, got {upper!r}")
        return float(np.max(np.abs(self.deriv(order, np.linspace(0.0, upper, _GRID_POINTS)))))

    def lipschitz_fprime(self, upper: float) -> float:
        """Lipschitz constant of f' on [0, upper], i.e. sup |f''|."""
        return self.derivative_bound(2, upper)


def tau_f(f: TestFunction, eigenvalues) -> float:
    """Trace functional: sum of f over the eigenvalues (all must be >= 0)."""
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-d vector")
    return float(tau_f_rows(f, lam[np.newaxis])[0])


def tau_f_rows(f: TestFunction, spectra) -> np.ndarray:
    """tau_f of every row of a (B, d) stack of spectra, in one f-evaluation.

    ``tau_f`` is this on a single row, so entry b equals
    ``tau_f(f, spectra[b])`` bit for bit. Raises FloatingPointError when a
    sum is not finite, as when f overflows at the eigenvalues.
    """
    lam = np.asarray(spectra, dtype=float)
    if lam.ndim != 2 or lam.size == 0:
        raise ValueError("spectra must be a nonempty 2-d array, one spectrum per row")
    if np.any(lam < 0):
        raise ValueError(
            f"eigenvalues must be nonnegative, min = {float(lam.min()):.3e}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.sum(f.deriv(0, lam), axis=1)
    if not np.isfinite(sums).all():
        raise FloatingPointError(f"tau_f of {f.name} is not finite at these eigenvalues")
    return sums


# --- builtin families ---------------------------------------------------

_MAX_ORDER = 12


def _identity() -> TestFunction:
    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        if j == 0:
            return x
        if j == 1:
            return np.ones_like(x)
        return np.zeros_like(x)

    return TestFunction("identity", _MAX_ORDER, evaluate)


def _square() -> TestFunction:
    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        if j == 0:
            return x * x
        if j == 1:
            return 2.0 * x
        if j == 2:
            return np.full_like(x, 2.0)
        return np.zeros_like(x)

    return TestFunction("square", _MAX_ORDER, evaluate)


def _cube() -> TestFunction:
    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        if j == 0:
            return x ** 3
        if j == 1:
            return 3.0 * x * x
        if j == 2:
            return 6.0 * x
        if j == 3:
            return np.full_like(x, 6.0)
        return np.zeros_like(x)

    return TestFunction("cube", _MAX_ORDER, evaluate)


def _log1p() -> TestFunction:
    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        if j == 0:
            return np.log1p(x)
        sign = 1.0 if j % 2 == 1 else -1.0
        return sign * factorial(j - 1) / (1.0 + x) ** j

    return TestFunction("log1p", _MAX_ORDER, evaluate)


def _rational() -> TestFunction:
    # f(x) = x / (1 + x)
    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        if j == 0:
            return x / (1.0 + x)
        sign = 1.0 if j % 2 == 1 else -1.0
        return sign * factorial(j) / (1.0 + x) ** (j + 1)

    return TestFunction("rational", _MAX_ORDER, evaluate)


def _scaled_sine(omega: float = 1.0, power: float = 1.0) -> TestFunction:
    # f(x) = sin(omega x) / omega**power; derivatives shift the phase.
    if omega <= 0:
        raise ValueError("omega must be > 0")
    name = f"scaled_sine:{repr(float(omega))}"
    if power != 1.0:
        name += f":{repr(float(power))}"

    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        return omega ** (j - power) * np.sin(omega * x + j * pi / 2.0)

    return TestFunction(name, _MAX_ORDER, evaluate)


def _hermite_e(order: int, t: np.ndarray) -> np.ndarray:
    """Probabilists' Hermite polynomial He_order(t), by recurrence."""
    h_prev = np.ones_like(t)
    if order == 0:
        return h_prev
    h = t.copy()
    for k in range(1, order):
        h, h_prev = t * h - k * h_prev, h
    return h


def _bump(center: float = 2.0, width: float = 0.5, scale: float = 1.0) -> TestFunction:
    # Gaussian bump shifted to vanish at 0:
    #   f(x) = scale * (exp(-t^2/2) - exp(-(c/w)^2/2)),  t = (x - c)/w
    if width <= 0:
        raise ValueError("width must be > 0")
    c, w, s = float(center), float(width), float(scale)
    offset = float(np.exp(-0.5 * (c / w) ** 2))
    name = f"bump:{repr(c)}:{repr(w)}"
    if s != 1.0:
        name += f":{repr(s)}"

    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        t = (x - c) / w
        core = np.exp(-0.5 * t * t)
        if j == 0:
            return s * (core - offset)
        sign = -1.0 if j % 2 == 1 else 1.0
        return s * sign * w ** (-j) * _hermite_e(j, t) * core

    return TestFunction(name, _MAX_ORDER, evaluate)


_FAMILIES: dict[str, Callable[..., TestFunction]] = {
    "identity": _identity,
    "square": _square,
    "cube": _cube,
    "log1p": _log1p,
    "rational": _rational,
    "scaled_sine": _scaled_sine,
    "bump": _bump,
}


def builtin(name: str) -> TestFunction:
    """Construct a builtin test function from its (possibly parameterized) name.

    Plain names: ``identity``, ``square``, ``cube``, ``log1p``,
    ``rational``, ``scaled_sine``, ``bump``. Parameters follow colons, e.g.
    ``scaled_sine:0.5`` or ``bump:2.0:0.5``.
    """
    parts = str(name).split(":")
    family = parts[0]
    if family not in _FAMILIES:
        raise ValueError(
            f"unknown test function {family!r}; choose from {sorted(_FAMILIES)}"
        )
    try:
        args = [float(p) for p in parts[1:]]
    except ValueError:
        raise ValueError(f"bad parameters in test function name {name!r}")
    if not all(isfinite(a) for a in args):
        raise ValueError(f"parameters of test function {name!r} must be finite")
    make = _FAMILIES[family]
    takes = make.__code__.co_argcount
    if len(args) > takes:
        at_most = "no" if takes == 0 else f"at most {takes}"
        raise ValueError(
            f"test function {family!r} takes {at_most} parameters, "
            f"got {len(args)} in {name!r}"
        )
    return make(*args)


# --- function-class grids -------------------------------------------------


class FunctionClassGrid:
    """Finite family of test functions with derivative bounds <= 1.

    Every member must satisfy max |f^(j)| <= 1 + 1e-9 on [0, 20]
    for j = 1..order+1 (checked on a fixed grid at construction), which
    makes worst-case-over-the-family error experiments meaningful.
    """

    def __init__(self, order: int, members: Sequence[TestFunction]) -> None:
        if order < 1:
            raise ValueError("order must be >= 1")
        if not members:
            raise ValueError("members must be nonempty")
        names = [f.name for f in members]
        if len(set(names)) != len(names):
            raise ValueError("grid members must have distinct names")
        for f in members:
            if f.max_order < order + 1:
                raise ValueError(
                    f"{f.name}: needs derivatives up to {order + 1}, has {f.max_order}"
                )
            for j in range(1, order + 2):
                top = f.derivative_bound(j, _CHECK_UPPER)
                if top > 1.0 + 1e-9:
                    raise ValueError(
                        f"{f.name}: |f^({j})| reaches {top:.6g} > 1 on [0, {_CHECK_UPPER}]"
                    )
        self.order = int(order)
        self.members = tuple(members)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.members)


def default_grid(order: int, count: int, seed: int) -> FunctionClassGrid:
    """Seeded default family: sin(x) first, then scaled sines and rescaled bumps.

    Sines sin(omega x) are normalized by omega when omega <= 1 and by
    omega**(order+1) otherwise, which caps every derivative up to
    order+1 at 1. Bumps are rescaled by their worst grid-measured
    derivative. Deterministic given (order, count, seed).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = rng_from(seed)
    members: list[TestFunction] = [_scaled_sine(1.0)]
    while len(members) < count:
        if len(members) % 2 == 1:
            omega = float(2.0 ** rng.uniform(-2.0, 2.0))
            power = 1.0 if omega <= 1.0 else float(order + 1)
            members.append(_scaled_sine(omega, power))
        else:
            center = float(rng.uniform(0.5, 3.5))
            width = float(rng.uniform(0.4, 1.2))
            raw = _bump(center, width)
            worst = max(raw.derivative_bound(j, _CHECK_UPPER) for j in range(1, order + 2))
            scale = 1.0 if worst <= 1.0 else 1.0 / worst
            members.append(_bump(center, width, scale))
    return FunctionClassGrid(order, members[:count])


def grid_to_csv(grid: FunctionClassGrid, path) -> None:
    """Write (family, parameters) rows; :func:`builtin` parses ``family:parameters``."""
    write_csv(path, ["name", "parameters"],
              (f.name.partition(":")[::2] for f in grid.members))
