"""Smooth test functions with tracked derivatives and derivative bounds.

A test function f vanishes at 0 and exposes derivatives up to a declared
order, vectorized over numpy arrays and each checked finite at 0 when f is
built. Trace functionals sum f over eigenvalues, so zero padding is harmless.
Four rules give the built-ins' derivatives: the power rule for identity,
square and cube (x**p, p = 1, 2, 3); log1p's derivatives, which
rational = 1 - 1/(1 + x) takes shifted up one order; the sine's phase by
j mod 4; and the bump's Hermite functions, by one recurrence.
A derivative bound is a grid maximum, exact where the sup sits at an
endpoint, as for every derivative of identity, square, cube, log1p, rational.
"""

from __future__ import annotations

from math import factorial, isfinite
from typing import Callable, Sequence

import numpy as np

from .linalg import check_int, check_real, rng_from, write_csv

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
    """Function on [0, inf) with f(0) = 0 and derivatives up to ``max_order``, finite at 0.

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
        self.max_order = check_int("max_order", max_order, 1)
        self.name = str(name)
        self._evaluate = evaluate
        with np.errstate(all="ignore"):  # non-finite values are refused below, not warned of
            at_zero = [float(evaluate(j, np.zeros(1))[0]) for j in range(self.max_order + 1)]
        if not abs(at_zero[0]) <= 1e-12:  # NaN fails too
            raise ValueError(f"{name}: f(0) = {at_zero[0]!r}, must vanish")
        for order, value in enumerate(at_zero):
            if not isfinite(value):
                raise ValueError(f"{name}: derivative of order {order} is {value!r} at 0")

    def __repr__(self) -> str:
        return f"TestFunction({self.name!r}, max_order={self.max_order})"

    def deriv(self, order: int, x):
        """Evaluate the order-th derivative (order 0 is f itself)."""
        if not 0 <= (order := check_int("order", order)) <= self.max_order:
            raise ValueError(
                f"{self.name}: derivative order {order} outside [0, {self.max_order}]"
            )
        arr = np.asarray(x, dtype=float)
        out = np.asarray(self._evaluate(order, np.atleast_1d(arr).ravel()), dtype=float)
        if arr.ndim == 0:
            return float(out[0])
        return out.reshape(arr.shape)

    def derivative_bound(self, order: int, upper: float) -> float:
        """sup of |f^(order)| over [0, upper], as the max over
        ``_GRID_POINTS`` equally spaced points, both ends included."""
        upper = check_real("upper", upper, 0, inclusive=True)  # np.linspace to inf gives nan
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


def _power(name: str, p: int) -> TestFunction:
    # f(x) = x**p: f^(j) = p!/(p-j)! x**(p-j) below p, the constant p! at p, 0 above.
    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        if j > p:
            return np.zeros_like(x)
        if j == p:
            return np.full_like(x, float(factorial(p)))
        return factorial(p) // factorial(p - j) * x ** (p - j)

    return TestFunction(name, _MAX_ORDER, evaluate)


def _log1p_deriv(j: int, x: np.ndarray) -> np.ndarray:
    """j-th derivative of log1p for j >= 1: (-1)**(j-1) (j-1)! / (1+x)**j."""
    sign = 1.0 if j % 2 == 1 else -1.0
    return sign * factorial(j - 1) / (1.0 + x) ** j


def _log1p() -> TestFunction:
    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        return np.log1p(x) if j == 0 else _log1p_deriv(j, x)

    return TestFunction("log1p", _MAX_ORDER, evaluate)


def _rational() -> TestFunction:
    # f(x) = x / (1 + x) = 1 - 1/(1 + x), so f^(j) = -log1p^(j+1) for j >= 1
    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        return x / (1.0 + x) if j == 0 else -_log1p_deriv(j + 1, x)

    return TestFunction("rational", _MAX_ORDER, evaluate)


def _scaled_sine(omega: float = 1.0, power: float = 1.0) -> TestFunction:
    # f(x) = sin(omega x) / omega**power, so
    #   f^(j)(x) = omega**(j - power) * (sin, cos, -sin, -cos)[j mod 4](omega x)
    omega = check_real("omega", omega, 0)
    name = f"scaled_sine:{repr(omega)}"
    if power != 1.0:
        name += f":{repr(float(power))}"

    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        wave = (np.sin, np.cos)[j % 2](omega * x)
        return omega ** (j - power) * (wave if j % 4 < 2 else -wave)

    return TestFunction(name, _MAX_ORDER, evaluate)


def _bump(center: float = 2.0, width: float = 0.5, scale: float = 1.0) -> TestFunction:
    # Gaussian bump shifted to vanish at 0:
    #   f(x) = scale * (exp(-t^2/2) - exp(-(c/w)^2/2)),  t = (x - c)/w,
    #   f^(j)(x) = scale * (-1/w)**j * phi_j(t) for j >= 1,
    # phi_k = He_k(t) exp(-t^2/2) the Hermite functions. He's recurrence runs on
    # phi itself, from exp(-t^2/2), so nothing overflows where that factor underflows.
    c, w, s = float(center), check_real("width", width, 0), float(scale)
    offset = float(np.exp(-0.5 * (c / w) ** 2))
    name = f"bump:{repr(c)}:{repr(w)}"
    if s != 1.0:
        name += f":{repr(s)}"

    def evaluate(j: int, x: np.ndarray) -> np.ndarray:
        t = (x - c) / w
        phi, phi_prev = np.exp(-0.5 * t * t), 0.0
        if j == 0:
            return s * (phi - offset)
        for k in range(j):
            phi, phi_prev = t * phi - k * phi_prev, phi
        return s * (-1.0) ** j * w ** (-j) * phi

    return TestFunction(name, _MAX_ORDER, evaluate)


_FAMILIES: dict[str, Callable[..., TestFunction]] = {
    "identity": lambda: _power("identity", 1),
    "square": lambda: _power("square", 2),
    "cube": lambda: _power("cube", 3),
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
    try:
        return make(*args)
    except OverflowError:  # Python float ** at some order, where numpy gives inf
        raise ValueError(f"parameters of test function {name!r} overflow a float")


# --- function-class grids -------------------------------------------------


class FunctionClassGrid:
    """Finite family of test functions with derivative bounds <= 1.

    Every member must satisfy max |f^(j)| <= 1 + 1e-9 on [0, 20]
    for j = 1..order+1 (checked on a fixed grid at construction), which
    makes worst-case-over-the-family error experiments meaningful.
    """

    def __init__(self, order: int, members: Sequence[TestFunction]) -> None:
        self.order = check_int("order", order, 1)
        if not members:
            raise ValueError("members must be nonempty")
        names = [f.name for f in members]
        if len(set(names)) != len(names):
            raise ValueError("grid members must have distinct names")
        for f in members:
            if f.max_order < self.order + 1:
                raise ValueError(
                    f"{f.name}: needs derivatives up to {self.order + 1}, has {f.max_order}"
                )
            for j in range(1, self.order + 2):
                top = f.derivative_bound(j, _CHECK_UPPER)
                if top > 1.0 + 1e-9:
                    raise ValueError(
                        f"{f.name}: |f^({j})| reaches {top:.6g} > 1 on [0, {_CHECK_UPPER}]"
                    )
        self.members = tuple(members)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.members)


def default_grid(order: int, count: int, seed: int) -> FunctionClassGrid:
    """Seeded default family: sin(x) first, then scaled sines and rescaled bumps.

    Sines sin(omega x) are normalized by omega when omega <= 1 and by
    omega**(order+1) otherwise, which caps every derivative up to
    order+1 at 1. Bumps are rescaled by their worst grid-measured
    derivative. Deterministic given (order, count, seed). ``order`` is a
    run's m (members need derivatives up to m + 1 <= 12), ``count`` its grid_size.
    """
    count, order = check_int("grid_size", count, 1), check_int("m", order, 1)
    if order + 1 > _MAX_ORDER:
        raise ValueError(
            f"m = {order} needs derivatives up to order {order + 1}, but the grid's "
            f"families have them up to {_MAX_ORDER}; m must be <= {_MAX_ORDER - 1}"
        )
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
