from math import factorial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from spectrace.functions import TestFunction as SmoothFunction
from spectrace.functions import (
    FunctionClassGrid,
    _bump,
    builtin,
    default_grid,
    grid_to_csv,
    tau_f,
    tau_f_rows,
)
from spectrace.linalg import CovarianceModel, sym_eigvalues

ALL_BUILTINS = ["identity", "square", "cube", "log1p", "rational",
                "scaled_sine:1.5", "scaled_sine:0.5", "bump:2.0:0.5"]


def test_builtin_values_at_known_points():
    x = np.array([0.0, 1.0, 3.0])
    assert np.allclose(builtin("identity").deriv(0, x), x)
    assert np.allclose(builtin("square").deriv(0, x), [0.0, 1.0, 9.0])
    assert np.allclose(builtin("cube").deriv(0, x), [0.0, 1.0, 27.0])
    assert np.allclose(builtin("log1p").deriv(0, x), np.log1p(x))
    assert np.allclose(builtin("rational").deriv(0, x), [0.0, 0.5, 0.75])
    f = builtin("scaled_sine:2.0")
    assert np.allclose(f.deriv(0, x), np.sin(2 * x) / 2)
    assert repr(builtin("log1p")) == "TestFunction('log1p', max_order=12)"


def test_builtin_derivatives_at_known_points():
    assert builtin("square").deriv(1, 3.0) == 6.0
    assert builtin("square").deriv(2, 3.0) == 2.0
    assert builtin("square").deriv(3, 3.0) == 0.0
    assert builtin("log1p").deriv(1, 1.0) == 0.5
    assert builtin("log1p").deriv(2, 0.0) == -1.0
    assert builtin("rational").deriv(1, 0.0) == 1.0
    # sine derivative chain closes: f'''' = omega^3 sin at omega = 1
    f = builtin("scaled_sine:1.0")
    x = np.linspace(0, 5, 11)
    assert np.allclose(f.deriv(4, x), np.sin(x))
    # every order of the rule-built tables against its closed form, written out
    x = np.concatenate([[0.0, 1e-300, 1e-10], np.linspace(0.0, 1e3, 40003)])
    zero, one = np.zeros_like(x), np.ones_like(x)
    powers = {"identity": [x, one],
              "square": [x * x, 2.0 * x, 2.0 * one],
              "cube": [x ** 3, 3.0 * x * x, 6.0 * x, 6.0 * one]}
    table = {name: rows + [zero] * (13 - len(rows)) for name, rows in powers.items()}
    table["log1p"] = [np.log1p(x)] + [
        (-1.0) ** (j - 1) * factorial(j - 1) / (1.0 + x) ** j for j in range(1, 13)]
    table["rational"] = [x / (1.0 + x)] + [
        (-1.0) ** (j - 1) * factorial(j) / (1.0 + x) ** (j + 1) for j in range(1, 13)]
    for name, rows in table.items():
        f = builtin(name)
        assert f.max_order == len(rows) - 1 == 12
        for j, want in enumerate(rows):
            got = f.deriv(j, x)
            if (name, j) == ("cube", 1):
                # the rule computes 3 (x x), the closed form (3 x) x: up to 2 ulp apart
                np.testing.assert_array_max_ulp(got, want, maxulp=2)
            else:
                assert np.array_equal(got, want), (name, j)


_ORACLE_X = (0.0, 0.3, 0.7, 1.3, 2.0, 5.5, 19.0)


def _worst_oracle_ratio(f, exact, scale):
    """max over orders j = 0..12 and x in _ORACLE_X of |f^(j)(x) - exact(j, x)|
    in units of 2 eps scale(j), eps the double-precision machine epsilon."""
    worst = 0.0
    for j in range(13):
        for x in _ORACLE_X:
            err = abs(mpmath.mpf(f.deriv(j, x)) - exact(j, x))
            worst = max(worst, float(err / (2 * np.finfo(float).eps * scale(j))))
    return worst


@pytest.mark.parametrize("omega, power", [(0.25, 1.0), (3.0, 3.0), (1e3, 1.0), (1e8, 1.0),
                                          (1e16, 1.0), (1e20, 2.0)])
def test_sine_derivatives_match_a_60_digit_oracle(omega, power):
    # the oracle shifts the phase by j pi/2 at 60 digits, at theta = fl(omega x),
    # the product the code forms, so this checks the phase rule, not that rounding
    f = builtin(f"scaled_sine:{omega!r}:{power!r}")
    with mpmath.workdps(60):
        def exact(j, x):
            theta = mpmath.mpf(omega * x)
            return mpmath.mpf(omega) ** (j - power) * mpmath.sin(theta + j * mpmath.pi / 2)

        ratio = _worst_oracle_ratio(f, exact, lambda j: omega ** (j - power))
    assert ratio <= 1.0, ratio


@pytest.mark.parametrize("c, w, s", [(2.0, 0.5, 1.0), (0.5, 1.2, 0.3), (3.5, 0.4, 1.0),
                                     (0.0, 1e-25, 1.0), (1.0, 1e-3, 1.0), (1e30, 1.0, 1.0)])
def test_bump_derivatives_match_a_60_digit_oracle(c, w, s):
    # f^(j) = s (-1/w)**j He_j(t) exp(-t^2/2), t = (x - c)/w, from mpmath's
    # physicists' Hermite polynomials: He_j(t) = H_j(t / sqrt 2) / sqrt(2)**j.
    # |He_j(t)| exp(-t^2/4) <= 1.09 sqrt(j!) (Cramer), hence the scale. The
    # narrow bumps and the far one have He_j(t) past the float range where
    # exp(-t^2/2) is 0, yet every order is finite, and the far one builds.
    f = builtin(f"bump:{c!r}:{w!r}:{s!r}")
    with mpmath.workdps(60):
        mc, mw, ms = mpmath.mpf(c), mpmath.mpf(w), mpmath.mpf(s)

        def exact(j, x):
            t = (x - mc) / mw
            gauss = mpmath.exp(-t * t / 2)
            if j == 0:
                return ms * (gauss - mpmath.exp(-(mc / mw) ** 2 / 2))
            he = mpmath.hermite(j, t / mpmath.sqrt(2)) / mpmath.sqrt(2) ** j
            return ms * (-1 / mw) ** j * he * gauss

        ratio = _worst_oracle_ratio(f, exact, lambda j: s * w ** (-j) * factorial(j) ** 0.5)
    assert ratio <= 1.0, ratio


def test_all_builtins_vanish_at_zero():
    for name in ALL_BUILTINS:
        assert abs(builtin(name).deriv(0, 0.0)) <= 1e-12, name


def test_unknown_function_and_bad_params_rejected():
    with pytest.raises(ValueError, match="unknown"):
        builtin("nope")
    with pytest.raises(ValueError, match="parameters"):
        builtin("scaled_sine:abc")
    with pytest.raises(ValueError):
        builtin("bump:2.0:0.0")  # zero width
    with pytest.raises(ValueError, match="^omega must be finite and > 0, got 0.0$"):
        builtin("scaled_sine:0")
    with pytest.raises(ValueError, match="'log1p' takes no parameters, got 1"):
        builtin("log1p:2")
    with pytest.raises(ValueError, match="'scaled_sine' takes at most 2 parameters, got 3"):
        builtin("scaled_sine:1:2:3")
    # finite parameters whose Python-float powers overflow, in f or only in a
    # higher order: f' = 1e400 cos(1e200 x), and w**-2 = 1e600 in the bump's f''
    for name in ("bump:1:1e-300", "scaled_sine:1e-300:5", "scaled_sine:1e200:-1",
                 "bump:0:1e-300"):
        with pytest.raises(ValueError, match=f"test function '{name}' overflow a float"):
            builtin(name)


def test_nonvanishing_function_rejected_at_construction():
    with pytest.raises(ValueError, match="max_order must be >= 1"):
        SmoothFunction("flat", 0, lambda j, x: np.zeros_like(x))
    with pytest.raises(ValueError, match="vanish"):
        SmoothFunction("shifted", 1, lambda j, x: x + 1.0 if j == 0 else np.ones_like(x))
    # a NaN f(0), from a constructor or from a non-finite center, fails too (a
    # non-finite omega is refused before f is built, by check_real)
    with pytest.raises(ValueError, match=r"f\(0\) = nan, must vanish"):
        SmoothFunction("odd", 1, lambda j, x: np.full_like(x, np.nan))
    with pytest.raises(ValueError, match=r"f\(0\) = nan, must vanish"):
        _bump(np.nan, 1.0)
    # so does any order that is not finite at 0
    with pytest.raises(ValueError, match="steep: derivative of order 2 is inf at 0"):
        SmoothFunction("steep", 3, lambda j, x: np.full_like(x, np.inf if j == 2 else 0.0))


_MAGNITUDE = hst.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
_SIGNED = hst.tuples(_MAGNITUDE, hst.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])


@settings(max_examples=300, deadline=None)
@given(name=hst.one_of(
    hst.builds("scaled_sine:{!r}:{!r}".format, _MAGNITUDE, _SIGNED),
    hst.builds("bump:{!r}:{!r}:{!r}".format, _SIGNED, _MAGNITUDE, _SIGNED),
))
def test_parameters_are_refused_when_built_or_every_order_evaluates(name):
    # magnitudes log-uniform in 1e-300..1e300, either sign where the family
    # takes one (omega and the width must be > 0)
    try:
        f = builtin(name)
    except ValueError:
        return
    # numpy's inf or nan away from 0 is refused where f meets eigenvalues
    # (tau_f_rows, gaussian_limit_std); no exception may come after the build
    with np.errstate(over="ignore", invalid="ignore"):
        values = {(j, x): f.deriv(j, x) for j in range(13) for x in (0.0, 0.5, 5.0, 20.0)}
    assert all(np.isfinite(values[j, 0.0]) for j in range(13)), name


def test_builtin_refuses_non_finite_parameters():
    # f(0) is NaN for the first three; the last two would give f == 0
    for name in ("scaled_sine:nan", "scaled_sine:inf", "bump:nan:1",
                 "scaled_sine:2:inf", "bump:1:inf"):
        with pytest.raises(ValueError, match=f"'{name}' must be finite"):
            builtin(name)


def test_scalar_and_array_evaluation_shapes():
    f = builtin("log1p")
    assert isinstance(f.deriv(0, 1.0), float)
    out = f.deriv(1, np.ones((2, 3)))
    assert out.shape == (2, 3)
    with pytest.raises(ValueError, match="order"):
        f.deriv(13, 1.0)
    with pytest.raises(ValueError, match="order"):
        f.deriv(-1, 1.0)


def _fd_check(f, order, grid, h=1e-5):
    # central difference of f^(order) against f^(order+1)
    fd = (f.deriv(order, grid + h) - f.deriv(order, grid - h)) / (2 * h)
    exact = f.deriv(order + 1, grid)
    scale = max(float(np.max(np.abs(exact))), 1.0)
    return float(np.max(np.abs(fd - exact))) / scale


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_derivative_chain_matches_finite_differences(name):
    f = builtin(name)
    grid = np.linspace(0.05, 6.0, 41)
    for order in range(0, 7):
        assert _fd_check(f, order, grid) < 1e-4, (name, order)


def test_square_constants_are_exact():
    f = builtin("square")
    assert f.derivative_bound(1, 3.0) == 6.0
    assert f.lipschitz_fprime(10.0) == 2.0
    # c04's three Lip(f') constants, and sups that sit at an endpoint
    assert builtin("log1p").lipschitz_fprime(4.0) == 1.0
    assert builtin("rational").lipschitz_fprime(4.0) == 2.0
    assert builtin("cube").derivative_bound(0, 2.0) == 8.0
    assert builtin("identity").derivative_bound(0, 0.0) == 0.0


def test_tau_f_known_values():
    assert tau_f(builtin("identity"), [2.0, 1.0, 0.5]) == 3.5
    assert tau_f(builtin("square"), [2.0, 1.0]) == 5.0
    assert abs(tau_f(builtin("log1p"), np.ones(3)) - 3 * np.log(2.0)) < 1e-15
    with pytest.raises(ValueError, match="nonnegative"):
        tau_f(builtin("identity"), [1.0, -0.1])
    with pytest.raises(ValueError, match="nonempty 1-d vector"):
        tau_f(builtin("identity"), [])
    with pytest.raises(ValueError, match="nonempty 2-d array"):
        tau_f_rows(builtin("identity"), [1.0])


def test_tau_f_raises_naming_f_where_it_overflows():
    # finite eigenvalues whose squares overflow; no RuntimeWarning escapes
    with pytest.raises(FloatingPointError, match="tau_f of square is not finite"):
        tau_f(builtin("square"), [1e200, 1.0])
    assert tau_f(builtin("square"), [1e150, 1.0]) == 1e150 * 1e150 + 1.0


def _linear_combination(a, f1, b, f2):
    """a f1 + b f2 as a test function of its own."""
    return SmoothFunction(f"{a}*{f1.name}+{b}*{f2.name}", min(f1.max_order, f2.max_order),
                          lambda j, x: a * f1.deriv(j, x) + b * f2.deriv(j, x))


@settings(max_examples=40, deadline=None)
@given(
    lam=hst.lists(hst.floats(0.0, 10.0), min_size=1, max_size=8),
    a=hst.floats(-3.0, 3.0),
    b=hst.floats(-3.0, 3.0),
)
def test_tau_f_is_linear_in_f(lam, a, b):
    lam = np.asarray(lam)
    f1, f2 = builtin("log1p"), builtin("square")
    lhs = tau_f(_linear_combination(a, f1, b, f2), lam)
    rhs = a * tau_f(f1, lam) + b * tau_f(f2, lam)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_tau_f_invariant_under_basis_rotation():
    model = CovarianceModel.from_values([3.0, 1.5, 0.5]).with_random_basis(3)
    lam = sym_eigvalues(model.matrix())
    f = builtin("log1p")
    assert abs(tau_f(f, lam) - tau_f(f, model.eigenvalues)) < 1e-10


def test_default_grid_starts_with_plain_sine():
    grid = default_grid(2, 1, seed=0)
    f = grid.members[0]
    x = np.linspace(0, 10, 101)
    assert np.allclose(f.deriv(0, x), np.sin(x))


def test_default_grid_distinct_deterministic_and_bounded():
    grid = default_grid(4, 8, seed=99)
    assert len(grid.members) == 8
    assert len(set(grid.names)) == 8
    again = default_grid(4, 8, seed=99)
    assert again.names == grid.names
    other = default_grid(4, 8, seed=100)
    assert other.names != grid.names
    # the construction already enforces the bound; spot-check directly
    x = np.linspace(0.0, 20.0, 2001)
    for f in grid.members:
        for j in range(1, 6):
            assert np.max(np.abs(f.deriv(j, x))) <= 1.0 + 1e-9


def test_default_grid_refuses_an_order_past_the_families_derivatives():
    # members need derivatives up to order + 1, and the families stop at 12
    assert default_grid(11, 3, seed=5).order == 11
    with pytest.raises(ValueError, match=r"m = 12 needs derivatives up to order 13.*<= 11"):
        default_grid(12, 3, seed=5)
    # and below 1 it names the run's m and grid_size, not a member's failure
    for order, count, message in ((0, 3, "m must be >= 1, got 0"),
                                  (-1, 3, "m must be >= 1, got -1"),
                                  (2, 0, "grid_size must be >= 1, got 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            default_grid(order, count, seed=5)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_grid_derivative_bound_is_the_max_over_2001_points(name):
    f = builtin(name)
    for order, upper in ((1, 5.0), (3, 20.0), (0, 0.0)):
        grid = np.linspace(0.0, upper, 2001)
        assert f.derivative_bound(order, upper) == np.max(np.abs(f.deriv(order, grid)))
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="upper must be finite and >= 0"):
            f.derivative_bound(1, bad)


def test_grid_rejects_overscaled_member():
    too_big = builtin("bump:2.0:0.2")  # unscaled, so |f'| reaches about 3
    with pytest.raises(ValueError, match="bump:2.0:0.2: .* > 1"):
        FunctionClassGrid(2, [builtin("scaled_sine:1.0"), too_big])


def test_grid_rejects_duplicate_names():
    with pytest.raises(ValueError, match="distinct"):
        FunctionClassGrid(2, [builtin("scaled_sine:1.0"), builtin("scaled_sine:1.0")])


def test_grid_rejects_a_bad_order_or_member_list():
    sine = builtin("scaled_sine:1.0")
    with pytest.raises(ValueError, match="order must be >= 1"):
        FunctionClassGrid(0, [sine])
    with pytest.raises(ValueError, match="members must be nonempty"):
        FunctionClassGrid(2, [])
    # order 2 bounds f', f'' and f''', so a member must have derivatives to 3
    short = SmoothFunction("short", 2, lambda j, x: np.sin(x) if j % 2 == 0 else np.cos(x))
    with pytest.raises(ValueError, match="short: needs derivatives up to 3, has 2"):
        FunctionClassGrid(2, [sine, short])


def test_grid_csv_roundtrip(tmp_path):
    grid = default_grid(3, 6, seed=17)
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert header == ["name", "parameters"]
    back = [builtin(f"{family}:{params}" if params else family) for family, params in rows]
    assert tuple(g.name for g in back) == grid.names
    x = np.linspace(0.0, 12.0, 50)
    for f, g in zip(grid.members, back):
        assert np.array_equal(f.deriv(0, x), g.deriv(0, x))
