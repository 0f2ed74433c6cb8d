import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from spectrace.functions import TestFunction as SmoothFunction
from spectrace.functions import (
    FunctionClassGrid,
    _bump,
    _scaled_sine,
    builtin,
    default_grid,
    grid_to_csv,
    tau_f,
)
from spectrace.linalg import CovarianceModel, sym_eigvalues

ALL_BUILTINS = ["identity", "square", "cube", "log1p", "rational",
                "scaled_sine:1.5", "scaled_sine:0.5", "bump:2.0:0.5"]


def test_builtin_values_at_known_points():
    x = np.array([0.0, 1.0, 3.0])
    assert np.allclose(builtin("identity")(x), x)
    assert np.allclose(builtin("square")(x), [0.0, 1.0, 9.0])
    assert np.allclose(builtin("cube")(x), [0.0, 1.0, 27.0])
    assert np.allclose(builtin("log1p")(x), np.log1p(x))
    assert np.allclose(builtin("rational")(x), [0.0, 0.5, 0.75])
    f = builtin("scaled_sine:2.0")
    assert np.allclose(f(x), np.sin(2 * x) / 2)


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


def test_all_builtins_vanish_at_zero():
    for name in ALL_BUILTINS:
        assert abs(builtin(name)(0.0)) <= 1e-12, name


def test_unknown_function_and_bad_params_rejected():
    with pytest.raises(ValueError, match="unknown"):
        builtin("nope")
    with pytest.raises(ValueError, match="parameters"):
        builtin("scaled_sine:abc")
    with pytest.raises(ValueError):
        builtin("bump:2.0:0.0")  # zero width
    with pytest.raises(ValueError, match="'log1p' takes no parameters, got 1"):
        builtin("log1p:2")
    with pytest.raises(ValueError, match="'scaled_sine' takes at most 2 parameters, got 3"):
        builtin("scaled_sine:1:2:3")


def test_nonvanishing_function_rejected_at_construction():
    with pytest.raises(ValueError, match="vanish"):
        SmoothFunction("shifted", 1, lambda j, x: x + 1.0 if j == 0 else np.ones_like(x))
    # a NaN f(0), from a constructor or from non-finite parameters, fails too
    with pytest.raises(ValueError, match=r"f\(0\) = nan, must vanish"):
        SmoothFunction("odd", 1, lambda j, x: np.full_like(x, np.nan))
    for make, args in ((_scaled_sine, (np.nan,)), (_scaled_sine, (np.inf,)),
                       (_bump, (np.nan, 1.0))):
        with pytest.raises(ValueError, match=r"f\(0\) = nan, must vanish"):
            make(*args)


def test_builtin_refuses_non_finite_parameters():
    # f(0) is NaN for the first three; the last two would give f == 0
    for name in ("scaled_sine:nan", "scaled_sine:inf", "bump:nan:1",
                 "scaled_sine:2:inf", "bump:1:inf"):
        with pytest.raises(ValueError, match=f"'{name}' must be finite"):
            builtin(name)


def test_scalar_and_array_evaluation_shapes():
    f = builtin("log1p")
    assert isinstance(f(1.0), float)
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
    assert np.allclose(f(x), np.sin(x))


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
        assert np.array_equal(f(x), g(x))
