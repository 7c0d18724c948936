import numpy as np
import pytest

from reglab.expr import ExpressionError, compile_expression


def test_basic_arithmetic():
    f = compile_expression("2*x + 1")
    assert f(0.5) == 2.0
    assert f([0.5]) == 2.0


def test_functions_and_powers():
    f = compile_expression("abs(x)**2 + sqrt(abs(x))")
    assert f(-4.0) == pytest.approx(18.0)


def test_vectorized_evaluation():
    f = compile_expression("sin(x) + x**2")
    xs = np.linspace(-1, 1, 11)
    assert np.allclose(f(xs), np.sin(xs) + xs**2)
    # a (k, 1) batch of one-variable points gives k values, like (k,)
    assert np.allclose(f(xs.reshape(-1, 1)), np.sin(xs) + xs**2)
    assert compile_expression("x**2")(np.zeros((5, 1))).shape == (5,)


def test_piecewise_is_lazy_on_guarded_singularity():
    f = compile_expression("piecewise(x == 0, 0, x + x*abs(x)*abs(sin(1/x)))")
    assert f(0.0) == 0.0
    assert f(0.1) == pytest.approx(0.1 + 0.01 * abs(np.sin(10.0)))
    xs = np.array([0.0, 0.1, -0.2])
    out = f(xs)
    assert out[0] == 0.0 and np.isfinite(out).all()


def test_multivariate_names():
    f = compile_expression("x1 + 2*x2", n_vars=2)
    assert f([1.0, 2.0]) == 5.0
    batch = f(np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert np.allclose(batch, [5.0, 2.0])


@pytest.mark.parametrize(
    "bad",
    [
        "__import__('os')",
        "x.real",
        "exec('1')",
        "open('f')",
        "x if x > 0 else -x",
        "[1,2]",
        "y + 1",
    ],
)
def test_rejects_disallowed_syntax(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad)
