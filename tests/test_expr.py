import ast
import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reglab import expr
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
        "sin()",
        "abs(x, 1)",
        "piecewise(x > 0, 1)",
        "min()",
    ],
)
def test_rejects_disallowed_syntax(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad)


# ---------------------------------------------------------------------------
# the compiled closures against the per-call AST interpreter they replaced


def _eval(node: ast.AST, env: dict) -> object:
    if isinstance(node, ast.Expression):
        return _eval(node.body, env)
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp):
        v = _eval(node.operand, env)
        return -v if isinstance(node.op, ast.USub) else +v
    if isinstance(node, ast.BinOp):
        a, b = _eval(node.left, env), _eval(node.right, env)
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.Div):
            return a / b
        if isinstance(node.op, ast.Pow):
            return a**b
        raise ExpressionError("unsupported operator")
    if isinstance(node, ast.Compare):
        left = _eval(node.left, env)
        result = None
        for op, comp in zip(node.ops, node.comparators):
            right = _eval(comp, env)
            if isinstance(op, ast.Eq):
                part = left == right
            elif isinstance(op, ast.NotEq):
                part = left != right
            elif isinstance(op, ast.Lt):
                part = left < right
            elif isinstance(op, ast.LtE):
                part = left <= right
            elif isinstance(op, ast.Gt):
                part = left > right
            else:
                part = left >= right
            result = part if result is None else result & part
            left = right
        return result
    if isinstance(node, ast.Call):
        name = node.func.id  # type: ignore[union-attr]
        if name == "piecewise":
            return _eval_piecewise(node.args, env)
        args = [_eval(a, env) for a in node.args]
        if name == "abs":
            return np.abs(args[0])
        if name == "sin":
            return np.sin(args[0])
        if name == "cos":
            return np.cos(args[0])
        if name == "sqrt":
            return np.sqrt(args[0])
        if name == "min":
            return np.minimum.reduce(np.broadcast_arrays(*args)) if len(args) > 1 else args[0]
        if name == "max":
            return np.maximum.reduce(np.broadcast_arrays(*args)) if len(args) > 1 else args[0]
    raise ExpressionError(f"cannot evaluate node {type(node).__name__}")


def _eval_piecewise(args: list[ast.AST], env: dict) -> object:
    if len(args) < 3 or len(args) % 2 == 0:
        raise ExpressionError("piecewise needs (cond, value)... pairs plus a default")
    scalar = all(np.isscalar(v) or np.asarray(v).ndim == 0 for v in env.values())
    if scalar:
        for i in range(0, len(args) - 1, 2):
            if bool(_eval(args[i], env)):
                return _eval(args[i + 1], env)
        return _eval(args[-1], env)
    # array case: evaluate each branch only where its guard holds
    shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    out = np.empty(shape, dtype=float)
    remaining = np.ones(shape, dtype=bool)
    with np.errstate(all="ignore"):
        for i in range(0, len(args) - 1, 2):
            cond = np.broadcast_to(np.asarray(_eval(args[i], env), dtype=bool), shape)
            take = remaining & cond
            if np.any(take):
                sub = {k: (np.broadcast_to(v, shape)[take] if np.ndim(v) else v) for k, v in env.items()}
                out[take] = _eval(args[i + 1], sub)
            remaining &= ~cond
        if np.any(remaining):
            sub = {k: (np.broadcast_to(v, shape)[remaining] if np.ndim(v) else v) for k, v in env.items()}
            out[remaining] = _eval(args[-1], sub)
    return out


def _reference(text: str, n_vars: int):
    """The interpreter's callable: the same input handling around ``_eval``."""
    tree = ast.parse(text, mode="eval")

    def fn(point):
        arr = np.asarray(point, dtype=float)
        if n_vars == 1:
            coords = arr.reshape(arr.shape[:1]) if arr.ndim else arr
            coords = coords[0] if coords.shape == (1,) else coords
            env = {"x": coords, "x1": coords}
        else:
            if arr.ndim == 1:
                env = {f"x{i + 1}": arr[i] for i in range(n_vars)}
            else:
                env = {f"x{i + 1}": arr[:, i] for i in range(n_vars)}
        with np.errstate(all="ignore"):
            return _eval(tree, env)

    return fn


_BATCH = np.array([0.0, -0.0, 1.5, -2.0, 1e-3, np.nan, 7.0])
_INPUTS = {
    1: [0.0, -1.5, 0.25, np.array([0.0]), np.array([-2.0]), _BATCH, _BATCH.reshape(-1, 1)],
    2: [np.array([0.0, 0.0]), np.array([0.5, -2.0]), np.stack([_BATCH, _BATCH[::-1]], axis=1)],
}


def _outcome(fn, point):
    """type, dtype, shape and bytes of the value, or the exception type."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. a complex value cast into a float array
            value = fn(point)
    except Exception as exc:
        return type(exc)
    arr = np.asarray(value)
    return type(value), arr.dtype, arr.shape, repr(value) if arr.dtype == object else arr.tobytes()


def _assert_same_as_interpreter(text: str, n_vars: int):
    new, old = compile_expression(text, n_vars), _reference(text, n_vars)
    for point in _INPUTS[n_vars]:
        assert _outcome(new, point) == _outcome(old, point), (text, point)


def _grammar(names: list[str]):
    """Expression texts over the whole grammar; exponents are leaves, so no integer power towers."""
    consts = st.sampled_from(["0", "1", "2", "3", "0.5", "2.5", "-0.0", "1e-3", "1e300"])
    leaves = st.one_of(st.sampled_from(names), consts)
    exponents = st.sampled_from(names + ["0.5", "2.0", "3.0", "-1", "-0.5"])
    cmps = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])

    def chain(terms, ops):
        return " ".join(f"({t}) {op}" for t, op in zip(terms, ops)) + f" ({terms[-1]})"

    def extend(sub):
        compare = st.lists(sub, min_size=2, max_size=4).flatmap(
            lambda ts: st.lists(cmps, min_size=len(ts) - 1, max_size=len(ts) - 1).map(lambda ops: chain(ts, ops)))
        pieces = st.lists(st.tuples(st.one_of(compare, sub), sub), min_size=1, max_size=2)
        return st.one_of(
            st.tuples(st.sampled_from("-+"), sub).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
            st.tuples(sub, exponents).map(lambda t: f"({t[0]}) ** ({t[1]})"),
            compare,
            st.tuples(st.sampled_from(["abs", "sin", "cos", "sqrt"]), sub).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["min", "max"]), st.lists(sub, min_size=1, max_size=3)).map(
                lambda t: f"{t[0]}({', '.join(t[1])})"),
            st.tuples(pieces, sub).map(
                lambda t: "piecewise(" + ", ".join(f"{c}, {v}" for c, v in t[0]) + f", {t[1]})"),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_grammar(["x", "x1"]))
def test_compiled_matches_interpreter_one_variable(text):
    _assert_same_as_interpreter(text, 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_grammar(["x1", "x2"]))
def test_compiled_matches_interpreter_two_variables(text):
    _assert_same_as_interpreter(text, 2)


def _bench_expressions():
    spec = importlib.util.spec_from_file_location(
        "reglab_bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    found = []

    def walk(desc):
        n = int(desc.get("n", 1))
        for key in ("expr", "branches"):
            texts = desc.get(key, [])
            found.extend((t, n) for t in ([texts] if isinstance(texts, str) else texts))
        for key in ("f", "g", "base"):
            if key in desc:
                walk(desc[key])

    for desc, _, _ in workloads.MAPS.values():
        walk(desc)
    return found


# a constant gives its bare literal on a batch too: an array there would let a
# constant branch pass the batch shape check of the 1D preimage paths
_FIXED = [("0", 1), ("-0.0", 1), ("1/3", 1), ("0", 2), ("piecewise(x > 100, 1/0, x)", 1)]


@pytest.mark.parametrize("text, n_vars", _bench_expressions() + _FIXED)
def test_compiled_matches_interpreter_on_bench_maps_and_constants(text, n_vars):
    _assert_same_as_interpreter(text, n_vars)


def test_whitelist_is_derived_from_the_operator_tables():
    assert set(expr._ALLOWED_NODES) == {
        ast.Expression, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub, ast.UAdd,
        ast.Constant, ast.Name, ast.Call, ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
        ast.Load,
    }
    assert expr._ALLOWED_CALLS == {"abs", "sin", "cos", "sqrt", "min", "max", "piecewise"}
