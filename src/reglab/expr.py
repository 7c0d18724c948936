"""Safe scalar expression grammar for JSON-described maps.

Supported: + - * / ** , abs, sin, cos, sqrt, min, max, piecewise, numeric
literals, and the variables ``x`` (1D) or ``x1..xn``.  ``piecewise`` takes
alternating (condition, value) pairs followed by a default value and
evaluates lazily, so guarded sub-expressions such as ``sin(1/x)`` are never
touched when their guard is false.

Compiled callables accept scalars or numpy arrays for each variable.
"""

from __future__ import annotations

import ast

import numpy as np


class ExpressionError(ValueError):
    pass


_ALLOWED_CALLS = {"abs", "sin", "cos", "sqrt", "min", "max", "piecewise"}

_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Div,
    ast.Pow,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Call,
    ast.Compare,
    ast.Eq,
    ast.NotEq,
    ast.Lt,
    ast.LtE,
    ast.Gt,
    ast.GtE,
    ast.Load,
)


def _validate(tree: ast.AST, var_names: set[str]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(f"disallowed syntax: {type(node).__name__}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ExpressionError("only abs/sin/cos/sqrt/min/max/piecewise calls are allowed")
            if node.keywords:
                raise ExpressionError("keyword arguments are not allowed")
        if isinstance(node, ast.Name) and node.id not in var_names and node.id not in _ALLOWED_CALLS:
            raise ExpressionError(f"unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError("only numeric literals are allowed")


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


def compile_expression(text: str, n_vars: int = 1):
    """Compile ``text`` into a vectorized callable of an n_vars-dim point.

    The callable accepts a scalar / length-n vector, or an (k, n) array of
    points, returning a scalar or a length-k array.
    """
    if n_vars == 1:
        var_names = {"x", "x1"}
    else:
        var_names = {f"x{i + 1}" for i in range(n_vars)}
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc}") from exc
    _validate(tree, var_names)

    def fn(point):
        arr = np.asarray(point, dtype=float)
        if n_vars == 1:
            # 0-d and (1,) give a scalar; (k,) and (k, 1) batches a length-k array
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

    fn.expression = text  # type: ignore[attr-defined]
    return fn
