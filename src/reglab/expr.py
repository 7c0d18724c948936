"""Safe scalar expression grammar for JSON-described maps.

Supported: + - * / ** , comparisons, abs, sin, cos, sqrt, min, max,
piecewise, numeric literals, and the variables ``x`` (1D) or ``x1..xn``.
abs/sin/cos/sqrt take one argument and min/max at least one.  ``piecewise``
takes alternating (condition, value) pairs followed by a default value (an
odd count of at least 3) and evaluates lazily, so guarded sub-expressions
such as ``sin(1/x)`` are never touched when their guard is false.

An expression is checked against the whitelist below, then compiled once into
nested closures with each operator chosen at compile time.  Compiled
callables accept scalars or numpy arrays for each variable.
"""

from __future__ import annotations

import ast
import operator

import numpy as np


class ExpressionError(ValueError):
    pass


_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}
_COMPARE = {ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt, ast.LtE: operator.le,
            ast.Gt: operator.gt, ast.GtE: operator.ge}
_UFUNCS = {"abs": np.abs, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt}
_REDUCE = {"min": np.minimum, "max": np.maximum}

_ALLOWED_CALLS = {*_UFUNCS, *_REDUCE, "piecewise"}
_ALLOWED_NODES = (ast.Expression, ast.UnaryOp, ast.BinOp, ast.Compare, ast.Call, ast.Constant, ast.Name, ast.Load,
                  *_UNARY, *_BINARY, *_COMPARE)


def _validate(tree: ast.AST, var_names: set[str]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ExpressionError(f"disallowed syntax: {type(node).__name__}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ExpressionError("only abs/sin/cos/sqrt/min/max/piecewise calls are allowed")
            if node.keywords:
                raise ExpressionError("keyword arguments are not allowed")
            name, count = node.func.id, len(node.args)
            if not (count == 1 if name in _UFUNCS else count >= 1 if name in _REDUCE else count >= 3 and count % 2):
                raise ExpressionError(f"{name} cannot take {count} arguments: abs/sin/cos/sqrt take 1, "
                                      "min/max at least 1, piecewise an odd count of at least 3")
        if isinstance(node, ast.Name) and node.id not in var_names and node.id not in _ALLOWED_CALLS:
            raise ExpressionError(f"unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ExpressionError("only numeric literals are allowed")


def _compile(node: ast.AST):
    """A closure env -> value for a validated expression node."""
    if isinstance(node, ast.Constant):
        value = node.value
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id
        return lambda env: env[name]
    if isinstance(node, ast.UnaryOp):
        op, operand = _UNARY[type(node.op)], _compile(node.operand)
        return lambda env: op(operand(env))
    if isinstance(node, ast.BinOp):
        op, left, right = _BINARY[type(node.op)], _compile(node.left), _compile(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.Compare):
        return _compile_compare(_compile(node.left), [(_COMPARE[type(op)], _compile(c))
                                                      for op, c in zip(node.ops, node.comparators)])
    name, args = node.func.id, [_compile(a) for a in node.args]  # type: ignore[attr-defined]
    if name in _UFUNCS:
        ufunc, (arg,) = _UFUNCS[name], args
        return lambda env: ufunc(arg(env))
    if name in _REDUCE:
        reduce = _REDUCE[name].reduce
        return args[0] if len(args) == 1 else lambda env: reduce(np.broadcast_arrays(*[a(env) for a in args]))
    return _compile_piecewise(list(zip(args[:-1:2], args[1::2])), args[-1])


def _compile_compare(first, rest):
    def compare(env):
        left, result = first(env), None
        for op, comparator in rest:
            right = comparator(env)
            part = op(left, right)
            result = part if result is None else result & part
            left = right
        return result

    return compare


def _compile_piecewise(pairs, default):
    def piecewise(env):
        if all(np.isscalar(v) or np.asarray(v).ndim == 0 for v in env.values()):
            for cond, value in pairs:
                if bool(cond(env)):
                    return value(env)
            return default(env)
        # array case: evaluate each branch only where its guard holds
        shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
        out = np.empty(shape, dtype=float)
        remaining = np.ones(shape, dtype=bool)

        def fill(where, value):
            sub = {k: (np.broadcast_to(v, shape)[where] if np.ndim(v) else v) for k, v in env.items()}
            out[where] = value(sub)

        with np.errstate(all="ignore"):
            for cond, value in pairs:
                guard = np.broadcast_to(np.asarray(cond(env), dtype=bool), shape)
                take = remaining & guard
                if np.any(take):
                    fill(take, value)
                remaining &= ~guard
            if np.any(remaining):
                fill(remaining, default)
        return out

    return piecewise


def compile_expression(text: str, n_vars: int = 1):
    """Compile ``text`` into a vectorized callable of an n_vars-dim point.

    The callable accepts a scalar / length-n vector, or an (k, n) array of
    points, returning a scalar or a length-k array.  Its ``constant``
    attribute is true when the expression names no variable.
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
    evaluate = _compile(tree.body)

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
            return evaluate(env)

    fn.expression = text  # type: ignore[attr-defined]
    # names no variable: the same value at every point (a bare literal on a batch too)
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    fn.constant = not names & var_names  # type: ignore[attr-defined]
    return fn
