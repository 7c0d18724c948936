"""One policy for the values of a user callable, through every public oracle.

Each bad-value case is a callable that serves as the branch of a
``SingleValued`` or ``FiniteValued`` map (beside the branch x -> x) or as the
f of an ``Epigraph``.  Every oracle answers it the way ``POLICY`` says, and
every batched oracle answers as its per-point counterpart does: the same
bits, or the same error.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import reglab
from reglab import intervals
from reglab.expr import compile_expression
from reglab.geometry import GraphPoint
from reglab.moduli import largest_covered_c, largest_covered_c_many
from reglab.setmaps import (
    Epigraph,
    FiniteValued,
    SingleValued,
    dist_to_value_set,
    dist_to_value_set_batch,
    graph_sample,
    preimage_search,
    preimage_search_many,
)


def _raises(x):
    raise RuntimeError("boom")


CASES = {
    "raises": _raises,
    # raises on an array of more than one point
    "scalar_only": lambda x: np.asarray(x).item() ** 2 + 0.1,
    # two values per point
    "wrong_shape": lambda x: np.stack([np.asarray(x, dtype=float)] * 2),
    "complex": lambda x: x + 0.5j * x,
    "nan": lambda x: np.where(np.asarray(x) < 0, np.nan, x),
    "inf": lambda x: np.where(np.asarray(x) < 0, np.inf, x),
    # a bare literal on a batch, marked constant
    "constant": compile_expression("0"),
    # a bare scalar on a batch, not marked
    "bare_scalar": lambda x: 0.25,
}

KINDS = {
    "single": SingleValued,
    "finite": lambda f: FiniteValued([f, lambda x: np.asarray(x, dtype=float)]),
    "epigraph": Epigraph,
}

_X = np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
#: one target per row of _X
_Y = np.linspace(0.1, -0.3, 5).reshape(-1, 1)
_QUERIES = ([[0.0], [0.5]], [[0.0], [0.25]], [0.5, 0.5])

ORACLES = {
    "dist": lambda F: [dist_to_value_set([0.1], F, x) for x in _X],
    "dist_batch": lambda F: dist_to_value_set_batch([0.1], F, _X),
    "grid_batch": lambda F: dist_to_value_set_batch([0.1], F, _X, finite=False),
    "dist_rows": lambda F: [dist_to_value_set(y, F, x) for y, x in zip(_Y, _X)],
    "dist_rows_batch": lambda F: dist_to_value_set_batch(_Y, F, _X),
    "search": lambda F: [preimage_search([0.0], F, y) for y in ([0.3], [0.1])],
    "search_many": lambda F: preimage_search_many([0.0], F, [[0.3], [0.1]]),
    "cover": lambda F: [largest_covered_c(F, x, y, t) for x, y, t in zip(*_QUERIES)],
    "cover_many": lambda F: largest_covered_c_many(F, *_QUERIES),
    "sample": lambda F: graph_sample(F, GraphPoint([0.0], [0.0]), 0.5, 4),
    # the interval infimum behind an epigraph's covering rate
    "inf_on_interval": lambda F: intervals._inf_on_interval(F.f, -1.0, 1.0),
}

#: batched oracle -> its per-point counterpart
PAIRS = {"dist_batch": "dist", "dist_rows_batch": "dist_rows", "search_many": "search", "cover_many": "cover"}

#: case -> outcome on every oracle, or per oracle where they differ: the
#: error (its type, and for ValueError a word of its message), or "answered".
#: A non-finite value fails a single value set of a single- or finite-valued
#: map and a finite batch of its distances; an epigraph keeps it as its
#: lower bound.  A search grid counts it as infeasible, a covering ball and a
#: graph sample take it as it is.
_NON_FINITE = {"dist": "finite", "dist_batch": "finite", "dist_rows": "finite", "dist_rows_batch": "finite"}
POLICY = {
    "raises": "RuntimeError",
    "scalar_only": "answered",
    "wrong_shape": "DimensionMismatch",
    "complex": "real",
    "nan": _NON_FINITE,
    "inf": _NON_FINITE,
    "constant": "answered",
    "bare_scalar": "answered",
}

#: (case, kind, oracle) -> the answer itself, where it says what the policy is
PINNED = {
    # a constant is tiled: the distance from 0.1 to {0} at every point
    ("constant", "single", "dist_batch"): [0.1] * 5,
    ("constant", "epigraph", "dist_batch"): [0.0] * 5,
    # the 1D branch path rejects a constant branch, so the grid search answers
    ("constant", "single", "search"): [(np.inf, None)] * 2,
    # {x : 0 <= y} is the whole line for y = 0.3 and y = 0.1
    ("constant", "epigraph", "search"): [(0.0, [0.0])] * 2,
    # {x : 0.25 <= y} is the whole line for y = 0.3 and empty for y = 0.1
    ("bare_scalar", "epigraph", "search"): [(0.0, [0.0]), (np.inf, None)],
    # the rows of a grid batch at x < 0 keep their non-finite distances
    ("nan", "single", "grid_batch"): [np.nan, np.nan, 0.1, 0.4, 0.9],
    ("inf", "single", "grid_batch"): [np.inf, np.inf, 0.1, 0.4, 0.9],
    ("nan", "epigraph", "dist"): [np.nan, np.nan, 0.0, 0.4, 0.9],
}


def _flat(out):
    if out is None:
        return [None]
    if isinstance(out, GraphPoint):
        return _flat(out.x) + _flat(out.y)
    if isinstance(out, (list, tuple, np.ndarray)):
        return [v for item in out for v in _flat(item)]
    return [float(out).hex()]


def _run(oracle, F):
    with np.errstate(all="ignore"):
        try:
            return "answered", _flat(ORACLES[oracle](F))
        except Exception as exc:
            return type(exc).__name__, str(exc)


def _matches(want, got):
    kind, detail = got
    if want in ("finite", "real"):
        return kind == "ValueError" and want in detail
    return kind == want


@pytest.mark.parametrize("case, kind", [(c, k) for c in sorted(CASES) for k in sorted(KINDS)])
def test_bad_values_follow_one_policy(case, kind):
    F = KINDS[kind](CASES[case])
    oracles = [o for o in ORACLES if o != "inf_on_interval" or kind == "epigraph"]
    got = {o: _run(o, F) for o in oracles}
    policy = POLICY[case]
    for o in oracles:
        want = policy if isinstance(policy, str) else policy.get(o, "answered")
        if kind == "epigraph" and case in ("nan", "inf"):
            want = "answered"
        assert _matches(want, got[o]), (o, got[o])
    for batched, lone in PAIRS.items():
        assert got[batched] == got[lone], batched
    for (c, k, o), want in PINNED.items():
        if (c, k) == (case, kind):
            assert got[o] == ("answered", _flat(want)), o


#: the functions of ``src/reglab`` that may catch every error: the one call on
#: a batch and the adapter that falls back from it point by point
_CATCH_ALL = {"setmaps._eval_vectorized", "setmaps._eval_rows"}


class _CatchAll(ast.NodeVisitor):
    def __init__(self, module):
        self.module, self.stack, self.found = module, [], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def visit_ExceptHandler(self, node):
        if node.type is None or (isinstance(node.type, ast.Name) and node.type.id in ("Exception", "BaseException")):
            self.found.append(f"{self.module}.{self.stack[-1] if self.stack else '<module>'}")
        self.generic_visit(node)


def test_only_the_adapter_catches_every_error():
    found = []
    for path in sorted(Path(reglab.__file__).parent.glob("*.py")):
        visitor = _CatchAll(path.stem)
        visitor.visit(ast.parse(path.read_text()))
        found += visitor.found
    assert set(found) <= _CATCH_ALL, sorted(set(found) - _CATCH_ALL)
