import json
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest

from reglab.certify import CertificateReport
from reglab.corpus import load_example
from reglab.covering import CoveringReport, PicardResult, SelectionTrace
from reglab.geometry import Ball, DimensionMismatch, GraphPoint, JsonReport, as_vector, jsonable, vec_dist, vec_norm
from reglab.moduli import (
    CoderivativeBound,
    LiminfSchedule,
    LinearModuli,
    ModulusEstimate,
    estimate_modulus,
    frechet_coderivative_bound,
    linear_moduli,
)
from reglab.newton import IterationTrace, NewtonAssumptionsReport, RateReport, run_newton
from reglab.rng import SplitMix64
from reglab.setmaps import INF, LinearOp


def test_as_vector_rejects_nan_and_empty():
    with pytest.raises(ValueError):
        as_vector([np.nan])
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1.0, np.inf])


def test_as_vector_returns_float64_vectors_as_they_are():
    v = np.array([0.5, -1.0, 2.0])
    assert as_vector(v) is v
    assert as_vector(v, 3) is v
    w = as_vector(np.float64(2.5))
    assert w.shape == (1,) and w[0] == 2.5
    assert as_vector(np.array(3.0)).shape == (1,) and as_vector(4.0).shape == (1,)


@pytest.mark.parametrize("x", [[1, 2], np.array([1, 2]), np.array([1.0, 2.0], dtype=np.float32), (1.0, 2.0)])
def test_as_vector_converts_to_a_float_copy(x):
    v = as_vector(x, 2)
    assert v.dtype == np.float64 and v.shape == (2,) and v is not x
    assert np.array_equal(v, [1.0, 2.0])
    if isinstance(x, np.ndarray):
        v[0] = 9.0
        assert x[0] == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("size", [1, 3])
def test_as_vector_rejects_non_finite_entries(bad, size):
    v = np.zeros(size)
    v[-1] = bad
    for x in (v, v.tolist()):
        with pytest.raises(ValueError, match="vector entries must be finite"):
            as_vector(x)
    if size == 1:
        with pytest.raises(ValueError, match="vector entries must be finite"):
            as_vector(bad)


@pytest.mark.parametrize("x", [1j, 0.5 + 0j, [1.0, 2j], np.array([1.0, 2.0]) + 0j, np.complex64(1.0)])
def test_as_vector_rejects_complex_values(x):
    # converting would drop the imaginary part with only a warning
    with pytest.raises(ValueError, match="vector entries must be real"):
        as_vector(x)


@pytest.mark.parametrize("x", [np.zeros((2, 2)), [[1.0, 2.0]], np.zeros((1, 1)), [], np.zeros(0)])
def test_as_vector_rejects_other_shapes(x):
    with pytest.raises(DimensionMismatch, match="expected a 1D vector"):
        as_vector(x)


def test_as_vector_checks_the_dimension():
    with pytest.raises(DimensionMismatch, match="expected dimension 3, got 2"):
        as_vector(np.array([1.0, 2.0]), 3)
    with pytest.raises(DimensionMismatch, match="expected dimension 2, got 1"):
        as_vector(1.0, 2)


def test_norms():
    v = np.array([3.0, -4.0])
    assert vec_norm(v) == 5.0
    assert vec_norm(v, "max") == 4.0
    assert vec_dist([1, 1], [0, 0], "max") == 1.0


@pytest.mark.parametrize("norm", ["euclidean", "max"])
def test_triangle_inequality_seeded_triples(norm):
    rng = SplitMix64(42)
    for _ in range(1000):
        a, b, c = (rng.uniform_vector(3, -5, 5) for _ in range(3))
        assert vec_dist(a, c, norm) <= vec_dist(a, b, norm) + vec_dist(b, c, norm) + 1e-12


def test_ball_membership():
    ball = Ball([0.0, 0.0], 1.0)
    assert isinstance(ball.center, np.ndarray) and ball.center.tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        Ball([0.0], -1.0)


# ---------------------------------------------------------------------------
# JSON encoding


@dataclass
class _Inner:
    v: np.ndarray
    pair: tuple


@dataclass
class _Outer:
    inner: _Inner
    items: list
    count: np.int64
    table: dict
    flag: bool
    label: str | None


def test_jsonable_encodes_nested_dataclasses_arrays_and_non_finite_values():
    obj = _Outer(
        inner=_Inner(np.array([1.0, np.inf]), (np.float64("inf"), -np.inf)),
        items=[np.nan, 2.5, np.arange(2)],
        count=np.int64(3),
        table={1: np.float64(0.5)},
        flag=True,
        label=None,
    )
    encoded = jsonable(obj)
    assert encoded == {
        "inner": {"v": [1.0, "inf"], "pair": ["inf", "-inf"]},
        "items": ["nan", 2.5, [0.0, 1.0]],
        "count": 3.0,
        "table": {"1": 0.5},
        "flag": True,
        "label": None,
    }
    assert json.loads(json.dumps(encoded, allow_nan=False)) == encoded
    assert jsonable(encoded) == encoded


def _recursive_jsonable(obj):
    """The one-call-per-scalar encoder without fast paths: the reference."""
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        return obj if math.isfinite(obj) else str(obj)
    if obj is None or isinstance(obj, (str, int)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _recursive_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_recursive_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _recursive_jsonable((obj.astype(float) if obj.dtype.kind in "iu" else obj).tolist())
    if isinstance(obj, np.integer):
        return float(obj)
    return obj


@pytest.mark.parametrize("value", [
    np.array([0.1, -2.5, 1e300, -0.0]),
    np.arange(6.0).reshape(2, 3) / 7.0,
    np.arange(-3, 3),
    np.array([[1, 2], [3, 4]], dtype=np.uint8),
    np.array([1.0, np.inf, -np.inf, np.nan]),
    np.array([[0.5, np.nan], [-np.inf, 2.0]]),
    np.array([0.1, 1e-45], dtype=np.float32),
    np.array([np.inf], dtype=np.float32),
    np.float64(2.0) * np.ones(()),
    np.array([1.0, 2.0], dtype=np.longdouble),
    np.array([True, False]),
    np.empty((0, 2)),
    [0.25, -0.0, 3.0],
    [0.25, np.float64(0.5)],
    [0.25, np.inf],
    [],
], ids=lambda v: f"{type(v).__name__}-{getattr(v, 'dtype', '')}-{np.shape(v)}")
def test_jsonable_fast_paths_match_the_recursive_encoder(value):
    fast, slow = jsonable(value), _recursive_jsonable(value)
    assert json.dumps(fast, allow_nan=False) == json.dumps(slow, allow_nan=False)
    assert repr(fast) == repr(slow)


def _certificate_report():
    witness = {"x": np.array([0.0]), "ratio": INF}
    return CertificateReport("descent:semireg_set:sufficient", {"c": 0.9, "r": 0.5}, 12,
                             conclusion={"passed": True, "witness": witness}).finalize()


def _boxvi_trace():
    # x0 outside the box: the residual of record 0 is +inf
    entry = load_example("smooth2d_boxvi")
    return run_newton(entry.objects["problem"], entry.objects["H"], x0=[1.5, 0.7])


#: one real instance of every JsonReport subclass, each holding an infinite value
REPORTS = {
    ModulusEstimate: lambda: estimate_modulus(
        "reg", LinearOp([[0.0]]), GraphPoint([0.0], [0.0]), LiminfSchedule(shells=3, samples_per_shell=8)),
    LinearModuli: lambda: linear_moduli([[1.0, 0.0]]),
    CoderivativeBound: lambda: frechet_coderivative_bound(
        load_example("two_branch").objects["setmap_polyhedral"], GraphPoint([0.0], [0.0]), sphere_samples=8),
    CertificateReport: _certificate_report,
    PicardResult: lambda: PicardResult(None, False, "failed", 200, INF),
    CoveringReport: lambda: CoveringReport("covering_kaluza", {"c": 0.5, "calm_diff": INF}, [0.1]),
    SelectionTrace: lambda: SelectionTrace([{"x": [0.0], "ratio": INF}], INF, 0.1, 1.0, 1.0, 0, False, 42),
    IterationTrace: _boxvi_trace,
    RateReport: lambda: RateReport(INF, [INF, 0.5], [], False, True),
    NewtonAssumptionsReport: lambda: NewtonAssumptionsReport(0.0, 0.0, 1e-6, 0.3, 0.0, [INF], True, -INF, False),
}


def test_every_json_report_has_a_case():
    assert set(REPORTS) == set(JsonReport.__subclasses__())


@pytest.mark.parametrize("cls", list(REPORTS), ids=lambda c: c.__name__)
def test_json_report_is_strict_json_of_its_fields(cls):
    report = REPORTS[cls]()
    assert type(report) is cls
    text = json.dumps(report.to_json_dict(), allow_nan=False, sort_keys=True)
    assert '"inf"' in text
    assert set(json.loads(text)) == {f.name for f in fields(cls)}
