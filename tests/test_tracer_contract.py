"""The benchmark tracer wraps reglab helpers by name; keep those names alive.

``bench/tracer.py`` skips a helper it cannot find (``hasattr``), so moving or
renaming one would silently drop its per-layer metrics.  This test loads the
tracer as it is and checks every named helper against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


_spec = importlib.util.spec_from_file_location("reglab_bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", sorted(tracer.HELPERS))
def test_every_traced_helper_exists(layer):
    module = importlib.import_module(f"reglab.{layer}")
    missing = [name for name in tracer.HELPERS[layer] if not hasattr(module, name)]
    assert not missing, f"reglab.{layer} lacks {missing}, which bench/tracer.py wraps"


def test_box_vi_solver_takes_the_box_fourth():
    # the tracer counts 3 ** args[3].n patterns per call of newton._solve_box_vi
    from reglab.newton import _solve_box_vi

    params = list(inspect.signature(_solve_box_vi).parameters.values())
    assert params[3].name == "box"
    assert params[3].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
