import json

import numpy as np
import pytest

from reglab.cli import ConfigError, main, validate_config
from reglab.corpus import UnknownExample, corpus_names, load_example


def run_cli(args):
    return main(args)


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_print_defaults(capsys):
    assert run_cli(["--print-defaults"]) == 0
    out = capsys.readouterr().out
    cfg = json.loads(out)
    assert cfg["command"] == "suite" and cfg["seed"] == 42


def test_config_validation_rejects_unknowns():
    with pytest.raises(ConfigError):
        validate_config({"command": "moduli", "example": "two_branch", "bogus": 1})
    with pytest.raises(ConfigError):
        validate_config({"command": "nope"})
    with pytest.raises(ConfigError):
        validate_config({"command": "moduli", "norm": "taxicab"})
    with pytest.raises(ConfigError):
        validate_config({"command": "moduli", "kinds": ["sur", "glop"]})


def test_exit_codes(tmp_path):
    bad = write_cfg(tmp_path, {"command": "solve", "example": "nope", "out": str(tmp_path / "r")})
    assert run_cli(["--config", bad, "--quiet"]) == 2
    missing = str(tmp_path / "absent.json")
    assert run_cli(["--config", missing]) == 2


def test_moduli_reports_and_determinism(tmp_path):
    cfg = {
        "command": "moduli",
        "example": "two_branch",
        "kinds": ["lopen", "semireg"],
        "schedule": {"r0": 0.1, "rho": 0.5, "shells": 4, "samples_per_shell": 16},
        "seed": 42,
    }
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet", "--out", str(out_a)]) == 0
    assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet", "--out", str(out_b)]) == 0
    for name in ("moduli_lopen", "moduli_semireg", "product_lopen_semireg"):
        ja = [l for l in (out_a / f"{name}.json").read_text().splitlines() if "runtime_ms" not in l]
        jb = [l for l in (out_b / f"{name}.json").read_text().splitlines() if "runtime_ms" not in l]
        assert ja == jb
    report = json.loads((out_a / "moduli_lopen.json").read_text())
    assert report["schema_version"] == 1
    assert report["verdict"] == "pass"
    assert 0.9 <= report["estimate"]["value"] <= 1.1
    assert (out_a / "summary.csv").read_text().startswith("name,check,verdict,runtime_ms")


def test_inline_moduli_with_a_search_region_past_the_domain(tmp_path):
    # shells around x = 0.5 search regions of radius up to 0.8, past the edge
    # of sqrt's domain: grid points there are infeasible, and the estimates
    # (float.hex) are the ones the grid search gave before batches failed
    # where the rows fail
    cfg = {"command": "moduli", "mapping": {"kind": "single", "expr": "sqrt(x)"},
           "point": {"x": [0.5], "y": [0.5 ** 0.5]}, "out": str(tmp_path / "r")}
    with np.errstate(all="ignore"):
        assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet"]) == 0
    want = {
        "lopen": ("0x1.69d6ba715dd72p-1", "0x1.693d8d33f7fdap-1"),
        "sur": ("0x1.69b58bf3f8300p-1", "0x1.68b9f1f2e7740p-1"),
        "semireg": ("0x1.6a3d199b26f6ap+0", "0x1.6ad6b334c0825p+0"),
    }
    for kind, (value, other_end) in want.items():
        estimate = json.loads((tmp_path / "r" / f"moduli_{kind}.json").read_text())["estimate"]
        assert estimate["value"].hex() == value
        assert sorted(b.hex() for b in estimate["bracket"]) == sorted([value, other_end])


def test_solve_trace_csv(tmp_path):
    cfg = {"command": "solve", "example": "abs_newton", "out": str(tmp_path / "r")}
    assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet"]) == 0
    lines = (tmp_path / "r" / "solve_abs_newton.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + x0 + one step
    report = json.loads((tmp_path / "r" / "solve_abs_newton.json").read_text())
    assert report["verdict"] == "pass"
    assert len(report["trace"]["records"]) == 2


def test_certify_command(tmp_path):
    cfg = {"command": "certify", "example": "sum_remark", "check": "sum_semiregularity", "out": str(tmp_path / "r")}
    assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "r" / "certify_sum_semiregularity.json").read_text())
    assert report["verdict"] == "pass"
    assert report["values"]["sur_sum"] <= 0.1


def test_cover_command(tmp_path):
    cfg = {
        "command": "cover",
        "example": "linear_random",
        "check": "kaluza",
        "constants": {"samples": 24},
        "out": str(tmp_path / "r"),
    }
    assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "r" / "cover_kaluza.json").read_text())
    assert report["verdict"] == "pass"


def test_failed_check_exits_one(tmp_path):
    # a covering rate beyond the guaranteed margin is rejected -> exit 1
    cfg = {
        "command": "cover",
        "example": "linear_random",
        "check": "kaluza",
        "constants": {"c": 100.0, "samples": 4},
        "out": str(tmp_path / "r"),
    }
    assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet"]) == 1


def test_suite_moduli(tmp_path):
    cfg = {
        "command": "suite",
        "suite": "moduli",
        "example": "two_branch",
        "kinds": ["lopen", "semireg"],
        "schedule": {"r0": 0.1, "rho": 0.5, "shells": 4, "samples_per_shell": 16},
        "out": str(tmp_path / "r"),
    }
    assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet"]) == 0
    names = {p.name for p in (tmp_path / "r").glob("*.json")}
    assert {"moduli_lopen.json", "moduli_semireg.json", "product_lopen_semireg.json"} <= names


# ---------------------------------------------------------------------------
# corpus entries


def test_corpus_names_and_unknown():
    assert corpus_names() == sorted(
        ["two_branch", "sinkink", "staircase", "sum_remark", "abs_newton", "smooth2d_boxvi", "linear_random"]
    )
    with pytest.raises(UnknownExample):
        load_example("not_a_thing")


def test_corpus_reference_values_within_documented_tolerances():
    from reglab.moduli import estimate_modulus

    entry = load_example("two_branch")
    ref = entry.references
    lopen = estimate_modulus("lopen", entry.objects["setmap"], entry.objects["point"]).value
    assert abs(lopen - ref["lopen"]["value"]) <= ref["lopen"]["tol"]
    sur = estimate_modulus("sur", entry.objects["setmap"], entry.objects["point"]).value
    assert abs(sur - ref["sur"]["value"]) <= ref["sur"]["tol"]


def test_certify_descent_named_oracle(tmp_path):
    cfg = {
        "command": "certify",
        "example": "two_branch",
        "check": "descent",
        "constants": {"form": "semireg_set", "direction": "sufficient", "c": 0.9, "r": 0.5, "alpha": 0.5},
        "oracle": "target_pair",
        "out": str(tmp_path / "r"),
    }
    assert run_cli(["--config", write_cfg(tmp_path, cfg), "--quiet"]) == 0
    report = json.loads((tmp_path / "r" / "certify_descent.json").read_text())
    assert report["verdict"] == "pass"
    assert report["premise_samples"] >= 50


def test_corpus_linear_random_perturbation_calmness_bound():
    from reglab.geometry import GraphPoint
    from reglab.moduli import LiminfSchedule, estimate_modulus
    from reglab.setmaps import SingleValued

    entry = load_example("linear_random")
    A, f = entry.objects["A"], entry.objects["f"]
    diff = SingleValued(lambda x: f.fn(x) - A @ np.asarray(x, dtype=float), 3, 2, vectorized=False)
    calm = estimate_modulus(
        "calm", diff, GraphPoint(np.zeros(3), np.zeros(2)),
        LiminfSchedule(r0=0.05, rho=0.5, shells=5, samples_per_shell=24),
    ).value
    assert calm <= entry.references["calm_perturbation_bound"]["value"]


def test_corpus_linear_random_sigma_reproducible():
    a = load_example("linear_random")
    b = load_example("linear_random")
    assert np.allclose(a.objects["A"], b.objects["A"])
    assert a.references["sigma_min"]["value"] == b.references["sigma_min"]["value"]
    spectral = float(np.linalg.svd(a.objects["A"], compute_uv=False)[-1])
    assert a.references["sigma_min"]["value"] == pytest.approx(spectral)


def test_corpus_abs_newton_solution_feasible():
    entry = load_example("abs_newton")
    assert entry.objects["problem"].residual([0.0]) == 0.0


def test_corpus_smooth2d_strict_complementarity():
    entry = load_example("smooth2d_boxvi")
    prob = entry.objects["problem"]
    assert prob.residual([0.0, 0.5]) <= 1e-12
    fx = prob.f(np.array([0.0, 0.5]))
    assert fx[0] > 0.1 and abs(fx[1]) <= 1e-12


_ORIGIN = {"x": [0.0], "y": [0.0]}


@pytest.mark.parametrize(
    "cfg",
    [
        {"command": "moduli", "example": "sum_remark"},
        {"command": "certify", "example": "two_branch", "check": "sum_semiregularity"},
        {"command": "certify", "example": "two_branch", "check": "linear_perturbation"},
        {"command": "certify", "example": "two_branch", "check": "descent"},
        {"command": "certify", "example": "sum_remark", "check": "descent", "constants": {"c": 0.9, "r": 0.5}},
        pytest.param(
            {"command": "certify", "example": "two_branch", "check": "descent", "constants": {"c": -1, "r": 0.5}},
            id="certify-descent-two_branch-negative_c",
        ),
        pytest.param(
            {"command": "certify", "example": "two_branch", "check": "descent",
             "constants": {"c": 0.9, "r": 0.5, "form": "bogus"}},
            id="certify-descent-two_branch-unknown_form",
        ),
        pytest.param(
            {"command": "certify", "example": "two_branch", "check": "descent",
             "constants": {"c": 0.9, "r": 0.5, "alpha": 2.0}},
            id="certify-descent-two_branch-alpha_c_at_least_1",
        ),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "y+1"}, "point": _ORIGIN},
                     id="moduli-inline-unknown_name"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "sin()"}, "point": _ORIGIN},
                     id="moduli-inline-call_without_arguments"),
        pytest.param({"command": "moduli", "mapping": {"kind": "finite", "branches": [["x", "x"]]}, "point": _ORIGIN},
                     id="moduli-inline-branch_with_two_coordinates_for_m1"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single"}, "point": _ORIGIN},
                     id="moduli-inline-single_without_expr"),
        pytest.param({"command": "moduli", "mapping": {"kind": "bogus"}, "point": _ORIGIN},
                     id="moduli-inline-unknown_kind"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "x"},
                      "point": {"x": [0.0, 0.0], "y": [0.0]}},
                     id="moduli-inline-point_x_of_length_2_for_n1"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "x"},
                      "point": {"x": [0.0], "y": [1.0]}},
                     id="moduli-inline-point_off_the_graph"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "x"}, "point": {"x": [0.0]}},
                     id="moduli-inline-point_without_y"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "x"}, "point": _ORIGIN,
                      "schedule": {"shells": 1}},
                     id="moduli-inline-schedule_with_one_shell"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "x + 0*(1/0)"}, "point": _ORIGIN},
                     id="moduli-inline-raises_at_the_point"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "x + 0*sqrt(-1-x*x)"},
                      "point": _ORIGIN},
                     id="moduli-inline-nan_at_the_point"),
        pytest.param({"command": "moduli", "mapping": {"kind": "single", "expr": "x + 0*(-1)**0.5"},
                      "point": _ORIGIN},
                     id="moduli-inline-complex_value"),
        pytest.param({"command": "moduli", "point": _ORIGIN,
                      "mapping": {"kind": "polyhedral_graph", "n": 1, "m": 1,
                                  "pieces": [{"normals": [[1.0, -1.0], [-1.0, 1.0]], "offsets": [0.1]}]}},
                     id="moduli-inline-one_offset_for_two_normals"),
        pytest.param({"command": "moduli", "point": _ORIGIN,
                      "mapping": {"kind": "polyhedral_graph", "n": 1, "m": 1, "pieces": 3}},
                     id="moduli-inline-pieces_not_a_list"),
        pytest.param({"command": "moduli", "point": _ORIGIN,
                      "mapping": {"kind": "inverse", "base": {"kind": "single", "expr": "x"}}},
                     id="moduli-inline-inverse_of_a_map_without_one"),
        {"command": "cover", "example": "two_branch", "check": "kaluza"},
        {"command": "cover", "example": "two_branch", "check": "selection"},
        {"command": "solve", "example": "two_branch"},
    ],
    ids=lambda cfg: "-".join(str(cfg.get(k)) for k in ("command", "check", "example") if k in cfg),
)
def test_example_without_the_parts_a_check_needs_exits_two(tmp_path, cfg, capsys):
    path = write_cfg(tmp_path, {**cfg, "out": str(tmp_path / "r")})
    assert run_cli(["--config", path, "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err
