"""Experiment runner: config ingestion, suite orchestration, report files.

Reports are canonical JSON (sorted keys, non-finite numbers as the strings
"inf", "-inf" and "nan") carrying a schema_version; given the same config
and seed they are byte-identical up to the runtime_ms field.  Exit codes:
0 all checks passed, 1 at least one non-vacuous check failed, 2 config or
I/O error, including an example that lacks the parts its check needs and a
bad inline mapping or reference point.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import acceptance
from .certify import (
    DescentForm,
    check_descent_certificate,
    verify_linear_perturbation,
    verify_sum_semiregularity,
)
from .corpus import CorpusEntry, UnknownExample, corpus_names, load_example
from .covering import build_selection, covering_check_kaluza
from .geometry import GraphPoint, NORM_KINDS, jsonable
from .moduli import LiminfSchedule, MODULUS_KINDS, NotEvaluable, NotOnGraph, estimate_modulus
from .newton import InexactnessModel, rate_report, run_newton
from .setmaps import build_setmap

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


_COMMON_KEYS = {"command", "seed", "norm", "out"}
_ALLOWED_KEYS = {
    "moduli": _COMMON_KEYS | {"example", "mapping", "point", "kinds", "schedule"},
    "certify": _COMMON_KEYS | {"example", "check", "constants", "oracle"},
    "cover": _COMMON_KEYS | {"example", "check", "constants"},
    "solve": _COMMON_KEYS | {"example", "eta", "adversarial", "x0", "max_iter", "stop_tol"},
    "suite": _COMMON_KEYS | {"suite", "example", "kinds", "schedule"},
}

DEFAULT_CONFIG = {
    "command": "suite",
    "suite": "acceptance",
    "seed": 42,
    "norm": "euclidean",
    "out": "reports",
    "kinds": ["lopen", "sur", "semireg"],
    "schedule": {"r0": 0.1, "rho": 0.5, "shells": 8, "samples_per_shell": 64},
}

#: named oracles available from config files (oracles are otherwise user code)
NAMED_ORACLES = {
    "target_pair": lambda x, v, y, consts: (y, y),
}


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    command = cfg.get("command")
    if command not in _ALLOWED_KEYS:
        raise ConfigError(f"unknown or missing command {command!r}; expected one of {sorted(_ALLOWED_KEYS)}")
    unknown = set(cfg) - _ALLOWED_KEYS[command]
    if unknown:
        raise ConfigError(f"unknown keys for command {command!r}: {sorted(unknown)}")
    norm = cfg.get("norm", "euclidean")
    if norm not in NORM_KINDS:
        raise ConfigError(f"norm must be one of {NORM_KINDS}")
    for kind in cfg.get("kinds", []):
        if kind not in MODULUS_KINDS:
            raise ConfigError(f"unknown modulus kind {kind!r}")
    if "schedule" in cfg:
        extra = set(cfg["schedule"]) - {"r0", "rho", "shells", "samples_per_shell"}
        if extra:
            raise ConfigError(f"unknown schedule keys: {sorted(extra)}")
    return cfg


def _schedule_from(cfg: dict) -> LiminfSchedule:
    sched = dict(DEFAULT_CONFIG["schedule"])
    sched.update(cfg.get("schedule", {}))
    try:
        return LiminfSchedule(**sched)
    except ValueError as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc


def _entry_from(cfg: dict) -> CorpusEntry:
    name = cfg.get("example")
    if not name:
        raise ConfigError(f"this command needs an 'example' (one of {', '.join(corpus_names())})")
    try:
        return load_example(name)
    except UnknownExample as exc:
        raise ConfigError(str(exc)) from exc


def _require(entry, *keys: str) -> list:
    """The named objects of a corpus example, or entries of a constants dict.

    A missing one is a ConfigError, so pairing a check with an example that
    lacks its parts exits 2 instead of crashing.
    """
    if isinstance(entry, CorpusEntry):
        objects, where = entry.objects, f"example {entry.name!r}"
    else:
        objects, where = entry, "constants"
    missing = [k for k in keys if objects.get(k) is None]
    if missing:
        raise ConfigError(f"{where} lacks {', '.join(missing)}, which this check needs")
    return [objects[k] for k in keys]


def _point_from(cfg: dict, entry: CorpusEntry | None):
    if "point" in cfg:
        point = cfg["point"]
        if not isinstance(point, dict) or "x" not in point or "y" not in point:
            raise ConfigError("'point' needs both 'x' and 'y'")
        try:
            return GraphPoint(point["x"], point["y"])
        except ValueError as exc:
            raise ConfigError(f"bad point: {exc}") from exc
    if entry is not None and "point" in entry.objects:
        return entry.objects["point"]
    raise ConfigError("no reference point available: give 'point': {x: [...], y: [...]} ")


def make_report(check: str, inputs: dict, seed: int, verdict: str, payload: dict, witnesses=None, runtime_ms: int = 0) -> dict:
    return {
        "check": check,
        "inputs": inputs,
        "seed": seed,
        "verdict": verdict,
        **payload,
        "witnesses": witnesses or [],
        "runtime_ms": runtime_ms,
        "schema_version": SCHEMA_VERSION,
    }


def write_report(report: dict, out_dir: Path, name: str, quiet: bool) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    if not quiet:
        print(f"{report['verdict']:8s} {report['check']}  -> {path}")
    return path


# ---------------------------------------------------------------------------
# command implementations; each yields (name, report) pairs


def _cmd_moduli(cfg: dict):
    seed = cfg.get("seed", 42)
    norm = cfg.get("norm", "euclidean")
    if "mapping" in cfg:
        try:
            F = build_setmap(cfg["mapping"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad mapping: {exc}") from exc
        entry = None
    else:
        entry = _entry_from(cfg)
        (F,) = _require(entry, "setmap")
    point = _point_from(cfg, entry)
    if (point.x.size, point.y.size) != (F.n, F.m):
        raise ConfigError(f"point has dimensions {point.x.size}, {point.y.size}; the map needs {F.n}, {F.m}")
    schedule = _schedule_from(cfg)
    estimates = {}
    for kind in cfg.get("kinds", DEFAULT_CONFIG["kinds"]):
        t0 = time.perf_counter()
        try:
            est = estimate_modulus(kind, F, point, schedule, norm, seed)
        except (NotOnGraph, NotEvaluable) as exc:  # raised by the graph check that precedes any sampling
            raise ConfigError(str(exc)) from exc
        estimates[kind] = est
        payload = est.to_json_dict()
        yield f"moduli_{kind}", make_report(
            f"moduli:{kind}",
            {"example": cfg.get("example"), "norm": norm, "schedule": jsonable(schedule)},
            seed,
            "pass",
            {"estimate": payload},
            runtime_ms=int(1000 * (time.perf_counter() - t0)),
        )
    # reciprocal product identity when both sides were estimated
    pairs = [("lopen", "semireg"), ("sur", "reg"), ("psopen", "subreg")]
    for a, b in pairs:
        if a in estimates and b in estimates:
            va, vb = estimates[a].value, estimates[b].value
            finite = np.isfinite(va) and np.isfinite(vb) and min(va, vb) > 1e-3 and max(va, vb) < 1e3
            if finite:
                product = va * vb
                verdict = "pass" if 0.98 <= product <= 1.02 else "fail"
                payload = {"product": product, "pair": [a, b]}
            else:
                small, large = (va, vb) if va <= vb else (vb, va)
                verdict = "pass" if (small <= 1e-2 and large >= 1e2) or not np.isfinite(large) else "fail"
                payload = {"pair": [a, b], "degenerate": True, "values": [va, vb]}
            yield f"product_{a}_{b}", make_report(
                f"moduli:product:{a}*{b}", {"example": cfg.get("example")}, seed, verdict, payload
            )


def _cmd_certify(cfg: dict):
    seed = cfg.get("seed", 42)
    norm = cfg.get("norm", "euclidean")
    check = cfg.get("check", "sum_semiregularity")
    constants = cfg.get("constants", {})
    t0 = time.perf_counter()
    if check == "sum_semiregularity":
        F, G, point = _require(_entry_from(cfg), "F", "G", "point")
        rep = verify_sum_semiregularity(F, G, point, seed=seed, norm=norm)
    elif check == "descent":
        entry = _entry_from(cfg)
        (F,) = _require(entry, "setmap")
        _require(constants, "c", "r")
        point = _point_from(cfg, entry)
        oracle = NAMED_ORACLES.get(cfg.get("oracle", "target_pair"))
        if oracle is None:
            raise ConfigError(f"unknown named oracle {cfg.get('oracle')!r}")
        consts = {k: v for k, v in constants.items() if k in ("c", "r", "alpha", "c_prime")}
        try:
            form = DescentForm(constants.get("form", "semireg_set"), constants.get("direction", "sufficient"))
            rep = check_descent_certificate(form, F, point, consts, oracle, seed=seed, norm=norm)
        except ValueError as exc:  # the form, direction, constants and point all come from the config
            raise ConfigError(str(exc)) from exc
    elif check == "linear_perturbation":
        f, A, xbar = _require(_entry_from(cfg), "f", "A", "xbar")
        rep = verify_linear_perturbation(f, A, xbar, seed=seed, norm=norm)
    else:
        raise ConfigError(f"unknown certify check {check!r}")
    payload = rep.to_json_dict()
    yield f"certify_{check}", make_report(
        payload.pop("check"),
        {"example": cfg.get("example"), "norm": norm, "constants": payload.pop("constants")},
        seed,
        payload.pop("verdict"),
        payload,
        witnesses=payload.pop("violations"),
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def _cmd_cover(cfg: dict):
    seed = cfg.get("seed", 42)
    check = cfg.get("check", "kaluza")
    constants = cfg.get("constants", {})
    t0 = time.perf_counter()
    if check == "kaluza":
        entry = _entry_from(cfg)
        f, A, xbar = _require(entry, "f", "A", "xbar")
        sigma = entry.references["sigma_min"]["value"]
        rep = covering_check_kaluza(
            f, A, xbar,
            c=constants.get("c", 0.7 * sigma), r=constants.get("r", 1e-2),
            samples=constants.get("samples", 100), seed=seed,
        )
        payload = rep.to_json_dict()
        name = payload.pop("check")
        verdict = payload.pop("verdict")
        yield "cover_kaluza", make_report(
            name, {"example": cfg.get("example")}, seed, verdict, payload,
            witnesses=payload.pop("unattained"), runtime_ms=int(1000 * (time.perf_counter() - t0)),
        )
    elif check == "selection":
        f, A, xbar = _require(_entry_from(cfg), "f", "A", "xbar")
        tr = build_selection(f, A, xbar, radius=constants.get("radius", 0.1), seed=seed)
        verdict = "pass" if tr.bounds_ok else "fail"
        yield "cover_selection", make_report(
            "covering:selection", {"example": cfg.get("example")}, seed, verdict, tr.to_json_dict(),
            runtime_ms=int(1000 * (time.perf_counter() - t0)),
        )
    else:
        raise ConfigError(f"unknown cover check {check!r}")


def _cmd_solve(cfg: dict, out_dir: Path):
    seed = cfg.get("seed", 42)
    entry = _entry_from(cfg)
    problem, H = _require(entry, "problem", "H")
    x0 = cfg.get("x0") or (entry.objects.get("x0") or [entry.objects["starts"][0]])
    R = InexactnessModel(cfg.get("eta", 0.0), adversarial=bool(cfg.get("adversarial", False)))
    t0 = time.perf_counter()
    trace = run_newton(problem, H, R, x0=x0, max_iter=cfg.get("max_iter", 40), stop_tol=cfg.get("stop_tol", 1e-12), seed=seed)
    payload = {"trace": trace.to_json_dict()}
    if len(trace.records) >= 3:
        payload["rate"] = rate_report(trace).to_json_dict()
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out_dir / f"solve_{entry.name}.csv")
    verdict = "pass" if trace.termination == "converged" else "fail"
    yield f"solve_{entry.name}", make_report(
        f"solve:{entry.name}",
        {"example": entry.name, "eta": R.eta, "adversarial": R.adversarial, "x0": list(map(float, x0))},
        seed,
        verdict,
        payload,
        runtime_ms=int(1000 * (time.perf_counter() - t0)),
    )


def _cmd_suite(cfg: dict, out_dir: Path):
    seed = cfg.get("seed", 42)
    suite = cfg.get("suite", "acceptance")
    if suite == "acceptance":
        for res in acceptance.run_acceptance(seed=seed, quiet=True):
            verdict = "pass" if res["passed"] else "fail"
            yield f"acceptance_{res['criterion']:02d}", make_report(
                f"acceptance:criterion{res['criterion']}",
                {},
                seed,
                verdict,
                {"details": res["details"]},
                runtime_ms=res["runtime_ms"],
            )
    elif suite == "moduli":
        sub = dict(cfg)
        sub["command"] = "moduli"
        sub.pop("suite", None)
        yield from _cmd_moduli(sub)
    elif suite == "solve":
        sub = dict(cfg)
        sub["command"] = "solve"
        sub.pop("suite", None)
        yield from _cmd_solve(sub, out_dir)
    else:
        raise ConfigError(f"unknown suite {suite!r}")


def run_suite(cfg: dict, quiet: bool = False) -> int:
    """Execute a validated config; returns the process exit status."""
    out_dir = Path(cfg.get("out", "reports"))
    command = cfg["command"]
    if command == "moduli":
        jobs = list(_cmd_moduli(cfg))
    elif command == "certify":
        jobs = list(_cmd_certify(cfg))
    elif command == "cover":
        jobs = list(_cmd_cover(cfg))
    elif command == "solve":
        jobs = list(_cmd_solve(cfg, out_dir))
    else:
        jobs = list(_cmd_suite(cfg, out_dir))

    rows = []
    failed = False
    for name, report in jobs:
        write_report(jsonable(report), out_dir, name, quiet)
        rows.append((name, report["check"], report["verdict"], report["runtime_ms"]))
        if report["verdict"] in ("fail", "rejected"):
            failed = True
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "check", "verdict", "runtime_ms"])
        writer.writerows(rows)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reglab",
        description="estimate regularity moduli, certify covering theorems, and run "
        "inexact Newton-type iterations on bundled or configured problems",
    )
    parser.add_argument("--config", help="path to a JSON config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--norm", choices=list(NORM_KINDS), help="override the norm")
    parser.add_argument("--out", help="report output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress per-check lines")
    parser.add_argument("--print-defaults", action="store_true", help="print the default config and exit")
    args = parser.parse_args(argv)

    if args.print_defaults:
        print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
        return 0

    cfg = dict(DEFAULT_CONFIG)
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = json.load(fh)
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.norm:
            cfg["norm"] = args.norm
        if args.out:
            cfg["out"] = args.out
        cfg = validate_config(cfg)
        return run_suite(cfg, quiet=args.quiet)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
