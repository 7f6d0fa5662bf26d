"""Scenario files: JSON descriptions of a curve, evaluation point, and payloads.

A scenario must provide a curve, a wavefunction grid, or both. Unknown fields
are rejected everywhere. Validation failures raise InvariantViolation naming
the offending field path; malformed JSON raises ParseError. The shipped
``scenario.schema.json`` documents the same format as a JSON Schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, ParseError, QfgError
from .fisher import Povm, WavefunctionGrid
from .linalg import DensityOp
from .serialize import complex_from_json, float_from_json, matrix_from_json
from .sld import (
    ANALYTIC,
    DEFAULT_FD_STEP,
    FD,
    GreatCirclePure,
    PureQditCoeffs,
    SphereCurve,
    TableCurve,
    TransverseCurve,
)
from .states import Chart


@dataclass(frozen=True)
class Options:
    mode: str = ANALYTIC
    fd_step: float = DEFAULT_FD_STEP


@dataclass(frozen=True)
class Scenario:
    curve: object | None
    theta0: float
    povm: Povm | None = None
    grid: WavefunctionGrid | None = None
    options: Options = field(default_factory=Options)


def _require_dict(data, path: str) -> dict:
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected an object, got {type(data).__name__}")
    return data

def _check_keys(data: dict, path: str, allowed: set[str], required: set[str]):
    unknown = set(data) - allowed
    if unknown:
        raise InvariantViolation(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise InvariantViolation(f"{path}: missing required field(s) {sorted(missing)}")


def _path_record(data, path: str, fields: dict) -> dict:
    data = _require_dict(data, path)
    _check_keys(data, path, set(fields) | {"type"}, set())
    if data.get("type", "linear") != "linear":
        raise InvariantViolation(f"{path}.type: only 'linear' paths are supported")
    out = {}
    for name, (kind, default) in fields.items():
        if name in data:
            out[name] = kind(data[name], f"{path}.{name}")
        elif default is not None:
            out[name] = default
        else:
            raise InvariantViolation(f"{path}: missing required field(s) ['{name}']")
    return out


def curve_from_json(data, path: str = "curve"):
    data = _require_dict(data, path)
    family = data.get("family")
    if family == "great_circle_pure":
        _check_keys(data, path, {"family", "phase"}, {"family"})
        return GreatCirclePure(phase=float_from_json(data.get("phase", 0.0), f"{path}.phase"))
    if family == "sphere_curve":
        _check_keys(data, path, {"family", "k", "path"}, {"family", "k", "path"})
        rec = _path_record(
            data["path"],
            f"{path}.path",
            {"z0": (complex_from_json, 0j), "velocity": (complex_from_json, 0j)},
        )
        return SphereCurve(k=float_from_json(data["k"], f"{path}.k"), **rec)
    if family == "transverse_curve":
        _check_keys(data, path, {"family", "z", "chart", "path"}, {"family", "path"})
        rec = _path_record(
            data["path"],
            f"{path}.path",
            {"k0": (float_from_json, None), "rate": (float_from_json, 1.0)},
        )
        chart = data.get("chart", "north")
        if chart not in ("north", "south"):
            raise InvariantViolation(f"{path}.chart: expected 'north' or 'south', got {chart!r}")
        z = data.get("z", "inf")
        if z == "inf":
            return TransverseCurve(**rec)
        return TransverseCurve(coord=complex_from_json(z, f"{path}.z"), chart=Chart(chart), **rec)
    if family == "pure_qdit_coeffs":
        _check_keys(data, path, {"family", "a"}, {"family", "a"})
        if not isinstance(data["a"], list) or len(data["a"]) < 2:
            raise InvariantViolation(f"{path}.a: expected a list of at least 2 [re, im] pairs")
        a = tuple(complex_from_json(x, f"{path}.a[{i}]") for i, x in enumerate(data["a"]))
        return PureQditCoeffs(a=a)
    if family == "table":
        _check_keys(data, path, {"family", "samples"}, {"family", "samples"})
        if not isinstance(data["samples"], list):
            raise ParseError(f"{path}.samples: expected a list")
        thetas, rhos = [], []
        for i, sample in enumerate(data["samples"]):
            spath = f"{path}.samples[{i}]"
            sample = _require_dict(sample, spath)
            _check_keys(sample, spath, {"theta", "rho"}, {"theta", "rho"})
            thetas.append(float_from_json(sample["theta"], f"{spath}.theta"))
            rhos.append(matrix_from_json(sample["rho"], f"{spath}.rho"))
        try:
            return TableCurve(thetas=tuple(thetas), rhos=tuple(rhos))
        except QfgError:
            for i, rho in enumerate(rhos):  # name the first sample that fails alone, with its own error
                try:
                    DensityOp(rho)
                except QfgError as exc:
                    raise InvariantViolation(f"{path}.samples[{i}]: {exc}") from exc
            raise
    raise InvariantViolation(
        f"{path}.family: expected one of great_circle_pure, sphere_curve, "
        f"transverse_curve, pure_qdit_coeffs, table; got {family!r}"
    )


def povm_from_json(data, path: str = "povm") -> Povm:
    data = _require_dict(data, path)
    _check_keys(data, path, {"elements"}, {"elements"})
    if not isinstance(data["elements"], list):
        raise ParseError(f"{path}.elements: expected a list of matrices")
    mats = [
        matrix_from_json(m, f"{path}.elements[{i}]") for i, m in enumerate(data["elements"])
    ]
    return Povm(mats)


def grid_from_json(data, path: str = "grid") -> WavefunctionGrid:
    data = _require_dict(data, path)
    names = ("x", "p", "alpha", "dp", "dalpha")
    _check_keys(data, path, set(names), set(names))
    arrays = {}
    for name in names:
        if not isinstance(data[name], list):
            raise ParseError(f"{path}.{name}: expected a list of numbers")
        arrays[name] = [float_from_json(v, f"{path}.{name}[{i}]") for i, v in enumerate(data[name])]
    return WavefunctionGrid(**arrays)


def options_from_json(data, path: str = "options") -> Options:
    data = _require_dict(data, path)
    _check_keys(data, path, {"mode", "fd_step"}, set())
    mode = data.get("mode", ANALYTIC)
    if mode not in (ANALYTIC, FD):
        raise InvariantViolation(f"{path}.mode: expected '{ANALYTIC}' or '{FD}', got {mode!r}")
    fd_step = float_from_json(data.get("fd_step", DEFAULT_FD_STEP), f"{path}.fd_step")
    if fd_step <= 0:
        raise InvariantViolation(f"{path}.fd_step: must be positive, got {fd_step!r}")
    return Options(mode=mode, fd_step=fd_step)


def parse_scenario(data) -> Scenario:
    data = _require_dict(data, "scenario")
    _check_keys(data, "scenario", {"curve", "theta0", "povm", "grid", "options"}, set())
    if "curve" not in data and "grid" not in data:
        raise InvariantViolation("scenario: needs at least one of 'curve' or 'grid'")

    def guarded(builder, payload, path):
        try:
            return builder(payload, path)
        except (ParseError, InvariantViolation):
            raise
        except QfgError as exc:
            raise InvariantViolation(f"{path}: {exc}") from exc

    curve = guarded(curve_from_json, data["curve"], "curve") if "curve" in data else None
    theta0 = 0.0
    if "theta0" in data:
        theta0 = float_from_json(data["theta0"], "theta0")
    elif curve is not None:
        raise InvariantViolation("scenario: missing required field(s) ['theta0']")
    if isinstance(curve, TableCurve):
        guarded(lambda t, _: curve.require_in_range(np.array([t])), theta0, "theta0")
    povm = guarded(povm_from_json, data["povm"], "povm") if "povm" in data else None
    if povm is not None and curve is not None and povm.dim != curve.dim:
        raise InvariantViolation(f"povm: dimension {povm.dim} does not match the curve's dimension {curve.dim}")
    grid = guarded(grid_from_json, data["grid"], "grid") if "grid" in data else None
    options = guarded(options_from_json, data["options"], "options") if "options" in data else Options()
    return Scenario(curve=curve, theta0=theta0, povm=povm, grid=grid, options=options)


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    # bad JSON, bytes that are not UTF-8, an over-long integer literal, or nesting too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(data)
