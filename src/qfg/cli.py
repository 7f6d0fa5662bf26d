"""Command-line front end.

Subcommands: ``eval``, ``scan``, ``tensor``, ``optimize``, ``verify``. Output
is JSON (or CSV for scans) with 12-significant-digit floats in a fixed field
order, so identical invocations are byte-identical. Errors are reported as
``{"error": {"kind": ..., "detail": ...}}`` on stderr with exit codes:
0 success, 2 bad input, 3 numerical failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from .errors import InvariantViolation, NonFiniteResult, QfgError
from .fisher import (
    classical_fisher,
    fisher_tensor,
    fisher_tensor_general,
    quantum_fisher,
    wavefunction_fisher,
)
from .scan import COLUMNS, scan
from .scenario import Options, Scenario, load_scenario
from .serialize import dumps_canonical, format_rows, matrix_to_json
from .sld import SphereCurve, TransverseCurve, sld_solve, walk_curve
from .optimize import maximize_cfi


def _parse_complex_flag(text: str, flag: str) -> complex:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) in (1, 2) and all(math.isfinite(x) for x in parts):
        return complex(*parts)
    raise InvariantViolation(f"{flag}: expected finite 're' or 're,im', got {text!r}")


def _effective_options(scenario: Scenario, args) -> Options:
    mode = scenario.options.mode
    fd_step = scenario.options.fd_step
    if getattr(args, "mode", None):
        mode = args.mode
    if getattr(args, "fd_step", None) is not None:
        if not 0 < args.fd_step < math.inf:
            raise InvariantViolation(f"--fd-step must be positive and finite, got {args.fd_step!r}")
        fd_step = args.fd_step
    return Options(mode=mode, fd_step=fd_step)


def _require_curve(scenario: Scenario):
    if scenario.curve is None:
        raise InvariantViolation("this command needs a scenario with a 'curve'")
    return scenario.curve


def _state_and_direction(scenario: Scenario, args):
    curve = _require_curve(scenario)
    opts = _effective_options(scenario, args)
    rho, drho, _ = walk_curve(curve, np.array([scenario.theta0]), opts.mode, opts.fd_step)
    return rho[0], drho[0]


def _emit(obj):
    sys.stdout.write(dumps_canonical(obj) + "\n")


def _cmd_eval(args) -> int:
    scenario = load_scenario(args.scenario)
    quantity = args.quantity
    if scenario.curve is None:
        if quantity == "cfi":
            _emit({"cfi": wavefunction_fisher(scenario.grid)[0]})
            return 0
        if quantity == "qfi":
            _emit({"qfi": wavefunction_fisher(scenario.grid)[1]})
            return 0
        raise InvariantViolation(f"quantity {quantity!r} needs a scenario with a 'curve'")
    rho, drho = _state_and_direction(scenario, args)
    if quantity == "cfi":
        if scenario.povm is None:
            raise InvariantViolation("quantity 'cfi' needs a 'povm' in the scenario")
        _emit({"cfi": classical_fisher(rho, drho, scenario.povm)})
    elif quantity == "qfi":
        _emit({"qfi": quantum_fisher(rho, drho)})
    elif quantity == "sld":
        _emit({"sld": matrix_to_json(sld_solve(rho, drho))})
    elif quantity == "tensor":
        value = fisher_tensor_general(rho, drho, drho)
        _emit({"sym": value.sym, "antisym": value.antisym})
    return 0


def _cmd_scan(args) -> int:
    scenario = load_scenario(args.scenario)
    _require_curve(scenario)
    if args.param != "theta":
        raise InvariantViolation(f"--param supports only 'theta', got {args.param!r}")
    parts = args.range.split(":")
    if len(parts) != 3:
        raise InvariantViolation(f"--range expects 'a:b:n', got {args.range!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvariantViolation(f"--range expects 'a:b:n', got {args.range!r}") from None
    if count < 1:
        raise InvariantViolation("--range needs n >= 1")
    if not math.isfinite(hi - lo):
        raise InvariantViolation(f"--range needs finite a, b and b - a, got {args.range!r}")
    opts = _effective_options(scenario, args)

    # rows are written chunk by chunk, each formatted first: a failing chunk leaves the earlier ones written
    with contextlib.ExitStack() as stack:
        out = None
        for rows in scan(scenario, lo, hi, count, opts.mode, opts.fd_step):
            text = format_rows(rows)
            if out is None:
                out = stack.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else sys.stdout
                out.write(",".join(COLUMNS) + "\n")
            out.write(text)
    return 0


def _cmd_tensor(args) -> int:
    scenario = load_scenario(args.scenario)
    curve = _require_curve(scenario)
    theta = scenario.theta0
    if not isinstance(curve, (SphereCurve, TransverseCurve)):
        raise InvariantViolation(
            "tensor needs a sphere_curve or transverse_curve scenario with a finite point"
        )
    point = curve.point_at(theta)
    if point.at_infinity:  # a sphere curve's point is always finite
        raise InvariantViolation(
            "tensor needs a finite stereographic point; this transverse curve sits at z = inf"
        )
    v = _parse_complex_flag(args.v, "--v")
    v2 = _parse_complex_flag(args.v2, "--v2")
    value = fisher_tensor(point.k, point.coord, v, v2, point.chart)  # in the point's own chart
    _emit({"sym": value.sym, "antisym": value.antisym})
    return 0


def _cmd_optimize(args) -> int:
    scenario = load_scenario(args.scenario)
    rho, drho = _state_and_direction(scenario, args)
    result = maximize_cfi(rho, drho)
    _emit(
        {
            "n": [float(result.axis[0]), float(result.axis[1]), float(result.axis[2])],
            "cfi": result.value,
            "qfi": result.qfi,
            "gap": result.qfi - result.value,
            "degenerate": result.degenerate,
        }
    )
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    names = [args.suite] if args.suite else None
    try:
        results = verify.run_suites(names)
    except KeyError as exc:
        raise InvariantViolation(
            f"unknown suite {exc.args[0]!r}; available: {', '.join(verify.SUITES)}"
        ) from exc
    failed = 0
    for suite_name, checks in results:
        for check in checks:
            status = "PASS" if check.passed else "FAIL"
            detail = f" -- {check.detail}" if check.detail else ""
            sys.stdout.write(f"{status} [{suite_name}] {check.name}{detail}\n")
            failed += 0 if check.passed else 1
    sys.stdout.write(
        f"{'OK' if failed == 0 else 'FAILED'}: "
        f"{sum(len(c) for _, c in results) - failed} passed, {failed} failed\n"
    )
    return 0 if failed == 0 else 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are error lines too, here and in every subparser
        raise InvariantViolation(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfg",
        description="Quantum Fisher information and state-space geometry toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_numeric_flags(p):
        p.add_argument("--mode", choices=["analytic", "fd"], help="derivative mode override")
        p.add_argument("--fd-step", dest="fd_step", type=float, help="finite-difference step")

    p_eval = sub.add_parser("eval", help="evaluate one quantity at theta0")
    p_eval.add_argument("--scenario", required=True)
    p_eval.add_argument("--quantity", required=True, choices=["cfi", "qfi", "sld", "tensor"])
    add_numeric_flags(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_scan = sub.add_parser("scan", help="scan a curve and write CSV")
    p_scan.add_argument("--scenario", required=True)
    p_scan.add_argument("--param", default="theta")
    p_scan.add_argument("--range", required=True, help="a:b:n inclusive grid")
    p_scan.add_argument("--out", help="output CSV path (default stdout)")
    add_numeric_flags(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    p_tensor = sub.add_parser("tensor", help="Fisher tensor on two sphere tangents")
    p_tensor.add_argument("--scenario", required=True)
    p_tensor.add_argument("--v", required=True, help="first tangent as 're,im'")
    p_tensor.add_argument("--v2", required=True, help="second tangent as 're,im'")
    p_tensor.set_defaults(func=_cmd_tensor)

    p_opt = sub.add_parser("optimize", help="the bound-attaining projective qubit pair")
    p_opt.add_argument("--scenario", required=True)
    add_numeric_flags(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_verify = sub.add_parser("verify", help="run the self-certification suites")
    p_verify.add_argument("--suite", help="run a single named suite")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


#: The parser of ``main``, built on its first call (not at import) and reused.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    try:
        if _PARSER is None:
            _PARSER = build_parser()
        args = _PARSER.parse_args(argv)
        # non-finite intermediates are caught by the checks and reported as errors
        with np.errstate(all="ignore"):
            return args.func(args)
    except QfgError as exc:
        error = exc
    except OverflowError:
        # a Python float power overflows by raising where numpy would give inf
        error = NonFiniteResult("a computed value overflows the float range")
    sys.stderr.write(dumps_canonical({"error": {"kind": error.kind, "detail": str(error)}}) + "\n")
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
