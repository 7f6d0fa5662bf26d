"""Traced replay of the CLI's work through qfg's public layer functions.

No qfg module is patched. The replay makes, for each ``scan`` command, the
public calls that ``qfg.cli`` makes (``load_scenario``, the curve's state,
then ``differentiate_curve``, ``quantum_fisher``, the QFI split, the
measurement and ``format_float`` per row), each inside a span recorded by
this module. The QFI split copies the CLI's private ``_qfi_decomposition``
so that its calls can be traced; ``replay`` returns the CSV rows it made, and
``run.py`` fails any command whose replayed rows differ from the CLI's, so
the copy cannot drift from the program unnoticed.
Per row it also times three linalg/SLD primitives directly on the row's own
matrices (``DensityOp``, ``herm_eigen``, ``sld_solve``), because the CLI only
reaches them inside other layers; these spans carry the tag ``probe``.

A span is (id, parent, name, row, tag, start, end). The first part of its
name is the module (layer). A span's self time is its duration minus its
children's durations. Tags: "" for the CLI-equivalent replay, ``probe`` for
the per-row primitives, ``main`` for the real ``qfg.cli.main`` call of the
same command, and ``fill`` for calls made only so that every per-call metric
has samples on every workload (they are excluded from self time and shares).
"""

from __future__ import annotations

import contextlib
import statistics
import time

from qfg.errors import DegenerateSld, QfgError
from qfg.fisher import classical_fisher, qfi_qubit_closed_form, quantum_fisher
from qfg.linalg import DensityOp, herm_eigen
from qfg.optimize import sld_eigenbasis_povm
from qfg.scenario import load_scenario
from qfg.serialize import format_float
from qfg.sld import (
    GreatCirclePure,
    PureQditCoeffs,
    SphereCurve,
    TableCurve,
    TransverseCurve,
    differentiate_curve,
    sld_solve,
)
from qfg.states import pure_projector, rho_of_kz

LAYERS = ("linalg", "states", "sld", "fisher", "optimize", "scenario", "serialize", "cli")
#: Accounted tags: the replay proper and its per-row primitive probes.
ACCOUNTED = ("", "probe")
#: (metric, span names it aggregates, seconds to its unit)
PER_CALL = [
    *[(f"linalg.herm_eigen.d{d}.us", (f"linalg.herm_eigen.d{d}",), 1e6) for d in (2, 3, 4, 6, 8)],
    ("linalg.DensityOp.us", ("linalg.DensityOp",), 1e6),
    ("states.rho_of_kz.us", ("states.rho_of_kz",), 1e6),
    ("sld.sld_solve.d2.us", ("sld.sld_solve.d2",), 1e6),
    ("sld.sld_solve.dN.us", tuple(f"sld.sld_solve.d{d}" for d in range(3, 9)), 1e6),
    ("sld.differentiate_curve.analytic.us", ("sld.differentiate_curve.analytic",), 1e6),
    ("sld.differentiate_curve.fd.us", ("sld.differentiate_curve.fd",), 1e6),
    ("fisher.quantum_fisher.us", ("fisher.quantum_fisher",), 1e6),
    ("fisher.classical_fisher.us", ("fisher.classical_fisher",), 1e6),
    ("optimize.sld_eigenbasis_povm.us", ("optimize.sld_eigenbasis_povm",), 1e6),
    ("scenario.load_scenario.ms", ("scenario.load_scenario",), 1e3),
    ("serialize.format_float.us", ("serialize.format_float",), 1e6),
]
#: Every per-layer metric with its unit.
PER_LAYER_UNITS = {
    **{name: name.rsplit(".", 1)[1] for name, _, _ in PER_CALL},
    **{f"{layer}.{kind}": unit for layer in LAYERS for kind, unit in (("self_s", "s"), ("share", "ratio"))},
    "cli.unattributed_share": "ratio",
    "sld.degenerate_share": "ratio",
    "bench.trace_overhead_share": "ratio",
}


class Tracer:
    """In-memory span recorder; with ``enabled`` false every span is a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: list = []
        self.tag = ""
        self._stack: list = [None]
        self._null = contextlib.nullcontext()
        self.sld_calls = 0
        self.sld_degenerate = 0

    def span(self, name: str, row=None):
        return _Span(self, name, row) if self.enabled else self._null


class _Span:
    __slots__ = ("tracer", "name", "row", "sid", "start")

    def __init__(self, tracer: Tracer, name: str, row):
        self.tracer, self.name, self.row = tracer, name, row

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.records)
        tr.records.append(None)
        tr._stack.append(self.sid)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.records[self.sid] = (self.sid, tr._stack[-1], self.name, self.row, tr.tag, self.start, end)
        return False


def _rho(tr: Tracer, curve, theta: float, row):
    """``curve.rho_at(theta)``, split at the states-module boundary where it has one."""
    if isinstance(curve, (SphereCurve, TransverseCurve)):
        with tr.span("sld.point_at", row):
            point = curve.point_at(theta)
        with tr.span("states.rho_of_kz", row):
            return rho_of_kz(point)
    if isinstance(curve, (GreatCirclePure, PureQditCoeffs)):
        with tr.span("sld.state_at", row):
            psi = curve.state_at(theta)
        with tr.span("states.pure_projector", row):
            return pure_projector(psi)
    with tr.span("sld.rho_at", row):
        return curve.rho_at(theta)


def _qfi_split(tr: Tracer, curve, theta: float, total: float, row) -> tuple[float, float]:
    """The CLI's (sphere, transverse) split, made through public calls."""
    if isinstance(curve, TransverseCurve):
        with tr.span("fisher.qfi_qubit_closed_form", row):
            return 0.0, qfi_qubit_closed_form(curve.k_at(theta), curve.rate, 0j, 0j).transverse
    if not isinstance(curve, TableCurve):
        return total, 0.0
    h = 1e-5
    try:
        lo = _rho(tr, curve, theta - h, row).eigenvalues
        hi = _rho(tr, curve, theta + h, row).eigenvalues
        k = float(_rho(tr, curve, theta, row).eigenvalues[0])
    except QfgError:
        return total, 0.0
    dk = float(hi[0] - lo[0]) / (2 * h)
    if not (0.0 < k <= 0.5):
        return total, 0.0
    transverse = dk * dk / (k * (1.0 - k))
    return max(total - transverse, 0.0), min(transverse, total)


def _state(tr: Tracer, scenario, theta: float, row):
    rho = _rho(tr, scenario.curve, theta, row)
    mode = scenario.options.mode
    with tr.span(f"sld.differentiate_curve.{mode}", row):
        drho = differentiate_curve(scenario.curve, theta, mode=mode, h=scenario.options.fd_step)
    return rho, drho


def _probes(tr: Tracer, rho, drho, row):
    tag, tr.tag = tr.tag, tr.tag or "probe"
    try:
        with tr.span("linalg.DensityOp", row):
            DensityOp(rho.matrix)
        with tr.span(f"linalg.herm_eigen.d{rho.dim}", row):
            herm_eigen(rho.matrix)
        with tr.span(f"sld.sld_solve.d{rho.dim}", row):
            sld_solve(rho, drho)
    finally:
        tr.tag = tag


def _scan_row(tr: Tracer, scenario, theta: float, row) -> str:
    rho, drho = _state(tr, scenario, theta, row)
    with tr.span("fisher.quantum_fisher", row):
        total = quantum_fisher(rho, drho)
    sphere, transverse = _qfi_split(tr, scenario.curve, theta, total, row)
    povm = scenario.povm
    if povm is None:
        tr.sld_calls += tr.tag == ""
        try:
            with tr.span("optimize.sld_eigenbasis_povm", row):
                povm = sld_eigenbasis_povm(rho, drho)
        except DegenerateSld:
            tr.sld_degenerate += tr.tag == ""
    cfi = 0.0
    if povm is not None:
        with tr.span("fisher.classical_fisher", row):
            cfi = classical_fisher(rho, drho, povm)
    fields = []
    for value in (theta, cfi, sphere, transverse, total):
        with tr.span("serialize.format_float", row):
            fields.append(format_float(value))
    _probes(tr, rho, drho, row)
    return ",".join(fields)


def replay(tr: Tracer, cmd, path: str) -> list[str]:
    """Replay one scan command's work through public layer calls; return its CSV rows."""
    rows = []
    with tr.span("cli.command", (cmd.index, None)):
        with tr.span("scenario.load_scenario", (cmd.index, None)):
            scenario = load_scenario(path)
        for i, theta in enumerate(cmd.thetas):
            row = (cmd.index, i)
            with tr.span("cli.row", row):
                rows.append(_scan_row(tr, scenario, theta, row))
    return rows


def _self_times(records) -> list[float]:
    self_t = [r[6] - r[5] for r in records]
    for r in records:
        if r[1] is not None:
            self_t[r[1]] -= r[6] - r[5]
    return self_t


def layer_metrics(tr: Tracer, overhead: list[float], scale: float) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (see the module docstring).

    Times are multiplied by ``scale``, the run's factor to nominal machine speed.
    """
    records = tr.records
    self_t = _self_times(records)
    durations: dict[str, list[float]] = {}
    for r in records:
        durations.setdefault(r[2], []).append(r[6] - r[5])
    metrics = {}
    for metric, names, unit in PER_CALL:
        samples = [d for name in names for d in durations.get(name, ())]
        metrics[metric] = statistics.median(samples) * unit * scale
    layer_self = dict.fromkeys(LAYERS, 0.0)
    replay_layers = 0.0
    for r, s in zip(records, self_t):
        layer = r[2].split(".", 1)[0]
        if r[4] in ACCOUNTED:
            layer_self[layer] += s
        if r[4] == "" and layer != "cli":
            replay_layers += s
    total = sum(layer_self.values())
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] * scale
        metrics[f"{layer}.share"] = layer_self[layer] / total
    cli_main = sum(r[6] - r[5] for r in records if r[4] == "main")
    metrics["cli.unattributed_share"] = (cli_main - replay_layers) / cli_main
    metrics["sld.degenerate_share"] = tr.sld_degenerate / tr.sld_calls if tr.sld_calls else 0.0
    metrics["bench.trace_overhead_share"] = statistics.median(overhead)
    return metrics
