"""Seeded scenario generators for the benchmark workloads.

The seed decides every random parameter; the mix of curve families, modes
and dimensions is a fixed cycle, so every seed exercises the same
proportions and only the numbers change. Every command gets a scenario of
its own, so no invocation repeats an earlier one and a cache kept across
invocations gains nothing. qfg itself never sees the seed: it receives the
scenario JSON files written from these commands.

Rows per scan command:

* qubit-scan: 2000, the ``scan`` size ROADMAP.md names for the CLI benchmark;
* qudit-scan: 50. At the 2000-row size one d=8 table scan alone takes about
  a minute on the seed code (~30 rows/s), so a run would hold a few
  scenarios at most. The cost of a row at d >= 3 depends on the state (the
  Jacobi solver's sweep count), so a steady rate needs many distinct states:
  at 50 rows a 30 s run scans about 60 scenarios, seven whole cycles of the 8
  qudit slots. The per-command cost (argparse, ``load_scenario``, ~1 ms)
  stays under 1% of a 50-row scan (at least 0.1 s).

Domain limits follow the physics the program documents, not its speed:

* sphere curves keep k in [0.05, 0.45] and |z| <= 2 over the scan range;
* transverse curves keep k(theta) in [0.02, 0.48] over the scan range, far
  from ``RANK_GUARD`` even at the finite-difference points theta +- 1e-5;
* great circles are scanned inside (0.2, 2.9), where both z-basis outcomes
  have probability well above the 1e-12 exclusion cutoff;
* table endpoints are full rank (minimum eigenvalue >= 0.2 / d) and scans stay
  inside the single segment [0, 1] with a margin above the 1e-5 FD step.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

WORKLOADS = ("qubit-scan", "qudit-scan")

#: CSV rows per scan command (see the module docstring for the sizes).
SCAN_ROWS = {"qubit-scan": 2000, "qudit-scan": 50}
QUBIT_FAMILIES = ("sphere", "transverse-z", "transverse-inf", "great-circle")
#: (family, d) per qudit-scan slot: half pure, half table, every d.
QUDIT_SLOTS = tuple((family, d) for family in ("pure", "table") for d in (3, 4, 6, 8))
#: Commands in one pass of the fixed family/mode/dimension cycle. A qubit
#: cycle gives every family once by finite differences, in one command of four.
CYCLE = {"qubit-scan": 4 * len(QUBIT_FAMILIES), "qudit-scan": len(QUDIT_SLOTS)}
Z_BASIS = [
    [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
    [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
]


@dataclass(frozen=True)
class Command:
    """One ``qfg scan`` invocation: a scenario and its theta grid."""

    index: int
    kind: str
    scenario: dict
    scan: tuple[float, float, int]

    def argv(self, path: str) -> list[str]:
        lo, hi, n = self.scan
        # "=" keeps argparse from reading a negative lower end as an option
        return ["scan", "--scenario", path, f"--range={lo!r}:{hi!r}:{n}"]

    @property
    def thetas(self) -> list[float]:
        """The grid exactly as ``qfg scan`` computes it."""
        lo, hi, n = self.scan
        return [lo] if n == 1 else [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _cpx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _polar(rng, radius: float) -> complex:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return radius * complex(math.cos(angle), math.sin(angle))


def _sphere(rng):
    k = rng.uniform(0.05, 0.45)
    z0 = _polar(rng, rng.uniform(0.0, 1.0))
    v = _polar(rng, rng.uniform(0.3, 1.0))
    lo = rng.uniform(-0.5, 0.0)
    # |theta| <= 1 on [lo, lo + 1], so |z0 + v theta| <= 2
    curve = {"family": "sphere_curve", "k": k,
             "path": {"type": "linear", "z0": _cpx(z0), "velocity": _cpx(v)}}
    return curve, lo, lo + 1.0


def _transverse(rng, finite: bool):
    k_lo, k_hi = rng.uniform(0.02, 0.2), rng.uniform(0.3, 0.48)
    # k(theta) sweeps [k_lo, k_hi] over theta in [0, 1], in either direction
    k0, rate = (k_lo, k_hi - k_lo) if rng.random() < 0.5 else (k_hi, k_lo - k_hi)
    z = _cpx(_polar(rng, rng.uniform(0.0, 2.0))) if finite else "inf"
    curve = {"family": "transverse_curve", "z": z,
             "path": {"type": "linear", "k0": k0, "rate": rate}}
    return curve, 0.0, 1.0


def _great_circle(rng):
    curve = {"family": "great_circle_pure", "phase": rng.uniform(0.0, 2.0 * math.pi)}
    return curve, rng.uniform(0.2, 0.6), rng.uniform(2.5, 2.9)


def _qubit_curve(rng, family: str):
    if family == "sphere":
        return _sphere(rng)
    if family == "great-circle":
        return _great_circle(rng)
    return _transverse(rng, finite=family == "transverse-z")


def _mixed_state(rng, d: int) -> np.ndarray:
    """Full-rank density matrix: a Ginibre state mixed with 20% of I/d."""
    w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = w @ w.conj().T
    rho = 0.8 * rho / np.trace(rho).real + 0.2 * np.eye(d) / d
    return (rho + rho.conj().T) / 2


def _matrix_json(m: np.ndarray) -> list:
    return [[_cpx(complex(x)) for x in row] for row in m]


def _pure_coeffs(rng, d: int):
    g = rng.normal(size=d - 1) + 1j * rng.normal(size=d - 1)
    g *= rng.uniform(0.5, 1.0) / np.linalg.norm(g)
    a = [complex(0.0, rng.uniform(-0.5, 0.5))] + list(g)
    lo = rng.uniform(-1.0, 0.0)
    return {"family": "pure_qdit_coeffs", "a": [_cpx(x) for x in a]}, lo, lo + 1.0


def _table(rng, d: int):
    samples = [{"theta": t, "rho": _matrix_json(_mixed_state(rng, d))} for t in (0.0, 1.0)]
    return {"family": "table", "samples": samples}, rng.uniform(0.01, 0.1), rng.uniform(0.9, 0.99)


def _scenario(curve, theta0: float, fd: bool, povm: bool = False) -> dict:
    scenario = {"curve": curve, "theta0": theta0}
    if povm:
        scenario["povm"] = {"elements": Z_BASIS}
    if fd:
        scenario["options"] = {"mode": "fd"}
    return scenario


def _command(workload: str, index: int, rng, rows: int) -> Command:
    slot = index % CYCLE[workload]
    if workload == "qudit-scan":
        family, d = QUDIT_SLOTS[slot]
        if family == "pure":
            curve, lo, hi = _pure_coeffs(rng, d)
            kind, fd = f"pure-d{d}", False
        else:
            curve, lo, hi = _table(rng, d)
            kind, fd = f"table-d{d}", True
        return Command(index, kind, _scenario(curve, lo, fd), (lo, hi, rows))
    family = QUBIT_FAMILIES[slot % len(QUBIT_FAMILIES)]
    curve, lo, hi = _qubit_curve(rng, family)
    fd = slot // len(QUBIT_FAMILIES) == 3
    scenario = _scenario(curve, lo, fd, povm=family == "great-circle")
    return Command(index, family + ("-fd" if fd else ""), scenario, (lo, hi, rows))


def commands(workload: str, seed: int, stream: int = 0, rows: int | None = None) -> Iterator[Command]:
    """The seeded, endless command sequence of a workload, cycle after cycle.

    ``stream`` picks an independent sequence for the same seed (warm-up and
    fill calls use their own); ``rows`` overrides the workload's scan size.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), stream])
    rows = SCAN_ROWS[workload] if rows is None else rows
    for i in itertools.count():
        yield _command(workload, i, rng, rows)


def cycle(workload: str, seed: int, stream: int = 0, rows: int | None = None) -> list[Command]:
    """The first whole cycle of ``commands``."""
    return list(itertools.islice(commands(workload, seed, stream, rows), CYCLE[workload]))


def write_scenario(cmd: Command, directory: str) -> str:
    """Write the command's scenario file and return its path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"scenario-{cmd.index:05d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cmd.scenario, fh)
    return path
