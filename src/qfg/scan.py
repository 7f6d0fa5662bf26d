"""Batched evaluation of a scan: the Fisher information along a theta grid.

A scan evaluates the grid in chunks of at most CHUNK_ROWS thetas. Each chunk
is one pass over stacked ``(n, d, d)`` arrays: rho and drho along the curve,
the SLD, the QFI and its (sphere, transverse) split, and the classical Fisher
information of the scenario's POVM or, without one, of the SLD eigenbasis
(0 where the SLD spectrum is degenerate). The single-theta functions of the
package are the one-row case of the same kernels, so every row equals, bit
for bit, what those functions give for its theta.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import QfgError
from .fisher import classical_fisher_stack, qfi_split, quantum_fisher_of_sld
from .optimize import eigenprojector, sld_eigenbasis
from .scenario import Scenario
from .sld import differentiate_stack, sld_solve_stack

#: Rows per chunk; bounds the arrays a scan holds at once.
CHUNK_ROWS = 2048
COLUMNS = ("theta", "cfi", "qfi_sphere", "qfi_transverse", "qfi_total")


def theta_grid(lo: float, hi: float, count: int, start: int, stop: int) -> np.ndarray:
    """Points start..stop-1 of the inclusive grid of ``count`` points from lo to hi."""
    if count == 1:
        return np.array([lo])
    return lo + (hi - lo) * np.arange(start, stop, dtype=float) / (count - 1)


def scan_rows(scenario: Scenario, thetas: np.ndarray, mode: str, h: float) -> np.ndarray:
    """The rows (theta, cfi, qfi_sphere, qfi_transverse, qfi_total) at each theta."""
    curve = scenario.curve
    rho = curve.rho_stack(thetas)
    drho = differentiate_stack(curve, thetas, mode, h)
    ell = sld_solve_stack(rho, drho)
    total = quantum_fisher_of_sld(rho, ell)
    sphere, transverse = qfi_split(curve, rho, thetas, h, total)
    if scenario.povm is not None:
        cfi = classical_fisher_stack(rho, drho, scenario.povm.stack[:, None])
    else:
        _, v, degenerate = sld_eigenbasis(ell)
        outcomes = (eigenprojector(v, i) for i in range(rho.dim))
        cfi = np.where(degenerate, 0.0, classical_fisher_stack(rho, drho, outcomes))
    return np.column_stack([thetas, cfi, sphere, transverse, total])


def scan(scenario: Scenario, lo: float, hi: float, count: int, mode: str, h: float) -> Iterator[np.ndarray]:
    """Yield the rows of the ``count``-point grid from lo to hi, one chunk at a time.

    A chunk that fails raises the error of its first failing row, the error
    that evaluating its rows one at a time in order would raise; chunks
    before it have been yielded.
    """
    for start in range(0, count, CHUNK_ROWS):
        thetas = theta_grid(lo, hi, count, start, min(count, start + CHUNK_ROWS))
        try:
            rows = scan_rows(scenario, thetas, mode, h)
        except QfgError:
            # a chunk checks stage by stage, so its error may belong to a later row
            for i in range(len(thetas)):
                scan_rows(scenario, thetas[i : i + 1], mode, h)
            raise
        yield rows
