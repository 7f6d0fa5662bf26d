"""Batched evaluation of a scan: the Fisher information along a theta grid.

A scan evaluates the grid in chunks of at most CHUNK_ROWS thetas. Each chunk
is one pass over stacked ``(n, d, d)`` arrays: rho and drho along the curve,
the SLD, the QFI and its (sphere, transverse) split, and the classical Fisher
information of the scenario's POVM or, without one, of the SLD eigenbasis (0
where the SLD spectrum is degenerate; ``optimize.sld_eigenbasis_cfi``). A
qubit chunk measures the pair on each SLD's Bloch axis
(``optimize.maximize_cfi_stack``), with no SLD eigensolve; so does a chunk
whose states' rank makes every SLD degenerate (``optimize.degenerate_by_rank``:
rho's kernel is over half the dimension, where L is 0, so L's eigenvalue 0
repeats; every pure chunk at d >= 4), which writes its 0. A pure chunk's
states take their eigenpairs from the Householder lift of psi
(``states.pure_projector_stack``), and a sphere or transverse chunk's from
its chart points (``states.chart_states``), with no eigensolve; a table
chunk's come from one batched ``eigh``. So a no-POVM sphere, transverse or
pure qubit chunk makes no eigensolve at all.

A chunk walks its curve once (``sld.walk_curve``, the one place that forms
drho): the family's formula is evaluated at theta and, where a stage reads
them, at theta + h and theta - h, in one call. That walk feeds every stage
that reads the curve:

* the states rho(theta), checked once, and no other state; a table's states
  must lie on the table;
* drho: the family's exact derivative (a pure flow's is A rho - rho A of
  those states), or the finite difference of the unchecked matrices at
  theta +- h;
* the QFI split (``fisher.qfi_split``): a table's reads the spectra of the
  matrices at theta +- h, in either mode, from the same walk; a step past a
  table's end follows the end segment, so a scan reaches both end points.

The curve decides what its walk holds, and ``optimize`` how a dimension is
measured; this module has no branch by family or dimension.
The single-theta functions of the package are the one-row case of the same
kernels, so every row equals, bit for bit, what those functions give for its
theta.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import QfgError
from .fisher import classical_fisher_stack, qfi_split, quantum_fisher_of_sld
from .optimize import sld_eigenbasis_cfi
from .scenario import Scenario
from .sld import sld_solve_stack, walk_curve

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
    rho, drho, stepped = walk_curve(curve, thetas, mode, h)
    ell = sld_solve_stack(rho, drho)
    total = quantum_fisher_of_sld(drho, ell)
    sphere, transverse = qfi_split(curve, rho, thetas, stepped, h, total)
    del stepped  # its last read: a table's split
    if scenario.povm is not None:
        cfi = classical_fisher_stack(rho, drho, scenario.povm.stack[:, None])
    else:
        cfi = sld_eigenbasis_cfi(rho, drho, ell)
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
