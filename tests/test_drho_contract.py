"""The one drho contract: every public entry point checks a caller's drho once, the kernels trust it.

A valid drho at a d-dimensional rho is a finite square matrix, Hermitian
within HERMITIAN_RTOL, of dimension d and traceless (``sld.require_direction``).
"""

import sys

import numpy as np
import pytest

import qfg.linalg
from qfg import scan as scan_module
from qfg.errors import QfgError
from qfg.fisher import classical_fisher, fisher_tensor_general, quantum_fisher
from qfg.linalg import PAULI_X, PAULI_Z, DensityOp
from qfg.optimize import attainability_check, maximize_cfi, projector_pair, sld_eigenbasis_povm
from qfg.scenario import parse_scenario
from qfg.sld import ANALYTIC, sld_solve

RHO = DensityOp(np.diag([0.3, 0.7]))
DRHO = 0.2 * PAULI_X + 0.1 * PAULI_Z

ENTRY_POINTS = {
    "sld_solve": lambda rho, d: sld_solve(rho, d),
    "quantum_fisher": lambda rho, d: quantum_fisher(rho, d),
    "fisher_tensor_general": lambda rho, d: fisher_tensor_general(rho, DRHO, d),
    "sld_eigenbasis_povm": lambda rho, d: sld_eigenbasis_povm(rho, d),
    "attainability_check": lambda rho, d: attainability_check(rho, d, np.diag([1.0, 0.0])),
    "classical_fisher": lambda rho, d: classical_fisher(rho, d, projector_pair([0, 0, 1])),
    "maximize_cfi": lambda rho, d: maximize_cfi(rho, d, grid_n=64, refine_iters=4),
}

BAD_DIRECTIONS = {
    "nan-entry": (np.array([[np.nan, 0.0], [0.0, 0.0]]), "non-hermitian-input"),
    "non-hermitian": (np.array([[0.0, 1.0], [0.0, 0.0]]), "non-hermitian-input"),
    "wrong-dimension": (np.diag([1.0, -1.0, 0.0]), "domain"),
    "non-traceless": (np.eye(2), "domain"),
}


@pytest.mark.parametrize("bad", BAD_DIRECTIONS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_entry_point_rejects_an_invalid_direction(entry, bad):
    drho, kind = BAD_DIRECTIONS[bad]
    with pytest.raises(QfgError) as info:
        ENTRY_POINTS[entry](RHO, drho)
    assert info.value.kind == kind


def _count_calls(monkeypatch, name):
    """Count calls of qfg.linalg.<name>, through every qfg module that imported it."""
    original = getattr(qfg.linalg, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "qfg" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_analytic_scan_chunk_checks_once(monkeypatch):
    scenario = parse_scenario({
        "curve": {"family": "sphere_curve", "k": 0.25,
                  "path": {"type": "linear", "z0": [0.2, 0.1], "velocity": [1, 0.5]}},
        "theta0": 0.0,
    })
    calls = _count_calls(monkeypatch, "hermitian_part")
    scan_module.scan_rows(scenario, np.linspace(0.0, 1.0, 2000), ANALYTIC, 1e-5)
    assert len(calls) == 1


def test_quantum_fisher_checks_once(monkeypatch):
    calls = _count_calls(monkeypatch, "hermitian_part")
    quantum_fisher(RHO, DRHO)
    assert len(calls) == 1


def test_maximize_cfi_checks_once(monkeypatch):
    checks = _count_calls(monkeypatch, "hermitian_part")
    eighs = _count_calls(monkeypatch, "eigh")
    maximize_cfi(RHO, DRHO, grid_n=64, refine_iters=4)
    assert (len(checks), len(eighs)) == (1, 0)
