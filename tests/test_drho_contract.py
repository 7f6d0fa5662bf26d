"""The one drho contract: every public entry point checks a caller's drho once, the kernels trust it.

A valid drho at a d-dimensional rho is a finite square matrix, Hermitian
within HERMITIAN_RTOL, of dimension d and traceless (``sld.require_direction``).
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import qfg.fisher
import qfg.linalg
import qfg.optimize
import qfg.sld
from qfg import cli
from qfg import scan as scan_module
from qfg.errors import DegenerateSld, QfgError
from qfg.fisher import Povm, classical_fisher, fisher_tensor_general, quantum_fisher
from qfg.linalg import PAULI_X, PAULI_Z, DensityOp
from qfg.optimize import attainability_check, maximize_cfi, pair_outcomes, sld_eigenbasis_povm
from qfg.scenario import parse_scenario
from qfg.sld import ANALYTIC, FD, differentiate_curve, sld_solve

RHO = DensityOp(np.diag([0.3, 0.7]))
DRHO = 0.2 * PAULI_X + 0.1 * PAULI_Z

ENTRY_POINTS = {
    "sld_solve": lambda rho, d: sld_solve(rho, d),
    "quantum_fisher": lambda rho, d: quantum_fisher(rho, d),
    "fisher_tensor_general": lambda rho, d: fisher_tensor_general(rho, DRHO, d),
    "sld_eigenbasis_povm": lambda rho, d: sld_eigenbasis_povm(rho, d),
    "attainability_check": lambda rho, d: attainability_check(rho, d, np.diag([1.0, 0.0])),
    "classical_fisher": lambda rho, d: classical_fisher(rho, d, Povm(pair_outcomes([0, 0, 1]))),
    "maximize_cfi": lambda rho, d: maximize_cfi(rho, d),
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


def _count_calls(monkeypatch, name, owner=qfg.linalg):
    """Count calls of owner.<name>, through every qfg module that imported it."""
    original = getattr(owner, name)
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


def _count_states(monkeypatch):
    """The row counts of the DensityStacks built from now on, by either constructor (every module shares the class)."""
    stack = qfg.linalg.DensityStack
    original, lifted = stack.__init__, stack.from_eigenpairs
    built = []

    def counted(self, matrices):
        built.append(len(matrices))
        original(self, matrices)

    def counted_lift(cls, matrices, eigenvalues, eigenvectors):
        built.append(len(matrices))
        return lifted(matrices, eigenvalues, eigenvectors)

    monkeypatch.setattr(stack, "__init__", counted)
    monkeypatch.setattr(stack, "from_eigenpairs", classmethod(counted_lift))
    return built


FIXTURES = Path(__file__).parent / "fixtures"
CURVES = {
    "great_circle_pure": {"family": "great_circle_pure", "phase": 0.3},
    "sphere_curve": {"family": "sphere_curve", "k": 0.25,
                     "path": {"type": "linear", "z0": [0.2, 0.1], "velocity": [1, 0.5]}},
    "transverse_curve": {"family": "transverse_curve", "z": [0.3, 0.1],
                         "path": {"type": "linear", "k0": 0.1, "rate": 0.1}},
    "pure_qdit_coeffs": {"family": "pure_qdit_coeffs", "a": [[0, 0.3], [0.5, 0], [0, 0.2]]},
    "table": {"family": "table", "samples": [
        {"theta": 0.0, "rho": [[[0.7, 0], [0.1, 0.05]], [[0.1, -0.05], [0.3, 0]]]},
        {"theta": 1.0, "rho": [[[0.4, 0], [0, 0.1]], [[0, -0.1], [0.6, 0]]]},
    ]},
}


@pytest.mark.parametrize("family, mode", [(family, mode) for family in CURVES for mode in (ANALYTIC, FD)])
def test_scan_chunk_builds_each_state_once(monkeypatch, family, mode):
    # rho(theta) is the chunk's one checked stack: a finite difference and a table's split take the
    # curve's matrices at theta +- h unchecked
    scenario = parse_scenario({"curve": CURVES[family], "theta0": 0.0})
    thetas = np.linspace(0.2, 0.8, 64)
    scan_module.scan_rows(scenario, thetas, mode, 1e-5)  # warm: the curve's cached properties
    built = _count_states(monkeypatch)
    checks = _count_calls(monkeypatch, "hermitian_part")
    scan_module.scan_rows(scenario, thetas, mode, 1e-5)
    assert (built, len(checks)) == ([len(thetas)], 1)


@pytest.mark.parametrize("family, mode", [(family, mode) for family in CURVES for mode in (ANALYTIC, FD)])
def test_scan_chunk_walks_its_curve_once(monkeypatch, family, mode):
    # one evaluation of the family's formula feeds the states, drho and the split: a pure flow's tangent
    # is A rho - rho A of the chunk's states, and a table walks theta and theta +- h together in either mode
    scenario = parse_scenario({"curve": CURVES[family], "theta0": 0.0})
    thetas = np.linspace(0.2, 0.8, 64)
    scan_module.scan_rows(scenario, thetas, mode, 1e-5)  # warm: the curve's cached properties
    flows = _count_calls(monkeypatch, "_pure_flow", owner=qfg.sld)
    table_walk = qfg.sld.TableCurve.rho_matrices
    walks = []
    monkeypatch.setattr(qfg.sld.TableCurve, "rho_matrices",
                        lambda curve, ts: walks.append(len(ts)) or table_walk(curve, ts))
    scan_module.scan_rows(scenario, thetas, mode, 1e-5)
    pure = family in ("great_circle_pure", "pure_qdit_coeffs")
    assert len(flows) == pure
    assert walks == ([3 * len(thetas)] if family == "table" else [])


def test_eval_qfi_builds_the_state_once(monkeypatch, capsys):
    built = _count_states(monkeypatch)
    assert cli.main(["eval", "--scenario", str(FIXTURES / "qdit_d3.json"), "--quantity", "qfi"]) == 0
    assert built == [1]


@pytest.mark.parametrize("command", ["eval", "optimize"])
@pytest.mark.parametrize("family, mode", [(family, mode) for family in CURVES for mode in (ANALYTIC, FD)])
def test_command_walks_its_curve_once(monkeypatch, tmp_path, capsys, command, family, mode):
    # rho and drho at theta0 come from one walk: one flow of a pure family, one call of any other family's
    # matrices (at theta0 and, in fd mode or for a table, at theta0 +- h)
    payload = {"curve": CURVES[family], "theta0": 0.5}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    flows = _count_calls(monkeypatch, "_pure_flow", owner=qfg.sld)
    family_class = type(parse_scenario(payload).curve)
    evaluate, walks = family_class.rho_matrices, []
    monkeypatch.setattr(family_class, "rho_matrices", lambda curve, ts: walks.append(len(ts)) or evaluate(curve, ts))
    argv = [command, "--scenario", str(path), "--mode", mode] + (["--quantity", "qfi"] if command == "eval" else [])
    # the projective optimizer takes qubits only, so it fails on the d = 3 flow after its walk
    assert cli.main(argv) == (3 if (command, family) == ("optimize", "pure_qdit_coeffs") else 0)
    assert len(flows) + len(walks) == 1


def test_optimize_checks_drho_once_and_solves_once(monkeypatch, capsys):
    # one check builds rho, one checks drho; maximize_cfi's SLD gives the printed qfi as well
    checks = _count_calls(monkeypatch, "hermitian_part")
    solves = _count_calls(monkeypatch, "sld_solve_stack", owner=qfg.sld)
    assert cli.main(["optimize", "--scenario", str(FIXTURES / "transverse_k025.json")]) == 0
    assert (len(checks), len(solves)) == (2, 1)


def test_quantum_fisher_checks_once(monkeypatch):
    calls = _count_calls(monkeypatch, "hermitian_part")
    quantum_fisher(RHO, DRHO)
    assert len(calls) == 1


def test_maximize_cfi_checks_once(monkeypatch):
    checks = _count_calls(monkeypatch, "hermitian_part")
    eighs = _count_calls(monkeypatch, "eigh")
    maximize_cfi(RHO, DRHO)
    assert (len(checks), len(eighs)) == (1, 0)


def test_attainability_check_checks_each_input_once_and_solves_once(monkeypatch):
    # drho is checked by sld_solve and m once; the one eigensolve is m's, rho's root reads its spectrum
    checks = _count_calls(monkeypatch, "hermitian_part")
    solves = _count_calls(monkeypatch, "sld_solve_stack", owner=qfg.sld)
    eighs = _count_calls(monkeypatch, "eigh")
    attainability_check(RHO, DRHO, np.diag([1.0, 0.0]))
    assert (len(checks), len(solves), len(eighs)) == (2, 1, 1)


def _pure_curve(d):
    return {"family": "pure_qdit_coeffs", "a": [[0.0, 0.3]] + [[0.5 / j, 0.1 * j] for j in range(1, d)]}


def _table_curve(spectra):
    """Two samples U diag(w) U^dag at theta 0 and 1, in one seeded frame U: they share their support."""
    d = len(spectra[0])
    rng = np.random.default_rng(d)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    samples = []
    for theta, w in zip((0.0, 1.0), spectra):
        m = (u * w) @ u.conj().T
        samples.append({"theta": theta, "rho": [[[x.real, x.imag] for x in row] for row in (m + m.conj().T) / 2]})
    return {"family": "table", "samples": samples}


@pytest.mark.parametrize("mode", [ANALYTIC, FD])
@pytest.mark.parametrize("curve, eigensolves", [
    (CURVES["sphere_curve"], 0),
    ({"family": "sphere_curve", "k": 0.4, "path": {"type": "linear", "z0": [-3, 2], "velocity": [5, -1]}}, 0),
    (CURVES["transverse_curve"], 0),
    ({"family": "transverse_curve", "z": [0.3, -2], "chart": "south",
      "path": {"type": "linear", "k0": 0.2, "rate": 0.2}}, 0),
    ({"family": "transverse_curve", "path": {"type": "linear", "k0": 0.45, "rate": -0.2}}, 0),
    (CURVES["great_circle_pure"], 0),
    (CURVES["table"], 2),
], ids=["sphere", "sphere-far", "transverse-north", "transverse-south", "transverse-pole", "great-circle", "table"])
def test_no_povm_qubit_chunk_solves_no_sld_eigenproblem(monkeypatch, curve, eigensolves, mode):
    # a qubit chunk measures along its SLDs' Bloch axes, with no eigensolve: a chart or pure chunk calls
    # eigh for nothing, a d = 2 table twice, for its states and for the spectra of its split at theta +- h
    scenario = parse_scenario({"curve": curve, "theta0": 0.5})
    thetas = np.linspace(0.1, 0.9, 33)
    scan_module.scan_rows(scenario, thetas, mode, 1e-5)  # warm: the curve's cached properties
    calls = _count_calls(monkeypatch, "eigh")
    rows = scan_module.scan_rows(scenario, thetas, mode, 1e-5)
    assert len(calls) == eigensolves
    assert (rows[:, 1] > 0.0).all()


@pytest.mark.parametrize("d", [4, 6, 8])
def test_all_degenerate_chunk_measures_no_sld_eigenbasis(monkeypatch, d):
    # a pure state's SLD, 2 drho, has rank 2, so at d >= 4 every row's spectrum repeats 0: rho's rank
    # says so, and the cfi of each row is 0 with no SLD eigensolve, no eigenprojector and no classical sum
    scenario = parse_scenario({"curve": _pure_curve(d), "theta0": 0.0})
    thetas = np.linspace(-0.5, 0.5, 32)
    eigensolves = _count_calls(monkeypatch, "sld_eigenbasis", owner=qfg.optimize)
    projectors = _count_calls(monkeypatch, "eigenprojector", owner=qfg.optimize)
    sums = _count_calls(monkeypatch, "classical_fisher_stack", owner=qfg.fisher)
    rows = scan_module.scan_rows(scenario, thetas, ANALYTIC, 1e-5)
    assert (eigensolves, projectors, sums) == ([], [], [])
    for theta, row in zip(thetas, rows):
        # the one-row path: sld_eigenbasis_povm finds no unique eigenbasis, and the scan prints cfi 0
        rho = scenario.curve.rho_at(float(theta))
        with pytest.raises(DegenerateSld):
            sld_eigenbasis_povm(rho, differentiate_curve(scenario.curve, float(theta)))
        assert row[1] == 0.0 and not np.signbit(row[1])
        assert row[4] > 0.0


@pytest.mark.parametrize("curve, mode, eigensolves", [
    (_table_curve([[0.3, 0.7, 0, 0, 0, 0], [0.6, 0.4, 0, 0, 0, 0]]), FD, 0),
    (_pure_curve(3), ANALYTIC, 1),
    (_table_curve([[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]]), FD, 1),
], ids=["rank-2-table-d6", "pure-d3", "full-rank-table-d4"])
def test_rank_decides_whether_a_chunk_solves_for_the_sld_eigenbasis(monkeypatch, curve, mode, eigensolves):
    # a rank-2 state at d = 6 leaves a 4-dimensional kernel, on which its SLD is 0: that eigenvalue
    # repeats, so the chunk needs no eigensolve; at d = 3 and at full rank rho's rank decides nothing
    scenario = parse_scenario({"curve": curve, "theta0": 0.5})
    thetas = np.linspace(0.1, 0.9, 17)
    calls = _count_calls(monkeypatch, "sld_eigenbasis", owner=qfg.optimize)
    rows = scan_module.scan_rows(scenario, thetas, mode, 1e-5)
    assert len(calls) == eigensolves
    assert (rows[:, 1] > 0.0).any() == bool(eigensolves)
    for theta, row in zip(thetas, rows):
        # every row is the one-theta chain: the SLD eigenbasis measurement, or cfi +0 where it is not unique
        rho = scenario.curve.rho_at(float(theta))
        drho = differentiate_curve(scenario.curve, float(theta), mode, 1e-5)
        try:
            cfi = classical_fisher(rho, drho, sld_eigenbasis_povm(rho, drho))
        except DegenerateSld:
            assert eigensolves == 0
            cfi = 0.0
        assert row[1] == cfi and np.signbit(row[1]) == np.signbit(cfi)
