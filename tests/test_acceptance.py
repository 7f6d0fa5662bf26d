"""Acceptance criteria, one test per criterion.

Each test runs the corresponding self-certification suite at the tolerances
stated there and prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure). Criteria with runtime budgets assert them.
"""

import time

import pytest

from qfg import verify


#: Checks each suite reports, so that a rewrite cannot silently drop one.
CHECK_COUNTS = {
    "sld-residual": 3,
    "bound-chain": 2,
    "closed-forms": 2,
    "mixing-suppression": 1,
    "s3-identity": 1,
    "tensor-identities": 6,
    "gkks-relation": 2,
    "optimizer-attainment": 4,
    "attainability-soundness": 3,
    "finite-difference": 3,
    "wavefunction": 2,
    "cli-determinism": 6,
}


def run_suite(number, name, max_seconds=None):
    start = time.perf_counter()
    checks = verify.SUITES[name]()
    elapsed = time.perf_counter() - start
    assert len(checks) == CHECK_COUNTS[name], [c.name for c in checks]
    ok = all(c.passed for c in checks)
    if max_seconds is not None:
        ok = ok and elapsed <= max_seconds
    line = f"{'PASS' if ok else 'FAIL'} criterion {number:2d} [{name}] ({elapsed:.2f}s)"
    for check in checks:
        line += f"\n      {'ok ' if check.passed else 'FAIL'} {check.name}: {check.detail}"
    print(line)
    assert all(c.passed for c in checks), [c for c in checks if not c.passed]
    if max_seconds is not None:
        assert elapsed <= max_seconds, f"{name} took {elapsed:.2f}s > {max_seconds}s"


def test_criterion_01_sld_residual():
    run_suite(1, "sld-residual", max_seconds=0.25)


def test_criterion_02_bound_chain():
    run_suite(2, "bound-chain", max_seconds=0.25)


def test_criterion_03_closed_forms():
    run_suite(3, "closed-forms", max_seconds=0.25)


def test_criterion_04_mixing_suppression():
    run_suite(4, "mixing-suppression", max_seconds=0.25)


def test_criterion_05_s3_identity():
    run_suite(5, "s3-identity")


def test_criterion_06_fisher_tensor():
    run_suite(6, "tensor-identities", max_seconds=0.25)


def test_criterion_07_gkks_relation():
    run_suite(7, "gkks-relation")


def test_criterion_08_optimizer_attainment():
    run_suite(8, "optimizer-attainment", max_seconds=0.25)


def test_criterion_09_attainability_soundness():
    run_suite(9, "attainability-soundness", max_seconds=0.25)


def test_criterion_10_finite_differences():
    run_suite(10, "finite-difference")


def test_criterion_11_wavefunction():
    run_suite(11, "wavefunction")


def test_criterion_12_cli_determinism():
    run_suite(12, "cli-determinism")


def test_all_suites_registered():
    assert len(verify.SUITES) == 12
    assert list(verify.SUITES) == list(CHECK_COUNTS)
    assert sum(CHECK_COUNTS.values()) == 35


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_output_is_deterministic(name):
    first = verify.SUITES[name]()
    second = verify.SUITES[name]()
    assert first == second
