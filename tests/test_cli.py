"""CLI integration tests: golden files, exit codes, error mapping, determinism."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import qfg.errors as errors
from qfg import cli, verify

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fixture(name):
    return str(FIXTURES / name)


GOLDEN_COMMANDS = [
    ("eval_transverse_qfi.json", ["eval", "--scenario", fixture("transverse_k025.json"), "--quantity", "qfi"]),
    ("eval_transverse_sld.json", ["eval", "--scenario", fixture("transverse_k025.json"), "--quantity", "sld"]),
    ("eval_degenerate_qfi.json", ["eval", "--scenario", fixture("degenerate_k05.json"), "--quantity", "qfi"]),
    ("eval_great_circle_cfi.json", ["eval", "--scenario", fixture("great_circle.json"), "--quantity", "cfi"]),
    ("eval_wavefunction_qfi.json", ["eval", "--scenario", fixture("wavefunction.json"), "--quantity", "qfi"]),
    ("eval_qdit_qfi.json", ["eval", "--scenario", fixture("qdit_d3.json"), "--quantity", "qfi"]),
    ("eval_sphere_tensor.json", ["eval", "--scenario", fixture("sphere_k025.json"), "--quantity", "tensor"]),
    ("tensor_sphere.json", ["tensor", "--scenario", fixture("sphere_k025.json"), "--v", "1,0", "--v2", "0,1"]),
    ("scan_sphere.csv", ["scan", "--scenario", fixture("sphere_k025.json"), "--param", "theta", "--range", "0:1:5"]),
    ("scan_transverse.csv", ["scan", "--scenario", fixture("transverse_k025.json"), "--param", "theta", "--range", "0.1:0.4:4"]),
    ("optimize_transverse.json", ["optimize", "--scenario", fixture("transverse_k025.json")]),
    ("optimize_great_circle.json", ["optimize", "--scenario", fixture("great_circle.json"), "--grid-n", "512"]),
]


class TestGoldenFiles:
    @pytest.mark.parametrize("golden_name, argv", GOLDEN_COMMANDS, ids=[g for g, _ in GOLDEN_COMMANDS])
    def test_matches_golden(self, golden_name, argv):
        code, out, err = run_cli(*argv)
        assert code == 0, err
        assert out == (GOLDEN / golden_name).read_text()

    @pytest.mark.parametrize("golden_name, argv", GOLDEN_COMMANDS[:6], ids=[g for g, _ in GOLDEN_COMMANDS[:6]])
    def test_byte_identical_across_runs(self, golden_name, argv):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second


class TestKnownValues:
    def test_transverse_qfi_value(self):
        code, out, _ = run_cli("eval", "--scenario", fixture("transverse_k025.json"), "--quantity", "qfi")
        assert code == 0
        assert json.loads(out)["qfi"] == pytest.approx(16 / 3, abs=1e-9)

    def test_degenerate_qfi_zero(self):
        _, out, _ = run_cli("eval", "--scenario", fixture("degenerate_k05.json"), "--quantity", "qfi")
        assert json.loads(out)["qfi"] == 0.0

    def test_wavefunction_pair(self):
        _, out_q, _ = run_cli("eval", "--scenario", fixture("wavefunction.json"), "--quantity", "qfi")
        _, out_c, _ = run_cli("eval", "--scenario", fixture("wavefunction.json"), "--quantity", "cfi")
        assert json.loads(out_q)["qfi"] == pytest.approx(1.25)
        assert json.loads(out_c)["cfi"] == pytest.approx(1.0)

    def test_tensor_reference(self):
        _, out, _ = run_cli("tensor", "--scenario", fixture("sphere_k025.json"), "--v", "1,0", "--v2", "0,1")
        data = json.loads(out)
        assert data["sym"] == pytest.approx(0.0)
        assert data["antisym"] == pytest.approx(-0.5)

    def test_optimize_fields(self):
        _, out, _ = run_cli("optimize", "--scenario", fixture("transverse_k025.json"))
        data = json.loads(out)
        assert set(data) == {"n", "cfi", "qfi", "gap", "degenerate"}
        assert data["cfi"] == pytest.approx(16 / 3, abs=1e-6)
        assert data["gap"] == pytest.approx(0.0, abs=1e-6)
        assert data["degenerate"] is False

    def test_scan_to_file(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            "scan", "--scenario", fixture("sphere_k025.json"), "--range", "0:1:3", "--out", str(out_path)
        )
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("theta,cfi,qfi_sphere,qfi_transverse,qfi_total")

    def test_fd_mode_flag(self):
        _, analytic, _ = run_cli("eval", "--scenario", fixture("transverse_k025.json"), "--quantity", "qfi")
        _, fd, _ = run_cli(
            "eval", "--scenario", fixture("transverse_k025.json"), "--quantity", "qfi", "--mode", "fd"
        )
        assert json.loads(fd)["qfi"] == pytest.approx(json.loads(analytic)["qfi"], abs=1e-6)


def error_kind(err_text):
    return json.loads(err_text)["error"]["kind"]


class TestErrorMapping:
    def test_missing_file_exit_2(self):
        code, _, err = run_cli("eval", "--scenario", "/no/such/file.json", "--quantity", "qfi")
        assert code == 2 and error_kind(err) == "parse"

    def test_invalid_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        code, _, err = run_cli("eval", "--scenario", str(bad), "--quantity", "qfi")
        assert code == 2 and error_kind(err) == "parse"

    def test_k_range_exit_2(self, tmp_path):
        bad = tmp_path / "bad_k.json"
        bad.write_text(json.dumps({
            "curve": {"family": "sphere_curve", "k": 0.7, "path": {"z0": [0, 0], "velocity": [1, 0]}},
            "theta0": 0.0,
        }))
        code, _, err = run_cli("eval", "--scenario", str(bad), "--quantity", "qfi")
        assert code == 2 and error_kind(err) == "invariant"
        assert "k=0.7" in json.loads(err)["error"]["detail"]

    def test_povm_completeness_exit_2(self, tmp_path):
        bad = tmp_path / "bad_povm.json"
        bad.write_text(json.dumps({
            "curve": {"family": "great_circle_pure"},
            "theta0": 0.0,
            "povm": {"elements": [
                [[[0.99, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[[0, 0], [0, 0]], [[0, 0], [0.99, 0]]],
            ]},
        }))
        code, _, err = run_cli("eval", "--scenario", str(bad), "--quantity", "cfi")
        assert code == 2 and error_kind(err) == "invariant"
        assert "defect" in json.loads(err)["error"]["detail"]

    def test_cfi_without_povm_exit_2(self):
        code, _, err = run_cli("eval", "--scenario", fixture("sphere_k025.json"), "--quantity", "cfi")
        assert code == 2 and error_kind(err) == "invariant"

    def test_domain_error_exit_3(self, tmp_path):
        # transverse curve evaluated where k(theta) > 1/2 fails numerically
        bad = tmp_path / "walk_off.json"
        bad.write_text(json.dumps({
            "curve": {"family": "transverse_curve", "path": {"k0": 0.0, "rate": 1.0}},
            "theta0": 0.8,
        }))
        code, _, err = run_cli("eval", "--scenario", str(bad), "--quantity", "qfi")
        assert code == 3 and error_kind(err) == "domain"

    def test_table_resolution_exit_3(self, tmp_path):
        rho = [[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps({
            "curve": {"family": "table", "samples": [
                {"theta": 0.0, "rho": rho}, {"theta": 1.0, "rho": rho},
            ]},
            "theta0": 0.5,
        }))
        code, _, err = run_cli("eval", "--scenario", str(bad), "--quantity", "qfi")
        assert code == 3 and error_kind(err) == "table-resolution"

    def test_dimension_unsupported_exit_3(self):
        code, _, err = run_cli("optimize", "--scenario", fixture("qdit_d3.json"))
        assert code == 3 and error_kind(err) == "dimension-unsupported"

    def test_tensor_needs_sphere_point_exit_2(self):
        code, _, err = run_cli("tensor", "--scenario", fixture("great_circle.json"), "--v", "1", "--v2", "1")
        assert code == 2 and error_kind(err) == "invariant"

    def test_tensor_at_infinity_exit_2(self):
        code, _, err = run_cli("tensor", "--scenario", fixture("transverse_k025.json"), "--v", "1", "--v2", "1")
        assert code == 2 and error_kind(err) == "invariant"

    def test_bad_range_exit_2(self):
        code, _, err = run_cli("scan", "--scenario", fixture("sphere_k025.json"), "--range", "0..1")
        assert code == 2 and error_kind(err) == "invariant"

    def test_bad_param_exit_2(self):
        code, _, err = run_cli(
            "scan", "--scenario", fixture("sphere_k025.json"), "--param", "phi", "--range", "0:1:3"
        )
        assert code == 2 and error_kind(err) == "invariant"

    def test_unknown_suite_exit_2(self):
        code, _, err = run_cli("verify", "--suite", "no-such-suite")
        assert code == 2 and error_kind(err) == "invariant"

    def test_bad_tangent_flag_exit_2(self):
        code, _, err = run_cli("tensor", "--scenario", fixture("sphere_k025.json"), "--v", "x", "--v2", "1")
        assert code == 2 and error_kind(err) == "invariant"


def write_scenario(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


TABLE = {
    "curve": {"family": "table", "samples": [
        {"theta": 0.0, "rho": [[[0.7, 0], [0.1, 0.05]], [[0.1, -0.05], [0.3, 0]]]},
        {"theta": 1.0, "rho": [[[0.4, 0], [0, 0.1]], [[0, -0.1], [0.6, 0]]]},
    ]},
    "theta0": 0.5,
    "options": {"mode": "fd"},
}


class TestScanErrors:
    """A scan failing inside the grid reports the first failing row's error, as row-by-row evaluation does."""

    @pytest.mark.parametrize("payload, argv, kind, detail", [
        (
            {"curve": {"family": "transverse_curve", "z": [0.3, 0.1],
                       "path": {"type": "linear", "k0": 0.25, "rate": 1.0}}, "theta0": 0.0},
            ["--range", "0:0.5:11"],
            "domain",
            "mixing weight k(theta=0.3) = 0.55 leaves [1e-09, 1/2]; rank-2 curves must keep their rank",
        ),
        # theta = 1.5 leaves the table first, but row theta = 1 fails earlier at theta + h
        (TABLE, ["--range", "0.5:1.5:3"], "table-resolution",
         "theta=1.00001 outside the tabulated range [0.0, 1.0]"),
        (TABLE, ["--range", "0:1:5"], "table-resolution",
         "theta=-1e-05 outside the tabulated range [0.0, 1.0]"),
        (TABLE, ["--range", "0.5:1.5:3", "--mode", "analytic"], "table-resolution",
         "tabulated curves support finite-difference derivatives only"),
    ])
    def test_first_failing_row_reported(self, tmp_path, payload, argv, kind, detail):
        code, out, err = run_cli("scan", "--scenario", write_scenario(tmp_path, payload), *argv)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": {"kind": kind, "detail": detail}}

    def test_earlier_chunks_stay_written(self, tmp_path, monkeypatch):
        from qfg import scan

        monkeypatch.setattr(scan, "CHUNK_ROWS", 4)
        path = write_scenario(tmp_path, TABLE)
        code, out, err = run_cli("scan", "--scenario", path, "--range", "0.5:1.5:11")
        assert code == 3 and json.loads(err)["error"]["detail"].startswith("theta=1.00001 ")
        _, head, _ = run_cli("scan", "--scenario", path, "--range", "0.5:0.9:5")
        # rows 0.5 .. 0.8 form the first chunk; the second chunk fails at theta = 1
        assert out == "".join(head.splitlines(keepends=True)[:5])

    def test_error_detail_with_control_characters_is_json(self, tmp_path):
        code, _, err = run_cli("eval", "--scenario", str(tmp_path / "a\nb\x01.json"), "--quantity", "qfi")
        assert code == 2
        assert "a\nb\x01.json" in json.loads(err)["error"]["detail"]


def test_table_split_uses_fd_step(tmp_path):
    h = 1e-3
    code, out, err = run_cli("scan", "--scenario", write_scenario(tmp_path, TABLE), "--range", "0.2:0.8:4",
                             "--fd-step", str(h))
    assert code == 0, err
    samples = [np.array([[complex(*x) for x in row] for row in s["rho"]]) for s in TABLE["curve"]["samples"]]

    def k_min(theta):  # smallest eigenvalue of the linearly interpolated table
        return np.linalg.eigvalsh((1 - theta) * samples[0] + theta * samples[1])[0]

    for line in out.splitlines()[1:]:
        theta, _, _, transverse, total = map(float, line.split(","))
        k = k_min(theta)
        dk = (k_min(theta + h) - k_min(theta - h)) / (2 * h)
        assert transverse == pytest.approx(min(dk * dk / (k * (1 - k)), total), rel=1e-9)


NINE = [[[1 / 9 if i == j else 0, 0] for j in range(9)] for i in range(9)]


class TestBoundaryInput:
    """Non-finite and out-of-range input fails at load or flag parsing with exit 2."""

    @pytest.mark.parametrize("payload", [
        {"curve": {"family": "great_circle_pure"}, "theta0": float("nan")},
        {"curve": {"family": "great_circle_pure"}, "theta0": float("inf")},
        {"curve": {"family": "great_circle_pure", "phase": float("nan")}, "theta0": 0.3},
        {"curve": {"family": "great_circle_pure"}, "theta0": 10**400},
        {"curve": {"family": "sphere_curve", "k": 0.25,
                   "path": {"z0": [float("-inf"), 0], "velocity": [1, 0]}}, "theta0": 0.0},
        {"curve": {"family": "pure_qdit_coeffs", "a": [[0, 0.1]] + [[0.1, 0]] * 8}, "theta0": 0.0},
        {"curve": {"family": "table", "samples": [{"theta": 0, "rho": NINE}, {"theta": 1, "rho": NINE}]},
         "theta0": 0.5, "options": {"mode": "fd"}},
    ], ids=["theta0-nan", "theta0-inf", "phase-nan", "theta0-overflow", "z0-inf", "qdit-d9", "table-d9"])
    def test_scenario_rejected_at_load(self, tmp_path, payload):
        code, out, err = run_cli("eval", "--scenario", write_scenario(tmp_path, payload), "--quantity", "qfi")
        assert (code, out) == (2, "")
        assert error_kind(err) in ("parse", "invariant")

    @pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"theta0": 1' + "0" * 5000 + "}"],
                             ids=["deep-nesting", "integer-digit-limit"])
    def test_unreadable_json_rejected(self, tmp_path, text):
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run_cli("eval", "--scenario", str(path), "--quantity", "qfi")
        assert (code, out, error_kind(err)) == (2, "", "parse")

    @pytest.mark.parametrize("argv", [
        ["eval", "--scenario", fixture("sphere_k025.json"), "--quantity", "qfi", "--fd-step", "nan"],
        ["eval", "--scenario", fixture("sphere_k025.json"), "--quantity", "qfi", "--fd-step", "inf"],
        ["scan", "--scenario", fixture("sphere_k025.json"), "--range", "nan:1:3"],
        ["scan", "--scenario", fixture("sphere_k025.json"), "--range=-1e308:1e308:3"],
        ["tensor", "--scenario", fixture("sphere_k025.json"), "--v", "nan,0", "--v2", "0,1"],
        ["optimize", "--scenario", fixture("great_circle.json"), "--grid-n", "100000000000000000000"],
        ["optimize", "--scenario", fixture("great_circle.json"), "--grid-n", "4"],
        ["optimize", "--scenario", fixture("great_circle.json"), "--refine-iters", "100000000000000000000"],
        ["optimize", "--scenario", fixture("great_circle.json"), "--refine-iters=-1"],
        ["scan", "--scenario", fixture("sphere_k025.json"), "--range", "-1:1:3"],
        ["optimize", "--scenario", fixture("great_circle.json"), "--grid-n", "abc"],
    ], ids=["fd-step-nan", "fd-step-inf", "range-nan", "range-overflow", "v-nan", "grid-n-huge", "grid-n-small",
            "refine-iters-huge", "refine-iters-negative", "range-read-as-flag", "grid-n-not-int"])
    def test_flag_rejected(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out, error_kind(err)) == (2, "", "invariant")

    @pytest.mark.parametrize("payload, argv", [
        ({"curve": {"family": "sphere_curve", "k": 0.25,
                    "path": {"type": "linear", "z0": [1e308, 0], "velocity": [1, 0]}}, "theta0": 0.0},
         ["tensor", "--v", "1,0", "--v2", "0,1"]),
        ({"grid": {"x": [0, 1], "p": [0.5, 0.5], "alpha": [0, 0], "dp": [-0.5, 0.5], "dalpha": [0, 1e308]}},
         ["eval", "--quantity", "qfi"]),
    ], ids=["tensor-z0-overflow", "wavefunction-dalpha-overflow"])
    def test_float_overflow_is_an_error_line(self, tmp_path, payload, argv):
        code, out, err = run_cli(argv[0], "--scenario", write_scenario(tmp_path, payload), *argv[1:])
        assert (code, out, error_kind(err)) == (3, "", "non-finite-result")

    def test_non_finite_result_is_an_error_line(self):
        code, out, err = run_cli(
            "tensor", "--scenario", fixture("sphere_k025.json"), "--v", "1e200,0", "--v2", "1e200,0"
        )
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": {"kind": "non-finite-result", "detail": "non-finite value inf cannot be serialized"}
        }


class TestVerifySubcommand:
    def test_single_suite_passes(self):
        code, out, _ = run_cli("verify", "--suite", "finite-difference")
        assert code == 0
        assert out.count("PASS") == 3
        assert out.strip().endswith("0 failed")

    def test_failure_exits_4(self, monkeypatch):
        def failing_suite():
            return [verify.Check("always fails", False, "synthetic")]

        monkeypatch.setitem(verify.SUITES, "synthetic-failure", failing_suite)
        code, out, _ = run_cli("verify", "--suite", "synthetic-failure")
        assert code == 4
        assert "FAIL" in out


class TestErrorCatalog:
    def test_every_error_kind_is_unique_and_mapped(self):
        kinds = {}
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, errors.QfgError):
                assert obj.exit_code in (2, 3), name
                if obj is errors.QfgError or obj is errors.InputError:
                    continue
                assert obj.kind not in kinds, f"duplicate kind {obj.kind}"
                kinds[obj.kind] = name
        # the documented catalog
        assert set(kinds.values()) >= {
            "ParseError",
            "InvariantViolation",
            "NonHermitianInput",
            "NotPositiveSemidefinite",
            "DimensionMismatch",
            "NotNormalized",
            "ChartSingularity",
            "DomainError",
            "TableResolutionError",
            "SupportMismatch",
            "InvalidPovm",
            "NotAPovm",
            "NotOrthogonal",
            "NotTangentForm",
            "ZeroVelocityCurve",
            "DegenerateSld",
            "DimensionUnsupported",
            "NonFiniteResult",
        }

    def test_input_errors_exit_2_module_errors_exit_3(self):
        assert errors.ParseError.exit_code == 2
        assert errors.InvariantViolation.exit_code == 2
        assert errors.SupportMismatch.exit_code == 3
        assert errors.DegenerateSld.exit_code == 3
