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
    ("optimize_great_circle.json", ["optimize", "--scenario", fixture("great_circle.json")]),
    ("scan_table_d3.csv", ["scan", "--scenario", fixture("table_d3.json"), "--param", "theta", "--range", "0.1:0.9:9"]),
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


def test_parser_is_built_once_and_reused(monkeypatch):
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    argv = ["eval", "--scenario", fixture("transverse_k025.json"), "--quantity", "qfi"]
    first = run_cli(*argv)
    usage = run_cli(*argv[:3])  # --quantity missing
    with pytest.raises(SystemExit) as help_exit, redirect_stdout(io.StringIO()):
        cli.main(["scan", "--help"])
    # a usage error or --help on the reused parser leaves it as it was
    assert (first[0], usage[0], error_kind(usage[2]), help_exit.value.code) == (0, 2, "invariant", 0)
    assert run_cli(*argv) == first
    assert len(built) == 1


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
        # theta0 is on the table, but the scan's last state theta = 1.5 is not (a step theta +- h may leave it)
        rho = [[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps({
            "curve": {"family": "table", "samples": [
                {"theta": 0.0, "rho": rho}, {"theta": 1.0, "rho": rho},
            ]},
            "theta0": 1.0,
            "options": {"mode": "fd"},
        }))
        code, _, err = run_cli("scan", "--scenario", str(bad), "--range", "0.5:1.5:3")
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


RATE_1E200 = {"curve": {"family": "transverse_curve", "z": [0.3, 0.1],
                        "path": {"type": "linear", "k0": 0.25, "rate": 1e200}}, "theta0": 0.0}


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
        # a state off the table fails; row theta = 1 steps past the end along the end segment and passes
        (TABLE, ["--range", "0.5:1.5:3"], "table-resolution",
         "theta=1.5 outside the tabulated range [0.0, 1.0]"),
        (TABLE, ["--range=-0.5:0.5:3"], "table-resolution",
         "theta=-0.5 outside the tabulated range [0.0, 1.0]"),
        (TABLE, ["--range", "0.5:1.5:3", "--mode", "analytic"], "table-resolution",
         "theta=1.5 outside the tabulated range [0.0, 1.0]"),
        # the qfi rate^2 / (k (1 - k)) overflows: the row fails when it is formatted, before the header
        (RATE_1E200, ["--range", "0:0:1"], "non-finite-result", "non-finite value inf cannot be serialized"),
    ])
    def test_first_failing_row_reported(self, tmp_path, payload, argv, kind, detail):
        code, out, err = run_cli("scan", "--scenario", write_scenario(tmp_path, payload), *argv)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": {"kind": kind, "detail": detail}}

    def test_failing_first_chunk_writes_no_out_file(self, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, err = run_cli("scan", "--scenario", write_scenario(tmp_path, RATE_1E200), "--range", "0:0:1",
                                 "--out", str(out_path))
        assert (code, out, error_kind(err)) == (3, "", "non-finite-result")
        assert not out_path.exists()

    def test_earlier_chunks_stay_written(self, tmp_path, monkeypatch):
        from qfg import scan

        monkeypatch.setattr(scan, "CHUNK_ROWS", 4)
        path = write_scenario(tmp_path, TABLE)
        code, out, err = run_cli("scan", "--scenario", path, "--range", "0.5:1.5:11")
        assert code == 3 and json.loads(err)["error"]["detail"].startswith("theta=1.1 ")
        _, head, _ = run_cli("scan", "--scenario", path, "--range", "0.5:0.9:5")
        # rows 0.5 .. 0.8 form the first chunk; the second chunk fails at theta = 1.1, the first state off the table
        assert out == "".join(head.splitlines(keepends=True)[:5])

    def test_error_detail_with_control_characters_is_json(self, tmp_path):
        code, _, err = run_cli("eval", "--scenario", str(tmp_path / "a\nb\x01.json"), "--quantity", "qfi")
        assert code == 2
        assert "a\nb\x01.json" in json.loads(err)["error"]["detail"]


@pytest.mark.parametrize("mode", ["analytic", "fd"])
def test_table_trace_defect_inside_the_load_tolerance_is_roundoff(tmp_path, mode):
    # sample traces 1 + 5e-10 and 1 pass the load's 1e-9 trace check, so drho's trace is projected out, not judged
    defect = json.loads(json.dumps(TABLE))
    defect["curve"]["samples"][0]["rho"][0][0][0] += 5e-10

    def qfi(payload):  # eval's qfi at theta0, then the qfi_total column of a scan
        path = write_scenario(tmp_path, dict(payload, options={"mode": mode}))
        (code, out, err), (scan_code, csv, scan_err) = (
            run_cli("eval", "--scenario", path, "--quantity", "qfi"),
            run_cli("scan", "--scenario", path, "--range", "0.2:0.8:4"))
        assert (code, scan_code) == (0, 0), err + scan_err
        return np.r_[json.loads(out)["qfi"], np.loadtxt(io.StringIO(csv), delimiter=",", skiprows=1)[:, 4]]

    assert np.allclose(qfi(defect), qfi(TABLE), rtol=1e-6, atol=0)


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



def test_table_knot_takes_the_right_slope_analytic_and_the_mean_slope_fd():
    # the piecewise-linear table_d3 has no derivative at its knot 0.5: analytic mode takes the slope of the
    # segment to the right, the central fd step straddles the knot and takes the mean of the two slopes;
    # the transverse part reads theta +- h in both modes, so it is the same
    def rows(mode):
        code, out, err = run_cli("scan", "--scenario", fixture("table_d3.json"), "--range", "0.1:0.9:9", "--mode", mode)
        assert code == 0, err
        return {line.split(",")[0]: line.split(",")[1:] for line in out.splitlines()[1:]}

    analytic, fd = rows("analytic"), rows("fd")
    assert (analytic["0.5"][3], fd["0.5"][3]) == ("0.945102413703", "0.460470651831")  # qfi_total
    assert analytic["0.5"][2] == fd["0.5"][2] == "0.161155808965"  # qfi_transverse
    for theta in ("0.4", "0.6"):  # inside a segment the two modes agree
        assert np.allclose(np.array(analytic[theta], float), np.array(fd[theta], float), rtol=0, atol=1e-9)

class TestTableEnds:
    """A table's states lie on it, but a step theta +- h past an end follows the end segment."""

    TABLES = {"two-sample": TABLE, "table_d3": json.loads((FIXTURES / "table_d3.json").read_text())}
    # the rows at 0.25, 0.5 and 0.75, which the code before the end-segment rule printed (it failed the whole
    # 0:1:5 scan at its end rows); the two-sample rows at 0.25 as LAPACK's eigh splits them at d = 2
    INTERIOR = {
        ("two-sample", "analytic"): "0.25,0.441195274496,0.131180124315,0.310015150181,0.441195274496\n"
                                    "0.5,0.414412532637,0.310588235374,0.103824297263,0.414412532637\n"
                                    "0.75,0.411458198315,0.370526315831,0.0409318824836,0.411458198315\n",
        ("two-sample", "fd"): "0.25,0.441195274498,0.131180124316,0.310015150181,0.441195274498\n"
                              "0.5,0.414412532638,0.310588235375,0.103824297263,0.414412532638\n"
                              "0.75,0.411458198319,0.370526315835,0.0409318824836,0.411458198319\n",
        ("table_d3", "analytic"): "0.25,0.579129255983,0.570810096045,0.00831915993748,0.579129255983\n"
                                  "0.5,0.945102413703,0.783946604738,0.161155808965,0.945102413703\n"
                                  "0.75,0.856149492503,0.748707055985,0.107442436517,0.856149492503\n",
        ("table_d3", "fd"): "0.25,0.579129255984,0.570810096047,0.00831915993748,0.579129255984\n"
                            "0.5,0.460470651831,0.299314842866,0.161155808965,0.460470651831\n"
                            "0.75,0.85614949249,0.748707055973,0.107442436517,0.85614949249\n",
    }
    # analytic eval at an end needs no step, so it printed these at the parent too
    END_QFI = {("two-sample", 0.0): "0.502278481013", ("two-sample", 1.0): "0.431304347826",
               ("table_d3", 0.0): "0.693173308323", ("table_d3", 1.0): "0.933770060957"}

    @pytest.mark.parametrize("table", TABLES)
    def test_scan_reaches_both_ends_in_both_modes(self, tmp_path, table):
        path = write_scenario(tmp_path, self.TABLES[table])
        rows = {}
        for mode in ("analytic", "fd"):
            code, out, err = run_cli("scan", "--scenario", path, "--range", "0:1:5", "--mode", mode)
            assert code == 0, err
            lines = out.splitlines(keepends=True)
            assert "".join(lines[2:5]) == self.INTERIOR[table, mode]
            rows[mode] = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        for end in (0, -1):  # the end segment's slope, exact or as a central difference along it
            assert np.allclose(rows["fd"][end], rows["analytic"][end], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("mode", ["analytic", "fd"])
    @pytest.mark.parametrize("theta0", [0.0, 1.0])
    @pytest.mark.parametrize("table", TABLES)
    def test_eval_and_optimize_at_an_end(self, tmp_path, table, theta0, mode):
        path = write_scenario(tmp_path, dict(self.TABLES[table], theta0=theta0))
        code, out, err = run_cli("eval", "--scenario", path, "--quantity", "qfi", "--mode", mode)
        assert code == 0, err
        qfi = json.loads(out)["qfi"]
        assert qfi == pytest.approx(float(self.END_QFI[table, theta0]), rel=1e-9)
        if mode == "analytic":
            assert out == f'{{"qfi": {self.END_QFI[table, theta0]}}}\n'
        if table == "two-sample":  # the projective optimizer takes qubits
            code, out, err = run_cli("optimize", "--scenario", path, "--mode", mode)
            assert code == 0, err
            assert json.loads(out)["cfi"] == pytest.approx(qfi, rel=1e-9)


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

    @pytest.mark.parametrize("command", [
        ["eval", "--quantity", "qfi"],
        ["scan", "--range", "0.1:0.9:3"],
        ["optimize"],
    ], ids=["eval", "scan", "optimize"])
    def test_bad_table_sample_rejected_at_load(self, tmp_path, command):
        # rho(0) = diag(1.5, -0.5) is no state, though rho(theta) at theta0 = 0.9 is
        payload = {"curve": {"family": "table", "samples": [
            {"theta": 0.0, "rho": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]},
            {"theta": 1.0, "rho": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        ]}, "theta0": 0.9, "options": {"mode": "fd"}}
        code, out, err = run_cli(command[0], "--scenario", write_scenario(tmp_path, payload), *command[1:])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "kind": "invariant", "detail": "curve.samples[0]: density operator has eigenvalue -5.000e-01"}}

    @pytest.mark.parametrize("command", [["eval", "--quantity", "qfi"], ["scan", "--range", "0.1:0.9:3"], ["optimize"]],
                             ids=["eval", "scan", "optimize"])
    @pytest.mark.parametrize("payload, detail", [
        ({"curve": {"family": "table", "samples": []}, "theta0": 0.0},
         "curve: tabulated curve needs at least 2 samples"),
        ({"curve": {"family": "table", "samples": TABLE["curve"]["samples"][:1]}, "theta0": 0.0},
         "curve: tabulated curve needs at least 2 samples"),
        ({"curve": TABLE["curve"], "theta0": 2.0},
         "theta0: theta=2.0 outside the tabulated range [0.0, 1.0]"),
        ({"curve": {"family": "sphere_curve", "k": 0.25, "path": {"z0": [0, 0], "velocity": [1, 0]}}, "theta0": 0.0,
          "povm": {"elements": [[[[float(x), 0] for x in row] for row in np.diag(e)] for e in ([1, 0, 0], [0, 1, 1])]}},
         "povm: dimension 3 does not match the curve's dimension 2"),
    ], ids=["empty-table", "one-sample-table", "theta0-off-table", "povm-dimension"])
    def test_input_error_found_at_load(self, tmp_path, command, payload, detail):
        code, out, err = run_cli(command[0], "--scenario", write_scenario(tmp_path, payload), *command[1:])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {"kind": "invariant", "detail": detail}}

    def test_first_bad_table_sample_is_named(self, tmp_path):
        # checked as one stack, sample 2's trace is reported before sample 1's spectrum; load names sample 1
        diagonals = [(0.5, 0.5), (1.2, -0.2), (0.6, 0.6)]
        payload = {"curve": {"family": "table", "samples": [
            {"theta": float(i), "rho": [[[a, 0], [0, 0]], [[0, 0], [b, 0]]]} for i, (a, b) in enumerate(diagonals)
        ]}, "theta0": 0.5}
        code, _, err = run_cli("eval", "--scenario", write_scenario(tmp_path, payload), "--quantity", "qfi")
        assert code == 2
        assert json.loads(err)["error"]["detail"] == "curve.samples[1]: density operator has eigenvalue -2.000e-01"

    def test_huge_povm_entries_are_judged_by_their_spectrum(self, tmp_path):
        # elements [[0.5, +-1.7e308], [+-1.7e308, 0.5]] with eigenvalues +-1.7e308
        povm = {"elements": [[[[0.5, 0], [b, 0]], [[b, 0], [0.5, 0]]] for b in (1.7e308, -1.7e308)]}
        path = write_scenario(tmp_path, {"curve": {"family": "sphere_curve", "k": 0.25, "path": {
            "type": "linear", "z0": [0, 0], "velocity": [1, 0]}}, "theta0": 0.0, "povm": povm})
        code, out, err = run_cli("eval", "--scenario", path, "--quantity", "cfi")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "kind": "invariant", "detail": "povm: element 0 has negative eigenvalue -1.700e+308"}}

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

    @pytest.mark.parametrize("curve, command", [
        *(({"family": "sphere_curve", "k": 0.25, "path": {"type": "linear", "z0": [1e200, 0], "velocity": [1, 0]}},
           command) for command in (
            ["eval", "--quantity", "qfi"],
            ["scan", "--range", "0:0.1:3"],
            ["optimize"],
            ["tensor", "--v", "1,0", "--v2", "0,1"],
        )),
    ], ids=["north-z0-1e200-eval", "north-z0-1e200-scan", "north-z0-1e200-optimize", "north-z0-1e200-tensor"])
    def test_overflowing_chart_point_is_non_finite_in_every_command(self, tmp_path, curve, command):
        # |z|^2 overflows where rho(theta) is formed, for every command alike
        path = write_scenario(tmp_path, {"curve": curve, "theta0": 0.0})
        code, out, err = run_cli(command[0], "--scenario", path, *command[1:])
        assert (code, out, error_kind(err)) == (3, "", "non-finite-result")

    def test_south_chart_tensor_is_taken_in_the_points_own_chart(self, tmp_path):
        # the factor (1 + |z|^2)^-2 is |w|^4 / (1 + |w|^2)^2 at w = 1/z, with no 1/w formed: near the
        # pole the tensor underflows to 0, and elsewhere it is the north-chart value at z = 1/w
        def tensor(coord, chart):
            curve = {"family": "transverse_curve", "chart": chart, "z": [coord.real, coord.imag],
                     "path": {"type": "linear", "k0": 0.25, "rate": 0.1}}
            path = write_scenario(tmp_path, {"curve": curve, "theta0": 0.0})
            code, out, err = run_cli("tensor", "--scenario", path, "--v", "1,0.5", "--v2", "0.3,-1")
            assert (code, err) == (0, "")
            return json.loads(out)

        for w in (1e-300, 1e-320):
            assert tensor(complex(w), "south") == {"sym": 0, "antisym": 0}
        for w in (0.5, 0.3 + 0.4j, 1e-3, 1e200):
            south, north = tensor(w, "south"), tensor(1 / w, "north")
            for part in ("sym", "antisym"):
                assert south[part] == pytest.approx(north[part], rel=1e-11)

    @pytest.mark.parametrize("command", [
        ["eval", "--quantity", "qfi"],
        ["scan", "--range", "0:0.2:5"],
        ["optimize"],
    ], ids=["eval", "scan", "optimize"])
    @pytest.mark.parametrize("w", [0.0, 1e-320, 1e-300, 1e-3])
    def test_south_chart_point_near_the_pole_has_the_pole_values(self, tmp_path, w, command):
        # a transverse curve keeps its south-chart point w: rho is finite there, and its QFI
        # dk^2 / (k (1 - k)) does not depend on the point (6.25 at k = 0.2, rate 1)
        def run(z, chart):
            curve = {"family": "transverse_curve", "chart": chart, "z": z,
                     "path": {"type": "linear", "k0": 0.2, "rate": 1.0}}
            path = write_scenario(tmp_path, {"curve": curve, "theta0": 0.0})
            return run_cli(command[0], "--scenario", path, *command[1:])

        pole = run("inf", "north")
        code, out, err = run([w, 0], "south")
        assert (code, err) == (0, "")
        if w == 0.0:
            assert out == pole[1]
        if command[0] == "scan":
            got, want = ([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]] for text in (out, pole[1]))
        else:
            fields = ["qfi"] if command[0] == "eval" else ["cfi", "qfi"]  # the optimal axis turns with w
            got, want = ([json.loads(text)[name] for name in fields] for text in (out, pole[1]))
        assert np.allclose(got, want, rtol=1e-12, atol=0)
        if command[0] != "scan":
            assert json.loads(out)["qfi"] == pytest.approx(6.25, rel=1e-12)

    @pytest.mark.parametrize("command", [
        ["eval", "--quantity", "qfi"],
        ["scan", "--range", "1.78e308:1.79e308:3"],
        ["optimize"],
    ], ids=["eval", "scan", "optimize"])
    def test_overflowing_fd_shift_is_non_finite(self, tmp_path, command):
        # theta0 and fd_step are finite, but the central difference's theta + h overflows
        curve = {"family": "sphere_curve", "k": 0.25,
                 "path": {"type": "linear", "z0": [0, 0], "velocity": [1e-300, 0]}}
        path = write_scenario(tmp_path, {"curve": curve, "theta0": 1.79e308,
                                         "options": {"mode": "fd", "fd_step": 1e306}})
        code, out, err = run_cli(command[0], "--scenario", path, *command[1:])
        assert (code, out, error_kind(err)) == (3, "", "non-finite-result")

    def test_non_finite_result_is_an_error_line(self):
        code, out, err = run_cli(
            "tensor", "--scenario", fixture("sphere_k025.json"), "--v", "1e200,0", "--v2", "1e200,0"
        )
        assert (code, out) == (3, "")
        assert json.loads(err) == {
            "error": {"kind": "non-finite-result", "detail": "fisher_tensor: a computed value is not finite"}
        }


class TestFastPureFlows:
    """A pure flow's QFI is 4 |a'|^2 at every speed the float range holds (the SLD support rule is relative)."""

    @pytest.mark.parametrize("a", [
        [[0, 0.2e6], [0.5e6, 0.1e6], [-0.3e6, 0.4e6]],
        [[0, 0.2e8], [0.5e8, 0.1e8]],
        [[0, 0], [1e150, 0]],
    ], ids=["d3-scale-1e6", "d2-scale-1e8", "r-1e150"])
    def test_qfi_is_four_r_squared(self, tmp_path, a):
        path = write_scenario(tmp_path, {"curve": {"family": "pure_qdit_coeffs", "a": a}, "theta0": 0.7})
        qfi = 4 * sum(re * re + im * im for re, im in a[1:])
        code, out, err = run_cli("eval", "--scenario", path, "--quantity", "qfi")
        assert (code, err) == (0, "")
        assert json.loads(out)["qfi"] == pytest.approx(qfi, rel=1e-9)
        code, out, err = run_cli("scan", "--scenario", path, "--range=-1:1:5")
        assert (code, err) == (0, "")
        rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])
        assert np.allclose(rows[:, 4], qfi, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("command", [["eval", "--quantity", "qfi"], ["scan", "--range=-1:1:5"]],
                             ids=["eval", "scan"])
    def test_overflowing_qfi_is_non_finite(self, tmp_path, command):
        path = write_scenario(tmp_path, {"curve": {"family": "pure_qdit_coeffs", "a": [[0, 0], [1e200, 0]]},
                                         "theta0": 0.7})
        code, out, err = run_cli(command[0], "--scenario", path, *command[1:])
        assert (code, out, error_kind(err)) == (3, "", "non-finite-result")

    @pytest.mark.parametrize("command", [["eval", "--quantity", "qfi"], ["scan", "--range", "0:0.1:3"], ["optimize"]],
                             ids=["eval", "scan", "optimize"])
    @pytest.mark.parametrize("a", [
        [[0, 1e308], [1e308, 0]],
        [[0, 1e308], [1e308, 1e308], [1e308, 1e308]],
    ], ids=["drho-overflows", "half-w-overflows"])
    def test_overflowing_flow_is_non_finite_in_every_command(self, tmp_path, a, command):
        # finite coefficients whose drho (first) or flow speed w/2 (second) overflows: a computed
        # value leaves the float range, which is no defect of the input's Hermiticity
        path = write_scenario(tmp_path, {"curve": {"family": "pure_qdit_coeffs", "a": a}, "theta0": 0.0})
        code, out, err = run_cli(command[0], "--scenario", path, *command[1:])
        assert (code, out, error_kind(err)) == (3, "", "non-finite-result")

    def test_phase_only_flow_has_zero_qfi(self, tmp_path):
        path = write_scenario(tmp_path, {"curve": {"family": "pure_qdit_coeffs", "a": [[0, 0.4], [0, 0]]},
                                         "theta0": 0.7})
        assert run_cli("eval", "--scenario", path, "--quantity", "qfi") == (0, '{"qfi": 0}\n', "")
        code, out, _ = run_cli("scan", "--scenario", path, "--range=-1:1:3")
        assert (code, out.splitlines()[1:]) == (0, ["-1,0,0,0,0", "0,0,0,0,0", "1,0,0,0,0"])


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
