"""Tests for scenario parsing, validation, and the shipped JSON schema."""

import json
from pathlib import Path

import pytest

from qfg.errors import InvariantViolation, ParseError
from qfg.scenario import load_scenario, parse_scenario
from qfg.sld import GreatCirclePure, SphereCurve, TableCurve, TransverseCurve
from qfg.states import Chart

FIXTURES = Path(__file__).parent / "fixtures"


def minimal_sphere(**overrides):
    data = {
        "curve": {
            "family": "sphere_curve",
            "k": 0.25,
            "path": {"type": "linear", "z0": [0, 0], "velocity": [1, 0]},
        },
        "theta0": 0.0,
    }
    data.update(overrides)
    return data


class TestHappyPaths:
    def test_sphere_curve(self):
        scenario = parse_scenario(minimal_sphere())
        assert isinstance(scenario.curve, SphereCurve)
        assert scenario.curve.k == 0.25
        assert scenario.theta0 == 0.0

    def test_great_circle(self):
        scenario = parse_scenario({"curve": {"family": "great_circle_pure"}, "theta0": 0.5})
        assert isinstance(scenario.curve, GreatCirclePure)

    def test_transverse_inf_default(self):
        scenario = parse_scenario(
            {"curve": {"family": "transverse_curve", "path": {"k0": 0.1}}, "theta0": 0.0}
        )
        assert isinstance(scenario.curve, TransverseCurve)
        assert (scenario.curve.coord, scenario.curve.chart) == (0j, Chart.SOUTH)

    def test_transverse_south_chart(self):
        scenario = parse_scenario(
            {
                "curve": {
                    "family": "transverse_curve",
                    "z": [0.5, 0],
                    "chart": "south",
                    "path": {"k0": 0.1},
                },
                "theta0": 0.0,
            }
        )
        assert (scenario.curve.coord, scenario.curve.chart) == (0.5, Chart.SOUTH)
        assert scenario.curve.point_at(0.0).z == pytest.approx(2.0)

    def test_table_curve(self):
        rho = [[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]
        scenario = parse_scenario(
            {
                "curve": {
                    "family": "table",
                    "samples": [{"theta": 0.0, "rho": rho}, {"theta": 1.0, "rho": rho}],
                },
                "theta0": 0.5,
            }
        )
        assert isinstance(scenario.curve, TableCurve)

    def test_grid_only(self):
        scenario = parse_scenario(
            {
                "grid": {
                    "x": [0, 1],
                    "p": [0.5, 0.5],
                    "alpha": [0, 0],
                    "dp": [0, 0],
                    "dalpha": [0, 0],
                }
            }
        )
        assert scenario.curve is None and scenario.grid is not None

    def test_options(self):
        scenario = parse_scenario(minimal_sphere(options={"mode": "fd", "fd_step": 1e-4}))
        assert scenario.options.mode == "fd"
        assert scenario.options.fd_step == 1e-4

    def test_povm(self):
        povm = {
            "elements": [
                [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            ]
        }
        scenario = parse_scenario(minimal_sphere(povm=povm))
        assert len(scenario.povm) == 2

    def test_fixture_files_load(self):
        for path in sorted(FIXTURES.glob("*.json")):
            load_scenario(path)


class TestValidationErrors:
    def test_k_out_of_range_names_field(self):
        data = minimal_sphere()
        data["curve"]["k"] = 0.7
        with pytest.raises(InvariantViolation, match=r"k=0\.7"):
            parse_scenario(data)

    def test_incomplete_povm_names_completeness(self):
        povm = {"elements": [[[[0.99, 0], [0, 0]], [[0, 0], [0, 0.99]]]]}
        data = minimal_sphere(povm=povm)
        with pytest.raises(InvariantViolation, match="povm"):
            parse_scenario(data)

    def test_unknown_top_level_field(self):
        with pytest.raises(InvariantViolation, match="extra"):
            parse_scenario(minimal_sphere(extra=1))

    def test_unknown_curve_field(self):
        data = minimal_sphere()
        data["curve"]["frequency"] = 2.0
        with pytest.raises(InvariantViolation, match="frequency"):
            parse_scenario(data)

    def test_unknown_family(self):
        with pytest.raises(InvariantViolation, match="family"):
            parse_scenario({"curve": {"family": "spiral"}, "theta0": 0.0})

    def test_missing_theta0(self):
        data = minimal_sphere()
        del data["theta0"]
        with pytest.raises(InvariantViolation, match="theta0"):
            parse_scenario(data)

    def test_needs_curve_or_grid(self):
        with pytest.raises(InvariantViolation, match="curve"):
            parse_scenario({"theta0": 0.0})

    def test_bad_complex_pair(self):
        data = minimal_sphere()
        data["curve"]["path"]["z0"] = [1, 2, 3]
        with pytest.raises(ParseError, match="z0"):
            parse_scenario(data)

    def test_bad_grid_normalization_names_grid(self):
        with pytest.raises(InvariantViolation, match="grid"):
            parse_scenario(
                {
                    "grid": {
                        "x": [0, 1],
                        "p": [0.7, 0.5],
                        "alpha": [0, 0],
                        "dp": [0, 0],
                        "dalpha": [0, 0],
                    }
                }
            )

    def test_bad_mode(self):
        with pytest.raises(InvariantViolation, match="mode"):
            parse_scenario(minimal_sphere(options={"mode": "symbolic"}))

    def test_nonpositive_fd_step(self):
        with pytest.raises(InvariantViolation, match="fd_step"):
            parse_scenario(minimal_sphere(options={"fd_step": 0}))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/scenario.json")

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(bad)

    def test_non_hermitian_povm_element(self):
        povm = {
            "elements": [
                [[[0.5, 0], [1, 0]], [[0, 0], [0.5, 0]]],
                [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            ]
        }
        with pytest.raises(InvariantViolation, match="povm"):
            parse_scenario(minimal_sphere(povm=povm))


class TestSchemaDocument:
    @pytest.fixture()
    def schema(self):
        import qfg

        path = Path(qfg.__file__).parent / "scenario.schema.json"
        return json.loads(path.read_text())

    def test_fixtures_validate(self, schema):
        jsonschema = pytest.importorskip("jsonschema")
        for path in sorted(FIXTURES.glob("*.json")):
            jsonschema.validate(json.loads(path.read_text()), schema)

    def test_schema_rejects_unknown_fields(self, schema):
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(minimal_sphere(extra=1), schema)

    def test_schema_rejects_bad_family(self, schema):
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"curve": {"family": "spiral"}, "theta0": 0.0}, schema)


def test_loader_and_schema_agree_on_fixture_shapes():
    # every fixture parses through both the hand validator and the schema
    jsonschema = pytest.importorskip("jsonschema")
    import qfg

    schema = json.loads((Path(qfg.__file__).parent / "scenario.schema.json").read_text())
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        jsonschema.validate(data, schema)
        parse_scenario(data)
