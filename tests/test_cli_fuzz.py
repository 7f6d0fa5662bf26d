"""Fuzz the CLI: mutated fixture scenarios and odd flag values.

Every run must end in a result (exit 0, nothing on stderr) or in exactly one
``{"error": {"kind": ..., "detail": ...}}`` line on stderr with exit 2, 3 or
4, never in an escaped exception.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qfg import cli

FIXTURES = {p.name: json.loads(p.read_text()) for p in sorted((Path(__file__).parent / "fixtures").glob("*.json"))}

#: Replacement values for one node of a scenario document.
ODD_VALUES = [
    float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 10**400, 0, 0.0, -1, -0.5, 2.5,
    "x", "inf", "", None, True, [], {}, [0.1, 0.2], [[0.5, 0.0]] * 12,
]

COMMANDS = [
    ["eval", "--quantity", "qfi"],
    ["eval", "--quantity", "cfi"],
    ["eval", "--quantity", "sld"],
    ["eval", "--quantity", "tensor"],
    ["eval", "--quantity", "qfi", "--mode", "fd"],
    ["scan", "--range", "0:1:3"],
    ["scan", "--range", "0:1:3", "--mode", "fd"],
    ["tensor", "--v", "1,0", "--v2", "0,1"],
    ["optimize", "--grid-n", "64", "--refine-iters", "4"],
]

#: Fixed examples (derandomize) keep the suite reproducible; raise max_examples
#: and drop derandomize for a wider campaign.
FUZZ = settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True)


def node_paths(obj, path=()):
    """Paths of every node below the root of a JSON document."""
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = replaced(obj[path[0]], path[1:], value)
    return out


def get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    if code == 0:
        assert err.getvalue() == ""
        return
    lines = err.getvalue().splitlines(keepends=True)
    assert len(lines) == 1 and lines[0].endswith("\n"), err.getvalue()
    error = json.loads(lines[0])
    assert list(error) == ["error"] and list(error["error"]) == ["kind", "detail"]
    assert all(isinstance(v, str) for v in error["error"].values())


@st.composite
def mutated_scenarios(draw):
    doc = FIXTURES[draw(st.sampled_from(sorted(FIXTURES)))]
    path = draw(st.sampled_from(list(node_paths(doc))))
    node = get(doc, path)
    choices = ODD_VALUES + ([node * 10] if isinstance(node, list) and node else [])
    return replaced(doc, path, draw(st.sampled_from(choices)))


def run_with_scenario(payload, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(payload))  # writes NaN and Infinity as the JSON extensions
        assert_clean_exit([command[0], "--scenario", str(path), *command[1:]])


@FUZZ
@given(mutated_scenarios(), st.sampled_from(COMMANDS))
def test_mutated_scenario_exits_cleanly(payload, command):
    run_with_scenario(payload, command)


NUMBERS = ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-1", "1e-300", "0.5"]


@FUZZ
@given(
    st.sampled_from(sorted(FIXTURES)),
    st.sampled_from(NUMBERS),
    st.sampled_from(NUMBERS),
    st.sampled_from(NUMBERS + ["1,2,3", "nan,1", "1e200,1e200"]),
    st.sampled_from(["-5", "0", "7", "8", "64", "65537", "100000000000000000000", "abc"]),
    st.sampled_from(["-1", "0", "4", "64", "65", "100000000000000000000"]),
)
def test_odd_flag_values_exit_cleanly(name, fd_step, bound, v, grid_n, refine_iters):
    for command in (
        ["eval", "--quantity", "qfi", "--mode", "fd", f"--fd-step={fd_step}"],
        ["scan", f"--range=0:{bound}:3", f"--fd-step={fd_step}"],
        ["scan", "--range", f"{bound}:1:3"],
        ["tensor", f"--v={v}", "--v2=1,1"],
        ["optimize", f"--grid-n={grid_n}", f"--refine-iters={refine_iters}"],
    ):
        run_with_scenario(FIXTURES[name], command)
