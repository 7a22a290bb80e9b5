import json
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from qtoric import named_state, state_to_dict

STATE_SCHEMA = {
    "type": "object",
    "required": ["qubits", "amplitudes"],
    "properties": {
        "qubits": {"type": "integer", "minimum": 1},
        "amplitudes": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "number"},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "normalize": {"type": "boolean"},
    },
}

REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "qubits", "separable", "max_residual", "factors",
        "moment_image", "measures", "tolerance",
    ],
    "properties": {
        "qubits": {"type": "integer"},
        "separable": {"type": "boolean"},
        "max_residual": {"type": "number"},
        "factors": {
            "type": ["array", "null"],
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {
                    "type": "array",
                    "minItems": 2,
                    "maxItems": 2,
                    "items": {"type": "number"},
                },
            },
        },
        "moment_image": {"type": ["array", "null"], "items": {"type": "number"}},
        "measures": {
            "type": "object",
            "additionalProperties": {
                "anyOf": [
                    {"type": "number"},
                    {"type": "array", "minItems": 2, "maxItems": 2,
                     "items": {"type": "number"}},
                ]
            },
        },
        "tolerance": {"type": "number"},
    },
}


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "qtoric", *args],
        capture_output=True, text=True, **kwargs,
    )


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps(state_to_dict(named_state("bell"))))
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"qubits": 3, "amplitudes": [[1.0, 0.0]] * 7}))
    return str(path)


# --- analyze -------------------------------------------------------------------


def test_analyze_named_ghz3():
    result = run_cli("analyze", "--state", "ghz3")
    assert result.returncode == 0
    assert "separable: false" in result.stdout
    assert "three_tangle = 1" in result.stdout


def test_analyze_bell_json(bell_file):
    result = run_cli("analyze", bell_file, "--format", "json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["separable"] is False
    assert abs(report["measures"]["concurrence"] - 1) < 1e-12


def test_analyze_broken_file(broken_file):
    result = run_cli("analyze", broken_file)
    assert result.returncode == 2
    assert "expected 8 amplitudes, found 7" in result.stderr


def test_analyze_requires_state():
    result = run_cli("analyze")
    assert result.returncode == 1


def test_analyze_unknown_fixture():
    result = run_cli("analyze", "--state", "nope")
    assert result.returncode == 2


def test_analyze_directory_jobs(tmp_path):
    for name in ("a_bell", "b_ghz3"):
        state = named_state(name.split("_")[1])
        (tmp_path / f"{name}.json").write_text(json.dumps(state_to_dict(state)))
    result = run_cli("analyze", str(tmp_path), "--jobs", "2", "--format", "json")
    assert result.returncode == 0
    reports = json.loads(result.stdout)
    assert [r["path"] for r in reports] == ["a_bell.json", "b_ghz3.json"]
    for report in reports:
        assert report["separable"] is False


# --- segre ----------------------------------------------------------------------


def test_segre_list_m2():
    result = run_cli("segre", "-m", "2", "--list")
    assert result.returncode == 0
    assert result.stdout == "a[00]*a[11] = a[01]*a[10]\n"


def test_segre_list_sorted_m3():
    result = run_cli("segre", "-m", "3", "--list")
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 12
    assert lines == sorted(lines)


def test_segre_state_residuals():
    result = run_cli("segre", "--state", "ghz3")
    assert result.returncode == 0
    assert "max residual = 0.5" in result.stdout


def test_segre_m1_usage_error():
    result = run_cli("segre", "-m", "1", "--list")
    assert result.returncode == 1


# --- moment -----------------------------------------------------------------------


def test_moment_basis_01():
    result = run_cli("moment", "--state", "01")
    assert result.returncode == 0
    assert "moment image: (0, -0.5)" in result.stdout
    assert "inside [-1/2, 0]^2: true" in result.stdout


def test_moment_entangled_exits_3(bell_file):
    result = run_cli("moment", bell_file)
    assert result.returncode == 3
    assert "state is not a product; moment map undefined" in result.stderr


def test_moment_projective_point(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"coords": [[1.0, 0.0], [1.0, 0.0]]}))
    result = run_cli("moment", "--projective", str(path))
    assert result.returncode == 0
    assert "moment image: (-0.25)" in result.stdout


# --- tangle / invariants --------------------------------------------------------------


def test_tangle_bell():
    result = run_cli("tangle", "--state", "bell")
    assert result.returncode == 0
    assert "concurrence = 1" in result.stdout


def test_tangle_ghz3():
    result = run_cli("tangle", "--state", "ghz3")
    assert "three_tangle = 1" in result.stdout


def test_tangle_odd_m_beyond_three_is_domain_error():
    result = run_cli("tangle", "--state", "ghz5")
    assert result.returncode == 3


def test_invariants_ghz4():
    result = run_cli("invariants", "--state", "ghz4")
    assert result.returncode == 0
    assert "H = 0.5" in result.stdout
    assert "I1 = 0.25" in result.stdout
    assert "tau4_spinflip = 1" in result.stdout
    assert "tau4_epsilon = 1" in result.stdout
    assert "factor 4" in result.stdout


def test_invariants_wrong_qubit_count():
    result = run_cli("invariants", "--state", "ghz3")
    assert result.returncode == 2


def test_invariants_json():
    result = run_cli("invariants", "--state", "ghz4", "--format", "json")
    data = json.loads(result.stdout)
    assert abs(data["ratios"]["tau4_spinflip/abs_h_sq"] - 4) < 1e-9


# --- polytope ------------------------------------------------------------------------


def test_polytope_cube3():
    result = run_cli("polytope", "cube", "-m", "3", "--delzant", "--lattice-points")
    assert result.returncode == 0
    assert "delzant: true" in result.stdout
    assert "lattice points: 27" in result.stdout


def test_polytope_json_fan():
    result = run_cli(
        "polytope", "cube", "-m", "2", "--variant", "unit", "--fan", "--format", "json"
    )
    data = json.loads(result.stdout)
    assert data["cone_count"] == 9
    assert data["maximal_cone_count"] == 4
    assert len(data["vertices"]) == 4


def test_polytope_requires_m():
    result = run_cli("polytope", "cube")
    assert result.returncode == 1


# --- embed ---------------------------------------------------------------------------


def test_embed_analyze_round_trip(tmp_path):
    factors = {"factors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    factors_path = tmp_path / "factors.json"
    factors_path.write_text(json.dumps(factors))
    state_path = tmp_path / "state.json"

    result = run_cli("embed", str(factors_path), "-o", str(state_path))
    assert result.returncode == 0
    written = json.loads(state_path.read_text())
    jsonschema.validate(written, STATE_SCHEMA)

    result = run_cli("analyze", str(state_path), "--format", "json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    jsonschema.validate(report, REPORT_SCHEMA)
    assert report["separable"] is True
    assert report["moment_image"] == [0.0, -0.5]


def test_embed_bad_factor_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"factors": [[[0.0, 0.0], [0.0, 0.0]]]}))
    result = run_cli("embed", str(path))
    assert result.returncode == 2


def test_embed_random_round_trip(tmp_path):
    rng = np.random.default_rng(70)
    factors = {
        "factors": [
            [list(rng.standard_normal(2)), list(rng.standard_normal(2))]
            for _ in range(3)
        ]
    }
    factors_path = tmp_path / "factors.json"
    factors_path.write_text(json.dumps(factors))
    result = run_cli("embed", str(factors_path))
    state = json.loads(result.stdout)
    jsonschema.validate(state, STATE_SCHEMA)

    state_path = tmp_path / "state.json"
    state_path.write_text(result.stdout)
    report = json.loads(run_cli("analyze", str(state_path), "--format", "json").stdout)
    assert report["separable"] is True


# --- global behavior --------------------------------------------------------------------


def test_no_command_is_usage_error():
    result = run_cli()
    assert result.returncode == 1


def test_unknown_command_is_usage_error():
    result = run_cli("frobnicate")
    assert result.returncode == 1


def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "out.txt"
    result = run_cli("tangle", "--state", "bell", "-o", str(out))
    assert result.returncode == 0
    assert "concurrence = 1" in out.read_text()


def test_nonpositive_tol_rejected():
    for tol in ("-1", "inf", "nan"):
        result = run_cli("analyze", "--state", "bell", "--tol", tol)
        assert result.returncode == 1, tol
