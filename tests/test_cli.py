import errno
import itertools
import json
import os
import signal
import subprocess
import sys
import tracemalloc

import jsonschema
import numpy as np
import pytest

from qtoric import (
    MultiQubitState,
    cube,
    extract_factors,
    lattice_points,
    max_segre_residual,
    moment_product,
    named_state,
    relation_residual,
    segre_relations,
    state_from_dict,
    state_to_dict,
)
import qtoric.cli
import qtoric.states
from qtoric.cli import _fmt, main
from helpers import child_env, random_product_state, random_state

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

# Row counts per output piece of the CLI's row writer, and files per window
# of analyze DIR: its own, and two that put a boundary after every row or
# every third row.
BLOCKS = (qtoric.cli._BLOCK, 1, 3)

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
        capture_output=True, text=True, env=child_env(), **kwargs,
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


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "{state}", "--state", "ghz3"),
        ("analyze", "{dir}", "--state", "ghz3"),
        ("segre", "{state}", "--list", "-m", "2"),
        ("segre", "--state", "bell", "--list", "-m", "2"),
        ("moment", "--projective", "{point}", "--state", "bell"),
    ],
)
def test_second_input_is_usage_error(tmp_path, capsys, argv):
    # Each command takes one input; a second one is refused, not ignored.
    state = tmp_path / "bell.json"
    state.write_text(json.dumps(state_to_dict(named_state("bell"))))
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"coords": [[1, 0], [1, 0]]}))
    paths = {"state": state, "dir": tmp_path, "point": point}
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not both" in captured.err


def test_analyze_directory_order(tmp_path):
    for name in ("a_bell", "b_ghz3"):
        state = named_state(name.split("_")[1])
        (tmp_path / f"{name}.json").write_text(json.dumps(state_to_dict(state)))
    result = run_cli("analyze", str(tmp_path), "--format", "json")
    assert result.returncode == 0
    reports = json.loads(result.stdout)
    assert [r["path"] for r in reports] == ["a_bell.json", "b_ghz3.json"]
    for report in reports:
        assert report["separable"] is False
    # The option of the former thread pool is gone: a usage error.
    assert run_cli("analyze", str(tmp_path), "--jobs", "2").returncode == 1


def test_analyze_directory_bad_file(tmp_path, broken_file):
    # broken_file sits in tmp_path next to a good file and a one-qubit file,
    # which reads but cannot be analyzed: each gets a record of its own.
    (tmp_path / "a_bell.json").write_text(json.dumps(state_to_dict(named_state("bell"))))
    (tmp_path / "c_one.json").write_text(json.dumps({"qubits": 1, "amplitudes": [[1, 0], [0, 0]]}))
    result = run_cli("analyze", str(tmp_path), "--format", "json")
    assert result.returncode == 2
    assert result.stderr == "qtoric: error: 2 of 3 files failed\n"
    good, bad, one = json.loads(result.stdout)
    assert good["path"] == "a_bell.json"
    jsonschema.validate(good, REPORT_SCHEMA)
    assert bad == {"path": "broken.json", "error": "expected 8 amplitudes, found 7"}
    assert one == {"path": "c_one.json", "error": "analysis needs at least 2 qubits"}

    result = run_cli("analyze", str(tmp_path))
    assert result.returncode == 2
    assert result.stdout.startswith("== a_bell.json\nqubits: 2\n")
    assert result.stdout.endswith(
        "\n\n== broken.json\nerror: expected 8 amplitudes, found 7"
        "\n\n== c_one.json\nerror: analysis needs at least 2 qubits\n"
    )


def _state_file(directory, name, m, amps, **extra):
    data = {"qubits": m, "amplitudes": [[a.real, a.imag] for a in amps], **extra}
    (directory / name).write_text(json.dumps(data))


def _mixed_directory(directory) -> dict:
    """Good state files at m = 2-5 between files that fail to validate or to
    analyze, in ``directory``; returns each bad file's error message."""
    rng = np.random.default_rng(5)
    for m in (2, 3, 4, 5):
        _state_file(directory, f"g{m}.json", m, random_state(rng, m).amplitudes)
    _state_file(directory, "g2b.json", 2, random_product_state(rng, 2).amplitudes)
    _state_file(directory, "g3_unnormalized.json", 3, 7 * random_state(rng, 3).amplitudes,
                normalize=False)
    _state_file(directory, "m1.json", 1, [1, 0])
    _state_file(directory, "m13.json", 13, [])
    _state_file(directory, "nan.json", 2, [1, float("nan"), 0, 0])
    _state_file(directory, "short.json", 3, [1] * 7)
    _state_file(directory, "zero.json", 2, [0] * 4)
    return {
        "m1.json": "analysis needs at least 2 qubits",
        "m13.json": "a state is limited to 12 qubits, got 13",
        "nan.json": "amplitudes contain NaN or infinite entries",
        "short.json": "expected 8 amplitudes, found 7",
        "zero.json": "the zero vector does not define a state",
    }


def test_analyze_directory_mixed_records(tmp_path):
    # Good files at m = 2-5 are analyzed in one batch per qubit count, between
    # files that fail to validate or to analyze; each keeps its own record.
    expected_errors = _mixed_directory(tmp_path)
    names = sorted(p.name for p in tmp_path.iterdir())

    result = run_cli("analyze", str(tmp_path), "--format", "json")
    assert result.returncode == 2
    assert result.stderr == f"qtoric: error: 5 of {len(names)} files failed\n"
    records = json.loads(result.stdout)
    assert [r["path"] for r in records] == names
    for record in records:
        if record["path"] in expected_errors:
            assert record == {"path": record["path"], "error": expected_errors[record["path"]]}
        else:
            jsonschema.validate({k: v for k, v in record.items() if k != "path"}, REPORT_SCHEMA)
    assert [r["qubits"] for r in records if "error" not in r] == [2, 2, 3, 3, 4, 5]

    text = run_cli("analyze", str(tmp_path)).stdout
    headers = [line[3:] for line in text.splitlines() if line.startswith("== ")]
    assert headers == names
    for name, message in expected_errors.items():
        assert f"== {name}\nerror: {message}\n" in text + "\n"


@pytest.mark.bitexact
def test_analyze_directory_windows_keep_every_byte(tmp_path, capsys, monkeypatch):
    # A directory is read, analyzed and written one window of _BLOCK files at
    # a time. Windows of one and of three files, which put bad files on
    # window edges and make a window of bad files only, give the bytes of
    # one window for all: rows keep their bits in any batch, and the record
    # templates and the failure count carry across windows.
    _mixed_directory(tmp_path)
    runs = []
    for block in BLOCKS:
        monkeypatch.setattr(qtoric.cli, "_BLOCK", block)
        run = []
        for form in ("json", "text"):
            code = main(["analyze", str(tmp_path), "--format", form])
            run.append((code, *capsys.readouterr()))
        runs.append(run)
    default, *others = runs
    assert [code for code, _, _ in default] == [2, 2]
    assert all(run == default for run in others)


def test_analyze_directory_memory_is_one_window(tmp_path, monkeypatch):
    # Each window's amplitudes, reports and records are dropped before the
    # next window is read, so the traced peak over 16 windows stays near
    # that over one, where keeping every file to the end makes it 5x.
    monkeypatch.setattr(qtoric.cli, "_BLOCK", 4)
    rng = np.random.default_rng(31)
    for count in (4, 64):
        (tmp_path / str(count)).mkdir()
        for k in range(count):
            amplitudes = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
            _state_file(tmp_path / str(count), f"s{k:02d}.json", 10, amplitudes)
    out = str(tmp_path / "records.json")
    assert main(["analyze", str(tmp_path / "4"), "--format", "json", "-o", out]) == 0  # fills caches
    peaks = []
    for count in (4, 64):
        tracemalloc.start()
        try:
            assert main(["analyze", str(tmp_path / str(count)), "--format", "json", "-o", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(json.loads((tmp_path / "records.json").read_text())) == 64
    assert peaks[1] <= 2 * peaks[0], peaks


def test_analyze_directory_refuses_an_input_as_output(tmp_path, capsys):
    # The output is opened before the first window is read, so an -o path
    # that names one of the input files, directly or through a link, is a
    # usage error before any file is read or truncated.
    _mixed_directory(tmp_path)
    target = tmp_path / "g3.json"
    before = target.read_bytes()
    link = tmp_path.parent / f"{tmp_path.name}-link.json"
    link.symlink_to(target)
    for out in (target, tmp_path / ".." / tmp_path.name / "g3.json", link):
        assert main(["analyze", str(tmp_path), "-o", str(out)]) == 1
        assert capsys.readouterr() == ("", f"qtoric: error: -o {out} is one of the input files\n")
        assert target.read_bytes() == before
    # A file that is not there yet is no input, even in the directory.
    assert main(["analyze", str(tmp_path), "--format", "json"]) == 2
    want = capsys.readouterr()
    assert main(["analyze", str(tmp_path), "--format", "json", "-o", str(tmp_path / "new.json")]) == 2
    assert capsys.readouterr() == ("", want.err)
    assert (tmp_path / "new.json").read_text() == want.out


@pytest.mark.bitexact
def test_analyze_directory_matches_per_file_reports(tmp_path):
    # The batched directory route and the per-file route give the same
    # records: same keys in the same order, same numbers.
    rng = np.random.default_rng(9)
    for k in range(8):
        m = 2 + k % 4
        state = random_state(rng, m) if k % 2 else random_product_state(rng, m)
        (tmp_path / f"s{k:02d}.json").write_text(json.dumps(state_to_dict(state)))
    result = run_cli("analyze", str(tmp_path), "--format", "json")
    assert result.returncode == 0
    records = json.loads(result.stdout, object_pairs_hook=list)
    assert len(records) == 8
    for record in records:
        assert record[0][0] == "path"
        single = run_cli("analyze", str(tmp_path / record[0][1]), "--format", "json")
        assert single.returncode == 0
        assert record[1:] == json.loads(single.stdout, object_pairs_hook=list)


@pytest.mark.bitexact
def test_one_file_gets_the_same_bits_from_every_command(tmp_path, capsys):
    # Every command starts from one unit vector per input, the raw amplitudes
    # normalized once, and analyze takes one route for a file and for a
    # directory. So a file's report is the same bytes alone or in a
    # directory, and tangle, segre and moment print its measures, residual
    # and moment image exactly: at any scale, normalized on reading or not.
    rng = np.random.default_rng(14)
    for k in range(40):
        m = 2 + k % 5
        if k % 2:
            amplitudes = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
        else:
            amplitudes = random_product_state(rng, m).amplitudes
        amplitudes = amplitudes * (1.0, 1e200, 1e-200)[k % 3]
        data = {**state_to_dict(MultiQubitState(m, amplitudes)), "normalize": k % 4 < 2}
        (tmp_path / f"s{k:02d}.json").write_text(json.dumps(data))
    assert main(["analyze", str(tmp_path), "--format", "json"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 40 and 0 < sum(r["separable"] for r in records) < 40
    for record in records:
        path = str(tmp_path / record.pop("path"))
        assert main(["analyze", path, "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(record, indent=2) + "\n", path

        code = main(["tangle", path, "--format", "json"])
        tangled = json.loads(capsys.readouterr().out or "{}")
        assert code == (0 if record["measures"] else 3), path
        assert tangled.get("measures", {}) == record["measures"], path

        assert main(["segre", path, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["max_residual"] == record["max_residual"], path

        code = main(["moment", path, "--format", "json"])
        moment = json.loads(capsys.readouterr().out or "{}")
        assert code == (0 if record["separable"] else 3), path
        assert moment.get("moment_image") == record["moment_image"], path


def test_analyze_directory_is_the_per_file_route_as_json_dumps(tmp_path, capsys, monkeypatch):
    # The records of a directory are written from templates. They must be
    # the bytes json.dumps(indent=2) writes, both of the output itself and
    # of the per-file reports and errors, which run through json.dumps; and
    # the text output, the exit code and stderr must be those of the parent
    # route: the per-file outputs in name order, and a count of the failures.
    rng = np.random.default_rng(23)
    good = {}
    for m in range(2, 10):
        good[f"e{m}.json"] = MultiQubitState(m, random_state(rng, m).amplitudes * 10.0 ** (300 * (m % 3 - 1)))
        good[f"p{m}.json"] = random_product_state(rng, m)
    for name, state in good.items():
        (tmp_path / name).write_text(json.dumps(state_to_dict(state)))
    # Names that json escapes, and amplitudes at the edges of the float
    # range: signed zeros, subnormals, 1e300, and integers past 2^53 and
    # 2^64, which json reads as Python ints.
    special = [[2**53 + 1, -0.0], [5e-324, 0], [-0.0, 1e300], [2**64 + 1, -(2**64 + 3)]]
    (tmp_path / 'q"uote.json').write_text(json.dumps({"qubits": 2, "amplitudes": special}))
    (tmp_path / "back\\slash.json").write_text(json.dumps({"qubits": 2, "amplitudes": special[::-1]}))
    product = [[0, 0], [2**64 + 1, 0], [-0.0, 0], [5e-324, 0]]  # |0> (x) (0, 2^64 + 1), with 5e-324 on |11>
    (tmp_path / "n\u00f6n-\u00e4scii \u2713.json").write_text(
        json.dumps({"qubits": 2, "amplitudes": product, "normalize": False}), encoding="utf-8"
    )
    # Every kind of error record.
    errors = {
        "x_not_json.json": "{qubits",
        "x_not_utf8.json": b'{"qubits": 2, "note": "\xff"}',
        "x_not_object.json": [1, 2],
        "x_no_qubits.json": {"amplitudes": []},
        "x_bool_qubits.json": {"qubits": True, "amplitudes": [[1, 0], [0, 0]]},
        "x_zero_qubits.json": {"qubits": 0, "amplitudes": []},
        "x_13_qubits.json": {"qubits": 13, "amplitudes": []},
        "x_no_amplitudes.json": {"qubits": 2},
        "x_amplitudes_not_list.json": {"qubits": 2, "amplitudes": {"0": [1, 0]}},
        "x_short.json": {"qubits": 3, "amplitudes": [[1, 0]] * 7},
        "x_bool.json": {"qubits": 2, "amplitudes": [[1, 0], [0, True], [0, 0], [0, 0]]},
        "x_string.json": {"qubits": 2, "amplitudes": [[1, 0], [0, 0], ["0", 0], [0, 0]]},
        "x_triple.json": {"qubits": 2, "amplitudes": [[1, 0, 0], [0, 0], [0, 0], [0, 0]]},
        "x_huge.json": {"qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, -(10**400)]]},
        "x_nan.json": '{"qubits": 3, "amplitudes": [' + ", ".join(["[1, 0]"] * 7) + ", [NaN, 0]]}",
        "x_inf.json": '{"qubits": 2, "amplitudes": [[0, -Infinity], [1, 0], [0, 0], [0, 0]]}',
        "x_zero.json": {"qubits": 4, "amplitudes": [[0, -0.0]] * 16},
        "x_normalize.json": {"qubits": 2, "amplitudes": [[1, 0]] * 4, "normalize": "yes"},
        "x_one_qubit.json": {"qubits": 1, "amplitudes": [[1, 0], [0, 1]]},
        "x_one_qubit_zero.json": {"qubits": 1, "amplitudes": [[0, 0], [0, 0]]},
    }
    for name, content in errors.items():
        path = tmp_path / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
    (tmp_path / "x_directory.json").mkdir()
    names = sorted(p.name for p in tmp_path.iterdir())

    records, blocks = [], []
    for name in names:
        path = str(tmp_path / name)
        if name == "x_directory.json":  # analyze PATH would read it as a directory
            message = f"cannot read {path}: {os.strerror(errno.EISDIR)}"
            records.append({"path": name, "error": message})
            blocks.append(f"== {name}\nerror: {message}\n")
            continue
        code = main(["analyze", path, "--format", "json"])
        single = capsys.readouterr()
        assert main(["analyze", path]) == code
        text = capsys.readouterr()
        if code == 0:
            records.append({"path": name, **json.loads(single.out)})
            blocks.append(f"== {name}\n{text.out}")
        else:
            assert code == 2 and single.out == "" and single.err.startswith("qtoric: error: ")
            message = single.err[len("qtoric: error: ") : -1]
            records.append({"path": name, "error": message})
            blocks.append(f"== {name}\nerror: {message}\n")
    failed = sum("error" in r for r in records)
    assert failed == len(errors) + 1 and len(records) - failed == len(good) + 3
    assert {r["qubits"] for r in records if "error" not in r} == set(range(2, 10))
    assert {r["separable"] for r in records if "error" not in r} == {True, False}
    assert any(isinstance(r["measures"].get("H"), list) for r in records if "error" not in r)

    err = f"qtoric: error: {failed} of {len(names)} files failed\n"
    for block in BLOCKS:
        monkeypatch.setattr(qtoric.cli, "_BLOCK", block)
        assert main(["analyze", str(tmp_path), "--format", "json"]) == 2
        out = capsys.readouterr()
        assert out.out == json.dumps(json.loads(out.out), indent=2) + "\n"
        assert out == (json.dumps(records, indent=2) + "\n", err)
    assert main(["analyze", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("\n".join(blocks), err)


@pytest.mark.bitexact
def test_analyze_prints_the_same_bytes_at_every_power_of_two_scale(tmp_path, capsys):
    # States are projective: scaled by 2^k with every part still normal, a
    # file holds the same state, unit_vectors gives it the same bits, and
    # analyze prints the same bytes, at the smallest and largest such k.
    rng = np.random.default_rng(16)
    for m in range(2, 9):
        kinds = {
            "gaussian": rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m),
            "product": random_product_state(rng, m).amplitudes,
        }
        for kind, amplitudes in kinds.items():
            parts = amplitudes.view(float)
            _, exponents = np.frexp(parts[parts != 0])
            outputs = set()
            for k in (0, -1021 - exponents.min(), 1024 - exponents.max(), 300):
                scaled = MultiQubitState(m, np.ldexp(parts, k).view(complex))
                path = tmp_path / f"{kind}{m}_{k}.json"
                path.write_text(json.dumps(state_to_dict(scaled)))
                text = _cli_stdout(capsys, "analyze", str(path))
                outputs.add((text, _cli_stdout(capsys, "analyze", str(path), "--format", "json")))
            assert len(outputs) == 1, (kind, m)


def test_analyze_directory_all_good_quiet(tmp_path):
    (tmp_path / "bell.json").write_text(json.dumps(state_to_dict(named_state("bell"))))
    result = run_cli("analyze", str(tmp_path))
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.startswith("== bell.json\nqubits: 2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--state", "ghz40"),
        ("analyze", "--state", "01" * 20),
        ("segre", "-m", "12", "--list"),
        ("polytope", "cube", "-m", "13", "--fan"),
    ],
)
def test_qubit_caps_exit_2(argv):
    # Refused before anything of the requested size is allocated.
    result = run_cli(*argv, timeout=60)
    assert result.returncode == 2
    assert "limited to" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "argv, name, data, message",
    [
        (
            ("analyze",),
            "state.json",
            {"qubits": 2, "amplitudes": [[1, 0]] * 5},
            "expected 4 amplitudes, found 5",
        ),
        (
            ("moment", "--projective"),
            "point.json",
            {"coords": [[1, 0]] * (4096 + 1)},
            "a point is limited to 4096 coordinates, got 4097",
        ),
        (
            ("embed",),
            "factors.json",
            {"factors": [[[1, 0], [0, 0]]] * 13},
            "a state is limited to 12 qubits, got 13",
        ),
    ],
)
def test_oversized_inputs_are_refused_before_parsing(
    tmp_path, capsys, monkeypatch, argv, name, data, message
):
    # A file that holds more values than its input can take exits 2 before
    # a single [re, im] pair of it is converted, pair by pair or in bulk.
    # The same file one value shorter fits its input and does reach a
    # conversion, so the count would see one.
    calls = []

    def counted(convert):
        def wrapper(*args):
            calls.append(args[1])
            return convert(*args)

        return wrapper

    for module, attribute in (
        (qtoric.states, "parse_complex_pair"),
        (qtoric.states, "_complex_pairs"),
        (qtoric.cli, "parse_complex_pair"),
    ):
        monkeypatch.setattr(module, attribute, counted(getattr(module, attribute)))
    path = tmp_path / name
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qtoric: error: {message}\n"
    assert calls == []

    path.write_text(json.dumps({k: v[:-1] if isinstance(v, list) else v for k, v in data.items()}))
    assert main([*argv, str(path)]) == 0
    capsys.readouterr()
    assert calls


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (
            ("analyze",),
            {"qubits": 1, "amplitudes": [[1, 0], [0, 10**400]]},
            '"amplitudes[1]" holds a number beyond the float range',
        ),
        (
            ("moment", "--projective"),
            {"coords": [[-(10**400), 0], [1, 0]]},
            '"coords[0]" holds a number beyond the float range',
        ),
        (
            ("embed",),
            {"factors": [[[1, 0], [0, 0]], [[1, 0], [10**400, 0]]]},
            '"factors[1][1]" holds a number beyond the float range',
        ),
    ],
)
def test_integers_past_the_float_range_are_input_errors(tmp_path, capsys, argv, data, message):
    # JSON integers have no size limit; one that no float holds is refused
    # as an input error naming its field, not raised as an OverflowError.
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([*argv, str(path)]) == 2
    assert capsys.readouterr() == ("", f"qtoric: error: {message}\n")


def test_unreadable_files_do_not_abort_a_directory(tmp_path, capsys):
    # A file that json cannot load, or whose numbers no float holds, gets an
    # error record; every other file of the directory is still analyzed.
    (tmp_path / "a_bell.json").write_text(json.dumps(state_to_dict(named_state("bell"))))
    (tmp_path / "b_huge.json").write_text(
        json.dumps({"qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [10**400, 0]]})
    )
    (tmp_path / "c_digits.json").write_text(
        '{"qubits": 1, "amplitudes": [[1, 0], [' + "9" * 5000 + ", 0]]}"
    )
    (tmp_path / "d_latin1.json").write_bytes(b'{"qubits": 1, "note": "\xe9"}')
    (tmp_path / "e_ghz3.json").write_text(json.dumps(state_to_dict(named_state("ghz3"))))
    assert main(["analyze", str(tmp_path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "qtoric: error: 3 of 5 files failed\n"
    records = json.loads(captured.out)
    assert [sorted(r) == ["error", "path"] for r in records] == [False, True, True, True, False]
    assert records[1]["error"] == '"amplitudes[3]" holds a number beyond the float range'
    assert records[3]["error"].startswith(f"{tmp_path / 'd_latin1.json'} is not valid JSON: ")
    assert [r.get("separable") for r in records] == [False, None, None, None, False]


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
    # A state gives its own qubit count; -m belongs to --list alone.
    for argv in (("--state", "00", "-m", "5"), ("--state", "00", "-m", "2"), ("-m", "5")):
        result = run_cli("segre", *argv)
        assert (result.returncode, result.stdout) == (1, ""), argv
        assert "segre -m requires --list" in result.stderr, argv


def _cli_stdout(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _relation_row(relation) -> dict:
    return {
        "lhs": [relation.bitstring(i) for i in relation.lhs],
        "rhs": [relation.bitstring(i) for i in relation.rhs],
        "swap_axis": relation.swap_axis,
        "text": str(relation),
    }


@pytest.mark.parametrize("m", [4, 7])
def test_segre_list_json_is_json_dumps(capsys, monkeypatch, m):
    # m = 7 has 13,440 rows, more than one block of the row writer.
    payload = {"m": m, "relations": [_relation_row(r) for r in segre_relations(m)]}
    for block in BLOCKS:
        monkeypatch.setattr(qtoric.cli, "_BLOCK", block)
        out = _cli_stdout(capsys, "segre", "-m", str(m), "--list", "--format", "json")
        assert out == json.dumps(payload, indent=2) + "\n"


def test_segre_state_json_is_json_dumps(capsys, monkeypatch, tmp_path):
    state = named_state("ghz4")
    payloads = {
        ("--state", "ghz4"): {
            "m": 4,
            "relations": [
                {**_relation_row(r), "residual": relation_residual(state, r)}
                for r in segre_relations(4)
            ],
            "max_residual": max_segre_residual(state),
        }
    }
    # Seeded random state files at m = 2-7; at m = 7 the 13,440 rows span
    # 14 blocks. The residual column is checked against relation_residual
    # by test_segre_residual_column_matches_relation_residual; here every
    # byte around it is checked, and the column as json.dumps writes it.
    rng = np.random.default_rng(61)
    for m in range(2, 8):
        path = tmp_path / f"s{m}.json"
        path.write_text(json.dumps(state_to_dict(random_state(rng, m))))
        out = _cli_stdout(capsys, "segre", str(path), "--format", "json")
        residuals = [row["residual"] for row in json.loads(out)["relations"]]
        payloads[(str(path),)] = {
            "m": m,
            "relations": [
                {**_relation_row(r), "residual": residual}
                for r, residual in zip(segre_relations(m), residuals, strict=True)
            ],
            "max_residual": max_segre_residual(state_from_dict(json.loads(path.read_text()))),
        }
    for block in BLOCKS:
        monkeypatch.setattr(qtoric.cli, "_BLOCK", block)
        for source, payload in payloads.items():
            out = _cli_stdout(capsys, "segre", *source, "--format", "json")
            assert out == json.dumps(payload, indent=2) + "\n", (block, source)


def test_segre_text_is_relation_str(capsys, monkeypatch):
    state = named_state("w3")
    lines = [f"{r}   residual = {_fmt(relation_residual(state, r))}" for r in segre_relations(3)]
    lines.append(f"max residual = {_fmt(max_segre_residual(state))}")
    for block in BLOCKS:
        monkeypatch.setattr(qtoric.cli, "_BLOCK", block)
        for m in (3, 7):
            out = _cli_stdout(capsys, "segre", "-m", str(m), "--list")
            assert out == "\n".join(str(r) for r in segre_relations(m)) + "\n"
        out = _cli_stdout(capsys, "segre", "--state", "w3")
        assert out == "\n".join(lines) + "\n"


@pytest.mark.bitexact
@pytest.mark.parametrize("m", [5, 6, 7])
def test_segre_residual_column_matches_relation_residual(capsys, tmp_path, m):
    # The CLI multiplies the gathered amplitude columns as arrays, which may
    # round differently from relation_residual's scalars in the last bit.
    rng = np.random.default_rng(40 + m)
    for k, state in enumerate((random_state(rng, m), random_product_state(rng, m))):
        path = tmp_path / f"s{k}.json"
        path.write_text(json.dumps(state_to_dict(state)))
        read = state_from_dict(json.loads(path.read_text()))
        rows = json.loads(_cli_stdout(capsys, "segre", str(path), "--format", "json"))
        relations = segre_relations(m)
        assert [row["text"] for row in rows["relations"]] == [str(r) for r in relations]
        for row, relation in zip(rows["relations"], relations):
            assert abs(row["residual"] - relation_residual(read, relation)) <= 1e-16
        assert rows["max_residual"] == max_segre_residual(read)


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


@pytest.mark.bitexact
def test_moment_takes_the_analyze_verdict(tmp_path, capsys):
    # A basis state plus 5e-10 on |11>: the pivot factors reconstruct it to
    # 5e-10, within 10 * tol, but its residual 5e-10 fails the residual gate
    # at tol 1e-10. moment refuses every state that analyze calls entangled.
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"qubits": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [5e-10, 0]]}))
    assert main(["analyze", str(path)]) == 0
    assert "separable: false" in capsys.readouterr().out
    assert main(["moment", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "state is not a product; moment map undefined" in captured.err
    # A single qubit has no Segre relation; reconstruction alone decides.
    assert main(["moment", "--state", "1"]) == 0
    assert "moment image: (-0.5)" in capsys.readouterr().out
    # At any scale, and with a zero component, the batch route prints the
    # image of the library's scalar route to the bit.
    rng = np.random.default_rng(15)
    path = tmp_path / "qubit.json"
    for scale in (1.0, 1e200, 1e-200, 1e-310):
        for pair in ([1, 0], [0, 1j], rng.standard_normal(4).view(complex)):
            amplitudes = [[scale * a.real, scale * a.imag] for a in np.asarray(pair, complex)]
            data = {"qubits": 1, "amplitudes": amplitudes}
            path.write_text(json.dumps(data))
            assert main(["moment", str(path), "--format", "json"]) == 0
            printed = json.loads(capsys.readouterr().out)["moment_image"]
            want = moment_product(extract_factors(state_from_dict(data), 1e-10))
            assert printed == want.tolist(), (scale, pair)


def test_moment_projective_point(tmp_path):
    # The point is projective: the image is the same at any finite scale.
    path = tmp_path / "point.json"
    for scale in (1.0, 1e200, 1e-310):
        path.write_text(json.dumps({"coords": [[scale, 0.0], [scale, 0.0]]}))
        result = run_cli("moment", "--projective", str(path))
        assert result.returncode == 0
        assert "moment image: (-0.25)" in result.stdout, scale
        assert "inside [-1/2, 0]^1: true" in result.stdout, scale


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


@pytest.mark.bitexact
@pytest.mark.parametrize("source", ["0", "bell", "ghz3", "ghz4", "ghz5", "ghz6", 2, 3, 4])
def test_tangle_prints_the_analyze_measures(source, tmp_path, capsys):
    # A name is a fixture; a qubit count stands for a random state file.
    if isinstance(source, str):
        argv = ["--state", source]
    else:
        path = tmp_path / "state.json"
        state = random_state(np.random.default_rng(90 + source), source)
        path.write_text(json.dumps(state_to_dict(state)))
        argv = [str(path)]
    code = main(["analyze", *argv, "--format", "json"])
    analyzed = capsys.readouterr()
    measures = json.loads(analyzed.out)["measures"] if code == 0 else {}
    assert code == (2 if source == "0" else 0), analyzed.err
    assert main(["segre", *argv]) == code, "segre and analyze refuse the same states"
    capsys.readouterr()
    code = main(["tangle", *argv, "--format", "json"])
    tangled = capsys.readouterr()
    if not measures:
        assert code == 3 and tangled.out == ""
        return
    assert code == 0
    assert json.loads(tangled.out)["measures"] == measures
    assert "tau4_spinflip" not in measures


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


def test_invariants_json_is_strict_json(capsys):
    # A ratio with an exactly zero denominator, as every ratio of a basis
    # state is, is written as null: NaN and Infinity are not JSON. The text
    # keeps nan.
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    assert main(["invariants", "--state", "0000", "--format", "json"]) == 0
    ratios = json.loads(capsys.readouterr().out, parse_constant=refuse)["ratios"]
    assert list(ratios.values()) == [None] * 5
    assert main(["invariants", "--state", "0000"]) == 0
    assert "tau4_spinflip/abs_h_sq = nan" in capsys.readouterr().out


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


POLYTOPE_FLAGS = ("--delzant", "--lattice-points", "--fan")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7])
def test_polytope_json_is_json_dumps(capsys, monkeypatch, m):
    # The lattice points are written through a row template, the rest by
    # json.dumps: the text must be exactly json.dumps(payload, indent=2).
    # m = 7 has 2187 points, more than one block of the row writer.
    for variant, block in itertools.product(("centered", "unit"), BLOCKS):
        monkeypatch.setattr(qtoric.cli, "_BLOCK", block)
        want_points = lattice_points(cube(m, variant)).points.tolist()
        for flags in itertools.product(*[((), (flag,)) for flag in POLYTOPE_FLAGS]):
            argv = ["polytope", "cube", "-m", str(m), "--variant", variant, *sum(flags, ())]
            out = _cli_stdout(capsys, *argv, "--format", "json")
            payload = json.loads(out)
            assert out == json.dumps(payload, indent=2) + "\n"
            assert payload.get("lattice_points", want_points) == want_points


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


def test_output_flag_unwritable_path_exits_2(tmp_path):
    out = tmp_path / "missing" / "out.txt"
    result = run_cli("tangle", "--state", "bell", "-o", str(out))
    assert result.returncode == 2
    assert f"cannot write {out}" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="needs SIGPIPE")
def test_closed_pipe_ends_the_command_quietly():
    # A reader that stops after one line, as `| head -n 1` does: the command
    # ends on SIGPIPE, as cat does, with no traceback and no exit code of its own.
    child = subprocess.Popen(
        [sys.executable, "-m", "qtoric", "segre", "-m", "9", "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert child.stdout.readline().startswith(b"a[")
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait(timeout=60) == -signal.SIGPIPE
    assert stderr == b""


# The console script's wrapper, as pip writes it, and `python -m qtoric`.
LAUNCHERS = [["-c", "import sys; from qtoric.__main__ import main; sys.exit(main())"], ["-m", "qtoric"]]


def test_command_output_is_the_in_process_output(tmp_path, capsys):
    # The command ends the process without the interpreter's teardown, once
    # its buffered output is flushed: every byte still arrives, through a pipe
    # and in an -o file.
    argv = ["segre", "-m", "8", "--list"]
    assert main(argv) == 0
    want = capsys.readouterr().out.encode()
    command = [sys.executable, "-m", "qtoric", *argv]
    piped = subprocess.run(command, capture_output=True, env=child_env())
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == want
    out = tmp_path / "relations.txt"
    written = subprocess.run([*command, "-o", str(out)], capture_output=True, env=child_env())
    assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
    assert out.read_bytes() == want


@pytest.mark.parametrize("launcher", LAUNCHERS, ids=["console-script", "module"])
@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["--version"], 0, f"qtoric {qtoric.__version__}\n"),
        (["tangle", "--state", "bell"], 0, "concurrence = 1\n"),
        (["tangle", "--state", "bell", "--tol", "1"], 1, ""),
        (["moment", "--state", "bell"], 3, ""),
    ],
)
def test_command_exit_codes_and_output(launcher, argv, code, out):
    # The exit code of a returned command and of argparse's SystemExit.
    result = subprocess.run(
        [sys.executable, *launcher, *argv], capture_output=True, text=True, env=child_env()
    )
    assert (result.returncode, result.stdout) == (code, out)
    assert (result.stderr == "") == (code == 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("launcher", LAUNCHERS, ids=["console-script", "module"])
def test_lost_output_ends_the_command_with_an_error(launcher):
    # Buffered stdout fails only when the command flushes it, at its end; a
    # write that is lost must still end it with a nonzero status.
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, *launcher, "analyze", "--state", "bell"],
            stdout=full, stderr=subprocess.PIPE, env=child_env(),
        )
    assert result.returncode != 0
    assert b"No space left on device" in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("polytope", "cube", "-m", "2", "--state", "bell"),
        ("embed", "factors.json", "--state", "bell"),
        ("segre", "--state", "bell", "--tol", "0.5"),
        ("tangle", "--state", "bell", "--tol", "0.5"),
        ("invariants", "--state", "ghz4", "--tol", "0.5"),
        ("polytope", "cube", "-m", "2", "--tol", "0.5"),
        ("embed", "factors.json", "--tol", "0.5"),
        ("embed", "factors.json", "--format", "json"),
        ("polytope", "cube", "-m", "2", "--tol", "5"),
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(argv, capsys):
    # Each subcommand takes only the options it reads, and names them in its
    # own usage line.
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert captured.err.startswith(f"usage: qtoric {argv[0]} [-h]")


@pytest.mark.parametrize(
    "argv",
    [
        ("moment", "--projective", "{point}", "--tol", "0.5"),
        ("moment", "--tol", "1e-10", "--projective", "{point}"),
    ],
)
def test_moment_projective_refuses_tol(tmp_path, capsys, argv):
    # A projective point's image reads no tolerance, so --tol with
    # --projective is a usage error, in either order and at any value.
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"coords": [[1, 0], [1, 0]]}))
    with pytest.raises(SystemExit) as exit_:
        main([arg.format(point=point) for arg in argv])
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err
    assert captured.err.startswith("usage: qtoric moment [-h]")
    assert main(["moment", "--projective", str(point)]) == 0
    assert capsys.readouterr().out == "moment image: (-0.25)\ninside [-1/2, 0]^1: true\n"


def test_nonpositive_tol_rejected():
    for tol in ("-1", "inf", "nan"):
        result = run_cli("analyze", "--state", "bell", "--tol", tol)
        assert result.returncode == 1, tol
