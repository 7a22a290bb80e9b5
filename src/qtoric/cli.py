"""Command-line front end.

Subcommands: ``analyze``, ``segre``, ``moment``, ``tangle``, ``invariants``,
``polytope``, ``embed``. A state is given either as a JSON file path or as a
named fixture via ``--state`` (``bell``, ``ghz<m>``, ``w3``, or a bitstring
such as ``01`` for a computational basis state).

Exit codes: 0 success, 1 usage error, 2 input parse/validation error,
3 domain error (for example a moment map requested for an entangled state).

Text output prints reals with 12 significant digits; ``--format json``
carries full double precision. Moment images use the Fubini-Study
normalization with per-axis range [-1/2, 0]; the height-function convention
with range [-1, 1] is the affine image t -> 4t + 1 of printed values.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import QToricError, SchemaError, WrongQubitCountError
from .segre import RELATION_TEXT, max_segre_residual, relation_table
from .states import (
    DEFAULT_TOLERANCE,
    MultiQubitState,
    QubitFactor,
    _invalid_rows,
    check_qubit_count,
    named_state,
    parse_complex_pair,
    point_from_dict,
    read_state_fields,
    segre_embed,
    state_from_dict,
    state_to_dict,
    unit_vectors,
)

# The analyzer, the measures, the moment maps and the polytope code are
# imported inside the commands that run them (analyze, moment, tangle,
# invariants, polytope), so no command loads what it does not run.
if TYPE_CHECKING:
    from .analyzer import AnalysisReport

# Not called here: benchmarks/tracer.py wraps these two of .segre and the
# analyzer's analyze at these names (segre works from relation_table, and
# analyze runs through _reports). analyze is bound on first access, by
# __getattr__. The tracer also wraps _emit_json, inside which the rows
# render lazily, and _relation_dict, the segre row schema, once per command.
from .segre import relation_residual, segre_relations  # noqa: F401


def __getattr__(name):
    if name != "analyze":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .analyzer import analyze

    globals()["analyze"] = analyze
    return analyze


__all__ = ["main", "build_parser"]


class _CliError(Exception):
    """A usage error (exit code 1) or a domain error (exit code 3).

    Input errors are the library's :class:`QToricError` and exit with 2.
    """

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # The exit-code contract reserves 1 for usage errors (argparse default
    # would be 2, which is taken by input validation).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    # A subcommand refuses an option it does not take itself, so the error
    # shows that subcommand's usage line and not the top-level one.
    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def _fmt(value: float) -> str:
    return f"{value + 0.0:.12g}"


def _fmt_complex(value: complex) -> str:
    if value.imag == 0.0:
        return _fmt(value.real)
    sign = "+" if value.imag >= 0 else "-"
    return f"{_fmt(value.real)}{sign}{_fmt(abs(value.imag))}i"


def _fmt_vector(values) -> str:
    return "(" + ", ".join(_fmt(float(v)) for v in values) + ")"


def _measure_text(value) -> str:
    if isinstance(value, complex):
        return _fmt_complex(value)
    return _fmt(float(value))


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise QToricError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        # A JSONDecodeError, bytes that are not UTF-8, or an integer longer
        # than int()'s digit limit.
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _resolve_state(args) -> MultiQubitState:
    path = getattr(args, "path", None)
    name = getattr(args, "state", None)
    if path and name:
        raise _CliError("give either a state file or --state, not both", code=1)
    if name:
        return named_state(name)
    if path:
        return state_from_dict(_load_json(path))
    raise _CliError("a state is required: pass a JSON file or --state <name>", code=1)


def _emit(args, text) -> None:
    """Write ``text``, a str or an iterable of str pieces, ending in a newline."""
    pieces = [text] if isinstance(text, str) else text
    out = args.output
    try:
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as handle:
            ends_with_newline = False
            for piece in pieces:
                if piece:
                    handle.write(piece)
                    ends_with_newline = piece.endswith("\n")
            if not ends_with_newline:
                handle.write("\n")
    except OSError as exc:
        if not out:
            raise
        raise QToricError(f"cannot write {out}: {exc.strerror or exc}") from exc


_ROWS = "@rows@"


def _emit_json(args, payload, key=None, rows=None) -> None:
    """Write ``json.dumps(payload, indent=2)``.

    With ``rows``, the list ``payload[key]`` of the top level, or with no
    ``key`` the top-level list itself, is written from those pieces of
    pre-rendered row text (an iterable, consumed here), separators included.
    """
    if rows is None:
        _emit(args, json.dumps(payload, indent=2))
        return
    text = json.dumps([_ROWS] if key is None else {**payload, key: [_ROWS]}, indent=2)
    head, tail = text.split(f'"{_ROWS}"')
    _emit(args, itertools.chain([head.rstrip(" ")], rows, [tail]))


def _row_template(sample, depth, *bare) -> str:
    """``sample``, a dict or list with %-placeholder leaves, as a %-template of
    what ``json.dumps(indent=2)`` writes for it ``depth`` levels deep, with the
    placeholders in ``bare`` unquoted: numbers, and strings that ``_json_str``
    quotes. Rows written through it cannot drift from the sample's schema.
    """
    text = json.dumps(sample, indent=2)
    for placeholder in bare:
        text = text.replace(f'"{placeholder}"', placeholder)
    indent = "  " * depth
    return indent + text.replace("\n", "\n" + indent)


_BLOCK = 1024  # rows rendered into one piece of output


def _joined(texts, sep):
    """``sep.join(texts)``, in pieces of ``_BLOCK`` texts, for ``_emit``.

    Pieces keep memory bounded: at m = 10 the ``segre`` JSON output is
    about 400 MB. At m = 7 the command peaks about 5 MB lower with pieces
    of 1024 rows than of 8192, at the same speed.
    """
    texts = iter(texts)
    lead = ""
    while block := list(itertools.islice(texts, _BLOCK)):
        yield lead + sep.join(block)
        lead = sep


def _listed(array):
    """The rows of ``array`` as Python values, converted ``_BLOCK`` at a time."""
    for start in range(0, len(array), _BLOCK):
        yield from array[start : start + _BLOCK].tolist()


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _report_text(report: AnalysisReport) -> str:
    lines = [
        f"qubits: {report.num_qubits}",
        f"separable: {str(report.separable).lower()}",
        f"max residual: {_fmt(report.max_residual)}",
        f"tolerance: {_fmt(report.tolerance)}",
    ]
    if report.borderline:
        lines.append("note: residual within 10x of tolerance (borderline)")
    if report.factors is not None:
        lines.append("factors (most significant qubit first):")
        for position, factor in enumerate(report.factors, start=1):
            lines.append(
                f"  factor {position}: [{_fmt_complex(factor.a0)}, {_fmt_complex(factor.a1)}]"
            )
    if report.moment_image is not None:
        lines.append(f"moment image: {_fmt_vector(report.moment_image)}")
    if report.measures:
        lines.append("measures:")
        for name, value in report.measures.items():
            lines.append(f"  {name} = {_measure_text(value)}")
    return "\n".join(lines)


def _cmd_analyze(args) -> int:
    from .analyzer import _reports

    target = getattr(args, "path", None)
    if target and Path(target).is_dir() and not args.state:
        return _analyze_directory(args, target)
    # One state is analyzed as a batch of one, from its cached unit vector,
    # so it gets the report its file gets in a directory.
    state = _resolve_state(args)
    if state.num_qubits < 2:
        raise WrongQubitCountError("analysis needs at least 2 qubits")
    report = _reports(state._unit[None], args.tol)[0]
    if args.format == "json":
        _emit_json(args, report.to_dict())
    else:
        _emit(args, _report_text(report))
    return 0


def _analyze_directory(args, target: str) -> int:
    """One report per state file; a file that fails gets an error record instead."""
    from .analyzer import _reports

    # Sorted as strings, which on POSIX is the order of the Path objects.
    paths = sorted(map(str, Path(target).glob("*.json")))
    if not paths:
        raise QToricError(f"no .json state files in {target}")

    # Every file is read and its schema checked first. Then the amplitudes
    # of each qubit count are stacked once: a row that is not finite and
    # nonzero gets its error, and the rest are analyzed in one batch. A file
    # that fails at any step is carried on as its error message.
    outcomes: list = [None] * len(paths)
    groups: dict[int, list] = {}
    for k, path in enumerate(paths):
        try:
            m, amplitudes = read_state_fields(_load_json(path))
        except QToricError as exc:
            outcomes[k] = str(exc)
        else:
            groups.setdefault(m, []).append((k, amplitudes))
    for m, members in groups.items():
        positions, rows = zip(*members)
        batch = np.stack(rows)
        invalid = _invalid_rows(batch)
        for i, error in invalid.items():
            outcomes[positions[i]] = str(error)
        valid = [i for i in range(len(positions)) if i not in invalid]
        if m < 2:
            results = ["analysis needs at least 2 qubits"] * len(valid)
        else:
            results = _reports(unit_vectors(batch[valid])[0], args.tol)
        for i, result in zip(valid, results):
            outcomes[positions[i]] = result
    names = [os.path.basename(path) for path in paths]
    if args.format == "json":
        _emit_json(args, None, rows=_joined(_rendered_records(names, outcomes), ",\n"))
    else:
        blocks = [
            f"== {name}\n" + (f"error: {o}" if isinstance(o, str) else _report_text(o))
            for name, o in zip(names, outcomes)
        ]
        _emit(args, "\n\n".join(blocks))
    failed = sum(isinstance(o, str) for o in outcomes)
    if failed:
        print(f"qtoric: error: {failed} of {len(paths)} files failed", file=sys.stderr)
        return 2
    return 0


_json_str = json.encoder.encode_basestring_ascii  # how json.dumps writes a str


def _rendered_records(names, outcomes):
    """The records of ``analyze DIR``, ``{"path": name, **report.to_dict()}``
    or ``{"path": name, "error": message}``, one text each.

    Each qubit count and verdict, and the errors, get one template, dumped
    from their first record with every float as ``%r``: ``repr`` is how
    ``json`` writes a float, and the reports of finite, nonzero states hold
    finite floats only.
    """
    templates: dict = {}
    for name, outcome in zip(names, outcomes):
        if isinstance(outcome, str):
            key, values = None, (_json_str(outcome),)
        else:
            key, values = (outcome.num_qubits, outcome.separable), _report_numbers(outcome)
        if key not in templates:
            fields = {"error": "%s"} if key is None else _float_placeholders(outcome.to_dict())
            templates[key] = _row_template({"path": "%s", **fields}, 1, "%s", "%r")
        yield templates[key] % (_json_str(name), *values)


def _float_placeholders(value):
    """``value``, a tree of dicts and lists, with each float replaced by ``"%r"``."""
    if isinstance(value, float):
        return "%r"
    if isinstance(value, list):
        return [_float_placeholders(v) for v in value]
    if isinstance(value, dict):
        return {k: _float_placeholders(v) for k, v in value.items()}
    return value


def _report_numbers(report: AnalysisReport) -> list[float]:
    """The floats of ``report.to_dict()`` in the order it holds them, read
    from the report without building the dict."""
    numbers = [report.max_residual]
    if report.factors is not None:
        for f in report.factors:
            numbers += (f.a0.real, f.a0.imag, f.a1.real, f.a1.imag)
        numbers += report.moment_image.tolist()
    for value in report.measures.values():
        numbers += (value.real, value.imag) if isinstance(value, complex) else (float(value),)
    numbers.append(report.tolerance)
    return numbers


# ---------------------------------------------------------------------------
# segre
# ---------------------------------------------------------------------------


def _cmd_segre(args) -> int:
    if args.list:
        if args.path or args.state:
            raise _CliError("give either a state or --list, not both", code=1)
        if args.m is None:
            raise _CliError("segre --list requires -m", code=1)
        if args.m < 2:
            raise _CliError("segre needs m >= 2", code=1)
        m, residuals, largest = args.m, None, None
        table = relation_table(m)
    else:
        if args.m is not None:
            raise _CliError("segre -m requires --list; a state gives its own m", code=1)
        state = _resolve_state(args)
        m = state.num_qubits
        table = relation_table(m)
        a = state._unit
        x, y, u, v = table[:, :4].T
        residuals = np.abs(a[x] * a[y] - a[u] * a[v])
        largest = max_segre_residual(state)
    # Every row fills one template with the bitstrings x, y, u, v, the swap
    # axis j and the residual r.
    if args.format == "json":
        row = _relation_dict(("%(x)s", "%(y)s"), ("%(u)s", "%(v)s"), "%(j)d", RELATION_TEXT)
        payload = {"m": m, "relations": None}
        if residuals is not None:
            row["residual"] = "%(r)s"  # filled by repr, which is how json writes a float
            payload["max_residual"] = largest
        template, sep, residual_text = _row_template(row, 2, "%(j)d", "%(r)s"), ",\n", repr
    else:
        template, sep, residual_text = RELATION_TEXT, "\n", _fmt
        if residuals is not None:
            template += "   residual = %(r)s"
    bits = [format(i, f"0{m}b") for i in range(1 << m)]
    texts = itertools.repeat("") if residuals is None else map(residual_text, _listed(residuals))
    filled = (
        template % {"x": bits[x], "y": bits[y], "u": bits[u], "v": bits[v], "j": j, "r": r}
        for (x, y, u, v, j), r in zip(_listed(table), texts)
    )
    rows = _joined(filled, sep)
    if args.format == "json":
        _emit_json(args, payload, "relations", rows)
    else:
        tail = "" if residuals is None else f"\nmax residual = {_fmt(largest)}"
        _emit(args, itertools.chain(rows, [tail]))
    return 0


def _relation_dict(lhs, rhs, swap_axis, text) -> dict:
    """One relation row of the ``segre`` JSON payload."""
    return {"lhs": list(lhs), "rhs": list(rhs), "swap_axis": swap_axis, "text": text}


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def _cmd_moment(args) -> int:
    from .moment import moment_projective

    if args.projective:
        path = getattr(args, "path", None)
        if not path:
            raise _CliError("--projective requires a point JSON file", code=1)
        if args.state:
            raise _CliError("give either a point file or --state, not both", code=1)
        image = moment_projective(point_from_dict(_load_json(path)))
    else:
        from .analyzer import _reports

        unit = _resolve_state(args)._unit[None]
        image = _reports(unit, args.tol)[0].moment_image
        if image is None:
            raise _CliError("state is not a product; moment map undefined", code=3)
    # Every image lies in the box at tolerance 0: each coordinate is -w_i/2 / fl(sum of w)
    # with every w_i >= 0, and a rounded sum of non-negative terms is never below one term.
    k = len(image)
    if args.format == "json":
        _emit_json(args, {"moment_image": image.tolist(), "inside": True, "box": [[-0.5, 0.0]] * k})
    else:
        _emit(args, f"moment image: {_fmt_vector(image)}\ninside [-1/2, 0]^{k}: true")
    return 0


# ---------------------------------------------------------------------------
# tangle / invariants
# ---------------------------------------------------------------------------


def _cmd_tangle(args) -> int:
    from .analyzer import _measures_many, measures_to_dict

    state = _resolve_state(args)
    rows = _measures_many(state._unit[None])
    measures = {name: values.tolist()[0] for name, values in rows.items()}
    if not measures:
        raise _CliError(f"no tangle defined for a {state.num_qubits}-qubit state", code=3)
    if args.format == "json":
        _emit_json(args, {"qubits": state.num_qubits, "measures": measures_to_dict(measures)})
    else:
        _emit(args, "\n".join(f"{k} = {_measure_text(v)}" for k, v in measures.items()))
    return 0


def _cmd_invariants(args) -> int:
    from .measures import check_tau4_identities

    state = _resolve_state(args)
    if state.num_qubits != 4:
        raise WrongQubitCountError(
            f"invariants needs a 4-qubit state, got {state.num_qubits} qubits"
        )
    report = check_tau4_identities(state)
    if args.format == "json":
        _emit_json(args, report.to_dict())
        return 0
    lines = [
        f"H = {_fmt_complex(report.h)}",
        f"I1 = {_fmt_complex(report.i1)}",
        f"tau4_spinflip = {_fmt(report.tau4_spinflip)}",
        f"tau4_epsilon = {_fmt(report.tau4_epsilon)}",
        f"|H|^2 = {_fmt(report.abs_h_sq)}",
        f"4|H|^2 = {_fmt(report.four_abs_h_sq)}",
        f"4|I1|^2 = {_fmt(report.four_abs_i1_sq)}",
        "ratios:",
    ]
    lines += [f"  {name} = {_fmt(value)}" for name, value in report.ratios.items()]
    lines.append(f"note: {report.note}")
    _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# polytope
# ---------------------------------------------------------------------------


def _cmd_polytope(args) -> int:
    from .toric import cube, delzant_check, lattice_points, normal_fan_box

    if args.m is None:
        raise _CliError("polytope requires -m", code=1)
    if args.m < 1:
        raise _CliError("polytope needs m >= 1", code=1)
    polytope = cube(args.m, args.variant)
    payload: dict = {
        "shape": "cube",
        "m": args.m,
        "variant": args.variant,
        "vertices": polytope.vertices.tolist(),
    }
    lines = [f"cube(m={args.m}, {args.variant}): {polytope.num_vertices} vertices"]
    lines += [f"  {tuple(v)}" for v in payload["vertices"]]
    if args.delzant:
        verdict = delzant_check(polytope)
        payload["delzant"] = verdict.is_delzant
        payload["failures"] = [
            {"vertex": list(f.vertex), "reason": f.reason, "determinant": f.determinant}
            for f in verdict.failures
        ]
        lines.append(f"delzant: {str(verdict.is_delzant).lower()}")
        for failure in verdict.failures:
            lines.append(f"  vertex {failure.vertex}: {failure.reason}")
    rows = None
    if args.lattice_points:
        points = lattice_points(polytope).points
        payload["lattice_point_count"] = len(points)
        payload["lattice_points"] = None  # written from rows
        lines.append(f"lattice points: {len(points)}")
        if args.format == "json":
            template = _row_template(["%d"] * points.shape[1], 2, "%d")
            rows = _joined((template % tuple(p) for p in _listed(points)), ",\n")
        else:
            lines += [f"  {tuple(p)}" for p in points.tolist()]
    if args.fan:
        fan = normal_fan_box(polytope)
        payload["cone_count"] = fan.cone_count
        payload["maximal_cone_count"] = fan.maximal_cone_count
        lines.append(
            f"normal fan: {fan.cone_count} cones ({payload['maximal_cone_count']} maximal)"
        )
    if args.format == "json":
        _emit_json(args, payload, "lattice_points", rows)
    else:
        _emit(args, "\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------


def _factors_from_file(path: str) -> list[QubitFactor]:
    data = _load_json(path)
    if not isinstance(data, dict) or "factors" not in data:
        raise SchemaError('factor JSON must be an object with a "factors" field')
    raw = data["factors"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError('"factors" must be a nonempty array')
    check_qubit_count(len(raw))  # before any factor is parsed
    factors = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError(f'"factors[{i}]" must be an [a0, a1] pair')
        a0 = parse_complex_pair(entry[0], f"factors[{i}][0]")
        a1 = parse_complex_pair(entry[1], f"factors[{i}][1]")
        factors.append(QubitFactor(a0, a1))
    return factors


def _cmd_embed(args) -> int:
    factors = _factors_from_file(args.factors)
    state = segre_embed(factors)
    _emit_json(args, state_to_dict(state))
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the options it reads; argparse refuses the rest.
    output = _Parser(add_help=False)
    output.add_argument("-o", "--output", metavar="PATH", help="write output to a file")
    formatted = _Parser(add_help=False, parents=[output])
    formatted.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    stated = _Parser(add_help=False, parents=[formatted])
    stated.add_argument(
        "--state", metavar="NAME", help="named fixture: bell, ghz<m>, w3, or a bitstring"
    )
    tolerance = dict(type=float, default=DEFAULT_TOLERANCE, help="numeric tolerance")

    parser = _Parser(prog="qtoric", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qtoric {__version__}")
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    analyze_p = commands.add_parser(
        "analyze", parents=[stated], help="separability report for a state (or a directory)"
    )
    analyze_p.add_argument("path", nargs="?", help="state JSON file or directory")
    analyze_p.add_argument("--tol", **tolerance)
    analyze_p.set_defaults(run=_cmd_analyze)

    segre_p = commands.add_parser(
        "segre", parents=[stated], help="binomial relations and residuals"
    )
    segre_p.add_argument("path", nargs="?", help="state JSON file")
    segre_p.add_argument("-m", type=int, help="qubit count for --list")
    segre_p.add_argument("--list", action="store_true", help="print the canonical relations")
    segre_p.set_defaults(run=_cmd_segre)

    moment_p = commands.add_parser(
        "moment", parents=[stated], help="moment-map image of a product state or point"
    )
    moment_p.add_argument("path", nargs="?", help="state (or point) JSON file")
    # Only a state's verdict reads the tolerance; a projective point has none.
    point_or_tol = moment_p.add_mutually_exclusive_group()
    point_or_tol.add_argument(
        "--projective", action="store_true", help="treat the file as a projective point"
    )
    point_or_tol.add_argument("--tol", **tolerance)
    moment_p.set_defaults(run=_cmd_moment)

    tangle_p = commands.add_parser(
        "tangle", parents=[stated], help="applicable tangle measures"
    )
    tangle_p.add_argument("path", nargs="?", help="state JSON file")
    tangle_p.set_defaults(run=_cmd_tangle)

    invariants_p = commands.add_parser(
        "invariants", parents=[stated], help="four-qubit invariant table"
    )
    invariants_p.add_argument("path", nargs="?", help="state JSON file")
    invariants_p.set_defaults(run=_cmd_invariants)

    polytope_p = commands.add_parser(
        "polytope", parents=[formatted], help="cube vertices, Delzant verdict, points, fan"
    )
    polytope_p.add_argument("shape", choices=("cube",), help="polytope family")
    polytope_p.add_argument("-m", type=int, help="dimension")
    polytope_p.add_argument(
        "--variant", choices=("centered", "unit"), default="centered", help="cube variant"
    )
    polytope_p.add_argument("--delzant", action="store_true", help="run the Delzant check")
    polytope_p.add_argument(
        "--lattice-points", action="store_true", help="enumerate integral points"
    )
    polytope_p.add_argument("--fan", action="store_true", help="normal fan cone count")
    polytope_p.set_defaults(run=_cmd_polytope)

    embed_p = commands.add_parser(
        "embed", parents=[output], help="embed single-qubit factors into a state file"
    )
    embed_p.add_argument("factors", help="factor JSON file")
    embed_p.set_defaults(run=_cmd_embed)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        print("qtoric: error: --tol must be positive and finite", file=sys.stderr)
        return 1
    try:
        return args.run(args)
    except (_CliError, QToricError) as exc:
        print(f"qtoric: error: {exc}", file=sys.stderr)
        return getattr(exc, "code", 2)


if __name__ == "__main__":
    sys.exit(main())
