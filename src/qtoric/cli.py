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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analyzer import (
    AnalysisReport,
    DEFAULT_TOLERANCE,
    _measures_many,
    _reports,
    _verdict,
    analyze_many,
    measures_to_dict,
)
from .errors import QToricError, SchemaError, WrongQubitCountError
from .measures import check_tau4_identities
from .moment import BoxPolytope, in_polytope, moment_projective
from .states import (
    MultiQubitState,
    QubitFactor,
    named_state,
    parse_complex_pair,
    point_from_dict,
    read_state_fields,
    segre_embed,
    state_from_dict,
    state_to_dict,
)
from .toric import RELATION_TEXT, cube, delzant_check, lattice_points, normal_fan_box
from .toric import max_segre_residual, relation_table

# Not called here: analyze runs through _reports, and segre works from
# relation_table. benchmarks/tracer.py wraps all three at these names.
from .analyzer import analyze  # noqa: F401
from .toric import relation_residual, segre_relations  # noqa: F401

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
    except json.JSONDecodeError as exc:
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
    out = getattr(args, "output", None)
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as handle:
        ends_with_newline = False
        for piece in pieces:
            if piece:
                handle.write(piece)
                ends_with_newline = piece.endswith("\n")
        if not ends_with_newline:
            handle.write("\n")


_ROWS = "@rows@"


def _emit_json(args, payload, key=None, rows=None) -> None:
    """Write ``json.dumps(payload, indent=2)``.

    With ``rows``, the list ``payload[key]`` of the top level is written from
    those pieces of pre-rendered row text (an iterable, consumed here),
    separators included.
    """
    if rows is None:
        _emit(args, json.dumps(payload, indent=2))
        return
    text = json.dumps({**payload, key: [_ROWS]}, indent=2)
    head, tail = text.split(f'    "{_ROWS}"')
    _emit(args, itertools.chain([head], rows, [tail]))


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
    files = sorted(Path(target).glob("*.json"))
    if not files:
        raise QToricError(f"no .json state files in {target}")

    # Every file is read and validated first; the good ones are analyzed in
    # one batch per qubit count. A file that fails at either step is carried
    # on as its error message.
    outcomes: list = [None] * len(files)
    groups: dict[int, list] = {}
    for k, path in enumerate(files):
        try:
            state = MultiQubitState(*read_state_fields(_load_json(str(path))))
        except QToricError as exc:
            outcomes[k] = str(exc)
        else:
            groups.setdefault(state.num_qubits, []).append((k, state.amplitudes))
    for members in groups.values():
        positions, rows = zip(*members)
        try:
            results = analyze_many(np.stack(rows), args.tol)
        except QToricError as exc:
            results = [str(exc)] * len(positions)
        for k, result in zip(positions, results):
            outcomes[k] = result
    failed = sum(isinstance(o, str) for o in outcomes)
    if args.format == "json":
        records = [
            {"path": f.name, **({"error": o} if isinstance(o, str) else o.to_dict())}
            for f, o in zip(files, outcomes)
        ]
        _emit_json(args, records)
    else:
        blocks = [
            f"== {f.name}\n" + (f"error: {o}" if isinstance(o, str) else _report_text(o))
            for f, o in zip(files, outcomes)
        ]
        _emit(args, "\n\n".join(blocks))
    if failed:
        print(f"qtoric: error: {failed} of {len(files)} files failed", file=sys.stderr)
        return 2
    return 0


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
        state = _resolve_state(args)
        m = state.num_qubits
        table = relation_table(m)
        a = state._unit
        x, y, u, v = table[:, :4].T
        residuals = np.abs(a[x] * a[y] - a[u] * a[v])
        largest = max_segre_residual(state)
    if args.format == "json":
        template = _relation_row_template(residuals is not None)
        rows = _rendered_rows(table, m, template, ",\n", residuals, repr)
        payload = {"m": m, "relations": None}
        if residuals is not None:
            payload["max_residual"] = largest
        _emit_json(args, payload, "relations", rows)
    elif residuals is None:
        _emit(args, _rendered_rows(table, m, RELATION_TEXT, "\n"))
    else:
        template = RELATION_TEXT + "   residual = %(r)s"
        rows = _rendered_rows(table, m, template, "\n", residuals, _fmt)
        _emit(args, itertools.chain(rows, [f"\nmax residual = {_fmt(largest)}"]))
    return 0


_BLOCK = 8192  # table rows rendered into one piece of output


def _rendered_rows(table, m, template, sep, residuals=None, residual_text=None):
    """``sep.join`` of ``template`` filled from each table row, piece by piece.

    The fields are the bitstrings ``x, y, u, v``, the swap axis ``j`` and the
    residual ``r`` as ``residual_text`` writes it. Pieces of ``_BLOCK`` rows
    keep memory bounded: at m = 10 the JSON output is about 400 MB.
    """
    bits = [format(i, f"0{m}b") for i in range(1 << m)]
    for start in range(0, len(table), _BLOCK):
        block = table[start : start + _BLOCK].tolist()
        if residuals is None:
            texts = itertools.repeat("")
        else:
            texts = map(residual_text, residuals[start : start + _BLOCK].tolist())
        piece = sep.join(
            template % {"x": bits[x], "y": bits[y], "u": bits[u], "v": bits[v], "j": j, "r": r}
            for (x, y, u, v, j), r in zip(block, texts)
        )
        yield piece if start == 0 else sep + piece


def _relation_dict(lhs, rhs, swap_axis, text) -> dict:
    """One relation row of the ``segre`` JSON payload."""
    return {"lhs": list(lhs), "rhs": list(rhs), "swap_axis": swap_axis, "text": text}


def _relation_row_template(with_residual: bool) -> str:
    """A ``segre`` JSON row as a %-template, as ``json.dumps(indent=2)`` nests it.

    Dumped from :func:`_relation_dict` with the fields of
    :func:`_rendered_rows` as placeholders, so the rows written through it
    cannot drift from the schema. The residual is filled in by ``repr``,
    which is how ``json`` writes floats.
    """
    row = _relation_dict(("%(x)s", "%(y)s"), ("%(u)s", "%(v)s"), "%(j)d", RELATION_TEXT)
    if with_residual:
        row["residual"] = "%(r)s"
    text = json.dumps(row, indent=2).replace('"%(j)d"', "%(j)d").replace('"%(r)s"', "%(r)s")
    return "    " + text.replace("\n", "\n    ")


# ---------------------------------------------------------------------------
# moment
# ---------------------------------------------------------------------------


def _cmd_moment(args) -> int:
    if args.projective:
        path = getattr(args, "path", None)
        if not path:
            raise _CliError("--projective requires a point JSON file", code=1)
        if args.state:
            raise _CliError("give either a point file or --state, not both", code=1)
        image = moment_projective(point_from_dict(_load_json(path)))
    else:
        image = _verdict(_resolve_state(args), args.tol)[2]
        if image is None:
            raise _CliError("state is not a product; moment map undefined", code=3)
    box = BoxPolytope.moment_box(len(image))
    inside = in_polytope(image, box, args.tol)
    if args.format == "json":
        _emit_json(
            args,
            {
                "moment_image": [float(t) for t in image],
                "inside": inside,
                "box": [[-0.5, 0.0]] * len(image),
            },
        )
    else:
        _emit(
            args,
            f"moment image: {_fmt_vector(image)}\n"
            f"inside [-1/2, 0]^{len(image)}: {str(inside).lower()}",
        )
    return 0


# ---------------------------------------------------------------------------
# tangle / invariants
# ---------------------------------------------------------------------------


def _cmd_tangle(args) -> int:
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
            rows = _rendered_points(points)
        else:
            lines += [f"  {tuple(p)}" for p in points.tolist()]
    if args.fan:
        fan = normal_fan_box(polytope)
        payload["cone_count"] = fan.cone_count
        payload["maximal_cone_count"] = len(fan.maximal_cones())
        lines.append(
            f"normal fan: {fan.cone_count} cones ({payload['maximal_cone_count']} maximal)"
        )
    if args.format == "json":
        _emit_json(args, payload, "lattice_points", rows)
    else:
        _emit(args, "\n".join(lines))
    return 0


def _rendered_points(points):
    """``",\n".join`` of the integer rows of ``points`` as ``json.dumps(indent=2)``
    writes them in a list of the top level, in pieces of ``_BLOCK`` rows.

    Each row fills a %-template dumped from a row of ``%d`` placeholders at
    that nesting; at m = 12 this is several times faster than dumping the
    3^12 rows, and holds one piece at a time.
    """
    row = json.dumps(["%d"] * points.shape[1], indent=2).replace('"%d"', "%d")
    template = "    " + row.replace("\n", "\n    ")
    for start in range(0, len(points), _BLOCK):
        piece = ",\n".join(template % tuple(p) for p in points[start : start + _BLOCK].tolist())
        yield piece if start == 0 else ",\n" + piece


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
    common = _Parser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument(
        "--tol", type=float, default=DEFAULT_TOLERANCE, help="numeric tolerance"
    )
    common.add_argument(
        "--state", metavar="NAME", help="named fixture: bell, ghz<m>, w3, or a bitstring"
    )
    common.add_argument("-o", "--output", metavar="PATH", help="write output to a file")

    parser = _Parser(prog="qtoric", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"qtoric {__version__}")
    commands = parser.add_subparsers(dest="command", parser_class=_Parser)

    analyze_p = commands.add_parser(
        "analyze", parents=[common], help="separability report for a state (or a directory)"
    )
    analyze_p.add_argument("path", nargs="?", help="state JSON file or directory")
    analyze_p.set_defaults(run=_cmd_analyze)

    segre_p = commands.add_parser(
        "segre", parents=[common], help="binomial relations and residuals"
    )
    segre_p.add_argument("path", nargs="?", help="state JSON file")
    segre_p.add_argument("-m", type=int, help="qubit count for --list")
    segre_p.add_argument("--list", action="store_true", help="print the canonical relations")
    segre_p.set_defaults(run=_cmd_segre)

    moment_p = commands.add_parser(
        "moment", parents=[common], help="moment-map image of a product state or point"
    )
    moment_p.add_argument("path", nargs="?", help="state (or point) JSON file")
    moment_p.add_argument(
        "--projective", action="store_true", help="treat the file as a projective point"
    )
    moment_p.set_defaults(run=_cmd_moment)

    tangle_p = commands.add_parser(
        "tangle", parents=[common], help="applicable tangle measures"
    )
    tangle_p.add_argument("path", nargs="?", help="state JSON file")
    tangle_p.set_defaults(run=_cmd_tangle)

    invariants_p = commands.add_parser(
        "invariants", parents=[common], help="four-qubit invariant table"
    )
    invariants_p.add_argument("path", nargs="?", help="state JSON file")
    invariants_p.set_defaults(run=_cmd_invariants)

    polytope_p = commands.add_parser(
        "polytope", parents=[common], help="cube vertices, Delzant verdict, points, fan"
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
        "embed", parents=[common], help="embed single-qubit factors into a state file"
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
