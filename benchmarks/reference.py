"""Reference values and output checks, computed without qtoric.

Each check rests on a published fact, not on qtoric's own output:

* The Segre relations are exactly the 2x2 minors of the single-qubit
  flattenings (Landsberg, *Tensors: Geometry and Applications*, 2012), so the
  certificate equals the largest |minor| of the m flattenings.
* On a pure two-qubit state the squared concurrence is 4 det rho_A.
* The three-tangle obeys the Coffman-Kundu-Wootters identity
  tau_ABC = 4 det rho_A - C^2(rho_AB) - C^2(rho_AC) (quant-ph/9907047), with
  C from Wootters' mixed-state formula.
* The even-m tangle, and at m = 4 also 4|H|^2 and 16|I1|^2, equal
  |<psi| sigma_y^(x m) |psi*>|^2.
* The canonical relation set has sum_{d=2..m} C(m, d) 2^(m-d) e(d) members,
  e(2) = 1 and e(d) = d 2^(d-2) for d >= 3.

A check returns a list of error strings; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TOLERANCE = 1e-10  # qtoric's default, used by every workload
PRODUCT_RESIDUAL = TOLERANCE / 1000
ENTANGLED_RESIDUAL = TOLERANCE * 1000
RESIDUAL_ATOL = 1e-13
FACTOR_ATOL = 1e-9
MEASURE_ATOL = 1e-12
PRODUCT_MEASURE_MAX = 1e-12

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)


def unit(amps: np.ndarray) -> np.ndarray:
    return amps / np.linalg.norm(amps)


def flattening(psi: np.ndarray, m: int, axis: int) -> np.ndarray:
    """The 2 x 2^(m-1) matrix with qubit ``axis`` (0 = most significant) as rows."""
    return np.moveaxis(psi.reshape((2,) * m), axis, 0).reshape(2, -1)


def max_minor(psi: np.ndarray, m: int) -> float:
    """Largest |2x2 minor| over the m single-qubit flattenings."""
    largest = 0.0
    for axis in range(m):
        row0, row1 = flattening(psi, m, axis)
        minors = np.outer(row0, row1) - np.outer(row1, row0)
        largest = max(largest, float(np.abs(minors).max()))
    return largest


def sigma_y_form(psi: np.ndarray, m: int) -> float:
    """|<psi| sigma_y^(x m) |psi*>|^2 on a unit vector."""
    flipped = psi.reshape((2,) * m)
    for axis in range(m):
        flipped = np.moveaxis(np.tensordot(SIGMA_Y, flipped, axes=([1], [axis])), 0, axis)
    return float(abs(np.dot(psi, flipped.reshape(-1))) ** 2)


def four_det_rho_a(psi: np.ndarray, m: int) -> float:
    """4 det rho_A for the most significant qubit A."""
    flat = flattening(psi, m, 0)
    rho = flat @ flat.conj().T
    return float(4.0 * np.linalg.det(rho).real)


def wootters_c2(ensemble: np.ndarray) -> float:
    """Squared concurrence of rho = E E^dagger for a 4 x k ensemble matrix E.

    Wootters' formula C = max(0, l1 - l2 - l3 - l4) with l_i the square roots
    of the eigenvalues of rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y). The
    nonzero l_i are the singular values of E^T (sigma_y x sigma_y) E, which
    avoids taking square roots of eigenvalues that are zero up to rounding.
    """
    values = np.linalg.svd(ensemble.T @ SIGMA_YY @ ensemble, compute_uv=False)
    c = max(0.0, float(values[0] - values[1:].sum()))
    return c * c


def ckw_three_tangle(psi: np.ndarray) -> float:
    t = psi.reshape(2, 2, 2)
    c2_ab = wootters_c2(t.reshape(4, 2))
    c2_ac = wootters_c2(t.transpose(0, 2, 1).reshape(4, 2))
    return four_det_rho_a(psi, 3) - c2_ab - c2_ac


def relation_count(m: int) -> int:
    """Size of the canonical Segre relation set on m qubits."""
    return sum(
        math.comb(m, d) * 2 ** (m - d) * (1 if d == 2 else d * 2 ** (d - 2))
        for d in range(2, m + 1)
    )


def enumerate_relations(m: int) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """Every relation as a canonical pair of sorted index pairs, by brute force."""
    found = set()
    for x in range(1 << m):
        for y in range(x + 1, 1 << m):
            differing = x ^ y
            for j in range(m):
                bit = 1 << j
                if differing & bit and differing != bit:
                    other = tuple(sorted((x ^ bit, y ^ bit)))
                    found.add(tuple(sorted(((x, y), other))))
    return found


# ---------------------------------------------------------------------------
# Expected values of one state
# ---------------------------------------------------------------------------


@dataclass
class Expected:
    m: int
    separable: bool
    max_residual: float
    factors: list[np.ndarray] | None  # unit generating factors of a product
    moment: list[float] | None
    tangle: float | None  # the value every tangle route must give
    psi: np.ndarray  # unit amplitudes


def expected(case) -> Expected:
    psi = unit(case.amps)
    m = case.m
    tangle = None
    if m == 2:
        tangle = four_det_rho_a(psi, 2)
    elif m == 3:
        tangle = ckw_three_tangle(psi)
    elif m % 2 == 0:
        tangle = sigma_y_form(psi, m)
    factors = moment = None
    if case.factors is not None:
        factors = [f / np.linalg.norm(f) for f in case.factors]
        moment = [-0.5 * abs(f[1]) ** 2 / (abs(f[0]) ** 2 + abs(f[1]) ** 2) for f in case.factors]
    return Expected(m, case.factors is not None, max_minor(psi, m), factors, moment, tangle, psi)


# Measure names whose value is the state's tangle, with the map from the
# reported value to that tangle. H and I1 are reported as [re, im] pairs.
def _abs2(value) -> float:
    return value[0] ** 2 + value[1] ** 2


TANGLE_ROUTES = {
    "concurrence": lambda v: v,
    "three_tangle": lambda v: v,
    "m_tangle": lambda v: v,
    "tau4_spinflip": lambda v: v,
    "tau4_epsilon": lambda v: v,
    "H": lambda v: 4.0 * _abs2(v),
    "I1": lambda v: 16.0 * _abs2(v),
}

# At least one name of each group must be reported.
REQUIRED_MEASURES = {
    2: [("concurrence", "m_tangle")],
    3: [("three_tangle",)],
    4: [("tau4_spinflip", "m_tangle"), ("tau4_epsilon",), ("H",), ("I1",)],
    8: [("m_tangle",)],
}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(map(_number, value))


def _factor_error(reported, expected_factor: np.ndarray) -> float:
    f = np.array([complex(*reported[0]), complex(*reported[1])])
    f = f / np.linalg.norm(f)
    overlap = np.vdot(expected_factor, f)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return float(np.linalg.norm(f - phase * expected_factor))


def check_report(exp: Expected, report) -> list[str]:
    """Check one analyze report (the JSON object) against the expected values."""
    if not isinstance(report, dict):
        return ["report is not an object"]
    errors = []
    if report.get("qubits") != exp.m:
        errors.append(f"qubits {report.get('qubits')!r}, expected {exp.m}")
    if report.get("separable") is not exp.separable:
        errors.append(f"separable {report.get('separable')!r}, expected {exp.separable}")
    residual = report.get("max_residual")
    if not _number(residual) or abs(residual - exp.max_residual) > RESIDUAL_ATOL:
        errors.append(f"max_residual {residual!r}, reference {exp.max_residual!r}")
    errors += _check_factors(exp, report)
    errors += _check_measures(exp, report.get("measures"))
    return errors


def _check_factors(exp: Expected, report: dict) -> list[str]:
    factors, image = report.get("factors"), report.get("moment_image")
    if not exp.separable:
        if factors is not None or image is not None:
            return ["an entangled state reports factors or a moment image"]
        return []
    if not isinstance(factors, list) or len(factors) != exp.m:
        return [f"expected {exp.m} factors, got {factors!r:.80}"]
    if not all(isinstance(f, list) and len(f) == 2 and all(map(_pair, f)) for f in factors):
        return ["factors are not [[re, im], [re, im]] pairs"]
    errors = []
    for j, (got, want) in enumerate(zip(factors, exp.factors)):
        err = _factor_error(got, want)
        if not err <= FACTOR_ATOL:
            errors.append(f"factor {j} is {err:.3g} from the generating factor")
    if not isinstance(image, list) or len(image) != exp.m or not all(map(_number, image)):
        errors.append(f"moment image {image!r:.80}")
    elif max(abs(a - b) for a, b in zip(image, exp.moment)) > MEASURE_ATOL:
        errors.append("moment image differs from -|b|^2 / 2(|a|^2 + |b|^2)")
    return errors


def _check_measures(exp: Expected, measures) -> list[str]:
    if not isinstance(measures, dict):
        return ["measures is not an object"]
    errors = []
    for group in REQUIRED_MEASURES.get(exp.m, ()):
        if not any(name in measures for name in group):
            errors.append(f"missing measure {' or '.join(group)}")
    for name, value in measures.items():
        route = TANGLE_ROUTES.get(name)
        if route is None or exp.tangle is None:
            continue
        shape_ok = _pair(value) if name in ("H", "I1") else _number(value)
        if not shape_ok:
            errors.append(f"measure {name} = {value!r} has the wrong type")
            continue
        got = route(value)
        if not abs(got - exp.tangle) <= MEASURE_ATOL:
            errors.append(f"measure {name} gives {got!r}, reference {exp.tangle!r}")
        if exp.separable and not got <= PRODUCT_MEASURE_MAX:
            errors.append(f"measure {name} = {got!r} on a product state")
    return errors


def same_report(base: dict, scaled) -> list[str]:
    """A report on a rescaled state must equal the report on the original."""
    if not isinstance(scaled, dict):
        return ["report is not an object"]
    errors = []
    for key in ("qubits", "separable"):
        if scaled.get(key) != base.get(key):
            errors.append(f"{key} {scaled.get(key)!r}, unscaled {base.get(key)!r}")
    flat_base, flat_scaled = _flatten(base), _flatten(scaled)
    if flat_base.keys() != flat_scaled.keys():
        errors.append("report fields differ from the unscaled report")
    else:
        for key, value in flat_base.items():
            if not abs(flat_scaled[key] - value) <= FACTOR_ATOL:
                errors.append(f"{key} = {flat_scaled[key]!r}, unscaled {value!r}")
    return errors


def _flatten(report: dict) -> dict[str, float]:
    # Numbers of a report keyed by their path, factors brought to a common phase.
    out = {"max_residual": report.get("max_residual")}
    for j, f in enumerate(report.get("factors") or []):
        a = np.array([complex(*f[0]), complex(*f[1])])
        pivot = a[np.argmax(np.abs(a))]
        a = a * (abs(pivot) / pivot) / np.linalg.norm(a)
        for k, z in enumerate(a):
            out[f"factors.{j}.{k}.re"], out[f"factors.{j}.{k}.im"] = z.real, z.imag
    for j, t in enumerate(report.get("moment_image") or []):
        out[f"moment_image.{j}"] = t
    for name, value in (report.get("measures") or {}).items():
        if isinstance(value, list):
            out[f"measures.{name}.re"], out[f"measures.{name}.im"] = value
        else:
            out[f"measures.{name}"] = value
    return {k: float(v) if _number(v) else math.nan for k, v in out.items()}


# ---------------------------------------------------------------------------
# Relation tables
# ---------------------------------------------------------------------------


def check_table(m: int, quads: np.ndarray, residuals=None, psi=None) -> list[str]:
    """Check a relation table given as rows (x, y, u, v): a[x] a[y] = a[u] a[v].

    The rows must be distinct Segre relations, there must be
    :func:`relation_count` of them, and, when ``residuals`` are given, each
    must equal |a[x] a[y] - a[u] a[v]| on the unit amplitudes ``psi``.
    """
    quads = np.asarray(quads, dtype=np.int64).reshape(-1, 4)
    errors = []
    if len(quads) != relation_count(m):
        errors.append(f"{len(quads)} relations, expected {relation_count(m)}")
    if len(quads) == 0:
        return errors
    x, y, u, v = quads.T
    in_range = ((quads >= 0) & (quads < (1 << m))).all(axis=1)
    # The right pair must be the left pair with one bit swapped between them,
    # on an axis where they differ, and they must also differ elsewhere.
    differing = x ^ y
    valid = np.zeros(len(quads), dtype=bool)
    for j in range(m):
        bit = 1 << j
        swapped = ((x ^ bit) == u) & ((y ^ bit) == v) | ((x ^ bit) == v) & ((y ^ bit) == u)
        valid |= ((differing & bit) != 0) & (differing != bit) & swapped
    if not (in_range & valid).all():
        errors.append(f"{int((~(in_range & valid)).sum())} rows are not Segre relations")
    # A relation is the same whichever way round its pairs are written.
    pairs = np.sort(quads.reshape(-1, 2, 2), axis=2)
    keys = {tuple(sorted(map(tuple, row))) for row in pairs.tolist()}
    if len(keys) != len(quads):
        errors.append("the table repeats a relation")
    if residuals is not None:
        residuals = np.asarray(residuals, dtype=float)
        if residuals.shape != (len(quads),):
            errors.append("residual count differs from the relation count")
        elif in_range.all():
            want = np.abs(psi[x] * psi[y] - psi[u] * psi[v])
            bad = ~(np.abs(residuals - want) <= RESIDUAL_ATOL)
            if bad.any():
                errors.append(f"{int(bad.sum())} residuals differ from the recomputed minors")
    return errors


def table_quads(rows) -> np.ndarray:
    """Rows of a ``segre --format json`` table as (x, y, u, v) index rows."""
    return np.array(
        [[int(b, 2) for b in (*row["lhs"], *row["rhs"])] for row in rows], dtype=np.int64
    ).reshape(-1, 4)


def check_segre_output(m: int, payload, psi=None) -> list[str]:
    """Check ``segre --list`` output, or ``segre STATE`` output when ``psi`` is given."""
    if not isinstance(payload, dict) or payload.get("m") != m:
        return [f"segre output is not an object for m = {m}"]
    rows = payload.get("relations")
    try:
        quads = table_quads(rows)
    except (TypeError, KeyError, ValueError) as exc:
        return [f"malformed relation rows: {exc!r:.80}"]
    if psi is None:
        return check_table(m, quads)
    residuals = [row.get("residual") for row in rows]
    if not all(map(_number, residuals)):
        return ["a relation row has no numeric residual"]
    errors = check_table(m, quads, residuals, psi)
    largest = payload.get("max_residual")
    reference = max_minor(psi, m)
    if not _number(largest) or abs(largest - reference) > RESIDUAL_ATOL:
        errors.append(f"max_residual {largest!r}, reference {reference!r}")
    return errors
