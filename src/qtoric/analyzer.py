"""Separability pipeline: residual certificate, factor extraction, report.

A state is separable when its largest Segre relation residual is within
tolerance (the residual gate), then the factors read off it rebuild it to
10 times the tolerance (the reconstruction gate) and place it on the moment
polytope. Entangled states keep the residual as their certificate; the
applicable entanglement measures are reported either way.

:func:`analyze` takes one state and calls each stage through its public
function; every stage starts from the state's cached unit vector and shares
its kernel with :func:`analyze_many`, which takes many states of one qubit
count as the rows of an array, normalizes each row once and computes each
quantity once over the batch through :func:`_reports`. The command line
sends every state it analyzes through :func:`_reports`, one state as a batch
of one, so a state gets the same report alone as in a directory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import WrongQubitCountError
from .measures import (
    _h_sum,
    _i1_rows,
    _m_tangle_rows,
    _tau4_contraction,
    _three_tangle_rows,
    check_tau4_identities,
    concurrence,
    m_tangle,
    three_tangle,
)
from .moment import _images, moment_product
from .segre import largest_minors, max_segre_residual
from .states import (
    DEFAULT_TOLERANCE,
    MAX_QUBITS,
    MultiQubitState,
    QubitFactor,
    _invalid_rows,
    _product_amplitudes,
    _state_rows,
    _unit_factor,
    segre_embed,
    unit_vectors,
)

__all__ = [
    "AnalysisReport",
    "extract_factors",
    "analyze",
    "analyze_many",
    "applicable_measures",
    "measures_to_dict",
]


@dataclass(frozen=True)
class AnalysisReport:
    """Everything the pipeline learned about one state.

    ``factors`` and ``moment_image`` are present exactly when the state is
    separable.
    """

    num_qubits: int
    separable: bool
    max_residual: float
    factors: tuple[QubitFactor, ...] | None
    moment_image: np.ndarray | None
    measures: dict[str, float | complex]
    tolerance: float

    @property
    def borderline(self) -> bool:
        """Residual within a factor of 10 of the tolerance, either side."""
        return self.tolerance / 10 <= self.max_residual <= self.tolerance * 10

    def to_dict(self) -> dict:
        factors = None
        if self.factors is not None:
            factors = [
                [[f.a0.real, f.a0.imag], [f.a1.real, f.a1.imag]] for f in self.factors
            ]
        return {
            "qubits": self.num_qubits,
            "separable": self.separable,
            "max_residual": self.max_residual,
            "factors": factors,
            "moment_image": None if self.moment_image is None else [float(t) for t in self.moment_image],
            "measures": measures_to_dict(self.measures),
            "tolerance": self.tolerance,
        }


# Row j clears bit j of an index, and sets it in the second column.
_CLEAR = ~(1 << np.arange(MAX_QUBITS)[:, None])
_SET = ~_CLEAR * np.array([0, 1])


def extract_factors(
    state: MultiQubitState, tol: float
) -> tuple[QubitFactor, ...] | None:
    """Invert the Segre embedding by the pivot method, or return None.

    The pivot is the largest-magnitude amplitude; factor j is read off the
    amplitude pair at the pivot index with bit j cleared and set, then unit
    normalized. The factorization is accepted when the embedded product
    matches the state to ``10 * tol`` after phase alignment.
    """
    _check_tolerance(tol)
    pairs = _pivot_factors(state._unit)
    factors = tuple(map(_unit_factor, pairs[:, 0].tolist(), pairs[:, 1].tolist()))
    return factors if _reconstructs(state._unit, segre_embed(factors).amplitudes, tol) else None


def _check_tolerance(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be positive and finite")


def _reconstructs(unit: np.ndarray, embedded: np.ndarray, tol: float) -> np.ndarray:
    """Whether each unit vector along the last axis is its embedded product to ``10 * tol``."""
    overlap = np.add.reduce(embedded.conj() * unit, axis=-1)
    # The error against the phase-aligned product, by np.linalg.norm's formula along
    # an axis; sqrt(2 - 2|overlap|) would cancel catastrophically near zero error.
    diff = unit - (overlap / np.where(overlap == 0, 1.0, np.abs(overlap)))[..., None] * embedded
    error = np.sqrt(np.add.reduce((diff.conj() * diff).real, axis=-1))
    return (overlap != 0) & (error <= 10.0 * tol)


def _pivot_factors(unit: np.ndarray) -> np.ndarray:
    """The unit factors, shape (..., m, 2), that the pivot method reads off
    each unit vector along the last axis: factor j is the pair at the pivot
    index with bit j cleared and set, in ket order, over its length.
    """
    size = unit.shape[-1]
    m = size.bit_length() - 1
    rows = unit.reshape(-1, size)
    # Pivots as indices into the flattened rows: the row offsets are
    # multiples of 2^m, so clearing or setting bit j leaves them alone.
    pivot = np.abs(rows).argmax(axis=1) + np.arange(0, rows.size, size)
    ket_order = slice(m - 1, None, -1)  # most significant bit first
    pairs = rows.reshape(-1)[(pivot[:, None, None] & _CLEAR[ket_order]) | _SET[ket_order]]
    length = np.sqrt(np.add.reduce(np.abs(pairs) ** 2, axis=-1, keepdims=True))
    return (pairs.view(float) / length).view(complex).reshape(*unit.shape[:-1], m, 2)


def analyze(state: MultiQubitState, tol: float = DEFAULT_TOLERANCE) -> AnalysisReport:
    """Run the full pipeline on one state."""
    if state.num_qubits < 2:
        raise WrongQubitCountError("analysis needs at least 2 qubits")
    _check_tolerance(tol)
    # Stages are module globals looked up at call time, so a tracer can patch them.
    max_residual = max_segre_residual(state)
    factors = extract_factors(state, tol) if max_residual <= tol else None
    return AnalysisReport(
        num_qubits=state.num_qubits,
        separable=factors is not None,
        max_residual=max_residual,
        factors=factors,
        moment_image=None if factors is None else moment_product(factors),
        measures=applicable_measures(state),
        tolerance=float(tol),
    )


def analyze_many(amplitudes, tol: float = DEFAULT_TOLERANCE) -> list[AnalysisReport]:
    """Run the full pipeline on each row of an (N, 2^m) array of amplitudes.

    The rows are states of m qubits; they need not be normalized, but must
    be finite and nonzero. The reports are those of :func:`analyze` on
    ``MultiQubitState(m, row)``, with the measures up to rounding. Each row
    is normalized once, by :func:`unit_vectors`, and the reports are formed
    by :func:`_reports`, the route of ``qtoric analyze`` for one state too.
    """
    batch, _ = _state_rows(amplitudes, "analysis")
    _check_tolerance(tol)
    for error in _invalid_rows(batch).values():
        raise error
    return _reports(unit_vectors(batch)[0], tol)


def _reports(unit: np.ndarray, tol: float) -> list[AnalysisReport]:
    """The report of each row of an (N, 2^m) array of unit vectors, m >= 1.

    Row by row: a row gets the same bits alone as in any batch. A single
    qubit has no 2x2 minor, so its residual is 0 and reconstruction decides.
    """
    m = unit.shape[1].bit_length() - 1
    residuals = largest_minors(unit) if m > 1 else np.zeros(len(unit))

    (passed,) = (residuals <= tol).nonzero()  # only these rows are factored
    kept = {}  # row -> its factors and moment image, for the rows that rebuild
    if passed.size:
        rows = unit[passed]
        factors = _pivot_factors(rows)
        image = _images(factors)[..., 0]  # moment_product of each row's factors
        rebuilt = _reconstructs(rows, _product_amplitudes(factors), tol).tolist()
        a0, a1 = factors[..., 0].tolist(), factors[..., 1].tolist()
        kept = {
            i: (tuple(map(_unit_factor, a0[k], a1[k])), image[k])
            for k, i in enumerate(passed.tolist())
            if rebuilt[k]
        }

    measures = {name: values.tolist() for name, values in _measures_many(unit).items()}
    return [
        AnalysisReport(
            num_qubits=m,
            separable=i in kept,
            max_residual=residual,
            factors=kept[i][0] if i in kept else None,
            moment_image=kept[i][1] if i in kept else None,
            measures={name: values[i] for name, values in measures.items()},
            tolerance=float(tol),
        )
        for i, residual in enumerate(residuals.tolist())
    ]


def applicable_measures(state: MultiQubitState) -> dict[str, float | complex]:
    """The entanglement measures defined for the state's qubit count.

    The one measure table of the package: the concurrence at m = 2, the
    three-tangle at m = 3, the m-tangle with H, I1 and the epsilon
    four-tangle at m = 4, the m-tangle at even m >= 6, and nothing otherwise.
    """
    # The measures are looked up as module globals at call time, so a caller
    # that patches them here (a tracer) sees every call.
    m = state.num_qubits
    measures: dict[str, float | complex] = {}
    if m == 2:
        measures["concurrence"] = concurrence(state)
    elif m == 3:
        measures["three_tangle"] = three_tangle(state)
    elif m == 4:
        report = check_tau4_identities(state)
        measures["m_tangle"] = report.tau4_spinflip
        measures["H"] = report.h
        measures["I1"] = report.i1
        measures["tau4_epsilon"] = report.tau4_epsilon
    elif m % 2 == 0:
        measures["m_tangle"] = m_tangle(state)
    return measures


def _measures_many(unit: np.ndarray) -> dict[str, np.ndarray]:
    """:func:`applicable_measures` of each row of an (N, 2^m) array of unit vectors.

    The same table as :func:`applicable_measures`, in the same order, from
    the batch forms of the measures.
    """
    m = unit.shape[1].bit_length() - 1
    if m == 2:
        return {"concurrence": _m_tangle_rows(unit)}
    if m == 3:
        return {"three_tangle": _three_tangle_rows(unit)}
    if m == 4:
        return {
            "m_tangle": _m_tangle_rows(unit),
            "H": _h_sum(unit),
            "I1": _i1_rows(unit),
            "tau4_epsilon": 2.0 * np.abs(_tau4_contraction(unit)),
        }
    if m % 2 == 0:
        return {"m_tangle": _m_tangle_rows(unit)}
    return {}


def measures_to_dict(measures: dict[str, float | complex]) -> dict:
    """JSON form of a measure table: complex values as ``[re, im]`` pairs."""
    return {
        name: [value.real, value.imag] if isinstance(value, complex) else float(value)
        for name, value in measures.items()
    }
