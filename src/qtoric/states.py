"""Multi-qubit pure states, single-qubit factors, and projective points.

Amplitude indexing: a state on ``m`` qubits stores ``2**m`` complex
amplitudes ordered so that index ``x`` encodes the bitstring
``(x_m, ..., x_1)`` with ``x = x_m 2**(m-1) + ... + x_1 2**0``; qubit ``m``
is the most significant bit. Sequences of per-qubit factors follow the same
ket order, so the first factor in a sequence belongs to the most significant
qubit.

All values are immutable after construction and every operation is a pure
function of its inputs; they are safe to share between threads.
"""

from __future__ import annotations

import cmath
import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyFactorListError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonFiniteAmplitudeError,
    QToricError,
    QubitLimitError,
    SchemaError,
    UnknownNameError,
    WrongQubitCountError,
    ZeroStateError,
)

__all__ = [
    "MAX_QUBITS",
    "check_qubit_count",
    "MultiQubitState",
    "QubitFactor",
    "ProjectivePoint",
    "make_state",
    "conjugate_state",
    "segre_embed",
    "inner_product",
    "named_state",
    "index_bits",
    "bits_to_index",
    "state_to_dict",
    "read_state_fields",
    "state_from_dict",
    "point_to_dict",
    "point_from_dict",
    "parse_complex_pair",
    "unit_vectors",
]


MAX_QUBITS = 12
"""Largest qubit count of a state: 2^12 amplitudes. Larger counts are refused
before anything of their size is allocated."""


def check_qubit_count(m: int, limit: int = MAX_QUBITS, what: str = "a state") -> None:
    """Raise :class:`QubitLimitError` when ``m`` qubits exceed ``limit``."""
    if m > limit:
        raise QubitLimitError(f"{what} is limited to {limit} qubits, got {m}")


def _state_rows(amplitudes, what: str) -> tuple[np.ndarray, int]:
    """``amplitudes`` as an (N, 2^m) complex array, and m, for 2 <= m <= ``MAX_QUBITS``.

    Only the shape is checked; ``what`` names the caller in the error for m < 2.
    """
    rows = np.asarray(amplitudes, dtype=complex)
    size = rows.shape[1] if rows.ndim == 2 else 0
    if size < 1 or size & (size - 1):
        raise LengthMismatchError(
            f"amplitudes must form an (N, 2^m) array, got shape {rows.shape}"
        )
    m = size.bit_length() - 1
    if m < 2:
        raise WrongQubitCountError(f"{what} needs at least 2 qubits")
    check_qubit_count(m)
    return rows, m


def _complex_vector(values, *, what: str) -> np.ndarray:
    """Copy ``values`` into a 1-d complex128 array."""
    arr = np.array(values, dtype=complex, copy=True)
    if arr.ndim != 1:
        raise LengthMismatchError(f"{what} must be a flat sequence, got shape {arr.shape}")
    return arr


def _invalid_rows(
    rows: np.ndarray, what: str = "amplitudes", of: str = "a state"
) -> dict[int, QToricError]:
    """The error that refuses each row of a 2-d complex array as the ``what``
    of ``of``, by row index: a row with a NaN or infinite entry, or else a
    zero row. Finite, nonzero rows are absent.

    The one rule behind :class:`MultiQubitState`, :class:`ProjectivePoint`,
    :func:`~qtoric.analyzer.analyze_many` and ``qtoric analyze DIR``.
    """
    finite = np.logical_and.reduce(np.isfinite(rows), axis=1).tolist()
    nonzero = np.logical_or.reduce(rows != 0, axis=1).tolist()
    return {
        i: NonFiniteAmplitudeError(f"{what} contain NaN or infinite entries")
        if not f
        else ZeroStateError(f"the zero vector does not define {of}")
        for i, (f, n) in enumerate(zip(finite, nonzero))
        if not (f and n)
    }


def _values_key(values: np.ndarray) -> bytes:
    # -0.0 + 0.0 is 0.0, so finite vectors have equal bytes exactly when equal.
    return (values + 0.0).tobytes()


@dataclass(frozen=True, eq=False)
class MultiQubitState:
    """A pure state on ``num_qubits`` qubits as ``2**num_qubits`` amplitudes.

    The vector need not be normalized (the state is a projective object),
    but it must be finite and not identically zero. States are equal when
    their qubit counts and amplitude values are: a rescaled state is not.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.num_qubits, (int, np.integer)) or self.num_qubits < 1:
            raise LengthMismatchError("num_qubits must be a positive integer")
        check_qubit_count(self.num_qubits)
        amps = _complex_vector(self.amplitudes, what="amplitudes")
        expected = 1 << int(self.num_qubits)
        if amps.size != expected:
            raise LengthMismatchError(f"expected {expected} amplitudes, found {amps.size}")
        for error in _invalid_rows(amps[None]).values():
            raise error
        amps.setflags(write=False)
        object.__setattr__(self, "num_qubits", int(self.num_qubits))
        object.__setattr__(self, "amplitudes", amps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiQubitState):
            return NotImplemented
        return _values_key(self.amplitudes) == _values_key(other.amplitudes)

    def __hash__(self) -> int:
        return hash(_values_key(self.amplitudes))

    @cached_property
    def norm(self) -> float:
        """The 2-norm of the amplitudes, by :func:`unit_vectors`."""
        return float(unit_vectors(self.amplitudes)[1])

    @cached_property
    def _unit(self) -> np.ndarray:
        # Computed once per state, since the amplitudes are read-only: the
        # certificate, the factor extraction and every measure start from it.
        unit = unit_vectors(self.amplitudes)[0]
        unit.setflags(write=False)
        return unit

    @cached_property
    def _unit_list(self) -> list[complex]:
        # The unit amplitudes as Python complex numbers, for
        # relation_residual: four list reads and Python complex arithmetic
        # cost about a third of the same on numpy scalars, and give the
        # same bits.
        return self._unit.tolist()

    def normalized(self) -> "MultiQubitState":
        """The same projective state scaled to unit norm.

        Its amplitudes are this state's cached unit vector, which is also its
        own: normalizing it again returns the same bits. The vector was
        validated with this state, so it is not validated a second time.
        """
        unit = _prechecked_state(self.num_qubits, self._unit)
        object.__setattr__(unit, "_unit", self._unit)
        return unit


def _prechecked_state(num_qubits: int, amplitudes: np.ndarray) -> MultiQubitState:
    """A :class:`MultiQubitState` built without the copy and the checks of
    ``__post_init__``, for a read-only complex vector of ``2**num_qubits``
    amplitudes that has passed them, or :func:`_invalid_rows`, already."""
    state = object.__new__(MultiQubitState)
    object.__setattr__(state, "num_qubits", num_qubits)
    object.__setattr__(state, "amplitudes", amplitudes)
    return state


def unit_vectors(amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Each vector along the last axis of a complex array at unit 2-norm, and its norm.

    A vector is first multiplied by the power of two that brings its largest
    real or imaginary part into [1/2, 1), which is exact unless an entry
    falls below the normal range, so its sum of squares lies in [1/4, 2n]
    for n entries at any finite scale. Then its real and imaginary parts
    are divided by the scaled norm as floats: numpy divides a complex array
    by a real through the real's reciprocal, which overflows below 2^-1024.
    A norm past the float range is inf; the unit vector stays finite.
    """
    scaled, exponent = _scaled_parts(amplitudes)
    length = np.sqrt(np.add.reduce(np.square(scaled), axis=-1, keepdims=True))
    with np.errstate(over="ignore"):
        norms = np.ldexp(length[..., 0], exponent[..., 0])
    return (scaled / length).view(complex), norms


def _scaled_parts(amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """The scaling step of :func:`unit_vectors`: the float view of each vector
    times the power of two that brings its largest part into [1/2, 1), and
    the exponent that undoes it."""
    parts = np.ascontiguousarray(amplitudes, dtype=complex).view(float)
    _, exponent = np.frexp(np.maximum.reduce(np.abs(parts), axis=-1, keepdims=True))
    return np.ldexp(parts, -exponent), exponent


@dataclass(frozen=True)
class QubitFactor:
    """Homogeneous coordinates ``[a0 : a1]`` of a single qubit, a point of P^1."""

    a0: complex
    a1: complex

    def __post_init__(self) -> None:
        a0, a1 = complex(self.a0), complex(self.a1)
        if not (cmath.isfinite(a0) and cmath.isfinite(a1)):
            raise NonFiniteAmplitudeError("factor components must be finite")
        if a0 == 0 and a1 == 0:
            raise ZeroStateError("(0, 0) does not define a point of P^1")
        object.__setattr__(self, "a0", a0)
        object.__setattr__(self, "a1", a1)

    def as_array(self) -> np.ndarray:
        return np.array([self.a0, self.a1])

    def normalized(self) -> "QubitFactor":
        a0, a1 = _scaled_parts(self.as_array())[0].view(complex).tolist()
        scale = (abs(a0) ** 2 + abs(a1) ** 2) ** 0.5
        return QubitFactor(a0 / scale, a1 / scale)


def _unit_factor(a0: complex, a1: complex) -> QubitFactor:
    """A :class:`QubitFactor` built without the checks of ``__post_init__``,
    for a pair of Python complex read off a finite unit vector, so finite and
    nonzero; :meth:`MultiQubitState.normalized` skips them the same way."""
    factor = object.__new__(QubitFactor)
    object.__setattr__(factor, "a0", a0)
    object.__setattr__(factor, "a1", a1)
    return factor


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A point of P^(n-1) as n >= 2 homogeneous complex coordinates, equal to
    another point exactly when their coordinate values are equal."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = _complex_vector(self.coords, what="coordinates")
        if coords.size < 2:
            raise LengthMismatchError("a projective point needs at least 2 coordinates")
        for error in _invalid_rows(coords[None], "coordinates", "a projective point").values():
            raise error
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        return _values_key(self.coords) == _values_key(other.coords)

    def __hash__(self) -> int:
        return hash(_values_key(self.coords))


def index_bits(x: int, num_qubits: int) -> tuple[int, ...]:
    """Bits ``(x_m, ..., x_1)`` of amplitude index ``x``, most significant first."""
    if not 0 <= x < (1 << num_qubits):
        raise IndexOutOfRangeError(f"index {x} outside [0, 2**{num_qubits})")
    return tuple((x >> (num_qubits - 1 - p)) & 1 for p in range(num_qubits))


def bits_to_index(bits: Sequence[int]) -> int:
    """Inverse of :func:`index_bits`."""
    out = 0
    for b in bits:
        if b not in (0, 1):
            raise IndexOutOfRangeError(f"bit value {b!r} is not 0 or 1")
        out = (out << 1) | int(b)
    return out


def make_state(num_qubits: int, amplitudes, normalize: bool = True) -> MultiQubitState:
    """Validate and build a state; scale to unit norm when ``normalize``.

    Either way the state's unit vector is that of the raw amplitudes, so
    ``normalize`` changes only ``state.amplitudes``.
    """
    state = MultiQubitState(num_qubits, amplitudes)
    return state.normalized() if normalize else state


def conjugate_state(state: MultiQubitState) -> MultiQubitState:
    """Complex-conjugate every amplitude. An involution; preserves the norm."""
    return MultiQubitState(state.num_qubits, np.conj(state.amplitudes))


def segre_embed(factors: Sequence[QubitFactor]) -> MultiQubitState:
    """Tensor (Segre) product of single-qubit factors, in ket order.

    The amplitude at index ``(x_m ... x_1)`` is the product over qubits of
    the chosen factor component, so the output is a fully separable state.
    The result is not normalized: scaling any factor by ``c`` scales every
    amplitude by ``c``.
    """
    factors = list(factors)
    if not factors:
        raise EmptyFactorListError("need at least one factor")
    check_qubit_count(len(factors))
    amplitudes = _product_amplitudes(np.array([(f.a0, f.a1) for f in factors], dtype=complex))
    # The factors are finite and nonzero, but their product can overflow or
    # underflow: the one rule of MultiQubitState refuses it as it would.
    for error in _invalid_rows(amplitudes[None]).values():
        raise error
    amplitudes.setflags(write=False)
    return _prechecked_state(len(factors), amplitudes)


def _product_amplitudes(factors: np.ndarray) -> np.ndarray:
    """The Kronecker product of the m factors of a (..., m, 2) array, in ket order.

    Formed by broadcasting, one factor at a time, over any leading batch axes:
    the result is (..., 2^m).
    """
    amplitudes = factors[..., 0, :]
    batch = factors.shape[:-2]
    for position in range(1, factors.shape[-2]):
        product = amplitudes[..., :, None] * factors[..., position, None, :]
        amplitudes = product.reshape(*batch, 2 << position)
    return amplitudes


def inner_product(a: MultiQubitState, b: MultiQubitState) -> complex:
    """Hermitian inner product ``sum_x conj(a_x) b_x``."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError(
            f"states act on {a.num_qubits} and {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


_GHZ_NAME = re.compile(r"^ghz(\d+)$")


def named_state(name: str) -> MultiQubitState:
    """Fixture states by name: ``bell``, ``ghz<m>`` (m >= 2), ``w3``, or a
    bitstring such as ``01`` for a computational basis state."""
    key = name.strip().lower()
    if re.fullmatch("[01]+", key):
        check_qubit_count(len(key))
        amps = np.zeros(1 << len(key), dtype=complex)
        amps[int(key, 2)] = 1.0
        return make_state(len(key), amps)
    if key == "bell":
        key = "ghz2"
    if key == "w3":
        amps = np.zeros(8, dtype=complex)
        amps[[1, 2, 4]] = 1.0
        return make_state(3, amps, normalize=True)
    match = _GHZ_NAME.match(key)
    if match:
        m = int(match.group(1))
        if m < 2:
            raise UnknownNameError("ghz requires at least 2 qubits")
        check_qubit_count(m)
        amps = np.zeros(1 << m, dtype=complex)
        amps[0] = amps[-1] = 1.0
        return make_state(m, amps, normalize=True)
    raise UnknownNameError(f"unknown state name {name!r}")


# ---------------------------------------------------------------------------
# JSON schemas
#
# State files:   {"qubits": m, "amplitudes": [[re, im], ...], "normalize": bool?}
# Point files:   {"coords": [[re, im], ...]}
# ---------------------------------------------------------------------------


def parse_complex_pair(value, field: str) -> complex:
    """Read one ``[re, im]`` pair, naming ``field`` in error messages."""
    ok = (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
    )
    if not ok:
        raise SchemaError(f'"{field}" must be a [re, im] number pair')
    try:
        return complex(value[0], value[1])
    except OverflowError:  # an integer past the float range
        raise NonFiniteAmplitudeError(f'"{field}" holds a number beyond the float range') from None


def _complex_pairs(raw: list, field: str) -> np.ndarray:
    """The list ``raw`` of ``[re, im]`` pairs as a 1-d complex array, with the
    bits that :func:`parse_complex_pair` gives each pair.

    A list of JSON number pairs is checked by type in a few passes over it and
    converted by one ``np.array`` call. Anything else, such as tuples or numpy
    floats from a library caller, or an integer past the float range, goes
    through :func:`parse_complex_pair` pair by pair, which names the first
    pair it refuses as ``field[i]``.
    """
    exact = (
        set(map(type, raw)) <= {list}
        and set(map(len, raw)) <= {2}
        and set(map(type, itertools.chain.from_iterable(raw))) <= {int, float}
    )
    if exact:
        try:
            return np.array(raw, dtype=float).reshape(-1, 2).view(complex).ravel()
        except OverflowError:  # named by the pair loop below
            pass
    values = [parse_complex_pair(v, f"{field}[{i}]") for i, v in enumerate(raw)]
    return np.array(values, dtype=complex)


def state_to_dict(state: MultiQubitState) -> dict:
    return {
        "qubits": state.num_qubits,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
    }


def read_state_fields(data) -> tuple[int, np.ndarray]:
    """The qubit count and the raw amplitudes, a complex array, of a state JSON object.

    Checks every field of the schema, ``normalize`` included; the amplitude
    values themselves (finite, not all zero) are validated by
    :class:`MultiQubitState`, or by ``qtoric analyze DIR`` for a whole group.
    """
    if not isinstance(data, dict):
        raise SchemaError("state JSON must be an object")
    if "qubits" not in data:
        raise SchemaError('missing field "qubits"')
    qubits = data["qubits"]
    if not isinstance(qubits, int) or isinstance(qubits, bool) or qubits < 1:
        raise SchemaError('"qubits" must be a positive integer')
    check_qubit_count(qubits)
    if "amplitudes" not in data:
        raise SchemaError('missing field "amplitudes"')
    raw = data["amplitudes"]
    if not isinstance(raw, list):
        raise SchemaError('"amplitudes" must be an array of [re, im] pairs')
    if len(raw) != 1 << qubits:  # before any pair is parsed
        raise LengthMismatchError(f"expected {1 << qubits} amplitudes, found {len(raw)}")
    amps = _complex_pairs(raw, "amplitudes")
    if not isinstance(data.get("normalize", True), bool):
        raise SchemaError('"normalize" must be a boolean')
    return qubits, amps


def state_from_dict(data) -> MultiQubitState:
    qubits, amps = read_state_fields(data)
    return make_state(qubits, amps, normalize=data.get("normalize", True))


def point_to_dict(point: ProjectivePoint) -> dict:
    return {"coords": [[float(c.real), float(c.imag)] for c in point.coords]}


def point_from_dict(data) -> ProjectivePoint:
    if not isinstance(data, dict) or "coords" not in data:
        raise SchemaError('point JSON must be an object with a "coords" field')
    raw = data["coords"]
    if not isinstance(raw, list):
        raise SchemaError('"coords" must be an array of [re, im] pairs')
    if len(raw) > 1 << MAX_QUBITS:  # as many as the largest state has amplitudes
        raise LengthMismatchError(
            f"a point is limited to {1 << MAX_QUBITS} coordinates, got {len(raw)}"
        )
    return ProjectivePoint(_complex_pairs(raw, "coords"))
