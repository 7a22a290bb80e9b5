"""Entanglement measures and polynomial invariants for small qubit systems.

The spin-flip family: with ``~s`` the spin-flip of a state (the y-Pauli on
every qubit after complex conjugation), the concurrence of two qubits and the
m-tangle of an even number of qubits are both ``|<s|~s>|^2``.

Three qubits: the tangle is four times the absolute hyperdeterminant of the
2x2x2 amplitude tensor, assembled from the three sums over complementary
index pairs.

Four qubits: the degree-2 invariant ``H`` pairs each amplitude with its
bitwise complement, signed by index parity; ``I1`` builds the same quantity
from the symplectic pairing ``g = J (x) J`` on the four amplitude blocks and
equals ``H / 2`` identically. The epsilon contraction of Wong and
Christensen (quant-ph/0010052) gives the four-tangle a third route,
independent of ``H``. Of its 2^16 terms, only the 256 whose coefficient, a
product of entries of the symplectic unit ``J``, is nonzero are formed:
grouped by associativity, two amplitude tensors contracted on their three
high qubits give a 2x2 matrix of sums of 8 signed products each, and two
copies of it contracted on the low qubit give the sum. Under these
definitions both tangle routes equal ``4|H|^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatchError, OddQubitCountError, WrongQubitCountError
from .states import MultiQubitState

__all__ = [
    "J",
    "G",
    "FourQubitVectors",
    "Tau4IdentityReport",
    "spin_flip",
    "concurrence",
    "m_tangle",
    "three_tangle",
    "invariant_H",
    "bilinear_g",
    "invariant_I1",
    "four_qubit_vectors",
    "tau4_epsilon_oracle",
    "check_tau4_identities",
]

J = np.array([[0, 1], [-1, 0]], dtype=np.int64)
"""Symplectic unit: J @ J = -I, and M J M^T = J for M in SL(2, C)."""
J.setflags(write=False)

G = np.kron(J, J)
"""The 4x4 pairing matrix of :func:`bilinear_g`."""
G.setflags(write=False)


@lru_cache(maxsize=None)
def _flip_coefficients(m: int) -> np.ndarray:
    # Amplitude x of the spin-flip picks up prod_j sigma_y[x_j, 1-x_j],
    # which is (-i)^m times the parity of x.
    signs = np.array([(-1.0) ** x.bit_count() for x in range(1 << m)])
    coefficients = ((-1j) ** m) * signs
    coefficients.setflags(write=False)
    return coefficients


def spin_flip(state: MultiQubitState) -> MultiQubitState:
    """Apply the y-Pauli to every qubit of the conjugated state.

    Componentwise the amplitude at x becomes ``(-i)^m (-1)^parity(x)`` times
    the conjugate amplitude at the bitwise complement of x; the norm is
    preserved.
    """
    coefficients = _flip_coefficients(state.num_qubits)
    return MultiQubitState(state.num_qubits, coefficients * np.conj(state.amplitudes[::-1]))


def m_tangle(state: MultiQubitState) -> float:
    """``|<s|~s>|^2`` for an even number of qubits, on the normalized state."""
    if state.num_qubits % 2:
        raise OddQubitCountError(
            f"the m-tangle is defined for even qubit counts, got {state.num_qubits}"
        )
    return float(_m_tangle_rows(state._unit[None])[0])


def _m_tangle_rows(unit: np.ndarray):
    """:func:`m_tangle` of each row of an (N, 2^m) array of unit vectors, m even."""
    m = unit.shape[-1].bit_length() - 1
    flipped = _flip_coefficients(m) * np.conj(unit[..., ::-1])
    return np.abs(np.add.reduce(np.conj(unit) * flipped, axis=-1)) ** 2


def concurrence(state: MultiQubitState) -> float:
    """Two-qubit concurrence ``|<s|~s>|^2``; 1 on Bell states, 0 on products."""
    if state.num_qubits != 2:
        raise WrongQubitCountError(f"concurrence needs 2 qubits, got {state.num_qubits}")
    return m_tangle(state)


def _hyperdet3(a: np.ndarray):
    # Cayley's hyperdeterminant as the discriminant b^2 - 4ac of det(A + x B)
    # in the slices A, B of the high qubit; expanded, it is d1 - 2 d2 + 4 d4.
    # ``a`` is one vector, which unpacks into numpy scalars, or an (N, 8)
    # batch, which unpacks into columns.
    a0, a1, a2, a3, a4, a5, a6, a7 = a.T
    b = a0 * a7 - a1 * a6 - a2 * a5 + a3 * a4
    return b * b - 4 * (a0 * a3 - a1 * a2) * (a4 * a7 - a5 * a6)


def _three_tangle_rows(unit: np.ndarray):
    """:func:`three_tangle` of each row of an (N, 8) array of unit vectors."""
    return 4.0 * np.abs(_hyperdet3(unit))


def three_tangle(state: MultiQubitState) -> float:
    """Residual three-way entanglement: ``4 |d1 - 2 d2 + 4 d4|``.

    1 on the GHZ state, 0 on the W state and on every product state. The
    absolute value makes the complex-valued hyperdeterminant a measure.
    """
    if state.num_qubits != 3:
        raise WrongQubitCountError(f"the three-tangle needs 3 qubits, got {state.num_qubits}")
    return float(_three_tangle_rows(state._unit[None])[0])


_H_SIGNS = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
_H_SIGNS.setflags(write=False)
_EPSILON_SIGNS = _H_SIGNS[:, None, None]  # J (x) J (x) J[k, 7 - k], over (k, d, h)


def invariant_H(state: MultiQubitState) -> complex:
    """Degree-2 four-qubit invariant.

    ``H = a0 a15 - a1 a14 - a2 a13 + a3 a12 - a4 a11 + a5 a10 + a6 a9 - a7 a8``:
    the term pairing x with its complement carries sign (-1)^parity(x).
    Computed on the amplitudes as given (no normalization), so it is exactly
    invariant under SL(2, C) maps on each qubit.
    """
    if state.num_qubits != 4:
        raise WrongQubitCountError(f"H needs 4 qubits, got {state.num_qubits}")
    return complex(_h_sum(state.amplitudes))


def _h_sum(a: np.ndarray):
    """H of each length-16 amplitude vector along the last axis of ``a``."""
    return np.add.reduce(_H_SIGNS * a[..., :8] * a[..., :7:-1], axis=-1)


def bilinear_g(u, v) -> complex:
    """The pairing ``g(u, v) = u0 v3 - u1 v2 - u2 v1 + u3 v0`` with g = J (x) J."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if u.size != 4 or v.size != 4:
        raise LengthMismatchError("the bilinear form takes two length-4 vectors")
    return complex(_g(u, v))


def _g(u: np.ndarray, v: np.ndarray):
    # One pair of vectors, or a pair of (N, 4) batches row by row.
    u0, u1, u2, u3 = u.T
    v0, v1, v2, v3 = v.T
    return u0 * v3 - u1 * v2 - u2 * v1 + u3 * v0


class FourQubitVectors(NamedTuple):
    """The four consecutive length-4 blocks of a 4-qubit amplitude vector."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray


def four_qubit_vectors(state: MultiQubitState) -> FourQubitVectors:
    if state.num_qubits != 4:
        raise WrongQubitCountError(f"block slicing needs 4 qubits, got {state.num_qubits}")
    amps = state.amplitudes
    return FourQubitVectors(amps[0:4], amps[4:8], amps[8:12], amps[12:16])


def invariant_I1(state: MultiQubitState) -> complex:
    """First SLOCC invariant ``(g(A, D) - g(B, C)) / 2``; equals H / 2."""
    blocks = four_qubit_vectors(state)
    return 0.5 * (bilinear_g(blocks.a, blocks.d) - bilinear_g(blocks.b, blocks.c))


def _i1_rows(unit: np.ndarray):
    """:func:`invariant_I1` of each row of an (N, 16) array."""
    return 0.5 * (_g(unit[..., 0:4], unit[..., 12:16]) - _g(unit[..., 4:8], unit[..., 8:12]))


def _tau4_contraction(amplitudes: np.ndarray):
    # The 2^16-term epsilon contraction over its nonzero terms, summed in two
    # groups by associativity. p contracts the three high qubits of two
    # amplitude factors with J (x) J (x) J, which pairs high index k only
    # with its complement 7 - k, signed by the parity of k (the signs of H):
    # p[d, h] = sum_k s_k t[k, d] t[7 - k, h], one reduction over k. The pairs
    # (k, l) and (m, n) give the same p, and J (x) J on the low qubits leaves
    # p00 p11 + p11 p00 - p01 p10 - p10 p01. Each vector's terms are summed
    # in the same order alone as in a batch, so a row keeps its bits. Equals
    # 2 H^2 as a complex number, for each length-16 vector along the last axis.
    t = amplitudes.reshape(*amplitudes.shape[:-1], 8, 2)
    p = np.add.reduce(_EPSILON_SIGNS * t[..., :, :, None] * t[..., ::-1, None, :], axis=-3)
    return 2.0 * (p[..., 0, 0] * p[..., 1, 1] - p[..., 0, 1] * p[..., 1, 0])


def tau4_epsilon_oracle(state: MultiQubitState) -> float:
    """Four-tangle by the 2^16-term epsilon contraction, formed from its nonzero terms.

    Returns ``2 |sum|`` on the normalized amplitudes. Agrees with the
    spin-flip m-tangle and with ``4|H|^2``.
    """
    if state.num_qubits != 4:
        raise WrongQubitCountError(f"the four-tangle needs 4 qubits, got {state.num_qubits}")
    return float(2.0 * np.abs(_tau4_contraction(state._unit[None]))[0])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator != 0.0 else math.nan


@dataclass(frozen=True)
class Tau4IdentityReport:
    """All four-tangle routes on one normalized state, with pairwise ratios.

    ``tau4_spinflip`` and ``tau4_epsilon`` agree with ``four_abs_h_sq``; the
    alternative ``|H|^2`` normalization is smaller by the constant factor 4,
    which ``h_sq_factor`` exposes.
    """

    tau4_spinflip: float
    tau4_epsilon: float
    h: complex
    i1: complex
    abs_h_sq: float
    four_abs_h_sq: float
    four_abs_i1_sq: float
    ratios: dict[str, float]
    note: str

    @property
    def h_sq_factor(self) -> float:
        return self.ratios["tau4_spinflip/abs_h_sq"]

    def to_dict(self) -> dict:
        return {
            "tau4_spinflip": self.tau4_spinflip,
            "tau4_epsilon": self.tau4_epsilon,
            "H": [self.h.real, self.h.imag],
            "I1": [self.i1.real, self.i1.imag],
            "abs_H_sq": self.abs_h_sq,
            "four_abs_H_sq": self.four_abs_h_sq,
            "four_abs_I1_sq": self.four_abs_i1_sq,
            # A ratio with a zero denominator is NaN, which JSON cannot hold.
            "ratios": {
                name: value if math.isfinite(value) else None
                for name, value in self.ratios.items()
            },
            "note": self.note,
        }


_TAU4_NOTE = (
    "tau4_spinflip and tau4_epsilon both equal 4|H|^2 (= 16|I1|^2); "
    "the normalization tau4 = |H|^2 is off by the constant factor 4 "
    "under these definitions."
)


def check_tau4_identities(state: MultiQubitState) -> Tau4IdentityReport:
    """Evaluate every four-tangle route on one state and report the ratios."""
    if state.num_qubits != 4:
        raise WrongQubitCountError(f"the identity report needs 4 qubits, got {state.num_qubits}")
    # m_tangle and tau4_epsilon_oracle are looked up as module globals at
    # call time, so a caller that patches them here (a tracer) sees each call.
    tau_flip = m_tangle(state)
    tau_eps = tau4_epsilon_oracle(state)
    h = complex(_h_sum(state._unit[None])[0])
    i1 = complex(_i1_rows(state._unit[None])[0])
    abs_h_sq = abs(h) ** 2
    four_abs_i1_sq = 4.0 * abs(i1) ** 2
    ratios = {
        "tau4_spinflip/tau4_epsilon": _ratio(tau_flip, tau_eps),
        "tau4_spinflip/abs_h_sq": _ratio(tau_flip, abs_h_sq),
        "tau4_epsilon/abs_h_sq": _ratio(tau_eps, abs_h_sq),
        "tau4_spinflip/four_abs_h_sq": _ratio(tau_flip, 4.0 * abs_h_sq),
        "four_abs_i1_sq/abs_h_sq": _ratio(four_abs_i1_sq, abs_h_sq),
    }
    return Tau4IdentityReport(
        tau4_spinflip=tau_flip,
        tau4_epsilon=tau_eps,
        h=h,
        i1=i1,
        abs_h_sq=abs_h_sq,
        four_abs_h_sq=4.0 * abs_h_sq,
        four_abs_i1_sq=four_abs_i1_sq,
        ratios=ratios,
        note=_TAU4_NOTE,
    )
