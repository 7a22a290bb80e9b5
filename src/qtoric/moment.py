"""Torus moment maps on projective space and products of projective lines.

The map used throughout, in the Fubini-Study normalization, is

    mu[a_0 : ... : a_{n-1}] = -1/2 (|a_1|^2 / S, ..., |a_{n-1}|^2 / S),

with ``S = sum_k |a_k|^2``. Its image is the simplex spanned by the origin
and the vectors ``-1/2 e_k``; on an m-fold product of projective lines the
image is the box ``[-1/2, 0]^m``. The alternative height-function
normalization on the sphere, with image ``[-1, 1]`` per axis, is the affine
image ``t -> 4t + 1`` of this convention and has no separate code path.

Entangled states have no image under :func:`moment_product`: the map is
defined on tuples of single-qubit factors, not on the ambient state space.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyFactorListError,
    NonFiniteAmplitudeError,
)
from .states import ProjectivePoint, QubitFactor, _scaled_parts

__all__ = [
    "moment_projective",
    "moment_product",
    "fixed_point_images",
    "s1_moment_disk",
]


def moment_projective(point: ProjectivePoint) -> np.ndarray:
    """Moment-map image of a projective point, a vector of length n - 1.

    Invariant under rescaling the point by any nonzero complex number and
    under the torus action multiplying coordinates 1..n-1 by unit phases.
    Defined at any finite scale of the coordinates.
    """
    return _images(point.coords)


def _images(coords: np.ndarray) -> np.ndarray:
    """:func:`moment_projective` of each point along the last axis of ``coords``,
    on coordinates scaled by a power of two: the same bits at ordinary
    scales, and squares in range at all."""
    scaled = _scaled_parts(coords)[0].view(complex)
    weights = np.abs(scaled) ** 2
    image = -0.5 * (weights[..., 1:] / np.add.reduce(weights, axis=-1, keepdims=True))
    return image + 0.0  # never expose -0.0


def moment_product(factors: Sequence[QubitFactor]) -> np.ndarray:
    """Moment-map image of a factor tuple; component j comes from factor j.

    Each component is ``-1/2 |a1|^2 / (|a0|^2 + |a1|^2)``, i.e. the image of
    the factor under :func:`moment_projective` as a point of P^1, so the
    image sits in the box ``[-1/2, 0]^m``.
    """
    factors = list(factors)
    if not factors:
        raise EmptyFactorListError("need at least one factor")
    return _images(np.array([(f.a0, f.a1) for f in factors]))[:, 0]


def fixed_point_images(n: int) -> list[tuple[ProjectivePoint, np.ndarray]]:
    """The n torus-fixed basis points of P^(n-1) paired with their images.

    ``[1:0:...:0]`` maps to the origin and the remaining basis points map to
    ``-1/2`` times the standard unit vectors; together they are exactly the
    vertices of the moment polytope.
    """
    if n < 2:
        raise DimensionMismatchError("projective space needs n >= 2 coordinates")
    basis = np.eye(n, dtype=complex)
    return [(ProjectivePoint(coords), image) for coords, image in zip(basis, _images(basis))]


def s1_moment_disk(vector) -> float:
    """Moment map of the scalar circle action on C^n: ``-|v|^2/2 + 1/2``.

    Zero exactly on the unit sphere, which is the level set reduced to
    projective space.
    """
    arr = np.asarray(vector, dtype=complex).reshape(-1)
    if not (np.isfinite(arr.real).all() and np.isfinite(arr.imag).all()):
        raise NonFiniteAmplitudeError("vector contains NaN or infinite entries")
    return float(0.5 - 0.5 * np.linalg.norm(arr) ** 2)

