"""Lattice polytopes, Delzant checks and normal fans.

The exponent set pairing index ``x`` with the unit-cube vertex whose
coordinates are the bits of ``x`` (most significant first) makes each Segre
relation of :mod:`qtoric.segre` a balanced monomial identity: the two sides
have equal exponent vector sums and equal total degree.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateIntervalError,
    IndexOutOfRangeError,
    RedundantVertexError,
    UnsupportedPolytopeError,
)
from .states import MAX_QUBITS, check_qubit_count

if TYPE_CHECKING:
    from .segre import BinomialRelation

__all__ = [
    "LatticePolytope",
    "ExponentSet",
    "Cone",
    "Fan",
    "DelzantFailure",
    "DelzantVerdict",
    "cube",
    "lattice_points",
    "unit_cube_exponents",
    "delzant_check",
    "normal_fan_box",
    "verify_beta_balance",
]


def _integer_rows(values, what: str) -> np.ndarray:
    """``values`` as a nonempty (k, n) int64 array, each entry an integer below 2^63."""
    arr = np.asarray(values)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise UnsupportedPolytopeError(f"{what} rows must form a nonempty (k, n) array")
    kind = arr.dtype.kind
    if kind == "f":
        whole = np.isfinite(arr) & (arr == np.rint(arr)) & (abs(arr) < 2.0**63)
    else:
        whole = kind in "bi" or (kind == "u" and arr.max() < 2**63)
    if not np.all(whole):
        raise UnsupportedPolytopeError(f"{what} coordinates must be integers below 2^63")
    return arr.astype(np.int64)


def _rows_distinct(arr: np.ndarray) -> bool:
    # Sorting the rows with np.lexsort is several times faster than
    # np.unique(axis=0) on the 3^12 points of the largest cube.
    rows = arr[np.lexsort(arr.T)]
    return bool((rows[1:] != rows[:-1]).any(axis=1).all())


@dataclass(frozen=True)
class LatticePolytope:
    """A full set of integer vertices; no vertex may be redundant.

    Boxes may have any dimension; other vertex sets need affine dimension
    at most 3, where :func:`_facets` decides redundancy exactly.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        arr = _integer_rows(self.vertices, "vertex")
        if not _rows_distinct(arr):
            raise RedundantVertexError("duplicate vertices")
        intervals = _box_intervals_of(arr)
        if intervals is None:
            dim, facets = _facets(arr)
            for i, vertex in enumerate(arr.tolist()):
                if sum(i in facet for facet in facets) < dim:
                    message = f"vertex {tuple(vertex)} lies in the hull of the others"
                    raise RedundantVertexError(message)
        else:
            dim, facets = int((intervals[0] < intervals[1]).sum()), None
        # For delzant_check, outside the fields: the dimension, and the facets or None for a box.
        object.__setattr__(self, "_hull", (dim, facets))
        arr.setflags(write=False)
        object.__setattr__(self, "vertices", arr)

    @property
    def dim(self) -> int:
        return int(self.vertices.shape[1])

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])


def _det(rows: list[list[int]]) -> int:
    """Exact determinant of a small square integer matrix, by cofactor expansion."""
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    rest = rows[1:]
    return sum(
        (-1) ** c * a * _det([r[:c] + r[c + 1 :] for r in rest]) for c, a in enumerate(rows[0])
    )


def _affine_axes(points: list[list[int]]) -> list[int]:
    """Coordinate axes onto which the affine hull of ``points`` projects bijectively.

    Fraction-free row reduction of the differences from the first point, in
    Python ints. Each new pivot row is zero on the earlier pivot axes and
    nonzero on its own, so the pivot rows restricted to the pivot axes form
    a triangular matrix with a nonzero determinant.
    """
    pivots: list[tuple[int, list[int]]] = []
    for point in points[1:]:
        row = [c - b for c, b in zip(point, points[0])]
        for axis, pivot in pivots:
            if row[axis]:
                row = [pivot[axis] * r - row[axis] * p for r, p in zip(row, pivot)]
        if any(row):
            if len(pivots) == 3:
                raise UnsupportedPolytopeError("a non-box vertex set needs affine dimension <= 3")
            g = math.gcd(*row)
            row = [c // g for c in row]
            pivots.append((next(a for a, c in enumerate(row) if c), row))
    return [axis for axis, _ in pivots]


def _facets(vertices: np.ndarray) -> tuple[int, set[frozenset[int]]]:
    """The affine dimension d <= 3 of a non-box point set and its facets, as index sets.

    The points are first projected onto d coordinate axes whose d x d minor
    is nonzero, an affine bijection on their hull. Every d-subset then spans
    a candidate hyperplane through its cofactor normal (the perpendicular in
    2D, the cross product in 3D); it is a facet when all points lie on one
    side. A facet is determined by the points on it, so the index sets
    deduplicate the candidates. All arithmetic is in Python ints, so nothing
    overflows or rounds. A point is a vertex exactly when it lies on at
    least d facets, and two vertices span an edge exactly when they share at
    least d - 1. Cost: up to O(k^(d+1)) for k points.
    """
    points = vertices.tolist()
    axes = _affine_axes(points)
    points = [[point[a] for a in axes] for point in points]
    dim = len(axes)
    facets = set()
    for subset in itertools.combinations(range(len(points)), dim):
        base = points[subset[0]]
        spans = [[c - b for c, b in zip(points[i], base)] for i in subset[1:]]
        normal = [(-1) ** c * _det([s[:c] + s[c + 1 :] for s in spans]) for c in range(dim)]
        if not any(normal):
            continue
        level = sum(map(operator.mul, normal, base))
        sides = set()
        for point in points:  # most candidates fail within a few points
            height = sum(map(operator.mul, normal, point))
            sides.add((height > level) - (height < level))
            if sides >= {1, -1}:
                break
        else:
            on = (i for i, p in enumerate(points) if sum(map(operator.mul, normal, p)) == level)
            facets.add(frozenset(on))
    return dim, facets


def _box_intervals_of(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-axis (lows, highs) when the distinct vertices are exactly a box's corners, else None."""
    lows = vertices.min(axis=0)
    highs = vertices.max(axis=0)
    on_corner = ((vertices == lows) | (vertices == highs)).all()
    if on_corner and len(vertices) == 1 << int((lows < highs).sum()):
        return lows, highs
    return None


def cube(m: int, variant: str = "centered") -> LatticePolytope:
    """The m-cube: ``centered`` has vertices (+-1, ..., +-1), ``unit`` {0,1}^m."""
    if m < 1:
        raise UnsupportedPolytopeError("cube dimension must be at least 1")
    # The moment polytope of an m-qubit state is the m-cube, so no larger
    # cube has a use; the vertices and lattice points grow as 2^m and 3^m.
    check_qubit_count(m, MAX_QUBITS, "the cube dimension")
    if variant == "centered":
        values = (-1, 1)
    elif variant == "unit":
        values = (0, 1)
    else:
        raise UnsupportedPolytopeError(f"unknown cube variant {variant!r}")
    # Row x of the index grid holds the bits of x, most significant first.
    vertices = np.array(values)[np.indices((2,) * m).reshape(m, -1).T]
    return LatticePolytope(vertices)


@dataclass(frozen=True)
class ExponentSet:
    """An ordered sequence of pairwise distinct integer exponent vectors."""

    points: np.ndarray

    def __post_init__(self) -> None:
        arr = _integer_rows(self.points, "exponent")
        if not _rows_distinct(arr):
            raise RedundantVertexError("exponent vectors must be pairwise distinct")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def k(self) -> int:
        return int(self.points.shape[0])


def lattice_points(polytope: LatticePolytope) -> ExponentSet:
    """All integer points of a box, in lexicographic order."""
    intervals = _box_intervals_of(polytope.vertices)
    if intervals is None:
        raise UnsupportedPolytopeError("lattice point enumeration is implemented for boxes")
    lows, highs = intervals
    grid = np.indices(tuple(int(n) for n in highs - lows + 1))
    return ExponentSet(grid.reshape(polytope.dim, -1).T + lows)


def unit_cube_exponents(m: int) -> ExponentSet:
    """Vertices of {0,1}^m ordered so position x holds the bits of x (MSB first)."""
    return lattice_points(cube(m, "unit"))


# ---------------------------------------------------------------------------
# Delzant condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelzantFailure:
    vertex: tuple[int, ...]
    reason: str
    determinant: int | None = None


@dataclass(frozen=True)
class DelzantVerdict:
    is_delzant: bool
    failures: tuple[DelzantFailure, ...]


def _primitive(vector) -> tuple[int, ...]:
    g = math.gcd(*vector)
    return tuple(c // g for c in vector)


def delzant_check(polytope: LatticePolytope) -> DelzantVerdict:
    """Check the Delzant condition vertex by vertex.

    A polytope passes when exactly ``n`` edges meet every vertex and their
    primitive integer directions form a Z-basis (determinant +-1). Boxes are
    handled in any dimension; other polytopes (dimension at most 3) through
    the exact edges of the facets that :func:`_facets` found at construction.
    """
    n = polytope.dim
    rank, facets = polytope._hull
    if rank != n:
        raise UnsupportedPolytopeError(
            f"polytope spans dimension {rank}, expected full dimension {n}"
        )
    if facets is None:
        # At a box corner the n edges run along the axes with primitive
        # directions +-e_i, a Z-basis.
        return DelzantVerdict(True, ())

    points = [tuple(p) for p in polytope.vertices.tolist()]
    failures = []
    for idx, vertex in enumerate(points):
        shared = [sum(idx in f and j in f for f in facets) for j in range(len(points))]
        neighbors = [j for j, count in enumerate(shared) if j != idx and count >= n - 1]
        if len(neighbors) != n:
            failures.append(
                DelzantFailure(vertex, f"{len(neighbors)} edges meet this vertex, expected {n}")
            )
            continue
        directions = [_primitive([b - a for a, b in zip(vertex, points[j])]) for j in neighbors]
        det = _det(directions)
        if abs(det) != 1:
            failures.append(
                DelzantFailure(
                    vertex,
                    f"primitive edge directions are not a Z-basis (determinant {det})",
                    determinant=det,
                )
            )
    return DelzantVerdict(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Normal fans of boxes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cone:
    """A rational cone given by primitive, pairwise distinct ray generators.

    Generators are stored as tuples of ints, all of one length.
    """

    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        try:
            generators = tuple(tuple(map(operator.index, gen)) for gen in self.generators)
        except TypeError as exc:
            raise UnsupportedPolytopeError("generators must be sequences of integers") from exc
        if len({len(gen) for gen in generators}) > 1:
            raise UnsupportedPolytopeError("generators must have one common length")
        seen = set()
        for gen in generators:
            if not any(gen):
                raise UnsupportedPolytopeError("a zero vector cannot generate a ray")
            if _primitive(gen) != gen:
                raise UnsupportedPolytopeError(f"generator {gen} is not primitive")
            if gen in seen:
                raise UnsupportedPolytopeError(f"generator {gen} repeated")
            seen.add(gen)
        object.__setattr__(self, "generators", generators)

    @property
    def ndim(self) -> int:
        return len(self.generators)


def _orthant_cone(pattern: tuple[int, ...]) -> Cone:
    """The cone of the rays ``sign * e_i``, one per nonzero entry of ``pattern``."""
    axes = range(len(pattern))
    return Cone(
        tuple(tuple(sign * (a == i) for a in axes) for i, sign in enumerate(pattern) if sign)
    )


@dataclass(frozen=True)
class Fan:
    """Normal fan of a nondegenerate box in dimension ``dim``, one cone per face.

    The fan depends only on ``dim``. Cones are keyed by sign patterns in
    {-1, 0, +1}^dim: entry +1 selects the upper facet normal ``+e_i`` on
    axis i, entry -1 the lower ``-e_i``, and 0 leaves the axis free. The
    all-zero key is the zero cone and the keys without zeros are the maximal
    cones; every face of a cone is the cone of a pattern with more zeros, so
    the fan is closed under faces.
    """

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise UnsupportedPolytopeError("a fan needs dimension at least 1")

    @property
    def cone_count(self) -> int:
        return 3**self.dim

    @property
    def maximal_cone_count(self) -> int:
        return 2**self.dim

    @cached_property
    def cones(self) -> dict[tuple[int, ...], Cone]:
        """Every cone, keyed by sign pattern in lexicographic order; built when first read."""
        return {p: _orthant_cone(p) for p in itertools.product((-1, 0, 1), repeat=self.dim)}

    def maximal_cones(self) -> list[Cone]:
        """The 2^dim maximal cones, in lexicographic order of their sign patterns."""
        return [_orthant_cone(p) for p in itertools.product((-1, 1), repeat=self.dim)]


def normal_fan_box(polytope: LatticePolytope) -> Fan:
    """The fan of a nondegenerate box: 3^n cones, 2^n of them maximal."""
    intervals = _box_intervals_of(polytope.vertices)
    if intervals is None:
        raise UnsupportedPolytopeError("normal fans are implemented for boxes")
    lows, highs = intervals
    degenerate = np.flatnonzero(lows == highs)
    if degenerate.size:
        raise DegenerateIntervalError(f"axis {int(degenerate[0])} has zero length")
    return Fan(polytope.dim)


def verify_beta_balance(relation: BinomialRelation, exponents: ExponentSet) -> bool:
    """Whether the relation is a balanced monomial identity on the exponent set.

    Both sides must have equal exponent-vector sums; both have total degree
    2 by construction.
    """
    for index in (*relation.lhs, *relation.rhs):
        if not 0 <= index < exponents.k:
            raise IndexOutOfRangeError(
                f"index {index} outside the exponent set of size {exponents.k}"
            )
    points = exponents.points
    lhs_sum = points[relation.lhs[0]] + points[relation.lhs[1]]
    rhs_sum = points[relation.rhs[0]] + points[relation.rhs[1]]
    return bool(np.array_equal(lhs_sum, rhs_sum))
