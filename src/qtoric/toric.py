"""Lattice polytopes, Delzant checks, normal fans, and Segre binomial relations.

The binomial relations generated here cut out the set of fully separable
states: for amplitude indices ``x != y`` and an axis ``j`` on which their
bits differ, swapping bit ``j`` between the two indices yields the relation

    a[x] * a[y] = a[x'] * a[y'],

and a state satisfies every such relation exactly when it is a tensor
product of single-qubit factors. Relations are stored in a canonical
deduplicated form: both pairs sorted ascending, the smaller pair on the
left. Axis ``j`` counts bit significance starting at 1 for the least
significant bit.

The relations on axis ``j`` are exactly the 2x2 minors of the flattening
that splits qubit ``j`` from the rest, the 2 x 2^(m-1) matrix whose rows are
the amplitudes with bit ``j`` clear and set (Landsberg, *Tensors: Geometry
and Applications*, 2012). :func:`largest_minors` finds the largest of them
directly, in square tiles of the minor matrices. From m = 7, where a
minor matrix holds more than one tile, it skips the tiles that Hadamard's
inequality on the column norms or the three-term Pluecker relations rule
out, with the same result to the bit.
:func:`relation_table` enumerates the relations as an integer array, and
:func:`segre_relations` wraps its rows as objects up to m = 8.

The exponent set pairing index ``x`` with the unit-cube vertex whose
coordinates are the bits of ``x`` (most significant first) makes each
relation a balanced monomial identity: the two sides have equal exponent
vector sums and equal total degree.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateIntervalError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    QubitLimitError,
    RedundantVertexError,
    UnsupportedPolytopeError,
    WrongQubitCountError,
)
from .states import MAX_QUBITS, MultiQubitState, _state_rows, check_qubit_count

__all__ = [
    "LatticePolytope",
    "ExponentSet",
    "BinomialRelation",
    "Cone",
    "Fan",
    "DelzantFailure",
    "DelzantVerdict",
    "cube",
    "lattice_points",
    "unit_cube_exponents",
    "delzant_check",
    "normal_fan_box",
    "MAX_RELATION_QUBITS",
    "DEFAULT_TOLERANCE",
    "RELATION_TEXT",
    "relation_table",
    "segre_relations",
    "relation_residual",
    "largest_minors",
    "max_segre_residual",
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


# ---------------------------------------------------------------------------
# Segre binomial relations
# ---------------------------------------------------------------------------

MAX_RELATION_QUBITS = 10
"""Largest qubit count of a relation table: 1,296,640 rows at m = 10, and
about four times as many per further qubit."""

RELATION_TEXT = "a[%(x)s]*a[%(y)s] = a[%(u)s]*a[%(v)s]"
"""A relation ``a[x] a[y] = a[u] a[v]`` as text, filled with the bitstrings
of its four indices."""

DEFAULT_TOLERANCE = 1e-10
"""Default tolerance of the separability verdict: the residual gate passes a
state whose largest relation residual is at most this."""


@dataclass(frozen=True, order=True)
class BinomialRelation:
    """The identity ``a[lhs[0]] a[lhs[1]] = a[rhs[0]] a[rhs[1]]``.

    ``swap_axis`` records one axis whose bit swap turns the left pair into
    the right pair (the smallest such axis for generated relations). The
    constructor checks structure only; :func:`verify_beta_balance` is the
    membership test for candidate relations.
    """

    num_qubits: int
    lhs: tuple[int, int]
    rhs: tuple[int, int]
    swap_axis: int

    def __post_init__(self) -> None:
        limit = 1 << self.num_qubits
        for index in (*self.lhs, *self.rhs):
            if not 0 <= index < limit:
                raise IndexOutOfRangeError(f"index {index} outside [0, {limit})")
        if not 1 <= self.swap_axis <= self.num_qubits:
            raise IndexOutOfRangeError(f"swap axis {self.swap_axis} outside [1, {self.num_qubits}]")
        if tuple(sorted(self.lhs)) != self.lhs or tuple(sorted(self.rhs)) != self.rhs:
            raise IndexOutOfRangeError("index pairs must be sorted ascending")
        if self.lhs == self.rhs:
            raise IndexOutOfRangeError("relation is trivial: both sides are the same pair")

    def bitstring(self, index: int) -> str:
        return format(index, f"0{self.num_qubits}b")

    def __str__(self) -> str:
        bits = map(self.bitstring, (*self.lhs, *self.rhs))
        return RELATION_TEXT % dict(zip("xyuv", bits))


def relation_table(m: int) -> np.ndarray:
    """The canonical relation set for m qubits as rows ``(x, y, u, v, swap_axis)``.

    Row ``(x, y, u, v, j)`` is the relation ``a[x] a[y] = a[u] a[v]`` in the
    canonical form of :class:`BinomialRelation`, ``j`` the smallest axis
    whose bit swap gives it; rows are sorted. Built one flattening at a time
    from the index of :func:`_flattening_columns`: columns ``c < c'`` of the
    flattening that splits off axis j give the minor whose left pair is
    (``c`` clear, ``c'`` set) and whose right pair is (``c`` set, ``c'``
    clear). When ``c ^ c'`` is a single bit below bit j, the two indices
    differ in exactly two bits and the smaller axis already gives the row,
    so it is dropped. There are
    ``sum_{t=2..m} C(m, t) 2^(m-t) e(t)`` rows, ``e(2) = 1`` and
    ``e(t) = t 2^(t-2)``: about ``m 4^(m-1) / 2``, hence
    :data:`MAX_RELATION_QUBITS`.
    """
    if m < 2:
        raise WrongQubitCountError("relations need at least 2 qubits")
    check_qubit_count(m, MAX_RELATION_QUBITS, "the relation table")
    columns = _flattening_columns(m).astype(np.int32)
    c, d = np.triu_indices(1 << (m - 1), k=1)
    differing = c ^ d
    single_bit = differing & (differing - 1) == 0
    blocks = []
    for j in range(1, m + 1):
        keep = ~(single_bit & (differing < 1 << (j - 1)))
        zero, one = columns[:, m - j]  # flattening m - j splits off axis j
        pairs = np.stack([c[keep], d[keep]])
        (c0, d0), (c1, d1) = zero.take(pairs), one.take(pairs)
        # c0 < d0, so c0 is the least of the four indices: (c0, d1) is the
        # left pair, and the right pair only needs sorting.
        right = np.minimum(c1, d0), np.maximum(c1, d0)
        blocks.append(np.stack([c0, d1, *right, np.full_like(c0, j)], axis=1))
    table = np.concatenate(blocks)
    # The four indices have m <= 10 bits each and pack exactly into one int64
    # key; one argsort of it is about ten times faster than np.lexsort.
    key = table[:, 0].astype(np.int64)
    for column in (1, 2, 3):
        key = (key << m) | table[:, column]
    return table[np.argsort(key)]


@lru_cache(maxsize=None)
def segre_relations(m: int) -> tuple[BinomialRelation, ...]:
    """The canonical deduplicated relation set for m qubits, sorted.

    Every unordered index pair {x, y} and axis j with differing bits
    contributes the bit-j swap; relations whose two sides coincide are
    dropped and equivalent presentations are merged. The rows of
    :func:`relation_table`, as objects, up to m = 8: one object costs about
    25 times its table row, and the cache keeps them for the life of the
    process (0.69 s and 165 MB at m = 9, 9.5 s and 592 MB at m = 10).
    """
    if m > 8:
        raise QubitLimitError(
            f"relation objects are limited to 8 qubits, got {m}; "
            f"relation_table lists the relations up to {MAX_RELATION_QUBITS} qubits"
        )
    return tuple(
        BinomialRelation(m, (x, y), (u, v), axis)
        for x, y, u, v, axis in relation_table(m).tolist()
    )


def relation_residual(state: MultiQubitState, relation: BinomialRelation) -> float:
    """``|a[x] a[y] - a[x'] a[y']|`` on the unit-normalized amplitudes.

    Evaluated in Python complex arithmetic on the state's unit vector, which
    :func:`~qtoric.states.unit_vectors` forms once per state; the result
    is bit-identical to the same expression on numpy scalars.
    """
    if state.num_qubits != relation.num_qubits:
        raise DimensionMismatchError(
            f"state has {state.num_qubits} qubits, relation indexes {relation.num_qubits}"
        )
    a = state._unit_list
    x, y = relation.lhs
    u, v = relation.rhs
    return abs(a[x] * a[y] - a[u] * a[v])


_TILE = 32
"""Side of the square tiles in which :func:`_tiled_largest_minors` forms
minor matrices."""

_BLOCK = 7 << 10
"""Complex entries of one buffer of the certificate, 112 KiB: below glibc's
128 KiB mmap threshold, so the buffers come from the heap and not from pages
mapped afresh on every call. :func:`largest_minors` cuts a batch into blocks
of as many whole rows as fill a buffer with one tile of each flattening, at
least one row, and :func:`_tiled_largest_minors` forms each tile of a call in
equal pieces of at most this many entries."""

_SLACK = 2.0**-32
"""Relative margin of the skip threshold L / (1 + _SLACK): a bound that
rounding left up to 2^21 u too small (u = 2^-53) skips nothing it must not.
That covers Hadamard's bound, off by two norms (within 4u each), a product
and the (sqrt(5) + 3)u of a minor, and the Pluecker bound's three norms and
five operations: under 20u in all."""

_TINY = 1e-300
"""Least lower bound L that skips tiles by the bounds. Norms are taken
without squares, so only a product below the normal range can underflow,
by 2^-1068 at most after the division by n_p: far below L 2^-32 here. Rows
whose L is below it, or NaN, form every tile but those of zero columns. It
guards rows whose formed minors all but vanish; no input is known whose
result it changes. Products, random- and parity-phase, sparse and basis
rows 1e-305 to 1e-320 off gave none at m = 8-10, nor did exact products with
a factor (1, e), |e| near 2^-520: e's own flattening has no light columns,
so it needs every tile where the others hold minors of one subnormal unit."""

_MINOR_ERROR = 2.0**-49
"""K = 16u, the rounding term of the Pluecker bound, in units of the norm
product of a tile.

A complex product errs by at most sqrt(5) u of its modulus (Brent, Percival
and Zimmermann, 2007; 2u with FMA), a complex difference by u of its
modulus, and numpy's complex abs by one ulp, at most 2u. So the computed
|minor| a_cd of columns c and d is within (sqrt(5) + 1) u S + 2u S of the
exact |P_cd|, where S = |r0[c] r1[d]| + |r0[d] r1[c]| <= n_c n_d by
Cauchy-Schwarz: within e n_c n_d, e = (sqrt(5) + 3) u, to first order. The
relation gives |P_cd| <= (|P_pd| n_c + |P_pc| n_d) / n_p, and each exact
pivot minor |P_pd| exceeds the computed a_pd by at most e n_p n_d, so

    a_cd <= (a_pd n_c + a_pc n_d) / n_p + 3e n_c n_d,

with 3e = 15.71u. The norms are within 4u, which moves the last term by
O(u^2) and the first by a relative rounding that ``_SLACK`` covers. Against
exact minors at m = 2-6 the largest error seen was 3.02u, against e = 5.24u;
on exact and near products the largest term needed was 2.25u."""


def largest_minors(unit) -> np.ndarray:
    """Largest absolute 2x2 minor of the m single-qubit flattenings, per row.

    ``unit`` is an (N, 2^m) array, 2 <= m <= ``MAX_QUBITS``, whose rows must
    be finite, unit-normalized amplitude vectors; only the shape is checked.
    With ``r0`` and ``r1`` the two rows of a flattening, the minor of
    columns c and d is ``r0[c] * r1[d] - r0[d] * r1[c]``, each product with
    ``r0`` first, and the result is the maximum of the whole minor matrix to
    the bit.

    Up to m = 6 a flattening's minor matrix is a single tile, formed in one
    expression. From m = 7, :func:`_tiled_largest_minors` skips the tiles
    of the minor matrices that a bound rules out. Hadamard's bound skips
    every tile but the heaviest on states far from the Segre variety: at
    m = 12 it forms one tile of 32 x 32 in each 2048 x 2048 minor matrix.
    A bound from the Pluecker relations keeps a few dozen tiles of exact
    and near products, and no tile of a zero column is formed, so a basis
    state forms only the heaviest. States whose columns all weigh the same,
    such as uniform and graph states, still form every tile, at O(m 4^m).

    The rows go to the kernel in blocks of as many whole rows as fill
    ``_BLOCK`` entries with one tile of each flattening, at least one row,
    each block's flattenings gathered just before its call, both rows in one
    take. So up to m = 6, where a block's single tiles hold at most
    ``_BLOCK`` entries, the temporaries that form them come from the heap.
    From m = 7 a block holds one row, so each half of its gather is
    contiguous and the kernel's reshapes and flat takes copy nothing.
    """
    unit, m = _state_rows(unit, "the Segre certificate")
    columns = _flattening_columns(m)
    side = min(columns.shape[2], _TILE)
    per_block = max(1, _BLOCK // (m * side * side))
    worst = np.empty(len(unit))
    for start in range(0, len(unit), per_block):
        r0, r1 = unit[start : start + per_block].take(columns, axis=1).swapaxes(0, 1)
        worst[start : start + per_block] = _tiled_largest_minors(r0, r1)
    return worst


@lru_cache(maxsize=None)
def _flattening_columns(m: int) -> np.ndarray:
    """Amplitude indices of the m flattenings as a (2, m, 2^(m-1)) array.

    Entry ``[b, p]`` lists the indices whose bit at position p, most
    significant first, is b, in the order of ``reshape(2^p, 2, -1)``; taken
    from a state, it is row b of flattening p.
    """
    index = np.arange(1 << m).reshape((2,) * m)
    columns = np.stack([np.moveaxis(index, p, 0).reshape(2, -1) for p in range(m)], axis=1)
    columns.setflags(write=False)
    return columns


def _tiled_largest_minors(r0: np.ndarray, r1: np.ndarray) -> np.ndarray:
    """The largest absolute minor of each row, from the tiles that can hold it.

    ``r0`` and ``r1`` hold the two rows of the m flattenings of each row, as
    (N, m, n) arrays. With ``d = outer(r0, r1)`` the minors of a flattening
    are the entries of ``d - d.T``. That matrix is antisymmetric, so only its
    tiles on or above the diagonal are formed: the tile of column ranges I
    and J is ``r0[I, None] * r1[None, J] - r0[None, J] * r1[I, None]``,
    ``_TILE`` on a side, and a diagonal tile reads its second term as the
    transpose of its first. Up to ``_TILE`` columns (m <= 6) the one
    diagonal tile is formed in one expression, with the same operations in
    the same order; its temporaries hold as many entries as the call, which
    :func:`largest_minors` keeps within ``_BLOCK``.

    Above ``_TILE`` columns (m >= 7), each flattening's columns are sorted
    by their norm ``hypot(|r0|, |r1|)``, and each tile is formed at once for
    every flattening of the call, in three buffers, in equal pieces of at
    most ``_BLOCK`` entries. The last tile, of the heaviest columns, is
    formed first, and its largest minor over a row's m flattenings is a
    lower bound L of the row's answer; :func:`_needed_tiles` then picks,
    once per call, the tiles that a bound cannot rule out on every
    flattening of the call. A skipped minor cannot exceed L and every other
    one is formed as without the skip, so the result is the same to the bit.
    """
    count, m, n = r0.shape
    if n <= _TILE:
        d = r0[..., :, None] * r1[..., None, :]
        return np.maximum.reduce(abs(d - d.swapaxes(2, 3)), axis=(1, 2, 3))
    spans = [slice(i, i + _TILE) for i in range(0, n, _TILE)]
    norms = np.empty(r0.shape, dtype=complex)
    np.abs(r0, out=norms.real)
    np.abs(r1, out=norms.imag)
    norms = np.abs(norms)  # complex abs is a scaled hypot: no square underflows
    order = norms.argsort(axis=2)
    order += np.arange(0, r0.size, n).reshape(count, m, 1)
    r0, r1 = r0.take(order), r1.take(order)
    heads = norms.take(order[:, :, _TILE - 1 :: _TILE])  # each tile's heaviest column
    r0, r1 = r0.reshape(-1, n), r1.reshape(-1, n)
    per_piece = math.ceil(len(r0) / math.ceil(len(r0) * _TILE * _TILE / _BLOCK))
    products = np.empty((per_piece, _TILE, _TILE), dtype=complex)
    minors, sizes = np.empty_like(products), np.empty(products.shape)
    worst = np.zeros(len(r0))

    def form(i, j):
        block_i, block_j = spans[i], spans[j]
        for low in range(0, len(r0), per_piece):
            b0, b1 = r0[low : low + per_piece], r1[low : low + per_piece]
            d, e, a = products[: len(b0)], minors[: len(b0)], sizes[: len(b0)]
            np.multiply(b0[:, block_i, None], b1[:, None, block_j], out=d)
            if i == j:
                np.subtract(d, d.transpose(0, 2, 1), out=e)
            else:
                np.multiply(b0[:, None, block_j], b1[:, block_i, None], out=e)
                np.subtract(d, e, out=e)
            np.abs(e, out=a)
            top = worst[low : low + per_piece]
            np.maximum(top, np.maximum.reduce(a, axis=(1, 2)), out=top)

    form(-1, -1)  # the heaviest tile
    for i, j in _needed_tiles(r0, r1, heads, worst):
        form(i, j)
    return np.maximum.reduce(worst.reshape(count, m), axis=1)


def _needed_tiles(
    r0: np.ndarray, r1: np.ndarray, heads: np.ndarray, best: np.ndarray
) -> list[tuple[int, int]]:
    """The tiles (i, j), i <= j, that one call must form after its heaviest.

    ``r0`` and ``r1`` are the call's (R m, n) flattening rows, columns
    sorted by norm; ``heads`` is the (R, m, n / _TILE) array of each span's
    largest norm, and ``best`` each flattening's largest minor so far. A
    tile is needed when on some flattening of the call its bound exceeds
    the row's lower bound L over ``1 + _SLACK``, or L is below ``_TINY``.

    A zero head becomes NaN, on which every bound compares false, so the
    tiles of a span of zero columns are skipped whatever L is: each of their
    minors is exactly 0. The heads are tested for zero one by one, because
    the product of two nonzero heads can underflow.

    The first bound is Hadamard's, ``|P_cd| <= n_c n_d``: no minor of tile
    (I, J) exceeds ``N_I N_J``, the product of its heads. On states far from
    the Segre variety, and on an exact basis state, it leaves only the
    heaviest tile. Where it leaves more, a second bound follows.

    The second bound comes from the three-term Pluecker relation of columns
    x_c, x_d and the heaviest column x_p, ``P_cd x_p = P_pd x_c - P_pc
    x_d``, so ``|P_cd| <= (|P_pd| n_c + |P_pc| n_d) / n_p``. The pivot
    minors ``|P_pc|`` cost O(n) per flattening. They are formed as the tiles
    form minor (c, p), so they are folded into ``best`` first, which raises
    L. With T_I their largest value over span I, tile (I, J) is bounded by
    ``(N_I T_J + N_J T_I) / n_p + _MINOR_ERROR N_I N_J``, which also covers
    the rounding of every minor involved. On exact and near products it
    rules out all but the heaviest few tiles.
    """
    rows, m, _ = heads.shape

    def needed_by(bound):
        lower = np.maximum.reduce(best.reshape(rows, m), axis=1)
        threshold = np.where(lower >= _TINY, lower / (1.0 + _SLACK), -1.0)
        needed = np.logical_or.reduce(bound > threshold[:, None, None, None], axis=(0, 1))
        needed[-1, -1] = False  # formed first
        return needed

    heads = np.where(heads == 0, np.nan, heads)
    head_i, head_j = heads[..., :, None], heads[..., None, :]
    hadamard = head_i * head_j
    if not np.logical_or.reduce(needed_by(hadamard), axis=None):
        return []
    pivot = np.abs(r0 * r1[:, -1:] - r0[:, -1:] * r1)
    np.maximum(best, np.maximum.reduce(pivot, axis=1), out=best)
    reach = np.maximum.reduce(pivot.reshape(heads.shape + (-1,)), axis=3)
    pluecker = head_i * reach[..., None, :] + head_j * reach[..., :, None]
    pluecker /= heads[..., -1:, None]
    pluecker += _MINOR_ERROR * hadamard
    needed = needed_by(np.minimum(hadamard, pluecker))
    return [(i, j) for i, j in zip(*needed.nonzero()) if i <= j]  # the bounds are symmetric


def max_segre_residual(state: MultiQubitState) -> float:
    """Largest relation residual; zero exactly on fully separable states.

    Evaluated as the largest 2x2 minor of the m single-qubit flattenings,
    by :func:`largest_minors`.
    """
    return float(largest_minors(state._unit[None])[0])


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
