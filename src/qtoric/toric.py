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
and Applications*, 2012). :func:`largest_minors` evaluates the minors
directly; :func:`relation_table` enumerates them as an integer array, and
:func:`segre_relations` wraps its rows as objects.

The exponent set pairing index ``x`` with the unit-cube vertex whose
coordinates are the bits of ``x`` (most significant first) makes each
relation a balanced monomial identity: the two sides have equal exponent
vector sums and equal total degree.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateIntervalError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    RedundantVertexError,
    UnsupportedPolytopeError,
    WrongQubitCountError,
)
from .states import MAX_QUBITS, MultiQubitState, check_qubit_count

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
    "RELATION_TEXT",
    "relation_table",
    "segre_relations",
    "relation_residual",
    "largest_minors",
    "max_segre_residual",
    "verify_beta_balance",
]


@dataclass(frozen=True)
class LatticePolytope:
    """A full set of integer vertices; no vertex may be redundant."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.vertices)
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise UnsupportedPolytopeError("vertices must form a nonempty (k, n) array")
        if not np.issubdtype(arr.dtype, np.integer):
            rounded = np.rint(arr)
            if not np.array_equal(arr, rounded):
                raise UnsupportedPolytopeError("vertex coordinates must be integers")
            arr = rounded
        arr = arr.astype(np.int64, copy=True)
        seen = set(map(tuple, arr.tolist()))
        if len(seen) != len(arr):
            raise RedundantVertexError("duplicate vertices")
        if _box_intervals_of(arr) is None:
            _assert_irredundant(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "vertices", arr)

    @property
    def dim(self) -> int:
        return int(self.vertices.shape[1])

    @property
    def num_vertices(self) -> int:
        return int(self.vertices.shape[0])


def _assert_irredundant(vertices: np.ndarray) -> None:
    # Hull membership via an LP feasibility problem per vertex. Skipped for
    # boxes, whose corners are never redundant.
    from scipy.optimize import linprog  # deferred: keeps CLI startup light

    k = len(vertices)
    if k <= 2:
        return
    for i in range(k):
        others = np.delete(vertices, i, axis=0)
        a_eq = np.vstack([others.T.astype(float), np.ones(k - 1)])
        b_eq = np.append(vertices[i].astype(float), 1.0)
        result = linprog(
            np.zeros(k - 1), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (k - 1),
            method="highs",
        )
        if result.status == 0:
            raise RedundantVertexError(
                f"vertex {tuple(int(c) for c in vertices[i])} lies in the hull of the others"
            )


def _box_intervals_of(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-axis (lows, highs) when the vertex set is exactly a box, else None."""
    lows = vertices.min(axis=0)
    highs = vertices.max(axis=0)
    corners = {
        tuple(int(v) for v in corner)
        for corner in itertools.product(*[(int(lo), int(hi)) for lo, hi in zip(lows, highs)])
    }
    if corners == set(map(tuple, vertices.tolist())):
        return lows, highs
    return None


def cube(m: int, variant: str = "centered") -> LatticePolytope:
    """The m-cube: ``centered`` has vertices (+-1, ..., +-1), ``unit`` {0,1}^m."""
    if m < 1:
        raise UnsupportedPolytopeError("cube dimension must be at least 1")
    # The moment polytope of an m-qubit state is the m-cube, so no larger
    # cube has a use; the vertices, points and cones grow as 2^m and 3^m.
    check_qubit_count(m, MAX_QUBITS, "the cube dimension")
    if variant == "centered":
        values = (-1, 1)
    elif variant == "unit":
        values = (0, 1)
    else:
        raise UnsupportedPolytopeError(f"unknown cube variant {variant!r}")
    vertices = np.array(list(itertools.product(values, repeat=m)), dtype=np.int64)
    return LatticePolytope(vertices)


@dataclass(frozen=True)
class ExponentSet:
    """An ordered sequence of pairwise distinct integer exponent vectors."""

    points: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.points, dtype=np.int64).copy()
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise UnsupportedPolytopeError("exponent set must be a nonempty (k, n) array")
        if len(set(map(tuple, arr.tolist()))) != len(arr):
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
    axes = [range(int(lo), int(hi) + 1) for lo, hi in zip(lows, highs)]
    points = np.array(list(itertools.product(*axes)), dtype=np.int64)
    return ExponentSet(points)


@lru_cache(maxsize=None)
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


def _primitive(vector: np.ndarray) -> tuple[int, ...]:
    g = int(np.gcd.reduce(np.abs(vector)))
    return tuple(int(c) // g for c in vector)


def _int_det(matrix: np.ndarray) -> int:
    n = matrix.shape[0]
    m = matrix.astype(object)
    if n == 1:
        return int(m[0, 0])
    if n == 2:
        return int(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    if n == 3:
        return int(
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
    raise UnsupportedPolytopeError("exact determinant implemented for n <= 3")


def _polygon_edges(vertices: np.ndarray) -> list[tuple[int, int]]:
    # A pair is an edge exactly when the remaining vertices lie strictly on
    # one side of its supporting line.
    edges = []
    k = len(vertices)
    for i, j in itertools.combinations(range(k), 2):
        d = vertices[j] - vertices[i]
        normal = np.array([-d[1], d[0]], dtype=np.int64)
        sides = (vertices - vertices[i]) @ normal
        others = np.delete(sides, [i, j])
        if others.size == 0 or np.all(others > 0) or np.all(others < 0):
            edges.append((i, j))
    return edges


def _facet_vertex_sets_3d(vertices: np.ndarray) -> list[frozenset[int]]:
    facets: dict[tuple, frozenset[int]] = {}
    for i, j, l in itertools.combinations(range(len(vertices)), 3):
        normal = np.cross(vertices[j] - vertices[i], vertices[l] - vertices[i])
        if not normal.any():
            continue
        offsets = vertices @ normal
        level = offsets[i]
        if np.all(offsets <= level):
            pass
        elif np.all(offsets >= level):
            normal = -normal
            offsets = -offsets
            level = -level
        else:
            continue
        prim = _primitive(normal)
        key = (prim, int(np.dot(prim, vertices[i])))
        facets[key] = frozenset(int(t) for t in np.flatnonzero(offsets == level))
    return list(facets.values())


def _polyhedron_edges(vertices: np.ndarray) -> list[tuple[int, int]]:
    # An edge of a 3-polytope is exactly a vertex pair shared by two facets.
    facets = _facet_vertex_sets_3d(vertices)
    edges = []
    for i, j in itertools.combinations(range(len(vertices)), 2):
        shared = sum(1 for facet in facets if i in facet and j in facet)
        if shared >= 2:
            edges.append((i, j))
    return edges


def delzant_check(polytope: LatticePolytope) -> DelzantVerdict:
    """Check the Delzant condition vertex by vertex.

    A polytope passes when exactly ``n`` edges meet every vertex and their
    primitive integer directions form a Z-basis (determinant +-1). Boxes are
    handled in any dimension; other polytopes up to dimension 3 by explicit
    edge enumeration.
    """
    vertices = polytope.vertices
    n = polytope.dim
    rank = np.linalg.matrix_rank((vertices - vertices[0]).astype(float))
    if rank != n:
        raise UnsupportedPolytopeError(
            f"polytope spans dimension {rank}, expected full dimension {n}"
        )
    if _box_intervals_of(vertices) is not None:
        # At a box corner the n edges run along the axes with primitive
        # directions +-e_i, a Z-basis.
        return DelzantVerdict(True, ())
    if n == 2:
        edges = _polygon_edges(vertices)
    elif n == 3:
        edges = _polyhedron_edges(vertices)
    else:
        raise UnsupportedPolytopeError(
            "general polytopes are supported up to dimension 3 (boxes in any dimension)"
        )

    neighbors: dict[int, list[int]] = defaultdict(list)
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)

    failures = []
    for idx in range(len(vertices)):
        around = neighbors.get(idx, [])
        vertex = tuple(int(c) for c in vertices[idx])
        if len(around) != n:
            failures.append(
                DelzantFailure(vertex, f"{len(around)} edges meet this vertex, expected {n}")
            )
            continue
        directions = np.array(
            [_primitive(vertices[j] - vertices[idx]) for j in around], dtype=np.int64
        ).T
        det = _int_det(directions)
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
    """A rational cone given by primitive, pairwise distinct ray generators."""

    generators: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = set()
        for gen in self.generators:
            arr = np.asarray(gen, dtype=np.int64)
            if not arr.any():
                raise UnsupportedPolytopeError("a zero vector cannot generate a ray")
            if _primitive(arr) != tuple(int(c) for c in arr):
                raise UnsupportedPolytopeError(f"generator {gen} is not primitive")
            if gen in seen:
                raise UnsupportedPolytopeError(f"generator {gen} repeated")
            seen.add(gen)

    @property
    def ndim(self) -> int:
        return len(self.generators)


@dataclass(frozen=True)
class Fan:
    """Normal fan of a box, one cone per face.

    Cones are keyed by sign patterns in {-1, 0, +1}^n: entry +1 selects the
    upper facet normal ``+e_i`` on axis i, entry -1 the lower ``-e_i``, and 0
    leaves the axis free. The all-zero key is the zero cone and the keys
    without zeros are the maximal cones.
    """

    dim: int
    cones: dict[tuple[int, ...], "Cone"]

    def __post_init__(self) -> None:
        zero = (0,) * self.dim
        if zero not in self.cones:
            raise UnsupportedPolytopeError("fan must contain the zero cone")
        for pattern in self.cones:
            for axis, sign in enumerate(pattern):
                if sign != 0:
                    face = pattern[:axis] + (0,) + pattern[axis + 1 :]
                    if face not in self.cones:
                        raise UnsupportedPolytopeError(
                            f"fan is not closed under faces: missing {face}"
                        )

    @property
    def cone_count(self) -> int:
        return len(self.cones)

    def maximal_cones(self) -> list["Cone"]:
        return [cone for pattern, cone in sorted(self.cones.items()) if 0 not in pattern]


def normal_fan_box(polytope: LatticePolytope) -> Fan:
    """The fan of a nondegenerate box: 3^n cones, 2^n of them maximal."""
    intervals = _box_intervals_of(polytope.vertices)
    if intervals is None:
        raise UnsupportedPolytopeError("normal fans are implemented for boxes")
    lows, highs = intervals
    degenerate = np.flatnonzero(lows == highs)
    if degenerate.size:
        raise DegenerateIntervalError(f"axis {int(degenerate[0])} has zero length")
    n = polytope.dim
    cones = {}
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        generators = tuple(
            tuple(sign if axis == i else 0 for axis in range(n))
            for i, sign in enumerate(pattern)
            if sign != 0
        )
        cones[pattern] = Cone(generators)
    return Fan(n, cones)


# ---------------------------------------------------------------------------
# Segre binomial relations
# ---------------------------------------------------------------------------

MAX_RELATION_QUBITS = 10
"""Largest qubit count of a relation table: 1,296,640 rows at m = 10, and
about four times as many per further qubit."""

RELATION_TEXT = "a[%(x)s]*a[%(y)s] = a[%(u)s]*a[%(v)s]"
"""A relation ``a[x] a[y] = a[u] a[v]`` as text, filled with the bitstrings
of its four indices."""


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
    whose bit swap gives it; rows are sorted. Built one flattening at a time:
    the column pairs ``c < c'`` of flattening j, with bit j inserted, are the
    two pairs of one minor. When ``c ^ c'`` is a single bit below bit j, the
    two indices differ in exactly two bits and the smaller axis already
    gives the row, so it is dropped. There are
    ``sum_{t=2..m} C(m, t) 2^(m-t) e(t)`` rows, ``e(2) = 1`` and
    ``e(t) = t 2^(t-2)``: about ``m 4^(m-1) / 2``, hence
    :data:`MAX_RELATION_QUBITS`.
    """
    if m < 2:
        raise WrongQubitCountError("relations need at least 2 qubits")
    check_qubit_count(m, MAX_RELATION_QUBITS, "the relation table")
    c, d = np.triu_indices(1 << (m - 1), k=1)
    differing = c ^ d
    single_bit = differing & (differing - 1) == 0
    blocks = []
    for j in range(1, m + 1):
        bit = 1 << (j - 1)
        keep = ~(single_bit & (differing < bit))
        cols = np.stack([c[keep], d[keep]])
        low = cols & (bit - 1)
        c0, d0 = ((cols - low) << 1) | low  # bit j inserted as 0
        # c0 < d0, so c0 is the least of the four indices: (c0, d0 | bit)
        # is the left pair, and the right pair only needs sorting.
        rows = np.empty((len(c0), 5), dtype=np.int32)
        rows[:, 0] = c0
        rows[:, 1] = d0 | bit
        rows[:, 2] = np.minimum(c0 | bit, d0)
        rows[:, 3] = np.maximum(c0 | bit, d0)
        rows[:, 4] = j
        blocks.append(rows)
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
    :func:`relation_table`, as objects.
    """
    return tuple(
        BinomialRelation(m, (x, y), (u, v), axis)
        for x, y, u, v, axis in relation_table(m).tolist()
    )


def relation_residual(state: MultiQubitState, relation: BinomialRelation) -> float:
    """``|a[x] a[y] - a[x'] a[y']|`` on the unit-normalized amplitudes.

    Only the four amplitudes are divided by the norm, each exactly as a
    division of the whole vector would divide it.
    """
    if state.num_qubits != relation.num_qubits:
        raise DimensionMismatchError(
            f"state has {state.num_qubits} qubits, relation indexes {relation.num_qubits}"
        )
    a = state.amplitudes
    norm = state.norm
    x, y = relation.lhs
    u, v = relation.rhs
    return float(abs(a[x] / norm * (a[y] / norm) - a[u] / norm * (a[v] / norm)))


_TILE = 256
"""Side of the square blocks in which :func:`largest_minors` forms a minor
matrix: 2^16 complex entries, 1 MB, per temporary."""


def largest_minors(unit: np.ndarray) -> np.ndarray:
    """Largest absolute 2x2 minor of the m single-qubit flattenings, per row.

    ``unit`` is an (N, 2^m) array of unit-normalized amplitude vectors. With
    ``r0`` and ``r1`` the two rows of a flattening, its minors are the entries
    of ``d - d.T`` with ``d = outer(r0, r1)``. That matrix is antisymmetric,
    so only its blocks on or above the diagonal are formed: the block of row
    range I and column range J is ``outer(r0[I], r1[J]) - outer(r0[J], r1[I]).T``,
    at most ``_TILE`` on a side. Below m = 10 the whole matrix is one block,
    and the rows of a batch are taken together, as many as fill one block.
    """
    count, size = unit.shape
    m = size.bit_length() - 1
    n = size // 2
    tile = min(n, _TILE)
    per_block = max(1, _TILE * _TILE // (n * n))
    worst = np.zeros(count)
    for start in range(0, count, per_block):
        rows = unit[start : start + per_block]
        best = worst[start : start + per_block]
        for position in range(m):  # ket order, most significant bit first
            halves = rows.reshape(len(rows), 1 << position, 2, -1)
            r0 = halves[:, :, 0].reshape(len(rows), n, 1)
            r1 = halves[:, :, 1].reshape(len(rows), 1, n)
            for i in range(0, n, tile):
                for j in range(i, n, tile):
                    d = r0[:, i : i + tile] * r1[:, :, j : j + tile]
                    e = d if i == j else r0[:, j : j + tile] * r1[:, :, i : i + tile]
                    # Only the maxima are kept: holding the 1 MB block of
                    # absolute minors until the next block measured slower.
                    maxima = np.abs(d - e.transpose(0, 2, 1)).reshape(len(rows), -1).max(axis=1)
                    np.maximum(best, maxima, out=best)
    return worst


def max_segre_residual(state: MultiQubitState) -> float:
    """Largest relation residual; zero exactly on fully separable states.

    Evaluated as the largest 2x2 minor of the m single-qubit flattenings,
    by :func:`largest_minors`.
    """
    if state.num_qubits < 2:
        raise WrongQubitCountError("residuals need at least 2 qubits")
    return float(largest_minors((state.amplitudes / state.norm)[None])[0])


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
