import copy
import dataclasses
import itertools
import math
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from qtoric import (
    BinomialRelation,
    Cone,
    DegenerateIntervalError,
    DelzantFailure,
    DelzantVerdict,
    DimensionMismatchError,
    ExponentSet,
    Fan,
    IndexOutOfRangeError,
    LatticePolytope,
    LengthMismatchError,
    MAX_RELATION_QUBITS,
    MultiQubitState,
    QubitLimitError,
    RedundantVertexError,
    UnsupportedPolytopeError,
    WrongQubitCountError,
    cube,
    delzant_check,
    lattice_points,
    max_segre_residual,
    named_state,
    normal_fan_box,
    relation_residual,
    relation_table,
    segre_relations,
    state_to_dict,
    unit_cube_exponents,
    verify_beta_balance,
)
from qtoric import toric
from qtoric.states import unit_vectors
from qtoric.toric import _TILE, _box_intervals_of, largest_minors
from helpers import apply_local, child_env, random_product_state, random_sl2, random_state

# Canonical relation counts, frozen from the exhaustive enumeration below.
RELATION_COUNTS = {2: 1, 3: 12, 4: 88}


def _enumerate_relations_by_hand(m):
    """Independent oracle: all bit-swap identities as unordered pair-of-pairs."""
    seen = set()
    for x in range(1 << m):
        for y in range(1 << m):
            if x == y:
                continue
            for j in range(1, m + 1):
                bit = 1 << (j - 1)
                if (x ^ y) & bit:
                    swapped = tuple(sorted((x ^ bit, y ^ bit)))
                    pair = tuple(sorted((x, y)))
                    if swapped != pair:
                        seen.add(tuple(sorted((pair, swapped))))
    return seen


def _canonical_relation_rows(m):
    """Reference enumeration of the canonical table, one index pair at a time.

    Every pair x < y and axis j with differing bits gives the bit-j swap,
    unless the pair differs in bit j alone; both sides are sorted, the smaller
    pair goes left, and the first axis that gives a relation is kept.
    """
    canonical = {}
    for x, y in itertools.combinations(range(1 << m), 2):
        differing = x ^ y
        for j in range(1, m + 1):
            bit = 1 << (j - 1)
            if differing & bit and differing != bit:
                swapped = tuple(sorted((x ^ bit, y ^ bit)))
                lhs, rhs = sorted(((x, y), swapped))
                canonical.setdefault((lhs, rhs), j)
    return [[*lhs, *rhs, axis] for (lhs, rhs), axis in sorted(canonical.items())]


def _count_by_formula(m):
    # Relations group by the set of t differing bit positions: 2^(m-t)
    # placements of the fixed bits times the edge count of the folded t-cube.
    total = 0
    for t in range(2, m + 1):
        edges = 1 if t == 2 else t * (1 << (t - 2))
        total += math.comb(m, t) * (1 << (m - t)) * edges
    return total


# --- cubes and lattice points ---------------------------------------------


def test_cube_centered_vertices():
    assert set(map(tuple, cube(2, "centered").vertices.tolist())) == {
        (-1, -1), (-1, 1), (1, -1), (1, 1)
    }
    assert set(map(tuple, cube(1, "centered").vertices.tolist())) == {(-1,), (1,)}


def test_cube_unit_vertices():
    assert cube(3, "unit").num_vertices == 8
    assert set(map(tuple, cube(3, "unit").vertices.tolist())) == set(
        itertools.product((0, 1), repeat=3)
    )


def test_cube_rejects_bad_input():
    with pytest.raises(UnsupportedPolytopeError):
        cube(0)
    with pytest.raises(UnsupportedPolytopeError):
        cube(2, "fancy")


def test_lattice_points_counts():
    assert lattice_points(cube(2, "unit")).k == 4
    assert lattice_points(cube(2, "centered")).k == 9
    assert lattice_points(cube(3, "centered")).k == 27
    for m in range(1, 5):
        assert lattice_points(cube(m, "centered")).k == 3**m
        assert lattice_points(cube(m, "unit")).k == 2**m


def test_lattice_points_lexicographic():
    points = lattice_points(cube(2, "centered")).points
    expected = list(itertools.product((-1, 0, 1), repeat=2))
    assert [tuple(p) for p in points] == expected


def test_lattice_points_rejects_non_box():
    triangle = LatticePolytope(np.array([[0, 0], [1, 0], [0, 1]]))
    with pytest.raises(UnsupportedPolytopeError):
        lattice_points(triangle)


def test_unit_cube_exponents_match_index_bits():
    from qtoric import index_bits

    for m in (2, 3, 4):
        exps = unit_cube_exponents(m)
        assert exps.k == 2**m
        for x in range(2**m):
            assert tuple(exps.points[x]) == index_bits(x, m)


def test_polytope_rejects_redundant_vertex():
    with pytest.raises(RedundantVertexError):
        LatticePolytope(np.array([[0, 0], [2, 0], [0, 2], [1, 1]]))
    with pytest.raises(RedundantVertexError):
        LatticePolytope(np.array([[0, 0], [0, 0]]))
    with pytest.raises(RedundantVertexError, match="duplicate"):
        LatticePolytope(np.array([[0, 0], [1, 0], [0, 1], [0, 0]]))
    with pytest.raises(RedundantVertexError, match="distinct"):
        ExponentSet(np.array([[1, 0], [0, 0], [1, 0]]))


def test_polytope_rejects_non_integer():
    with pytest.raises(UnsupportedPolytopeError):
        LatticePolytope(np.array([[0.5, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    # Both classes read coordinates alike: whole floats convert, anything
    # else is refused rather than truncated or cast to a wrapped int64.
    for bad in (
        [[np.inf, 0.0], [0.0, 0.0]],
        [[0.0, -np.inf], [1.0, 0.0]],
        [[np.nan, 0.0], [1.0, 0.0]],
        [[0.5], [1.7]],
        [[2.0**63], [0.0]],
        [[1 + 2j], [0]],
        [[2**70], [0]],
        np.array([[2**63], [0]], dtype=np.uint64),
    ):
        with pytest.raises(UnsupportedPolytopeError):
            LatticePolytope(bad)
        with pytest.raises(UnsupportedPolytopeError):
            ExponentSet(bad)
    whole = ExponentSet(np.array([[1.0, -2.0], [2.0**62, 0.0]]))
    assert whole.points.dtype == np.int64
    assert whole.points.tolist() == [[1, -2], [2**62, 0]]


# --- Delzant ----------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_delzant_cubes(m):
    verdict = delzant_check(cube(m, "centered"))
    assert verdict.is_delzant
    assert verdict.failures == ()


def test_delzant_triangle_failure():
    triangle = LatticePolytope(np.array([[0, 0], [1, 0], [0, 2]]))
    verdict = delzant_check(triangle)
    assert not verdict.is_delzant
    assert len(verdict.failures) == 1
    failure = verdict.failures[0]
    assert failure.vertex == (1, 0)
    assert failure.determinant == -2
    assert "determinant -2" in failure.reason


def test_delzant_standard_simplex():
    simplex = LatticePolytope(np.array([[0, 0], [1, 0], [0, 1]]))
    assert delzant_check(simplex).is_delzant


def test_delzant_3d_simplex():
    simplex = LatticePolytope(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert delzant_check(simplex).is_delzant
    fat = LatticePolytope(np.array([[0, 0, 0], [2, 0, 0], [0, 3, 0], [0, 0, 1]]))
    verdict = delzant_check(fat)
    assert not verdict.is_delzant


def test_delzant_reuses_construction_facets(monkeypatch):
    # The facets that reject redundant vertices at construction are the
    # ones delzant_check reads its edges from; they are found once.
    calls = []
    facets = toric._facets
    monkeypatch.setattr(toric, "_facets", lambda v: calls.append(v) or facets(v))
    octahedron = LatticePolytope(np.vstack([np.eye(3, dtype=int), -np.eye(3, dtype=int)]))
    assert not delzant_check(octahedron).is_delzant
    assert len(calls) == 1


def test_delzant_rejects_low_dimensional():
    segment = LatticePolytope(np.array([[0, 0], [1, 1]]))
    with pytest.raises(UnsupportedPolytopeError):
        delzant_check(segment)


def test_delzant_rejects_high_dimensional_non_box():
    vertices = [[0, 0, 0, 0]]
    vertices += list(np.eye(4, dtype=int))
    with pytest.raises(UnsupportedPolytopeError):
        delzant_check(LatticePolytope(np.array(vertices)))


def test_large_coordinates_vertex_beyond_an_edge_is_kept():
    # (s + 1, s) lies just outside the edge x + y = 2s; a float LP calls it
    # redundant.
    s = 2**30
    polytope = LatticePolytope(np.array([[0, 0], [2 * s, 0], [0, 2 * s], [s + 1, s]]))
    assert polytope.num_vertices == 4


def test_large_coordinates_edge_midpoint_is_redundant():
    s = 2**50
    with pytest.raises(RedundantVertexError, match=f"vertex \\({s}, {s}\\)"):
        LatticePolytope(np.array([[0, 0], [2 * s, 0], [0, 2 * s], [s, s]]))


def test_large_triangle_is_delzant():
    # Side products reach 2^66, past int64.
    s = 2**33
    triangle = LatticePolytope(np.array([[0, 0], [s, 0], [0, s]]))
    assert delzant_check(triangle) == DelzantVerdict(True, ())


def test_thin_triangle_is_delzant():
    triangle = LatticePolytope(np.array([[0, 0], [2**31, 1], [1, 0]]))
    assert delzant_check(triangle) == DelzantVerdict(True, ())


def test_runs_without_scipy():
    script = Path(__file__).with_name("no_scipy_check.py")
    result = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=child_env()
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "no-scipy check passed\n"


# --- the parent's polytope code, as oracles -----------------------------------


def _lp_redundant(vertices):
    """Index of the first vertex that an LP finds in the hull of the others, or None."""
    k = len(vertices)
    if k <= 2:
        return None
    for i in range(k):
        others = np.delete(vertices, i, axis=0)
        a_eq = np.vstack([others.T.astype(float), np.ones(k - 1)])
        b_eq = np.append(vertices[i].astype(float), 1.0)
        result = linprog(
            np.zeros(k - 1), A_eq=a_eq, b_eq=b_eq, bounds=[(0, None)] * (k - 1),
            method="highs",
        )
        if result.status == 0:
            return i
    return None


def _itertools_is_box(vertices):
    lows, highs = vertices.min(axis=0), vertices.max(axis=0)
    corners = set(itertools.product(*[(int(lo), int(hi)) for lo, hi in zip(lows, highs)]))
    return corners == set(map(tuple, vertices.tolist()))


def _polygon_edges(vertices):
    # A pair is an edge exactly when the remaining vertices lie strictly on
    # one side of its supporting line.
    edges = []
    for i, j in itertools.combinations(range(len(vertices)), 2):
        d = vertices[j] - vertices[i]
        sides = (vertices - vertices[i]) @ np.array([-d[1], d[0]])
        others = np.delete(sides, [i, j])
        if others.size == 0 or np.all(others > 0) or np.all(others < 0):
            edges.append((i, j))
    return edges


def _facet_vertex_sets_3d(vertices):
    facets = {}
    for i, j, l in itertools.combinations(range(len(vertices)), 3):
        normal = np.cross(vertices[j] - vertices[i], vertices[l] - vertices[i])
        if not normal.any():
            continue
        offsets = vertices @ normal
        level = offsets[i]
        if np.all(offsets >= level):
            normal, offsets, level = -normal, -offsets, -level
        elif not np.all(offsets <= level):
            continue
        prim = tuple(normal // np.gcd.reduce(np.abs(normal)))
        facets[prim, int(np.dot(prim, vertices[i]))] = frozenset(np.flatnonzero(offsets == level))
    return list(facets.values())


def _polyhedron_edges(vertices):
    # An edge of a 3-polytope is exactly a vertex pair shared by two facets.
    facets = _facet_vertex_sets_3d(vertices)
    return [
        (i, j) for i, j in itertools.combinations(range(len(vertices)), 2)
        if sum(1 for facet in facets if i in facet and j in facet) >= 2
    ]


def _oracle_polytope(vertices):
    """The parent's constructor verdict: None when accepted, else (type, message)."""
    if len(set(map(tuple, vertices.tolist()))) != len(vertices):
        return RedundantVertexError, "duplicate vertices"
    if not _itertools_is_box(vertices):
        i = _lp_redundant(vertices)
        if i is not None:
            vertex = tuple(int(c) for c in vertices[i])
            return RedundantVertexError, f"vertex {vertex} lies in the hull of the others"
    return None


def _oracle_delzant(vertices):
    """The parent's Delzant check, a verdict or (type, message)."""
    n = vertices.shape[1]
    rank = np.linalg.matrix_rank((vertices - vertices[0]).astype(float))
    if rank != n:
        message = f"polytope spans dimension {rank}, expected full dimension {n}"
        return UnsupportedPolytopeError, message
    if _itertools_is_box(vertices):
        return DelzantVerdict(True, ())
    neighbors = defaultdict(list)
    for i, j in _polygon_edges(vertices) if n == 2 else _polyhedron_edges(vertices):
        neighbors[i].append(j)
        neighbors[j].append(i)
    failures = []
    for idx in range(len(vertices)):
        around = neighbors.get(idx, [])
        vertex = tuple(int(c) for c in vertices[idx])
        if len(around) != n:
            reason = f"{len(around)} edges meet this vertex, expected {n}"
            failures.append(DelzantFailure(vertex, reason))
            continue
        steps = [vertices[j] - vertices[idx] for j in around]
        directions = np.array([d // np.gcd.reduce(np.abs(d)) for d in steps])
        det = round(np.linalg.det(directions.T.astype(float)))  # exact at these sizes
        if abs(det) != 1:
            reason = f"primitive edge directions are not a Z-basis (determinant {det})"
            failures.append(DelzantFailure(vertex, reason, determinant=det))
    return DelzantVerdict(not failures, tuple(failures))


def _outcome(build, *args):
    try:
        return build(*args)
    except (RedundantVertexError, UnsupportedPolytopeError) as exc:
        return type(exc), str(exc)


# Delzant polygons and polytopes; their images under unimodular maps stay
# Delzant, and under other maps mostly fail, or flatten.
_DELZANT_SHAPES = [
    [[0, 0], [1, 0], [0, 1]],
    [[0, 0], [2, 0], [1, 1], [0, 1]],
    [[0, 0], [2, 0], [2, 1], [1, 2], [0, 2]],
    [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2], [2, 2, 0], [2, 0, 2], [0, 2, 2],
     [1, 2, 2], [2, 1, 2], [2, 2, 1]],
]


def _vectors(n, bound):
    return st.tuples(*[st.integers(-bound, bound)] * n)


@st.composite
def small_point_sets(draw):
    """Distinct integer points in dimension 1-3 with |c| <= 8.

    A third of the sets are random points; a third are a base point plus
    small combinations of up to n direction vectors, so collinear and
    coplanar subsets, and flat sets, are common; a third are the images of
    a Delzant shape under a small integer matrix.
    """
    kind = draw(st.sampled_from(["free", "combinations", "image"]))
    if kind == "image":
        shape = draw(st.sampled_from(_DELZANT_SHAPES))
        n = len(shape[0])
        matrix = np.array(draw(st.lists(_vectors(n, 1), min_size=n, max_size=n)))
        rows = np.array(draw(st.permutations(shape))) @ matrix + draw(_vectors(n, 1))
    else:
        n = draw(st.integers(1, 3))
        k = draw(st.integers(1, 8))
        if kind == "free":
            return np.array(draw(st.lists(_vectors(n, 8), min_size=k, max_size=k, unique=True)))
        rank = draw(st.integers(0, n))
        directions = draw(st.lists(_vectors(n, 1), min_size=rank, max_size=rank))
        directions = np.array(directions, dtype=np.int64).reshape(rank, n)
        weights = draw(st.lists(_vectors(rank, 2), min_size=k, max_size=k, unique=True))
        weights = np.array(weights, dtype=np.int64).reshape(k, rank)
        rows = np.array(draw(_vectors(n, 2))) + weights @ directions
    _, first = np.unique(rows, axis=0, return_index=True)
    return rows[np.sort(first)]


@settings(max_examples=400, deadline=None)
@given(small_point_sets())
def test_facets_match_lp_and_edge_enumeration_oracles(vertices):
    expected = _oracle_polytope(vertices)
    got = _outcome(LatticePolytope, vertices)
    if expected is not None:
        assert got == expected
        return
    assert isinstance(got, LatticePolytope)
    assert (_box_intervals_of(got.vertices) is None) == (not _itertools_is_box(vertices))
    assert _outcome(delzant_check, got) == _oracle_delzant(vertices)


@pytest.mark.parametrize("m", range(1, 9))
def test_cube_points_and_fan_match_itertools(m):
    for variant, (low, high) in (("centered", (-1, 1)), ("unit", (0, 1))):
        polytope = cube(m, variant)
        vertices = [list(v) for v in itertools.product((low, high), repeat=m)]
        assert polytope.vertices.tolist() == vertices
        points = lattice_points(polytope).points.tolist()
        assert points == [list(p) for p in itertools.product(range(low, high + 1), repeat=m)]
    expected = {
        pattern: tuple(
            tuple(sign if axis == i else 0 for axis in range(m))
            for i, sign in enumerate(pattern)
            if sign != 0
        )
        for pattern in itertools.product((-1, 0, 1), repeat=m)
    }
    fan = normal_fan_box(cube(m))
    assert fan == Fan(m)
    assert fan.cone_count == len(expected)
    assert [(p, cone.generators) for p, cone in fan.cones.items()] == list(expected.items())
    maximal = [gens for pattern, gens in sorted(expected.items()) if 0 not in pattern]
    assert [cone.generators for cone in fan.maximal_cones()] == maximal


# --- normal fans -------------------------------------------------------------


def test_fan_interval():
    fan = normal_fan_box(cube(1, "centered"))
    assert fan.cone_count == 3
    assert fan.cones[(0,)].generators == ()
    assert fan.cones[(1,)].generators == ((1,),)
    assert fan.cones[(-1,)].generators == ((-1,),)


def test_fan_square():
    fan = normal_fan_box(cube(2, "centered"))
    assert fan.cone_count == 9
    sizes = sorted(cone.ndim for cone in fan.cones.values())
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_fan_counts_and_unimodularity(m):
    fan = normal_fan_box(cube(m, "centered"))
    assert fan.cone_count == 3**m
    maximal = fan.maximal_cones()
    assert len(maximal) == 2**m
    for cone in maximal:
        det = round(np.linalg.det(np.array(cone.generators, dtype=float).T))
        assert abs(det) == 1


def test_fan_rejects_degenerate_interval():
    flat = LatticePolytope(np.array([[0, 0], [1, 0]]))
    with pytest.raises(DegenerateIntervalError):
        normal_fan_box(flat)


def test_fan_rejects_non_box():
    triangle = LatticePolytope(np.array([[0, 0], [1, 0], [0, 1]]))
    with pytest.raises(UnsupportedPolytopeError):
        normal_fan_box(triangle)


def test_fan_needs_positive_dimension():
    assert Fan(1).cone_count == 3
    for dim in (0, -1):
        with pytest.raises(UnsupportedPolytopeError):
            Fan(dim)


def test_cone_generators_normalized():
    cone = Cone(([1, 0], (0, np.int64(-1))))
    assert cone.generators == ((1, 0), (0, -1))
    assert all(type(c) is int for gen in cone.generators for c in gen)
    assert Cone(()).ndim == 0


@pytest.mark.parametrize(
    "generators",
    [
        ((1, 0), (0, 1, 0)),  # lengths differ
        ((1.0, 0),),  # not integers
        ((1, 0), "ab"),
        (5,),
        ((0, 0),),  # zero vector
        ((2, 0),),  # not primitive
        ((1, 0), [1, 0]),  # repeated
    ],
)
def test_cone_rejects_bad_generators(generators):
    with pytest.raises(UnsupportedPolytopeError):
        Cone(generators)


# --- Segre relations ----------------------------------------------------------


def test_relations_m2():
    relations = segre_relations(2)
    assert len(relations) == 1
    assert str(relations[0]) == "a[00]*a[11] = a[01]*a[10]"
    assert relations[0].lhs == (0, 3)
    assert relations[0].rhs == (1, 2)


def test_relations_m3_contains_complement_swap():
    texts = {str(r) for r in segre_relations(3)}
    assert "a[000]*a[111] = a[001]*a[110]" in texts


@pytest.mark.parametrize("m", [2, 3, 4])
def test_relations_match_enumeration_oracle(m):
    relations = segre_relations(m)
    canonical = {(r.lhs, r.rhs) for r in relations}
    assert canonical == _enumerate_relations_by_hand(m)
    assert len(relations) == RELATION_COUNTS[m] == _count_by_formula(m)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_relation_table_matches_pairwise_enumeration(m):
    table = relation_table(m)
    assert table.shape == (_count_by_formula(m), 5)
    assert table.tolist() == _canonical_relation_rows(m)
    assert [[*r.lhs, *r.rhs, r.swap_axis] for r in segre_relations(m)] == table.tolist()


@pytest.mark.parametrize("m", [9, 10])
def test_relation_table_structure_at_large_m(m):
    # The pairwise oracle stops at m = 8; these are the two largest tables.
    table = relation_table(m)
    assert table.shape == (_count_by_formula(m), 5)
    x, y, u, v, j = table.T.astype(np.int64)
    key = (((x << m | y) << m | u) << m) | v
    assert (np.diff(key) > 0).all()  # strictly sorted
    bit = 1 << (j - 1)
    assert (x < y).all() and (x < u).all()
    assert ((x ^ y) & bit).all()
    assert np.array_equal(u, np.minimum(x ^ bit, y ^ bit))
    assert np.array_equal(v, np.maximum(x ^ bit, y ^ bit))
    # A pair that differs in exactly two bits gives one relation on either
    # axis; the table names the smaller.
    differing = x ^ y
    lowest = differing & -differing
    rest = differing ^ lowest
    two_bits = (rest != 0) & (rest & (rest - 1) == 0)
    assert two_bits.any()
    assert np.array_equal(bit[two_bits], lowest[two_bits])


def test_relation_table_qubit_cap():
    assert len(relation_table(2)) == 1
    for m in (MAX_RELATION_QUBITS + 1, 40):
        with pytest.raises(QubitLimitError):
            relation_table(m)
        with pytest.raises(QubitLimitError):
            segre_relations(m)
    assert issubclass(QubitLimitError, WrongQubitCountError)


def test_relation_objects_qubit_cap(monkeypatch):
    # Refused before the table is built; the error names relation_table,
    # which still lists m = 9 and 10.
    def no_table(m):
        raise AssertionError("the relation table was built")

    monkeypatch.setattr(toric, "relation_table", no_table)
    for m in (9, MAX_RELATION_QUBITS, 40):
        with pytest.raises(QubitLimitError, match="relation_table"):
            segre_relations(m)


def test_relations_sorted_and_deterministic():
    relations = segre_relations(3)
    keys = [(r.lhs, r.rhs) for r in relations]
    assert keys == sorted(keys)
    assert segre_relations(3) == relations


def test_relations_reject_small_m():
    with pytest.raises(WrongQubitCountError):
        segre_relations(1)


def test_relation_swap_axis_consistent():
    for m in (2, 3, 4):
        for r in segre_relations(m):
            bit = 1 << (r.swap_axis - 1)
            x, y = r.lhs
            assert tuple(sorted((x ^ bit, y ^ bit))) == r.rhs


@pytest.mark.bitexact
def test_relation_residual_product_state():
    rng = np.random.default_rng(31)
    state = random_product_state(rng, 3)
    for relation in segre_relations(3):
        assert relation_residual(state, relation) <= 1e-12


@pytest.mark.bitexact
def test_relation_residual_ghz():
    ghz = named_state("ghz3")
    relation = next(
        r for r in segre_relations(3) if str(r) == "a[000]*a[111] = a[001]*a[110]"
    )
    assert abs(relation_residual(ghz, relation) - 0.5) <= 1e-12


@pytest.mark.bitexact
def test_relation_residual_bit_identical_to_vector_division():
    # The residuals come from the state's cached unit vector in Python complex
    # arithmetic; each must equal the numpy scalar expression on the unit
    # vector of unit_vectors to the bit, at every scale, on the first pass
    # over a fresh state (which fills the cache) and on a second pass over the
    # same object. The cache must leave the state as it was.
    rng = np.random.default_rng(35)
    for m in range(2, 9):
        relations = segre_relations(m)
        pairs = [(*r.lhs, *r.rhs) for r in relations]
        amplitudes = random_state(rng, m).amplitudes
        for scale in (1.0, 3e5, 1e200, 1e-200, 1e-310):
            state = MultiQubitState(m, scale * amplitudes)
            snapshot, fields = copy.copy(state), state_to_dict(state)
            a = unit_vectors(state.amplitudes)[0]
            want = [float(abs(a[x] * a[y] - a[u] * a[v])) for x, y, u, v in pairs]
            fresh = [relation_residual(state, r) for r in relations]
            reused = [relation_residual(state, r) for r in relations]
            assert fresh == want and reused == want, (m, scale)
            assert all(type(r) is float for r in fresh)
            assert [f.name for f in dataclasses.fields(state)] == ["num_qubits", "amplitudes"]
            assert state == snapshot and state_to_dict(state) == fields
            assert not state.amplitudes.flags.writeable


@pytest.mark.bitexact
def test_relation_residual_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        relation_residual(named_state("ghz3"), segre_relations(2)[0])


def test_max_residual_golden_values():
    assert abs(max_segre_residual(named_state("bell")) - 0.5) <= 1e-12
    for m in (2, 3, 4):
        assert abs(max_segre_residual(named_state(f"ghz{m}")) - 0.5) <= 1e-12
    assert abs(max_segre_residual(named_state("w3")) - 1 / 3) <= 1e-12


def test_max_residual_scale_invariant():
    rng = np.random.default_rng(32)
    state = random_state(rng, 3)
    scaled = MultiQubitState(3, 7.25 * state.amplitudes)
    assert abs(max_segre_residual(state) - max_segre_residual(scaled)) <= 1e-12


def test_max_residual_random_products():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        assert max_segre_residual(random_product_state(rng, m)) <= 1e-12


def _w_state(m):
    amplitudes = np.zeros(1 << m, dtype=complex)
    amplitudes[[1 << k for k in range(m)]] = 1.0
    return MultiQubitState(m, amplitudes)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_max_residual_matches_relation_enumeration(m):
    # The flattening minors against the enumerated relation set, relation by
    # relation. Several random states, so that the largest minor falls on
    # different flattenings.
    rng = np.random.default_rng(34 + m)
    relations = segre_relations(m)
    states = [random_state(rng, m) for _ in range(4)] + [
        random_product_state(rng, m),
        named_state(f"ghz{m}"),
        _w_state(m),
    ]
    for state in states:
        enumerated = max(relation_residual(state, r) for r in relations)
        assert abs(max_segre_residual(state) - enumerated) <= 1e-15


def _oracle_minor(r0, r1):
    """Largest entry of |d - d.T|, d = outer(r0, r1): every minor of one
    flattening, in strips of 16 rows from the diagonal on, which bounds the
    memory."""
    worst = 0.0
    for i in range(0, len(r0), 16):
        strip = np.multiply.outer(r0[i : i + 16], r1[i:])  # d[i:i+16, i:]
        mirror = np.multiply.outer(r0[i:], r1[i : i + 16]).T  # d.T[i:i+16, i:]
        worst = max(worst, float(np.abs(strip - mirror).max()))
    return worst


def _dense_largest_minor(unit, m):
    """The dense route: every minor of every flattening of one unit vector."""
    worst = 0.0
    for position in range(m):
        rows = unit.reshape(1 << position, 2, -1)
        worst = max(worst, _oracle_minor(rows[:, 0].ravel(), rows[:, 1].ravel()))
    return worst


def _unit(amplitudes):
    amplitudes = np.asarray(amplitudes, dtype=complex)
    return amplitudes / np.linalg.norm(amplitudes)


def _certificate_states(rng, m):
    """One unit vector of each kind that the certificate treats differently.

    From m = 7 the Hadamard bound skips every tile but the heaviest on the
    first four and on a basis state 1e-170 off, whose minors among the noise
    are subnormal, and some tiles on the SL(2, C) images of GHZ and W. On
    products, near products and their SL(2, C) images it rules out none; the
    Pluecker bound skips all but the heaviest few there, and most of the
    rest on the GHZ and W images. A basis state's lower bound is zero, but
    every tile with a zero column is skipped. Uniform and graph states,
    whose columns all weigh the same, form every tile.

    Parity phases put one phase a on the indices of even parity, another b
    on index 3 and 0 on the rest, so every column is (a, 0) or (0, a) but
    one, and Hadamard's bound is tight on every tile. Here |b| rounds below
    |a| while |a b| rounds above |a a|, at m = 8-12 with and without FMA:
    only ``_SLACK`` keeps the tiles of the lighter column.

    The pivot pair is a near product whose column c is almost parallel to
    the pivot p. Its largest minor, |P_cd| = 0.10003 (before scaling), is
    above L = |P_pd| = 0.1, yet the Pluecker bound of its tile is within
    0.08% of L: a bound shrunk by 0.1% skips the tile. At m = 2 it is the
    first half of the three-qubit core.
    """
    size = 1 << m
    noise = lambda: _unit(rng.standard_normal(size) + 1j * rng.standard_normal(size))
    ghz = named_state(f"ghz{m}")
    product = _unit(random_product_state(rng, m).amplitudes)
    moved = apply_local(random_product_state(rng, m), [random_sl2(rng) for _ in range(m)])
    basis = np.zeros(size)
    basis[rng.integers(size)] = 1.0
    scales = np.where(rng.random(size) < 0.5, 1e-200, 1.0)  # products underflow
    path = [bin(x & (x >> 1)).count("1") for x in range(size)]  # path graph state
    even = np.array([bin(x).count("1") % 2 == 0 for x in range(size)])
    phase, odd_one = np.exp(2j * np.pi * np.array([3, 93]) / 100)
    parity = np.where(even, phase, 0).astype(complex)
    parity[3] = odd_one
    # Columns p = (1, 0), c = (0.9999, 8e-4), d = (-0.05, 0.1) and 0 of qubit 0.
    core = [1, 0.9999, -0.05, 0, 0, 8e-4, 0.1, 0]
    return {
        "haar": random_state(rng, m).amplitudes,
        "ghz + noise": ghz.amplitudes + 1e-3 * noise(),
        "w": _w_state(m).amplitudes,
        "mixed scales": scales * noise(),
        "w under sl2": apply_local(_w_state(m), [random_sl2(rng) for _ in range(m)]).amplitudes,
        "ghz under sl2": apply_local(ghz, [random_sl2(rng) for _ in range(m)]).amplitudes,
        "product": product,
        "near product": product + 1e-9 * noise(),
        "product under sl2": moved.amplitudes,
        "1e-15 off a product under sl2": _unit(moved.amplitudes) + 1e-15 * noise(),
        "1e-6 off a product": product + 1e-6 * noise(),
        "uniform": np.ones(size),
        "graph": (-1.0) ** np.array(path),
        "basis": basis,
        "basis + 1e-170": basis + 1e-170 * noise(),
        "parity phases": parity,
        "pivot pair": np.kron(core, np.ones(max(1, size >> 3)))[:size],
    }


@pytest.mark.bitexact
@pytest.mark.parametrize("m", range(2, 13))
def test_largest_minors_bit_identical_to_dense_matrix(m):
    # Every kind of state against the dense oracle, in one batch and one at a
    # time through max_segre_residual. Up to m = 6 each flattening is one
    # tile, formed in one expression; from m = 7 the kernel skips tiles, and
    # the batch mixes rows that skip with rows that form every tile. None
    # may change a single bit of the maximum.
    rng = np.random.default_rng(40 + m)
    states = [MultiQubitState(m, v) for v in _certificate_states(rng, m).values()]
    unit = np.stack([unit_vectors(s.amplitudes)[0] for s in states])
    want = [_dense_largest_minor(row, m) for row in unit]
    assert largest_minors(unit).tolist() == want
    assert [max_segre_residual(s) for s in states] == want
    if m <= 6:
        # 899 rows, the kinds repeated, make blocks of 896, 149, 28, 5 and 1
        # rows at m = 2-6, so each batch up to m = 5 ends in a short block.
        repeat = np.arange(899) % len(unit)
        assert largest_minors(unit[repeat]).tolist() == [want[k] for k in repeat]


def _hidden_maximum(rng, count, m, n, small):
    """(count, m, n) flattening rows whose largest minor lies outside the
    heaviest tile, the _TILE heaviest columns, of every flattening.

    The _TILE heaviest columns, 1.2 (1, 1 + 0.001 e^it), are nearly
    parallel: their minors are below 0.003. Next come two columns
    (1, 1 +- eta), eta near 0.1, whose minor 2 eta is the largest; ``small``
    columns 0.05 (1, -1) make minors near 0.12 with the heaviest ones, and
    the rest weigh a few 1e-4. Every column carries a random phase, and
    each flattening is scaled to unit weight, as a state's are.
    """
    shape = (count, m, n)
    r0 = 1e-4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    r1 = 1e-4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for row, p in itertools.product(range(count), range(m)):
        chosen = rng.choice(n, _TILE + 2 + small, replace=False)
        heavy, pair, rest = chosen[:_TILE], chosen[_TILE : _TILE + 2], chosen[_TILE + 2 :]
        eta = 0.1 * (1 + rng.random())
        r0[row, p, heavy] = 1.2
        r1[row, p, heavy] = 1.2 * (1 + 0.001 * np.exp(2j * np.pi * rng.random(_TILE)))
        r0[row, p, pair] = 1.0
        r1[row, p, pair] = (1 + eta, 1 - eta)
        r0[row, p, rest] = 0.05
        r1[row, p, rest] = -0.05
    phase = np.exp(2j * np.pi * rng.random(shape))
    scale = np.sqrt((abs(r0) ** 2 + abs(r1) ** 2).sum(axis=2, keepdims=True))
    return r0 * phase / scale, r1 * phase / scale


def _tiles_formed(monkeypatch, r0, r1):
    """The kernel's result on (r0, r1), and how many flattening tiles it
    formed: one product per diagonal tile and two per other tile, each
    counted once per flattening."""
    multiply, formed = np.multiply, []

    def counting(*args, out):
        formed.append(len(out))
        return multiply(*args, out=out)

    with monkeypatch.context() as patch:
        patch.setattr(np, "multiply", counting)
        worst = toric._tiled_largest_minors(r0, r1)
    return worst.tolist(), sum(formed)


@pytest.mark.bitexact
def test_largest_minors_finds_maxima_outside_the_heaviest_tile(monkeypatch):
    # The lower bound from the heaviest tile is below a fiftieth of the
    # answer, so the answer comes from the tiles the bound keeps: those of
    # the pair and of the small columns, but not those of the light rest.
    # The 21 flattenings form three pieces of seven. Several of the maxima
    # change their last bit when a product is formed with r1 first.
    rng = np.random.default_rng(53)
    count, m, n = 7, 3, 512
    r0, r1 = _hidden_maximum(rng, count, m, n, small=45)
    want, top = [], []
    for a0, a1 in zip(r0, r1):
        want.append(max(_oracle_minor(f0, f1) for f0, f1 in zip(a0, a1)))
        heaviest = [np.argsort(abs(f0) ** 2 + abs(f1) ** 2)[-_TILE:] for f0, f1 in zip(a0, a1)]
        top.append(max(_oracle_minor(f0[h], f1[h]) for f0, f1, h in zip(a0, a1, heaviest)))
    assert all(50 * t < w for t, w in zip(top, want))
    got, formed = _tiles_formed(monkeypatch, r0, r1)
    assert got == want
    assert count * m < formed < count * m * (n // _TILE) ** 2 // 4


@pytest.mark.bitexact
def test_largest_minors_skips_tiles(monkeypatch):
    # Every bit-identity test also passes a kernel that never skips a tile.
    # The kernel must form fewer than the (n / _TILE)^2 tile products of
    # each flattening, and from m = 10 only a few: by the Hadamard bound on
    # states far from the Segre variety and on a basis state 1e-160 off,
    # whose minors among the noise are subnormal; by the zero columns on an
    # exact basis state, whose lower bound is zero; and by the Pluecker
    # bound on exact products and products 1e-9 off, where the Hadamard
    # bound rules out no tile. At m = 7, the smallest m with more than one
    # tile, the first four form only the heaviest tile. m = 7 draws last,
    # so that m = 10 and 12 keep the states their limits were set on.
    rng = np.random.default_rng(57)
    for m, per_product in ((10, 40), (12, 40), (7, 3)):
        size = 1 << m
        noise = _unit(rng.standard_normal(size) + 1j * rng.standard_normal(size))
        basis = np.zeros(size)
        basis[rng.integers(size)] = 1.0
        product = _unit(random_product_state(rng, m).amplitudes)
        columns = toric._flattening_columns(m)
        for state, limit in (
            (random_state(rng, m).amplitudes, m),
            (named_state(f"ghz{m}").amplitudes + 1e-3 * noise, m),
            (basis + 1e-160 * noise, m),
            (basis, m),
            (product, per_product * m),
            (product + 1e-9 * noise, per_product * m),
        ):
            unit = _unit(state)
            r0, r1 = unit[None].take(columns[0], axis=1), unit[None].take(columns[1], axis=1)
            got, formed = _tiles_formed(monkeypatch, r0, r1)
            assert got == [_dense_largest_minor(unit, m)]
            assert formed <= limit < m * (r0.shape[2] // _TILE) ** 2


def _pluecker_bound(r0, r1):
    """The pairwise Pluecker bound of every minor of one flattening, with
    the kernel's K, and its computed |minors|.

    The minor of columns c and d is bounded by the computed pivot minors of
    the heaviest column p: (|P_pd| n_c + |P_pc| n_d) / n_p (1 + slack) plus
    K n_c n_d, the kernel's tile bound taken at single columns. The kernel
    compares that bound with L / (1 + _SLACK); the relative slack of 2^-40
    here is the part of _SLACK that the bound's own rounding may take.
    """
    slack = 2.0**-40
    norms = np.hypot(abs(r0), abs(r1))
    p = norms.argmax()
    pivot = abs(r0 * r1[p] - r0[p] * r1)  # minor (c, p), r0 first in each product
    d = np.multiply.outer(r0, r1)
    minors = abs(d - d.T)
    main = (np.multiply.outer(pivot, norms) + np.multiply.outer(norms, pivot)) / norms[p]
    bound = main * (1 + slack) + toric._MINOR_ERROR * np.multiply.outer(norms, norms)
    return minors, bound


@pytest.mark.bitexact
@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=6, max_value=10),
    offset=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-6]),
    transform=st.sampled_from([None, "sl2", "sparse", "scaled"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_largest_minors_pluecker_bound_holds_per_minor(m, offset, transform, seed):
    # The rounding term K of the Pluecker bound must cover every computed
    # minor on exact and near products, where it is the whole bound: under
    # SL(2, C) on every qubit, thinned to a tenth of the amplitudes, or
    # with half of them scaled by 1e-200, so that products underflow.
    rng = np.random.default_rng(seed)
    state = random_product_state(rng, m)
    if transform == "sl2":
        state = apply_local(state, [random_sl2(rng) for _ in range(m)])
    amplitudes = _unit(state.amplitudes)
    amplitudes += offset * _unit(rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m))
    if transform == "sparse":
        keep = rng.random(1 << m) < 0.1
        keep[abs(amplitudes).argmax()] = True
        amplitudes = np.where(keep, amplitudes, 0)
    elif transform == "scaled":
        amplitudes = np.where(rng.random(1 << m) < 0.5, 1e-200, 1.0) * amplitudes
    unit = _unit(amplitudes)
    for position in range(m):
        rows = unit.reshape(1 << position, 2, -1)
        minors, bound = _pluecker_bound(rows[:, 0].ravel(), rows[:, 1].ravel())
        assert (minors <= bound).all()


def _scaled(x):
    """The float x times 2^1074, which is an integer for every finite float."""
    p, q = float(x).as_integer_ratio()
    return p * ((1 << 1074) // q)


@pytest.mark.bitexact
@pytest.mark.parametrize("m", range(2, 7))
def test_largest_minors_rounding_within_the_minor_error_premise(m):
    # The premise of _MINOR_ERROR: each |minor| formed as the kernel forms
    # it, r0 first in each product, is within e n_c n_d of the exact one,
    # e = (sqrt(5) + 3) u. Floats are dyadic, so after scaling by 2^1074 the
    # exact minor and norms are Python integers, which share no code with
    # numpy. Underflow errs by an absolute amount instead, which is _TINY's
    # case, so no kind here has entries far below the others. The largest
    # errors seen are 0.72, 1.58, 1.62, 2.75 and 3.02u at m = 2-6.
    rng = np.random.default_rng(70 + m)
    product = random_product_state(rng, m)
    noise = _unit(rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m))
    kinds = [
        random_state(rng, m).amplitudes,
        product.amplitudes,
        _unit(product.amplitudes) + 1e-9 * noise,
        apply_local(product, [random_sl2(rng) for _ in range(m)]).amplitudes,
        named_state(f"ghz{m}").amplitudes + 1e-3 * noise,
    ]
    bits = 100  # of the square roots below, far finer than u
    e = (math.sqrt(5) + 3) * 2.0**-53
    for unit in unit_vectors(np.stack(kinds))[0]:
        for position in range(m):
            rows = unit.reshape(1 << position, 2, -1)
            r0, r1 = rows[:, 0].ravel(), rows[:, 1].ravel()
            d = np.multiply.outer(r0, r1)
            computed = abs(d - d.T)
            x0 = [(_scaled(a.real), _scaled(a.imag)) for a in r0]
            x1 = [(_scaled(a.real), _scaled(a.imag)) for a in r1]
            weight = [p * p + q * q + v * v + w * w for (p, q), (v, w) in zip(x0, x1)]
            for c, k in itertools.combinations(range(len(r0)), 2):
                (a, b), (f, g) = x0[c], x1[k]
                (h, i), (j, l) = x0[k], x1[c]
                re, im = a * f - b * g - (h * j - i * l), a * g + b * f - (h * l + i * j)
                exact = math.isqrt((re * re + im * im) << 2 * bits)
                scale = math.isqrt((weight[c] * weight[k]) << 2 * bits)
                error = abs((_scaled(computed[c, k]) << (1074 + bits)) - exact)
                assert error / scale <= e, (c, k)


@pytest.mark.bitexact
@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=7, max_value=9),
    rows=st.lists(
        st.tuples(
            st.sampled_from(["state", "product"]),
            st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
            st.sampled_from([None, "sparse", "sl2"]),
        ),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_largest_minors_bit_identical_property(m, rows, seed):
    # Random states and products, moved off by noise of any size, thinned
    # to a tenth of their amplitudes or mapped by SL(2, C) on every qubit,
    # in one batch.
    rng = np.random.default_rng(seed)
    batch = []
    for kind, noise, transform in rows:
        state = random_state(rng, m) if kind == "state" else random_product_state(rng, m)
        if transform == "sl2":
            state = apply_local(state, [random_sl2(rng) for _ in range(m)])
        amplitudes = _unit(state.amplitudes)
        amplitudes += noise * _unit(rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m))
        if transform == "sparse":
            keep = rng.random(1 << m) < 0.1
            keep[np.abs(amplitudes).argmax()] = True
            amplitudes = np.where(keep, amplitudes, 0)
        batch.append(_unit(amplitudes))
    unit = np.stack(batch)
    assert largest_minors(unit).tolist() == [_dense_largest_minor(row, m) for row in unit]


@pytest.mark.bitexact
def test_largest_minors_checks_its_shape():
    # Only the shape: rows must also be finite and unit-normalized, which the
    # callers have already checked.
    for width in (8, 1 << 7, 1 << 8):  # one tile, every tile, pruned tiles
        assert largest_minors(np.ones((0, width))).shape == (0,)
    for shape in ((1, 6), (1, 0), (8,), (1, 2, 4)):
        with pytest.raises(LengthMismatchError):
            largest_minors(np.ones(shape))
    for width in (1, 2):
        with pytest.raises(WrongQubitCountError):
            largest_minors(np.ones((1, width)))
    with pytest.raises(QubitLimitError):
        largest_minors(np.ones((1, 1 << 13)))


# --- beta balance --------------------------------------------------------------


def test_beta_balance_m2_relation():
    exps = unit_cube_exponents(2)
    assert verify_beta_balance(segre_relations(2)[0], exps)


def test_beta_balance_fabricated_relation_fails():
    fabricated = BinomialRelation(2, (0, 1), (2, 3), 1)
    assert not verify_beta_balance(fabricated, unit_cube_exponents(2))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_beta_balance_all_generated(m):
    exps = unit_cube_exponents(m)
    for relation in segre_relations(m):
        assert verify_beta_balance(relation, exps)


def test_beta_balance_index_out_of_range():
    relation = BinomialRelation(3, (0, 7), (1, 6), 1)
    with pytest.raises(IndexOutOfRangeError):
        verify_beta_balance(relation, unit_cube_exponents(2))


def test_relation_constructor_validation():
    with pytest.raises(IndexOutOfRangeError):
        BinomialRelation(2, (0, 3), (0, 3), 1)  # trivial
    with pytest.raises(IndexOutOfRangeError):
        BinomialRelation(2, (3, 0), (1, 2), 1)  # unsorted
    with pytest.raises(IndexOutOfRangeError):
        BinomialRelation(2, (0, 4), (1, 2), 1)  # out of range
    with pytest.raises(IndexOutOfRangeError):
        BinomialRelation(2, (0, 3), (1, 2), 5)  # bad axis
