import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtoric import (
    ProjectivePoint,
    QubitFactor,
    fixed_point_images,
    moment_product,
    moment_projective,
    s1_moment_disk,
)
from qtoric.moment import _images
from helpers import random_factor


def _point(*coords):
    return ProjectivePoint(np.array(coords, dtype=complex))


def test_fixed_point_basis_images():
    assert np.array_equal(moment_projective(_point(1, 0, 0, 0)), [0, 0, 0])
    assert np.array_equal(moment_projective(_point(0, 1, 0, 0)), [-0.5, 0, 0])
    assert np.array_equal(moment_projective(_point(0, 0, 0, 1)), [0, 0, -0.5])


def test_moment_projective_balanced_point():
    assert np.allclose(moment_projective(_point(1, 1)), [-0.25])


def test_moment_projective_scale_invariance_exact():
    p = _point(1, 2, 3j, -1 + 1j)
    base = moment_projective(p)
    for lam in (2, 1j, -3 + 4j):
        scaled = ProjectivePoint(lam * p.coords)
        assert np.array_equal(moment_projective(scaled), base)


def test_moment_projective_scale_invariance_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        coords = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        if abs(lam) < 1e-3:
            continue
        base = moment_projective(ProjectivePoint(coords))
        scaled = moment_projective(ProjectivePoint(lam * coords))
        assert np.max(np.abs(base - scaled)) <= 1e-12


def test_moment_projective_torus_invariance():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        coords = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        base = moment_projective(ProjectivePoint(coords))
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        phases[0] = 1.0
        rotated = moment_projective(ProjectivePoint(phases * coords))
        assert np.max(np.abs(base - rotated)) <= 1e-12


def test_moment_product_fixed_points():
    assert np.array_equal(moment_product([QubitFactor(1, 0), QubitFactor(1, 0)]), [0, 0])
    assert np.array_equal(
        moment_product([QubitFactor(0, 1), QubitFactor(0, 1)]), [-0.5, -0.5]
    )
    assert np.allclose(
        moment_product([QubitFactor(1, 1), QubitFactor(1, 1j)]), [-0.25, -0.25]
    )


def test_moment_never_emits_negative_zero():
    image = moment_product([QubitFactor(1, 0)])
    assert str(image[0]) == "0.0"


@pytest.mark.bitexact
def test_moment_product_matches_projective_per_factor():
    rng = np.random.default_rng(23)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        factors = [random_factor(rng) for _ in range(m)]
        combined = moment_product(factors)
        per_factor = np.concatenate(
            [moment_projective(ProjectivePoint(f.as_array())) for f in factors]
        )
        assert np.array_equal(combined, per_factor)


@pytest.mark.bitexact
def test_moment_maps_whole_finite_range():
    # Integer coordinates times a power of two are exact from the subnormal
    # range to the top of the float range, so every image and every
    # normalized factor must keep the bits it has at scale 1.
    rng = np.random.default_rng(26)
    points = [np.array([1, 1j, 2])]
    points += list(rng.integers(-(2**20), 2**20, size=(10, 4, 2)) @ [1, 1j])
    pairs = rng.integers(1, 2**20, size=(10, 2, 2)) @ [1, 1j]
    want_images = [moment_projective(ProjectivePoint(c)) for c in points]
    want_product = moment_product([QubitFactor(*p) for p in pairs])
    want_units = [QubitFactor(*p).normalized() for p in pairs]
    for k in range(-1070, 1001, 5):
        scale = 2.0**k
        for coords, want in zip(points, want_images):
            assert np.array_equal(moment_projective(ProjectivePoint(scale * coords)), want), k
        factors = [QubitFactor(*(scale * p)) for p in pairs]
        assert np.array_equal(moment_product(factors), want_product), k
        assert [f.normalized() for f in factors] == want_units, k
    assert np.array_equal(want_images[0], [-1 / 12, -1 / 3])


def test_moment_containment_random():
    rng = np.random.default_rng(24)
    for _ in range(1000):
        image = moment_product([random_factor(rng), random_factor(rng)])
        assert np.all((image >= -0.5 - 1e-12) & (image <= 0.0 + 1e-12)), image


_PART = st.floats(-1.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.tuples(_PART, _PART, _PART, _PART), min_size=1, max_size=6),
    st.floats(-310.0, 307.0),
)
def test_images_lie_in_the_box_at_tolerance_zero(factors, exponent):
    # Each coordinate is -w_i/2 / fl(sum of w) with every w_i >= 0, and a
    # rounded sum of non-negative terms is never below one of them: the
    # image lies in [-1/2, 0]^k with no tolerance, which is why qtoric
    # moment prints "inside" as a constant. The product route maps each
    # factor as a point of P^1; the --projective route takes all the
    # coordinates as one point of P^(2k-1).
    scale = 10.0**exponent
    pairs = np.array([[complex(a, b) * scale, complex(c, d) * scale] for a, b, c, d in factors])
    assume(np.all(np.abs(pairs).max(axis=1) > 0))
    for image in (_images(pairs)[:, 0], _images(pairs.reshape(-1))):
        assert np.all((image >= -0.5) & (image <= 0.0)), image


def test_fixed_point_images_table():
    pairs = fixed_point_images(2)
    assert np.array_equal(pairs[0][1], [0.0])
    assert np.array_equal(pairs[1][1], [-0.5])
    pairs = fixed_point_images(3)
    images = np.array([img for _, img in pairs])
    assert np.array_equal(images, [[0, 0], [-0.5, 0], [0, -0.5]])


def test_fixed_point_images_are_simplex_vertices():
    # The images must be exactly the vertex set of the scaled standard
    # simplex, and affinely independent (so each one is a hull vertex).
    for n in range(2, 7):
        images = [tuple(img) for _, img in fixed_point_images(n)]
        expected = {tuple(0.0 for _ in range(n - 1))}
        for k in range(n - 1):
            vertex = [0.0] * (n - 1)
            vertex[k] = -0.5
            expected.add(tuple(vertex))
        assert set(images) == expected
        arr = np.array(images)
        assert np.linalg.matrix_rank(arr[1:] - arr[0]) == n - 1


def test_s1_moment_disk():
    assert s1_moment_disk(np.array([1.0, 0.0])) == 0.0
    assert s1_moment_disk(np.zeros(3)) == 0.5
    assert abs(s1_moment_disk(np.array([1.0, 1.0])) + 0.5) < 1e-15
    rng = np.random.default_rng(25)
    for _ in range(50):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        unit = v / np.linalg.norm(v)
        assert abs(s1_moment_disk(unit)) < 1e-12

