import functools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtoric import (
    MAX_QUBITS,
    DimensionMismatchError,
    EmptyFactorListError,
    LengthMismatchError,
    MultiQubitState,
    NonFiniteAmplitudeError,
    ProjectivePoint,
    QubitFactor,
    QubitLimitError,
    UnknownNameError,
    ZeroStateError,
    analyze,
    analyze_many,
    bits_to_index,
    conjugate_state,
    index_bits,
    inner_product,
    make_state,
    max_segre_residual,
    named_state,
    point_from_dict,
    segre_embed,
    state_from_dict,
    state_to_dict,
)
import qtoric.states
from qtoric.states import unit_vectors
from helpers import random_factor, random_product_state, random_state


def test_make_state_basis():
    s = make_state(1, [1, 0])
    assert np.array_equal(s.amplitudes, [1, 0])


def test_make_state_normalizes_bell():
    s = make_state(2, [1, 0, 0, 1])
    assert np.allclose(s.amplitudes, [2**-0.5, 0, 0, 2**-0.5])
    assert abs(s.norm - 1) < 1e-12


def test_make_state_rejects_zero():
    with pytest.raises(ZeroStateError):
        make_state(1, [0, 0])


def test_make_state_rejects_wrong_length():
    with pytest.raises(LengthMismatchError, match="expected 8 amplitudes, found 7"):
        make_state(3, [1] * 7)


def test_make_state_rejects_nan():
    with pytest.raises(NonFiniteAmplitudeError):
        make_state(1, [np.nan, 1])


def test_amplitudes_read_only():
    s = make_state(1, [1, 0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 5


def test_conjugate_real_fixed_point():
    s = make_state(2, [1, 0, 0, 1])
    assert np.array_equal(conjugate_state(s).amplitudes, s.amplitudes)


def test_conjugate_imaginary():
    s = make_state(1, [1j, 0], normalize=False)
    assert np.array_equal(conjugate_state(s).amplitudes, [-1j, 0])


def test_unit_vectors_whole_finite_range():
    # Scaling by a power of two changes no bit of a unit vector, from the
    # subnormal range to the top of the float range; a batch gives each row
    # the bits it gets alone; the norms scale with the vectors.
    rng = np.random.default_rng(23)
    rows = rng.integers(-(2**20), 2**20, size=(3, 16, 2)) @ [1, 1j]
    unit, norms = unit_vectors(rows)
    assert np.allclose(unit, rows / np.linalg.norm(rows, axis=1, keepdims=True), rtol=0, atol=1e-15)
    for k in (-1050, -600, 600, 1000):
        scaled_unit, scaled_norms = unit_vectors(rows * 2.0**k)
        assert np.array_equal(scaled_unit, unit), k
        assert np.allclose(scaled_norms / 2.0**k, norms, rtol=1e-12, atol=0), k
    for row, want, norm in zip(rows, unit, norms):
        single_unit, single_norm = unit_vectors(row)
        assert np.array_equal(single_unit, want) and single_norm == norm
    top_unit, top_norm = unit_vectors(np.full(8, 1.7e308 * (1 + 1j)))
    assert np.array_equal(top_unit, unit_vectors(np.full(8, 1 + 1j))[0]) and top_norm == np.inf


def test_conjugate_involution_preserves_norm():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = random_state(rng, int(rng.integers(1, 5)))
        back = conjugate_state(conjugate_state(s))
        assert np.array_equal(back.amplitudes, s.amplitudes)
        assert conjugate_state(s).norm == s.norm


def test_segre_embed_basis_product():
    s = segre_embed([QubitFactor(1, 0), QubitFactor(1, 0)])
    assert np.array_equal(s.amplitudes, [1, 0, 0, 0])


def test_segre_embed_uniform_product():
    h = 2**-0.5
    s = segre_embed([QubitFactor(h, h), QubitFactor(h, h)])
    assert np.allclose(s.amplitudes, [0.5] * 4)


def test_segre_embed_ket_order():
    # factors (|0>, |1>) must give |01>, amplitude at index 1
    s = segre_embed([QubitFactor(1, 0), QubitFactor(0, 1)])
    assert np.array_equal(s.amplitudes, [0, 1, 0, 0])


def test_segre_embed_empty():
    with pytest.raises(EmptyFactorListError):
        segre_embed([])


def test_segre_embed_bit_identical_to_kron():
    # The broadcast product multiplies the same numbers in the same order as
    # the Kronecker product reduced from the first factor.
    rng = np.random.default_rng(12)
    for m in range(1, 10):
        factors = [random_factor(rng) for _ in range(m)]
        expected = functools.reduce(np.kron, (f.as_array() for f in factors))
        assert np.array_equal(segre_embed(factors).amplitudes, expected)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_segre_embed_lands_on_variety(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(1000):
        assert max_segre_residual(random_product_state(rng, m)) <= 1e-12


def test_segre_embed_scaling_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        factors = [random_factor(rng) for _ in range(m)]
        j = int(rng.integers(m))
        lam = complex(rng.standard_normal(), rng.standard_normal())
        if abs(lam) < 1e-3:
            continue
        scaled = list(factors)
        scaled[j] = QubitFactor(lam * factors[j].a0, lam * factors[j].a1)
        a = lam * segre_embed(factors).amplitudes
        b = segre_embed(scaled).amplitudes
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))


def test_inner_product_basics():
    zero = make_state(1, [1, 0])
    one = make_state(1, [0, 1])
    bell = named_state("bell")
    assert inner_product(zero, zero) == 1
    assert inner_product(zero, one) == 0
    assert abs(inner_product(bell, bell) - 1) < 1e-15


def test_inner_product_conjugates_left():
    a = make_state(1, [1j, 0], normalize=False)
    b = make_state(1, [1, 0], normalize=False)
    assert inner_product(a, b) == -1j


def test_inner_product_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner_product(make_state(1, [1, 0]), named_state("bell"))


def test_named_states():
    ghz3 = named_state("ghz3")
    expected = np.zeros(8)
    expected[[0, 7]] = 2**-0.5
    assert np.allclose(ghz3.amplitudes, expected)

    w3 = named_state("w3")
    expected = np.zeros(8)
    expected[[1, 2, 4]] = 3**-0.5
    assert np.allclose(w3.amplitudes, expected)

    assert np.array_equal(named_state("bell").amplitudes, named_state("ghz2").amplitudes)

    assert np.array_equal(named_state("01").amplitudes, [0, 1, 0, 0])
    assert np.array_equal(named_state("0").amplitudes, [1, 0])


def test_named_state_unknown():
    with pytest.raises(UnknownNameError):
        named_state("nope")
    with pytest.raises(UnknownNameError):
        named_state("ghz1")
    with pytest.raises(QubitLimitError):
        named_state("0" * (MAX_QUBITS + 1))


def test_qubit_cap_checked_before_allocation():
    # Each check must come before the amplitudes are read or allocated: the
    # amplitudes below are not even parseable, and 2^40 of them would not fit.
    too_many = MAX_QUBITS + 1
    with pytest.raises(QubitLimitError, match=f"limited to {MAX_QUBITS} qubits"):
        MultiQubitState(too_many, None)
    with pytest.raises(QubitLimitError):
        state_from_dict({"qubits": too_many, "amplitudes": "not parsed"})
    with pytest.raises(QubitLimitError):
        named_state("ghz40")
    assert named_state(f"ghz{MAX_QUBITS}").amplitudes.size == 1 << MAX_QUBITS


def test_segre_embed_checks_qubit_cap_before_product(monkeypatch):
    # 2^13 amplitudes would fit, but the product of 40 factors would not: the
    # cap must be checked before the product is formed.
    calls = []
    product = qtoric.states._product_amplitudes
    monkeypatch.setattr(
        qtoric.states, "_product_amplitudes", lambda f: calls.append(f.shape) or product(f)
    )
    with pytest.raises(QubitLimitError, match=f"limited to {MAX_QUBITS} qubits"):
        segre_embed([QubitFactor(1, 0)] * (MAX_QUBITS + 1))
    assert calls == []
    assert segre_embed([QubitFactor(1, 0)] * MAX_QUBITS).amplitudes[0] == 1 and len(calls) == 1


def test_states_are_normalized_once(monkeypatch):
    # A normalized state's amplitudes are the raw state's unit vector and its
    # own, so every reader validates once, normalizing again changes no bit,
    # and a state read normalized is analyzed as its raw row is.
    validate = MultiQubitState.__post_init__
    built = []

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(MultiQubitState, "__post_init__", counted)
    rng = np.random.default_rng(14)
    raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    data = {"qubits": 3, "amplitudes": [[a.real, a.imag] for a in raw.tolist()]}
    for read in (lambda: state_from_dict(data), lambda: make_state(3, raw), lambda: named_state("w3")):
        built.clear()
        state = read()
        assert len(built) == 1
        again = state.normalized()
        assert again.amplitudes.tobytes() == state.amplitudes.tobytes() and len(built) == 1
        assert not again.amplitudes.flags.writeable
    for m in range(2, 7):
        for kind in range(6):
            if kind % 2:
                row = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
            else:
                row = random_product_state(rng, m).amplitudes
            row = row * (1.0, 1e200, 1e-200)[kind // 2]
            got, want = analyze(make_state(m, row)), analyze_many([row])[0]
            assert got.separable == want.separable and got.max_residual == want.max_residual
            assert got.factors == want.factors
            if want.moment_image is None:
                assert got.moment_image is None
            else:
                assert got.moment_image.tolist() == want.moment_image.tolist()


@given(st.integers(min_value=1, max_value=10), st.data())
def test_index_bits_round_trip(m, data):
    x = data.draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    bits = index_bits(x, m)
    assert len(bits) == m
    assert bits_to_index(bits) == x
    # explicit positional reconstruction, MSB first
    assert x == sum(b << (m - 1 - p) for p, b in enumerate(bits))


def test_state_json_round_trip():
    rng = np.random.default_rng(5)
    s = random_state(rng, 3)
    again = state_from_dict(state_to_dict(s))
    assert np.allclose(again.amplitudes, s.amplitudes, atol=1e-15)


def test_state_json_normalize_flag():
    data = {"qubits": 1, "amplitudes": [[2.0, 0.0], [0.0, 0.0]], "normalize": False}
    assert state_from_dict(data).norm == 2.0
    data["normalize"] = True
    assert abs(state_from_dict(data).norm - 1.0) < 1e-12


def test_state_json_schema_errors():
    from qtoric import SchemaError

    with pytest.raises(SchemaError, match="qubits"):
        state_from_dict({"amplitudes": []})
    with pytest.raises(SchemaError, match="amplitudes\\[1\\]"):
        state_from_dict({"qubits": 1, "amplitudes": [[1, 0], [1]]})
    with pytest.raises(LengthMismatchError, match="expected 8 amplitudes, found 7"):
        state_from_dict({"qubits": 3, "amplitudes": [[1.0, 0.0]] * 7})


def test_point_from_dict():
    p = point_from_dict({"coords": [[1.0, 0.0], [0.0, 1.0]]})
    assert np.array_equal(p.coords, [1, 1j])


def test_states_and_points_compare_by_value():
    # Equal qubit counts and amplitude values, from different arrays, with
    # -0.0 against 0.0, give equal objects and equal hashes; the cached unit
    # vector is no part of either. A rescaled state is a different object.
    amplitudes = np.array([1, -0.0, 0.5j, complex(0.0, -0.0)])
    a = MultiQubitState(2, amplitudes)
    b = MultiQubitState(2, np.array([1, 0, 0.5j, 0]))
    assert a.norm > 0 and a._unit_list  # fills the caches of one side only
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert {b: "state"}[a] == "state"
    assert a != MultiQubitState(2, 2 * amplitudes) and a != a.normalized()
    assert a != MultiQubitState(3, np.eye(8)[0]) and a != amplitudes.tolist()
    assert MultiQubitState(1, [1, 0]) != ProjectivePoint([1, 0])
    p, q = ProjectivePoint([1, -0.0, 2j]), ProjectivePoint(np.array([1, 0, 2j]))
    assert p == q and hash(p) == hash(q) and p != ProjectivePoint([1, 0]) and p != ProjectivePoint([2, 0, 4j])


def test_qubit_factor_rejects_zero():
    with pytest.raises(ZeroStateError):
        QubitFactor(0, 0)
