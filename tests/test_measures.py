import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtoric import (
    G,
    J,
    LengthMismatchError,
    MultiQubitState,
    OddQubitCountError,
    WrongQubitCountError,
    bilinear_g,
    check_tau4_identities,
    concurrence,
    four_qubit_vectors,
    inner_product,
    invariant_H,
    invariant_I1,
    m_tangle,
    make_state,
    named_state,
    spin_flip,
    tau4_epsilon_oracle,
    three_tangle,
)
from qtoric.states import unit_vectors
from helpers import (
    apply_local,
    random_product_state,
    random_sl2,
    random_state,
    random_unitary,
)

SQ2 = 2**-0.5


# --- spin flip -----------------------------------------------------------------


def test_spin_flip_bell_is_minus_bell():
    bell = named_state("bell")
    assert np.allclose(spin_flip(bell).amplitudes, -bell.amplitudes)


def test_spin_flip_twice_is_identity_up_to_sign_for_even_m():
    rng = np.random.default_rng(41)
    for _ in range(100):
        m = int(rng.choice([2, 4]))
        s = random_state(rng, m)
        twice = spin_flip(spin_flip(s))
        assert abs(abs(inner_product(s, twice)) - 1) <= 1e-12


def test_spin_flip_preserves_norm():
    rng = np.random.default_rng(42)
    for _ in range(50):
        s = random_state(rng, int(rng.integers(1, 5)))
        assert abs(spin_flip(s).norm - s.norm) <= 1e-15


def test_spin_flip_componentwise():
    # one qubit: flip of (a, b) is (-i conj(b), i conj(a))
    s = make_state(1, [1, 2j], normalize=False)
    assert np.allclose(spin_flip(s).amplitudes, [-1j * (-2j), 1j * 1])


# --- concurrence and m-tangle ----------------------------------------------------


def test_concurrence_bell():
    assert abs(concurrence(named_state("bell")) - 1) <= 1e-12


def test_concurrence_product():
    s = make_state(2, [1, 0, 0, 0])
    assert concurrence(s) <= 1e-15


def test_concurrence_interpolation():
    theta = math.pi / 8
    s = make_state(2, [math.cos(theta), 0, 0, math.sin(theta)])
    assert abs(concurrence(s) - 0.5) <= 1e-12
    for theta in np.linspace(0, math.pi / 2, 7):
        s = make_state(2, [math.cos(theta), 0, 0, math.sin(theta)])
        assert abs(concurrence(s) - math.sin(2 * theta) ** 2) <= 1e-12


def test_concurrence_wrong_count():
    with pytest.raises(WrongQubitCountError):
        concurrence(named_state("ghz3"))


def test_m_tangle_ghz4():
    assert abs(m_tangle(named_state("ghz4")) - 1) <= 1e-12


def test_m_tangle_matches_concurrence_at_two_qubits():
    rng = np.random.default_rng(43)
    for _ in range(20):
        s = random_state(rng, 2)
        assert m_tangle(s) == concurrence(s)


def test_m_tangle_products_vanish():
    rng = np.random.default_rng(44)
    for _ in range(200):
        assert m_tangle(random_product_state(rng, 4)) <= 1e-12


def test_m_tangle_odd_rejected():
    with pytest.raises(OddQubitCountError):
        m_tangle(named_state("ghz3"))


# --- three tangle ------------------------------------------------------------------


def test_three_tangle_ghz():
    assert abs(three_tangle(named_state("ghz3")) - 1) <= 1e-12


def test_three_tangle_w_state():
    assert three_tangle(named_state("w3")) <= 1e-12


def test_three_tangle_products_vanish():
    rng = np.random.default_rng(45)
    for _ in range(500):
        assert three_tangle(random_product_state(rng, 3)) <= 1e-10


def test_three_tangle_ghz_w_superposition():
    # cos(t) GHZ + sin(t) W: tangle must stay within [0, 1] and reach both ends
    ghz = named_state("ghz3").amplitudes
    w = named_state("w3").amplitudes
    for t in np.linspace(0, math.pi / 2, 9):
        s = make_state(3, math.cos(t) * ghz + math.sin(t) * w)
        assert -1e-12 <= three_tangle(s) <= 1 + 1e-9


def test_three_tangle_wrong_count():
    with pytest.raises(WrongQubitCountError):
        three_tangle(named_state("bell"))


def _hyperdet3_terms(a):
    # The 12-term expansion of Cayley's hyperdeterminant: squares of the four
    # complementary pair products, the six products of two distinct pairs,
    # and the two odd/even four-cycles.
    a0, a1, a2, a3, a4, a5, a6, a7 = a
    d1 = a0**2 * a7**2 + a1**2 * a6**2 + a2**2 * a5**2 + a4**2 * a3**2
    d2 = (
        a0 * a7 * a1 * a6
        + a0 * a7 * a2 * a5
        + a0 * a7 * a4 * a3
        + a1 * a6 * a2 * a5
        + a1 * a6 * a4 * a3
        + a2 * a5 * a4 * a3
    )
    d4 = a0 * a6 * a5 * a3 + a7 * a1 * a2 * a4
    return d1 - 2 * d2 + 4 * d4


@settings(max_examples=100, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(["state", "product", "ghz3", "w3"]), min_size=1, max_size=4),
    transform=st.sampled_from([None, "sl2"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hyperdet3_matches_term_expansion(kinds, transform, seed):
    # The factorized discriminant against the expansion, on unit vectors of
    # random states, products and the GHZ and W states, as drawn or under a
    # random SL(2, C) map on every qubit; one vector and a batch of rows.
    from qtoric.measures import _hyperdet3

    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        if kind == "state":
            state = random_state(rng, 3)
        elif kind == "product":
            state = random_product_state(rng, 3)
        else:
            state = named_state(kind)
        if transform == "sl2":
            state = apply_local(state, [random_sl2(rng) for _ in range(3)])
        rows.append(state.normalized().amplitudes)
    batch = _hyperdet3(np.stack(rows))
    for row, got in zip(rows, batch):
        want = _hyperdet3_terms(row)
        assert abs(_hyperdet3(row) - want) <= 1e-15
        assert abs(got - want) <= 1e-15


# --- four-qubit invariants ------------------------------------------------------------


def test_invariant_h_ghz4():
    assert abs(invariant_H(named_state("ghz4")) - 0.5) <= 1e-15


def test_invariant_h_single_term_sign():
    amps = np.zeros(16)
    amps[7] = amps[8] = SQ2
    s = make_state(4, amps)
    assert abs(invariant_H(s) - (-0.5)) <= 1e-15


def test_invariant_h_products_vanish():
    rng = np.random.default_rng(46)
    for _ in range(200):
        s = random_product_state(rng, 4).normalized()
        assert abs(invariant_H(s)) <= 1e-12


def test_bilinear_g_matrix_entries():
    basis = np.eye(4)
    for alpha in range(4):
        for beta in range(4):
            assert bilinear_g(basis[alpha], basis[beta]) == G[alpha, beta]
    assert bilinear_g(basis[0], basis[3]) == 1
    assert bilinear_g(basis[1], basis[2]) == -1
    assert bilinear_g(np.ones(4), np.ones(4)) == 0


def test_bilinear_g_length_check():
    with pytest.raises(LengthMismatchError):
        bilinear_g(np.ones(3), np.ones(4))


def test_j_properties():
    assert np.array_equal(J @ J, -np.eye(2, dtype=int))
    assert np.array_equal(G, np.kron(J, J))
    assert np.array_equal(np.abs(G).sum(axis=1), np.ones(4, dtype=int))


def test_four_qubit_vectors_reassemble():
    rng = np.random.default_rng(47)
    s = random_state(rng, 4)
    blocks = four_qubit_vectors(s)
    assert np.array_equal(np.concatenate(blocks), s.amplitudes)


def test_i1_is_half_h():
    rng = np.random.default_rng(48)
    for _ in range(1000):
        s = random_state(rng, 4)
        h = invariant_H(s)
        i1 = invariant_I1(s)
        assert abs(i1 - h / 2) <= 1e-13 * max(1.0, abs(h))


def test_i1_ghz4():
    assert abs(invariant_I1(named_state("ghz4")) - 0.25) <= 1e-15


def test_pairing_identity_inner_product_vs_h():
    rng = np.random.default_rng(49)
    for _ in range(200):
        s = random_state(rng, 4)
        lhs = inner_product(s, spin_flip(s))
        assert abs(lhs - 2 * np.conj(invariant_H(s))) <= 1e-12


# --- one sign vector and one product array ---------------------------------------------


def _popcount_signs(m):
    return np.array([(-1.0) ** x.bit_count() for x in range(1 << m)])


def _awkward_rows(rng, count, size):
    """Gaussian rows, cycled with rows that have zeroed entries, -0.0 parts,
    no imaginary part, a scale of 1e-150, or a single nonzero entry."""
    rows = rng.standard_normal((count, size)) + 1j * rng.standard_normal((count, size))
    for i, row in enumerate(rows):
        kind = i % 6
        if kind == 1:
            row[rng.random(size) < 0.5] = 0
        elif kind == 2:
            row[rng.random(size) < 0.5] = complex(-0.0, -0.0)
            row.imag[rng.random(size) < 0.3] = -0.0
            row.real[rng.random(size) < 0.3] = -0.0
        elif kind == 3:
            row.imag[:] = 0.0 if i % 12 < 6 else -0.0
        elif kind == 4:
            row *= 1e-150
        elif kind == 5:
            row[np.arange(size) != rng.integers(size)] = 0
        if not row.any():  # a state needs one nonzero amplitude
            row[rng.integers(size)] = 1.0
    return rows


@pytest.mark.bitexact
def test_parity_vector_is_the_popcount_sign():
    from qtoric.measures import _PARITY

    assert not _PARITY.flags.writeable
    for m in range(1, 13):
        signs = _popcount_signs(m)
        assert _PARITY[: 1 << m].tobytes() == signs.tobytes()
        assert (((-1j) ** m) * _PARITY[: 1 << m]).tobytes() == (((-1j) ** m) * signs).tobytes()


@pytest.mark.bitexact
@pytest.mark.parametrize("m", range(2, 13, 2))
def test_m_tangle_rows_drop_the_phase_exactly(m):
    # The kernel leaves out the spin flip's phase (-i)^m, which the route
    # written out here keeps: a factor of +-1 or +-i moves no bit of |<s|~s>|^2.
    from qtoric.measures import _m_tangle_rows

    rng = np.random.default_rng(80 + m)
    unit = unit_vectors(_awkward_rows(rng, 60 if m < 10 else 12, 1 << m))[0]
    flipped = ((-1j) ** m) * _popcount_signs(m) * np.conj(unit[..., ::-1])
    want = np.abs(np.add.reduce(np.conj(unit) * flipped, axis=-1)) ** 2
    assert _m_tangle_rows(unit).tobytes() == want.tobytes()
    for row, value in zip(unit, want):
        assert _m_tangle_rows(row[None]).tobytes() == value.tobytes()


def _i1_by_blocks(a):
    # (g(A, D) - g(B, C)) / 2, the pairing g written out on columns.
    def g(u, v):
        u0, u1, u2, u3 = u.T
        v0, v1, v2, v3 = v.T
        return u0 * v3 - u1 * v2 - u2 * v1 + u3 * v0

    return 0.5 * (g(a[..., 0:4], a[..., 12:16]) - g(a[..., 4:8], a[..., 8:12]))


@pytest.mark.bitexact
def test_h_and_i1_read_the_complement_products_exactly():
    # H and I1 from the one product array against each sum written out,
    # raw and on unit vectors, in a batch and one row at a time.
    from qtoric.measures import _h_sum, _i1_rows

    signs = np.array([1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0])
    rng = np.random.default_rng(86)
    raw = _awkward_rows(rng, 600, 16)
    for rows in (raw, unit_vectors(raw)[0]):
        want_h = np.add.reduce(signs * rows[..., :8] * rows[..., :7:-1], axis=-1)
        want_i1 = _i1_by_blocks(rows)
        assert _h_sum(rows).tobytes() == want_h.tobytes()
        assert _i1_rows(rows).tobytes() == want_i1.tobytes()
        for row, h, i1 in zip(rows[:, None], want_h, want_i1):
            assert _h_sum(row).tobytes() == h.tobytes()
            assert _i1_rows(row).tobytes() == i1.tobytes()


@pytest.mark.bitexact
def test_invariant_i1_is_the_block_route_exactly():
    rng = np.random.default_rng(87)
    for row in _awkward_rows(rng, 300, 16):
        s = MultiQubitState(4, row)
        blocks = four_qubit_vectors(s)
        want = 0.5 * (bilinear_g(blocks.a, blocks.d) - bilinear_g(blocks.b, blocks.c))
        assert np.array(invariant_I1(s)).tobytes() == np.array(want).tobytes()


# --- epsilon contraction ----------------------------------------------------------------


def test_tau4_epsilon_ghz4():
    assert abs(tau4_epsilon_oracle(named_state("ghz4")) - 1) <= 1e-12


def test_tau4_epsilon_products_vanish():
    rng = np.random.default_rng(50)
    for _ in range(200):
        assert tau4_epsilon_oracle(random_product_state(rng, 4)) <= 1e-10


def test_tau4_epsilon_equals_4_h_squared():
    rng = np.random.default_rng(51)
    checked = 0
    while checked < 100:
        s = random_state(rng, 4)
        h = invariant_H(s)
        if abs(h) <= 1e-3:
            continue
        tau = tau4_epsilon_oracle(s)
        assert abs(tau - 4 * abs(h) ** 2) <= 1e-10 * tau
        checked += 1


def test_tau4_contraction_is_twice_h_squared():
    # the raw contraction equals 2 H^2 as a complex number, not just in modulus
    from qtoric.measures import _tau4_contraction

    rng = np.random.default_rng(57)
    checked = 0
    while checked < 100:
        s = random_state(rng, 4)
        h = invariant_H(s)
        if abs(h) <= 1e-3:
            continue
        ratio = _tau4_contraction(s.amplitudes) / h**2
        assert abs(ratio - 2) <= 1e-10
        checked += 1


def test_tau4_contraction_matches_dense_sum():
    # Reference: the 16^4 coefficient table summed term by term. The
    # coefficient of a_k a_l a_m a_n is eps on the three high bits of (k, l)
    # and of (m, n), times eps on the low bits of (k, m) and of (l, n).
    from qtoric.measures import _tau4_contraction

    high = np.kron(np.kron(np.kron(J, J), J), np.ones((2, 2)))
    low = np.kron(np.ones((8, 8)), J)
    table = (
        high[:, :, None, None] * high[None, None, :, :]
        * low[:, None, :, None] * low[None, :, None, :]
    )
    rng = np.random.default_rng(59)
    for _ in range(20):
        a = random_state(rng, 4).amplitudes
        dense = np.einsum("klmn,k,l,m,n->", table, a, a, a, a)
        assert abs(_tau4_contraction(a) - dense) <= 1e-15


@pytest.mark.bitexact
def test_tau4_contraction_rows_keep_their_bits():
    # Each row of a batch is summed in the order of the same vector alone.
    from qtoric.measures import _tau4_contraction

    rng = np.random.default_rng(61)
    for count in (1, 2, 5, 64):
        states = [random_state(rng, 4) for _ in range(count - count // 4)]
        states += [random_product_state(rng, 4) for _ in range(count // 4)]
        rows = np.stack([s.amplitudes for s in states])
        batch = _tau4_contraction(rows)
        assert batch.shape == (count,)
        assert batch.tolist() == [complex(_tau4_contraction(row)) for row in rows]


def test_tau4_epsilon_bit_stable():
    rng = np.random.default_rng(58)
    s = random_state(rng, 4)
    assert tau4_epsilon_oracle(s) == tau4_epsilon_oracle(s)


def test_tau4_identity_report_ghz4():
    report = check_tau4_identities(named_state("ghz4"))
    assert abs(report.tau4_spinflip - 1) <= 1e-12
    assert abs(report.tau4_epsilon - 1) <= 1e-12
    assert abs(report.four_abs_h_sq - 1) <= 1e-12
    assert abs(report.abs_h_sq - 0.25) <= 1e-12
    assert abs(report.h_sq_factor - 4) <= 1e-9
    assert "factor 4" in report.note


def test_tau4_identity_report_ratios_random():
    rng = np.random.default_rng(52)
    checked = 0
    while checked < 50:
        s = random_state(rng, 4)
        if abs(invariant_H(s)) <= 1e-3:
            continue
        report = check_tau4_identities(s)
        assert abs(report.ratios["tau4_spinflip/four_abs_h_sq"] - 1) <= 1e-10
        assert abs(report.ratios["four_abs_i1_sq/abs_h_sq"] - 1) <= 1e-10
        assert abs(report.h_sq_factor - 4) <= 1e-8
        checked += 1


def test_tau4_report_nan_ratio_on_vanishing_h():
    report = check_tau4_identities(make_state(4, np.eye(16)[0]))
    assert math.isnan(report.h_sq_factor)


# --- invariance properties ---------------------------------------------------------------


def _relative_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def test_local_unitary_invariance():
    rng = np.random.default_rng(53)
    bases = [
        (2, named_state("bell"), concurrence),
        (3, named_state("ghz3"), three_tangle),
        (4, named_state("ghz4"), m_tangle),
        (4, named_state("ghz4"), lambda s: abs(invariant_H(s.normalized()))),
    ]
    for m, state, measure in bases:
        reference = measure(state)
        for _ in range(100):
            mats = [random_unitary(rng) for _ in range(m)]
            assert _relative_close(measure(apply_local(state, mats)), reference, 1e-9)


def test_local_unitary_invariance_random_states():
    rng = np.random.default_rng(54)
    for m, measure in ((2, concurrence), (3, three_tangle)):
        state = random_state(rng, m)
        reference = measure(state)
        for _ in range(50):
            mats = [random_unitary(rng) for _ in range(m)]
            value = measure(apply_local(state, mats))
            assert abs(value - reference) <= 1e-9 * max(1.0, reference)


def test_sl2_invariance_of_h():
    rng = np.random.default_rng(55)
    state = random_state(rng, 4)
    while abs(invariant_H(state)) < 1e-2:
        state = random_state(rng, 4)
    reference = invariant_H(state)
    for _ in range(100):
        mats = [random_sl2(rng) for _ in range(4)]
        transformed = apply_local(state, mats)
        assert abs(invariant_H(transformed) - reference) <= 1e-8 * abs(reference)


def test_tangle_ranges():
    rng = np.random.default_rng(56)
    for _ in range(100):
        assert 0 <= concurrence(random_state(rng, 2)) <= 1 + 1e-9
        assert 0 <= three_tangle(random_state(rng, 3)) <= 1 + 1e-9
        assert 0 <= m_tangle(random_state(rng, 4)) <= 1 + 1e-9
