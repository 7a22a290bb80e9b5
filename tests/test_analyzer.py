import importlib
import math
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qtoric
from qtoric import (
    LengthMismatchError,
    MultiQubitState,
    NonFiniteAmplitudeError,
    QubitFactor,
    QubitLimitError,
    WrongQubitCountError,
    ZeroStateError,
    analyze,
    analyze_many,
    extract_factors,
    make_state,
    named_state,
    segre_embed,
)
from helpers import (
    aligned_distance,
    apply_local,
    random_product_state,
    random_sl2,
    random_state,
    random_unitary,
)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_extract_factors_round_trip(m):
    rng = np.random.default_rng(60 + m)
    for _ in range(1000):
        state = random_product_state(rng, m)
        factors = extract_factors(state, 1e-10)
        assert factors is not None
        assert aligned_distance(segre_embed(factors), state) <= 1e-10


def test_extract_factors_ghz_absent():
    assert extract_factors(named_state("ghz3"), 1e-8) is None


def test_extract_factors_basis_state():
    state = make_state(3, np.eye(8)[0])
    factors = extract_factors(state, 1e-10)
    assert factors is not None
    for factor in factors:
        assert abs(factor.a0 - 1) <= 1e-15
        assert factor.a1 == 0


def test_extract_factors_single_qubit():
    state = make_state(1, [0.6, 0.8])
    factors = extract_factors(state, 1e-10)
    assert factors is not None
    assert aligned_distance(segre_embed(factors), state) <= 1e-12


def test_extract_factors_requires_positive_tol():
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            extract_factors(named_state("bell"), tol)


def test_analyze_bell():
    report = analyze(named_state("bell"))
    assert not report.separable
    assert abs(report.max_residual - 0.5) <= 1e-12
    assert report.factors is None
    assert report.moment_image is None
    assert abs(report.measures["concurrence"] - 1) <= 1e-12


def test_analyze_basis_01():
    state = make_state(2, [0, 1, 0, 0])
    report = analyze(state)
    assert report.separable
    assert report.max_residual <= 1e-14
    assert len(report.factors) == 2
    assert abs(report.factors[0].a0 - 1) <= 1e-15  # |0> on the high qubit
    assert abs(report.factors[1].a1 - 1) <= 1e-15  # |1> on the low qubit
    assert np.array_equal(report.moment_image, [0.0, -0.5])
    assert report.measures["concurrence"] <= 1e-12


def test_analyze_ghz4_measures():
    report = analyze(named_state("ghz4"))
    assert not report.separable
    assert abs(report.measures["m_tangle"] - 1) <= 1e-12
    assert abs(report.measures["H"] - 0.5) <= 1e-12
    assert abs(report.measures["I1"] - 0.25) <= 1e-12
    assert abs(report.measures["tau4_epsilon"] - 1) <= 1e-12


def test_analyze_even_m_beyond_four():
    rng = np.random.default_rng(64)
    report = analyze(random_product_state(rng, 6))
    assert report.separable
    assert report.measures["m_tangle"] <= 1e-10


def test_analyze_odd_m_beyond_three_has_no_measures():
    rng = np.random.default_rng(65)
    report = analyze(random_product_state(rng, 5))
    assert report.separable
    assert report.measures == {}


def test_benchmark_tracer_sees_every_measure(monkeypatch):
    # benchmarks/tracer.py patches the measures where analyze looks them up;
    # a table that held the function objects would hide every call from it.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "benchmarks"))
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()  # resolves every TRACED name
    try:
        tracer.enabled = True
        for name in ("bell", "ghz3", "ghz4", "ghz6", "0110"):
            qtoric.analyze(named_state(name))
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    for name in ("concurrence", "three_tangle", "tau4_identities", "m_tangle", "tau4_epsilon"):
        assert f"measures.{name}" in recorded
    for name in (
        "analyzer.extract_factors",
        "states.segre_embed",
        "moment.moment_product",
        "toric.max_segre_residual",
    ):
        assert name in recorded


@pytest.mark.parametrize("m", [2, 3, 4])
def test_analyze_calls_no_numpy_python_wrappers(m):
    # ndarray.max, .sum, .any and .all and np.sum reach their ufuncs through
    # Python wrappers in numpy's _methods.py and fromnumeric.py, which on
    # small states cost more than the arithmetic; analyze calls the ufunc
    # reductions directly. numpy 2 keeps both files in numpy/_core, and
    # numpy 1 in numpy/core. The states are fresh, so their unit vectors
    # are formed under the profile too.
    rng = np.random.default_rng(95 + m)
    wrapper = re.compile(r"numpy/_?core/(_methods|fromnumeric)\.py$")
    called = []

    def profile(frame, event, arg):
        path = frame.f_code.co_filename.replace(os.sep, "/")
        if event == "call" and wrapper.search(path):
            called.append(f"{path}:{frame.f_code.co_name}")

    entangled = MultiQubitState(m, 3 * random_state(rng, m).amplitudes)
    for state, separable in ((entangled, False), (random_product_state(rng, m), True)):
        sys.setprofile(profile)
        try:
            report = analyze(state)
        finally:
            sys.setprofile(None)
        assert report.separable == separable
        assert called == []


@pytest.mark.parametrize("m", range(2, 10))
def test_analyze_builds_one_state(m, monkeypatch):
    # Every stage starts from the state's cached unit vector, so analyze
    # validates no state: not for an entangled input, and not for a product,
    # whose embedded product segre_embed checks by _invalid_rows alone.
    rng = np.random.default_rng(90 + m)
    validate = MultiQubitState.__post_init__
    built = []

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(MultiQubitState, "__post_init__", counted)
    for state, separable in ((random_state(rng, m), False), (random_product_state(rng, m), True)):
        built.clear()
        assert analyze(state).separable == separable
        assert built == []


def test_reports_factor_only_rows_past_the_residual_gate(monkeypatch):
    # A batch that no row of passes the residual gate, as an entangled file
    # of `qtoric analyze FILE`, runs none of the factor stages.
    calls = []
    for name in ("_pivot_factors", "_images", "_product_amplitudes", "_reconstructs"):
        stage = getattr(qtoric.analyzer, name)
        monkeypatch.setattr(
            qtoric.analyzer, name, lambda *args, _stage=stage: calls.append(_stage) or _stage(*args)
        )
    rng = np.random.default_rng(17)
    for state, count in ((random_state(rng, 3), 0), (random_product_state(rng, 3), 4)):
        calls.clear()
        (report,) = qtoric.analyzer._reports(state._unit[None], 1e-10)
        assert report.separable == bool(count)
        assert len(calls) == count


def test_analyze_rejects_single_qubit():
    with pytest.raises(WrongQubitCountError):
        analyze(make_state(1, [1, 0]))


def test_monotone_measures_vanish_on_separable():
    rng = np.random.default_rng(66)
    for m in (2, 3, 4):
        for _ in range(100):
            report = analyze(random_product_state(rng, m))
            assert report.separable
            for name in ("concurrence", "three_tangle", "m_tangle"):
                if name in report.measures:
                    assert report.measures[name] <= 1e-9


def test_report_fields_consistent():
    rng = np.random.default_rng(67)
    for _ in range(50):
        state = random_state(rng, 3)
        report = analyze(state)
        assert (report.factors is not None) == report.separable
        assert (report.moment_image is not None) == report.separable
        assert (report.max_residual <= report.tolerance) == report.separable


def test_determinism():
    rng = np.random.default_rng(68)
    state = random_state(rng, 3)
    copy = MultiQubitState(3, state.amplitudes.copy())
    assert analyze(state).to_dict() == analyze(copy).to_dict()


def test_tolerance_monotonicity():
    rng = np.random.default_rng(69)
    base = random_product_state(rng, 3).normalized()
    noise = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    perturbed = MultiQubitState(3, base.amplitudes + 3e-9 * noise / np.linalg.norm(noise))
    verdicts = [
        analyze(perturbed, tol).separable
        for tol in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4)
    ]
    # once separable, separable at every larger tolerance
    first = verdicts.index(True) if True in verdicts else len(verdicts)
    assert all(verdicts[first:])
    assert not any(verdicts[:first])


def _flat_numbers(value):
    if isinstance(value, dict):
        return [x for key in sorted(value) for x in _flat_numbers(value[key])]
    if isinstance(value, list):
        return [x for item in value for x in _flat_numbers(item)]
    return [] if value is None else [value]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_analyze_any_scale(m):
    # States are projective: scaling far past the square root of the float
    # range must neither overflow nor underflow the norm.
    rng = np.random.default_rng(70 + m)
    product = random_product_state(rng, m)
    for state in (random_state(rng, m), make_state(m, product.amplitudes)):
        reference = analyze(state).to_dict()
        for scale in (1e300, 1e200, 1e-170, 1e-200, 1e-300):
            report = analyze(MultiQubitState(m, scale * state.amplitudes)).to_dict()
            assert report["separable"] == reference["separable"]
            got, want = _flat_numbers(report), _flat_numbers(reference)
            assert len(got) == len(want)
            assert np.allclose(got, want, rtol=0, atol=1e-15), scale


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_analyze_subnormal_scale(m):
    # Integer entries times 2^-1070 are exact subnormals, so the state is the
    # unscaled one to the bit, and both routes must give the unscaled report.
    rng = np.random.default_rng(80 + m)
    entangled = rng.integers(-8, 9, size=(2, 1 << m)).T @ [1, 1j]
    entangled[0] = 1  # not the zero vector
    pairs = rng.choice([-3, -2, -1, 1, 2, 3], size=(m, 2)) + 0j
    product = segre_embed([QubitFactor(a0, a1) for a0, a1 in pairs]).amplitudes
    for amplitudes in (entangled, product):
        tiny = amplitudes * 2.0**-1070
        assert np.array_equal(tiny * 2.0**535 * 2.0**535, amplitudes)
        want = analyze(MultiQubitState(m, amplitudes)).to_dict()
        assert analyze(MultiQubitState(m, tiny)).to_dict() == want
        assert analyze_many([tiny])[0].to_dict() == analyze_many([amplitudes])[0].to_dict()
    assert want["separable"]
    # Below 2^-1024 numpy's complex division overflows the reciprocal of the norm.
    state = MultiQubitState(2, [1e-310, 0.5e-310j, 0, 0])
    assert math.isfinite(state.norm)
    for report in (analyze(state).to_dict(), analyze_many([state.amplitudes])[0].to_dict()):
        assert report["separable"]
        assert all(math.isfinite(x) for x in _flat_numbers(report))


def test_borderline_flag():
    report = analyze(named_state("bell"), tol=0.051)
    assert report.borderline  # residual 0.5 is within 10x of 0.051
    assert not report.separable
    report = analyze(named_state("bell"), tol=1e-10)
    assert not report.borderline


def test_report_to_dict_schema():
    report = analyze(make_state(2, [0, 1, 0, 0]))
    data = report.to_dict()
    assert set(data) == {
        "qubits", "separable", "max_residual", "factors",
        "moment_image", "measures", "tolerance",
    }
    assert data["qubits"] == 2
    assert data["separable"] is True
    assert isinstance(data["factors"], list)
    assert len(data["factors"]) == 2
    assert all(len(f) == 2 and len(f[0]) == 2 for f in data["factors"])
    assert data["moment_image"] == [0.0, -0.5]
    assert isinstance(data["measures"]["concurrence"], float)

    entangled = analyze(named_state("ghz4")).to_dict()
    assert entangled["factors"] is None
    assert entangled["moment_image"] is None
    assert entangled["measures"]["H"] == [0.4999999999999999, 0.0] or (
        abs(entangled["measures"]["H"][0] - 0.5) < 1e-12
    )


# --- the batch route against the scalar route ---------------------------------
#
# The contract: analyze_many(rows)[i] is analyze(MultiQubitState(m, rows[i])).
# Both normalize the raw row once. A normalized state's amplitudes are its own
# unit vector, so analyze_many of those amplitudes normalizes once more than
# analyze of that state, and may differ from it in the last bits.


def _assert_batch_matches_scalar(rows, tol=qtoric.DEFAULT_TOLERANCE):
    rows = np.stack(rows)
    reports = analyze_many(rows, tol)
    assert len(reports) == len(rows)
    m = rows.shape[1].bit_length() - 1
    for row, report in zip(rows, reports):
        _assert_same_report(report, analyze(MultiQubitState(m, row), tol))
    return reports


def _assert_same_report(got, want):
    # Both routes share every kernel behind the verdict, the factors, the
    # moment image and the measures, so all of them agree to the bit.
    assert got.num_qubits == want.num_qubits
    assert got.separable == want.separable
    assert got.tolerance == want.tolerance
    assert got.max_residual == want.max_residual
    assert got.factors == want.factors
    for factor in (*(got.factors or ()), *(want.factors or ())):
        assert type(factor.a0) is complex and type(factor.a1) is complex
    if want.moment_image is None:
        assert got.moment_image is None
    else:
        assert got.moment_image.tolist() == want.moment_image.tolist()
    assert list(got.measures) == list(want.measures)
    for name, value in want.measures.items():
        assert type(got.measures[name]) is type(value)
        assert got.measures[name] == value, name


@pytest.mark.bitexact
@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=6),
    kinds=st.lists(st.sampled_from(["state", "product"]), min_size=1, max_size=5),
    transform=st.sampled_from([None, "unitary", "sl2"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_analyze_many_matches_analyze(m, kinds, transform, seed):
    # Random states and products, mixed in one batch, as drawn or under a
    # random local unitary or SL(2, C) map on every qubit.
    rng = np.random.default_rng(seed)
    states = []
    for kind in kinds:
        state = random_state(rng, m) if kind == "state" else random_product_state(rng, m)
        if transform == "unitary":
            state = apply_local(state, [random_unitary(rng) for _ in range(m)])
        elif transform == "sl2":
            state = apply_local(state, [random_sl2(rng) for _ in range(m)])
        states.append(state)
    _assert_batch_matches_scalar([s.amplitudes for s in states])


@pytest.mark.bitexact
def test_analyze_many_tau4_epsilon_is_analyze_to_the_bit():
    # Both routes form the epsilon contraction by one kernel and take its
    # modulus by np.abs.
    rng = np.random.default_rng(67)
    states = [random_state(rng, 4) for _ in range(20)]
    states += [random_product_state(rng, 4) for _ in range(5)]
    states += [named_state(name) for name in ("ghz4", "0110")]
    rows = np.stack([s.amplitudes for s in states])
    got = [r.measures["tau4_epsilon"] for r in analyze_many(rows)]
    assert got == [analyze(MultiQubitState(4, row)).measures["tau4_epsilon"] for row in rows]


@pytest.mark.bitexact
@pytest.mark.parametrize("m", [6, 8])
def test_analyze_many_reconstruction_gate(m):
    # A flat product moved off the variety by 1e-7: with the tolerance at
    # twice its residual, the residual gate passes and the reconstruction
    # gate alone rejects it, in both routes.
    rng = np.random.default_rng(80 + m)
    flat = segre_embed([QubitFactor(1, 1)] * m).normalized().amplitudes
    noise = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    near = MultiQubitState(m, flat + 1e-7 * noise / np.linalg.norm(noise))
    tol = 2 * qtoric.max_segre_residual(near)
    states = [random_product_state(rng, m), near, random_state(rng, m)]
    reports = _assert_batch_matches_scalar([s.amplitudes for s in states], tol)
    assert [r.separable for r in reports] == [True, False, False]
    assert reports[1].max_residual <= tol


def test_analyze_many_named_states():
    for names in (["bell", "00", "01"], ["ghz3", "w3", "010"], ["ghz4", "0110"], ["ghz6"]):
        _assert_batch_matches_scalar([named_state(n).amplitudes for n in names], 1e-8)


def test_analyze_many_input_checks():
    rows = np.stack([named_state("bell").amplitudes] * 2)
    assert analyze_many(rows[:0]) == []
    with pytest.raises(LengthMismatchError):
        analyze_many(rows[0])
    for shape in ((2, 6), (1, 0), (1, 2, 4)):
        with pytest.raises(LengthMismatchError):
            analyze_many(np.ones(shape))
    for width in (1, 2):
        with pytest.raises(WrongQubitCountError):
            analyze_many(np.ones((2, width)))
    with pytest.raises(QubitLimitError):
        analyze_many(np.ones((1, 1 << 13)))
    with pytest.raises(NonFiniteAmplitudeError):
        analyze_many(np.where([[True], [False]], np.nan, rows))
    with pytest.raises(ZeroStateError):
        analyze_many(np.where([[True], [False]], 0, rows))
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            analyze_many(rows, tol)
