"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s -v`` to see the lines.
"""

import json
import math

import numpy as np

from qtoric import (
    LatticePolytope,
    QubitFactor,
    concurrence,
    cube,
    delzant_check,
    extract_factors,
    fixed_point_images,
    inner_product,
    invariant_H,
    invariant_I1,
    lattice_points,
    m_tangle,
    max_segre_residual,
    moment_product,
    named_state,
    normal_fan_box,
    segre_relations,
    spin_flip,
    state_to_dict,
    tau4_epsilon_oracle,
    three_tangle,
    unit_cube_exponents,
    verify_beta_balance,
)
from helpers import (
    apply_local,
    random_factor,
    random_product_state,
    random_sl2,
    random_state,
    random_unitary,
)
from test_cli import REPORT_SCHEMA, STATE_SCHEMA, run_cli

import jsonschema
import pytest


def _finish(number: int, label: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    print(f"ACCEPTANCE {number}: {label}: {'PASS' if ok else 'FAIL'}")
    failed = [name for name, passed in checks if not passed]
    assert ok, f"criterion {number} failed checks: {failed}"


def test_criterion_1_fixed_point_table():
    checks = []
    for n in range(2, 7):
        images = [image for _, image in fixed_point_images(n)]
        expected = [np.zeros(n - 1)]
        for k in range(n - 1):
            row = np.zeros(n - 1)
            row[k] = -0.5
            expected.append(row)
        worst = max(np.max(np.abs(a - b)) for a, b in zip(images, expected))
        checks.append((f"n={n} table error {worst}", worst <= 1e-15))
    _finish(1, "fixed-point table", checks)


def test_criterion_2_moment_containment():
    rng = np.random.default_rng(2024)
    worst_outside = 0.0
    worst_phase = 0.0
    for _ in range(2000):
        for m in range(1, 6):
            factors = [random_factor(rng) for _ in range(m)]
            image = moment_product(factors)
            if np.any((image < -0.5 - 1e-12) | (image > 0.0 + 1e-12)):
                worst_outside = max(
                    worst_outside, float(np.max(np.maximum(-0.5 - image, image)))
                )
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(m, 2)))
            rotated = [
                QubitFactor(p[0] * f.a0, p[1] * f.a1) for p, f in zip(phases, factors)
            ]
            worst_phase = max(
                worst_phase, float(np.max(np.abs(moment_product(rotated) - image)))
            )
    checks = [
        ("10000 images inside [-1/2, 0]^m at 1e-12", worst_outside == 0.0),
        (f"phase invariance {worst_phase}", worst_phase <= 1e-12),
    ]
    _finish(2, "moment containment and phase invariance", checks)


def test_criterion_3_segre_soundness_completeness():
    from helpers import aligned_distance
    from qtoric import segre_embed

    checks = []
    rng = np.random.default_rng(303)
    for m in (2, 3):
        worst_residual = 0.0
        worst_round_trip = 0.0
        extraction_failures = 0
        for _ in range(500):
            state = random_product_state(rng, m)
            worst_residual = max(worst_residual, max_segre_residual(state))
            factors = extract_factors(state, 1e-10)
            if factors is None:
                extraction_failures += 1
            else:
                worst_round_trip = max(
                    worst_round_trip, aligned_distance(segre_embed(factors), state)
                )
        checks.append((f"m={m} product residual {worst_residual}", worst_residual <= 1e-12))
        checks.append((f"m={m} extraction always succeeds", extraction_failures == 0))
        checks.append((f"m={m} round trip {worst_round_trip}", worst_round_trip <= 1e-10))

        smallest_generic = math.inf
        spurious_extractions = 0
        for _ in range(500):
            state = random_state(rng, m)
            smallest_generic = min(smallest_generic, max_segre_residual(state))
            if extract_factors(state, 1e-10) is not None:
                spurious_extractions += 1
        checks.append((f"m={m} generic residual {smallest_generic}", smallest_generic > 1e-3))
        checks.append((f"m={m} no generic extraction", spurious_extractions == 0))

    ghz_res = max_segre_residual(named_state("ghz3"))
    w_res = max_segre_residual(named_state("w3"))
    checks.append((f"ghz residual {ghz_res}", abs(ghz_res - 0.5) <= 1e-12))
    checks.append((f"w residual {w_res}", abs(w_res - 1 / 3) <= 1e-12))
    _finish(3, "Segre soundness and completeness", checks)


def test_criterion_4_golden_tangles():
    checks = [
        ("concurrence(bell) = 1", abs(concurrence(named_state("bell")) - 1) <= 1e-12),
        ("three_tangle(ghz3) = 1", abs(three_tangle(named_state("ghz3")) - 1) <= 1e-12),
        ("three_tangle(w3) = 0", three_tangle(named_state("w3")) <= 1e-12),
        ("m_tangle(ghz4) = 1", abs(m_tangle(named_state("ghz4")) - 1) <= 1e-12),
    ]
    rng = np.random.default_rng(404)
    measures = {2: concurrence, 3: three_tangle, 4: m_tangle}
    for m, measure in measures.items():
        worst = max(measure(random_product_state(rng, m)) for _ in range(500))
        checks.append((f"m={m} tangle on products {worst}", worst <= 1e-10))
    _finish(4, "golden tangles", checks)


def test_criterion_5_invariant_identities():
    rng = np.random.default_rng(505)
    worst_i1 = 0.0
    worst_pairing = 0.0
    worst_tau_eps = 0.0
    worst_tau_flip = 0.0
    gated = 0
    for _ in range(1000):
        state = random_state(rng, 4)
        h = invariant_H(state)
        i1 = invariant_I1(state)
        worst_i1 = max(worst_i1, abs(i1 - h / 2) / abs(h / 2))
        worst_pairing = max(
            worst_pairing, abs(inner_product(state, spin_flip(state)) - 2 * np.conj(h))
        )
        if abs(h) > 1e-3:
            gated += 1
            reference = 4 * abs(h) ** 2
            worst_tau_eps = max(
                worst_tau_eps, abs(tau4_epsilon_oracle(state) - reference) / reference
            )
            worst_tau_flip = max(
                worst_tau_flip, abs(m_tangle(state) - reference) / reference
            )
    from qtoric import check_tau4_identities

    report = check_tau4_identities(named_state("ghz4"))
    checks = [
        (f"I1 = H/2 relative {worst_i1}", worst_i1 <= 1e-13),
        (f"<s|~s> = 2 conj(H) {worst_pairing}", worst_pairing <= 1e-12),
        (f"tau4_epsilon = 4|H|^2 relative {worst_tau_eps} ({gated} states)", worst_tau_eps <= 1e-10),
        (f"m_tangle = 4|H|^2 relative {worst_tau_flip}", worst_tau_flip <= 1e-10),
        ("report flags the constant-4 discrepancy", abs(report.h_sq_factor - 4) <= 1e-9
         and "factor 4" in report.note),
    ]
    _finish(5, "four-qubit invariant identities", checks)


def test_criterion_6_invariance_suite():
    rng = np.random.default_rng(606)
    checks = []

    targets = [
        ("concurrence", named_state("bell"), 2, concurrence),
        ("three_tangle", named_state("ghz3"), 3, three_tangle),
        ("|H|", named_state("ghz4"), 4, lambda s: abs(invariant_H(s.normalized()))),
    ]
    for name, state, m, measure in targets:
        reference = measure(state)
        worst = 0.0
        for _ in range(100):
            mats = [random_unitary(rng) for _ in range(m)]
            worst = max(worst, abs(measure(apply_local(state, mats)) - reference))
        checks.append((f"{name} LU drift {worst}", worst <= 1e-9 * reference))

    state = random_state(rng, 4)
    while abs(invariant_H(state)) < 1e-2:
        state = random_state(rng, 4)
    reference = invariant_H(state)
    worst = 0.0
    for _ in range(100):
        mats = [random_sl2(rng) for _ in range(4)]
        worst = max(worst, abs(invariant_H(apply_local(state, mats)) - reference))
    checks.append((f"H SL(2,C) drift {worst}", worst <= 1e-8 * abs(reference)))
    _finish(6, "invariance suite", checks)


def test_criterion_7_polytope_suite():
    checks = []
    for m in range(1, 5):
        checks.append((f"cube({m}) delzant", delzant_check(cube(m, "centered")).is_delzant))
        checks.append((f"3^{m} centered points", lattice_points(cube(m, "centered")).k == 3**m))
        checks.append((f"2^{m} unit points", lattice_points(cube(m, "unit")).k == 2**m))
        fan = normal_fan_box(cube(m, "centered"))
        maximal = fan.maximal_cones()
        unimodular = all(
            abs(round(np.linalg.det(np.array(c.generators, dtype=float).T))) == 1
            for c in maximal
        )
        checks.append((f"fan({m}) 3^m cones", fan.cone_count == 3**m))
        checks.append((f"fan({m}) 2^m maximal unimodular", len(maximal) == 2**m and unimodular))

    triangle = delzant_check(LatticePolytope(np.array([[0, 0], [1, 0], [0, 2]])))
    checks.append(("triangle not delzant", not triangle.is_delzant))
    checks.append((
        "triangle reports determinant -2 at (1, 0)",
        any(f.vertex == (1, 0) and f.determinant == -2 for f in triangle.failures),
    ))

    for m in (2, 3, 4):
        exps = unit_cube_exponents(m)
        balanced = all(verify_beta_balance(r, exps) for r in segre_relations(m))
        checks.append((f"m={m} relations beta-balanced", balanced))
    _finish(7, "polytope suite", checks)


def test_criterion_8_cli_contract(tmp_path):
    checks = []

    bell_path = tmp_path / "bell.json"
    bell_path.write_text(json.dumps(state_to_dict(named_state("bell"))))
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps({"qubits": 3, "amplitudes": [[1.0, 0.0]] * 7}))
    point_path = tmp_path / "point.json"
    point_path.write_text(json.dumps({"coords": [[1.0, 0.0], [1.0, 0.0]]}))
    factors_path = tmp_path / "factors.json"
    factors_path.write_text(
        json.dumps({"factors": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})
    )
    state_path = tmp_path / "state.json"

    r = run_cli("analyze", "--state", "ghz3")
    checks.append(("analyze ghz3", r.returncode == 0 and "separable: false" in r.stdout
                   and "three_tangle = 1" in r.stdout))

    r = run_cli("analyze", str(bell_path), "--format", "json")
    try:
        report = json.loads(r.stdout)
        jsonschema.validate(report, REPORT_SCHEMA)
        ok = r.returncode == 0 and abs(report["measures"]["concurrence"] - 1) < 1e-12
    except Exception:
        ok = False
    checks.append(("analyze bell.json --format json", ok))

    r = run_cli("analyze", str(broken_path))
    checks.append(("analyze broken.json exits 2",
                   r.returncode == 2 and "expected 8 amplitudes, found 7" in r.stderr))

    r = run_cli("segre", "-m", "2", "--list")
    checks.append(("segre -m 2 --list",
                   r.returncode == 0 and r.stdout == "a[00]*a[11] = a[01]*a[10]\n"))

    r = run_cli("segre", "--state", "ghz3")
    checks.append(("segre --state ghz3",
                   r.returncode == 0 and "max residual = 0.5" in r.stdout))

    r = run_cli("segre", "-m", "1", "--list")
    checks.append(("segre -m 1 --list exits 1", r.returncode == 1))

    r = run_cli("moment", "--state", "01")
    checks.append(("moment --state 01", r.returncode == 0
                   and "moment image: (0, -0.5)" in r.stdout
                   and "inside [-1/2, 0]^2: true" in r.stdout))

    r = run_cli("moment", str(bell_path))
    checks.append(("moment bell.json exits 3", r.returncode == 3
                   and "state is not a product; moment map undefined" in r.stderr))

    r = run_cli("moment", "--projective", str(point_path))
    checks.append(("moment --projective", r.returncode == 0
                   and "moment image: (-0.25)" in r.stdout))

    r = run_cli("invariants", "--state", "ghz4")
    checks.append(("invariants ghz4", r.returncode == 0
                   and "H = 0.5" in r.stdout and "I1 = 0.25" in r.stdout
                   and "tau4_spinflip = 1" in r.stdout and "tau4_epsilon = 1" in r.stdout))

    r = run_cli("polytope", "cube", "-m", "3", "--delzant", "--lattice-points")
    checks.append(("polytope cube -m 3", r.returncode == 0
                   and "delzant: true" in r.stdout and "lattice points: 27" in r.stdout))

    r = run_cli("embed", str(factors_path), "-o", str(state_path))
    ok = r.returncode == 0
    if ok:
        try:
            jsonschema.validate(json.loads(state_path.read_text()), STATE_SCHEMA)
        except Exception:
            ok = False
    checks.append(("embed writes a valid state file", ok))

    r = run_cli("analyze", str(state_path), "--format", "json")
    try:
        report = json.loads(r.stdout)
        jsonschema.validate(report, REPORT_SCHEMA)
        ok = r.returncode == 0 and report["separable"] is True
    except Exception:
        ok = False
    checks.append(("embed -> analyze round trip separable", ok))

    _finish(8, "CLI contract", checks)
