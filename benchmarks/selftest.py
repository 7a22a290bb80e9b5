"""Shows that the reference checks reject wrong outputs.

Each benchmark run feeds the checks mutated copies of its own outputs: a
report with its verdict flipped, a report with one measure off by 1e-6 and a
relation table missing one row. A workload that makes no reports (or no
tables) uses a 4-qubit fixture built here instead. Every mutation must be
rejected, and the unmutated output must pass.

Run on its own, the self-test also checks the relation-count formula against
a brute-force enumeration for m = 2 to 8, and mutates real CLI output::

    python3 benchmarks/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import gen
import reference

MEASURE_NUDGE = 1e-6


def fixture_report() -> tuple[reference.Expected, dict]:
    """A correct report for a fixed entangled 4-qubit state, from the reference."""
    rng = np.random.default_rng(gen.FIXED_SEED)
    case = gen.Case("fixture.json", 4, gen.entangled(rng, 4, "w"), "w")
    exp = reference.expected(case)
    h = np.sqrt(exp.tangle / 4.0)
    report = {
        "qubits": 4,
        "separable": False,
        "max_residual": exp.max_residual,
        "factors": None,
        "moment_image": None,
        "measures": {
            "tau4_spinflip": exp.tangle,
            "tau4_epsilon": exp.tangle,
            "H": [h, 0.0],
            "I1": [h / 2, 0.0],
        },
    }
    return exp, report


def fixture_table() -> tuple[int, list, list, np.ndarray]:
    """A correct relation table for the same state, from the brute-force enumeration."""
    exp, _ = fixture_report()
    quads = [[*lhs, *rhs] for lhs, rhs in sorted(reference.enumerate_relations(4))]
    psi = exp.psi
    residuals = [abs(psi[x] * psi[y] - psi[u] * psi[v]) for x, y, u, v in quads]
    return 4, quads, residuals, psi


def _nudged(report: dict) -> dict:
    out = copy.deepcopy(report)
    name = next(iter(out["measures"]))
    value = out["measures"][name]
    if isinstance(value, list):  # a complex measure as [re, im]
        out["measures"][name] = [value[0] + MEASURE_NUDGE, value[1]]
    else:
        out["measures"][name] = value + MEASURE_NUDGE
    return out


def mutations_missed(sample_report=None, sample_table=None) -> list[str]:
    """Names of the mutations the checks accept; empty when all are caught."""
    exp, report = sample_report or fixture_report()
    m, quads, residuals, psi = sample_table or fixture_table()
    missed = []
    if reference.check_report(exp, report):
        missed.append("self-test: the unmutated report is rejected")
    flipped = copy.deepcopy(report)
    flipped["separable"] = not flipped["separable"]
    if not reference.check_report(exp, flipped):
        missed.append("self-test: a report with a flipped verdict passes")
    if not reference.check_report(exp, _nudged(report)):
        missed.append(f"self-test: a measure off by {MEASURE_NUDGE:g} passes")
    if reference.check_table(m, quads, residuals, psi):
        missed.append("self-test: the unmutated relation table is rejected")
    if not reference.check_table(m, quads[1:], residuals[1:], psi):
        missed.append("self-test: a relation table missing a row passes")
    return missed


def _cli(root: Path, *argv: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run(
        [sys.executable, "-m", "qtoric", *argv, "--format", "json"],
        cwd=root, env=env, capture_output=True, check=True, timeout=120,
    )
    return json.loads(out.stdout)


def main() -> int:
    problems = []
    for m in range(2, 9):
        if len(reference.enumerate_relations(m)) != reference.relation_count(m):
            problems.append(f"relation-count formula disagrees with the enumeration at m = {m}")
    problems += mutations_missed()

    root = Path(__file__).resolve().parent.parent
    inputs = gen.generate("probe-analyze", 1)
    case = next(c for c in inputs.cases if c.m == 4 and c.kind != "product")
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        path = Path(tmp) / case.name
        path.write_text(json.dumps(case.to_json()), encoding="utf-8")
        report = _cli(root, "analyze", str(path))
        table = _cli(root, "segre", str(path))
    try:
        scratch.rmdir()
    except OSError:  # another run is using it
        pass
    exp = reference.expected(case)
    quads = reference.table_quads(table["relations"]).tolist()
    residuals = [row["residual"] for row in table["relations"]]
    problems += mutations_missed((exp, report), (4, quads, residuals, exp.psi))

    for problem in problems:
        print(problem)
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
