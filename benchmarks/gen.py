"""Seeded input generator for the qtoric benchmark.

Every state is built here with numpy alone: products are outer products of
random single-qubit factors, entangled states are Gaussian vectors or GHZ and
W states under random local SL(2, C) maps. No state comes from qtoric, so the
reference checks in ``reference.py`` stay independent of the program.

The same ``(workload, seed)`` always gives the same states. The scaled states
of ``batch-small`` come from a fixed seed, so they are the same in every run.

Run on its own to write a workload's state files::

    python3 benchmarks/gen.py --workload batch-small --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import zlib
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

import reference

# Qubit counts of the CLI state files, {m: count}; half of each count are
# products. The library pass goes over the same states lib_repeats times a
# round, so that it lasts about as long as a second or two.
WORKLOADS = {
    "batch-small": {"qubits": {2: 400, 3: 400, 4: 400}, "lib_repeats": 2},
    "wide": {"qubits": {8: 20, 9: 20}, "lib_repeats": 8},
    "relations": {"qubits": {5: 2, 6: 2, 7: 2}, "lib_repeats": 3},
}

# Small inputs that a traced run sends through the layers its workload never
# reaches, so that every layer figure is measured in every traced run.
PROBES = {
    "probe-analyze": {"qubits": {2: 8, 3: 8, 4: 8}, "lib_repeats": 1},
    "probe-relations": {"qubits": {5: 2}, "lib_repeats": 1},
}

# Workloads whose CLI and library pass build relation tables.
RELATION_WORKLOADS = {"relations", "probe-relations"}

# The scaled states of batch-small are seed-independent: these bases,
# multiplied by each scale. qtoric 0.1.0 fails on every one of them.
FIXED_SEED = 10073388
SCALES = (1e200, 1e-200)
SCALED_QUBITS = (2, 3, 4)

ENTANGLED_KINDS = ("gaussian", "ghz", "w")


@dataclass
class Case:
    """One generated state and what the generator knows about it."""

    name: str
    m: int
    amps: np.ndarray  # raw amplitudes as written, not normalized
    kind: str  # "product", "gaussian", "ghz", "w" or "scaled"
    factors: list[np.ndarray] | None = None  # generating factors of a product
    base: int | None = None  # index of the unscaled case, for "scaled"
    scale: float = 1.0

    def to_json(self) -> dict:
        return {
            "qubits": self.m,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amps],
        }


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _factor(rng: np.random.Generator) -> np.ndarray:
    # One factor in ten is a scaled basis vector, so some amplitudes are 0.
    if rng.random() < 0.1:
        f = np.zeros(2, dtype=complex)
        f[rng.integers(2)] = _complex_normal(rng, ())
        return f
    return _complex_normal(rng, 2)


def _sl2(rng: np.random.Generator) -> np.ndarray:
    while True:
        g = _complex_normal(rng, (2, 2))
        g = g / np.sqrt(np.linalg.det(g))
        if np.linalg.cond(g) < 8.0:
            return g


def _local(amps: np.ndarray, gates: list[np.ndarray]) -> np.ndarray:
    m = len(gates)
    psi = amps.reshape((2,) * m)
    for axis, g in enumerate(gates):
        psi = np.moveaxis(np.tensordot(g, psi, axes=([1], [axis])), 0, axis)
    return psi.reshape(-1)


def product(rng: np.random.Generator, m: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Amplitudes of a random product and its factors, first factor most significant."""
    factors = [_factor(rng) for _ in range(m)]
    amps = reduce(lambda acc, f: np.outer(acc, f).reshape(-1), factors)
    return amps, factors


def entangled(rng: np.random.Generator, m: int, kind: str) -> np.ndarray:
    """A Gaussian state, or a GHZ or W state under random local SL(2, C) maps."""
    if kind == "gaussian":
        amps = _complex_normal(rng, 1 << m)
    else:
        amps = np.zeros(1 << m, dtype=complex)
        if kind == "ghz":
            amps[[0, -1]] = 1.0
        else:
            amps[[1 << k for k in range(m)]] = 1.0
        amps = _local(amps, [_sl2(rng) for _ in range(m)])
    scale = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
    return scale * amps


def _case(rng: np.random.Generator, m: int, i: int, kind: str) -> Case:
    """A state whose residual is at least 1000x away from the 1e-10 tolerance."""
    while True:
        if kind == "product":
            amps, factors = product(rng, m)
            residual = reference.max_minor(reference.unit(amps), m)
            if residual <= reference.PRODUCT_RESIDUAL:
                return Case(f"s{i:05d}_m{m}.json", m, amps, kind, factors)
        else:
            amps = entangled(rng, m, kind)
            residual = reference.max_minor(reference.unit(amps), m)
            if residual >= reference.ENTANGLED_RESIDUAL:
                return Case(f"s{i:05d}_m{m}.json", m, amps, kind)


def _kinds(count: int) -> list[str]:
    # Alternate products with entangled states, cycling the entangled kinds.
    return [
        "product" if k % 2 == 0 else ENTANGLED_KINDS[(k // 2) % len(ENTANGLED_KINDS)]
        for k in range(count)
    ]


def scaled_cases(start: int) -> list[Case]:
    """Fixed bases at m = 2, 3, 4 followed by their copies at each scale."""
    rng = np.random.default_rng(FIXED_SEED)
    bases = []
    for m in SCALED_QUBITS:
        for kind in ("product", "gaussian"):
            bases.append(_case(rng, m, start + len(bases), kind))
    scaled = []
    for b, base in enumerate(bases):
        for scale in SCALES:
            scaled.append(
                Case(
                    f"s{start + len(bases) + len(scaled):05d}_m{base.m}.json",
                    base.m,
                    base.amps * scale,
                    "scaled",
                    base.factors,
                    base=start + b,
                    scale=scale,
                )
            )
    return bases + scaled


@dataclass
class Inputs:
    """A workload's generated states.

    ``cli`` indexes the states written as files, ``lib`` those given to the
    library pass, and ``setup`` the file used for the cold-start invocation.
    """

    workload: str
    seed: int
    cases: list[Case]
    cli: list[int]
    lib: list[int]
    setup: int
    lib_repeats: int

    @property
    def largest_m(self) -> int:
        return max(self.cases[i].m for i in self.cli)


def generate(workload: str, seed: int) -> Inputs:
    spec = {**WORKLOADS, **PROBES}[workload]
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    cases: list[Case] = []
    for m, count in spec["qubits"].items():
        for kind in _kinds(count):
            cases.append(_case(rng, m, len(cases), kind))
    cli = list(range(len(cases)))
    lib = list(cli)
    if workload == "batch-small":
        extra = scaled_cases(len(cases))
        lib += range(len(cases), len(cases) + len(extra))
        cases += extra
    largest = max(cases[i].m for i in cli)
    setup = next(i for i in cli if cases[i].m == largest)
    return Inputs(workload, seed, cases, cli, lib, setup, spec["lib_repeats"])


def write_files(inputs: Inputs, directory: Path) -> None:
    """Write one state file per CLI case into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for i in inputs.cli:
        case = inputs.cases[i]
        (directory / case.name).write_text(json.dumps(case.to_json()), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted({**WORKLOADS, **PROBES}), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    inputs = generate(args.workload, args.seed)
    write_files(inputs, args.out)
    print(f"wrote {len(inputs.cli)} state files to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
