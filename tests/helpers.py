"""Shared test utilities: random ensembles, local-operator application and
the environment of child processes."""

import math
import os
from pathlib import Path

import numpy as np

from qtoric import MultiQubitState, QubitFactor, inner_product, make_state, segre_embed


def random_factor(rng) -> QubitFactor:
    while True:
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if np.linalg.norm(z) > 1e-3:
            return QubitFactor(z[0], z[1])


def random_product_state(rng, m: int) -> MultiQubitState:
    return segre_embed([random_factor(rng) for _ in range(m)])


def random_state(rng, m: int) -> MultiQubitState:
    """Haar-random pure state on m qubits."""
    z = rng.standard_normal(1 << m) + 1j * rng.standard_normal(1 << m)
    return make_state(m, z, normalize=True)


def random_unitary(rng, dim: int = 2) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_sl2(rng) -> np.ndarray:
    """Random SL(2, C) matrix: a, b, c Gaussian, d = (1 + bc) / a, |a| bounded below."""
    while True:
        a, b, c = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) / math.sqrt(2)
        if abs(a) > 0.3:
            return np.array([[a, b], [c, (1.0 + b * c) / a]])


def apply_local(state: MultiQubitState, mats) -> MultiQubitState:
    """Apply one 2x2 matrix per qubit, in ket order (MSB first)."""
    m = state.num_qubits
    tensor = state.amplitudes.reshape((2,) * m)
    for position, mat in enumerate(mats):
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=([1], [position])), 0, position)
    return MultiQubitState(m, tensor.reshape(-1))


def aligned_distance(a: MultiQubitState, b: MultiQubitState) -> float:
    """Distance between unit representatives after optimal phase alignment."""
    ua, ub = a.normalized(), b.normalized()
    overlap = inner_product(ua, ub)
    if overlap == 0:
        return math.sqrt(2.0)
    phase = overlap / abs(overlap)
    return float(np.linalg.norm(ub.amplitudes - phase * ua.amplitudes))


SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env() -> dict[str, str]:
    """The environment for a child Python process, which then imports qtoric
    from this checkout, installed or not. Its stdout is buffered, as Python
    buffers it by default when it is not a terminal, so a command's output
    reaches its reader only through the command's own flush."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)
    return env
