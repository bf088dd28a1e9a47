"""The damping generator as the limit of a collision model.

A collision model (Ciccarello, Lorenzo, Giovannetti and Palma, "Quantum
collision models", Phys. Rep. 954, 2022) derives the probe's master equation
from below. Every step of length tau the probe meets a fresh bath qubit in |0>:
the pair evolves under the exchange U = exp(-i theta (D (x) D+ + D+ (x) D))
with theta^2 = 2 Re(gamma) tau, the bath qubit is traced out, and the probe is
rotated by exp(-i Im(gamma) P1 tau). N such steps over a time t approach the
GKSL evolution at first order in tau = t / N, the stochastic limit (Accardi,
Lu and Volovich, "Quantum Theory and Its Stochastic Limit", Springer 2002).
The paper's printed variant, with a single D rho D+ recycling term, leaks trace
and stays a finite distance away from that limit.

One step is a 4x4 matrix in the package's column-stacked vec convention, so N
steps are one np.linalg.matrix_power; only numpy and the vec helpers (vec
from the package, unvec from reference.py) are used to build the model.
"""

from __future__ import annotations

import numpy as np
import pytest

from qsatlab.adaptive import damping_generator
from qsatlab.dynamics import (
    IDENTITY2,
    LOWERING,
    PROJ_EXCITED,
    DensityMatrix2,
    Superoperator,
    left_mult,
    right_mult,
    sandwich,
    vec,
)
from reference import evolve, expm_superop, trace_distance, unvec

GAMMAS = [0.5, 1.0, 1.0 + 0.7j]  # the acceptance grid of criterion 6
STEPS = [10, 100, 1_000, 10_000]
T = 1.0


def _exchange(theta: float) -> np.ndarray:
    """exp(-i theta H) for the probe (x) bath exchange H = D (x) D+ + h.c."""
    h = np.kron(LOWERING, LOWERING.conj().T)
    h = h + h.conj().T
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def collision_step(gamma: complex, tau: float) -> np.ndarray:
    """Superoperator matrix of one collision: exchange with a fresh bath qubit
    in |0>, trace out the bath, then rotate the probe."""
    u = _exchange(np.sqrt(2.0 * gamma.real * tau))
    bath = np.array([[1, 0], [0, 0]], dtype=complex)
    columns = []
    for k in range(4):
        rho = unvec(np.eye(4, dtype=complex)[k])
        joint = u @ np.kron(rho, bath) @ u.conj().T
        columns.append(vec(np.einsum("ajbj->ab", joint.reshape(2, 2, 2, 2))))
    rotate = np.diag([1.0, np.exp(-1j * gamma.imag * tau)])
    return sandwich(rotate, rotate.conj().T) @ np.column_stack(columns)


def collision_state(gamma: complex, steps: int, rho: DensityMatrix2) -> np.ndarray:
    """The probe after `steps` collisions over the time T. Kept a bare matrix:
    10^4 steps drift the trace by about 1e-12, past DensityMatrix2's check."""
    step = collision_step(gamma, T / steps)
    return unvec(np.linalg.matrix_power(step, steps) @ vec(rho.matrix))


def printed_generator(gamma: complex) -> Superoperator:
    """The paper's printed variant: one D rho D+ recycling term against the
    full anticommutator, so trace leaks at rate Re(gamma) rho_11."""
    p1_left, p1_right = left_mult(PROJ_EXCITED), right_mult(PROJ_EXCITED)
    recycle = sandwich(LOWERING, LOWERING.conj().T)
    rotation = 1j * gamma.imag * (p1_right - p1_left)
    return Superoperator(rotation + gamma.real * (recycle - p1_left - p1_right), label="printed")


def test_collision_step_is_trace_preserving():
    for gamma in GAMMAS:
        step = collision_step(gamma, 0.01)
        assert np.max(np.abs(vec(IDENTITY2).conj() @ step - vec(IDENTITY2).conj())) < 1e-14


@pytest.mark.parametrize("gamma", GAMMAS)
def test_collision_model_converges_to_damping_generator_at_first_order(gamma):
    l_star = damping_generator(gamma)
    probe = DensityMatrix2.plus()
    limit = evolve(l_star, probe, T).matrix
    distances = [trace_distance(collision_state(gamma, n, probe), limit) for n in STEPS]
    ratios = [a / b for a, b in zip(distances, distances[1:])]
    assert all(9.0 <= r <= 11.0 for r in ratios), (distances, ratios)
    assert distances[-1] < 1e-5


@pytest.mark.parametrize("gamma", GAMMAS)
def test_printed_variant_leaks_trace_and_misses_the_limit(gamma):
    printed = printed_generator(gamma)
    assert not printed.is_trace_preserving()
    derivative = unvec(printed.matrix @ vec(PROJ_EXCITED))
    # dTr/dt = -Re(gamma) * rho_11 for the printed coefficients
    assert np.trace(derivative).real == pytest.approx(-gamma.real, abs=1e-12)

    probe = DensityMatrix2.plus()
    leaked = unvec(expm_superop(printed, T).matrix @ vec(probe.matrix))
    assert trace_distance(leaked, collision_state(gamma, STEPS[-1], probe)) >= 0.05
