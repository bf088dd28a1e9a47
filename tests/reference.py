"""Reference code the tests check the package against; no command runs it.

- The dense statevector simulator for the three-gate set X/CNOT/Toffoli, and
  success_probability, q^2 read off a dense state: the second reading of q^2
  the permutation count (sat_circuit.count_result_ones) is held to.
- The dynamics the classifier's propagate is held to: the matrix exponential,
  evolve (one sample of propagate), the Heisenberg picture, spectra, the
  trace distance, the basis states and their readings, and the damping
  master equation's closed form.

Basis convention: for a register of N qubits, basis index k encodes qubit
values with qubit 0 as the most significant bit, so |q0 q1 ... q_{N-1}> sits at
index sum_j q_j * 2^(N-1-j). Completed states are immutable; gate application
returns a fresh state. Kernels mutate an exclusively-owned scratch buffer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from qsatlab.dynamics import PROJ_EXCITED, DensityMatrix2, Mat2, Superoperator, propagate, vec
from qsatlab.errors import InvariantError
from qsatlab.sat_circuit import Circuit

# -- the dense simulator -------------------------------------------------------

MAX_QUBITS = 26
_NORM_TOL = 1e-10


class QubitCapError(ValueError):
    """Raised when a statevector would exceed the simulator qubit cap."""


def _check_cap(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise QubitCapError(f"{num_qubits} qubits exceed the simulator cap of {MAX_QUBITS}")


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitudes over 2^num_qubits basis states."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        if self.amps.shape != (1 << self.num_qubits,):
            raise ValueError(f"expected {1 << self.num_qubits} amplitudes, got {self.amps.shape}")
        norm = float(np.linalg.norm(self.amps))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {_NORM_TOL}")
        self.amps.setflags(write=False)

    @classmethod
    def computational_basis(cls, num_qubits: int, index: int) -> "StateVector":
        _check_cap(num_qubits)
        if not 0 <= index < 1 << num_qubits:
            raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
        amps = np.zeros(1 << num_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(num_qubits, amps)


def prepare_uniform(n: int, mu: int) -> StateVector:
    """Equal-weight superposition over the first n qubits with mu trailing
    work/result qubits fixed at |0>. Equivalent to H on each input qubit of
    the all-zeros state.
    """
    if n < 0 or mu < 0:
        raise ValueError("qubit counts must be nonnegative")
    _check_cap(n + mu)
    amps = np.zeros(1 << (n + mu), dtype=complex)
    amps[:: 1 << mu] = 2.0 ** (-n / 2)
    return StateVector(n + mu, amps)


def _apply_inplace(amps: np.ndarray, num_qubits: int, gate: tuple[int, ...]) -> None:
    """Swap the target's halves where every control is 1."""
    view = amps.reshape([2] * num_qubits)
    *controls, t = gate
    fixed = dict.fromkeys(controls, 1)
    idx0 = _bit_slices(num_qubits, {**fixed, t: 0})
    idx1 = _bit_slices(num_qubits, {**fixed, t: 1})
    tmp = view[idx0].copy()
    # A ufunc sees the interleaved halves are disjoint; plain assignment
    # would buffer the source through a hidden whole-state temporary.
    np.positive(view[idx1], out=view[idx0])
    view[idx1] = tmp


def _bit_slices(num_qubits: int, fixed: dict[int, int]) -> tuple:
    idx: list = [slice(None)] * num_qubits
    for q, v in fixed.items():
        idx[q] = v
    return (*idx, ...)  # the Ellipsis keeps a fully fixed index a view, not a scalar


def run(circuit: Circuit, state: StateVector) -> StateVector:
    """Apply all gates in order. The result's norm is re-validated; a drift
    there is a kernel fault and raises InvariantError."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(
            f"circuit width {circuit.num_qubits} does not match state width {state.num_qubits}"
        )
    amps = state.amps.copy()
    for gate in circuit.gates:
        _apply_inplace(amps, state.num_qubits, gate)
    try:
        return StateVector(state.num_qubits, amps)
    except ValueError as exc:
        raise InvariantError(f"circuit output: {exc}") from exc


def success_probability(state: StateVector) -> float:
    """Total weight on basis states whose result qubit (the last, so the least
    significant bit) reads 1; clipped to 1.0 against summation roundoff (the
    state norm is 1 within 1e-10)."""
    return min(float(np.sum(np.abs(state.amps[1::2]) ** 2)), 1.0)


# -- dynamics --------------------------------------------------------------------

PROJ_GROUND: Mat2 = np.array([[1, 0], [0, 0]], dtype=complex)

_ZERO_EIG = 1e-10


def unvec(v: np.ndarray) -> Mat2:
    return np.asarray(v, dtype=complex).reshape(2, 2, order="F")


def ground_state() -> DensityMatrix2:
    return DensityMatrix2(PROJ_GROUND.copy())


def excited_state() -> DensityMatrix2:
    return DensityMatrix2(PROJ_EXCITED.copy())


def excited_population(rho: DensityMatrix2) -> float:
    """Excited-level population <e1|rho|e1>."""
    return float(rho.matrix[1, 1].real)


def coherence(rho: DensityMatrix2) -> complex:
    return complex(rho.matrix[0, 1])


def purity(rho: DensityMatrix2) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def expm_superop(sup: Superoperator, t: float) -> Superoperator:
    """exp(t L) = V exp(t w) V^-1 from the generator's eigendecomposition."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    w, v, v_inv = sup._eig
    return Superoperator((v * np.exp(t * w)) @ v_inv, label=f"exp({t:g}*{sup.label or 'L'})")


def evolve(sup: Superoperator, rho: DensityMatrix2, t: float) -> DensityMatrix2:
    """The state exp(tL) rho: propagate at the single time t."""
    return DensityMatrix2(propagate(sup, rho, [t])[0])


def heisenberg_evolve(sup: Superoperator, observable: Mat2, t: float) -> Mat2:
    """Propagate an observable under the dual generator; no normalization."""
    return unvec(expm_superop(sup, t).matrix @ vec(observable))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue summary of a generator: kernel dimension and decay gap."""

    eigenvalues: tuple[complex, ...]
    zero_modes: int
    gap: float


def spectrum(sup: Superoperator) -> Spectrum:
    eigs = np.linalg.eigvals(sup.matrix)
    nonzero = [z for z in eigs if abs(z) >= _ZERO_EIG]
    gap = min((abs(z.real) for z in nonzero), default=0.0)
    return Spectrum(
        eigenvalues=tuple(sorted(map(complex, eigs), key=lambda z: (z.real, z.imag))),
        zero_modes=len(eigs) - len(nonzero),
        gap=float(gap),
    )


def trace_distance(a: Mat2, b: Mat2) -> float:
    """Half the sum of singular values of the difference of two 2x2 matrices."""
    return float(0.5 * np.sum(np.linalg.svd(a - b, compute_uv=False)))


def damping_closed_form(gamma: complex, rho0: DensityMatrix2, t: float) -> DensityMatrix2:
    """Analytic solution of the damping master equation; the populations and
    the coherence decouple into plain exponentials."""
    gamma = complex(gamma)
    p1 = excited_population(rho0) * math.exp(-2.0 * gamma.real * t)
    coh = coherence(rho0) * cmath.exp((1j * gamma.imag - gamma.real) * t)
    return DensityMatrix2(np.array([[1.0 - p1, coh], [coh.conjugate(), p1]], dtype=complex))
