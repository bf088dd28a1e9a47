"""Dense statevector simulator for the three-gate set X/CNOT/Toffoli.

It is kept as the reference the permutation count (sat_circuit.
count_result_ones) is checked against: q^2 read off a dense simulation.

A gate is the tuple of its qubits, controls first and target last; length 1,
2 or 3 makes it X, CNOT or Toffoli.

Basis convention: for a register of N qubits, basis index k encodes qubit
values with qubit 0 as the most significant bit, so |q0 q1 ... q_{N-1}> sits at
index sum_j q_j * 2^(N-1-j). Completed states are immutable; gate application
returns a fresh state. Kernels mutate an exclusively-owned scratch buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvariantError, QubitCapError

MAX_QUBITS = 26
_NORM_TOL = 1e-10


def _check_cap(num_qubits: int) -> None:
    if num_qubits > MAX_QUBITS:
        raise QubitCapError(f"{num_qubits} qubits exceed the simulator cap of {MAX_QUBITS}")


@dataclass(frozen=True)
class Circuit:
    """An immutable gate sequence on a fixed-width register; the gate list is
    checked once, here, in a few whole-list passes."""

    num_qubits: int
    gates: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        gates = tuple(map(tuple, self.gates))
        object.__setattr__(self, "gates", gates)
        qubits = [*chain.from_iterable(gates)]
        ints = set(map(type, qubits)) <= {int}  # no bool, float or numpy integer
        if (ints and set(map(len, gates)) <= {1, 2, 3} and sum(map(len, map(set, gates))) == len(qubits)
                and min(qubits, default=0) >= 0 and max(qubits, default=-1) < self.num_qubits):
            return
        # A pass failed: rescan to name the first fault in gate order, a type fault first.
        if not ints:
            bad = next(gate for gate in gates if any(type(q) is not int for q in gate))
            raise ValueError(f"qubit indices must be ints, got {bad}")
        for gate in gates:
            if not 1 <= len(gate) <= 3:
                raise ValueError(f"a gate holds 1 to 3 qubits, got {gate}")
            if len(set(gate)) != len(gate):
                raise ValueError(f"qubit indices must be distinct, got {gate}")
            if min(gate) < 0 or max(gate) >= self.num_qubits:
                raise ValueError(f"gate {gate} out of range for {self.num_qubits} qubits")
        raise InvariantError("the whole-list gate check failed on a gate list without a fault")

    def __len__(self) -> int:
        return len(self.gates)


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


# -- kernels -------------------------------------------------------------------


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

