"""Dense statevector simulator for the five-gate set X/H/CNOT/Toffoli/Phase.

Basis convention: for a register of N qubits, basis index k encodes qubit
values with qubit 0 as the most significant bit, so |q0 q1 ... q_{N-1}> sits at
index sum_j q_j * 2^(N-1-j). Completed states are immutable; gate application
returns a fresh state. Kernels mutate an exclusively-owned scratch buffer.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantError, QubitCapError

DEFAULT_MAX_QUBITS = 26
_NORM_TOL = 1e-10

_KINDS_ARITY = {"X": 1, "H": 1, "PHASE": 1, "CNOT": 2, "TOFFOLI": 3}


def max_qubits() -> int:
    """Simulator qubit cap; the QSAT_MAX_QUBITS env var overrides the default."""
    raw = os.environ.get("QSAT_MAX_QUBITS")
    if not raw:
        return DEFAULT_MAX_QUBITS
    message = f"QSAT_MAX_QUBITS must be an integer >= 1, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(message) from None
    if cap < 1:
        raise ValueError(message)
    return cap


def _check_cap(num_qubits: int) -> None:
    cap = max_qubits()
    if num_qubits > cap:
        raise QubitCapError(
            f"{num_qubits} qubits exceed the simulator cap of {cap} "
            f"(set QSAT_MAX_QUBITS to override)"
        )


@dataclass(frozen=True)
class Gate:
    """One gate application; qubits are (target,), (control, target) or
    (control, control, target)."""

    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != _KINDS_ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_KINDS_ARITY[self.kind]} qubits, got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"qubit indices must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if (self.angle is None) == (self.kind == "PHASE"):
            raise ValueError("angle is required for PHASE and only for PHASE")

    @classmethod
    def x(cls, target: int) -> "Gate":
        return cls("X", (target,))

    @classmethod
    def h(cls, target: int) -> "Gate":
        return cls("H", (target,))

    @classmethod
    def cnot(cls, control: int, target: int) -> "Gate":
        return cls("CNOT", (control, target))

    @classmethod
    def toffoli(cls, c1: int, c2: int, target: int) -> "Gate":
        return cls("TOFFOLI", (c1, c2, target))

    @classmethod
    def phase(cls, target: int, angle: float) -> "Gate":
        return cls("PHASE", (target,), angle=float(angle))


@dataclass
class Circuit:
    """An ordered gate list on a fixed-width register."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            self._check(g)

    def _check(self, gate: Gate) -> None:
        if any(q >= self.num_qubits for q in gate.qubits):
            raise ValueError(f"gate {gate} out of range for {self.num_qubits} qubits")

    def append(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

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


def dft_state(t: int, num_qubits: int) -> StateVector:
    """Fourier basis state with amplitudes exp(2*pi*i*t*k / 2^N) / sqrt(2^N),
    built as per-qubit phase gates on the uniform superposition.
    """
    dim = 1 << num_qubits
    if not 0 <= t < dim:
        raise ValueError(f"t={t} out of range for {num_qubits} qubits")
    circ = Circuit(num_qubits)
    for j in range(num_qubits):
        weight = 1 << (num_qubits - 1 - j)
        circ.append(Gate.phase(j, 2.0 * math.pi * t * weight / dim))
    return run(circ, prepare_uniform(num_qubits, 0))


# -- kernels -------------------------------------------------------------------


def _axis_view(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    return amps.reshape([2] * num_qubits)


def _apply_inplace(amps: np.ndarray, num_qubits: int, gate: Gate) -> None:
    view = _axis_view(amps, num_qubits)
    if gate.kind == "H":
        (t,) = gate.qubits
        idx0, idx1 = _bit_slices(num_qubits, {t: 0}), _bit_slices(num_qubits, {t: 1})
        a = view[idx0].copy()
        b = view[idx1]
        s = 1.0 / math.sqrt(2.0)
        view[idx0] = (a + b) * s
        view[idx1] = (a - b) * s
    elif gate.kind == "PHASE":
        (t,) = gate.qubits
        view[_bit_slices(num_qubits, {t: 1})] *= np.exp(1j * gate.angle)
    else:  # X, CNOT, TOFFOLI: swap the target's halves where every control is 1
        *controls, t = gate.qubits
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


# -- state dump (test fixture format) -------------------------------------------

_DUMP_MAGIC = b"QSV1"


def dump_state(state: StateVector) -> bytes:
    """Serialize: 16-byte header (magic 'QSV1', u32 little-endian num_qubits,
    8 reserved zero bytes) followed by little-endian (re, im) doubles."""
    header = _DUMP_MAGIC + struct.pack("<I", state.num_qubits) + b"\x00" * 8
    pairs = np.empty(2 * state.amps.size, dtype="<f8")
    pairs[0::2] = state.amps.real
    pairs[1::2] = state.amps.imag
    return header + pairs.tobytes()


def load_state(blob: bytes) -> StateVector:
    if blob[:4] != _DUMP_MAGIC:
        raise ValueError("bad magic: not a QSV1 state dump")
    (num_qubits,) = struct.unpack("<I", blob[4:8])
    pairs = np.frombuffer(blob[16:], dtype="<f8")
    if pairs.size != 2 * (1 << num_qubits):
        raise ValueError("truncated state dump")
    amps = pairs[0::2] + 1j * pairs[1::2]
    return StateVector(int(num_qubits), amps.astype(complex))
