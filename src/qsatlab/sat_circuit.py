"""Builds the reversible circuit that evaluates a CNF formula into a result qubit.

Register layout: input qubits 0..n-1, work ancillas next, result qubit last.
On every computational basis input |eps, 0...0> the circuit leaves the inputs
in |eps> and writes eval_formula(f, eps) into the result qubit; the work
ancillas keep the intermediate clause values.

Construction: a clause OR is De Morgan'd into a Toffoli chain over literal
complements (a literal's complement is read off its input qubit, X-wrapped for
polarity), with a final X turning the accumulated AND into the OR. Clause
outputs are folded into the result through a second Toffoli chain. Clauses
holding a complementary pair are satisfied identically and are skipped; an
empty clause makes the formula constant 0 and the build degenerates to an
idle circuit.

Since the gate set only permutes basis states, count_result_ones reads the
exact satisfying count off the circuit itself, bit-sliced and without a dense
state: each qubit holds its value under every input in the oracle's packed
layout (cnf.input_columns), spanning only the input variables it depends on.
Only the number of inputs is capped (as for the brute-force count), not the
register width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cnf import Clause, CnfFormula, filter_minimal, input_columns, live_lanes
from .statevector import Circuit, Gate, StateVector


@dataclass(frozen=True)
class CircuitLayout:
    """Where the three register sections live inside the built circuit."""

    n_input: int
    work_qubits: range
    result_qubit: int
    mu: int

    @property
    def num_qubits(self) -> int:
        return self.n_input + self.mu


def required_ancillas(formula: CnfFormula) -> int:
    """Ancilla count mu for the standard construction.

    mu = sum over kept clauses of (|C|-1) + (m-1) + 1, degenerating to 1 for
    constant formulas; linear in m*n since kept clauses are minimal.
    """
    active = filter_minimal(formula)
    if not active or any(len(c) == 0 for c in active):
        return 1
    m = len(active)
    return sum(len(c) - 1 for c in active) + (m - 1) + 1


@dataclass(frozen=True)
class _Value:
    """A Boolean value readable from a qubit; `invert` means the qubit holds
    its complement."""

    qubit: int
    invert: bool


def build_sat_circuit(formula: CnfFormula) -> tuple[Circuit, CircuitLayout]:
    """Build the formula-evaluation circuit out of X/CNOT/Toffoli gates only."""
    n = formula.n
    mu = required_ancillas(formula)
    total = n + mu
    layout = CircuitLayout(
        n_input=n,
        work_qubits=range(n, total - 1),
        result_qubit=total - 1,
        mu=mu,
    )
    assert mu <= n * formula.num_clauses + 2, "ancilla budget not linear in m*n"

    circuit = Circuit(total)
    active = filter_minimal(formula)

    if any(len(c) == 0 for c in active):
        return circuit, layout  # constant 0: result qubit never touched
    if not active:
        circuit.append(Gate.x(layout.result_qubit))  # constant 1
        return circuit, layout

    next_work = n

    def fresh() -> int:
        nonlocal next_work
        q = next_work
        next_work += 1
        return q

    def controlled(controls: list[_Value], target: int) -> None:
        # CNOT or Toffoli on the controls' values: X-wrap each inverted control.
        wraps = [v.qubit for v in controls if v.invert]
        for q in wraps:
            circuit.append(Gate.x(q))
        if len(controls) == 1:
            circuit.append(Gate.cnot(controls[0].qubit, target))
        else:
            circuit.append(Gate.toffoli(controls[0].qubit, controls[1].qubit, target))
        for q in reversed(wraps):
            circuit.append(Gate.x(q))

    def and_pair(a: _Value, b: _Value, target: int) -> None:
        # Two unit clauses may read the same input qubit: v AND v copies
        # through, v AND NOT v is constant 0 (target stays |0>).
        if a.qubit != b.qubit:
            controlled([a, b], target)
        elif a.invert == b.invert:
            controlled([a], target)

    def clause_value(clause: Clause) -> _Value:
        literals = clause.sorted_literals()
        if len(literals) == 1:
            lit = literals[0]
            return _Value(lit.var - 1, invert=lit.negated)
        # AND of literal complements: a positive literal's complement needs an
        # X-wrap on its input qubit, a negated literal's complement is the raw bit.
        complements = [_Value(l.var - 1, invert=not l.negated) for l in literals]
        acc = fresh()
        controlled(complements[:2], acc)
        for comp in complements[2:]:
            nxt = fresh()
            controlled([_Value(acc, False), comp], nxt)
            acc = nxt
        circuit.append(Gate.x(acc))  # NOT(AND of complements) = clause OR
        return _Value(acc, invert=False)

    values = [clause_value(c) for c in active]

    if len(values) == 1:
        running = values[0]
    else:
        acc = fresh()
        and_pair(values[0], values[1], acc)
        for v in values[2:]:
            nxt = fresh()
            controlled([_Value(acc, False), v], nxt)
            acc = nxt
        running = _Value(acc, False)
    assert next_work == total - 1, "ancilla accounting drifted"

    controlled([running], layout.result_qubit)
    return circuit, layout


def count_result_ones(circuit: Circuit, layout: CircuitLayout) -> int:
    """Number of inputs eps whose result qubit reads 1 after the circuit acts
    on |eps, 0...0>; 2^n * q^2 exactly. Only X/CNOT/Toffoli are accepted,
    since H and PHASE do not map basis states to basis states. Raises
    EnumerationCapError past 2^DEFAULT_ENUMERATION_CAP inputs.

    Values are never written in place, so qubits share read-only starting
    values and broadcasting widens a value only along the variables it comes
    to depend on; a control's value is dropped after its last use."""
    n = layout.n_input
    zero = np.uint64(0)
    values = [*input_columns(n), *[zero] * layout.mu]
    last_use = {q: i for i, gate in enumerate(circuit.gates) for q in gate.qubits}
    last_use[layout.result_qubit] = len(circuit.gates)  # read after the last gate
    for i, gate in enumerate(circuit.gates):
        *controls, t = gate.qubits
        if gate.kind == "X":
            values[t] = ~values[t]
        elif gate.kind in ("CNOT", "TOFFOLI"):
            operand = values[controls[0]] if len(controls) == 1 else values[controls[0]] & values[controls[1]]
            values[t] = operand if values[t] is zero else values[t] ^ operand
        else:
            raise ValueError(f"{gate.kind} is not a basis permutation")
        for c in controls:
            if last_use[c] == i:
                values[c] = None
    result = values[layout.result_qubit]
    ones = int(np.bitwise_count(result & live_lanes(n)).sum())
    return ones * (1 << max(n - 6, 0)) // result.size  # axes of size 1 span both values


def _result_bit_view(state: StateVector, layout: CircuitLayout) -> np.ndarray:
    view = state.amps.reshape([2] * state.num_qubits)
    return np.moveaxis(view, layout.result_qubit, -1)


def success_probability(state: StateVector, layout: CircuitLayout) -> float:
    """Total weight on basis states whose result qubit reads 1; clipped to 1.0
    against summation roundoff (the state norm is 1 within 1e-10)."""
    view = _result_bit_view(state, layout)
    return min(float(np.sum(np.abs(view[..., 1]) ** 2)), 1.0)


def post_measure(state: StateVector, layout: CircuitLayout) -> StateVector | None:
    """Project onto result = 1 and renormalize; None when the projection
    carries (numerically) no weight, i.e. the UNSAT branch."""
    norm = math.sqrt(success_probability(state, layout))
    if norm < 1e-14:
        return None
    amps = state.amps.copy()
    view = np.moveaxis(amps.reshape([2] * state.num_qubits), layout.result_qubit, -1)
    view[..., 0] = 0.0
    amps /= norm
    return StateVector(state.num_qubits, amps)


def collapse_to_qubit(q_squared: float | Fraction) -> tuple[float, float]:
    """Amplitudes (sqrt(1-q^2), sqrt(q^2)) of the single-qubit summary state
    handed to the amplifiers."""
    q2 = float(q_squared)
    if q2 < 0.0 or q2 > 1.0:
        if -1e-12 <= q2 < 0.0 or 1.0 < q2 <= 1.0 + 1e-12:
            q2 = min(max(q2, 0.0), 1.0)  # forgive float roundoff at the edges
        else:
            raise ValueError(f"q_squared={q2} outside [0, 1]")
    return math.sqrt(1.0 - q2), math.sqrt(q2)
