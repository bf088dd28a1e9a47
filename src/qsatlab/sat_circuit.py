"""Builds the reversible circuit that evaluates a CNF formula into a result qubit.

A Circuit is a frozen gate list on a fixed-width register, out of the
three-gate set X/CNOT/Toffoli: a gate is the tuple of its qubits, controls
first and target last, so length 1, 2 or 3 makes it X, CNOT or Toffoli.

Register layout: input qubits 0..n-1, work ancillas next, result qubit last,
so a circuit's ancilla count mu is its width minus n.
On every computational basis input |eps, 0...0> the circuit leaves the inputs
in |eps> and writes the formula's value at eps (1 when every clause holds a
true literal) into the result qubit; the work ancillas keep the intermediate
clause values.

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
register width. The tests hold the count to a dense simulation of the same
circuit, which lives with them (tests/reference.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cnf import CnfFormula, _ancillas, _dimacs, _kept, input_columns, live_lanes
from .errors import InvariantError


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


def build_sat_circuit(formula: CnfFormula) -> Circuit:
    """Build the formula-evaluation circuit out of X/CNOT/Toffoli gates only."""
    n = formula.n
    kept = _kept(formula)
    mu = _ancillas(kept)
    width = n + mu
    result = width - 1
    assert mu <= n * formula.num_clauses + 2, "ancilla budget not linear in m*n"

    if not all(pos | neg for pos, neg in kept):
        return Circuit(width)  # constant 0: result qubit never touched
    if not kept:
        return Circuit(width, [(result,)])  # constant 1

    # A value is a (qubit, flip) pair: `flip` means the qubit holds its complement.
    gates: list[tuple[int, ...]] = []
    emit = gates.append
    values = []
    work = n
    for pos, neg in kept:
        literals = _dimacs(pos, neg)
        if len(literals) == 1:
            values.append((abs(literals[0]) - 1, literals[0] < 0))
            continue
        # AND of literal complements: a positive literal's complement needs an
        # X-wrap on its input qubit, a negated literal's complement is the raw bit.
        a, b = literals[:2]
        _wrapped(emit, (abs(a) - 1, abs(b) - 1, work), a > 0, b > 0)
        for k in literals[2:]:
            _wrapped(emit, (work, abs(k) - 1, work + 1), False, k > 0)
            work += 1
        emit((work,))  # NOT(AND of complements) = clause OR
        values.append((work, False))
        work += 1

    if len(values) == 1:
        running = values[0]
    else:
        (a, flip_a), (b, flip_b) = values[:2]
        # Two unit clauses may read the same input qubit: v AND v copies
        # through, v AND NOT v is constant 0 (the target stays |0>).
        if a != b:
            _wrapped(emit, (a, b, work), flip_a, flip_b)
        elif flip_a == flip_b:
            _wrapped(emit, (a, work), flip_a)
        for q, flip in values[2:]:
            _wrapped(emit, (work, q, work + 1), False, flip)
            work += 1
        running = work, False
        work += 1
    assert work == result, "ancilla accounting drifted"

    _wrapped(emit, (running[0], result), running[1])
    return Circuit(width, gates)


def _wrapped(emit, gate: tuple[int, ...], flip_a: bool, flip_b: bool = False) -> None:
    """Emit a CNOT or Toffoli gate, X-wrapping its first control when flip_a
    and its second when flip_b: a control flipped holds the complement of the
    value the gate reads."""
    if flip_a:
        emit(gate[:1])
    if flip_b:
        emit(gate[1:2])
    emit(gate)
    if flip_b:
        emit(gate[1:2])
    if flip_a:
        emit(gate[:1])


def count_result_ones(circuit: Circuit, n: int) -> int:
    """Number of inputs eps whose result qubit reads 1 after the circuit acts
    on |eps, 0...0>, the first n qubits being the inputs; 2^n * q^2 exactly.
    Raises EnumerationCapError past 2^DEFAULT_ENUMERATION_CAP inputs.

    Values are never written in place, so qubits share read-only starting
    values and broadcasting widens a value only along the variables it comes
    to depend on; a control's value is dropped after its last use."""
    zero = np.uint64(0)
    values = [*input_columns(n), *[zero] * (circuit.num_qubits - n)]
    result = circuit.num_qubits - 1
    last_use = {q: i for i, gate in enumerate(circuit.gates) for q in gate}
    last_use[result] = len(circuit.gates)  # read after the last gate
    for i, gate in enumerate(circuit.gates):
        if len(gate) == 1:  # X
            values[gate[0]] = ~values[gate[0]]
            continue
        if len(gate) == 2:  # CNOT
            c, t = gate
            operand = values[c]
            if last_use[c] == i:
                values[c] = None
        else:  # TOFFOLI
            c, d, t = gate
            operand = values[c] & values[d]
            if last_use[c] == i:
                values[c] = None
            if last_use[d] == i:
                values[d] = None
        values[t] = operand if values[t] is zero else values[t] ^ operand  # XOR the controls' AND in
    bits = values[result]
    ones = int(np.bitwise_count(bits & live_lanes(n)).sum())
    return ones * (1 << max(n - 6, 0)) // bits.size  # axes of size 1 span both values

