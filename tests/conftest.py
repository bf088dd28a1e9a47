"""Shared fixtures: an independent truth-table oracle and formula generators.

The oracle here deliberately avoids the package's vectorized enumeration and
the circuit path: assignments come from itertools.product and clauses are
evaluated with any()/all() directly, so expected values asserted in the tests
are computed along a route the code under test never touches. dense_q_squared
is the one circuit-path helper: the reading of q^2 off the dense simulator in
reference.py, kept as the cross-check for the permutation evaluation that
statevector mode uses.
reference_gate_fault names the refusal of a gate list one gate at a time, the
reading the circuit's whole-list check is held to.
The 2x2 algebra helpers (PAULI_Z, commutator, anticommutator) serve the tests'
by-hand checks of the superoperator builders; the package itself needs none.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qsatlab.cnf import Clause, CnfFormula, Literal
from qsatlab.dynamics import IDENTITY2, Superoperator, vec
from qsatlab.sat_circuit import build_sat_circuit
from reference import prepare_uniform, run, success_probability

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "corpus"


def brute_eval(formula: CnfFormula, bits: tuple[int, ...]) -> bool:
    """Reference semantics, written independently of the package."""
    def lit_true(lit: Literal) -> bool:
        value = bits[lit.var - 1] == 1
        return not value if lit.negated else value

    return all(any(lit_true(l) for l in clause) for clause in formula.clauses)


def brute_count(formula: CnfFormula) -> int:
    return sum(
        1
        for bits in itertools.product((0, 1), repeat=formula.n)
        if brute_eval(formula, bits)
    )


def dense_q_squared(formula: CnfFormula) -> float:
    """q^2 read off the dense simulation of the formula circuit on the
    uniform superposition."""
    circuit = build_sat_circuit(formula)
    return success_probability(run(circuit, prepare_uniform(formula.n, circuit.num_qubits - formula.n)))


def reference_parse(text: str) -> tuple[int, list[list[int]]] | tuple[str, int]:
    """DIMACS read line by line and token by token, stopping at the first
    fault: (n, clauses as signed ints in file order), or (message, line) for
    the fault the parser must report. The end-of-input faults come last: an
    unterminated clause at the line of its first token, then a clause count
    that differs from the header's."""
    n = declared = None
    header_line = open_line = lineno = 0
    clauses: list[list[int]] = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line[:1] == "%":
            break
        if line == "" or line[0] == "c":
            continue
        if line[0] == "p":
            if n is not None:
                return "duplicate header", lineno
            fields = line.split()
            if len(fields) != 4 or fields[:2] != ["p", "cnf"]:
                return f"malformed header {line!r}", lineno
            try:
                n, declared = int(fields[2]), int(fields[3])
            except ValueError:
                return f"non-integer counts in header {line!r}", lineno
            if n < 0:
                return f"negative variable count {n}", lineno
            header_line = lineno
            continue
        if n is None:
            return f"clause data before 'p cnf' header: {line!r}", lineno
        for token in line.split():
            try:
                literal = int(token)
            except ValueError:
                return f"non-integer token {token!r}", lineno
            if abs(literal) > n:
                return f"variable {abs(literal)} exceeds declared n={n}", lineno
            if literal == 0:
                clauses.append(current)
                current = []
            else:
                if not current:
                    open_line = lineno
                current.append(literal)
    if n is None:
        return "empty input: no 'p cnf' header found", max(lineno, 1)
    if current:
        return "clause without terminating 0", open_line
    if len(clauses) != declared:
        return f"header declares {declared} clauses, found {len(clauses)}", header_line
    return n, clauses


def reference_gate_fault(num_qubits: int, gates) -> str | None:
    """The refusal a gate list must meet, found gate by gate and qubit by
    qubit: None for a valid list, else the message for the first gate holding
    a qubit that is not a plain int, or failing that the first gate, in gate
    order, of the wrong size, with a repeated qubit or with a qubit outside
    the register."""
    for gate in gates:
        for q in gate:
            if type(q) is not int:
                return f"qubit indices must be ints, got {tuple(gate)}"
    for gate in gates:
        gate = tuple(gate)
        if len(gate) == 0 or len(gate) > 3:
            return f"a gate holds 1 to 3 qubits, got {gate}"
        for i, q in enumerate(gate):
            if q in gate[i + 1:]:
                return f"qubit indices must be distinct, got {gate}"
        for q in gate:
            if q < 0 or q >= num_qubits:
                return f"gate {gate} out of range for {num_qubits} qubits"
    return None


PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def inflating_generator() -> Superoperator:
    """rho -> rho - Tr(rho) I/2: trace-preserving, well conditioned, but it
    drives every non-maximally-mixed state out of the positive cone."""
    v = vec(IDENTITY2)
    return Superoperator(np.eye(4) - 0.5 * np.outer(v, v.conj()), label="inflating")


def random_test_formula(rng: random.Random, max_n: int = 6, max_m: int = 8,
                        allow_empty_clause: bool = False) -> CnfFormula:
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    clauses = []
    for _ in range(m):
        lo = 0 if allow_empty_clause else 1
        k = rng.randint(lo, min(3, n))
        chosen = rng.sample(range(1, n + 1), k)
        clauses.append(Clause(Literal(v, rng.random() < 0.5) for v in chosen))
    return CnfFormula(n, clauses)


def random_3cnf(n: int, seed: int) -> CnfFormula:
    """Uniform random 3-CNF at the threshold ratio, m = round(4.26 n)."""
    rng = random.Random(seed)
    return CnfFormula(n, [
        Clause(Literal(v, rng.random() < 0.5) for v in rng.sample(range(1, n + 1), 3))
        for _ in range(round(4.26 * n))
    ])


def all_assignments(n: int):
    """Every assignment (eps_1, ..., eps_n) as a bit tuple, in basis-index order."""
    return itertools.product((0, 1), repeat=n)


def basis_index(bits: tuple[int, ...]) -> int:
    """The statevector's index of an assignment's inputs: eps_1 most significant."""
    k = 0
    for b in bits:
        k = (k << 1) | b
    return k


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    assert CORPUS_DIR.is_dir(), "bundled corpus missing; run python -m qsatlab.corpus corpus/"
    return CORPUS_DIR
