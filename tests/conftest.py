"""Shared fixtures: an independent truth-table oracle and formula generators.

The oracle here deliberately avoids the package's vectorized enumeration and
the circuit path: assignments come from itertools.product and clauses are
evaluated with any()/all() directly, so expected values asserted in the tests
are computed along a route the code under test never touches. bit_parallel_count
takes the same oracle past n = 12, with each variable a 2^n-bit Python int
column and each clause the OR of its literals' columns. Both read a
formula's clauses as signed integers through reference.decode. dense_q_squared
is the one circuit-path helper: the reading of q^2 off the dense simulator in
reference.py, kept as the cross-check for the permutation evaluation that
statevector mode uses.
reference_gate_fault names the refusal of a gate list one gate at a time, the
reading the circuit's whole-list check is held to.
The 2x2 algebra helpers (PAULI_Z, commutator, anticommutator) serve the tests'
by-hand checks of the superoperator builders; the package itself needs none.
"""

from __future__ import annotations

import functools
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from qsatlab.cnf import CnfFormula
from qsatlab.dynamics import IDENTITY2, Superoperator, vec
from qsatlab.sat_circuit import build_sat_circuit
from reference import decode, prepare_uniform, run, success_probability

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "corpus"


def brute_eval(formula: CnfFormula, bits: tuple[int, ...]) -> bool:
    """Reference semantics, written independently of the package: literal k
    holds when variable |k| is 1 and k > 0, or 0 and k < 0."""
    return all(any((bits[abs(k) - 1] == 1) == (k > 0) for k in clause) for clause in decode(formula))


def brute_count(formula: CnfFormula) -> int:
    return sum(
        1
        for bits in itertools.product((0, 1), repeat=formula.n)
        if brute_eval(formula, bits)
    )


@functools.cache
def _truth_columns(n: int) -> tuple[int, ...]:
    """Column v - 1 is variable v's value under every assignment as a 2^n-bit
    int: bit k is bit v - 1 of k, so the column repeats 2^(v-1) zeros then
    2^(v-1) ones. Built by doubling a run of periods."""
    columns = []
    for v in range(1, n + 1):
        run = 1 << (v - 1)
        column, width = ((1 << run) - 1) << run, 2 * run
        while width < 1 << n:
            column, width = column | column << width, 2 * width
        columns.append(column)
    return tuple(columns)


def bit_parallel_count(formula: CnfFormula) -> int:
    """Satisfying assignments of the formula, every assignment at once: a
    clause is the OR of its literals' columns (a negated literal the
    complement) and the formula the AND of its clauses."""
    every = (1 << (1 << formula.n)) - 1
    columns = _truth_columns(formula.n)
    models = every
    for clause in decode(formula):
        holds = 0
        for k in clause:
            column = columns[abs(k) - 1]
            holds |= column if k > 0 else every ^ column
        models &= holds
    return models.bit_count()


def dense_q_squared(formula: CnfFormula) -> float:
    """q^2 read off the dense simulation of the formula circuit on the
    uniform superposition."""
    circuit = build_sat_circuit(formula)
    return success_probability(run(circuit, prepare_uniform(formula.n, circuit.num_qubits - formula.n)))


def ascii_int(token: str) -> int:
    """A DIMACS number: an optional sign and ASCII digits. int() alone also
    takes digit-group underscores and non-ASCII digits."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a DIMACS number: {token!r}")
    return int(token)


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
                n, declared = ascii_int(fields[2]), ascii_int(fields[3])
            except ValueError:
                return f"non-integer counts in header {line!r}", lineno
            if n < 0:
                return f"negative variable count {n}", lineno
            if declared < 0:
                return f"negative clause count {declared}", lineno
            header_line = lineno
            continue
        if n is None:
            return f"clause data before 'p cnf' header: {line!r}", lineno
        for token in line.split():
            try:
                literal = ascii_int(token)
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
        clauses.append(tuple(-v if rng.random() < 0.5 else v for v in chosen))
    return CnfFormula(n, clauses)


def random_3cnf(n: int, seed: int) -> CnfFormula:
    """Uniform random 3-CNF at the threshold ratio, m = round(4.26 n)."""
    rng = random.Random(seed)
    return CnfFormula(n, [
        tuple(-v if rng.random() < 0.5 else v for v in rng.sample(range(1, n + 1), 3))
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
    assert CORPUS_DIR.is_dir(), "bundled corpus missing; run PYTHONPATH=src python tests/corpus.py corpus/"
    return CORPUS_DIR
