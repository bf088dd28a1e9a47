import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import all_assignments, brute_count, brute_eval, dense_q_squared, random_3cnf, random_test_formula
from qsatlab.cnf import Clause, CnfFormula, Literal, count_satisfying, eval_formula, lits, parse_dimacs
from qsatlab.errors import EnumerationCapError
from qsatlab.sat_circuit import (
    build_sat_circuit,
    collapse_to_qubit,
    count_result_ones,
    post_measure,
    required_ancillas,
    success_probability,
)
from qsatlab.statevector import Circuit, Gate, StateVector, prepare_uniform, run

EDGE_FORMULAS = [
    CnfFormula(2, [lits(1, 2)]),
    CnfFormula(1, [lits(1), lits(-1)]),
    CnfFormula(1, [lits(1), lits(1)]),
    CnfFormula(2, [lits(-1), lits(-1, 2)]),
    CnfFormula(3),
    CnfFormula(2, [Clause(), lits(1)]),
    CnfFormula(3, [lits(1, -1), lits(2, 3)]),
    CnfFormula(2, [lits(1, -1), lits(2, -2)]),
    CnfFormula(3, [lits(1, 2, 3), lits(-1, -2, -3), lits(2)]),
    CnfFormula(4, [lits(v) for v in range(1, 5)]),
]


def _check_all_basis_inputs(formula: CnfFormula) -> None:
    """Result qubit must reproduce eval_formula on every basis input, with the
    inputs themselves restored."""
    circuit, layout = build_sat_circuit(formula)
    for assignment in all_assignments(formula.n):
        e = assignment.to_index()
        basis = StateVector.computational_basis(layout.num_qubits, e << layout.mu)
        out = run(circuit, basis)
        idx = int(np.argmax(np.abs(out.amps)))
        assert abs(out.amps[idx]) == pytest.approx(1.0)
        assert idx & 1 == eval_formula(formula, assignment)
        assert idx >> layout.mu == e
        assert eval_formula(formula, assignment) == int(brute_eval(formula, assignment.bits))


def test_basis_behaviour_on_edge_formulas():
    for formula in EDGE_FORMULAS:
        _check_all_basis_inputs(formula)


def test_basis_behaviour_on_random_formulas():
    rng = random.Random(424242)
    done = 0
    while done < 40:
        formula = random_test_formula(rng, max_n=6, max_m=10, allow_empty_clause=True)
        if formula.n + required_ancillas(formula) > 16:
            continue
        _check_all_basis_inputs(formula)
        done += 1


def test_uniform_run_branches():
    """One run on the uniform input checks every assignment branch at once."""
    formula = CnfFormula(3, [lits(1, -2), lits(2, 3), lits(-3)])
    circuit, layout = build_sat_circuit(formula)
    out = run(circuit, prepare_uniform(formula.n, layout.mu))
    per_branch = np.abs(out.amps.reshape(1 << formula.n, -1)) ** 2
    for assignment in all_assignments(formula.n):
        e = assignment.to_index()
        weight_by_result = per_branch[e].reshape(-1, 2).sum(axis=0)
        assert weight_by_result.sum() == pytest.approx(2.0**-formula.n, abs=1e-12)
        assert weight_by_result[eval_formula(formula, assignment)] == pytest.approx(
            2.0**-formula.n, abs=1e-12
        )


def test_gate_set_is_x_cnot_toffoli_only():
    for formula in EDGE_FORMULAS:
        circuit, _ = build_sat_circuit(formula)
        assert all(g.kind in {"X", "CNOT", "TOFFOLI"} for g in circuit.gates)


def test_ancilla_budget_linear_in_formula_size():
    rng = random.Random(7)
    for _ in range(50):
        f = random_test_formula(rng, max_n=8, max_m=12)
        mu = required_ancillas(f)
        assert mu <= f.n * max(f.num_clauses, 1) + 2
    assert required_ancillas(CnfFormula(2, [lits(1, 2)])) == 2
    assert required_ancillas(CnfFormula(3)) == 1
    assert required_ancillas(CnfFormula(4, [lits(v) for v in range(1, 5)])) == 4


def test_result_qubit_is_last():
    f = CnfFormula(3, [lits(1, 2), lits(-3)])
    _, layout = build_sat_circuit(f)
    assert layout.result_qubit == layout.num_qubits - 1
    assert layout.work_qubits == range(3, layout.num_qubits - 1)
    assert layout.mu == required_ancillas(f)


def test_success_probability_examples():
    f = CnfFormula(2, [lits(1, 2)])
    circuit, layout = build_sat_circuit(f)
    out = run(circuit, prepare_uniform(2, layout.mu))
    p = success_probability(out, layout)
    assert p == pytest.approx(brute_count(f) / 4, abs=1e-12)
    assert p == pytest.approx(0.75, abs=1e-12)

    unsat = CnfFormula(1, [lits(1), lits(-1)])
    circuit, layout = build_sat_circuit(unsat)
    out = run(circuit, prepare_uniform(1, layout.mu))
    assert success_probability(out, layout) == 0.0  # exact: gates only permute

    empty = CnfFormula(2)
    circuit, layout = build_sat_circuit(empty)
    out = run(circuit, prepare_uniform(2, layout.mu))
    assert success_probability(out, layout) == pytest.approx(1.0, abs=1e-12)


def test_probability_identity_random_corpus():
    rng = random.Random(31337)
    done = 0
    while done < 60:
        formula = random_test_formula(rng, max_n=8, max_m=12, allow_empty_clause=True)
        if formula.n + required_ancillas(formula) > 16:
            continue
        circuit, layout = build_sat_circuit(formula)
        out = run(circuit, prepare_uniform(formula.n, layout.mu))
        expected = count_satisfying(formula).q_squared
        assert abs(success_probability(out, layout) - float(expected)) < 1e-10
        done += 1


@given(st.integers(0, 2**32 - 1))
def test_count_result_ones_matches_dense_and_brute_force(seed):
    formula = random_test_formula(random.Random(seed), max_n=6, max_m=10, allow_empty_clause=True)
    assume(formula.n + required_ancillas(formula) <= 16)
    circuit, layout = build_sat_circuit(formula)
    count = count_result_ones(circuit, layout)
    assert count == brute_count(formula)
    dense = success_probability(run(circuit, prepare_uniform(formula.n, layout.mu)), layout)
    assert abs(dense - count / 2**formula.n) < 1e-10


def _count_peak_bytes(formula: CnfFormula) -> tuple[int, int]:
    """The circuit count and the tracemalloc peak of counting alone."""
    circuit, layout = build_sat_circuit(formula)
    tracemalloc.start()
    try:
        count = count_result_ones(circuit, layout)
        return count, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_result_ones_spans_only_the_variables_it_reads():
    """A formula over the six lane variables of n = 24 never widens a value
    past one word: the count runs in a few KiB, not the 2 MiB of all 2^24
    inputs."""
    clauses = [(19, -20, 21), (-19, 22), (23, -24), (-21, -22, 24), (20, 23)]
    formula = CnfFormula(24, [lits(*c) for c in clauses])
    count, peak = _count_peak_bytes(formula)
    assert peak < 64 * 1024
    lanes = CnfFormula(6, [lits(*(k - 18 if k > 0 else k + 18 for k in c)) for c in clauses])
    assert count == count_satisfying(formula).r == brute_count(lanes) << 18


def test_threshold_count_matches_oracle_in_little_memory():
    """Random 3-CNF at ratio 4.26: the circuit count equals the oracle at the
    enumeration cap, and at n = 20 it peaks under 2 MiB (one 2^20-bit array
    for each of its 275 qubits would take 34 MiB)."""
    formula = random_3cnf(24, 1)
    assert count_result_ones(*build_sat_circuit(formula)) == count_satisfying(formula).r == 35
    formula = random_3cnf(20, 7)
    count, peak = _count_peak_bytes(formula)
    assert count == count_satisfying(formula).r
    assert peak < 2 * 2**20


def _formula_over(n: int, rng: random.Random, max_m: int = 8) -> CnfFormula:
    """Random clauses of 0..3 literals over exactly n variables."""
    clauses = []
    for _ in range(rng.randint(0, max_m)):
        shortest = 0 if n == 0 or rng.random() < 0.05 else 1
        chosen = rng.sample(range(1, n + 1), rng.randint(shortest, min(3, n)))
        clauses.append(Clause(Literal(v, rng.random() < 0.5) for v in chosen))
    return CnfFormula(n, clauses)


def _packed_counts(formula: CnfFormula) -> tuple[int, int]:
    return count_satisfying(formula).r, count_result_ones(*build_sat_circuit(formula))


@given(st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_packed_counts_mask_unused_lanes(n, seed):
    formula = _formula_over(n, random.Random(seed))
    expected = brute_count(formula)
    assert _packed_counts(formula) == (expected, expected)


@given(st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_packed_counts_agree_up_to_n12(n, seed):
    formula = _formula_over(n, random.Random(seed), max_m=12)
    expected = brute_count(formula)
    assert _packed_counts(formula) == (expected, expected)


@given(st.integers(0, 2**32 - 1))
def test_packed_circuit_count_matches_dense_simulation(seed):
    formula = random_test_formula(random.Random(seed), max_n=10, max_m=6, allow_empty_clause=True)
    assume(formula.n + required_ancillas(formula) <= 16)
    count = count_result_ones(*build_sat_circuit(formula))
    assert abs(dense_q_squared(formula) - count / 2**formula.n) < 1e-10


def test_packed_counts_match_brute_force_on_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.cnf")):
        formula = parse_dimacs(path.read_text())
        expected = brute_count(formula)
        assert _packed_counts(formula) == (expected, expected), path.name


def test_oracle_and_circuit_counts_agree_at_n20():
    """The two counters share no code: clause subcubes against the gate list
    run on packed input columns."""
    formula = random_3cnf(20, 7)
    r = count_satisfying(formula).r
    assert r == count_result_ones(*build_sat_circuit(formula))
    assert 0 < r < 2**20


def test_count_result_ones_rejects_non_permutation_gates():
    _, layout = build_sat_circuit(CnfFormula(2, [lits(1, 2)]))
    circuit = Circuit(layout.num_qubits, [Gate.h(0)])
    with pytest.raises(ValueError, match="H is not a basis permutation"):
        count_result_ones(circuit, layout)


def test_input_marginal_stays_uniform():
    formula = CnfFormula(3, [lits(1, 2), lits(-2, 3)])
    circuit, layout = build_sat_circuit(formula)
    out = run(circuit, prepare_uniform(3, layout.mu))
    marginal = (np.abs(out.amps) ** 2).reshape(1 << 3, -1).sum(axis=1)
    assert np.allclose(marginal, 1 / 8, atol=1e-12)


def test_post_measure_keeps_only_result_one_branch():
    formula = CnfFormula(2, [lits(1, 2)])
    circuit, layout = build_sat_circuit(formula)
    out = run(circuit, prepare_uniform(2, layout.mu))
    projected = post_measure(out, layout)
    assert projected is not None
    assert abs(np.linalg.norm(projected.amps) - 1) < 1e-12
    assert np.all(projected.amps.reshape(-1, 2)[:, 0] == 0)
    kept = np.abs(projected.amps.reshape(-1, 2)[:, 1]) ** 2
    assert kept.sum() == pytest.approx(1.0, abs=1e-12)


def test_post_measure_unsat_branch_is_null():
    formula = CnfFormula(1, [lits(1), lits(-1)])
    circuit, layout = build_sat_circuit(formula)
    out = run(circuit, prepare_uniform(1, layout.mu))
    assert post_measure(out, layout) is None


def test_post_measure_two_branch_state():
    from qsatlab.sat_circuit import CircuitLayout

    q = 0.25
    amps = np.zeros(4, dtype=complex)
    amps[0b00] = math.sqrt(1 - q**2)
    amps[0b11] = q
    layout = CircuitLayout(n_input=1, work_qubits=range(1, 1), result_qubit=1, mu=1)
    projected = post_measure(StateVector(2, amps), layout)
    assert projected is not None
    assert projected.amps[0b11] == pytest.approx(1.0)


def test_cap_error_reports_requirements():
    wide = CnfFormula(25, [lits(*range(1, 9)), lits(*range(9, 17)), lits(*range(17, 26))])
    circuit, layout = build_sat_circuit(wide)  # the register width is not capped
    assert layout.num_qubits == 25 + required_ancillas(wide) > 26
    with pytest.raises(EnumerationCapError, match=r"2\^25 assignments exceeds the cap of 2\^24"):
        count_result_ones(circuit, layout)


def test_collapse_to_qubit():
    assert collapse_to_qubit(0.0) == (1.0, 0.0)
    a0, a1 = collapse_to_qubit(Fraction(3, 4))
    assert (a0, a1) == (pytest.approx(0.5), pytest.approx(math.sqrt(3) / 2))
    a0, a1 = collapse_to_qubit(Fraction(1, 256))
    assert (a0, a1) == (pytest.approx(math.sqrt(255 / 256)), pytest.approx(1 / 16))
    assert collapse_to_qubit(1.0 + 5e-13) == (0.0, 1.0)
    with pytest.raises(ValueError, match="outside"):
        collapse_to_qubit(1.5)
    with pytest.raises(ValueError, match="outside"):
        collapse_to_qubit(-0.2)
