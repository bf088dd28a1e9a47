import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (all_assignments, basis_index, brute_count, brute_eval, dense_q_squared, random_3cnf,
                      random_test_formula, reference_gate_fault)
from qsatlab.cnf import (
    _ROW_VARS,
    CnfFormula,
    count_satisfying,
    parse_dimacs,
    required_ancillas,
)
from qsatlab.adaptive import adapt, damping_generator
from qsatlab.errors import EnumerationCapError
from qsatlab import pipeline
from qsatlab.sat_circuit import Circuit, build_sat_circuit, count_result_ones
from reference import StateVector, prepare_uniform, run, success_probability

EDGE_FORMULAS = [
    CnfFormula(2, [(1, 2)]),
    CnfFormula(1, [(1,), (-1,)]),
    CnfFormula(1, [(1,), (1,)]),
    CnfFormula(2, [(-1,), (-1, 2)]),
    CnfFormula(3),
    CnfFormula(2, [(), (1,)]),
    CnfFormula(3, [(1, -1), (2, 3)]),
    CnfFormula(2, [(1, -1), (2, -2)]),
    CnfFormula(3, [(1, 2, 3), (-1, -2, -3), (2,)]),
    CnfFormula(4, [(v,) for v in range(1, 5)]),
]


def test_gate_validation():
    with pytest.raises(ValueError, match="1 to 3 qubits"):
        Circuit(4, [()])
    with pytest.raises(ValueError, match="1 to 3 qubits"):
        Circuit(4, [(0, 1, 2, 3)])
    with pytest.raises(ValueError, match="distinct"):
        Circuit(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, [(-1, 0)])
    with pytest.raises(ValueError, match="out of range"):
        Circuit(2, [(2,)])
    for gate in [(0.5,), (1.0, 2), (True, 2)]:
        with pytest.raises(ValueError, match="must be ints"):
            Circuit(4, [(0,), gate])


FAULTS = ("empty", "four", "repeat", "negative", "too_high", "bool", "float", "int64")


@st.composite
def gate_lists_with_faults(draw):
    """A valid gate list on 1-8 qubits with 0-3 faulty gates inserted."""
    num_qubits = draw(st.integers(1, 8))
    gate = st.integers(1, min(3, num_qubits)).flatmap(
        lambda k: st.permutations(range(num_qubits)).map(lambda p: tuple(p[:k])))
    gates = draw(st.lists(gate, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        base, fault = draw(gate), draw(st.sampled_from(FAULTS))
        at = draw(st.integers(0, len(base) - 1))
        q = base[at]
        swap = {"negative": -draw(st.integers(1, 3)), "too_high": num_qubits + draw(st.integers(0, 2)),
                "bool": bool(q % 2), "float": float(q), "int64": np.int64(q)}
        bad = {"empty": (), "four": tuple(draw(st.lists(st.integers(0, num_qubits - 1), min_size=4, max_size=4))),
               "repeat": (q, q) if len(base) == 1 else (q, q, base[0])}.get(fault)
        if bad is None:
            bad = (*base[:at], swap[fault], *base[at + 1:])
        gates.insert(draw(st.integers(0, len(gates))), bad)
    return num_qubits, gates


@given(gate_lists_with_faults())
def test_whole_list_check_names_the_per_gate_fault(case):
    """The circuit accepts exactly the lists the per-gate reference accepts
    and otherwise refuses with its message: the first fault in gate order,
    type faults first."""
    num_qubits, gates = case
    want = reference_gate_fault(num_qubits, gates)
    if want is None:
        assert Circuit(num_qubits, gates).gates == tuple(gates)
    else:
        with pytest.raises(ValueError) as refusal:
            Circuit(num_qubits, gates)
        assert str(refusal.value) == want


def test_circuit_is_immutable():
    circ = Circuit(2, [[0, 1], (1,)])
    assert circ.gates == ((0, 1), (1,))
    with pytest.raises(AttributeError):
        circ.gates = ()
    with pytest.raises(AttributeError):
        circ.num_qubits = 3


def test_circuit_rejects_out_of_range_gates():
    with pytest.raises(ValueError):
        Circuit(2, [(0, 1, 2)])


def _check_all_basis_inputs(formula: CnfFormula) -> None:
    """Result qubit must reproduce the formula's value on every basis input,
    with the inputs themselves restored."""
    circuit = build_sat_circuit(formula)
    mu = circuit.num_qubits - formula.n
    for bits in all_assignments(formula.n):
        e = basis_index(bits)
        basis = StateVector.computational_basis(circuit.num_qubits, e << mu)
        out = run(circuit, basis)
        idx = int(np.argmax(np.abs(out.amps)))
        assert abs(out.amps[idx]) == pytest.approx(1.0)
        assert idx & 1 == brute_eval(formula, bits)
        assert idx >> mu == e


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
    formula = CnfFormula(3, [(1, -2), (2, 3), (-3,)])
    circuit = build_sat_circuit(formula)
    out = run(circuit, prepare_uniform(formula.n, circuit.num_qubits - formula.n))
    per_branch = np.abs(out.amps.reshape(1 << formula.n, -1)) ** 2
    for bits in all_assignments(formula.n):
        weight_by_result = per_branch[basis_index(bits)].reshape(-1, 2).sum(axis=0)
        assert weight_by_result.sum() == pytest.approx(2.0**-formula.n, abs=1e-12)
        assert weight_by_result[int(brute_eval(formula, bits))] == pytest.approx(
            2.0**-formula.n, abs=1e-12
        )


def test_gate_set_is_x_cnot_toffoli_only():
    """Every gate holds 1-3 distinct qubits: an X, CNOT or Toffoli."""
    for formula in EDGE_FORMULAS:
        circuit = build_sat_circuit(formula)
        assert all(1 <= len(g) == len(set(g)) <= 3 for g in circuit.gates)


def test_ancilla_budget_linear_in_formula_size():
    rng = random.Random(7)
    for _ in range(50):
        f = random_test_formula(rng, max_n=8, max_m=12)
        mu = required_ancillas(f)
        assert mu <= f.n * max(f.num_clauses, 1) + 2
    assert required_ancillas(CnfFormula(2, [(1, 2)])) == 2
    assert required_ancillas(CnfFormula(3)) == 1
    assert required_ancillas(CnfFormula(4, [(v,) for v in range(1, 5)])) == 4


def test_result_qubit_is_last():
    f = CnfFormula(3, [(1, 2), (-3,)])
    circuit = build_sat_circuit(f)
    width = circuit.num_qubits
    assert width == 3 + required_ancillas(f)
    assert circuit.gates[-1][-1] == width - 1  # the last gate writes the result
    assert all(q < width - 1 for g in circuit.gates[:-1] for q in g)  # nothing else touches it


def test_success_probability_examples():
    f = CnfFormula(2, [(1, 2)])
    circuit = build_sat_circuit(f)
    out = run(circuit, prepare_uniform(2, circuit.num_qubits - 2))
    p = success_probability(out)
    assert p == pytest.approx(brute_count(f) / 4, abs=1e-12)
    assert p == pytest.approx(0.75, abs=1e-12)

    unsat = CnfFormula(1, [(1,), (-1,)])
    circuit = build_sat_circuit(unsat)
    out = run(circuit, prepare_uniform(1, circuit.num_qubits - 1))
    assert success_probability(out) == 0.0  # exact: gates only permute

    empty = CnfFormula(2)
    circuit = build_sat_circuit(empty)
    out = run(circuit, prepare_uniform(2, circuit.num_qubits - 2))
    assert success_probability(out) == pytest.approx(1.0, abs=1e-12)


def test_collapse_to_qubit():
    """The result qubit collapses the register to the summary state
    sqrt(1-q^2)|0> + q|1>, whose exact weight q^2 = count/2^n selects adapt's
    branch: no float rounds a small SAT weight to 0 or a large one to 1."""
    cases = [
        (CnfFormula(1, [(1,), (-1,)]), Fraction(0)),
        (CnfFormula(2, [(1, 2)]), Fraction(3, 4)),
        (CnfFormula(8, [(v,) for v in range(1, 9)]), Fraction(1, 256)),
        (CnfFormula(2), Fraction(1)),
    ]
    damping = damping_generator(1.0).matrix
    for formula, expected in cases:
        q_squared = pipeline._circuit_count(formula)[0]
        assert type(q_squared) is Fraction and q_squared == expected
        generator, trivially_sat = adapt(q_squared, 0, 2, 1.0)
        assert trivially_sat == (q_squared == 1)
        assert np.array_equal(generator.matrix, damping) == (0 < q_squared < 1)


def test_probability_identity_random_corpus():
    rng = random.Random(31337)
    done = 0
    while done < 60:
        formula = random_test_formula(rng, max_n=8, max_m=12, allow_empty_clause=True)
        if formula.n + required_ancillas(formula) > 16:
            continue
        expected = count_satisfying(formula).q_squared
        assert abs(dense_q_squared(formula) - float(expected)) < 1e-10
        done += 1


@given(st.integers(0, 2**32 - 1))
def test_count_result_ones_matches_dense_and_brute_force(seed):
    formula = random_test_formula(random.Random(seed), max_n=6, max_m=10, allow_empty_clause=True)
    assume(formula.n + required_ancillas(formula) <= 16)
    count = count_result_ones(build_sat_circuit(formula), formula.n)
    assert count == brute_count(formula)
    assert abs(dense_q_squared(formula) - count / 2**formula.n) < 1e-10


def _count_peak_bytes(formula: CnfFormula) -> tuple[int, int]:
    """The circuit count and the tracemalloc peak of counting alone."""
    circuit = build_sat_circuit(formula)
    tracemalloc.start()
    try:
        count = count_result_ones(circuit, formula.n)
        return count, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_result_ones_spans_only_the_variables_it_reads():
    """A formula over the six lane variables of n = 24 never widens a value
    past one word: the count runs in a few KiB, not the 2 MiB of all 2^24
    inputs."""
    clauses = [(19, -20, 21), (-19, 22), (23, -24), (-21, -22, 24), (20, 23)]
    formula = CnfFormula(24, clauses)
    count, peak = _count_peak_bytes(formula)
    assert peak < 64 * 1024
    lanes = CnfFormula(6, [[k - 18 if k > 0 else k + 18 for k in c] for c in clauses])
    assert count == count_satisfying(formula).r == brute_count(lanes) << 18


def test_threshold_count_matches_oracle_in_little_memory():
    """Random 3-CNF at ratio 4.26: the circuit count equals the oracle at the
    enumeration cap, and at n = 20 it peaks under 2 MiB (one 2^20-bit array
    for each of its 275 qubits would take 34 MiB)."""
    formula = random_3cnf(24, 1)
    assert count_result_ones(build_sat_circuit(formula), formula.n) == count_satisfying(formula).r == 35
    formula = random_3cnf(22, 7)
    assert count_result_ones(build_sat_circuit(formula), formula.n) == count_satisfying(formula).r == 9
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
        clauses.append(tuple(-v if rng.random() < 0.5 else v for v in chosen))
    return CnfFormula(n, clauses)


def _packed_counts(formula: CnfFormula) -> tuple[int, int]:
    return count_satisfying(formula).r, count_result_ones(build_sat_circuit(formula), formula.n)


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
    count = count_result_ones(build_sat_circuit(formula), formula.n)
    assert abs(dense_q_squared(formula) - count / 2**formula.n) < 1e-10


def test_packed_counts_match_brute_force_on_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*.cnf")):
        formula = parse_dimacs(path.read_text())
        expected = brute_count(formula)
        assert _packed_counts(formula) == (expected, expected), path.name


@st.composite
def _row_layout_formulas(draw, n: int) -> CnfFormula:
    """Clauses placed on the oracle's row layout at n variables: outer (axis),
    inner (row) and lane variables. Several clauses share one set of outer
    pins; one is a tautology on an outer variable and one on an inner
    variable; some hold lane literals alone; one in five formulas also holds
    the empty clause."""
    words = n - 6
    k = min(_ROW_VARS, words)
    outer, inner, lane, every = (range(1, words - k + 1), range(words - k + 1, words + 1),
                                 range(words + 1, n + 1), range(1, n + 1))

    def some(pool, most):
        chosen = draw(st.lists(st.sampled_from(pool), max_size=most, unique=True)) if pool else []
        return [v if draw(st.booleans()) else -v for v in chosen]

    pins = some(outer, 2)
    clauses = [pins + some(inner, 2) + some(lane, 2) for _ in range(draw(st.integers(2, 4)))]
    clauses += [some(lane, 3) for _ in range(draw(st.integers(1, 3)))]
    clauses += [some(every, 3) for _ in range(draw(st.integers(0, 4)))]
    for pool in (outer, inner):
        if pool:
            v = draw(st.sampled_from(pool))
            clauses.append([v, -v, *some(every, 2)])
    if draw(st.integers(0, 4)) == 0:
        clauses.append([])
    order = draw(st.permutations(range(len(clauses))))
    return CnfFormula(n, [clauses[i] for i in order])


@pytest.mark.parametrize("n", range(5 + _ROW_VARS, 11 + _ROW_VARS))
@settings(max_examples=6)
@given(data=st.data())
def test_packed_counts_agree_where_outer_axes_appear(n, data):
    """From one variable short of a full row (no outer axis) to four outer axes."""
    formula = data.draw(_row_layout_formulas(n))
    assert count_satisfying(formula).r == count_result_ones(build_sat_circuit(formula), formula.n)


def test_packed_counts_agree_when_a_group_spans_batches():
    """200 clauses pin no outer axis at n = 16, more than one batch of rows holds."""
    rng = random.Random(0)

    def clause(lowest):
        return tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(lowest, 17), 6))

    formula = CnfFormula(16, [clause(3) for _ in range(200)] + [clause(1) for _ in range(100)])
    assert count_satisfying(formula).r == count_result_ones(build_sat_circuit(formula), formula.n) == 697


def test_oracle_and_circuit_counts_agree_at_n20():
    """The two counters share no code: clause subcubes against the gate list
    run on packed input columns."""
    formula = random_3cnf(20, 7)
    r = count_satisfying(formula).r
    assert r == count_result_ones(build_sat_circuit(formula), formula.n)
    assert 0 < r < 2**20


def test_input_marginal_stays_uniform():
    formula = CnfFormula(3, [(1, 2), (-2, 3)])
    circuit = build_sat_circuit(formula)
    out = run(circuit, prepare_uniform(3, circuit.num_qubits - 3))
    marginal = (np.abs(out.amps) ** 2).reshape(1 << 3, -1).sum(axis=1)
    assert np.allclose(marginal, 1 / 8, atol=1e-12)


def test_cap_error_reports_requirements():
    wide = CnfFormula(25, [range(1, 9), range(9, 17), range(17, 26)])
    circuit = build_sat_circuit(wide)  # the register width is not capped
    assert circuit.num_qubits == 25 + required_ancillas(wide) > 26
    with pytest.raises(EnumerationCapError, match=r"2\^25 assignments exceeds the cap of 2\^24"):
        count_result_ones(circuit, wide.n)

