import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import reference_gate_fault
from qsatlab.errors import InvariantError, QubitCapError
from qsatlab.statevector import (
    MAX_QUBITS,
    Circuit,
    StateVector,
    _apply_inplace,
    prepare_uniform,
    run,
)


def random_state(rng: random.Random, n: int) -> StateVector:
    raw = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(1 << n)])
    return StateVector(n, raw / np.linalg.norm(raw))


def random_circuit(rng: random.Random, n: int, depth: int) -> Circuit:
    return Circuit(n, [tuple(rng.sample(range(n), rng.randint(1, min(n, 3)))) for _ in range(depth)])


# -- state preparation ----------------------------------------------------------


def test_prepare_uniform_single_qubit():
    sv = prepare_uniform(1, 0)
    assert np.allclose(sv.amps, [1 / math.sqrt(2)] * 2)


def test_prepare_uniform_with_workspace():
    sv = prepare_uniform(2, 1)
    expected = np.zeros(8)
    expected[[0, 2, 4, 6]] = 0.5  # work bit (last) stays 0
    assert np.allclose(sv.amps, expected)
    assert abs(np.linalg.norm(sv.amps) - 1) < 1e-12


def test_prepare_uniform_cap():
    with pytest.raises(QubitCapError, match="cap"):
        prepare_uniform(MAX_QUBITS + 1, 0)
    with pytest.raises(QubitCapError, match="cap"):
        StateVector.computational_basis(MAX_QUBITS + 1, 0)


@pytest.mark.parametrize("index", [-1, 4])
def test_computational_basis_refuses_an_index_outside_the_register(index):
    with pytest.raises(ValueError, match="out of range for 2 qubits"):
        StateVector.computational_basis(2, index)


# -- gate semantics ---------------------------------------------------------------


def apply_one(state: StateVector, gate: tuple[int, ...]) -> StateVector:
    return run(Circuit(state.num_qubits, [gate]), state)


def test_x_flips_basis_state():
    sv = StateVector.computational_basis(1, 0)
    assert np.allclose(apply_one(sv, (0,)).amps, [0, 1])


def test_qubit_zero_is_most_significant():
    sv = StateVector.computational_basis(2, 0)
    flipped = apply_one(sv, (0,))
    assert np.argmax(np.abs(flipped.amps)) == 2  # |10>
    flipped = apply_one(sv, (1,))
    assert np.argmax(np.abs(flipped.amps)) == 1  # |01>


def test_cnot_and_toffoli():
    sv = StateVector.computational_basis(2, 0b10)
    assert np.argmax(np.abs(apply_one(sv, (0, 1)).amps)) == 0b11
    sv = StateVector.computational_basis(3, 0b110)
    assert np.argmax(np.abs(apply_one(sv, (0, 1, 2)).amps)) == 0b111
    sv = StateVector.computational_basis(3, 0b100)
    assert np.argmax(np.abs(apply_one(sv, (0, 1, 2)).amps)) == 0b100


def test_swap_gate_temporary_is_half_a_state():
    # The last qubit interleaves the halves finest. Middle qubits also take
    # numpy's fixed 256 KiB iterator buffer, a quarter of this state's size.
    n, q = 16, 15
    rng = np.random.default_rng(16)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    expected = np.flip(amps.reshape([2] * n), axis=q).reshape(-1)
    tracemalloc.start()
    try:
        _apply_inplace(amps, n, (q,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.6 * amps.nbytes
    assert np.array_equal(amps, expected)


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


def test_unitarity_of_random_circuits():
    rng = random.Random(11)
    for trial in range(20):
        n = rng.randint(1, 5)
        sv = random_state(rng, n)
        out = run(random_circuit(rng, n, 40), sv)
        assert abs(np.linalg.norm(out.amps) - 1) < 1e-12


# -- circuits ------------------------------------------------------------------


def test_empty_circuit_is_identity():
    rng = random.Random(3)
    sv = random_state(rng, 3)
    assert np.allclose(run(Circuit(3), sv).amps, sv.amps)


def test_circuit_then_inverse_restores_state():
    rng = random.Random(5)
    for trial in range(10):
        n = rng.randint(2, 5)
        sv = random_state(rng, n)
        circ = random_circuit(rng, n, 30)
        inverse = Circuit(n, circ.gates[::-1])
        back = run(inverse, run(circ, sv))
        assert np.allclose(back.amps, sv.amps, atol=1e-10)


def test_run_dimension_mismatch():
    with pytest.raises(ValueError, match="width"):
        run(Circuit(3), prepare_uniform(2, 0))


def test_circuit_rejects_out_of_range_gates():
    with pytest.raises(ValueError):
        Circuit(2, [(0, 1, 2)])


def test_state_norm_validation():
    with pytest.raises(ValueError, match="norm"):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))


def test_norm_drift_in_run_is_an_invariant_error(monkeypatch):
    def leaky(amps, num_qubits, gate):
        amps *= 2.0
    monkeypatch.setattr("qsatlab.statevector._apply_inplace", leaky)
    with pytest.raises(InvariantError, match="circuit output: state norm"):
        run(Circuit(1, [(0,)]), prepare_uniform(1, 0))


def test_states_are_immutable():
    sv = prepare_uniform(2, 0)
    with pytest.raises(ValueError):
        sv.amps[0] = 0.0
