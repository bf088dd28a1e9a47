import math
import random
import tracemalloc

import numpy as np
import pytest

from qsatlab.errors import InvariantError
from qsatlab.sat_circuit import Circuit
from reference import MAX_QUBITS, QubitCapError, StateVector, _apply_inplace, prepare_uniform, run


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


def test_state_norm_validation():
    with pytest.raises(ValueError, match="norm"):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))


def test_norm_drift_in_run_is_an_invariant_error(monkeypatch):
    def leaky(amps, num_qubits, gate):
        amps *= 2.0
    monkeypatch.setattr("reference._apply_inplace", leaky)
    with pytest.raises(InvariantError, match="circuit output: state norm"):
        run(Circuit(1, [(0,)]), prepare_uniform(1, 0))


def test_states_are_immutable():
    sv = prepare_uniform(2, 0)
    with pytest.raises(ValueError):
        sv.amps[0] = 0.0
