import random

import numpy as np
import pytest

from conftest import PAULI_Z, anticommutator, commutator, inflating_generator
from qsatlab.adaptive import damping_generator
from qsatlab.dynamics import (
    _min_eigenvalue,
    DensityMatrix2,
    LOWERING,
    PROJ_EXCITED,
    Superoperator,
    left_mult,
    propagate,
    right_mult,
    vec,
)
from qsatlab.errors import InvariantError
from reference import (
    PROJ_GROUND,
    damping_closed_form,
    evolve,
    excited_state,
    expm_superop,
    ground_state,
    heisenberg_evolve,
    spectrum,
    trace_distance,
    unvec,
)


def random_density(rng: random.Random) -> DensityMatrix2:
    raw = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
    )
    m = raw @ raw.conj().T
    return DensityMatrix2(m / np.trace(m).real)


def random_hermitian(rng: random.Random) -> np.ndarray:
    raw = np.array(
        [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
    )
    return (raw + raw.conj().T) / 2


# -- vectorization convention --------------------------------------------------


def test_vec_is_column_stacking():
    m = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(m), np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(unvec(vec(m)), m)


def test_multiplication_superoperators():
    rng = random.Random(0)
    a, b = random_hermitian(rng), random_hermitian(rng)
    rho = random_density(rng).matrix
    assert np.allclose(unvec(left_mult(a) @ vec(rho)), a @ rho)
    assert np.allclose(unvec(right_mult(b) @ vec(rho)), rho @ b)


# -- algebra -------------------------------------------------------------------


def test_commutator_and_anticommutator_examples():
    assert np.allclose(commutator(PAULI_Z, PAULI_Z), np.zeros((2, 2)))
    assert np.allclose(anticommutator(PROJ_EXCITED, PROJ_EXCITED), 2 * PROJ_EXCITED)
    raising = LOWERING.conj().T
    by_hand = LOWERING @ raising - raising @ LOWERING  # = P0 - P1
    assert np.allclose(by_hand, PROJ_GROUND - PROJ_EXCITED)
    assert np.allclose(commutator(LOWERING, raising), PROJ_GROUND - PROJ_EXCITED)


# -- matrix exponential -----------------------------------------------------------


def test_expm_at_zero_is_identity():
    sup = Superoperator(np.diag([1.0, -2.0, 3.0, -4.0]).astype(complex))
    assert np.allclose(expm_superop(sup, 0.0).matrix, np.eye(4))


def test_expm_diagonal_case():
    lam = np.array([-1.0, -2.0, 0.5j, 0.0])
    sup = Superoperator(np.diag(lam))
    assert np.allclose(expm_superop(sup, 2.0).matrix, np.diag(np.exp(2.0 * lam)), atol=1e-12)


def test_expm_semigroup_law():
    rng = random.Random(13)
    for _ in range(20):
        m = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)] for _ in range(4)])
        sup = Superoperator(m)
        t1, t2 = rng.uniform(0, 2), rng.uniform(0, 2)
        combined = expm_superop(sup, t1 + t2).matrix
        product = expm_superop(sup, t1).matrix @ expm_superop(sup, t2).matrix
        assert np.max(np.abs(combined - product)) / max(np.max(np.abs(combined)), 1.0) < 1e-9


def test_defective_generator_is_refused_as_ill_conditioned():
    # A single Jordan block: trace-preserving (rows 0 and 3 vanish), but its
    # eigenvector matrix has cond ~ 5e291, so no exponential is attempted.
    m = np.zeros((4, 4), dtype=complex)
    m[1, 2] = 1.0
    sup = Superoperator(m, label="jordan")
    assert sup.is_trace_preserving()
    with pytest.raises(ValueError, match="jordan is too ill-conditioned"):
        expm_superop(sup, 1.0)
    with pytest.raises(ValueError, match="jordan is too ill-conditioned"):
        evolve(sup, DensityMatrix2.plus(), 1.0)
    with pytest.raises(ValueError, match="jordan is too ill-conditioned"):
        propagate(sup, DensityMatrix2.plus(), [0.0, 1.0])
    with pytest.raises(ValueError, match="jordan is too ill-conditioned"):
        heisenberg_evolve(sup, PROJ_EXCITED, 1.0)


def test_expm_rejects_negative_time():
    with pytest.raises(ValueError):
        expm_superop(Superoperator(np.zeros((4, 4))), -1.0)


# -- state evolution ----------------------------------------------------------------


def test_evolve_identity_cases():
    rng = random.Random(21)
    rho = random_density(rng)
    l_star, _ = damping_generator(1.0)
    assert np.allclose(evolve(l_star, rho, 0.0).matrix, rho.matrix, atol=1e-12)
    zero = Superoperator(np.zeros((4, 4)), label="zero")
    assert np.allclose(evolve(zero, rho, 7.5).matrix, rho.matrix, atol=1e-12)


def test_evolve_requires_trace_preserving_generator():
    leaky = Superoperator(np.diag([-1.0, 0, 0, 0]).astype(complex), label="leaky")
    with pytest.raises(ValueError, match="leaky.*not trace-preserving"):
        evolve(leaky, DensityMatrix2.plus(), 1.0)
    with pytest.raises(ValueError, match="leaky.*not trace-preserving"):
        propagate(leaky, DensityMatrix2.plus(), [0.0, 1.0])


def test_propagate_rejects_bad_times():
    l_star, _ = damping_generator(1.0)
    for ts in ([], [0.0, -1.0], [[0.0, 1.0]], [float("nan")], [float("inf")]):
        with pytest.raises(ValueError, match="times"):
            propagate(l_star, DensityMatrix2.plus(), ts)


def test_unphysical_evolution_is_an_invariant_error():
    inflating = inflating_generator()
    assert inflating.is_trace_preserving()
    with pytest.raises(InvariantError, match="eigenvalue"):
        propagate(inflating, DensityMatrix2.plus(), np.linspace(0.0, 1.0, 5))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvariantError, match="finite"):
        propagate(inflating, DensityMatrix2.plus(), [0.0, 1000.0])  # exp(1000) overflows
    with pytest.raises(InvariantError, match="eigenvalue"):
        evolve(inflating, DensityMatrix2.plus(), 1.0)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e6])
def test_closed_form_eigenvalue_floor_matches_eigvalsh(scale):
    rng = np.random.default_rng(11)
    raw = scale * (rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2)))
    herm = (raw + np.swapaxes(raw, -1, -2).conj()) / 2
    herm[:100, 0, 1] = herm[:100, 1, 0] = 0.0  # diagonal
    herm[100:200, 1, 1] = herm[100:200, 0, 0]  # degenerate diagonal
    herm[200] = np.eye(2)
    want = np.linalg.eigvalsh(herm)[:, 0]
    assert np.max(np.abs(_min_eigenvalue(herm) - want)) <= 1e-14 * scale
    assert _min_eigenvalue(herm[0]).shape == ()


def test_ground_state_is_invariant_under_damping():
    l_star, _ = damping_generator(1.0 + 0.5j)
    rho = ground_state()
    for t in (0.1, 1.0, 10.0, 50.0):
        assert np.allclose(evolve(l_star, rho, t).matrix, rho.matrix, atol=1e-12)


def test_evolve_matches_closed_form():
    rng = random.Random(5)
    for gamma in (0.25, 1.0, 2.0 + 1.5j):
        l_star, _ = damping_generator(gamma)
        for _ in range(5):
            rho = random_density(rng)
            for t in (0.0, 0.3, 1.7, 6.0):
                got = evolve(l_star, rho, t).matrix
                want = damping_closed_form(gamma, rho, t).matrix
                assert np.max(np.abs(got - want)) < 1e-9


def test_trajectories_stay_physical():
    l_star, _ = damping_generator(0.8 + 0.3j)
    rho = DensityMatrix2.plus()
    for t in np.linspace(0.0, 50.0, 26):
        out = evolve(l_star, rho, float(t))
        m = out.matrix
        assert abs(np.trace(m).real - 1.0) < 1e-9
        assert np.max(np.abs(m - m.conj().T)) < 1e-9
        assert np.min(np.linalg.eigvalsh(m)) > -1e-8


# -- spectra -----------------------------------------------------------------------


def test_spectrum_of_zero_generator():
    s = spectrum(Superoperator(np.zeros((4, 4))))
    assert s.zero_modes == 4
    assert s.gap == 0.0


def test_damping_spectrum_matches_analytic_rates():
    for im in (-1.0, 0.0, 1.0):
        l_star, _ = damping_generator(1.0 + 1j * im)
        s = spectrum(l_star)
        assert s.zero_modes == 1
        expected = sorted([0.0 + 0j, -2.0 + 0j, -1.0 + 1j * im, -1.0 - 1j * im],
                          key=lambda z: (z.real, z.imag))
        assert np.allclose(sorted(s.eigenvalues, key=lambda z: (z.real, z.imag)), expected, atol=1e-12)


def test_damping_gap_positive_across_sweep():
    for re in (0.1, 0.5, 1.0, 4.0, 10.0):
        l_star, _ = damping_generator(re)
        s = spectrum(l_star)
        assert s.zero_modes == 1
        assert s.gap == pytest.approx(re, rel=1e-12)
        assert s.gap > 0


# -- trace distance ---------------------------------------------------------------


def test_trace_distance_basics():
    rng = random.Random(3)
    rho = random_density(rng)
    assert trace_distance(rho.matrix, rho.matrix) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance(ground_state().matrix, excited_state().matrix) == pytest.approx(1.0)


def test_trace_distance_symmetry_and_triangle():
    rng = random.Random(17)
    for _ in range(30):
        a, b, c = (random_density(rng).matrix for _ in range(3))
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


# -- duality ------------------------------------------------------------------------


def test_schrodinger_heisenberg_duality():
    rng = random.Random(99)
    l_star, l_heis = damping_generator(1.0 + 0.5j)
    for _ in range(100):
        rho = random_density(rng)
        x = random_hermitian(rng)
        t = rng.uniform(0.0, 10.0)
        forward = np.trace(evolve(l_star, rho, t).matrix @ x)
        backward = np.trace(rho.matrix @ heisenberg_evolve(l_heis, x, t))
        assert abs(forward - backward) < 1e-8


def test_heisenberg_population_observable_decays():
    _, l_heis = damping_generator(1.0)
    obs = heisenberg_evolve(l_heis, PROJ_EXCITED, 1.0)
    assert obs[1, 1].real == pytest.approx(np.exp(-2.0), rel=1e-9)


# -- validation ----------------------------------------------------------------------


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="hermitian"):
        DensityMatrix2(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix2(np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityMatrix2(np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))
    with pytest.raises(ValueError, match="2x2"):
        DensityMatrix2(np.eye(3, dtype=complex) / 3)
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix2(np.full((2, 2), np.nan, dtype=complex))


def test_superoperator_validation():
    with pytest.raises(ValueError, match="4x4"):
        Superoperator(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        Superoperator(np.full((4, 4), np.nan))
