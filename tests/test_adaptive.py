import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qsatlab.adaptive import (
    FIT_FLOOR,
    HORIZON_FACTOR,
    SAMPLE_STEPS,
    ClassifierConfig,
    CoherentDynamics,
    DampingDynamics,
    InputAmplitudes,
    Susceptibility,
    TwoLevelHamiltonian,
    adapt,
    classifier_for,
    classify,
    collapse_to_qubit,
    damping_closed_form,
    damping_generator,
    damping_rates,
    effective_hamiltonian,
    fit_exponential_rate,
)
from qsatlab.dynamics import (
    DensityMatrix2,
    PROJ_GROUND,
    evolve,
    propagate,
    spectrum,
    trace_distance,
    unvec,
    vec,
)

H_DEFAULT = TwoLevelHamiltonian(0, 2)
G_UNIT = Susceptibility(1.0)
GAMMA_GRID = [complex(re, im) for re in (0.1, 1.0, 10.0) for im in (-1.0, 0.0, 1.0)]


def amplitudes_from_q2(q2: float) -> InputAmplitudes:
    return InputAmplitudes(math.sqrt(1 - q2), math.sqrt(q2))


# -- input validation -------------------------------------------------------------


def test_input_amplitudes_must_be_normalized():
    InputAmplitudes(1.0, 0.0)
    InputAmplitudes(0.6, 0.8j)
    with pytest.raises(ValueError, match="not 1"):
        InputAmplitudes(1.0, 0.5)


def test_hamiltonian_ordering():
    with pytest.raises(ValueError, match="E0 < E1"):
        TwoLevelHamiltonian(2, 2)


def test_susceptibility_needs_positive_real_part():
    with pytest.raises(ValueError, match="positive"):
        Susceptibility(-0.5)
    with pytest.raises(ValueError, match="positive"):
        Susceptibility(1j)


# -- branch selection ---------------------------------------------------------------


def test_adapt_generic_superposition_gives_damping():
    psi = InputAmplitudes(math.sqrt(1 - 1 / 256), 1 / 16)
    dyn = adapt(psi, H_DEFAULT, G_UNIT)
    assert isinstance(dyn, DampingDynamics)
    assert dyn.rates.population_decay == 2.0


def test_adapt_ground_input_gives_coherent_shifted_hamiltonian():
    dyn = adapt(InputAmplitudes(1.0, 0.0), H_DEFAULT, G_UNIT)
    assert isinstance(dyn, CoherentDynamics)
    assert not dyn.trivially_sat
    assert np.allclose(dyn.hamiltonian, np.diag([1.0, 2.0]))
    assert dyn.delta == 1.0 and dyn.period == pytest.approx(2 * math.pi)


def test_adapt_excited_input_is_trivially_sat():
    dyn = adapt(InputAmplitudes(0.0, 1.0), H_DEFAULT, G_UNIT)
    assert isinstance(dyn, CoherentDynamics)
    assert dyn.trivially_sat
    assert np.allclose(dyn.hamiltonian, np.diag([0.0, 3.0]))


def test_adapt_branches_on_exact_zero_amplitudes():
    tiny = adapt(InputAmplitudes(math.sqrt(1 - 1e-26), 1e-13), H_DEFAULT, G_UNIT)
    assert isinstance(tiny, DampingDynamics)
    assert classify(tiny).satisfiable
    smallest = InputAmplitudes(*collapse_to_qubit(Fraction(1, 2**24)))
    assert isinstance(adapt(smallest, H_DEFAULT, G_UNIT), DampingDynamics)
    assert collapse_to_qubit(Fraction(0)) == (1.0, 0.0)
    assert collapse_to_qubit(Fraction(1)) == (0.0, 1.0)


def test_damping_branch_ignores_amplitude_values():
    small = adapt(amplitudes_from_q2(1 / 256), H_DEFAULT, G_UNIT)
    large = adapt(amplitudes_from_q2(0.4), H_DEFAULT, G_UNIT)
    assert np.array_equal(small.generator.matrix, large.generator.matrix)
    probe = DensityMatrix2.plus()
    for t in (0.5, 3.0, 11.0):
        a = evolve(small.generator, probe, t)
        b = evolve(large.generator, probe, t)
        assert np.array_equal(a.matrix, b.matrix)


# -- the damping generator -----------------------------------------------------------


def test_ground_state_is_exactly_invariant():
    for gamma in (0.1, 1.0, 10.0, 1.0 + 1.0j, 0.1 - 1.0j):
        l_star, _ = damping_generator(Susceptibility(gamma))
        image = unvec(l_star.matrix @ vec(PROJ_GROUND))
        assert np.max(np.abs(image)) < 1e-14
        assert l_star.is_trace_preserving()


def test_generator_spectrum_unique_invariant_state():
    for re in (0.1, 1.0, 10.0):
        for im in (-1.0, 0.0, 1.0):
            l_star, _ = damping_generator(Susceptibility(complex(re, im)))
            s = spectrum(l_star)
            assert s.zero_modes == 1
            assert s.gap >= min(re, 2 * re) - 1e-9


def test_excited_population_decay_value():
    # d/dt rho_11 = -2 Re(gamma) rho_11 -> e^-2 at t = 1, gamma = 1
    l_star, _ = damping_generator(G_UNIT)
    rho_t = evolve(l_star, DensityMatrix2.excited(), 1.0)
    assert rho_t.p1 == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_rates_exposed():
    rates = damping_rates(Susceptibility(0.5 + 2.0j))
    assert rates.population_decay == 1.0
    assert rates.coherence_decay == 0.5
    assert rates.coherence_rotation == 2.0


def test_closed_form_matches_generator_path():
    rng = random.Random(2)
    g = Susceptibility(0.7 + 0.4j)
    l_star, _ = damping_generator(g)
    for _ in range(5):
        p = rng.uniform(0, 1)
        c = 0.9 * math.sqrt(p * (1 - p))  # keeps the matrix PSD
        rho = DensityMatrix2(np.array([[1 - p, c], [c, p]], dtype=complex))
        for t in (0.1, 1.0, 4.0):
            assert (
                np.max(np.abs(evolve(l_star, rho, t).matrix - damping_closed_form(g, rho, t).matrix))
                < 1e-9
            )


# -- the coherent branch ---------------------------------------------------------------


def test_effective_hamiltonian_examples():
    h_eff, period = effective_hamiltonian(TwoLevelHamiltonian(0, 2))
    assert np.allclose(h_eff, np.diag([1.0, 2.0]))
    assert period == pytest.approx(2 * math.pi)

    with pytest.warns(UserWarning, match="degenerate"):
        h_eff, period = effective_hamiltonian(TwoLevelHamiltonian(0, 1))
    assert period is None


def test_effective_hamiltonian_strictness():
    aperiodic = TwoLevelHamiltonian(0.25, 2.0)
    with pytest.raises(ValueError, match="non-integer"):
        effective_hamiltonian(aperiodic)


def test_coherent_populations_are_constant():
    dyn = adapt(InputAmplitudes(1.0, 0.0), H_DEFAULT, G_UNIT)
    probe = DensityMatrix2.plus()
    for t in np.linspace(0.0, 15.0, 12):
        rho = evolve(dyn.generator, probe, float(t))
        assert rho.p1 == pytest.approx(0.5, abs=1e-12)


def test_coherent_phase_rotation_and_period():
    dyn = adapt(InputAmplitudes(1.0, 0.0), H_DEFAULT, G_UNIT)
    probe = DensityMatrix2.plus()
    rho = evolve(dyn.generator, probe, 0.7)
    # rho_01(t) = e^{i * delta * t} * rho_01(0) for H_eff = diag(1, 2)
    assert rho.coherence == pytest.approx(0.5 * cmath.exp(1j * 0.7), abs=1e-12)
    for t in (0.0, 1.3, 4.0):
        a = evolve(dyn.generator, probe, t)
        b = evolve(dyn.generator, probe, t + 2 * math.pi)
        assert trace_distance(a, b) < 1e-9


def test_coherent_invariants():
    dyn = adapt(InputAmplitudes(1.0, 0.0), H_DEFAULT, G_UNIT)
    probe = DensityMatrix2.plus()
    for t in np.linspace(0.0, 20.0, 17):
        rho = evolve(dyn.generator, probe, float(t))
        assert abs(rho.coherence) == pytest.approx(0.5, abs=1e-9)
        assert rho.purity == pytest.approx(1.0, abs=1e-10)


# -- classification ---------------------------------------------------------------------


def test_classifier_flags_damping_as_sat():
    dyn = adapt(amplitudes_from_q2(1 / 256), H_DEFAULT, G_UNIT)
    verdict = classify(dyn, ClassifierConfig(horizon=20.0, dt=0.05, threshold=0.1))
    assert verdict.damped and verdict.satisfiable
    assert verdict.fitted_rate == pytest.approx(2.0, rel=0.01)
    assert verdict.tail_mean < 1e-6


def test_classifier_flags_oscillation_as_unsat():
    dyn = adapt(InputAmplitudes(1.0, 0.0), H_DEFAULT, G_UNIT)
    verdict = classify(dyn, ClassifierConfig(horizon=20.0, dt=0.05, threshold=0.1))
    assert not verdict.damped and not verdict.satisfiable
    assert verdict.tail_mean == pytest.approx(0.5, abs=1e-9)
    assert verdict.fitted_rate is None


def test_classifier_trivially_sat_branch():
    dyn = adapt(InputAmplitudes(0.0, 1.0), H_DEFAULT, G_UNIT)
    verdict = classify(dyn)
    assert not verdict.damped and verdict.satisfiable


def test_classifier_separation_across_gamma_grid():
    for re in (0.1, 1.0, 10.0):
        for im in (-1.0, 0.0, 1.0):
            g = Susceptibility(complex(re, im))
            horizon = 20.0 / re
            cfg = ClassifierConfig(horizon=horizon, dt=horizon / 400, threshold=0.1)
            sat = classify(adapt(amplitudes_from_q2(1 / 1024), H_DEFAULT, g), cfg)
            unsat = classify(adapt(InputAmplitudes(1.0, 0.0), H_DEFAULT, g), cfg)
            assert sat.satisfiable and not unsat.satisfiable


def test_fixed_protocol_certifies_damping_and_fits_every_sample():
    """The pipeline's tail starts where damping leaves p1 = p1(0) e^-HORIZON_FACTOR,
    under the threshold, and the last damping sample still lies above the
    rate fit's floor."""
    cfg = classifier_for(G_UNIT)
    assert math.exp(-HORIZON_FACTOR) < cfg.threshold
    verdict = classify(adapt(amplitudes_from_q2(0.5), H_DEFAULT, G_UNIT), cfg)
    p1 = verdict.trajectory[:, 1]
    assert len(p1) == SAMPLE_STEPS + 1 == 401
    assert verdict.damped and np.all(p1 > FIT_FLOOR)


def test_classifier_rejects_weak_probe():
    dyn = adapt(amplitudes_from_q2(0.5), H_DEFAULT, G_UNIT)
    with pytest.raises(ValueError, match="probe"):
        classify(dyn, ClassifierConfig(probe=DensityMatrix2.excited()))


def test_classifier_config_validation():
    with pytest.raises(ValueError):
        ClassifierConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        ClassifierConfig(horizon=1.0, dt=2.0)
    with pytest.raises(ValueError):
        ClassifierConfig(threshold=1.5)


def test_trajectory_is_recorded():
    dyn = adapt(amplitudes_from_q2(0.01), H_DEFAULT, G_UNIT)
    verdict = classify(dyn, ClassifierConfig(horizon=5.0, dt=0.5, threshold=0.1))
    assert len(verdict.trajectory) == 11
    assert verdict.trajectory.shape == (11, 4) and verdict.trajectory.dtype == np.float64
    assert not verdict.trajectory.flags.writeable
    t, p1, coh_abs, coh_phase = verdict.trajectory.T
    assert np.array_equal(t, 0.5 * np.arange(11))
    assert p1[0] == pytest.approx(0.5)
    assert coh_abs[0] == pytest.approx(0.5)
    assert np.allclose(p1, 0.5 * np.exp(-2.0 * t), rtol=0, atol=1e-12)
    assert np.allclose(coh_abs, 0.5 * np.exp(-t), rtol=0, atol=1e-12)
    assert np.max(np.abs(coh_phase)) < 1e-12


@pytest.mark.parametrize("branch", ["damping", "coherent", "trivially_sat"])
def test_propagate_matches_evolve_across_gamma_grid(branch):
    psi = {
        "damping": amplitudes_from_q2(2.0**-10),
        "coherent": InputAmplitudes(1.0, 0.0),
        "trivially_sat": InputAmplitudes(0.0, 1.0),
    }[branch]
    probe = DensityMatrix2.plus()
    for gamma in GAMMA_GRID:
        g = Susceptibility(gamma)
        dyn = adapt(psi, H_DEFAULT, g)
        horizon = 20.0 / gamma.real
        ts = np.arange(0.0, horizon + horizon / 800, horizon / 400)  # the classifier's samples
        states = propagate(dyn.generator, probe, ts)
        assert states.shape == (401, 2, 2)
        for t, state in zip(ts, states):
            assert np.max(np.abs(state - evolve(dyn.generator, probe, float(t)).matrix)) < 1e-12
            if branch == "damping":
                assert np.max(np.abs(state - damping_closed_form(g, probe, float(t)).matrix)) < 1e-12


# -- convergence rates -------------------------------------------------------------------


def test_convergence_exponent_depends_on_probe():
    g = Susceptibility(1.0)
    l_star, _ = damping_generator(g)
    ground = DensityMatrix2.ground()

    ts = np.linspace(1.0, 6.0, 26)
    pop_probe = [trace_distance(evolve(l_star, DensityMatrix2.excited(), float(t)), ground) for t in ts]
    assert fit_exponential_rate(ts, pop_probe) == pytest.approx(2.0, rel=0.02)

    ts = np.linspace(5.0, 10.0, 26)
    mixed_probe = [trace_distance(evolve(l_star, DensityMatrix2.plus(), float(t)), ground) for t in ts]
    assert fit_exponential_rate(ts, mixed_probe) == pytest.approx(1.0, rel=0.02)


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        fit_exponential_rate([1.0, 2.0], [0.0, 0.0])
