import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsatlab.adaptive import (
    FIT_FLOOR,
    HORIZON_FACTOR,
    PROBE,
    SAMPLE_STEPS,
    THRESHOLD,
    adapt,
    classify,
    damping_generator,
    fit_exponential_rate,
    horizon_for,
)
from qsatlab.dynamics import DensityMatrix2, left_mult, propagate, right_mult, vec
from reference import (
    PROJ_GROUND,
    coherence,
    damping_closed_form,
    evolve,
    excited_population,
    excited_state,
    ground_state,
    purity,
    spectrum,
    trace_distance,
    unvec,
)

GAMMA_GRID = [complex(re, im) for re in (0.1, 1.0, 10.0) for im in (-1.0, 0.0, 1.0)]


def damping(q_squared=Fraction(1, 2), gamma=1.0):
    return adapt(q_squared, 0, 2, gamma)


def coherent(gamma=1.0):
    return adapt(Fraction(0), 0, 2, gamma)


def von_neumann(h_diagonal) -> np.ndarray:
    h = np.diag(h_diagonal).astype(complex)
    return -1j * (left_mult(h) - right_mult(h))


# -- input validation -------------------------------------------------------------


def test_input_amplitudes_must_be_normalized():
    """The summary state sqrt(1-q^2)|0> + q|1> is normalized iff q^2 lies in
    [0, 1]. No float forgiveness at the edges: 1 + 5e-13 is refused like 3/2."""
    for q_squared in (Fraction(0), Fraction(16, 25), Fraction(1)):
        adapt(q_squared, 0, 2, 1.0)
    for q_squared in (Fraction(-1, 4), Fraction(5, 4), -0.2, 1.5, 1.0 + 5e-13, float("nan")):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            adapt(q_squared, 0, 2, 1.0)


def test_hamiltonian_ordering():
    for q_squared in (Fraction(0), Fraction(1, 2), Fraction(1)):
        with pytest.raises(ValueError, match="E0 < E1"):
            adapt(q_squared, 2, 2, 1.0)


def test_susceptibility_needs_positive_real_part():
    with pytest.raises(ValueError, match="positive"):
        horizon_for(-0.5)
    with pytest.raises(ValueError, match="positive"):
        horizon_for(1j)


# -- branch selection ---------------------------------------------------------------


def test_adapt_generic_superposition_gives_damping():
    generator, trivially_sat = damping(Fraction(1, 256))
    assert not trivially_sat
    assert np.array_equal(generator.matrix, damping_generator(1.0).matrix)
    assert np.allclose(np.sort(np.linalg.eigvals(generator.matrix).real), [-2.0, -1.0, -1.0, 0.0])


def test_adapt_ground_input_gives_coherent_shifted_hamiltonian():
    generator, trivially_sat = coherent()
    assert not trivially_sat
    assert np.array_equal(generator.matrix, von_neumann([1.0, 2.0]))


def test_adapt_excited_input_is_trivially_sat():
    generator, trivially_sat = adapt(Fraction(1), 0, 2, 1.0)
    assert trivially_sat
    assert np.array_equal(generator.matrix, von_neumann([0.0, 3.0]))


def test_adapt_branches_on_exact_zero_amplitudes():
    damped = damping_generator(1.0).matrix
    for q_squared in (Fraction(1, 10**26), Fraction(1, 2**24), Fraction(2**24 - 1, 2**24)):
        generator, trivially_sat = damping(q_squared)
        assert np.array_equal(generator.matrix, damped) and not trivially_sat
    assert classify(*damping(Fraction(1, 10**26)), 20.0).satisfiable
    assert not np.array_equal(coherent()[0].matrix, damped)


def test_damping_branch_ignores_amplitude_values():
    small, _ = damping(Fraction(1, 256))
    large, _ = damping(Fraction(2, 5))
    assert np.array_equal(small.matrix, large.matrix)
    probe = DensityMatrix2.plus()
    for t in (0.5, 3.0, 11.0):
        a = evolve(small, probe, t)
        b = evolve(large, probe, t)
        assert np.array_equal(a.matrix, b.matrix)


# -- the damping generator -----------------------------------------------------------


def test_ground_state_is_exactly_invariant():
    for gamma in (0.1, 1.0, 10.0, 1.0 + 1.0j, 0.1 - 1.0j):
        l_star = damping_generator(gamma)
        image = unvec(l_star.matrix @ vec(PROJ_GROUND))
        assert np.max(np.abs(image)) < 1e-14
        assert l_star.is_trace_preserving()


def test_generator_spectrum_unique_invariant_state():
    for re in (0.1, 1.0, 10.0):
        for im in (-1.0, 0.0, 1.0):
            l_star = damping_generator(complex(re, im))
            s = spectrum(l_star)
            assert s.zero_modes == 1
            assert s.gap >= min(re, 2 * re) - 1e-9


@given(st.floats(0.01, 100.0), st.floats(-100.0, 100.0), st.integers(-10, 10), st.integers(1, 10),
       st.sampled_from([Fraction(1, 3), Fraction(0), Fraction(1)]))
def test_classify_damps_where_the_spectrum_has_one_zero_mode_and_a_gap(re, im, e0, spacing, q_squared):
    """A sampling-free reading of damping against oscillation: classify's
    damped equals "one zero mode and a gap > 0", and on a damped verdict the
    fitted rate of p1 equals twice the gap."""
    gamma = complex(re, im)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "shifted Hamiltonian is degenerate", UserWarning)
        generator, trivially_sat = adapt(q_squared, e0, e0 + spacing, gamma)
    verdict = classify(generator, trivially_sat, horizon_for(gamma))
    s = spectrum(generator)
    assert verdict.damped == (s.zero_modes == 1 and s.gap > 0)
    if verdict.damped:
        assert verdict.fitted_rate == pytest.approx(2 * s.gap, rel=1e-9, abs=0)


def test_excited_population_decay_value():
    # d/dt rho_11 = -2 Re(gamma) rho_11 -> e^-2 at t = 1, gamma = 1
    l_star = damping_generator(1.0)
    rho_t = evolve(l_star, excited_state(), 1.0)
    assert excited_population(rho_t) == pytest.approx(math.exp(-2.0), rel=1e-9)


def test_rates_exposed():
    """The closed form decays p1 at 2 Re(gamma) and the coherence at Re(gamma),
    and rotates the coherence at Im(gamma)."""
    for t in (0.5, 1.0, 3.0):
        rho = damping_closed_form(0.5 + 2.0j, DensityMatrix2.plus(), t)
        assert excited_population(rho) == pytest.approx(0.5 * math.exp(-1.0 * t), rel=1e-12)
        assert abs(coherence(rho)) == pytest.approx(0.5 * math.exp(-0.5 * t), rel=1e-12)
        assert cmath.phase(coherence(rho)) == pytest.approx(cmath.phase(cmath.exp(2.0j * t)), abs=1e-12)


def test_closed_form_matches_generator_path():
    rng = random.Random(2)
    g = 0.7 + 0.4j
    l_star = damping_generator(g)
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
    """The coherent branch adds one unit to the level the summary state sits
    in; E1 = E0 + 1 then makes the shifted levels degenerate."""
    assert np.array_equal(adapt(Fraction(0), -1, 3, 1.0)[0].matrix, von_neumann([0.0, 3.0]))
    assert np.array_equal(adapt(Fraction(1), -1, 3, 1.0)[0].matrix, von_neumann([-1.0, 4.0]))

    with pytest.warns(UserWarning, match="degenerate"):
        generator, _ = adapt(Fraction(0), 0, 1, 1.0)
    assert np.array_equal(generator.matrix, np.zeros((4, 4)))


def test_effective_hamiltonian_strictness():
    with pytest.raises(ValueError, match="non-integer"):
        adapt(Fraction(0), 0.25, 2.0, 1.0)
    with pytest.raises(ValueError, match="non-integer"):
        adapt(Fraction(1), 0.25, 2.0, 1.0)
    generator, _ = adapt(Fraction(1, 2), 0.25, 2.0, 1.0)  # the damping branch reads no energy
    assert np.array_equal(generator.matrix, damping_generator(1.0).matrix)


def test_coherent_populations_are_constant():
    generator, _ = coherent()
    probe = DensityMatrix2.plus()
    for t in np.linspace(0.0, 15.0, 12):
        rho = evolve(generator, probe, float(t))
        assert excited_population(rho) == pytest.approx(0.5, abs=1e-12)


def test_coherent_phase_rotation_and_period():
    generator, _ = coherent()
    probe = DensityMatrix2.plus()
    rho = evolve(generator, probe, 0.7)
    # rho_01(t) = e^{i * delta * t} * rho_01(0) for H_eff = diag(1, 2)
    assert coherence(rho) == pytest.approx(0.5 * cmath.exp(1j * 0.7), abs=1e-12)
    for t in (0.0, 1.3, 4.0):
        a = evolve(generator, probe, t)
        b = evolve(generator, probe, t + 2 * math.pi)
        assert trace_distance(a.matrix, b.matrix) < 1e-9


def test_coherent_invariants():
    generator, _ = coherent()
    probe = DensityMatrix2.plus()
    for t in np.linspace(0.0, 20.0, 17):
        rho = evolve(generator, probe, float(t))
        assert abs(coherence(rho)) == pytest.approx(0.5, abs=1e-9)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)


# -- classification ---------------------------------------------------------------------


def test_classifier_flags_damping_as_sat():
    verdict = classify(*damping(Fraction(1, 256)), 20.0)
    assert verdict.damped and verdict.satisfiable
    assert verdict.fitted_rate == pytest.approx(2.0, rel=0.01)
    assert verdict.tail_mean < 1e-6


def test_classifier_flags_oscillation_as_unsat():
    verdict = classify(*coherent(), 20.0)
    assert not verdict.damped and not verdict.satisfiable
    assert verdict.tail_mean == pytest.approx(0.5, abs=1e-9)
    assert verdict.fitted_rate is None


def test_classifier_trivially_sat_branch():
    verdict = classify(*adapt(Fraction(1), 0, 2, 1.0), 20.0)
    assert not verdict.damped and verdict.satisfiable


def test_classifier_separation_across_gamma_grid():
    for re in (0.1, 1.0, 10.0):
        for im in (-1.0, 0.0, 1.0):
            gamma = complex(re, im)
            horizon = horizon_for(gamma)
            assert horizon == 20.0 / re
            sat = classify(*damping(Fraction(1, 1024), gamma), horizon)
            unsat = classify(*coherent(gamma), horizon)
            assert sat.satisfiable and not unsat.satisfiable


def test_fixed_protocol_certifies_damping_and_fits_every_sample():
    """The pipeline's tail starts where damping leaves p1 = p1(0) e^-HORIZON_FACTOR,
    under the threshold, and the last damping sample still lies above the
    rate fit's floor."""
    assert math.exp(-HORIZON_FACTOR) < THRESHOLD
    verdict = classify(*damping(), horizon_for(1.0))
    p1 = verdict.trajectory[:, 1]
    assert len(p1) == SAMPLE_STEPS + 1 == 401
    assert verdict.damped and np.all(p1 > FIT_FLOOR)


def test_classifier_rejects_weak_probe():
    """classify samples only PROBE, which carries both population and coherence
    signal (p1 >= 0.25 and |rho01| >= 0.25), so the coherent branch shows its
    precession in the trajectory; the excited state has no coherence to rotate."""
    excited = excited_state()
    assert excited_population(excited) == 1.0 and coherence(excited) == 0
    assert excited_population(PROBE) >= 0.25 and abs(coherence(PROBE)) >= 0.25
    _, p1, coh_abs, coh_phase = classify(*coherent(), horizon_for(1.0)).trajectory.T
    assert np.allclose(p1, 0.5, rtol=0, atol=1e-12) and np.allclose(coh_abs, 0.5, rtol=0, atol=1e-12)
    assert np.ptp(coh_phase) > 1.0


def test_classifier_config_validation():
    """horizon_for refuses, in this order: a gamma that is not finite with a
    positive real part, a Re(gamma) whose rate fit leaves the float range, and
    an Im(gamma) whose phase at the horizon does."""
    for gamma in (complex(math.inf, 0.0), complex(1.0, math.nan), 0.0, complex(-1.0, 1e308)):
        with pytest.raises(ValueError, match="finite with a positive real part"):
            horizon_for(gamma)
    for re in (5e-324, 1e-308, 1e-160, 1e164, 1e308):
        with pytest.raises(ValueError, match="rate fit"):
            horizon_for(complex(re, 1e308))
    with pytest.raises(ValueError, match="phase"):
        horizon_for(complex(1.0, 1e307))
    assert horizon_for(complex(1.0, 8.9e306)) == 20.0
    assert horizon_for(2.0) == 10.0


def test_trajectory_is_recorded():
    verdict = classify(*damping(Fraction(1, 100)), 5.0)
    assert len(verdict.trajectory) == 401
    assert verdict.trajectory.shape == (401, 4) and verdict.trajectory.dtype == np.float64
    assert not verdict.trajectory.flags.writeable
    t, p1, coh_abs, coh_phase = verdict.trajectory.T
    assert np.array_equal(t, 0.0125 * np.arange(401))
    assert p1[0] == pytest.approx(0.5)
    assert coh_abs[0] == pytest.approx(0.5)
    assert np.allclose(p1, 0.5 * np.exp(-2.0 * t), rtol=0, atol=1e-12)
    assert np.allclose(coh_abs, 0.5 * np.exp(-t), rtol=0, atol=1e-12)
    assert np.max(np.abs(coh_phase)) < 1e-12


@pytest.mark.parametrize("branch", ["damping", "coherent", "trivially_sat"])
def test_propagate_matches_evolve_across_gamma_grid(branch):
    q_squared = {"damping": Fraction(1, 2**10), "coherent": Fraction(0), "trivially_sat": Fraction(1)}[branch]
    probe = DensityMatrix2.plus()
    for gamma in GAMMA_GRID:
        generator, _ = adapt(q_squared, 0, 2, gamma)
        horizon = 20.0 / gamma.real
        ts = np.arange(0.0, horizon + horizon / 800, horizon / 400)  # the classifier's samples
        states = propagate(generator, probe, ts)
        assert states.shape == (401, 2, 2)
        for t, state in zip(ts, states):
            assert np.max(np.abs(state - evolve(generator, probe, float(t)).matrix)) < 1e-12
            if branch == "damping":
                assert np.max(np.abs(state - damping_closed_form(gamma, probe, float(t)).matrix)) < 1e-12
        if branch == "damping":
            # classify's evidence is the closed form to within 4 ulp: np.exp is
            # CPU-dispatched, so exact equality is not asserted.
            t, p1, coh_abs, coh_phase = classify(generator, False, horizon_for(gamma)).trajectory.T
            assert np.array_equal(t, ts)
            closed = [damping_closed_form(gamma, PROBE, float(s)) for s in t]
            eps = np.finfo(float).eps
            ref_p1 = np.array([excited_population(rho) for rho in closed])
            ref_abs = np.array([abs(coherence(rho)) for rho in closed])
            ref_phase = np.array([cmath.phase(coherence(rho)) for rho in closed])
            assert np.all(np.abs(p1 - ref_p1) <= 4 * eps * np.abs(ref_p1)), gamma
            assert np.all(np.abs(coh_abs - ref_abs) <= 4 * eps * np.abs(ref_abs)), gamma
            assert np.all(np.abs(coh_phase - ref_phase) <= 4 * eps * math.pi), gamma


# -- convergence rates -------------------------------------------------------------------


def test_convergence_exponent_depends_on_probe():
    l_star = damping_generator(1.0)
    ground = ground_state().matrix

    ts = np.linspace(1.0, 6.0, 26)
    pop_probe = [trace_distance(evolve(l_star, excited_state(), float(t)).matrix, ground) for t in ts]
    assert fit_exponential_rate(ts, pop_probe) == pytest.approx(2.0, rel=0.02)

    ts = np.linspace(5.0, 10.0, 26)
    mixed_probe = [trace_distance(evolve(l_star, DensityMatrix2.plus(), float(t)).matrix, ground) for t in ts]
    assert fit_exponential_rate(ts, mixed_probe) == pytest.approx(1.0, rel=0.02)


def test_fit_requires_two_points():
    with pytest.raises(ValueError):
        fit_exponential_rate([1.0, 2.0], [0.0, 0.0])
