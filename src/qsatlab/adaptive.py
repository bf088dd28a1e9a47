"""State-adaptive open-system amplifier.

The single-qubit summary state sqrt(1-q^2)*e0 + q*e1 selects the dynamics of a
probe qubit coupled to an environment. With 0 < q^2 < 1 the coupling reduces
(independently of the value of q^2) to a dipole interaction whose reduced
dynamics is a damping master equation

    d/dt rho = i*Im(gamma)*[rho, P1] + Re(gamma)*(2 D rho D+ - {P1, rho})

with D = |e0><e1| and P1 = D+ D = |e1><e1|: the ground state is the unique
invariant state and everything relaxes to it exponentially. With q = 0 the
coupling is diagonal and the probe merely precesses under a shifted two-level
Hamiltonian: populations stay put and the coherence rotates periodically. SAT
vs UNSAT is read off as damping vs oscillation of the probe.

The master equation above carries the GKSL-normalized 2*D rho D+ term, which
tests/test_collision.py derives as the limit of a collision model.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dynamics import (
    DensityMatrix2,
    LOWERING,
    PROJ_EXCITED,
    Superoperator,
    left_mult,
    propagate,
    right_mult,
    sandwich,
)


def damping_generator(gamma: complex) -> tuple[Superoperator, Superoperator]:
    """Build the (state-propagating, observable-propagating) generator pair.

    The observable generator is the adjoint of the state generator, so it is
    taken as the conjugate transpose rather than built term by term.
    """
    gamma = complex(gamma)
    p1_left, p1_right = left_mult(PROJ_EXCITED), right_mult(PROJ_EXCITED)
    recycle = sandwich(LOWERING, LOWERING.conj().T)  # rho -> D rho D+
    rotation = 1j * gamma.imag * (p1_right - p1_left)  # i Im(g) [rho, P1]
    dissipation = gamma.real * (2.0 * recycle - p1_left - p1_right)
    state = Superoperator(rotation + dissipation, label="damping state generator")
    return state, Superoperator(state.matrix.conj().T, label="damping observable generator")


def adapt(q_squared: Fraction, e0: int, e1: int, gamma: complex) -> tuple[Superoperator, bool]:
    """The generator the summary state switches on, and whether the input is
    trivially SAT. The tests are exact on the rational q^2:
    - 0 < q^2 < 1: the damping generator, which does not depend on q^2 at all.
    - q^2 = 0: the von Neumann generator -i[H, .] of diag(E0, E1) with one
      unit added to E0, the level the summary state sits in (the UNSAT
      signature).
    - q^2 = 1: the unit goes to E1, and the input is trivially SAT since its
      weight is already maximal.
    Integer energies make the coherent evolution exactly periodic, with
    period 2*pi over the shifted splitting; any other is refused.
    """
    if not 0 <= q_squared <= 1:
        raise ValueError(f"q_squared={q_squared} outside [0, 1]")
    if not e0 < e1:
        raise ValueError(f"need E0 < E1, got E0={e0}, E1={e1}")
    if 0 < q_squared < 1:
        return damping_generator(gamma)[0], False
    if e0 != int(e0) or e1 != int(e1):
        raise ValueError(f"non-integer energies (E0={e0}, E1={e1}) give an aperiodic evolution")
    shifted_level = 0 if q_squared == 0 else 1
    h_eff = np.diag([float(e0), float(e1)]).astype(complex)
    h_eff[shifted_level, shifted_level] += 1.0
    if h_eff[1, 1] == h_eff[0, 0]:
        warnings.warn(
            "shifted Hamiltonian is degenerate (E1 = E0 + 1): the probe is "
            "stationary; prefer E1 >= E0 + 2",
            stacklevel=2,
        )
    generator = Superoperator(-1j * (left_mult(h_eff) - right_mult(h_eff)), label="von Neumann generator")
    return generator, shifted_level == 1


@dataclass(frozen=True)
class DynVerdict:
    """Classifier outcome plus the sampled evidence: (T, 4) columns t, p1, coh_abs, coh_phase."""

    damped: bool
    satisfiable: bool
    tail_mean: float
    fitted_rate: float | None
    trajectory: np.ndarray

    def __post_init__(self):
        if self.damped and not self.satisfiable:
            raise ValueError("a damped verdict implies satisfiable")

    def summary(self) -> dict:
        """The report's amplifier verdict block."""
        return {"satisfiable": self.satisfiable, "damped": self.damped,
                "tail_mean": self.tail_mean, "fitted_rate": self.fitted_rate}

    @functools.cached_property
    def csv(self) -> str:
        """The sampled probe trajectory as CSV text, rendered on first read."""
        rows = [",".join(map(repr, row)) for row in self.trajectory.tolist()]
        return "\n".join(["t,p1,coh_abs,coh_phase"] + rows) + "\n"


FIT_FLOOR = 1e-280  # samples at or below it are left out of the rate fit


def fit_exponential_rate(ts, ys) -> float:
    """Decay constant from a log-linear least-squares fit of ys ~ exp(-r t)."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = ys > FIT_FLOOR
    if int(mask.sum()) < 2:
        raise ValueError("need at least two positive samples to fit a rate")
    slope, _ = np.polyfit(ts[mask], np.log(ys[mask]), 1)
    return float(-slope)


SAMPLE_STEPS = 400  # steps of the classifier over its horizon
HORIZON_FACTOR = 20.0  # the horizon in units of 1/Re(gamma)
THRESHOLD = 0.1  # damped where the tail mean of p1 falls under THRESHOLD * p1(0)
PROBE = DensityMatrix2.plus()  # carries both population and coherence signal


def horizon_for(gamma: complex) -> float:
    """The classifier's horizon HORIZON_FACTOR / Re(gamma), sampled in
    SAMPLE_STEPS steps; ValueError where its readout cannot be trusted. On the
    damping branch p1 = exp(-2 Re(gamma) t)/2:
    - The tail starts where p1 = p1(0) e^-HORIZON_FACTOR, under THRESHOLD, so
      damping is certified; the coherent branch keeps p1 = p1(0).
    - Every sample keeps p1 >= p1(0) e^-40 > FIT_FLOOR, so the rate fit divides
      all N + 1 sample times by sqrt(sum (k dt)^2), which leaves the float
      range unless 1.73e-152 < Re(gamma) < 1.27e163.
    - The propagator multiplies each sample time by the generator's
      eigenvalues, among them -Re(gamma) +- i Im(gamma), so the last sample's
      phase |Im(gamma)| N dt must stay finite: at Re(gamma) = 1 that keeps
      |Im(gamma)| below 8.988e306.
    Each refusal holds whichever branch an input selects; gamma must first be
    finite with a positive real part.
    """
    if not (cmath.isfinite(gamma) and gamma.real > 0):
        raise ValueError(f"gamma must be finite with a positive real part, got {gamma}")
    horizon = HORIZON_FACTOR / gamma.real
    last = SAMPLE_STEPS * (horizon / SAMPLE_STEPS)
    times_squared = last * last * ((SAMPLE_STEPS + 1) * (2 * SAMPLE_STEPS + 1) / (6 * SAMPLE_STEPS))
    if last * last == 0 or times_squared == math.inf:
        raise ValueError(f"Re(gamma)={gamma.real!r}: the rate fit needs squared sample times "
                         "inside the float range")
    if not math.isfinite(last * abs(gamma.imag)):
        raise ValueError(f"Im(gamma)={gamma.imag!r} with horizon {horizon!r}: the phase "
                         f"|Im(gamma)| * horizon must stay below {sys.float_info.max!r}")
    return horizon


def classify(generator: Superoperator, trivially_sat: bool, horizon: float) -> DynVerdict:
    """Sample the PROBE at SAMPLE_STEPS + 1 times over [0, horizon] and decide:
    damped (the tail mean of p1 over the second half falls under
    THRESHOLD * p1(0)) means SAT; a flat or oscillating tail means UNSAT
    unless adapt flagged the input trivially SAT."""
    dt = horizon / SAMPLE_STEPS
    ts = np.arange(0.0, horizon + dt / 2, dt)
    states = propagate(generator, PROBE, ts)
    p1s, coh = states[:, 1, 1].real, states[:, 0, 1]
    trajectory = np.column_stack([ts, p1s, np.abs(coh), np.angle(coh)])
    trajectory.setflags(write=False)
    tail = ts >= horizon / 2
    tail_mean = float(p1s[tail].mean())
    damped = bool(tail_mean < THRESHOLD * float(p1s[0]))
    fitted = fit_exponential_rate(ts, p1s) if damped else None
    return DynVerdict(
        damped=damped,
        satisfiable=damped or trivially_sat,
        tail_mean=tail_mean,
        fitted_rate=fitted,
        trajectory=trajectory,
    )
