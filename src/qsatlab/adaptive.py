"""State-adaptive open-system amplifier.

The single-qubit summary state psi = alpha0*e0 + alpha1*e1 selects the dynamics
of a probe qubit coupled to an environment. With both amplitudes nonzero the
coupling reduces (independently of their values) to a dipole interaction whose
reduced dynamics is a damping master equation

    d/dt rho = i*Im(gamma)*[rho, P1] + Re(gamma)*(2 D rho D+ - {P1, rho})

with D = |e0><e1| and P1 = D+ D = |e1><e1|: the ground state is the unique
invariant state and everything relaxes to it exponentially. With alpha1 = 0 the
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
import warnings
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class InputAmplitudes:
    """Normalized amplitudes of the summary state fed to the amplifier."""

    alpha0: complex
    alpha1: complex

    def __post_init__(self):
        norm = abs(self.alpha0) ** 2 + abs(self.alpha1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"|alpha0|^2 + |alpha1|^2 = {norm} is not 1 within 1e-12")


@dataclass(frozen=True)
class TwoLevelHamiltonian:
    """Diagonal system Hamiltonian with level splitting E1 - E0 > 0.

    Integer energies (the default) make the coherent branch exactly periodic;
    effective_hamiltonian rejects any other."""

    E0: float = 0
    E1: float = 2

    def __post_init__(self):
        if not self.E0 < self.E1:
            raise ValueError(f"need E0 < E1, got E0={self.E0}, E1={self.E1}")


@dataclass(frozen=True)
class Susceptibility:
    """Complex environment susceptibility; the real part drives damping."""

    gamma: complex = 1.0

    def __post_init__(self):
        if not (cmath.isfinite(self.gamma) and complex(self.gamma).real > 0):
            raise ValueError(f"gamma must be finite with a positive real part, got {self.gamma}")


@dataclass(frozen=True)
class DampingRates:
    """Closed-form decay constants of the damping master equation."""

    population_decay: float
    coherence_decay: float
    coherence_rotation: float


@dataclass(frozen=True)
class DampingDynamics:
    """Dissipative branch: state generator plus its analytic rates."""

    generator: Superoperator
    rates: DampingRates


@dataclass(frozen=True)
class CoherentDynamics:
    """Unitary branch: von Neumann generator -i[H, .] of the shifted diagonal
    Hamiltonian H, periodic or stationary."""

    generator: Superoperator
    hamiltonian: np.ndarray
    period: float | None
    trivially_sat: bool = False

    @property
    def delta(self) -> float:
        """Coherence rotation frequency (level splitting of the shifted H)."""
        return float((self.hamiltonian[1, 1] - self.hamiltonian[0, 0]).real)


AdaptiveDynamics = DampingDynamics | CoherentDynamics


def damping_rates(g: Susceptibility) -> DampingRates:
    gamma = complex(g.gamma)
    return DampingRates(
        population_decay=2.0 * gamma.real,
        coherence_decay=gamma.real,
        coherence_rotation=gamma.imag,
    )


def damping_generator(g: Susceptibility) -> tuple[Superoperator, Superoperator]:
    """Build the (state-propagating, observable-propagating) generator pair.

    The observable generator is the adjoint of the state generator, so it is
    taken as the conjugate transpose rather than built term by term.
    """
    gamma = complex(g.gamma)
    p1_left, p1_right = left_mult(PROJ_EXCITED), right_mult(PROJ_EXCITED)
    recycle = sandwich(LOWERING, LOWERING.conj().T)  # rho -> D rho D+
    rotation = 1j * gamma.imag * (p1_right - p1_left)  # i Im(g) [rho, P1]
    dissipation = gamma.real * (2.0 * recycle - p1_left - p1_right)
    state = Superoperator(rotation + dissipation, label="damping state generator")
    return state, Superoperator(state.matrix.conj().T, label="damping observable generator")


def effective_hamiltonian(H: TwoLevelHamiltonian, shifted_level: int = 0) -> tuple[np.ndarray, float | None]:
    """Shifted Hamiltonian of the coherent branch and the evolution period.

    The diagonal coupling adds one unit to the level the summary state sits in.
    The period is 2*pi over the shifted splitting; None when the shift makes
    the two levels degenerate (stationary evolution).
    """
    e0, e1 = H.E0, H.E1
    if e0 != int(e0) or e1 != int(e1):
        raise ValueError(f"non-integer energies (E0={e0}, E1={e1}) give an aperiodic evolution")
    if shifted_level not in (0, 1):
        raise ValueError(f"shifted_level must be 0 or 1, got {shifted_level}")
    h_eff = np.diag([float(e0), float(e1)]).astype(complex)
    h_eff[shifted_level, shifted_level] += 1.0
    delta = (h_eff[1, 1] - h_eff[0, 0]).real
    if delta == 0:
        warnings.warn(
            "shifted Hamiltonian is degenerate (E1 = E0 + 1): the probe is "
            "stationary; prefer E1 >= E0 + 2",
            stacklevel=2,
        )
        return h_eff, None
    return h_eff, 2.0 * math.pi / abs(delta)


def adapt(psi: InputAmplitudes, H: TwoLevelHamiltonian, g: Susceptibility) -> AdaptiveDynamics:
    """Pick the dynamics the input state switches on.

    Both amplitudes nonzero: damping branch, whose generator does not depend
    on the amplitude values at all. alpha1 = 0: coherent branch (the UNSAT
    signature). alpha0 = 0: coherent branch with the shift on the excited
    level, flagged trivially SAT since the input weight is already maximal.
    The tests are exact: collapse_to_qubit gives 0.0 at q^2 = 0 and 1 exactly.
    """
    if psi.alpha0 != 0 and psi.alpha1 != 0:
        l_star, _ = damping_generator(g)
        return DampingDynamics(generator=l_star, rates=damping_rates(g))
    shifted_level = 0 if psi.alpha1 == 0 else 1
    h_eff, period = effective_hamiltonian(H, shifted_level)
    generator = Superoperator(-1j * (left_mult(h_eff) - right_mult(h_eff)), label="von Neumann generator")
    return CoherentDynamics(generator, h_eff, period, trivially_sat=shifted_level == 1)


def damping_closed_form(g: Susceptibility, rho0: DensityMatrix2, t: float) -> DensityMatrix2:
    """Analytic solution of the damping master equation; the populations and
    the coherence decouple into plain exponentials."""
    gamma = complex(g.gamma)
    p1 = rho0.p1 * math.exp(-2.0 * gamma.real * t)
    coh = rho0.coherence * cmath.exp((1j * gamma.imag - gamma.real) * t)
    return DensityMatrix2(np.array([[1.0 - p1, coh], [coh.conjugate(), p1]], dtype=complex))


@dataclass(frozen=True)
class ClassifierConfig:
    """Sampling protocol for the damping-vs-oscillation readout."""

    probe: DensityMatrix2 = field(default_factory=DensityMatrix2.plus)
    horizon: float = 20.0
    dt: float = 0.05
    threshold: float = 0.1

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0 < self.dt < self.horizon:
            raise ValueError(f"dt={self.dt} must lie in (0, horizon)")
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold={self.threshold} must lie in (0, 1)")


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


def fit_exponential_rate(ts, ys, floor: float = FIT_FLOOR) -> float:
    """Decay constant from a log-linear least-squares fit of ys ~ exp(-r t)."""
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = ys > floor
    if int(mask.sum()) < 2:
        raise ValueError("need at least two positive samples to fit a rate")
    slope, _ = np.polyfit(ts[mask], np.log(ys[mask]), 1)
    return float(-slope)


SAMPLE_STEPS = 400  # steps of the pipeline's classifier over its horizon


def classifier_for(g: Susceptibility, horizon_factor: float, threshold: float) -> ClassifierConfig:
    """The classifier that samples [0, hf / Re(gamma)] in N = SAMPLE_STEPS
    steps, hf being horizon_factor; ValueError where its readout cannot be
    trusted. On the damping branch p1(t) = p1(0) exp(-2 Re(gamma) t), p1(0) = 1/2:
    - The tail starts at Re(gamma) t = hf/2, where p1 = p1(0) e^-hf, and its
      mean lies below that, so damping is certified iff e^-hf < threshold,
      that is hf > ln(1/threshold). The coherent branch keeps p1 = p1(0).
    - The rate fit keeps samples k <= K with p1 > FIT_FLOOR, i.e.
      K = min(N, ceil(N ln(p1(0)/FIT_FLOOR) / (2 hf)) - 1), and polyfit
      divides their times by sqrt(sum (k dt)^2). That norm leaves the float
      range when K < 1, when (K dt)^2 underflows to 0 or when the sum
      overflows; at hf = 20 that keeps 1.73e-152 < Re(gamma) < 1.27e163.
    Both refusals hold for the configuration, whichever branch an input selects.
    """
    horizon = horizon_factor / g.gamma.real
    cfg = ClassifierConfig(horizon=horizon, dt=horizon / SAMPLE_STEPS, threshold=threshold)
    if not horizon_factor > math.log(1.0 / threshold):
        raise ValueError(f"horizon factor {horizon_factor} must exceed ln(1/threshold) = "
                         f"{math.log(1.0 / threshold)!r} to certify damping")
    span = math.log(cfg.probe.p1 / FIT_FLOOR)  # 2 Re(gamma) t at which p1 reaches the floor
    kept = min(SAMPLE_STEPS, math.ceil(SAMPLE_STEPS * span / (2 * horizon_factor)) - 1)
    last = kept * cfg.dt
    if kept < 1 or last * last == 0 or last * last * ((kept + 1) * (2 * kept + 1) / (6 * kept)) == math.inf:
        raise ValueError(f"Re(gamma)={g.gamma.real!r} with horizon factor {horizon_factor}: the rate fit "
                         f"needs two samples above {FIT_FLOOR} and squared times inside the float range")
    return cfg


def classify(dyn: AdaptiveDynamics, cfg: ClassifierConfig = ClassifierConfig()) -> DynVerdict:
    """Sample the probe and decide: damped (tail of p1 collapses under
    threshold * p1(0)) means SAT; a flat or oscillating tail means UNSAT
    unless the dynamics was already flagged trivially SAT."""
    probe = cfg.probe
    if probe.p1 < 0.25 or abs(probe.coherence) < 0.25:
        raise ValueError(
            "probe must carry both population and coherence signal "
            "(p1 >= 0.25 and |rho01| >= 0.25); use DensityMatrix2.plus()"
        )
    ts = np.arange(0.0, cfg.horizon + cfg.dt / 2, cfg.dt)
    states = propagate(dyn.generator, probe, ts)
    p1s, coh = states[:, 1, 1].real, states[:, 0, 1]
    trajectory = np.column_stack([ts, p1s, np.abs(coh), np.angle(coh)])
    trajectory.setflags(write=False)
    tail = ts >= cfg.horizon / 2
    tail_mean = float(p1s[tail].mean())
    damped = bool(tail_mean < cfg.threshold * float(p1s[0]))
    trivially_sat = isinstance(dyn, CoherentDynamics) and dyn.trivially_sat
    fitted = fit_exponential_rate(ts, p1s) if damped else None
    return DynVerdict(
        damped=damped,
        satisfiable=damped or trivially_sat,
        tail_mean=tail_mean,
        fitted_rate=fitted,
        trajectory=trajectory,
    )
