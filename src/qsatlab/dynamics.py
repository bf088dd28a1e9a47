"""Exact small-dimension substrate for the open-system amplifier.

Superoperators are 4x4 matrices acting on column-stacked 2x2 matrices:
vec([[a, b], [c, d]]) = (a, c, b, d). All builders below go through vec/unvec
so the stacking convention cannot drift. `propagate` computes a whole
trajectory and `evolve` is its one-sample case; both check every state against
the physical set (hermitian, trace one, PSD up to tolerance) and neither
re-projects. Eigenvalues below -1e-10 are treated as genuine bugs, not noise,
and raise InvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantError

Mat2 = np.ndarray  # 2x2 complex

IDENTITY2: Mat2 = np.eye(2, dtype=complex)
PROJ_GROUND: Mat2 = np.array([[1, 0], [0, 0]], dtype=complex)
PROJ_EXCITED: Mat2 = np.array([[0, 0], [0, 1]], dtype=complex)
LOWERING: Mat2 = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|

_ZERO_EIG = 1e-10
_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_FLOOR = -1e-10


def vec(m: Mat2) -> np.ndarray:
    """Column-stack a 2x2 matrix into a length-4 vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> Mat2:
    return np.asarray(v, dtype=complex).reshape(2, 2, order="F")


def left_mult(a: Mat2) -> np.ndarray:
    """Superoperator matrix of rho -> a @ rho."""
    return np.kron(IDENTITY2, np.asarray(a, dtype=complex))


def right_mult(b: Mat2) -> np.ndarray:
    """Superoperator matrix of rho -> rho @ b."""
    return np.kron(np.asarray(b, dtype=complex).T, IDENTITY2)


def sandwich(a: Mat2, b: Mat2) -> np.ndarray:
    """Superoperator matrix of rho -> a @ rho @ b."""
    return np.kron(np.asarray(b, dtype=complex).T, np.asarray(a, dtype=complex))


def _unphysical(m: np.ndarray) -> str | None:
    """Why a 2x2 matrix, or any in a stack of them, is not a density matrix."""
    adjoint = np.swapaxes(m, -1, -2).conj()
    if not np.max(np.abs(m - adjoint)) <= _HERM_TOL:  # also catches NaN and inf entries
        return "matrix is not finite and hermitian within 1e-12"
    traces = np.trace(m, axis1=-2, axis2=-1)
    trace_err = np.maximum(np.abs(traces.real - 1.0), np.abs(traces.imag))
    if np.max(trace_err) > _TRACE_TOL:
        return f"trace {complex(traces.flat[np.argmax(trace_err)])} deviates from 1 beyond 1e-12"
    if (floor := _min_eigenvalue((m + adjoint) / 2).min()) < _PSD_FLOOR:
        return f"matrix has eigenvalue {floor:.3e} below -1e-10"
    return None


def _min_eigenvalue(h: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of each hermitian 2x2 [[a, b], [b*, d]]:
    (a+d)/2 - hypot((a-d)/2, |b|)."""
    a, d = h[..., 0, 0].real, h[..., 1, 1].real
    return (a + d) / 2 - np.hypot((a - d) / 2, np.abs(h[..., 0, 1]))


@dataclass(frozen=True)
class DensityMatrix2:
    """A 2x2 density matrix: hermitian, unit trace, positive semidefinite."""

    matrix: Mat2

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        problem = _unphysical(m)
        if problem:
            raise ValueError(problem)
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @classmethod
    def ground(cls) -> "DensityMatrix2":
        return cls(PROJ_GROUND.copy())

    @classmethod
    def excited(cls) -> "DensityMatrix2":
        return cls(PROJ_EXCITED.copy())

    @classmethod
    def plus(cls) -> "DensityMatrix2":
        """The (e0+e1)/sqrt(2) pure state: the default classifier probe."""
        return cls(np.full((2, 2), 0.5, dtype=complex))

    @property
    def p1(self) -> float:
        """Excited-level population <e1|rho|e1>."""
        return float(self.matrix[1, 1].real)

    @property
    def coherence(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass
class Superoperator:
    """4x4 matrix acting on column-stacked 2x2 matrices."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("superoperator has non-finite entries")
        self.matrix = m

    @cached_property
    def _eig(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigendecomposition (w, V, V^-1); ValueError if V is too ill-conditioned."""
        w, v = np.linalg.eig(self.matrix)
        if np.linalg.cond(v) > 1e10:
            raise ValueError(f"generator {self.label or repr(self.matrix)} is too ill-conditioned to diagonalise")
        return w, v, np.linalg.inv(v)

    def is_trace_preserving(self, tol: float = 1e-9) -> bool:
        # d/dt Tr(rho) = <vec(I), L vec(rho)>; column stacking puts the
        # diagonal at vec positions 0 and 3.
        trace_row = vec(IDENTITY2).conj() @ self.matrix
        return float(np.max(np.abs(trace_row))) < tol


def expm_superop(sup: Superoperator, t: float) -> Superoperator:
    """exp(t L) = V exp(t w) V^-1 from the generator's eigendecomposition."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    w, v, v_inv = sup._eig
    return Superoperator((v * np.exp(t * w)) @ v_inv, label=f"exp({t:g}*{sup.label or 'L'})")


def propagate(sup: Superoperator, rho: DensityMatrix2, ts) -> np.ndarray:
    """States exp(tL) rho at every time in ts, as a (T, 2, 2) array, from the
    generator's one eigendecomposition. Nothing is re-projected: every state
    must meet DensityMatrix2's tolerances or InvariantError is raised."""
    if not sup.is_trace_preserving():
        raise ValueError(f"generator {sup.label or repr(sup.matrix)} is not trace-preserving")
    ts = np.asarray(ts, dtype=float)
    if not (ts.ndim == 1 and ts.size and np.all(np.isfinite(ts) & (ts >= 0))):
        raise ValueError("times must be a nonempty 1-d array of finite nonnegative values")
    w, v, v_inv = sup._eig
    rows = (np.exp(np.outer(ts, w)) * (v_inv @ vec(rho.matrix))) @ v.T
    states = rows.reshape(-1, 2, 2).transpose(0, 2, 1)  # unvec each row
    problem = _unphysical(states)
    if problem:
        raise InvariantError(f"propagated state: {problem}")
    return states


def evolve(sup: Superoperator, rho: DensityMatrix2, t: float) -> DensityMatrix2:
    """The state exp(tL) rho: propagate at the single time t."""
    return DensityMatrix2(propagate(sup, rho, [t])[0])


def heisenberg_evolve(sup: Superoperator, observable: Mat2, t: float) -> Mat2:
    """Propagate an observable under the dual generator; no normalization."""
    return unvec(expm_superop(sup, t).matrix @ vec(observable))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue summary of a generator: kernel dimension and decay gap."""

    eigenvalues: tuple[complex, ...]
    zero_modes: int
    gap: float


def spectrum(sup: Superoperator) -> Spectrum:
    eigs = np.linalg.eigvals(sup.matrix)
    nonzero = [z for z in eigs if abs(z) >= _ZERO_EIG]
    gap = min((abs(z.real) for z in nonzero), default=0.0)
    return Spectrum(
        eigenvalues=tuple(sorted(map(complex, eigs), key=lambda z: (z.real, z.imag))),
        zero_modes=len(eigs) - len(nonzero),
        gap=float(gap),
    )


def trace_distance(a: DensityMatrix2, b: DensityMatrix2) -> float:
    """Half the sum of singular values of the difference."""
    return float(0.5 * np.sum(np.linalg.svd(a.matrix - b.matrix, compute_uv=False)))
