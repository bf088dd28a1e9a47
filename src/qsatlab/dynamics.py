"""Exact small-dimension substrate for the open-system amplifier.

Superoperators are 4x4 matrices acting on column-stacked 2x2 matrices:
vec([[a, b], [c, d]]) = (a, c, b, d). All builders below go through vec
so the stacking convention cannot drift. `propagate` computes a whole
trajectory and checks every state against the physical set (hermitian, trace
one, PSD up to tolerance); it never re-projects. Eigenvalues below -1e-10 are
treated as genuine bugs, not noise, and raise InvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvariantError

Mat2 = np.ndarray  # 2x2 complex

IDENTITY2: Mat2 = np.eye(2, dtype=complex)
PROJ_EXCITED: Mat2 = np.array([[0, 0], [0, 1]], dtype=complex)
LOWERING: Mat2 = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|

_HERM_TOL = 1e-12
_TRACE_TOL = 1e-12
_TP_TOL = 1e-9  # largest |d/dt Tr(rho)| coefficient a trace-preserving generator may have
_PSD_FLOOR = -1e-10


def vec(m: Mat2) -> np.ndarray:
    """Column-stack a 2x2 matrix into a length-4 vector."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


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
    def plus(cls) -> "DensityMatrix2":
        """The (e0+e1)/sqrt(2) pure state: the default classifier probe."""
        return cls(np.full((2, 2), 0.5, dtype=complex))


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

    def is_trace_preserving(self) -> bool:
        # d/dt Tr(rho) = <vec(I), L vec(rho)>; column stacking puts the
        # diagonal at vec positions 0 and 3.
        trace_row = vec(IDENTITY2).conj() @ self.matrix
        return float(np.max(np.abs(trace_row))) < _TP_TOL


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
    states = rows.reshape(-1, 2, 2).transpose(0, 2, 1)  # undo each row's column stacking
    problem = _unphysical(states)
    if problem:
        raise InvariantError(f"propagated state: {problem}")
    return states

