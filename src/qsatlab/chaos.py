"""Logistic-map amplifier: blows a small excited-state weight past 1/2.

The decision protocol iterates x_{m+1} = A*x_m*(1-x_m) from x_0 = q^2 and
declares SAT on the first iterate above 1/2 within a window of 2n steps.
x_0 = 0 is a fixed point, so an UNSAT input can never cross the threshold;
for x_0 = 2^-n the crossing index m_0 is bounded below by (n-1)/log2(A),
since x_m <= x_0 * A^m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

A = 3.71  # the map parameter: chaotic, and at least 2*sqrt(2), so the 2n window is certified


@dataclass(frozen=True)
class ChaosVerdict:
    """The iterates x_0..x_window plus the first threshold crossing, if any."""

    satisfiable: bool
    m_hit: int | None
    window: int
    lower_bound: float
    xs: tuple[float, ...]

    def __post_init__(self):
        if self.satisfiable != (self.m_hit is not None):
            raise ValueError("verdict inconsistent with hit index")

    def summary(self) -> dict:
        """The report's amplifier verdict block."""
        return {"satisfiable": self.satisfiable, "m_hit": self.m_hit,
                "window": self.window, "lower_bound": self.lower_bound}

    @functools.cached_property
    def csv(self) -> str:
        """The iterates x_0..x_window as CSV text, rendered on first read."""
        return "\n".join(["m,x_m"] + [f"{m},{x!r}" for m, x in enumerate(self.xs)]) + "\n"


def logistic_step(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    return A * x * (1.0 - x)


def iterate(x0: float, steps: int) -> tuple[float, ...]:
    """Run the map for `steps` iterations; returns x_0..x_steps."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0={x0} outside [0, 1]")
    xs = [x0]
    for _ in range(steps):
        xs.append(logistic_step(xs[-1]))
    return tuple(xs)


def detect(q_squared: float, n: int) -> ChaosVerdict:
    """Decide SAT by threshold crossing within 2n steps from x_0 = q^2.

    While x <= 1/2, x_{m+1} >= (A/2)*x_m, so any x_0 >= 2^-n crosses within
    floor((n-1)/log2(A/2)) + 1 steps: at most 2n - 1 for every n, since
    A >= 2*sqrt(2)."""
    if n < 1:
        raise ValueError(f"variable count n={n} must be >= 1")
    if not 0.0 <= q_squared <= 1.0:
        raise ValueError(f"q_squared={q_squared} outside [0, 1]")
    window = 2 * n
    xs = iterate(float(q_squared), window)
    hit = next((m for m, x in enumerate(xs) if x > 0.5), None)
    return ChaosVerdict(
        satisfiable=hit is not None,
        m_hit=hit,
        window=window,
        lower_bound=theoretical_lower_bound(n),
        xs=xs,
    )


def theoretical_lower_bound(n: int) -> float:
    """(n-1)/log2(A): no crossing from x_0 = 2^-n can happen earlier. The
    paper's figure, it bounds r = 1 only: x_0 = r/2^n may cross at once."""
    return (n - 1) / math.log2(A)
