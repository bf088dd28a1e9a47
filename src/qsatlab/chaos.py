"""Logistic-map amplifier: blows a small excited-state weight past 1/2.

The decision protocol iterates x_{m+1} = a*x_m*(1-x_m) from x_0 = q^2 and
declares SAT on the first iterate above 1/2 within a window of 2n steps.
x_0 = 0 is a fixed point, so an UNSAT input can never cross the threshold;
for x_0 = 2^-n the crossing index m_0 is bounded below by (n-1)/log2(a),
since x_m <= x_0 * a^m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LogisticParams:
    """Map parameter; a in [0, 4] keeps [0, 1] invariant. a = 3.71 is chaotic."""

    a: float = 3.71

    def __post_init__(self):
        if not 0.0 <= self.a <= 4.0:
            raise ValueError(f"logistic parameter a={self.a} outside [0, 4]")


@dataclass(frozen=True)
class ChaosTrace:
    """Iterates x_0..x_M plus the first threshold crossing, if any."""

    xs: tuple[float, ...]
    hit: int | None


@dataclass(frozen=True)
class ChaosVerdict:
    satisfiable: bool
    m_hit: int | None
    window: int
    lower_bound: float
    trace: ChaosTrace

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
        return "\n".join(["m,x_m"] + [f"{m},{x!r}" for m, x in enumerate(self.trace.xs)]) + "\n"


def logistic_step(x: float, params: LogisticParams) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    return params.a * x * (1.0 - x)


def iterate(x0: float, params: LogisticParams, steps: int) -> ChaosTrace:
    """Run the map for `steps` iterations; records x_0..x_steps."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not 0.0 <= x0 <= 1.0:
        raise ValueError(f"x0={x0} outside [0, 1]")
    xs = [x0]
    for _ in range(steps):
        xs.append(logistic_step(xs[-1], params))
    hit = next((m for m, x in enumerate(xs) if x > 0.5), None)
    return ChaosTrace(xs=tuple(xs), hit=hit)


def detect(q_squared: float, n: int, params: LogisticParams = LogisticParams()) -> ChaosVerdict:
    """Decide SAT by threshold crossing within 2n steps from x_0 = q^2.

    While x <= 1/2, x_{m+1} >= (a/2)*x_m, so for a > 2 any x_0 >= 2^-n crosses
    within floor((n-1)/log2(a/2)) + 1 steps: at most 2n - 1 for every n iff
    a >= 2*sqrt(2). Smaller a raises ValueError (for a <= 2 nothing crosses)."""
    if n < 1:
        raise ValueError(f"variable count n={n} must be >= 1")
    if params.a < 2 * math.sqrt(2):
        raise ValueError(f"a={params.a} is below 2*sqrt(2): for a > 2, x_0 >= 2^-n crosses 1/2 within "
                         "floor((n-1)/log2(a/2)) + 1 steps, inside 2n for every n only from a = 2*sqrt(2) up")
    if not 0.0 <= q_squared <= 1.0:
        raise ValueError(f"q_squared={q_squared} outside [0, 1]")
    window = 2 * n
    trace = iterate(float(q_squared), params, window)
    return ChaosVerdict(
        satisfiable=trace.hit is not None,
        m_hit=trace.hit,
        window=window,
        lower_bound=theoretical_lower_bound(n, params.a),
        trace=trace,
    )


def theoretical_lower_bound(n: int, a: float) -> float:
    """(n-1)/log2(a): no crossing from x_0 = 2^-n can happen earlier. The
    paper's figure, it bounds r = 1 only: x_0 = r/2^n may cross at once."""
    if a <= 1.0:
        raise ValueError(f"lower bound needs a > 1, got a={a}")
    return (n - 1) / math.log2(a)
