import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsatlab.chaos import (
    ChaosVerdict,
    LogisticParams,
    detect,
    iterate,
    logistic_step,
    theoretical_lower_bound,
)

A_CHAOTIC = LogisticParams(3.71)


def test_step_examples():
    assert logistic_step(0.0, A_CHAOTIC) == 0.0
    assert logistic_step(0.5, A_CHAOTIC) == pytest.approx(0.9275, abs=1e-15)
    assert logistic_step(1.0, A_CHAOTIC) == 0.0


def test_step_domain_errors():
    with pytest.raises(ValueError):
        logistic_step(1.2, A_CHAOTIC)
    with pytest.raises(ValueError):
        logistic_step(-0.1, A_CHAOTIC)
    with pytest.raises(ValueError):
        LogisticParams(4.5)


@given(st.floats(0.0, 4.0), st.floats(0.0, 1.0))
def test_unit_interval_is_invariant(a, x):
    y = logistic_step(x, LogisticParams(a))
    assert 0.0 <= y <= 1.0


def test_iterate_against_direct_recursion():
    # independent recomputation of the expected trace
    xs, x = [1 / 16], 1 / 16
    for _ in range(8):
        x = 3.71 * x * (1 - x)
        xs.append(x)
    trace = iterate(1 / 16, A_CHAOTIC, 8)
    assert np.allclose(trace.xs, xs, atol=0)
    assert trace.hit == 2
    assert trace.xs[1] == pytest.approx(0.21738, abs=1e-5)
    assert trace.xs[2] == pytest.approx(0.63117, abs=1e-5)


def test_zero_is_an_exact_fixed_point():
    trace = iterate(0.0, A_CHAOTIC, 100)
    assert trace.hit is None
    assert all(x == 0.0 for x in trace.xs)


def test_iterate_zero_steps_above_threshold():
    trace = iterate(0.6, A_CHAOTIC, 0)
    assert trace.hit == 0 and trace.xs == (0.6,)


def test_iterate_validation():
    with pytest.raises(ValueError):
        iterate(1.5, A_CHAOTIC, 3)
    with pytest.raises(ValueError):
        iterate(0.5, A_CHAOTIC, -1)


def test_threshold_crossing_for_single_needle_weights():
    for n in range(2, 21):
        verdict = detect(2.0**-n, n)
        assert verdict.satisfiable
        assert verdict.m_hit is not None and verdict.m_hit <= 2 * n
        assert verdict.m_hit > (n - 1) / math.log2(3.71)
        assert verdict.window == 2 * n


def test_threshold_crossing_for_small_counts():
    for n in range(4, 17):
        for k in range(1, 16):
            verdict = detect(k / 2.0**n, n)
            assert verdict.satisfiable and verdict.m_hit <= 2 * n


def test_crossing_index_is_stable_at_extended_precision():
    # float64 iterates must find the same first crossing as 60-digit arithmetic
    with mpmath.workdps(60):
        for n in (18, 19, 20):
            x = mpmath.mpf(2) ** -n
            hit_mp = None
            for m in range(2 * n + 1):
                if x > mpmath.mpf(1) / 2:
                    hit_mp = m
                    break
                x = mpmath.mpf("3.71") * x * (1 - x)
            assert detect(2.0**-n, n).m_hit == hit_mp


def test_detect_verdicts():
    assert detect(0.0, 6) == ChaosVerdict(
        satisfiable=False, m_hit=None, window=12,
        lower_bound=theoretical_lower_bound(6, 3.71),
        trace=iterate(0.0, A_CHAOTIC, 12),
    )
    assert detect(0.75, 2).m_hit == 0  # already past threshold
    assert detect(0.51, 1).m_hit == 0


def test_detect_validation():
    with pytest.raises(ValueError):
        detect(0.5, 0)
    with pytest.raises(ValueError):
        detect(1.5, 3)


def test_lower_bound_values():
    assert theoretical_lower_bound(1, 3.71) == 0.0
    assert theoretical_lower_bound(10, 3.71) == pytest.approx(9 / math.log2(3.71), rel=1e-12)
    assert theoretical_lower_bound(10, 3.71) == pytest.approx(4.758, abs=1e-3)
    assert theoretical_lower_bound(21, 2.0) == 20.0
    with pytest.raises(ValueError):
        theoretical_lower_bound(5, 1.0)


def test_detect_attaches_lower_bound():
    verdict = detect(2.0**-10, 10)
    assert verdict.lower_bound == pytest.approx(4.758, abs=1e-3)
    assert verdict.m_hit >= 5  # strict integer consequence of the bound
