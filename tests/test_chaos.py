import math

import mpmath
import pytest
from hypothesis import given, strategies as st

from qsatlab import chaos
from qsatlab.chaos import (
    A,
    ChaosVerdict,
    detect,
    iterate,
    logistic_step,
    theoretical_lower_bound,
)


def test_a_certifies_the_window():
    """From x_0 = k/2^n the crossing comes within floor((n-1)/log2(A/2)) + 1
    steps, inside the 2n window for every n iff A >= 2*sqrt(2); A <= 4 keeps
    [0, 1] invariant."""
    assert A == 3.71
    assert 2 * math.sqrt(2) <= A <= 4


@pytest.mark.parametrize("a", [0.5, 1.5, 2.0, 2.5, 2 * math.sqrt(2) - 1e-9])
def test_detect_refuses_an_uncertified_window(a):
    """detect runs only at A. A map parameter a < 2*sqrt(2) would leave the 2n
    window uncertified: for a <= 2 no iterate exceeds a/4 <= 1/2, so the SAT
    input x_0 = 2^-8 never crosses in its 16 steps, and above 2 some n has a
    crossing bound floor((n-1)/log2(a/2)) + 1 past its 2n - 1 steps. A keeps
    that bound inside the window at the same n."""
    assert a < A
    if a <= 2:
        x = 2.0**-8
        for _ in range(16):
            x = a * x * (1 - x)
            assert x <= 0.5
        return
    excess = 1 / math.log2(a / 2) - 2  # (n-1)/log2(a/2) = 2(n-1) + (n-1)*excess
    n = 1 + math.ceil(2 / excess)
    assert math.floor((n - 1) / math.log2(a / 2)) + 1 > 2 * n - 1
    assert math.floor((n - 1) / math.log2(A / 2)) + 1 <= 2 * n - 1


def test_step_examples():
    assert logistic_step(0.0) == 0.0
    assert logistic_step(0.5) == pytest.approx(0.9275, abs=1e-15)
    assert logistic_step(1.0) == 0.0


def test_step_domain_errors():
    with pytest.raises(ValueError):
        logistic_step(1.2)
    with pytest.raises(ValueError):
        logistic_step(-0.1)


@given(st.floats(0.0, 1.0))
def test_unit_interval_is_invariant(x):
    y = logistic_step(x)
    assert 0.0 <= y <= 1.0


def test_iterate_against_direct_recursion():
    # independent recomputation of the expected trace
    xs, x = [1 / 16], 1 / 16
    for _ in range(8):
        x = 3.71 * x * (1 - x)
        xs.append(x)
    assert iterate(1 / 16, 8) == tuple(xs)
    assert detect(1 / 16, 4).m_hit == 2
    assert xs[1] == pytest.approx(0.21738, abs=1e-5)
    assert xs[2] == pytest.approx(0.63117, abs=1e-5)


def test_zero_is_an_exact_fixed_point():
    xs = iterate(0.0, 100)
    assert xs == (0.0,) * 101
    assert detect(0.0, 50).m_hit is None


def test_iterate_zero_steps_above_threshold():
    assert iterate(0.6, 0) == (0.6,)
    assert detect(0.6, 1).m_hit == 0


def test_iterate_validation():
    with pytest.raises(ValueError):
        iterate(1.5, 3)
    with pytest.raises(ValueError):
        iterate(0.5, -1)


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


@pytest.mark.parametrize("a", [2 * math.sqrt(2), 3.0, 3.71, 4.0])
def test_every_dyadic_start_crosses_within_the_certified_bound(monkeypatch, a):
    """Every x_0 = k/2^n, n <= 12, crosses within min(2n, floor((n-1)/log2(a/2)) + 1)
    steps, and no earlier than (n-1-log2 k)/log2(a), since x_m <= a^m x_0: the
    bound test_a_certifies_the_window relies on, across the certified range."""
    monkeypatch.setattr(chaos, "A", a)
    for n in range(1, 13):
        bound = min(2 * n, math.floor((n - 1) / math.log2(a / 2)) + 1)
        for k in range(1, 2**n + 1):
            verdict = detect(k / 2**n, n)
            assert verdict.satisfiable and verdict.m_hit <= bound, (n, k)
            assert verdict.m_hit >= (n - 1 - math.log2(k)) / math.log2(a), (n, k)


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
        lower_bound=theoretical_lower_bound(6),
        xs=iterate(0.0, 12),
    )
    assert detect(0.75, 2).m_hit == 0  # already past threshold
    assert detect(0.51, 1).m_hit == 0


def test_detect_validation():
    with pytest.raises(ValueError):
        detect(0.5, 0)
    with pytest.raises(ValueError):
        detect(1.5, 3)


def test_lower_bound_values():
    assert theoretical_lower_bound(1) == 0.0
    assert theoretical_lower_bound(10) == pytest.approx(9 / math.log2(3.71), rel=1e-12)
    assert theoretical_lower_bound(10) == pytest.approx(4.758, abs=1e-3)


def test_detect_attaches_lower_bound():
    verdict = detect(2.0**-10, 10)
    assert verdict.lower_bound == pytest.approx(4.758, abs=1e-3)
    assert verdict.m_hit >= 5  # strict integer consequence of the bound
