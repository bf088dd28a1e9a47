"""Acceptance gate: every release criterion asserted at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them all); the numeric
tolerances below are fixed, not tunable.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import dense_q_squared, random_test_formula
from qsatlab.adaptive import adapt, classify, damping_generator, fit_exponential_rate, horizon_for
from qsatlab.chaos import A, detect, iterate
from qsatlab.cnf import count_satisfying, parse_dimacs, required_ancillas
from qsatlab.dynamics import DensityMatrix2, vec
from qsatlab import pipeline
from qsatlab.pipeline import self_check
from reference import (
    PROJ_GROUND,
    coherence,
    dual,
    evolve,
    excited_population,
    expm_superop,
    heisenberg_evolve,
    purity,
    spectrum,
    trace_distance,
    unvec,
)

GAMMA_GRID = [complex(re, im) for re in (0.1, 1.0, 10.0) for im in (-1.0, 0.0, 1.0)]


def _verdict(num: int, description: str, passed: bool, detail: str = ""):
    suffix = f" [{detail}]" if detail else ""
    line = f"{'PASS' if passed else 'FAIL'}: criterion {num} - {description}{suffix}"
    print(line)
    assert passed, line


def test_criterion_1_probability_identity_on_random_formulas():
    rng = random.Random(20250801)
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 200:
        formula = random_test_formula(rng, max_n=8, max_m=12, allow_empty_clause=True)
        if formula.n + required_ancillas(formula) > 16:
            continue
        exact = float(count_satisfying(formula).q_squared)
        for q_squared in (dense_q_squared(formula), pipeline._circuit_count(formula)[0]):
            worst = max(worst, abs(q_squared - exact))
        checked += 1
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        "dense and permutation success probabilities equal r/2^n within 1e-10 on 200 random formulas",
        worst < 1e-10 and elapsed < 60.0,
        f"worst |diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_projection_nonzero_iff_satisfiable(corpus_dir):
    formulas = [parse_dimacs(p.read_text()) for p in sorted(corpus_dir.glob("*.cnf"))]
    big_enough = len(formulas) >= 40
    exact_iff = True
    for formula in formulas:
        satisfiable = count_satisfying(formula).r >= 1
        for projection in (dense_q_squared(formula), pipeline._circuit_count(formula)[0]):
            if satisfiable:
                exact_iff &= projection > 0.0
            else:
                exact_iff &= projection == 0.0  # exact: the gate set only permutes
    _verdict(
        2,
        "result-qubit projection is nonzero exactly when brute force finds a model",
        big_enough and exact_iff,
        f"{len(formulas)} corpus formulas",
    )


def test_criterion_3_threshold_crossing_bounds():
    started = time.perf_counter()
    ok = A == 3.71
    for n in range(2, 21):
        verdict = detect(2.0**-n, n)
        ok &= verdict.m_hit is not None and verdict.m_hit <= 2 * n
        ok &= verdict.m_hit > (n - 1) / math.log2(3.71)
    for n in range(4, 17):
        for k in range(1, 16):
            verdict = detect(k / 2.0**n, n)
            ok &= verdict.m_hit is not None and verdict.m_hit <= 2 * n
    elapsed = time.perf_counter() - started
    _verdict(
        3,
        "crossing exists within 2n steps and not before (n-1)/log2(3.71), plus k/2^n variants",
        ok and elapsed < 1.0,
        f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_4_zero_weight_never_crosses():
    xs = iterate(0.0, 100)
    _verdict(
        4,
        "x0 = 0 stays exactly 0 for all 100 iterations",
        A == 3.71 and all(x == 0.0 for x in xs) and len(xs) == 101,
    )


def test_criterion_5_unique_invariant_state_across_gamma_grid():
    ok = True
    worst_entry = 0.0
    for gamma in GAMMA_GRID:
        l_star = damping_generator(gamma)
        entry = float(np.max(np.abs(unvec(l_star.matrix @ vec(PROJ_GROUND)))))
        worst_entry = max(worst_entry, entry)
        s = spectrum(l_star)
        ok &= entry < 1e-14 and s.zero_modes == 1 and s.gap > 0
    _verdict(
        5,
        "ground state is invariant (< 1e-14) with exactly one zero mode and positive gap",
        ok,
        f"worst generator entry {worst_entry:.1e}",
    )


def test_criterion_6_damping_rates_and_trace_preservation():
    ok = True
    details = []
    for gamma in (0.5, 1.0, 1.0 + 0.7j):
        l_star = damping_generator(gamma)
        re = complex(gamma).real
        ts = np.linspace(0.0, 4.0 / re, 60)
        probe = DensityMatrix2.plus()
        p1s, cohs = [], []
        for t in ts:
            rho = evolve(l_star, probe, float(t))
            p1s.append(excited_population(rho))
            cohs.append(abs(coherence(rho)))
        pop_rate = fit_exponential_rate(ts, p1s)
        coh_rate = fit_exponential_rate(ts, cohs)
        ok &= abs(pop_rate - 2 * re) <= 0.01 * 2 * re
        ok &= abs(coh_rate - re) <= 0.01 * re
        details.append(f"gamma={gamma}: p1 rate {pop_rate:.4f}, coh rate {coh_rate:.4f}")
        # trace drift measured on the raw propagated matrix, no re-projection
        for t in np.linspace(0.0, 50.0, 26):
            raw = unvec(expm_superop(l_star, float(t)).matrix @ vec(probe.matrix))
            ok &= abs(np.trace(raw).real - 1.0) < 1e-9 and abs(np.trace(raw).imag) < 1e-9
    _verdict(
        6,
        "fitted decay rates match 2*Re(gamma) and Re(gamma) within 1%, trace drift < 1e-9",
        ok,
        "; ".join(details[:1]),
    )


def test_criterion_7_state_observable_duality():
    rng = random.Random(777)
    l_star = damping_generator(1.0 + 0.5j)
    l_heis = dual(l_star)
    worst = 0.0
    for _ in range(100):
        raw = np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
        )
        rho = DensityMatrix2((raw @ raw.conj().T) / np.trace(raw @ raw.conj().T).real)
        h = np.array(
            [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)] for _ in range(2)]
        )
        x = (h + h.conj().T) / 2
        t = rng.uniform(0.0, 10.0)
        forward = np.trace(evolve(l_star, rho, t).matrix @ x)
        backward = np.trace(rho.matrix @ heisenberg_evolve(l_heis, x, t))
        worst = max(worst, abs(forward - backward))
    _verdict(
        7,
        "Tr(evolved state * x) equals Tr(state * evolved x) within 1e-8 on 100 triples",
        worst < 1e-8,
        f"worst |diff|={worst:.1e}",
    )


def test_criterion_8_coherent_branch_is_periodic():
    generator, _ = adapt(Fraction(0), 0, 2, 1.0)
    probe = DensityMatrix2.plus()

    ok = True
    for t in np.linspace(0.0, 3 * math.pi, 13):
        rho_t = evolve(generator, probe, float(t))
        rho_next = evolve(generator, probe, float(t) + 2 * math.pi)
        ok &= trace_distance(rho_next.matrix, rho_t.matrix) < 1e-9
        ok &= abs(abs(coherence(rho_t)) - 0.5) < 1e-9
        ok &= abs(purity(rho_t) - 1.0) < 1e-10
    _verdict(
        8,
        "E0=0, E1=2 evolution has period 2*pi with constant |coherence| and purity",
        ok,
    )


def test_criterion_9_classifier_separation():
    ok = True
    worst_tail_sat = 0.0
    for gamma in GAMMA_GRID:
        horizon = 20.0 / complex(gamma).real
        ok &= horizon_for(gamma) == horizon
        sat = classify(*adapt(Fraction(1, 2**10), 0, 2, gamma), horizon)
        unsat = classify(*adapt(Fraction(0), 0, 2, gamma), horizon)
        worst_tail_sat = max(worst_tail_sat, sat.tail_mean)
        ok &= sat.satisfiable and sat.tail_mean < 1e-6
        ok &= (not unsat.satisfiable) and abs(unsat.tail_mean - 0.5) < 1e-9
    _verdict(
        9,
        "damping tails < 1e-6 vs oscillating tails = 0.5 across the gamma grid, no misclassification",
        ok,
        f"worst damped tail {worst_tail_sat:.1e}",
    )


def test_criterion_10_end_to_end_self_check(corpus_dir):
    started = time.perf_counter()
    summary = self_check(corpus_dir)
    elapsed = time.perf_counter() - started
    full_agreement = all(good == total for good, total in summary.matrix.values())
    _verdict(
        10,
        "self-check agrees with brute force for both amplifiers on the bundled corpus",
        summary.ok and full_agreement and elapsed < 120.0,
        f"{len(summary.rows)} formulas, {elapsed:.1f}s",
    )
