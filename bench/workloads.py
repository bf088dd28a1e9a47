"""Seeded inputs, reference counts and output checks for the three workloads.

Nothing here imports qsatlab: the reference model counts and the closed forms
the outputs are checked against are computed apart from the program.

Every instance of a class within a workload has the same shape (variable
count, clause lengths, circuit width, number of negated literals where that
changes the gate count), so the cost of a verdict depends on the class and
hardly on the seed. The seed picks variables, polarities and amplifier
parameters.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from fractions import Fraction

A_LOGISTIC = 3.71  # the CLI default the chaos checks assume
HORIZON_FACTOR = 20.0  # the CLI default; horizon = HORIZON_FACTOR / Re(gamma)
SAMPLES = 401  # t_k = k * horizon / 400, k = 0..400
TRACE_TOL = 1e-9  # closed form vs emitted CSV, absolute
Q2_TOL = 1e-12  # statevector q^2 vs r / 2^n, absolute


# -- the benchmark's own exact model counter -------------------------------------


def count_models(n: int, clauses: list[list[int]]) -> int:
    """Exact number of satisfying assignments, by bit-parallel enumeration.

    Each variable is a 2^n-bit Python integer whose bit a is the variable's
    value under assignment a; a clause is the OR of its literal columns and
    the formula the AND of its clauses. Shares no code with qsatlab.cnf.
    """
    size = 1 << n
    full = (1 << size) - 1
    columns = {}
    for v in range(1, n + 1):
        half = 1 << (v - 1)  # variable v is bit v-1 of the assignment index
        col, width = ((1 << half) - 1) << half, 2 * half  # one period: zeros, then ones
        while width < size:
            col |= col << width
            width *= 2
        columns[v] = col
    models = full
    for clause in clauses:
        mask = 0
        for lit in clause:
            col = columns[abs(lit)]
            mask |= col if lit > 0 else full ^ col
        models &= mask
    return models.bit_count()


def dimacs(n: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def circuit_width(n: int, clauses: list[list[int]]) -> int:
    """Register width of the formula circuit for clauses over distinct
    variables: n inputs, |C| - 1 work qubits per clause, m - 1 for the
    conjunction chain and one result qubit, i.e. n + total literal count."""
    return n + sum(len(c) for c in clauses)


def _signed(rng: random.Random, variables: list[int], negated: int) -> list[int]:
    """Literals over `variables` with exactly `negated` of them negated."""
    flags = [True] * negated + [False] * (len(variables) - negated)
    rng.shuffle(flags)
    return [-v if neg else v for v, neg in zip(variables, flags)]


def _random_clause(rng: random.Random, n: int, length: int) -> list[int]:
    return [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), length)]


def _instance(name, family, n, clauses, argv, amp):
    r = count_models(n, clauses)
    return {
        "name": name,
        "family": family,
        "n": n,
        "m": len(clauses),
        "width": circuit_width(n, clauses),
        "r": r,
        "cls": "sat" if r else "unsat",
        "dimacs": dimacs(n, clauses),
        "argv": argv,
        "amp": amp,
    }


def _balanced(rng, make, per_class: int) -> list[dict]:
    """Draw instances until each class has per_class of them; SAT and UNSAT
    alternate in the returned order."""
    pools = {"sat": [], "unsat": []}
    for _ in range(10_000):
        inst = make(rng)
        if len(pools[inst["cls"]]) < per_class:
            pools[inst["cls"]].append(inst)
        if all(len(p) == per_class for p in pools.values()):
            return [x for pair in zip(pools["sat"], pools["unsat"]) for x in pair]
    raise RuntimeError("instance generator did not reach a balanced pool")


# -- workloads ---------------------------------------------------------------------

_CHAOS_JSON = ["--amplifier", "chaos", "--format", "json"]


def statevector_wide(rng: random.Random) -> list[dict]:
    """Dense simulation: SAT circuits 20 qubits wide, UNSAT circuits 18.

    SAT: 12 needles, n = 10 unit clauses (r = 1).
    UNSAT: 4 blocked needles (8 units plus a 2-literal clause excluding the
    pinned assignment) and 8 mixed-length CNFs over n = 4 (two units on
    distinct variables, then clause lengths 2,2,2,3,3), kept when
    unsatisfiable. Blocked needles are the cheaper third of the class, so
    unsat_p10 falls among them and unsat_p50 among the mixed ones, each
    clear of the boundary.

    Negated literals cost X gates, and an X on qubit 0 costs about a third
    of one on any other qubit, so their number and the polarity of variable
    1 are fixed: variable 1 is positive in every needle, 5 of variables
    2..10 are negated in a needle and 4 of 2..8 in a blocked needle, whose
    blocking clause spans one positive and one negated pin; a mixed CNF has
    one negated unit and 6 positive literals among its 12 others.
    """
    argv = ["--mode", "statevector"] + _CHAOS_JSON
    sat = []
    for i in range(12):
        clauses = [[1]] + [[lit] for lit in _signed(rng, list(range(2, 11)), 5)]
        sat.append(_instance(f"needle_{i:02d}", "needle", 10, clauses, argv, None))
    unsat = []
    for i in range(4):
        units = [1] + _signed(rng, list(range(2, 9)), 4)
        pos = rng.choice([u for u in units[1:] if u > 0])
        neg = rng.choice([u for u in units if u < 0])
        clauses = [[lit] for lit in units] + [sorted([-pos, -neg], key=abs)]
        unsat.append(_instance(f"blocked_{i:02d}", "blocked_needle", 8, clauses, argv, None))
    while len(unsat) < 12:
        clauses = [[lit] for lit in _signed(rng, rng.sample(range(1, 5), 2), 1)]
        multi = [rng.sample(range(1, 5), k) for k in (2, 2, 2, 3, 3)]
        signs = iter(_signed(rng, list(range(1, 13)), 6))
        clauses += [[v if next(signs) > 0 else -v for v in c] for c in multi]
        if count_models(4, clauses) == 0:
            i = len(unsat) - 4
            unsat.append(_instance(f"mixed_{i:02d}", "mixed_length", 4, clauses, argv, None))
    assert all(x["width"] == 20 and x["r"] == 1 for x in sat)
    assert all(x["width"] == 18 and x["r"] == 0 for x in unsat)
    return [x for pair in zip(sat, unsat) for x in pair]


def stochastic_trace(rng: random.Random) -> list[dict]:
    """The stochastic classifier and its 401-row CSV trace on small formulas:
    uniform random 3-CNF, n = 12, m = 56; 8 SAT and 8 UNSAT. Each instance
    takes (gamma, E0, E1) from a seeded set of four with E1 - E0 >= 2."""
    configs = []
    for _ in range(4):
        e0 = rng.randint(-1, 1)
        configs.append({
            "gamma_re": round(rng.uniform(0.5, 2.0), 2),
            "gamma_im": round(rng.uniform(-1.0, 1.0), 2),
            "e0": e0,
            "e1": e0 + rng.randint(2, 4),
        })

    def make(rng):
        amp = rng.choice(configs)
        argv = [
            "--mode", "oracle", "--amplifier", "stochastic", "--format", "csv",
            "--gamma-re", repr(amp["gamma_re"]), "--gamma-im", repr(amp["gamma_im"]),
            "--e0", str(amp["e0"]), "--e1", str(amp["e1"]),
        ]
        clauses = [_random_clause(rng, 12, 3) for _ in range(56)]
        return _instance("", "random_3cnf", 12, clauses, argv, amp)

    return _named(_balanced(rng, make, 8))


def oracle_count_wide(rng: random.Random) -> list[dict]:
    """The brute-force count at n = 17: uniform random 3-CNF with m = 72
    (ratio 4.24, near the threshold, so both classes occur); 8 SAT, 8 UNSAT.
    At n = 18 a run on a slow host held fewer than 100 verdicts of a class."""
    argv = ["--mode", "oracle"] + _CHAOS_JSON

    def make(rng):
        clauses = [_random_clause(rng, 17, 3) for _ in range(72)]
        return _instance("", "random_3cnf", 17, clauses, argv, None)

    return _named(_balanced(rng, make, 8))


def _named(instances: list[dict]) -> list[dict]:
    for i, inst in enumerate(instances):
        inst["name"] = f"{inst['cls']}_{i:02d}"
    return instances


WORKLOADS = {
    "statevector_wide": statevector_wide,
    "stochastic_trace": stochastic_trace,
    "oracle_count_wide": oracle_count_wide,
}


def generate(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


# -- output checks -----------------------------------------------------------------


def check(inst: dict, exit_code: int, emitted: str) -> str | None:
    """None when the verdict and the emitted file agree with the reference;
    otherwise a one-line reason."""
    want = 10 if inst["r"] else 20
    if exit_code != want:
        return f"{inst['name']}: exit {exit_code}, expected {want}"
    if inst["amp"] is not None:
        return _check_trace(inst, emitted)
    return _check_report(inst, emitted)


def _check_report(inst: dict, text: str) -> str | None:
    doc = json.loads(text)
    n, r = inst["n"], inst["r"]
    q2 = doc["q_squared"]["float"]
    if doc["reference"]["r"] != r:
        return f"{inst['name']}: reference r={doc['reference']['r']}, expected {r}"
    if doc["agreement"] is not True:
        return f"{inst['name']}: agreement is {doc['agreement']}"
    if r == 0 and q2 != 0.0:
        return f"{inst['name']}: UNSAT q^2={q2!r} is not exactly 0"
    if abs(q2 - r / 2**n) > Q2_TOL:
        return f"{inst['name']}: q^2={q2!r}, expected {r}/2^{n}"
    rational = doc["q_squared"]["rational"]
    if doc["mode"] == "oracle" and Fraction(rational) != Fraction(r, 2**n):
        return f"{inst['name']}: rational q^2={rational}, expected {r}/2^{n}"
    m_hit = doc["amplifier"]["verdict"]["m_hit"]
    if r == 0:
        return None if m_hit is None else f"{inst['name']}: UNSAT m_hit={m_hit}"
    lower = math.log(1.0 / (2.0 * r / 2**n), A_LOGISTIC)
    if m_hit is None or not lower < m_hit <= 2 * n:
        return f"{inst['name']}: m_hit={m_hit} outside ({lower:.3f}, {2 * n}]"
    return None


def _check_trace(inst: dict, text: str) -> str | None:
    amp = inst["amp"]
    rows = text.splitlines()
    if rows[0] != "t,p1,coh_abs,coh_phase" or len(rows) != SAMPLES + 1:
        return f"{inst['name']}: CSV header {rows[0]!r} with {len(rows) - 1} rows"
    horizon = HORIZON_FACTOR / amp["gamma_re"]
    omega = amp["e1"] - amp["e0"] - 1
    for k, row in enumerate(rows[1:]):
        t, p1, coh, phase = map(float, row.split(","))
        tk = k * horizon / (SAMPLES - 1)
        if abs(t - tk) > 1e-12 * max(1.0, tk):
            return f"{inst['name']}: row {k} t={t!r}, expected {tk!r}"
        if inst["r"]:
            want = (0.5 * math.exp(-2 * amp["gamma_re"] * tk), 0.5 * math.exp(-amp["gamma_re"] * tk))
            phase_err = 0.0
        else:
            want = (0.5, 0.5)
            phase_err = abs(cmath.phase(cmath.exp(1j * (phase - omega * tk))))
        if abs(p1 - want[0]) > TRACE_TOL or abs(coh - want[1]) > TRACE_TOL or phase_err > TRACE_TOL:
            return (f"{inst['name']}: row {k} (p1, |rho01|, phase)=({p1!r}, {coh!r}, {phase!r}) "
                    f"off the closed form at t={tk!r}")
    return None
