"""Deterministic regression corpus: edge cases, unique-solution needles, and
seeded random formulas, each annotated with its brute-forced expectation.

The checked-in corpus/ directory is the output of `PYTHONPATH=src python
tests/corpus.py corpus/`, run from the root of the repository; regeneration is
byte-identical.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

from qsatlab.cnf import CnfFormula, count_satisfying, required_ancillas, serialize_dimacs

_SEED = 20250809


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    formula: CnfFormula


def needle(n: int, solution_bits: list[int]) -> CnfFormula:
    """n unit clauses pinning exactly one assignment (r = 1)."""
    assert len(solution_bits) == n
    return CnfFormula(n, [(v if bit else -v,) for v, bit in enumerate(solution_bits, start=1)])


def _random_clause(rng: random.Random, n: int, max_len: int = 3) -> tuple[int, ...]:
    k = rng.randint(1, min(max_len, n))
    chosen = rng.sample(range(1, n + 1), k)
    return tuple(-v if rng.random() < 0.5 else v for v in chosen)


def random_formula(
    rng: random.Random, max_n: int = 8, max_m: int = 12, qubit_budget: int = 18
) -> CnfFormula:
    """A random small formula whose evaluation circuit fits the budget."""
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(1, max_m)
        formula = CnfFormula(n, (_random_clause(rng, n) for _ in range(m)))
        if formula.n + required_ancillas(formula) <= qubit_budget:
            return formula


def _random_unsat(rng: random.Random, n: int, qubit_budget: int = 18) -> CnfFormula:
    while True:
        m = rng.randint(max(4, 2 * n), 12)
        formula = CnfFormula(n, (_random_clause(rng, n, max_len=2) for _ in range(m)))
        if formula.n + required_ancillas(formula) > qubit_budget:
            continue
        if count_satisfying(formula).r == 0:
            return formula


def default_corpus() -> list[CorpusEntry]:
    rng = random.Random(_SEED)
    entries = [
        CorpusEntry("empty_formula", CnfFormula(3)),
        CorpusEntry("empty_clause", CnfFormula(2, [(), (1,)])),
        CorpusEntry("single_positive_unit", CnfFormula(1, [(1,)])),
        CorpusEntry("single_negative_unit", CnfFormula(1, [(-1,)])),
        CorpusEntry("contradiction_pair", CnfFormula(1, [(1,), (-1,)])),
        CorpusEntry("two_var_or", CnfFormula(2, [(1, 2)])),
        CorpusEntry("complete_square_unsat", CnfFormula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])),
        CorpusEntry("tautology_only", CnfFormula(4, [(1, -1), (3, -3)])),
        CorpusEntry("tautology_plus_unit", CnfFormula(3, [(2, -2), (3,)])),
        CorpusEntry("chain_implications", CnfFormula(4, [(-1, 2), (-2, 3), (-3, 4), (1,)])),
        CorpusEntry("xor_pair_sat", CnfFormula(2, [(1, 2), (-1, -2)])),
        CorpusEntry("blocked_needle_unsat", CnfFormula(3, [(1,), (2,), (3,), (-1, -2, -3)])),
    ]
    for n in (6, 8, 10, 12):
        bits = [rng.randint(0, 1) for _ in range(n)]
        entries.append(CorpusEntry(f"needle_n{n}", needle(n, bits)))
    for n, pinned in ((6, 5), (8, 6)):  # r = 2^(n - pinned) satisfying assignments
        bits = [rng.randint(0, 1) for _ in range(n)]
        slab = CnfFormula(n, [(v if bits[v - 1] else -v,) for v in range(1, pinned + 1)])
        entries.append(CorpusEntry(f"thin_slab_n{n}_p{pinned}", slab))
    for i in range(18):
        entries.append(CorpusEntry(f"random_{i:02d}", random_formula(rng)))
    for i in range(8):
        n = rng.randint(2, 4)
        entries.append(CorpusEntry(f"random_unsat_{i:02d}", _random_unsat(rng, n)))
    return entries


def entry_text(entry: CorpusEntry) -> str:
    expect = "SAT" if count_satisfying(entry.formula).r >= 1 else "UNSAT"
    header = f"c name: {entry.name}\nc expect {expect}\n"
    return header + serialize_dimacs(entry.formula)


def write_corpus(directory: str | Path) -> list[Path]:
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, entry in enumerate(default_corpus()):
        path = out_dir / f"{i:02d}_{entry.name}.cnf"
        path.write_text(entry_text(entry))
        paths.append(path)
    return paths


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "corpus"
    written = write_corpus(target)
    print(f"wrote {len(written)} formulas to {Path(target)}")
