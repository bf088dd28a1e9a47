"""CNF data model, DIMACS parsing, truth evaluation, and the brute-force counting oracle.

Conventions: a formula over n variables is a conjunction of clauses; a clause is a
set of literals (duplicates collapse) and is satisfied when any literal evaluates
true. The empty clause evaluates to 0 (empty join), the empty formula to 1 (empty
meet). Assignments are bit strings (eps_1, ..., eps_n); the integer encoding used
for enumeration puts eps_1 in the most significant bit, matching the statevector
basis-index convention.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import DimacsParseError, EnumerationCapError

#: Enumeration refuses formulas with more variables than this (2^24 = 16.7M
#: assignments is still desk-scale; override per call if you know what you ask).
DEFAULT_ENUMERATION_CAP = 24

_ENUM_BLOCK = 1 << 20


@dataclass(frozen=True, order=True)
class Literal:
    """A variable occurrence with polarity; ``var`` is 1-based."""

    var: int
    negated: bool = False

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")

    def __str__(self) -> str:
        return f"-{self.var}" if self.negated else str(self.var)


@dataclass(frozen=True)
class Clause:
    """A finite set of literals; construction removes duplicates."""

    literals: frozenset[Literal]

    def __init__(self, literals: Iterable[Literal] = ()):
        object.__setattr__(self, "literals", frozenset(literals))

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def sorted_literals(self) -> list[Literal]:
        """Literals sorted by variable, positive polarity first."""
        return sorted(self.literals, key=lambda l: (l.var, l.negated))

    def max_var(self) -> int:
        return max((l.var for l in self.literals), default=0)


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables 1..n."""

    n: int
    clauses: tuple[Clause, ...] = field(default_factory=tuple)

    def __init__(self, n: int, clauses: Iterable[Clause] = ()):
        clauses = tuple(clauses)
        if n < 0:
            raise ValueError(f"variable count must be >= 0, got {n}")
        bad = max((c.max_var() for c in clauses), default=0)
        if bad > n:
            raise ValueError(f"clause references variable {bad} > n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "clauses", clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True)
class Assignment:
    """A truth assignment, one bit per variable."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("assignment bits must be 0 or 1")

    @classmethod
    def from_index(cls, index: int, n: int) -> "Assignment":
        """Decode an integer; bit of eps_1 is the most significant."""
        if not 0 <= index < (1 << n):
            raise ValueError(f"index {index} out of range for n={n}")
        return cls(tuple((index >> (n - i)) & 1 for i in range(1, n + 1)))

    def to_index(self) -> int:
        k = 0
        for b in self.bits:
            k = (k << 1) | b
        return k


@dataclass(frozen=True)
class CountSummary:
    """Result of exhaustive model counting; q_squared is exact."""

    r: int
    total: int
    q_squared: Fraction

    def __post_init__(self):
        if not 0 <= self.r <= self.total:
            raise ValueError("satisfying count out of range")
        if self.q_squared != Fraction(self.r, self.total):
            raise ValueError("q_squared inconsistent with r/total")


# -- parsing / serialization -------------------------------------------------


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF. Comment lines start with 'c'; header is 'p cnf n m';
    clauses are whitespace-separated nonzero ints terminated by 0, and there
    must be exactly m of them. A line starting with '%' (the SATLIB end
    marker) ends the input.
    """
    n = declared_m = None
    header_line = 0
    clauses: list[Clause] = []
    current: list[Literal] = []
    clause_open_line = 0
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        last_line = lineno
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n is not None:
                raise DimacsParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsParseError(f"malformed header {line!r}", lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError(f"non-integer counts in header {line!r}", lineno) from None
            if n < 0:
                raise DimacsParseError(f"negative variable count {n}", lineno)
            header_line = lineno
            continue
        if n is None:
            raise DimacsParseError(f"clause data before 'p cnf' header: {line!r}", lineno)
        for tok in line.split():
            try:
                k = int(tok)
            except ValueError:
                raise DimacsParseError(f"non-integer token {tok!r}", lineno) from None
            if k == 0:
                clauses.append(Clause(current))
                current = []
                continue
            if not current:
                clause_open_line = lineno
            if abs(k) > n:
                raise DimacsParseError(f"variable {abs(k)} exceeds declared n={n}", lineno)
            current.append(Literal(abs(k), negated=k < 0))

    if n is None:
        raise DimacsParseError("empty input: no 'p cnf' header found", max(last_line, 1))
    if current:
        raise DimacsParseError("clause without terminating 0", clause_open_line)
    if len(clauses) != declared_m:
        raise DimacsParseError(f"header declares {declared_m} clauses, found {len(clauses)}", header_line)
    return CnfFormula(n, clauses)


def serialize_dimacs(formula: CnfFormula) -> str:
    """Emit canonical DIMACS: clauses in stored order, literals sorted by var."""
    lines = [f"p cnf {formula.n} {formula.num_clauses}"]
    for clause in formula.clauses:
        toks = [str(l) for l in clause.sorted_literals()]
        lines.append(" ".join(toks + ["0"]))
    return "\n".join(lines) + "\n"


# -- structural operations ----------------------------------------------------


def is_minimal(clause: Clause) -> bool:
    """True iff no variable occurs in both polarities."""
    positive = {l.var for l in clause if not l.negated}
    negative = {l.var for l in clause if l.negated}
    return not (positive & negative)


def filter_minimal(formula: CnfFormula) -> CnfFormula:
    """Drop clauses containing a complementary pair.

    Such a clause is satisfied by every assignment, so removing it from the
    conjunction leaves the satisfying-set untouched. Idempotent.
    """
    return CnfFormula(formula.n, (c for c in formula.clauses if is_minimal(c)))


# -- evaluation ----------------------------------------------------------------


def eval_literal(lit: Literal, assignment: Assignment) -> int:
    bit = assignment.bits[lit.var - 1]
    return 1 - bit if lit.negated else bit


def eval_clause(clause: Clause, assignment: Assignment) -> int:
    """Join over literals; the empty clause is 0."""
    return max((eval_literal(l, assignment) for l in clause), default=0)


def eval_formula(formula: CnfFormula, assignment: Assignment) -> int:
    """Meet over clauses; the empty formula is 1."""
    return min((eval_clause(c, assignment) for c in formula.clauses), default=1)


# -- brute-force counting oracle ----------------------------------------------


def _count_block(formula: CnfFormula, lo: int, hi: int) -> int:
    """Count satisfying assignments with integer encodings in [lo, hi)."""
    ks = np.arange(lo, hi, dtype=np.int64)
    sat = np.ones(hi - lo, dtype=bool)
    for clause in formula.clauses:
        if not sat.any():
            break
        cl = np.zeros(hi - lo, dtype=bool)
        for lit in clause:
            bit = ((ks >> (formula.n - lit.var)) & 1).astype(bool)
            cl |= ~bit if lit.negated else bit
        sat &= cl
    return int(np.count_nonzero(sat))


def count_satisfying(formula: CnfFormula, max_vars: int = DEFAULT_ENUMERATION_CAP) -> CountSummary:
    """Count satisfying assignments by full enumeration of all 2^n of them.

    This is the reference oracle everything else is checked against: no
    pruning, no heuristics. Internally vectorized over blocks of assignments;
    the result is an exact integer and q_squared an exact rational.
    """
    if formula.n > max_vars:
        raise EnumerationCapError(
            f"enumeration over 2^{formula.n} assignments exceeds the cap of "
            f"2^{max_vars}; raise max_vars explicitly to allow it"
        )
    total = 1 << formula.n
    r = 0
    for lo in range(0, total, _ENUM_BLOCK):
        r += _count_block(formula, lo, min(lo + _ENUM_BLOCK, total))
    return CountSummary(r=r, total=total, q_squared=Fraction(r, total))


def is_sat(formula: CnfFormula, max_vars: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """True iff at least one assignment satisfies the formula."""
    return count_satisfying(formula, max_vars=max_vars).r >= 1


def lits(*ints: int) -> Clause:
    """Shorthand clause builder from signed DIMACS-style integers."""
    return Clause(Literal(abs(k), negated=k < 0) for k in ints)
