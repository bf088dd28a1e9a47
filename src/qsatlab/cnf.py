"""CNF data model, DIMACS parsing, truth evaluation, and the brute-force counting oracle.

Conventions: a formula over n variables is a conjunction of clauses; a clause is a
set of literals (duplicates collapse) and is satisfied when any literal evaluates
true. The empty clause evaluates to 0 (empty join), the empty formula to 1 (empty
meet). Assignments are bit strings (eps_1, ..., eps_n); the integer encoding used
for enumeration puts eps_1 in the most significant bit, matching the statevector
basis-index convention. Enumeration packs assignment k into lane k % 64 of
uint64 word k // 64.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import DimacsParseError, EnumerationCapError, InvariantError

#: Enumeration refuses formulas with more variables than this (2^24 = 16.7M
#: assignments is still desk-scale; override per call if you know what you ask).
DEFAULT_ENUMERATION_CAP = 24

#: Enumeration packs 64 assignments per uint64 word: assignment k sits in lane
#: k % 64 of word k // 64. _LANE_BITS[5 - b] is the word whose lane j holds bit
#: b of j, so its last min(n, 6) entries are the columns of the last min(n, 6)
#: variables.
_LANE_BITS = np.array(
    [
        0xFFFFFFFF00000000,
        0xFFFF0000FFFF0000,
        0xFF00FF00FF00FF00,
        0xF0F0F0F0F0F0F0F0,
        0xCCCCCCCCCCCCCCCC,
        0xAAAAAAAAAAAAAAAA,
    ],
    dtype=np.uint64,
)
#: The same lane patterns as Python ints, and the all-ones word.
_LANE_MASKS = tuple(int(word) for word in _LANE_BITS)
_ALL_LANES = (1 << 64) - 1
_FREE = slice(None)  # an axis no literal pins
#: An enumeration block spans at most _MAX_BLOCK_WORDS words, and all the
#: columns its caller asks for at most _BLOCK_BYTES.
_MAX_BLOCK_WORDS = 1 << 14
_BLOCK_BYTES = 1 << 25


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


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables 1..n."""

    n: int
    clauses: tuple[Clause, ...] = field(default_factory=tuple)

    def __init__(self, n: int, clauses: Iterable[Clause] = ()):
        clauses = tuple(clauses)
        if n < 0:
            raise ValueError(f"variable count must be >= 0, got {n}")
        bad = max((l.var for c in clauses for l in c.literals), default=0)
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
    interned: dict[int, Literal] = {}  # one Literal per signed integer
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
            lit = interned.get(k)
            if lit is None:
                if abs(k) > n:
                    raise DimacsParseError(f"variable {abs(k)} exceeds declared n={n}", lineno)
                lit = interned[k] = Literal(abs(k), negated=k < 0)
            current.append(lit)

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
    return len({l.var for l in clause.literals}) == len(clause.literals)


def filter_minimal(formula: CnfFormula) -> tuple[Clause, ...]:
    """The clauses without a complementary pair, in order.

    A dropped clause is satisfied by every assignment, so leaving it out of
    the conjunction leaves the satisfying set untouched. Idempotent.
    """
    return tuple(c for c in formula.clauses if is_minimal(c))


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


def _check_cap(n: int, max_vars: int) -> None:
    if n > max_vars:
        raise EnumerationCapError(
            f"enumeration over 2^{n} assignments exceeds the cap of "
            f"2^{max_vars}; raise max_vars explicitly to allow it"
        )


def input_blocks(n: int, width: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the 2^n assignments block by block as packed uint64 columns.

    Each item is (columns, live). columns has `width` rows over the block's
    words: row i-1 holds variable i, which is bit n-i of assignment
    k = 64*word + lane, and the rows from n on are zero, left to the caller.
    live marks the lanes that hold an assignment (all of them once n > 6).
    Blocks are sized so that columns stay within _BLOCK_BYTES. Past
    DEFAULT_ENUMERATION_CAP variables this raises EnumerationCapError before
    allocating anything.
    """
    _check_cap(n, DEFAULT_ENUMERATION_CAP)
    lanes = 1 << n
    # Two words at least: numpy's in-place ufuncs take a slow path on size-1 arrays.
    total_words = max(2, lanes >> 6)
    words = min(total_words, _MAX_BLOCK_WORDS, max(1, _BLOCK_BYTES // (8 * width)))
    low = min(n, 6)
    for lo in range(0, total_words, words):
        size = min(words, total_words - lo)
        columns = np.zeros((width, size), dtype=np.uint64)
        columns[n - low : n] = _LANE_BITS[6 - low :, None]
        if n > 6:  # variables 1..n-6 are bits n-7..0 of the word index
            shifts = np.arange(n - 7, -1, -1)[:, None]
            columns[: n - 6] = np.negative((np.arange(lo, lo + size) >> shifts) & 1)
            live = np.full(size, ~np.uint64(0))
        else:
            live = np.array(
                [(1 << min(64, max(0, lanes - 64 * w))) - 1 for w in range(lo, lo + size)],
                dtype=np.uint64,
            )
        yield columns, live


def _count_models(formula: CnfFormula) -> int:
    """Satisfying assignments, counted on clause subcubes.

    Axis i-1 of sat is word variable i; the lanes of a word hold the last
    min(n, 6) variables as in _LANE_BITS. A clause is false only where all
    its literals are: word literals pin their axes to the falsifying bit,
    lane literals OR into one mask, and the pinned subcube is ANDed with it.
    """
    n = formula.n
    words = max(n - 6, 0)
    sat = np.full((2,) * words, (1 << (1 << min(n, 6))) - 1, dtype=np.uint64)
    for clause in formula.clauses:
        index = [_FREE] * words
        mask = 0
        for lit in clause.literals:
            axis = lit.var - 1
            if axis >= words:
                column = _LANE_MASKS[axis - n + 6]
                mask |= column ^ _ALL_LANES if lit.negated else column
            elif index[axis] is _FREE:
                index[axis] = int(lit.negated)
            else:  # v and -v: the clause holds everywhere
                break
        else:
            # In place through one subscript: with n <= 6, sat[()] is a copy.
            sat[tuple(index)] &= mask
    return int(np.bitwise_count(sat).sum())


def count_satisfying(formula: CnfFormula, max_vars: int = DEFAULT_ENUMERATION_CAP) -> CountSummary:
    """Count satisfying assignments by full enumeration of all 2^n of them.

    This is the reference oracle everything else is checked against: no
    pruning, no heuristics. Every assignment keeps its own bit in one uint64
    array, 64 per word, 2^max(n-6, 0) words (2 MiB at n = 24); each clause
    clears the bits it falsifies, touching only the 2^(n-6-h) words its h
    word-variable literals leave free. The result is an exact integer and
    q_squared an exact rational. Past max_vars variables this raises
    EnumerationCapError before allocating anything.
    """
    _check_cap(formula.n, max_vars)
    total = 1 << formula.n
    r = _count_models(formula)
    try:
        return CountSummary(r=r, total=total, q_squared=Fraction(r, total))
    except ValueError as exc:
        raise InvariantError(f"brute-force count: {exc} (r={r}, total={total})") from exc


def is_sat(formula: CnfFormula, max_vars: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """True iff at least one assignment satisfies the formula."""
    return count_satisfying(formula, max_vars=max_vars).r >= 1


def lits(*ints: int) -> Clause:
    """Shorthand clause builder from signed DIMACS-style integers."""
    return Clause(Literal(abs(k), negated=k < 0) for k in ints)
