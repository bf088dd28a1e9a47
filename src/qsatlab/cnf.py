"""CNF data model, DIMACS parsing, and the brute-force counting oracle.

Conventions: a formula over n variables is a conjunction of clauses; a clause is a
set of literals (duplicates collapse) and is satisfied when any literal evaluates
true; it is held as two variable bit masks, pos and neg, with bit v set when v
(or -v) occurs. The empty clause is false (empty join), the empty formula true
(empty meet). Assignments are bit strings (eps_1, ..., eps_n); the circuit
puts eps_1 in the most significant bit of a basis index, but both counters
enumerate with variable v at bit v - 1 (the masks shifted down by one; no
count depends on the labelling). Enumeration packs index k into lane
k % 64 of uint64 word k // 64; the counting oracle lays those words out as
rows of 2^8 contiguous words, indexed by the first word variables, one row
per value of the later ones.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import DimacsParseError, EnumerationCapError, InvariantError

#: Enumeration refuses more variables than this: 2^24 = 16.7M assignments is still desk-scale.
DEFAULT_ENUMERATION_CAP = 24

#: Enumeration packs 64 assignments per uint64 word: assignment k sits in lane
#: k % 64 of word k // 64. _LANE_BITS[b] is the word whose lane j holds bit b
#: of j, so its first min(n, 6) entries are the columns of variables 1..6.
_LANE_BITS = np.array(
    [
        0xAAAAAAAAAAAAAAAA,
        0xCCCCCCCCCCCCCCCC,
        0xF0F0F0F0F0F0F0F0,
        0xFF00FF00FF00FF00,
        0xFFFF0000FFFF0000,
        0xFFFFFFFF00000000,
    ],
    dtype=np.uint64,
)
_ALL_LANES = (1 << 64) - 1  # the all-ones word, as a Python int and as a uint64
_ALL_WORD = np.uint64(_ALL_LANES)
_FREE = slice(None)  # an axis no literal pins
#: For a set s of lane-index bits, _LANES_TRUE[s] is the word holding the
#: lanes j with some bit b in s set, _LANES_FALSE[s] those with some such bit
#: clear; bit b of j is variable b + 1.
_LANES_TRUE, _LANES_FALSE = (
    tuple(functools.reduce(int.__or__, (int(_LANE_BITS[b]) ^ flip for b in range(6) if s >> b & 1), 0)
          for s in range(64))
    for flip in (0, _ALL_LANES)
)
#: The first min(_ROW_VARS, n - 6) word variables index one contiguous row of
#: words (at most 16: rows are indexed in uint16). Over 6..10 on random 3-CNF
#: at m = round(4.26 n), 8 was the fastest at n = 17, 20 and 24 and 9 at
#: n = 22 (0.77 against 0.90 ms); 10 took twice as long at n = 17.
_ROW_VARS = 8
_COLUMN = np.arange(1 << _ROW_VARS, dtype=np.uint16)  # the word indices within a row
#: The clause rows built at once hold at most this many words (256 KiB).
_ROW_BUDGET = 1 << 15
#: parse_dimacs refuses input whose clause masks could take more bits than
#: this (256 MiB): a clause's two masks each span up to its largest variable.
_MASK_BUDGET = 1 << 31


@dataclass(frozen=True, order=True)
class Literal:
    """A variable occurrence with polarity; ``var`` is 1-based."""

    var: int
    negated: bool = False

    def __post_init__(self):
        if self.var < 1:
            raise ValueError(f"variable index must be >= 1, got {self.var}")


class Clause:
    """A finite set of literals, held as two variable bit masks: bit v of pos
    is set when v occurs, bit v of neg when -v does (bit 0 is never set). A
    literal set and its masks determine each other, so duplicates collapse
    and equal clauses hold equal masks. Immutable."""

    __slots__ = ("pos", "neg")

    def __init__(self, literals: Iterable[Literal] = ()):
        literals = set(literals)
        _set_pos(self, sum(1 << l.var for l in literals if not l.negated))
        _set_neg(self, sum(1 << l.var for l in literals if l.negated))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Clause is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _clause, (self.pos, self.neg)

    def __eq__(self, other) -> bool:
        return isinstance(other, Clause) and self.pos == other.pos and self.neg == other.neg

    def __hash__(self) -> int:
        return hash((self.pos, self.neg))

    def __repr__(self) -> str:
        return f"Clause({self.sorted_literals()!r})"

    @property
    def literals(self) -> frozenset[Literal]:
        """The literal set the masks hold."""
        return frozenset(self.sorted_literals())

    def __len__(self) -> int:
        return self.pos.bit_count() + self.neg.bit_count()

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.sorted_literals())

    def dimacs(self) -> list[int]:
        """The literals as signed DIMACS integers, sorted by variable, v before -v."""
        pos, neg = self.pos, self.neg
        both, out = pos | neg, []
        while both:
            v = (both & -both).bit_length() - 1
            if pos >> v & 1:
                out.append(v)
            if neg >> v & 1:
                out.append(-v)
            both &= both - 1
        return out

    def sorted_literals(self) -> list[Literal]:
        """Literals sorted by variable, positive polarity first."""
        return [Literal(abs(k), negated=k < 0) for k in self.dimacs()]


#: Clause's slot setters, which write past its refusing __setattr__.
_set_pos, _set_neg = Clause.pos.__set__, Clause.neg.__set__


def _clause(pos: int, neg: int) -> Clause:
    """The clause holding these masks, built without literals."""
    clause = object.__new__(Clause)
    _set_pos(clause, pos)
    _set_neg(clause, neg)
    return clause


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables 1..n."""

    n: int
    clauses: tuple[Clause, ...] = field(default_factory=tuple)

    def __init__(self, n: int, clauses: Iterable[Clause] = ()):
        clauses = tuple(clauses)
        if n < 0:
            raise ValueError(f"variable count must be >= 0, got {n}")
        bad = max((c.pos | c.neg for c in clauses), default=0).bit_length() - 1
        if bad > n:
            raise ValueError(f"clause references variable {bad} > n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "clauses", clauses)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def _formula(n: int, clauses: list[Clause]) -> CnfFormula:
    """CnfFormula(n, clauses) for clauses already range-checked against n."""
    formula = object.__new__(CnfFormula)
    formula.__dict__.update(n=n, clauses=tuple(clauses))
    return formula


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
    marker) ends the input. A malformed input reports its first fault in
    file order, with that fault's line.

    The clause lines after the header are kept without their line numbers,
    joined and cut at an end marker, and tokenised together; each distinct
    token is converted once, the range check reads the distinct values, and
    each literal is ORed straight into its clause's masks. A second header
    leaves a token that is not an integer, so only a fault sends the parser
    back over the lines (_clause_lines) to find where it sits.
    """
    lines = text.splitlines()
    n = declared_m = None
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if not line.startswith("p"):
            raise DimacsParseError(f"clause data before 'p cnf' header: {line!r}", lineno)
        parts = line.split()
        if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
            raise DimacsParseError(f"malformed header {line!r}", lineno)
        try:
            n, declared_m = int(parts[2]), int(parts[3])
        except ValueError:
            raise DimacsParseError(f"non-integer counts in header {line!r}", lineno) from None
        if n < 0:
            raise DimacsParseError(f"negative variable count {n}", lineno)
        break
    if n is None:
        raise DimacsParseError("empty input: no 'p cnf' header found", max(lineno, 1))
    header_line = lineno

    # Each kept line follows a newline, so the first '%' line is the first "\n%".
    body = "\n" + "\n".join([line for raw in lines[header_line:] if (line := raw.strip()) and line[0] != "c"])
    end = body.find("\n%")
    tokens = (body if end < 0 else body[:end]).split()
    try:
        value = {tok: int(tok) for tok in set(tokens)}
    except ValueError:
        value = None
    if value is None or value and (max(value.values()) > n or -min(value.values()) > n):
        for _ in _clause_lines(lines, header_line, n):  # raises at the fault
            pass
        raise InvariantError("parse_dimacs: the faulty token is on no line")
    ints = list(map(value.__getitem__, tokens))
    if 2 * n * len(ints) > _MASK_BUDGET and (bits := 2 * sum(map(abs, ints))) > _MASK_BUDGET:
        raise ValueError(f"clause masks over n={n} variables could take {bits >> 23} MiB, "
                         f"over the budget of {_MASK_BUDGET >> 23} MiB")
    clauses: list[Clause] = []
    pos = neg = 0
    for k in ints:
        if k > 0:
            pos |= 1 << k
        elif k:
            neg |= 1 << -k
        else:
            clauses.append(_clause(pos, neg))
            pos = neg = 0
    if pos | neg:
        opened = len(ints) - ints[::-1].index(0) if 0 in ints else 0  # the open clause's first token
        for lineno, line in _clause_lines(lines, header_line, n):
            opened -= len(line.split())
            if opened < 0:
                raise DimacsParseError("clause without terminating 0", lineno)
        raise InvariantError("parse_dimacs: the open clause's first token is on no line")
    if len(clauses) != declared_m:
        raise DimacsParseError(f"header declares {declared_m} clauses, found {len(clauses)}", header_line)
    return _formula(n, clauses)


def _clause_lines(lines: list[str], header_line: int, n: int) -> Iterator[tuple[int, str]]:
    """The clause lines after the header, stripped, with their line numbers,
    up to a '%' line. Raises at the first fault in file order: a token that
    is not an integer or names a variable past n, or a second header."""
    for lineno, raw in enumerate(lines[header_line:], start=header_line + 1):
        line = raw.strip()
        if line.startswith("%"):
            return
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            raise DimacsParseError("duplicate header", lineno)
        for tok in line.split():
            try:
                k = int(tok)
            except ValueError:
                raise DimacsParseError(f"non-integer token {tok!r}", lineno) from None
            if abs(k) > n:
                raise DimacsParseError(f"variable {abs(k)} exceeds declared n={n}", lineno)
        yield lineno, line


def serialize_dimacs(formula: CnfFormula) -> str:
    """Emit canonical DIMACS: clauses in stored order, literals sorted by var."""
    lines = [f"p cnf {formula.n} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, [*clause.dimacs(), 0])))
    return "\n".join(lines) + "\n"


# -- structural operations ----------------------------------------------------


def filter_minimal(formula: CnfFormula) -> tuple[Clause, ...]:
    """The clauses without a complementary pair, in order.

    A dropped clause is satisfied by every assignment, so leaving it out of
    the conjunction leaves the satisfying set untouched. Idempotent. Built
    from a list, which gives the tuple its size up front.
    """
    return tuple([c for c in formula.clauses if not c.pos & c.neg])


def required_ancillas(formula: CnfFormula) -> int:
    """Ancilla count mu of the formula's evaluation circuit (sat_circuit).

    mu = sum over kept clauses of (|C|-1) + (m-1) + 1, degenerating to 1 for
    constant formulas; linear in m*n since kept clauses are minimal.
    """
    return _ancillas(filter_minimal(formula))


def _ancillas(active: tuple[Clause, ...]) -> int:
    """required_ancillas for the kept clauses: sum |C| - m + (m - 1) + 1 is their
    literal count, and a kept clause never holds v and -v, so |C| = |pos | neg|."""
    sizes = [(c.pos | c.neg).bit_count() for c in active]
    return sum(sizes) if sizes and all(sizes) else 1


# -- brute-force counting oracle ----------------------------------------------


def _check_cap(n: int) -> None:
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(
            f"enumeration over 2^{n} assignments exceeds the cap of 2^{DEFAULT_ENUMERATION_CAP}"
        )


def live_lanes(n: int) -> int:
    """The lanes of a word that hold one of the 2^n assignments: all 64 once n >= 6."""
    return (1 << (1 << min(n, 6))) - 1


@functools.cache
def input_columns(n: int) -> tuple[np.ndarray | np.uint64, ...]:
    """Each variable's value under all 2^n assignments in the oracle's layout,
    shared and read-only: variable v <= 6 is _LANE_BITS[v - 1], word variable
    7 + i is [0, ~0] along axis words - 1 - i alone (bit i of the word index).
    Past DEFAULT_ENUMERATION_CAP variables this raises EnumerationCapError."""
    _check_cap(n)
    words = max(n - 6, 0)
    pattern = np.array([0, _ALL_LANES], dtype=np.uint64)
    pattern.flags.writeable = False  # every word column is a view of it
    return (*_LANE_BITS[: min(n, 6)],
            *(pattern.reshape([1] * (words - 1 - i) + [2] + [1] * i) for i in range(words)))


def _count_models(formula: CnfFormula) -> int:
    """Satisfying assignments, counted on rows of clause subcubes.

    sat holds one bit per assignment, variable v at bit v - 1 of its index:
    lanes as in _LANE_BITS, the first k word (inner) variables index a
    contiguous row of 2^k words, and each later (outer) word variable owns one
    size-2 axis, the last variable the first axis. A clause is false only where
    all its literals are: its outer literals pin a subcube of rows, and in
    each of those rows it clears the lanes its lane literals falsify, at the
    words its inner literals falsify. The rows of a batch of clauses are
    built at once, the rows of clauses pinning the same subcube are ANDed,
    and that subcube takes one in-place update.

    The rows are filled from the last outer axis up: at level L the first
    2^L rows, sat[0, ..., 0, c], hold for each c over the last L axes the AND
    of the rows whose pins all lie among those axes, and copying them onto
    the next 2^L rows makes level L + 1. A clause whose first pin is on the
    L-th axis from the end is applied at level L, so it touches only
    2^(L - pins) rows.
    """
    n = formula.n
    words = max(n - 6, 0)
    k = min(_ROW_VARS, words)
    outer = words - k
    inner = (1 << k) - 1
    # (level, outer pins, the values they falsify at) -> rows. Outer axis i is bit
    # outer-1-i of the pins, so the level is their bit length. The live lanes
    # lead as a row that pins nothing.
    groups: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {(0, 0, 0): [(0, 0, live_lanes(n))]}
    for clause in formula.clauses:
        pos, neg = clause.pos, clause.neg  # bit v, so bit v - 1 of an index once shifted
        if pos & neg:  # v and -v: the clause holds everywhere
            continue
        pins, ones = (pos | neg) >> 7, neg >> 7  # 1 where a word variable falsifies the clause
        row = (pins & inner, ones & inner, _LANES_TRUE[pos >> 1 & 63] | _LANES_FALSE[neg >> 1 & 63])
        pins >>= k
        group = groups.get(key := (pins.bit_length(), pins, ones >> k))
        if group is None:
            groups[key] = [row]
        else:
            group.append(row)
    sat = np.empty((2,) * outer + (1 << k,), dtype=np.uint64)
    flat = sat.reshape(-1, 1 << k)
    filled = -1  # the level flat's leading rows are complete to; -1 until the first is written
    column = _COLUMN[: 1 << k]
    for batch in _batches(sorted(groups.items()), max(_ROW_BUDGET >> k, 1)):
        care, false_at, mask = zip(*[row for _, part in batch for row in part])
        rows = np.array(mask, dtype=np.uint64)[:, None]
        if k:  # with no inner variable a clause's row is its lane mask
            care, false_at = np.array((care, false_at), dtype=np.uint16)[:, :, None]
            rows = np.where(column & care == false_at, rows, _ALL_WORD)
        start = 0
        for (level, pins, ones), part in batch:
            stop = start + len(part)
            row = rows[start] if stop == start + 1 else np.bitwise_and.reduce(rows[start:stop], axis=0)
            start = stop
            if filled < 0:  # the first part of the unpinned group, which holds the live lanes
                flat[0] = row
                filled = 0
                continue
            for done in range(filled, level):  # copy level done's rows to make level done + 1
                flat[1 << done : 2 << done] = flat[: 1 << done]
            filled = max(filled, level)
            index = [ones >> b & 1 if pins >> b & 1 else _FREE for b in range(level - 1, -1, -1)]
            sat[(*(0,) * (outer - level), *index)] &= row
    for done in range(filled, outer):
        flat[1 << done : 2 << done] = flat[: 1 << done]
    return int(np.bitwise_count(sat).sum())


def _batches(groups: list, size: int):
    """The (key, rows) pairs in order, a group split where it holds more than
    size rows, packed into batches of at most size rows each."""
    batch, held = [], 0
    for key, rows in groups:
        for lo in range(0, len(rows), size):
            part = rows[lo : lo + size]
            if held + len(part) > size:
                yield batch
                batch, held = [], 0
            batch.append((key, part))
            held += len(part)
    if batch:
        yield batch


def count_satisfying(formula: CnfFormula) -> CountSummary:
    """Count satisfying assignments by full enumeration of all 2^n of them.

    This is the reference oracle everything else is checked against: no
    pruning, no heuristics. Every assignment keeps its own bit in one uint64
    array, 64 per word, 2^max(n-6, 0) words (2 MiB at n = 24), laid out as
    rows of up to 2^_ROW_VARS words. Each clause becomes one row that clears
    the bits it falsifies; the rows of clauses whose outer literals pin the
    same rows are ANDed first, and each such subcube takes one contiguous
    update. The result is an exact integer and q_squared an exact rational.
    Past DEFAULT_ENUMERATION_CAP variables this raises EnumerationCapError
    before allocating anything.
    """
    _check_cap(formula.n)
    total = 1 << formula.n
    r = _count_models(formula)
    try:
        return CountSummary(r=r, total=total, q_squared=Fraction(r, total))
    except ValueError as exc:
        raise InvariantError(f"brute-force count: {exc} (r={r}, total={total})") from exc


def lits(*ints: int) -> Clause:
    """Shorthand clause builder from signed DIMACS-style integers."""
    return Clause(Literal(abs(k), negated=k < 0) for k in ints)
