"""CNF data model, DIMACS parsing, and the brute-force counting oracle.

Conventions: a formula over n variables is a conjunction of clauses; a clause
is a set of literals (duplicates collapse) and is satisfied when any literal
evaluates true. A clause enters the package as its signed DIMACS integers, k
for variable k and -k for its negation, the form the parser reads and
serialize_dimacs writes. A formula holds n and two mask columns alone, the
pos and the neg masks in clause order, with bit v of a clause's mask set when
v (or -v) occurs; parsing, the circuit build and both counters read those.
The empty clause is false (empty join), the empty formula true (empty meet).
Assignments are bit strings (eps_1, ..., eps_n); the circuit puts eps_1 in the
most significant bit of a basis index, but both counters enumerate with
variable v at bit v - 1 (the masks shifted down by one; no count depends on
the labelling). Enumeration packs index k into lane k % 64 of uint64 word
k // 64; the counting oracle lays those words out as rows of 2^8 contiguous
words, indexed by the first word variables, one row per value of the later
ones.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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
#: For a clause mask s, bit v set for variable v, _LANES_TRUE[s & 127] is the
#: word holding the lanes j where some variable v <= 6 of s is true (bit v - 1
#: of j set), _LANES_FALSE[s & 127] those where some such variable is false.
_LANES_TRUE, _LANES_FALSE = (
    np.array([functools.reduce(int.__or__, (int(_LANE_BITS[b]) ^ flip for b in range(6) if s >> b + 1 & 1), 0)
              for s in range(128)], dtype=np.uint64)
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


def _dimacs(pos: int, neg: int) -> list[int]:
    """The signed DIMACS integers of the clause holding these masks, sorted by
    variable, v before -v."""
    both, out = pos | neg, []
    while both:
        v = (both & -both).bit_length() - 1
        if pos >> v & 1:
            out.append(v)
        if neg >> v & 1:
            out.append(-v)
        both &= both - 1
    return out


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables 1..n, each clause given as its
    signed DIMACS integers, as in CnfFormula(3, [(1, -2), (3,), ()]); a
    clause that is not iterable, or a literal that is 0, not exactly an int,
    or past n is refused. The formula
    holds n and two mask columns alone: bit v of pos[i] is set when clause i
    holds v, bit v of neg[i] when it holds -v (bit 0 is never set), so
    duplicates collapse. Equality, hashing and pickling read those."""

    n: int
    pos: tuple[int, ...]
    neg: tuple[int, ...]

    def __init__(self, n: int, clauses: Iterable[Iterable[int]] = ()):
        if type(n) is not int or n < 0:
            raise ValueError(f"variable count must be an int >= 0, got {n!r}")
        pos_column, neg_column = [], []
        for clause in clauses:
            try:
                clause = tuple(clause)
            except TypeError:  # a bare literal, as in [1] for [(1,)]
                raise ValueError(f"clause {clause!r} is not a sequence of literals") from None
            for k in clause:
                if type(k) is not int or not 0 < abs(k) <= n:
                    raise ValueError(f"clause {clause}: literal {k!r} is not a nonzero int in -{n}..{n}")
            pos_column.append(sum(1 << k for k in set(clause) if k > 0))
            neg_column.append(sum(1 << -k for k in set(clause) if k < 0))
        self.__dict__.update(n=n, pos=tuple(pos_column), neg=tuple(neg_column))

    @property
    def num_clauses(self) -> int:
        return len(self.pos)


def _formula(n: int, pos: list[int], neg: list[int]) -> CnfFormula:
    """The formula over these mask columns, already range-checked against n."""
    formula = object.__new__(CnfFormula)
    formula.__dict__.update(n=n, pos=tuple(pos), neg=tuple(neg))
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
            n, declared_m = _decimal(parts[2]), _decimal(parts[3])
        except ValueError:
            raise DimacsParseError(f"non-integer counts in header {line!r}", lineno) from None
        if n < 0:
            raise DimacsParseError(f"negative variable count {n}", lineno)
        if declared_m < 0:
            raise DimacsParseError(f"negative clause count {declared_m}", lineno)
        break
    if n is None:
        raise DimacsParseError("empty input: no 'p cnf' header found", max(lineno, 1))
    header_line = lineno

    # Each kept line follows a newline, so the first '%' line is the first "\n%".
    body = "\n" + "\n".join([line for raw in lines[header_line:] if (line := raw.strip()) and line[0] != "c"])
    end = body.find("\n%")
    body = body if end < 0 else body[:end]
    tokens = body.split()
    convert = int if body.isascii() and "_" not in body else _decimal
    try:
        value = {tok: convert(tok) for tok in set(tokens)}
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
    pos_column: list[int] = []
    neg_column: list[int] = []
    pos = neg = 0
    for k in ints:
        if k > 0:
            pos |= 1 << k
        elif k:
            neg |= 1 << -k
        else:
            pos_column.append(pos)
            neg_column.append(neg)
            pos = neg = 0
    if pos | neg:
        opened = len(ints) - ints[::-1].index(0) if 0 in ints else 0  # the open clause's first token
        for lineno, line in _clause_lines(lines, header_line, n):
            opened -= len(line.split())
            if opened < 0:
                raise DimacsParseError("clause without terminating 0", lineno)
        raise InvariantError("parse_dimacs: the open clause's first token is on no line")
    if len(pos_column) != declared_m:
        raise DimacsParseError(f"header declares {declared_m} clauses, found {len(pos_column)}", header_line)
    return _formula(n, pos_column, neg_column)


def _decimal(token: str) -> int:
    """The value of an ASCII decimal token; int() alone would also take
    '1_0' and non-ASCII digits."""
    if token.isascii() and "_" not in token:
        return int(token)
    raise ValueError(f"not an ASCII decimal: {token!r}")


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
                k = _decimal(tok)
            except ValueError:
                raise DimacsParseError(f"non-integer token {tok!r}", lineno) from None
            if abs(k) > n:
                raise DimacsParseError(f"variable {abs(k)} exceeds declared n={n}", lineno)
        yield lineno, line


def serialize_dimacs(formula: CnfFormula) -> str:
    """Emit canonical DIMACS: clauses in stored order, literals sorted by var."""
    lines = [f"p cnf {formula.n} {formula.num_clauses}"]
    for pos, neg in zip(formula.pos, formula.neg):
        lines.append(" ".join(map(str, [*_dimacs(pos, neg), 0])))
    return "\n".join(lines) + "\n"


# -- structural operations ----------------------------------------------------


def required_ancillas(formula: CnfFormula) -> int:
    """Ancilla count mu of the formula's evaluation circuit (sat_circuit).

    mu = sum over kept clauses of (|C|-1) + (m-1) + 1, degenerating to 1 for
    constant formulas; linear in m*n since kept clauses are minimal.
    """
    return _ancillas(_kept(formula))


def _kept(formula: CnfFormula) -> list[tuple[int, int]]:
    """The (pos, neg) masks of the clauses without a complementary pair, in order."""
    return [(pos, neg) for pos, neg in zip(formula.pos, formula.neg) if not pos & neg]


def _ancillas(kept: list[tuple[int, int]]) -> int:
    """required_ancillas for the kept masks: sum |C| - m + (m - 1) + 1 is their
    literal count, and a kept clause never holds v and -v, so |C| = |pos | neg|."""
    sizes = [(pos | neg).bit_count() for pos, neg in kept]
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
    words its inner literals falsify.

    The mask columns are read as int64 arrays (n <= 24, so every mask fits),
    and each clause's lane word, inner care and false-at values and outer key
    are computed for all clauses at once. With no word variable the count is
    the AND of the lane words; with no outer axis every row is ANDed into the
    one row there is. Otherwise the columns are sorted by key, so the clauses
    pinning the same subcube sit together: the rows of a batch are built at
    once, each such run of rows is ANDed, and its subcube takes one in-place
    update.

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
    pos = np.array(formula.pos, dtype=np.int64)  # bit v, so bit v - 1 of an index once shifted
    neg = np.array(formula.neg, dtype=np.int64)
    if np.count_nonzero(pos & neg):  # v and -v: the clause holds everywhere
        kept = pos & neg == 0
        pos, neg = pos[kept], neg[kept]
    if outer:  # outer axis i is bit outer-1-i of the pins, so the level is their bit length
        key = (pos | neg) >> 7 + k << outer | neg >> 7 + k  # the pins, then the values they falsify at
        order = key.argsort(kind="stable")
        key, pos, neg = key[order], pos[order], neg[order]
    lanes = _LANES_TRUE[pos & 127] | _LANES_FALSE[neg & 127]
    if not words:
        return (int(np.bitwise_and.reduce(lanes)) & live_lanes(n)).bit_count()
    # Bit i of an inner value is word variable 7 + i: 1 where it falsifies the clause.
    care, false_at = (np.array((pos | neg, neg)) >> 7 & (1 << k) - 1).astype(np.uint16)[:, :, None]
    sat = np.empty((2,) * outer + (1 << k,), dtype=np.uint64)
    flat = sat.reshape(-1, 1 << k)
    flat[0] = _ALL_WORD
    filled = 0  # the level flat's leading rows are complete to
    column = _COLUMN[: 1 << k]
    size = _ROW_BUDGET >> k
    for lo in range(0, len(lanes), size):
        batch = slice(lo, lo + size)
        rows = np.where(column & care[batch] == false_at[batch], lanes[batch, None], _ALL_WORD)
        if not outer:
            sat &= np.bitwise_and.reduce(rows, axis=0)
            continue
        keys = key[batch]
        bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
        for start, stop, group in zip(bounds, bounds[1:], keys[bounds[:-1]].tolist()):
            row = rows[start] if stop == start + 1 else np.bitwise_and.reduce(rows[start:stop], axis=0)
            pins, ones = group >> outer, group & (1 << outer) - 1
            level = pins.bit_length()
            for done in range(filled, level):  # copy level done's rows to make level done + 1
                flat[1 << done : 2 << done] = flat[: 1 << done]
            filled = max(filled, level)
            index = [ones >> b & 1 if pins >> b & 1 else _FREE for b in range(level - 1, -1, -1)]
            sat[(*(0,) * (outer - level), *index)] &= row
    for done in range(filled, outer):
        flat[1 << done : 2 << done] = flat[: 1 << done]
    return int(np.bitwise_count(sat).sum())


def count_satisfying(formula: CnfFormula) -> CountSummary:
    """Count satisfying assignments by full enumeration of all 2^n of them.

    This is the reference oracle everything else is checked against: no
    pruning, no heuristics. Every assignment keeps its own bit in one uint64
    array, 64 per word, 2^max(n-6, 0) words (2 MiB at n = 24), laid out as
    rows of up to 2^_ROW_VARS words. The formula's mask columns are read as
    arrays and every clause's row, which clears the bits it falsifies, is
    built in whole-array steps, with no loop over the clauses; the columns are
    sorted so that the rows of clauses whose outer literals pin the same rows
    sit together and are ANDed first, and each such subcube takes one
    contiguous update. The result is an exact integer and q_squared an exact
    rational.
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

