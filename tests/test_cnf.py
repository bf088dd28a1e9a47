import contextlib
import dataclasses
import io
import pickle
import random
import re
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (all_assignments, bit_parallel_count, brute_count, brute_eval, random_3cnf, random_test_formula,
                      reference_parse)
from qsatlab import cnf
from qsatlab.cli import main
from qsatlab.cnf import (
    CnfFormula,
    CountSummary,
    count_satisfying,
    input_columns,
    parse_dimacs,
    required_ancillas,
    serialize_dimacs,
)
from qsatlab.errors import DimacsParseError, EnumerationCapError, InvariantError
from reference import decode, filter_minimal


# -- parsing ------------------------------------------------------------------


def test_parse_basic():
    assert parse_dimacs("p cnf 2 1\n1 2 0\n") == CnfFormula(2, [(1, 2)])


def test_parse_unit_clauses():
    assert parse_dimacs("p cnf 1 2\n1 0\n-1 0\n") == CnfFormula(1, [(1,), (-1,)])


def test_parse_comments_blank_lines_and_multiline_clauses():
    text = "c a comment\n\np cnf 3 2\nc another\n1 -2\n3 0\n-1 0\n"
    assert parse_dimacs(text) == CnfFormula(3, [(1, -2, 3), (-1,)])


def test_parse_two_clauses_on_one_line():
    assert parse_dimacs("p cnf 2 2\n1 0 -2 0\n") == CnfFormula(2, [(1,), (-2,)])


def test_parse_variable_out_of_range():
    with pytest.raises(DimacsParseError, match=r"line 2.*variable 3 exceeds declared n=2"):
        parse_dimacs("p cnf 2 1\n3 0\n")


def test_parse_malformed_header():
    with pytest.raises(DimacsParseError, match="malformed header"):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(DimacsParseError, match="non-integer"):
        parse_dimacs("p cnf two 1\n1 0\n")


def test_parse_missing_terminator():
    with pytest.raises(DimacsParseError, match=r"line 2.*without terminating 0"):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_parse_stops_at_satlib_end_marker():
    text = (Path(__file__).parent / "fixtures" / "satlib_end_marker.cnf").read_text()
    assert text.endswith("%\n0\n")
    assert parse_dimacs(text) == CnfFormula(3, [(1, -2, 3), (-1, 2)])


def test_parse_rescans_lines_only_for_a_fault(monkeypatch):
    """A sound input, end marker or not, is parsed without the line-numbered
    rescan; a fault still gets its line from it."""
    def rescan(*args):
        raise AssertionError("rescanned a sound input")

    text = (Path(__file__).parent / "fixtures" / "satlib_end_marker.cnf").read_text()
    with monkeypatch.context() as m:
        m.setattr("qsatlab.cnf._clause_lines", rescan)
        assert parse_dimacs(text) == CnfFormula(3, [(1, -2, 3), (-1, 2)])
        assert parse_dimacs(text.replace("%\n0\n", "")) == CnfFormula(3, [(1, -2, 3), (-1, 2)])
    with pytest.raises(DimacsParseError, match="line 5: non-integer token 'x'"):
        parse_dimacs(text.replace("%\n", "x 0\n%\n"))


def test_parse_clause_count_must_match_header():
    with pytest.raises(DimacsParseError, match=r"line 1.*declares 5 clauses, found 1"):
        parse_dimacs("p cnf 2 5\n1 2 0\n")
    with pytest.raises(DimacsParseError, match=r"line 2.*declares 0 clauses, found 1"):
        parse_dimacs("c comment\np cnf 2 0\n1 0\n")


def test_parse_empty_input():
    with pytest.raises(DimacsParseError, match="empty input"):
        parse_dimacs("")
    with pytest.raises(DimacsParseError, match="empty input"):
        parse_dimacs("c only comments\n")


def test_parse_clause_before_header():
    with pytest.raises(DimacsParseError, match="before 'p cnf'"):
        parse_dimacs("1 0\np cnf 2 1\n")


def test_parse_duplicate_header():
    with pytest.raises(DimacsParseError, match="duplicate header"):
        parse_dimacs("p cnf 2 1\np cnf 2 1\n1 0\n")


@pytest.mark.parametrize("text, message", [
    # a non-integer token before a duplicate header, and a header after sound lines
    ("p cnf 2 1\n1 x 0\np cnf 2 1\n", "line 2: non-integer token 'x'"),
    ("p cnf 2 1\n1 2 0\np cnf 2 1\nx 0\n", "line 3: duplicate header"),
    ("p cnf 2 1\n3 0\np cnf 2 1\n", "line 2: variable 3 exceeds declared n=2"),
    ("p cnf 2 1\n1\np cnf 2 1\n", "line 3: duplicate header"),
    # an out-of-range variable on a continuation line, before a later bad token
    ("p cnf 2 1\n1\n3 0\n", "line 3: variable 3 exceeds declared n=2"),
    ("p cnf 2 2\n1\n3 0\nx 0\n", "line 3: variable 3 exceeds declared n=2"),
    ("p cnf 2 1\n3 x 0\n", "line 2: variable 3 exceeds declared n=2"),
    ("p cnf 2 1\nx 3 0\n", "line 2: non-integer token 'x'"),
    ("p cnf 2 1\n1 2 0 3\n", "line 2: variable 3 exceeds declared n=2"),
    # a clause left open: the line it opens on, ahead of the clause count
    ("p cnf 3 2\n1 2 0 -3\n2\n", "line 2: clause without terminating 0"),
    ("p cnf 3 2\n1 0\n\nc note\n2\n3\n", "line 5: clause without terminating 0"),
    ("p cnf 2 5\n1 0\n2\n", "line 3: clause without terminating 0"),
    # '%' ends the input: what follows it is never read
    ("p cnf 2 1\n1 2\n%\n0\n", "line 2: clause without terminating 0"),
    ("p cnf 2 2\n1 2 0\n% x\nx 0\n", "line 1: header declares 2 clauses, found 1"),
    # int() takes digit-group underscores and non-ASCII digits; DIMACS does not
    ("p cnf 10 1\n1_0 0\n", "line 2: non-integer token '1_0'"),
    ("p cnf 3 1\n1 \u0663 0\n", "line 2: non-integer token '\u0663'"),
    ("p cnf 3 1\n\u0663 0\n4 0\n", "line 2: non-integer token '\u0663'"),
    ("p cnf 1_0 1\n1 0\n", "line 1: non-integer counts in header 'p cnf 1_0 1'"),
    ("p cnf 3 \uff11\n1 0\n", "line 1: non-integer counts in header 'p cnf 3 \uff11'"),
    # a negative clause count is a header fault, ahead of the clause lines and the count
    ("p cnf 3 -1\n1 x 0\n", "line 1: negative clause count -1"),
    ("p cnf 3 -1\n", "line 1: negative clause count -1"),
])
def test_parse_reports_the_first_fault_in_file_order(text, message):
    with pytest.raises(DimacsParseError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == message
    assert exc.value.line == int(message.split()[1].rstrip(":"))


def test_parse_reads_ascii_tokens_among_other_non_ascii_text():
    """Only a token is held to ASCII: a comment, a separator or the text past
    an end marker may hold other characters, and +1, 01 and -0 stay numbers."""
    text = "c \u00e9t\u00e9 \u0663\np cnf 3 2\n+1\u00a0-02 0\n03 -0\n%\n\u0663 1_0\n"
    assert parse_dimacs(text) == CnfFormula(3, [(1, -2), (3,)])


def test_parse_ignores_faults_after_the_end_marker():
    assert parse_dimacs("p cnf 2 1\n1 -2 0\n%\nx 0\np cnf 9 9\n") == CnfFormula(2, [(1, -2)])


def test_parse_refuses_clause_masks_over_budget():
    """Masks span up to the largest variable of their clause, so 600 clauses
    near variable 2 million could take about 290 MiB; the same clause count
    over small variables parses."""
    far = "p cnf 2000000 600\n" + "1999999 -2000000 1000000 0\n" * 600
    with pytest.raises(ValueError, match="over the budget of 256 MiB"):
        parse_dimacs(far)
    near = parse_dimacs("p cnf 2000000 600\n" + "1 -2 3 0\n" * 600)
    assert near == CnfFormula(2_000_000, [(1, -2, 3)] * 600)


@st.composite
def _dimacs_texts(draw) -> str:
    """DIMACS text over at most 6 variables with comments, blank lines and
    LF or CRLF endings, then up to three mutations: a dropped 0, a bad token,
    a variable past n, a second header, a '%' end marker, a clause line ahead
    of the header, or a literal spelled +1, 01 or -0. The bad tokens include
    1_0 and an Arabic-Indic three, which int() reads but DIMACS does not."""
    n = draw(st.integers(0, 6))
    literal = st.integers(1, max(n, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, max_size=4) if n else st.just([]), max_size=5))
    lines = [["p", "cnf", str(n), str(len(clauses))]] + [[*map(str, c), "0"] for c in clauses]

    def where(lo: int = 0) -> int:
        return draw(st.integers(lo, len(lines)))

    for mutation in draw(st.lists(st.integers(0, 6), max_size=3)):
        line = lines[draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))]  # a clause line if any
        if mutation == 0 and (closed := [tokens for tokens in lines if "0" in tokens]):
            draw(st.sampled_from(closed)).remove("0")
        elif mutation == 1:
            bad = draw(st.sampled_from(["x", "1.5", "--1", "0x1", "%", "p", "1_0", "\u0663"]))
            line.insert(draw(st.integers(0, len(line))), bad)
        elif mutation == 2:
            past = draw(st.sampled_from([1, -1])) * (n + draw(st.integers(1, 3)))
            line.insert(draw(st.integers(0, len(line))), str(past))
        elif mutation == 3:
            lines.insert(where(1), ["p", "cnf", str(n), str(len(clauses))])
        elif mutation == 4:
            lines.insert(where(), ["%", *draw(st.sampled_from([[], ["x"], ["0"]]))])
        elif mutation == 5:
            lines.insert(where(), ["1", "0"])
        elif mutation == 6 and line and line[0] != "p":  # respell one token
            i = draw(st.integers(0, len(line) - 1))
            k = line[i]
            if k == "0":
                line[i] = "-0"
            elif k.startswith("-"):
                line[i] = "-0" + k[1:]
            else:
                line[i] = draw(st.sampled_from(["+" + k, "0" + k]))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(where(), draw(st.sampled_from([["c", "note", "1", "x"], ["c"], []])))
    pad = st.sampled_from(["", " ", "\t"])
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(draw(pad) + " ".join(tokens) + draw(pad) + ending for tokens in lines)


@given(_dimacs_texts())
def test_parse_matches_the_line_by_line_reference(text):
    """The one-pass parser and conftest.reference_parse agree on every text:
    the same clauses, or the same fault at the same line."""
    expected = reference_parse(text)
    try:
        formula = parse_dimacs(text)
    except DimacsParseError as exc:
        message, line = expected
        assert isinstance(message, str), (text, exc)
        assert (str(exc), exc.line) == (f"line {line}: {message}", line)
    else:
        n, clauses = expected
        assert formula.n == n, (text, expected)
        assert [frozenset(c) for c in decode(formula)] == [frozenset(c) for c in clauses]


@given(_dimacs_texts())
def test_parsed_formula_equals_the_public_build(text):
    """parse_dimacs builds its formula without CnfFormula's checks, having
    checked every token itself; the result is the formula the public
    constructor builds from the same signed integers."""
    try:
        formula = parse_dimacs(text)
    except DimacsParseError:
        return
    n, clauses = reference_parse(text)
    public = CnfFormula(n, clauses)
    assert formula == public and hash(formula) == hash(public)
    assert vars(formula) == vars(public) and set(vars(public)) == {"n", "pos", "neg"}
    assert type(formula.pos) is type(public.pos) is tuple
    thawed = pickle.loads(pickle.dumps(formula))
    assert thawed == public and hash(thawed) == hash(public) and vars(thawed) == vars(public)
    assert formula.num_clauses == public.num_clauses == len(clauses)
    with pytest.raises(dataclasses.FrozenInstanceError):
        formula.n = formula.n + 1


def _solve_file(data: bytes) -> tuple[int, str, str]:
    """`qsatlab solve` on a file holding data: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "drawn.cnf"
        path.write_bytes(data)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


@given(_dimacs_texts())
def test_cli_solve_reports_what_the_reference_reads(text):
    """`qsatlab solve` on any drawn text exits 65 naming the reference's
    fault and line, or prints the reference's n and m; no draw exits 70."""
    code, out, err = _solve_file(text.encode())
    expected = reference_parse(text)
    if isinstance(expected[0], str):
        message, line = expected
        assert (code, out, err) == (65, "", f"qsatlab: parse error: line {line}: {message}\n")
    else:
        n, clauses = expected
        assert (code, err) == (0, ""), (text, err)
        assert f"formula    : n={n} m={len(clauses)} mu=" in out


@given(_dimacs_texts(), st.integers(0, 200))
def test_cli_solve_refuses_a_byte_that_is_not_utf8_anywhere(text, at):
    data = text.encode()
    at %= len(data) + 1
    code, out, err = _solve_file(data[:at] + b"\xff" + data[at:])
    assert (code, out) == (65, "") and err.startswith("qsatlab: parse error: 'utf-8' codec can't decode byte"), err


def test_roundtrip_examples():
    for text in ["p cnf 2 1\n1 2 0\n", "p cnf 3 3\n-1 2 0\n3 0\n-2 -3 0\n", "p cnf 4 0\n"]:
        f = parse_dimacs(text)
        assert serialize_dimacs(f) == text
        assert parse_dimacs(serialize_dimacs(f)) == f


@given(st.integers(0, 10_000))
def test_roundtrip_random(seed):
    rng = random.Random(seed)
    f = random_test_formula(rng, allow_empty_clause=True)
    assert parse_dimacs(serialize_dimacs(f)) == f


# -- clauses as signed integers --------------------------------------------------


def test_formula_constructor_refuses_what_is_not_a_dimacs_literal():
    """0 ends a DIMACS clause; bool and numpy integers are not ints; a literal
    past n names no variable; a bare literal is not a clause; n itself is an
    int >= 0."""
    for clause in [(1, 0), (True,), (np.int64(1),), (1, -4), (4,)]:
        with pytest.raises(ValueError, match=re.escape(f"clause {clause}: literal {clause[-1]!r} ")):
            CnfFormula(3, [(2,), clause])
    for clause in [1, None]:  # (1) where (1,) was meant
        with pytest.raises(ValueError, match=re.escape(f"clause {clause!r} is not a sequence of literals")):
            CnfFormula(1, [(1,), clause])
    for n in [2.5, -1, True]:
        with pytest.raises(ValueError, match=re.escape(f"variable count must be an int >= 0, got {n!r}")):
            CnfFormula(n)


def test_clause_set_semantics():
    f = CnfFormula(2, [(1, 1, -2)])
    assert f == CnfFormula(2, [[-2, 1]]) == CnfFormula(2, [(1, -2, 1)])
    assert decode(f) == [(1, -2)]
    assert serialize_dimacs(f) == "p cnf 2 1\n1 -2 0\n"


_LITERALS = st.lists(
    st.one_of(st.integers(1, 4), st.integers(60, 200)).flatmap(lambda v: st.sampled_from([v, -v])), max_size=8
)


@given(literals=_LITERALS, data=st.data())
def test_clause_masks_keep_set_semantics(literals, data):
    """Duplicates, complementary pairs, variables past 64 and the empty clause."""
    formula = CnfFormula(200, [literals])
    distinct = frozenset(literals)
    assert formula.pos == (sum(1 << k for k in distinct if k > 0),)
    assert formula.neg == (sum(1 << -k for k in distinct if k < 0),)
    assert decode(formula) == [tuple(sorted(distinct, key=lambda k: (abs(k), k < 0)))]
    assert serialize_dimacs(formula).splitlines()[1] == " ".join(map(str, [*decode(formula)[0], 0]))
    assert (not formula.pos[0] & formula.neg[0]) == (len({abs(k) for k in distinct}) == len(distinct))

    shuffled = data.draw(st.permutations(literals))
    repeated = data.draw(st.lists(st.sampled_from(literals), max_size=4)) if literals else []
    same = CnfFormula(200, [shuffled + repeated])
    assert same == formula and hash(same) == hash(formula)
    other = data.draw(_LITERALS)
    assert (CnfFormula(200, [other]) == formula) == (frozenset(other) == distinct)


@given(st.integers(0, 10_000))
def test_roundtrip_past_64_variables(seed):
    rng = random.Random(seed)
    n = rng.randint(65, 300)
    clauses = []
    for _ in range(rng.randint(0, 12)):
        signed = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), rng.randint(0, 5))]
        if signed and rng.random() < 0.25:
            signed.append(-signed[0])
        clauses.append(signed)
    f = CnfFormula(n, clauses)
    assert parse_dimacs(serialize_dimacs(f)) == f
    minimal = [set(c) for c in clauses if len({abs(k) for k in c}) == len(c)]
    assert [set(c) for c in filter_minimal(f)] == minimal


# -- tautology elimination ---------------------------------------------------------


def test_filter_minimal_examples():
    f = CnfFormula(2, [(1, -1), (2,)])
    kept = filter_minimal(f)
    assert kept == ((2,),)
    assert brute_count(f) == brute_count(CnfFormula(2, kept)) == 2
    assert filter_minimal(CnfFormula(1, [(1,)])) == ((1,),)
    assert filter_minimal(CnfFormula(0)) == ()


@given(st.integers(0, 10_000))
def test_clause_with_complementary_pair_is_tautological(seed):
    rng = random.Random(seed)
    f = random_test_formula(rng, max_n=5, max_m=4)
    v = rng.randint(1, f.n)
    taut = (v, -v, *(rng.choice(decode(f)) if f.num_clauses else ()))
    assert all(brute_eval(CnfFormula(f.n, [taut]), bits) for bits in all_assignments(f.n))
    spiked = CnfFormula(f.n, [*decode(f), taut])
    assert count_satisfying(spiked).r == count_satisfying(f).r
    assert count_satisfying(CnfFormula(f.n, filter_minimal(spiked))).r == count_satisfying(spiked).r


@given(st.integers(0, 10_000))
def test_filter_minimal_idempotent(seed):
    rng = random.Random(seed)
    f = random_test_formula(rng)
    once = filter_minimal(f)
    assert filter_minimal(CnfFormula(f.n, once)) == once


_SIGNED = st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v]))


@given(st.lists(st.lists(_SIGNED, max_size=5), max_size=6))
def test_ancillas_in_one_pass_match_the_two_pass_count(clauses):
    """Empty clauses, tautologies and the empty formula: mu is 1 unless every
    kept clause is non-empty, and then the kept clauses' literal count."""
    formula = CnfFormula(6, clauses)
    kept = filter_minimal(formula)
    expected = sum(map(len, kept)) if kept and all(kept) else 1
    assert required_ancillas(formula) == expected


# -- counting oracle ---------------------------------------------------------------


def test_count_examples():
    summary = count_satisfying(CnfFormula(2, [(1, 2)]))
    assert (summary.r, summary.q_squared) == (3, Fraction(3, 4))
    assert summary.r == brute_count(CnfFormula(2, [(1, 2)]))

    assert count_satisfying(CnfFormula(1, [(1,), (-1,)])).r == 0

    n = 6
    unique = CnfFormula(n, [(v,) for v in range(1, n + 1)])
    summary = count_satisfying(unique)
    assert summary.r == 1 and summary.q_squared == Fraction(1, 2**n)


@given(st.integers(0, 10_000))
def test_count_matches_independent_oracle(seed):
    rng = random.Random(seed)
    f = random_test_formula(rng, max_n=8, max_m=10, allow_empty_clause=True)
    assert count_satisfying(f).r == brute_count(f)


@st.composite
def _clause_mixes(draw, n: int) -> CnfFormula:
    """Up to eight clauses over variables 1..n, empty and unit clauses
    included; about a quarter also carry the complement of their first
    literal, which makes them tautologies on a word or a lane variable."""
    clauses = []
    for _ in range(draw(st.integers(0, 8))):
        variables = draw(st.lists(st.integers(1, n), max_size=4)) if n else []
        signed = [v if draw(st.booleans()) else -v for v in variables]
        if signed and draw(st.integers(0, 3)) == 0:
            signed.append(-signed[0])
        clauses.append(signed)
    return CnfFormula(n, clauses)


@pytest.mark.parametrize("n", range(13))
@settings(max_examples=25)
@given(data=st.data())
def test_count_matches_brute_force_across_the_lane_word_boundary(n, data):
    formula = data.draw(_clause_mixes(n))
    assert count_satisfying(formula).r == brute_count(formula)


@pytest.mark.parametrize("n", [13, 14, 15, 16, 17, 20])
@settings(max_examples=25)
@given(data=st.data())
def test_count_matches_the_bit_parallel_reference_past_n12(n, data):
    """Past the lane and inner word variables: n = 15 and up sort the clauses
    by their pins on the outer axes, whose grouping brute_count cannot reach."""
    formula = data.draw(_clause_mixes(n))
    assert count_satisfying(formula).r == bit_parallel_count(formula)


@pytest.mark.parametrize("n", [14, 15])
def test_count_applies_a_run_of_clauses_split_across_row_batches(n):
    """240 random 6-clauses over n variables: more clauses than one batch of
    rows holds, and at n = 15 more of them pin nothing outside a row than
    one batch holds, so that run is split across two batches."""
    rng = random.Random(n)
    formula = CnfFormula(n, [[v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 6)]
                             for _ in range(240)])
    batch = cnf._ROW_BUDGET >> cnf._ROW_VARS
    unpinned = sum(1 for pos, neg in zip(formula.pos, formula.neg) if (pos | neg).bit_length() <= 7 + cnf._ROW_VARS)
    assert formula.num_clauses > batch and (n == 14 or unpinned > batch)
    r = count_satisfying(formula).r
    assert r == bit_parallel_count(formula) and r > 0


@pytest.mark.parametrize("n", [1, 5, 6, 7, 12])
def test_count_of_empty_unit_and_tautological_clauses(n):
    """Variable 1 is a word variable once n > 6, variable n always a lane one."""
    cases = {
        (): 0,
        (1,): 2 ** (n - 1),
        (-n,): 2 ** (n - 1),
        (1, -1): 2**n,
        (n, -n): 2**n,
        (1, -1, n): 2**n,
        (n, -n, 1): 2**n,
        (-1, 1, n, -n): 2**n,
    }
    for clause, expected in cases.items():
        formula = CnfFormula(n, [clause])
        assert count_satisfying(formula).r == brute_count(formula) == expected, clause
    tautologies_then_unit = CnfFormula(n, [(1, -1), (n, -n), (-1,)])
    assert count_satisfying(tautologies_then_unit).r == brute_count(tautologies_then_unit) == 2 ** (n - 1)
    assert count_satisfying(CnfFormula(0, [])).r == 1


@pytest.mark.parametrize("n", [0, 1, 5, 6, 7, 9, 15])
def test_input_columns_put_variable_v_at_index_bit_v_minus_1(n):
    words = max(n - 6, 0)
    index = np.arange(1 << n)
    for v, column in enumerate(input_columns(n), start=1):
        packed = np.ascontiguousarray(np.broadcast_to(column, (2,) * words), dtype="<u8").reshape(-1)
        bits = np.unpackbits(packed.view(np.uint8), bitorder="little")[: 1 << n]
        assert (bits == (index >> (v - 1) & 1)).all(), v


def test_count_peak_memory_stays_under_one_mebibyte_at_n20():
    formula = random_3cnf(20, 20)
    tracemalloc.start()
    try:
        count_satisfying(formula)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_count_peak_memory_at_the_cap_is_the_table_plus_rows():
    """At n = 24 the table of 2^18 words takes 2 MiB; the clause rows, their
    batch scratch and the final popcount add under 1 MiB."""
    formula = random_3cnf(24, 1)
    tracemalloc.start()
    try:
        assert count_satisfying(formula).r == 35
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_count_builds_clause_rows_in_bounded_batches():
    """2,550 clauses at n = 20: built at once their rows would take 5 MiB;
    batched, the whole count stays under 2 MiB."""
    formula = CnfFormula(20, [c for seed in range(30) for c in decode(random_3cnf(20, seed))])
    tracemalloc.start()
    try:
        assert count_satisfying(formula).r == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_count_cap():
    big = CnfFormula(25, [(1,)])
    with pytest.raises(EnumerationCapError, match="exceeds the cap"):
        count_satisfying(big)


def test_count_out_of_range_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr("qsatlab.cnf._count_models", lambda formula: 3)
    with pytest.raises(InvariantError, match="satisfying count out of range"):
        count_satisfying(CnfFormula(1, [(1,)]))
    with pytest.raises(ValueError, match="out of range"):
        CountSummary(r=3, total=2, q_squared=Fraction(3, 2))


@given(st.integers(0, 10_000))
def test_full_count_iff_all_clauses_tautological(seed):
    rng = random.Random(seed)
    f = random_test_formula(rng, max_n=6, max_m=5, allow_empty_clause=True)
    summary = count_satisfying(f)
    assert 0 <= summary.r <= summary.total
    assert (summary.r == summary.total) == all(pos & neg for pos, neg in zip(f.pos, f.neg))
