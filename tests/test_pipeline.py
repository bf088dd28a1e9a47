import contextlib
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import brute_count, inflating_generator
import qsatlab
from qsatlab import adaptive, cli, pipeline
from qsatlab.chaos import ChaosVerdict
from qsatlab.cli import main
from qsatlab.cnf import CnfFormula, count_satisfying, lits, parse_dimacs, required_ancillas, serialize_dimacs
from qsatlab.corpus import write_corpus
from qsatlab.errors import DimacsParseError, EnumerationCapError, InvariantError
from qsatlab.pipeline import (
    AMPLIFIERS,
    MODES,
    PipelineConfig,
    read_expectation,
    render,
    run_pipeline,
    self_check,
)


SATLIB_FIXTURE = Path(__file__).parent / "fixtures" / "satlib_end_marker.cnf"


def _write(tmp_path: Path, name: str, formula: CnfFormula) -> Path:
    path = tmp_path / name
    path.write_text(serialize_dimacs(formula))
    return path


# -- statevector readout -------------------------------------------------------------


def test_statevector_q_squared_reads_the_result_qubit():
    assert pipeline._circuit_count(CnfFormula(2, [lits(1, 2)]))[0] == pytest.approx(0.75, abs=1e-12)
    assert pipeline._circuit_count(CnfFormula(1, [lits(1), lits(-1)]))[0] == 0.0


# -- run_pipeline --------------------------------------------------------------------


def test_chaos_run_on_easy_sat_instance(tmp_path):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    report = run_pipeline(PipelineConfig(input_path=str(path), amplifier="chaos"))
    assert isinstance(report.verdict, ChaosVerdict)
    assert report.verdict.m_hit == 0 and report.verdict.window == 4
    assert report.amplifier_satisfiable and report.agreement
    assert report.q_squared_rational is not None and float(report.q_squared_rational) == 0.75


def test_stochastic_run_on_unique_solution_instance(tmp_path):
    n = 8
    path = _write(tmp_path, "needle.cnf", CnfFormula(n, [lits(v) for v in range(1, n + 1)]))
    report = run_pipeline(PipelineConfig(input_path=str(path), amplifier="stochastic"))
    assert report.verdict.damped and report.verdict.satisfiable
    assert report.agreement


def test_both_amplifiers_reject_contradiction(tmp_path):
    path = _write(tmp_path, "contra.cnf", CnfFormula(1, [lits(1), lits(-1)]))
    for amplifier in ("chaos", "stochastic"):
        report = run_pipeline(PipelineConfig(input_path=str(path), amplifier=amplifier))
        assert report.amplifier_satisfiable is False
        assert report.agreement


def test_statevector_mode_matches_oracle_mode(corpus_dir):
    paths = sorted(corpus_dir.glob("*.cnf"))
    for path in paths:
        formula = parse_dimacs(path.read_text())
        assert pipeline._circuit_count(formula)[0] == count_satisfying(formula).q_squared, path.name
    assert len(paths) == 44


def test_oracle_mode_requires_enumerable_instance(tmp_path):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 30 1\n1 2 0\n")
    with pytest.raises(EnumerationCapError, match="oracle mode"):
        run_pipeline(PipelineConfig(input_path=str(path), mode="oracle"))


def test_statevector_mode_refuses_too_many_inputs(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "wide.cnf", CnfFormula(25, [lits(v, v + 1) for v in range(1, 25)]))

    def never_built(formula):
        raise AssertionError("the circuit was built before the input count was checked")
    monkeypatch.setattr("qsatlab.sat_circuit.build_sat_circuit", never_built)
    with pytest.raises(EnumerationCapError, match=r"statevector mode enumerates all 2\^n inputs but n=25"):
        run_pipeline(PipelineConfig(input_path=str(path), mode="statevector"))
    assert main(["solve", "--input", str(path), "--mode", "statevector"]) == 64
    assert "exceeds the cap of 24" in capsys.readouterr().err


def test_statevector_mode_solves_circuits_wider_than_the_qubit_cap(tmp_path, capsys):
    rng = random.Random(7)
    formula = CnfFormula(5, [lits(*(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 6), 3)))
                             for _ in range(21)])
    assert formula.n + required_ancillas(formula) == 68
    path = _write(tmp_path, "threshold.cnf", formula)
    for amplifier in ("chaos", "stochastic"):
        reports = {mode: run_pipeline(PipelineConfig(input_path=str(path), mode=mode, amplifier=amplifier))
                   for mode in ("oracle", "statevector")}
        assert reports["statevector"].q_squared_rational == reports["oracle"].q_squared_rational
        assert reports["statevector"].amplifier_satisfiable == reports["oracle"].amplifier_satisfiable
        assert reports["statevector"].agreement
    assert main(["solve", "--input", str(path), "--mode", "statevector"]) == 0
    assert "mu=63" in capsys.readouterr().out


def test_config_validation():
    with pytest.raises(ValueError, match="mode"):
        PipelineConfig(input_path="x.cnf", mode="magic")
    with pytest.raises(ValueError, match="amplifier"):
        PipelineConfig(input_path="x.cnf", amplifier="laser")
    with pytest.raises(ValueError, match="format"):
        PipelineConfig(input_path="x.cnf", format="xml")


# -- emission -------------------------------------------------------------------------


def test_report_json_schema_and_determinism(tmp_path):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    cfg = PipelineConfig(input_path=str(path), amplifier="chaos")
    first = run_pipeline(cfg).to_json_dict()
    second = run_pipeline(cfg).to_json_dict()
    for doc in (first, second):
        doc.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["q_squared"] == {"float": 0.75, "rational": "3/4", "source": "oracle"}
    assert first["formula"] == {"n": 2, "m": 1, "mu": 2}
    assert first["reference"] == {"r": 3, "total": 4, "satisfiable": True}


def test_emit_chaos_trace_csv(tmp_path):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    out = tmp_path / "trace.csv"
    run_pipeline(
        PipelineConfig(input_path=str(path), amplifier="chaos", emit_path=str(out), format="csv")
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "m,x_m"
    assert lines[1] == "0,0.75"
    assert len(lines) == 1 + 5  # x_0..x_4 for window 2n = 4


def test_emit_stochastic_trace_csv(tmp_path):
    path = _write(tmp_path, "needle.cnf", CnfFormula(4, [lits(v) for v in range(1, 5)]))
    out = tmp_path / "trace.csv"
    run_pipeline(
        PipelineConfig(input_path=str(path), amplifier="stochastic", emit_path=str(out), format="csv")
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "t,p1,coh_abs,coh_phase"
    first = [float(tok) for tok in lines[1].split(",")]
    assert first == [0.0, pytest.approx(0.5), pytest.approx(0.5), pytest.approx(0.0)]
    assert len(lines) == 1 + 401


def test_emit_json_report_round_trips(tmp_path):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    out = tmp_path / "report.json"
    report = run_pipeline(
        PipelineConfig(input_path=str(path), amplifier="chaos", emit_path=str(out), format="json")
    )
    doc = json.loads(out.read_text())
    assert doc["q_squared"]["rational"] == "3/4"
    assert doc["q_squared"]["float"] == 0.75
    assert doc["amplifier"]["kind"] == "chaos"
    assert doc["agreement"] is True
    assert doc["timing"]["elapsed_s"] == report.elapsed_s


def test_verdict_blocks_and_trace_headers(tmp_path):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    chaos = run_pipeline(PipelineConfig(input_path=str(path), amplifier="chaos"))
    assert json.loads(render(chaos, "json"))["amplifier"]["verdict"] == {
        "m_hit": 0, "window": 4, "lower_bound": 1 / math.log2(3.71), "satisfiable": True,
    }
    assert render(chaos, "csv").splitlines()[0] == "m,x_m"
    stochastic = run_pipeline(PipelineConfig(input_path=str(path), amplifier="stochastic"))
    block = json.loads(render(stochastic, "json"))["amplifier"]["verdict"]
    assert set(block) == {"damped", "tail_mean", "fitted_rate", "satisfiable"}
    assert block["damped"] is True and block["satisfiable"] is True
    assert block["fitted_rate"] == pytest.approx(2.0, rel=1e-6)
    header, *rows = render(stochastic, "csv").splitlines()
    assert header == "t,p1,coh_abs,coh_phase" and len(rows) == 401
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 4 and all(repr(float(cell)) == cell for cell in cells)


# -- stochastic memo ---------------------------------------------------------------


@pytest.fixture
def memo():
    """The stochastic memo, emptied before the test."""
    pipeline._stochastic_verdict.cache_clear()
    return pipeline._stochastic_verdict


def _stochastic(q_squared, **options):
    cfg = PipelineConfig(input_path="unused.cnf", amplifier="stochastic", **options)
    return pipeline._amplifier_verdict(cfg, q_squared, 2)


def test_damping_inputs_with_different_counts_share_one_verdict(tmp_path, memo):
    three = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    two = _write(tmp_path, "unit.cnf", CnfFormula(2, [lits(1)]))
    a = run_pipeline(PipelineConfig(input_path=str(three), amplifier="stochastic"))
    b = run_pipeline(PipelineConfig(input_path=str(two), amplifier="stochastic"))
    assert (a.reference.r, b.reference.r) == (3, 2)
    assert a.verdict is b.verdict
    assert render(a, "csv") == render(b, "csv")
    assert json.loads(render(a, "json"))["amplifier"] == json.loads(render(b, "json"))["amplifier"]
    assert memo.cache_info().misses == 1 and memo.cache_info().hits == 1


@pytest.mark.parametrize("change", [
    {"gamma_re": 1.5}, {"gamma_im": 0.25}, {"e0": 1, "e1": 4}, {"e1": 3},
])
def test_every_key_field_misses_the_memo(memo, change):
    base = _stochastic(Fraction(3, 4))
    other = _stochastic(Fraction(3, 4), **change)
    assert other is not base
    assert memo.cache_info().misses == 2 and memo.cache_info().currsize == 2
    assert _stochastic(Fraction(3, 4), **change) is other


def test_each_branch_takes_one_entry(memo):
    empty, full = _stochastic(Fraction(0)), _stochastic(Fraction(1))
    damped = _stochastic(Fraction(1, 4))
    assert _stochastic(Fraction(3, 4)) is damped
    assert (empty.satisfiable, damped.satisfiable, full.satisfiable) == (False, True, True)
    assert memo.cache_info().currsize == 3 and memo.cache_info().misses == 3


@pytest.mark.parametrize("q_squared", [Fraction(0), Fraction(1, 4)])
def test_signed_zero_im_gamma_emits_the_same_bytes(memo, q_squared):
    negative = _stochastic(q_squared, gamma_im=-0.0)
    memo.cache_clear()
    positive = _stochastic(q_squared, gamma_im=0.0)
    assert negative is not positive
    assert negative.csv == positive.csv
    assert json.dumps(negative.summary()) == json.dumps(positive.summary())


def test_memo_never_exceeds_its_bound(memo):
    for k in range(pipeline.STOCHASTIC_MEMO_SIZE + 4):
        _stochastic(Fraction(1, 2), gamma_re=1.0 + k / 8)
        assert memo.cache_info().currsize <= pipeline.STOCHASTIC_MEMO_SIZE
    assert memo.cache_info().currsize == pipeline.STOCHASTIC_MEMO_SIZE


def test_memo_keeps_no_invariant_error(memo, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(adaptive, "damping_generator", lambda g: (inflating_generator(), inflating_generator()))
        with pytest.raises(InvariantError):
            _stochastic(Fraction(1, 2))
    assert memo.cache_info().currsize == 0
    assert _stochastic(Fraction(1, 2)).satisfiable
    assert memo.cache_info().misses == 2


def test_self_check_decides_three_stochastic_configurations(memo, corpus_dir):
    assert self_check(corpus_dir).ok
    assert memo.cache_info().misses == 3 and memo.cache_info().hits == 85


# -- chaos memo ---------------------------------------------------------------------


@pytest.fixture
def chaos_memo():
    """The chaos memo, emptied before the test."""
    pipeline._chaos_verdict.cache_clear()
    return pipeline._chaos_verdict


def test_one_chaos_configuration_is_decided_once(tmp_path, chaos_memo, monkeypatch):
    """Two inputs with the same (q^2, n) share one verdict and one CSV text;
    chaos.detect, looked up at call time, runs on the miss alone."""
    calls = []
    real = pipeline.chaos.detect
    monkeypatch.setattr(pipeline.chaos, "detect", lambda q2, n: calls.append((q2, n)) or real(q2, n))
    either = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    nand = _write(tmp_path, "nand.cnf", CnfFormula(2, [lits(-1, -2)]))
    a = run_pipeline(PipelineConfig(input_path=str(either)))
    b = run_pipeline(PipelineConfig(input_path=str(nand), mode="statevector"))
    assert (a.reference.r, b.reference.r) == (3, 3)
    assert a.verdict is b.verdict
    assert render(a, "csv") is render(b, "csv")  # rendered once, then read off the shared verdict
    assert calls == [(0.75, 2)]
    assert chaos_memo.cache_info().misses == 1 and chaos_memo.cache_info().hits == 1


def test_chaos_memo_never_exceeds_its_bound(chaos_memo):
    cfg = PipelineConfig(input_path="unused.cnf")
    for k in range(pipeline.CHAOS_MEMO_SIZE + 4):
        pipeline._amplifier_verdict(cfg, Fraction(1, k + 2), 4)
        assert chaos_memo.cache_info().currsize <= pipeline.CHAOS_MEMO_SIZE
    assert chaos_memo.cache_info().currsize == pipeline.CHAOS_MEMO_SIZE


@pytest.mark.parametrize("q_squared, n, match", [
    (-0.25, 3, "outside"), (1.5, 3, "outside"), (math.nan, 3, "outside"), (0.5, 0, ">= 1"),
])
def test_chaos_memo_keeps_no_refused_configuration(chaos_memo, q_squared, n, match):
    with pytest.raises(ValueError, match=match):
        pipeline._chaos_verdict(q_squared, n)
    assert chaos_memo.cache_info().currsize == 0


def test_self_check_meets_the_chaos_memo_and_agrees_everywhere(chaos_memo, corpus_dir):
    """The second mode of each file hits; 44/44 in every cell."""
    summary = self_check(corpus_dir)
    assert summary.matrix == {cell: (44, 44) for cell in
                              [("chaos", "oracle"), ("chaos", "statevector"),
                               ("stochastic", "oracle"), ("stochastic", "statevector")]}
    assert chaos_memo.cache_info().misses == 32 and chaos_memo.cache_info().hits == 56


def test_render_rejects_invalid_combinations(tmp_path):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    report = run_pipeline(PipelineConfig(input_path=str(path)))
    with pytest.raises(ValueError, match="reports only"):
        render("not a report", "json")
    with pytest.raises(ValueError, match="format"):
        render(report, "xml")


# -- self-check harness -----------------------------------------------------------------


def test_read_expectation():
    assert read_expectation("c expect SAT\np cnf 1 0\n") is True
    assert read_expectation("c expect UNSAT\np cnf 1 0\n") is False
    assert read_expectation("p cnf 1 0\n") is None
    assert read_expectation("c expect sat\np cnf 1 0\n") is True
    assert read_expectation("c expect Unsat\np cnf 1 0\n") is False
    with pytest.raises(DimacsParseError, match=r"line 2: 'c expect' takes SAT or UNSAT, got 'maybe'") as exc:
        read_expectation("c a comment\nc expect maybe\np cnf 1 0\n")
    assert exc.value.line == 2
    with pytest.raises(DimacsParseError, match=r"line 3: 'c expect' takes SAT or UNSAT, got ''") as exc:
        read_expectation("c a comment\nc expected SAT\nc expect  \np cnf 1 0\n")
    assert exc.value.line == 3


def test_self_check_refuses_bare_expectation(tmp_path, capsys):
    (tmp_path / "bare.cnf").write_text("c expect\n" + serialize_dimacs(CnfFormula(2, [lits(1, 2)])))
    assert main(["self-check", "--corpus", str(tmp_path)]) == 65
    assert "parse error: line 1: 'c expect' takes SAT or UNSAT, got ''" in capsys.readouterr().err


def test_self_check_refuses_unknown_expectation(tmp_path, capsys):
    (tmp_path / "odd.cnf").write_text("c expect maybe\n" + serialize_dimacs(CnfFormula(2, [lits(1, 2)])))
    with pytest.raises(DimacsParseError, match="got 'maybe'"):
        self_check(tmp_path)
    assert main(["self-check", "--corpus", str(tmp_path)]) == 65
    assert "parse error: line 1: 'c expect' takes SAT or UNSAT" in capsys.readouterr().err


def test_self_check_small_corpus(tmp_path):
    _write(tmp_path, "a.cnf", CnfFormula(2, [lits(1, 2)]))
    (tmp_path / "b.cnf").write_text("c expect UNSAT\n" + serialize_dimacs(CnfFormula(1, [lits(1), lits(-1)])))
    summary = self_check(tmp_path)
    assert summary.ok
    assert summary.disagreements == 0
    assert all(total == 2 for _, total in summary.matrix.values())
    assert "agreement matrix" in summary.to_text()


def test_self_check_matrix_counts_an_amplifier_disagreement(tmp_path, monkeypatch):
    _write(tmp_path, "a.cnf", CnfFormula(2, [lits(1, 2)]))
    _write(tmp_path, "b.cnf", CnfFormula(1, [lits(1), lits(-1)]))
    real = pipeline._amplifier_verdict

    def wrong_on_b(cfg, q_squared, n):
        verdict = real(cfg, q_squared, n)
        if cfg.input_path.endswith("b.cnf") and (cfg.amplifier, cfg.mode) == ("chaos", "statevector"):
            return SimpleNamespace(satisfiable=not verdict.satisfiable)
        return verdict
    monkeypatch.setattr(pipeline, "_amplifier_verdict", wrong_on_b)
    summary = self_check(tmp_path)
    assert summary.matrix == {
        ("chaos", "oracle"): (2, 2),
        ("chaos", "statevector"): (1, 2),
        ("stochastic", "oracle"): (2, 2),
        ("stochastic", "statevector"): (2, 2),
    }
    assert summary.disagreements == 1 and not summary.ok
    assert summary.rows[1].issues == ("chaos/statevector says SAT, brute force says UNSAT",)
    assert "  chaos      statevector  1/2" in summary.to_text()


def test_self_check_lists_every_disagreeing_cell_after_the_expectation(tmp_path, monkeypatch):
    (tmp_path / "b.cnf").write_text("c expect SAT\n" + serialize_dimacs(CnfFormula(1, [lits(1), lits(-1)])))
    real = pipeline._amplifier_verdict
    monkeypatch.setattr(pipeline, "_amplifier_verdict",
                        lambda cfg, q_squared, n: SimpleNamespace(satisfiable=not real(cfg, q_squared, n).satisfiable))
    (row,) = self_check(tmp_path).rows
    assert row.issues == ("expectation says SAT but brute force counts r=0",
                          "chaos/oracle says SAT, brute force says UNSAT",
                          "chaos/statevector says SAT, brute force says UNSAT",
                          "stochastic/oracle says SAT, brute force says UNSAT",
                          "stochastic/statevector says SAT, brute force says UNSAT")


def test_self_check_catches_mislabeled_expectation(tmp_path):
    (tmp_path / "lie.cnf").write_text("c expect SAT\n" + serialize_dimacs(CnfFormula(1, [lits(1), lits(-1)])))
    summary = self_check(tmp_path)
    assert not summary.ok
    assert summary.disagreements >= 1
    assert any("expectation" in issue for row in summary.rows for issue in row.issues)


def test_self_check_refuses_a_file_past_the_enumeration_cap(tmp_path, capsys):
    """self-check solves through run_pipeline, so it refuses with solve's
    message; the cap is met before a bad 'c expect' is read."""
    message = "oracle mode enumerates all 2^n inputs but n=25"
    (tmp_path / "a.cnf").write_text("p cnf 25 1\n1 0\n")
    with pytest.raises(EnumerationCapError, match=re.escape(message)):
        self_check(tmp_path)
    assert main(["self-check", "--corpus", str(tmp_path)]) == 64
    assert message in capsys.readouterr().err
    (tmp_path / "a.cnf").write_text("c expect maybe\np cnf 25 1\n1 0\n")
    assert main(["self-check", "--corpus", str(tmp_path)]) == 64
    assert message in capsys.readouterr().err


@st.composite
def _small_formulas(draw) -> CnfFormula:
    """n in 1..6 and up to eight clauses of up to three literals; a clause
    may be empty, repeat a literal or hold both signs of a variable."""
    n = draw(st.integers(1, 6))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
    return CnfFormula(n, [lits(*c) for c in draw(st.lists(st.lists(literal, max_size=3), max_size=8))])


@given(_small_formulas())
def test_self_check_row_matches_brute_force_and_solve(formula):
    """A one-file corpus gives one row: brute force's count, no issue, and in
    each cell the verdict solve's --exit-verdict gives."""
    with tempfile.TemporaryDirectory() as corpus:
        path = _write(Path(corpus), "f.cnf", formula)
        (row,) = self_check(corpus).rows
        assert row.r == brute_count(formula) and row.ok
        assert row.verdicts.keys() == {(amp, mode) for amp in AMPLIFIERS for mode in MODES}
        for (amp, mode), sat in row.verdicts.items():
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["solve", "--input", str(path), "--mode", mode, "--amplifier", amp, "--exit-verdict"])
            assert code == (10 if sat else 20), (amp, mode)


def test_self_check_rejects_empty_directory(tmp_path):
    with pytest.raises(ValueError, match="no .cnf files"):
        self_check(tmp_path)


def test_self_check_raises_oserror_naming_a_missing_or_file_corpus(tmp_path):
    with pytest.raises(FileNotFoundError, match="no-such-dir"):
        self_check(tmp_path / "no-such-dir")
    _write(tmp_path, "a.cnf", CnfFormula(2, [lits(1, 2)]))
    with pytest.raises(NotADirectoryError, match="a.cnf"):
        self_check(tmp_path / "a.cnf")


def test_cli_self_check_exit_codes_for_missing_and_empty_corpora(tmp_path, capsys):
    missing = tmp_path / "does-not-exist"
    assert main(["self-check", "--corpus", str(missing)]) == 66
    assert f"No such file or directory: '{missing}'" in capsys.readouterr().err
    not_dir = _write(tmp_path, "a.cnf", CnfFormula(2, [lits(1, 2)]))
    assert main(["self-check", "--corpus", str(not_dir)]) == 66
    assert f"Not a directory: '{not_dir}'" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "notes.txt").write_text("p cnf 1 1\n1 0\n")
    assert main(["self-check", "--corpus", str(empty)]) == 64
    assert f"qsatlab: no .cnf files found in {empty}" in capsys.readouterr().err


def test_corpus_regenerates_byte_identically(tmp_path, corpus_dir):
    regenerated = write_corpus(tmp_path / "corpus")
    checked_in = sorted(corpus_dir.glob("*.cnf"))
    assert [p.name for p in regenerated] == [p.name for p in checked_in]
    for new, old in zip(regenerated, checked_in):
        assert new.read_bytes() == old.read_bytes()
    assert len(checked_in) >= 40


def test_corpus_contains_required_mix(corpus_dir):
    names = [p.name for p in corpus_dir.glob("*.cnf")]
    for n in (8, 10, 12):
        assert any(f"needle_n{n}" in name for name in names)
    expects = [read_expectation(p.read_text()) for p in corpus_dir.glob("*.cnf")]
    assert expects.count(True) >= 10 and expects.count(False) >= 10


# -- command line ----------------------------------------------------------------------


def test_cli_solve_exit_verdict(tmp_path, capsys):
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    unsat = _write(tmp_path, "unsat.cnf", CnfFormula(1, [lits(1), lits(-1)]))
    assert main(["solve", "--input", str(sat)]) == 0
    assert main(["solve", "--input", str(sat), "--exit-verdict"]) == 10
    assert main(["solve", "--input", str(unsat), "--exit-verdict"]) == 20
    out = capsys.readouterr().out
    assert "q_squared" in out and "agreement" in out


def test_cli_solve_statevector_with_emit(tmp_path, capsys):
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    out = tmp_path / "rep.json"
    code = main(["solve", "--input", str(sat), "--mode", "statevector", "--amplifier",
                 "stochastic", "--emit", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["amplifier"]["kind"] == "stochastic"
    assert doc["amplifier"]["verdict"]["satisfiable"] is True and doc["agreement"] is True


@pytest.mark.parametrize("name, code, body", [
    ("05_two_var_or.cnf", 10, "formula    : n=2 m=1 mu=2\n"
                              "q_squared  : 0.75 (= 3/4)\n"
                              "amplifier  : chaos -> SAT\n"
                              "brute force: r=3 -> SAT\n"
                              "agreement  : True\n"),
    ("04_contradiction_pair.cnf", 20, "formula    : n=1 m=2 mu=2\n"
                                      "q_squared  : 0.0 (= 0)\n"
                                      "amplifier  : chaos -> UNSAT\n"
                                      "brute force: r=0 -> UNSAT\n"
                                      "agreement  : True\n"),
], ids=["sat", "unsat"])
@pytest.mark.parametrize("emit", [False, True], ids=["stdout", "emit"])
def test_cli_solve_summary_bytes(tmp_path, capsys, corpus_dir, name, code, body, emit):
    path = corpus_dir / name
    argv = ["solve", "--input", str(path), "--exit-verdict"]
    if emit:
        argv += ["--emit", str(tmp_path / "trace.csv"), "--format", "csv"]
        body += f"emitted    : {tmp_path / 'trace.csv'} (csv)\n"
    assert main(argv) == code
    assert capsys.readouterr().out == f"input      : {path}\n" + body


def _stochastic_csv_argv(corpus_dir: Path) -> list[str]:
    return ["solve", "--input", str(corpus_dir / "05_two_var_or.cnf"), "--amplifier", "stochastic",
            "--format", "csv", "--emit"]


def test_emit_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path, capsys, corpus_dir):
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    reused.write_bytes(b"x" * 100_000)
    assert main(_stochastic_csv_argv(corpus_dir) + [str(fresh)]) == 0
    assert main(_stochastic_csv_argv(corpus_dir) + [str(reused)]) == 0
    assert 0 < len(fresh.read_bytes()) < 100_000
    assert reused.read_bytes() == fresh.read_bytes()


def test_emit_into_a_pipe_delivers_the_bytes_a_file_gets(tmp_path, capsys, corpus_dir):
    """--emit /dev/fd/N writes into the pipe behind descriptor N; a thread
    drains it, so a trace larger than the pipe's buffer cannot block."""
    file = tmp_path / "trace.csv"
    assert main(_stochastic_csv_argv(corpus_dir) + [str(file)]) == 0
    read_end, write_end = os.pipe()
    chunks: list[bytes] = []
    reader = threading.Thread(target=lambda: chunks.extend(iter(lambda: os.read(read_end, 1 << 16), b"")))
    reader.start()
    try:
        assert main(_stochastic_csv_argv(corpus_dir) + [f"/dev/fd/{write_end}"]) == 0
    finally:
        os.close(write_end)
        reader.join(timeout=60)
        os.close(read_end)
    assert not reader.is_alive()
    assert b"".join(chunks) == file.read_bytes()


def test_input_through_a_pipe_parses_like_the_file(tmp_path):
    """--input /dev/fd/N reads the pipe behind descriptor N to its end; the
    text, larger than the pipe's buffer, is fed from a thread."""
    formula = CnfFormula(3, [lits(1, -2), lits(2, 3), lits(-3)])
    path = tmp_path / "padded.cnf"
    path.write_text("c padding\n" * 20_000 + serialize_dimacs(formula))
    read_end, write_end = os.pipe()

    def feed():
        with open(write_end, "wb") as f:
            f.write(path.read_bytes())

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        piped = pipeline._read(f"/dev/fd/{read_end}")
    finally:
        writer.join(timeout=60)
        os.close(read_end)
    assert not writer.is_alive()
    got, want = parse_dimacs(piped), parse_dimacs(path.read_text())
    assert (got.n, got.clauses) == (want.n, want.clauses) == (3, formula.clauses)


def test_crlf_input_reports_as_its_lf_twin(tmp_path, capsys, corpus_dir):
    """Every corpus file with CRLF line ends gives its LF twin's report and
    summary, apart from the input path."""
    crlf, report = tmp_path / "crlf.cnf", tmp_path / "report.json"

    def solve(path: Path) -> tuple[int, str, dict]:
        code = main(["solve", "--input", str(path), "--exit-verdict", "--emit", str(report)])
        doc = json.loads(report.read_bytes())
        del doc["input"], doc["timing"]
        return code, capsys.readouterr().out.split("\n", 1)[1], doc

    for lf in sorted(corpus_dir.glob("*.cnf")):
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        assert solve(crlf) == solve(lf), lf.name


def test_cli_error_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n2 0\n")
    assert main(["solve", "--input", str(bad)]) == 65
    assert main(["solve", "--input", str(tmp_path / "missing.cnf")]) == 66
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(bad), "--mode", "warp"])
    assert exc.value.code == 64
    err = capsys.readouterr().err
    assert "parse error" in err
    assert f"qsatlab: [Errno 2] No such file or directory: '{tmp_path / 'missing.cnf'}'\n" in err


@pytest.mark.parametrize("option, message", [
    (["--a", "3.71"], "unrecognized arguments: --a 3.71"),  # not an abbreviation of --amplifier
    (["--horizon-factor", "20"], "unrecognized arguments: --horizon-factor 20"),
    (["--threshold", "0.1"], "unrecognized arguments: --threshold 0.1"),
    (["--amplifier", "none"], "argument --amplifier: invalid choice: 'none'"),
], ids=["a", "horizon-factor", "threshold", "amplifier-none"])
def test_cli_refuses_removed_protocol_options_before_reading_input(tmp_path, capsys, option, message):
    """The decision protocol is fixed: each removed spelling is a usage error
    (64), raised before the missing input could exit 66."""
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", str(tmp_path / "missing.cnf"), *option])
    assert exc.value.code == 64
    assert f": error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--input", "{sat}", "--a", "stochastic"], "unrecognized arguments: --a stochastic"),
    (["solve", "--input", "{sat}", "--amp", "chaos"], "unrecognized arguments: --amp chaos"),
    (["solve", "--inp", "{sat}"], "the following arguments are required: --input"),
    (["self-check", "--corp", "{corpus}"], "the following arguments are required: --corpus"),
], ids=["a", "amp", "inp", "corp"])
def test_cli_refuses_option_abbreviations(tmp_path, capsys, argv, message):
    """A prefix of an option is a usage error, never the option itself, so an
    option removed later cannot be read as a live one it prefixes."""
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(sat=sat, corpus=tmp_path) for arg in argv])
    assert exc.value.code == 64
    assert f": error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "self-check"])
def test_cli_rejects_input_that_is_not_utf8(tmp_path, capsys, command):
    bad = tmp_path / "bom.cnf"
    bad.write_bytes(b"\xff\xfep cnf 1 1\n1 0\n")
    argv = ["solve", "--input", str(bad)] if command == "solve" else ["self-check", "--corpus", str(tmp_path)]
    assert main(argv) == 65
    assert "parse error: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err


def test_cli_solve_takes_every_default_from_pipeline_config(monkeypatch, capsys):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        raise MemoryError  # stop before anything is read
    monkeypatch.setattr("qsatlab.cli.run_pipeline", capture)
    assert main(["solve", "--input", "x.cnf"]) == 70
    assert main(["solve", "--input", "x.cnf", "--mode", "statevector", "--amplifier", "stochastic",
                 "--gamma-re", "1.5", "--gamma-im", "0.25", "--e0", "1", "--e1", "4",
                 "--emit", "out.csv", "--format", "csv", "--exit-verdict"]) == 70
    assert seen[0] == PipelineConfig(input_path="x.cnf")
    explicit = PipelineConfig(
        input_path="x.cnf", mode="statevector", amplifier="stochastic", gamma_re=1.5,
        gamma_im=0.25, e0=1, e1=4, emit_path="out.csv", format="csv",
    )
    for field in dataclasses.fields(PipelineConfig):
        got, want = getattr(seen[1], field.name), getattr(explicit, field.name)
        assert got == want and type(got) is type(want), field.name
        if field.name != "input_path":  # the command line above moves every option off its default
            assert got != getattr(seen[0], field.name), field.name


def test_cli_path_errors(tmp_path, capsys):
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    assert main(["solve", "--input", str(tmp_path)]) == 66
    assert capsys.readouterr().err == f"qsatlab: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert main(["solve", "--input", str(sat), "--emit", str(tmp_path)]) == 64
    assert f"cannot write {tmp_path}: Is a directory" in capsys.readouterr().err
    missing_dir = tmp_path / "no" / "such" / "dir" / "rep.json"
    assert main(["solve", "--input", str(sat), "--emit", str(missing_dir)]) == 64
    assert f"cannot write {missing_dir}: No such file or directory" in capsys.readouterr().err


def test_cli_rejects_clause_count_mismatch(tmp_path, capsys):
    short = tmp_path / "short.cnf"
    short.write_text("p cnf 2 5\n1 2 0\n")
    assert main(["solve", "--input", str(short)]) == 65
    assert "declares 5 clauses, found 1" in capsys.readouterr().err


def test_cli_solves_satlib_file_with_end_marker(capsys):
    assert main(["solve", "--input", str(SATLIB_FIXTURE), "--exit-verdict"]) == 10


@pytest.mark.parametrize("option", ["--gamma-re", "--gamma-im"])
def test_cli_refuses_infinite_gamma_up_front(tmp_path, capsys, option):
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    assert main(["solve", "--input", str(sat), "--amplifier", "stochastic", option, "inf"]) == 64
    err = capsys.readouterr().err
    assert "gamma must be finite" in err
    assert "RuntimeWarning" not in err


def test_cli_refuses_a_horizon_past_the_float_range_as_a_rate_fit(tmp_path, capsys):
    """Re(gamma) = 1e-308 puts the horizon 20/Re(gamma) at inf: the rate fit's
    refusal names it, as for any Re(gamma) under 1.73e-152."""
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    assert main(["solve", "--input", str(sat), "--amplifier", "stochastic", "--gamma-re", "1e-308"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("qsatlab: Re(gamma)=1e-308: the rate fit needs squared sample times")
    assert err.count("\n") == 1


def _decide_or_refuse(capfd, paths, *options):
    """Solve a SAT and an UNSAT file; each gives the right verdict with a clean
    stderr, or both exit 64 with the one-line refusal alone. Read at the file
    descriptors, since LAPACK writes there; stdout holds the report alone.
    True when they were decided."""
    codes = []
    for path, verdict in zip(paths, (10, 20)):
        code = main(["solve", "--input", str(path), "--amplifier", "stochastic", "--exit-verdict", *options])
        out, err = capfd.readouterr()
        assert all(line[11:13] == ": " for line in out.splitlines()), out
        assert code in (verdict, 64), (options, code, err)
        refusal = err.startswith("qsatlab: ") and err.count("\n") == 1
        assert err == "" if code == verdict else refusal, err
        codes.append(code)
    assert (codes[0] == 64) == (codes[1] == 64), (options, codes)  # refused as a configuration
    return codes[0] != 64


@pytest.fixture
def sat_and_unsat(tmp_path):
    return (_write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)])),
            _write(tmp_path, "unsat.cnf", CnfFormula(1, [lits(1), lits(-1)])))


def test_gamma_sweep_decides_or_refuses_cleanly(capfd, sat_and_unsat):
    """Every decade of Re(gamma), and of Im(gamma) at Re(gamma) = 1, decides
    correctly or exits 64 without LAPACK or numpy noise. The decided Re(gamma)
    range is 1e-151..1e163; Im(gamma) of either sign decides while
    |Im(gamma)| * HORIZON_FACTOR stays finite."""
    decided = [k for k in range(-308, 309)
               if _decide_or_refuse(capfd, sat_and_unsat, "--gamma-re", f"1e{k}")]
    assert decided == list(range(-151, 164))
    decided = [k for k in range(-308, 309)
               if _decide_or_refuse(capfd, sat_and_unsat, "--gamma-im", f"1e{k}")]
    assert decided == list(range(-308, 307))
    assert [_decide_or_refuse(capfd, sat_and_unsat, f"--gamma-im=-1e{k}") for k in (306, 307)] == [True, False]


def test_cli_internal_errors_exit_70(tmp_path, capsys, monkeypatch):
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    argv = ["solve", "--input", str(sat), "--amplifier", "stochastic"]
    pipeline._stochastic_verdict.cache_clear()  # a memoised verdict would never reach the patch
    with monkeypatch.context() as patch:
        patch.setattr(adaptive, "damping_generator", lambda g: (inflating_generator(), inflating_generator()))
        assert main(argv) == 70
    assert "internal error: propagated state: matrix has eigenvalue" in capsys.readouterr().err

    with monkeypatch.context() as patch:
        patch.setattr("qsatlab.cnf._count_models", lambda formula: 5)
        assert main(["solve", "--input", str(sat)]) == 70
    assert "internal error: brute-force count: satisfying count out of range" in capsys.readouterr().err

    def exhausted(cfg):
        raise MemoryError
    monkeypatch.setattr("qsatlab.cli.run_pipeline", exhausted)
    assert main(argv) == 70
    assert "qsatlab: out of memory: allocation failed" in capsys.readouterr().err


def test_a_circuit_build_fault_is_an_internal_error(corpus_dir, capsys, monkeypatch):
    """A gate list the circuit refuses comes from the compiler, not from the
    input, so it exits 70 where a usage error would exit 64."""
    from qsatlab import sat_circuit

    wrapped = sat_circuit._wrapped

    def faulty(emit, gate, flip_a, flip_b=False):
        wrapped(emit, gate, flip_a, flip_b)
        emit((99,))
    monkeypatch.setattr(sat_circuit, "_wrapped", faulty)
    argv = ["solve", "--input", str(corpus_dir / "05_two_var_or.cnf"), "--mode", "statevector"]
    assert main(argv) == 70
    assert capsys.readouterr().err == "qsatlab: internal error: circuit build: gate (99,) out of range for 4 qubits\n"


def test_cli_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "qsatlab":
                built.append(self)

    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    good = ["solve", "--input", str(sat)]
    monkeypatch.setattr(cli, "_Parser", CountingParser)
    cli.build_parser.cache_clear()
    try:
        assert main(good) == 0
        assert main(good) == 0
        with pytest.raises(SystemExit) as exc:  # a bad argument after a good call
            main(good + ["--mode", "warp"])
        assert exc.value.code == 64
        assert main(good) == 0  # a good call after a bad one
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 1
    assert "invalid choice: 'warp'" in capsys.readouterr().err


def _outcome(parse, argv: list[str]):
    """What parse makes of argv, with all it prints: the namespace's fields,
    or the SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _dispatched(argv: list[str]):
    """The namespace main hands to the command it runs."""
    seen = []
    with mock.patch.object(cli, "_run_solve", seen.append), mock.patch.object(cli, "_run_self_check", seen.append):
        cli.main(argv)
    return seen[0]


_ARGV_GRID = [
    [], ["-h"], ["--help"], ["solve", "-h"], ["self-check", "-h"], ["bogus"], ["sol"], ["solve"],
    ["solve", "--input"], ["solve", "--input", "x.cnf", "--bogus"], ["solve", "--input", "x.cnf", "extra", "more"],
    ["solve", "--inp", "x.cnf"], ["self-check", "--corp", "c"], ["solve", "--input", "x.cnf", "--mode", "warp"],
    ["solve", "--input", "x.cnf", "--gamma-re", "x"], ["solve", "--input", "x.cnf", "--e0", "1.5"],
    ["solve", "--input=x.cnf"], ["solve", "--input", "x.cnf", "--gamma-im", "-0.5"],
    ["solve", "--input", "a.cnf", "--input", "b.cnf"], ["--", "solve", "--input", "x.cnf"],
    ["-x", "solve", "--input", "x.cnf"], ["self-check", "--corpus", "c"], ["solve", "--", "--input", "x.cnf"],
    ["solve", "--input", "x.cnf", "--mode", "oracle", "--amplifier", "stochastic", "--gamma-re", "1.5",
     "--gamma-im", "-0.5", "--e0", "0", "--e1", "2", "--emit", "r.csv", "--format", "csv", "--exit-verdict"],
]


@pytest.mark.parametrize("argv", _ARGV_GRID, ids=" ".join)
def test_cli_dispatch_matches_the_top_level_parse(argv):
    """main hands a command's arguments straight to that command's parser; it
    gets the namespace parse_args gets, or exits with the same code and text."""
    assert _outcome(_dispatched, argv) == _outcome(cli.build_parser().parse_args, argv)


_ARGV_WORDS = st.sampled_from([
    "solve", "self-check", "bogus", "--input", "--mode", "--amplifier", "--gamma-re", "--gamma-im", "--e0",
    "--e1", "--emit", "--format", "--exit-verdict", "--corpus", "--input=x.cnf", "oracle", "warp", "1.5",
    "-0.5", "x", "--", "-h", "--a", "--inp",
])
# About half the draws lead with a command, so they take the dispatch.
_ARGVS = st.lists(_ARGV_WORDS, max_size=8) | st.builds(
    lambda command, rest: [command, *rest], st.sampled_from(["solve", "self-check"]), st.lists(_ARGV_WORDS, max_size=7))


@given(_ARGVS)
def test_cli_dispatch_matches_the_top_level_parse_on_any_argv(argv):
    assert _outcome(_dispatched, argv) == _outcome(cli.build_parser().parse_args, argv)


def test_cli_reads_sys_argv_when_given_none(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qsatlab", "self-check", "--corpus", "c"])
    assert vars(_dispatched(None)) == {"command": "self-check", "corpus": "c"}


def test_every_exported_name_resolves():
    missing = [name for name in qsatlab.__all__ if not hasattr(qsatlab, name)]
    assert missing == []


def _fresh_python(probe: str) -> str:
    """Last line a fresh interpreter prints running `probe` against this qsatlab."""
    src = str(Path(qsatlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("module", ["qsatlab", "qsatlab.cli"])
def test_import_leaves_scipy_unloaded(module):
    assert _fresh_python(f"import sys, {module}; print('scipy' in sys.modules)") == "False"


CLI_MODULES = ["qsatlab", "qsatlab.chaos", "qsatlab.cli", "qsatlab.cnf", "qsatlab.errors", "qsatlab.pipeline"]


@pytest.mark.parametrize("mode, amplifier, added", [
    ("oracle", "chaos", []),
    ("statevector", "chaos", ["qsatlab.sat_circuit"]),
    ("oracle", "stochastic", ["qsatlab.adaptive", "qsatlab.dynamics"]),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, mode, amplifier, added):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    argv = ["solve", "--input", str(path), "--mode", mode, "--amplifier", amplifier]
    probe = ("import json, sys, qsatlab.cli\n"
             "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'qsatlab')\n"
             "before = loaded()\n"
             f"code = qsatlab.cli.main({argv!r})\n"
             "print(json.dumps([code, before, sorted(set(loaded()) - set(before))]))")
    assert json.loads(_fresh_python(probe)) == [0, CLI_MODULES, added]


def test_star_import_binds_every_exported_name():
    probe = ("from qsatlab import *\nimport qsatlab\n"
             "print([name for name in qsatlab.__all__ if name not in globals()], hasattr(qsatlab, 'nope'))")
    assert _fresh_python(probe) == "[] False"


def test_cli_self_check(tmp_path, capsys):
    _write(tmp_path, "a.cnf", CnfFormula(2, [lits(1, 2)]))
    assert main(["self-check", "--corpus", str(tmp_path)]) == 0
    (tmp_path / "lie.cnf").write_text("c expect SAT\n" + serialize_dimacs(CnfFormula(1, [lits(1), lits(-1)])))
    assert main(["self-check", "--corpus", str(tmp_path)]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["self-check", "--corpus", str(empty)]) == 64
