import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import inflating_generator
import qsatlab
from qsatlab import adaptive, cli, pipeline
from qsatlab.chaos import ChaosVerdict
from qsatlab.cli import main
from qsatlab.cnf import CnfFormula, count_satisfying, lits, parse_dimacs, serialize_dimacs
from qsatlab.corpus import write_corpus
from qsatlab.errors import DimacsParseError, EnumerationCapError, InvariantError
from qsatlab.pipeline import (
    PipelineConfig,
    read_expectation,
    render,
    run_pipeline,
    self_check,
    statevector_q_squared,
)
from qsatlab.sat_circuit import required_ancillas
from qsatlab.statevector import prepare_uniform


SATLIB_FIXTURE = Path(__file__).parent / "fixtures" / "satlib_end_marker.cnf"


def _write(tmp_path: Path, name: str, formula: CnfFormula) -> Path:
    path = tmp_path / name
    path.write_text(serialize_dimacs(formula))
    return path


# -- statevector readout -------------------------------------------------------------


def test_statevector_q_squared_reads_the_result_qubit():
    assert statevector_q_squared(CnfFormula(2, [lits(1, 2)])) == pytest.approx(0.75, abs=1e-12)
    assert statevector_q_squared(CnfFormula(1, [lits(1), lits(-1)])) == 0.0


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


def test_amplifier_none_reports_probability_only(tmp_path):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    report = run_pipeline(PipelineConfig(input_path=str(path), amplifier="none"))
    assert report.verdict is None
    assert report.amplifier_satisfiable is None
    assert report.agreement is None
    assert report.q_squared_float == pytest.approx(0.75)


def test_statevector_mode_matches_oracle_mode(corpus_dir):
    paths = sorted(corpus_dir.glob("*.cnf"))
    for path in paths:
        formula = parse_dimacs(path.read_text())
        assert statevector_q_squared(formula) == count_satisfying(formula).q_squared, path.name
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
    monkeypatch.setattr("qsatlab.pipeline.build_sat_circuit", never_built)
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
    {"horizon_factor": 15.0}, {"threshold": 0.2},
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


def test_render_rejects_invalid_combinations(tmp_path):
    path = _write(tmp_path, "or.cnf", CnfFormula(2, [lits(1, 2)]))
    report = run_pipeline(PipelineConfig(input_path=str(path), amplifier="none"))
    with pytest.raises(ValueError, match="no amplifier trace"):
        render(report, "csv")
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


def test_self_check_catches_mislabeled_expectation(tmp_path):
    (tmp_path / "lie.cnf").write_text("c expect SAT\n" + serialize_dimacs(CnfFormula(1, [lits(1), lits(-1)])))
    summary = self_check(tmp_path)
    assert not summary.ok
    assert summary.disagreements >= 1
    assert any("expectation" in issue for row in summary.rows for issue in row.issues)


def test_self_check_rejects_empty_directory(tmp_path):
    with pytest.raises(ValueError, match="no .cnf files"):
        self_check(tmp_path)


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
    assert json.loads(out.read_text())["amplifier"]["kind"] == "stochastic"


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
                 "--a", "3.9", "--gamma-re", "1.5", "--gamma-im", "0.25", "--e0", "1", "--e1", "4",
                 "--horizon-factor", "15", "--threshold", "0.2", "--emit", "out.csv", "--format", "csv",
                 "--exit-verdict"]) == 70
    assert seen[0] == PipelineConfig(input_path="x.cnf")
    explicit = PipelineConfig(
        input_path="x.cnf", mode="statevector", amplifier="stochastic", a=3.9, gamma_re=1.5,
        gamma_im=0.25, e0=1, e1=4, horizon_factor=15.0, threshold=0.2, emit_path="out.csv", format="csv",
    )
    for field in dataclasses.fields(PipelineConfig):
        got, want = getattr(seen[1], field.name), getattr(explicit, field.name)
        assert got == want and type(got) is type(want), field.name
        if field.name != "input_path":  # the command line above moves every option off its default
            assert got != getattr(seen[0], field.name), field.name


def test_cli_path_errors(tmp_path, capsys):
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    assert main(["solve", "--input", str(tmp_path)]) == 66
    assert "Is a directory" in capsys.readouterr().err
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


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_cli_rejects_invalid_qubit_cap(monkeypatch, raw):
    """QSAT_MAX_QUBITS bounds dense states, so the dense simulator is what
    refuses a bad value."""
    monkeypatch.setenv("QSAT_MAX_QUBITS", raw)
    with pytest.raises(ValueError, match="QSAT_MAX_QUBITS must be an integer >= 1"):
        prepare_uniform(1, 0)


@pytest.mark.parametrize("command", ["oracle", "self-check"])
@pytest.mark.parametrize("raw", ["abc", "0"])
def test_cli_rejects_invalid_qubit_cap_in_every_command(tmp_path, capsys, monkeypatch, raw, command):
    """No command builds a dense state, so none reads QSAT_MAX_QUBITS: with a
    bad value, or a cap of one qubit, each still decides."""
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    monkeypatch.setenv("QSAT_MAX_QUBITS", raw)
    if command == "self-check":
        assert main(["self-check", "--corpus", str(tmp_path)]) == 0
    else:
        assert main(["solve", "--input", str(sat), "--mode", command, "--exit-verdict"]) == 10
    monkeypatch.setenv("QSAT_MAX_QUBITS", "1")
    assert main(["solve", "--input", str(sat), "--mode", "statevector", "--exit-verdict"]) == 10
    assert "QSAT_MAX_QUBITS" not in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--gamma-re", "--gamma-im"])
def test_cli_refuses_infinite_gamma_up_front(tmp_path, capsys, option):
    sat = _write(tmp_path, "sat.cnf", CnfFormula(2, [lits(1, 2)]))
    assert main(["solve", "--input", str(sat), "--amplifier", "stochastic", option, "inf"]) == 64
    err = capsys.readouterr().err
    assert "gamma must be finite" in err
    assert "RuntimeWarning" not in err


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


@pytest.mark.parametrize("threshold", [0.5, 0.1, 1e-3, 1e-10, 1e-100, 1e-300])
def test_horizon_factor_refused_unless_it_certifies_damping(capfd, sat_and_unsat, threshold):
    """Damping is certified iff hf > ln(1/threshold); at or below it, exit 64."""
    bound = math.log(1 / threshold)
    below = [bound, math.nextafter(bound, 0), 0.99 * bound, 0.5 * bound, 1e-300]
    above = [math.nextafter(bound, math.inf), 1.01 * bound, 2 * bound]
    for hf in below + above:
        decided = _decide_or_refuse(capfd, sat_and_unsat, "--horizon-factor", repr(hf),
                                    "--threshold", repr(threshold))
        assert decided == (hf in above), hf


def test_short_horizon_is_refused_with_its_bound(capfd, corpus_dir):
    assert main(["solve", "--input", str(corpus_dir / "05_two_var_or.cnf"),
                 "--amplifier", "stochastic", "--horizon-factor", "1"]) == 64
    assert "must exceed ln(1/threshold) = 2.302585092994046" in capfd.readouterr().err


@pytest.mark.parametrize("horizon_factor", [20.0, 1000.0])
def test_gamma_sweep_decides_or_refuses_cleanly(capfd, sat_and_unsat, horizon_factor):
    """Every decade of Re(gamma) decides correctly or exits 64 without LAPACK or
    numpy noise; at hf = 20 the decided range is 1e-151..1e163."""
    decided = [k for k in range(-308, 309)
               if _decide_or_refuse(capfd, sat_and_unsat, "--gamma-re", f"1e{k}",
                                    "--horizon-factor", repr(horizon_factor))]
    assert decided == list(range(decided[0], decided[-1] + 1))
    if horizon_factor == 20.0:
        assert (decided[0], decided[-1]) == (-151, 163)


def test_cli_refuses_a_chaos_window_it_cannot_certify(capsys, corpus_dir):
    """At a = 2 the needle never crosses 1/2: refused, not reported UNSAT."""
    assert main(["solve", "--input", str(corpus_dir / "15_needle_n12.cnf"), "--a", "2"]) == 64
    assert "below 2*sqrt(2)" in capsys.readouterr().err


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


@pytest.mark.parametrize("module", ["qsatlab", "qsatlab.cli"])
def test_import_leaves_scipy_unloaded(module):
    probe = f"import sys, {module}; print('scipy' in sys.modules)"
    src = str(Path(qsatlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "False"


def test_cli_self_check(tmp_path, capsys):
    _write(tmp_path, "a.cnf", CnfFormula(2, [lits(1, 2)]))
    assert main(["self-check", "--corpus", str(tmp_path)]) == 0
    (tmp_path / "lie.cnf").write_text("c expect SAT\n" + serialize_dimacs(CnfFormula(1, [lits(1), lits(-1)])))
    assert main(["self-check", "--corpus", str(tmp_path)]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["self-check", "--corpus", str(empty)]) == 64
