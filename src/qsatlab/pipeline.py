"""End-to-end orchestration: parse, compute q^2, amplify, compare, report.

Both modes carry q^2 = r/2^n as an exact rational, so q = 0 versus q = 2^-n
stays an exact distinction rather than a thresholded one. Oracle mode takes r
from the brute-force count; statevector mode builds the reversible circuit and
evaluates it as a permutation of the basis inputs.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import chaos
from .cnf import (DEFAULT_ENUMERATION_CAP, CnfFormula, CountSummary, count_satisfying, parse_dimacs,
                  required_ancillas)
from .errors import DimacsParseError, EnumerationCapError, InvariantError

if TYPE_CHECKING:  # imported on first use, in _stochastic_verdict
    from . import adaptive

MODES = ("oracle", "statevector")
AMPLIFIERS = ("chaos", "stochastic")
FORMATS = ("json", "csv")


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    mode: str = "oracle"
    amplifier: str = "chaos"
    gamma_re: float = 1.0
    gamma_im: float = 0.0
    e0: int = 0
    e1: int = 2
    emit_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.amplifier not in AMPLIFIERS:
            raise ValueError(f"amplifier must be one of {AMPLIFIERS}, got {self.amplifier!r}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")


@dataclass(frozen=True)
class Report:
    input_path: str
    n: int
    m: int
    mu: int
    mode: str
    amplifier: str
    q_squared_rational: Fraction
    verdict: "chaos.ChaosVerdict | adaptive.DynVerdict"
    reference: CountSummary
    elapsed_s: float

    @property
    def q_squared_float(self) -> float:
        return float(self.q_squared_rational)

    @property
    def amplifier_satisfiable(self) -> bool:
        return self.verdict.satisfiable

    @property
    def agreement(self) -> bool:
        """Whether the amplifier's verdict matches brute force."""
        return self.amplifier_satisfiable == (self.reference.r >= 1)

    def to_json_dict(self) -> dict:
        return {
            "input": self.input_path,
            "formula": {"n": self.n, "m": self.m, "mu": self.mu},
            "mode": self.mode,
            "q_squared": {
                "float": self.q_squared_float,
                "rational": str(self.q_squared_rational),
                "source": self.mode,
            },
            "amplifier": {
                "kind": self.amplifier,
                "verdict": self.verdict.summary(),
            },
            "reference": {
                "r": self.reference.r,
                "total": self.reference.total,
                "satisfiable": self.reference.r >= 1,
            },
            "agreement": self.agreement,
            "timing": {"elapsed_s": self.elapsed_s},
        }


def _circuit_count(formula: CnfFormula) -> tuple[Fraction, int]:
    """Weight on result = 1 after the formula circuit acts on the uniform superposition,
    exact since the circuit permutes basis states, and that circuit's ancilla count mu.
    A gate list the circuit refuses is a build fault, not bad input: InvariantError."""
    from .sat_circuit import build_sat_circuit, count_result_ones  # here: oracle solves never load it

    try:
        circuit = build_sat_circuit(formula)
    except ValueError as exc:
        raise InvariantError(f"circuit build: {exc}") from exc
    return Fraction(count_result_ones(circuit, formula.n), 1 << formula.n), circuit.num_qubits - formula.n


# Entries of the chaos memo. The traffic needs few: a statevector_wide
# benchmark seed meets 3 (q^2, n) configurations and an oracle_count_wide run
# at most 9. One entry holds 2n + 1 <= 49 iterates (1.6 KB as floats) and, once
# emitted, their CSV text (at most 1.4 KB), so 16 entries hold under 64 KB.
CHAOS_MEMO_SIZE = 16


@functools.lru_cache(maxsize=CHAOS_MEMO_SIZE)
def _chaos_verdict(q_squared: float, n: int) -> chaos.ChaosVerdict:
    """The chaos verdict of one (q^2, n), decided once per process; chaos.detect
    is looked up at call time, and a refused q^2 or n raises and stores nothing."""
    return chaos.detect(q_squared, n)


# Entries of the stochastic memo. The traffic needs few: self-check meets 3
# configurations and a stochastic_trace benchmark run 8. One entry is a
# 401 x 4 float64 trajectory (12.8 KB) and, once emitted, its CSV text (at
# most 40.1 KB: a float's repr takes at most 24 characters, a row at most
# 100), so 16 entries hold at most about 0.9 MB.
STOCHASTIC_MEMO_SIZE = 16


@functools.lru_cache(maxsize=STOCHASTIC_MEMO_SIZE)
def _stochastic_verdict(q2_one: bool, q2_zero: bool, e0: int, e1: int,
                        gamma: complex) -> adaptive.DynVerdict:
    """The stochastic verdict of one configuration, decided once per process.

    Its key is all that adapt and classify read: q^2 enters only through
    adapt's exact tests q^2 == 1 and q^2 == 0, so any input of the branch
    stands for all. Reports share the verdict, which is frozen with a
    read-only trajectory. A refused configuration raises and stores nothing."""
    from . import adaptive  # here: chaos solves never load it, and memo hits skip it

    horizon = adaptive.horizon_for(gamma)
    q_squared = 1 if q2_one else 0 if q2_zero else Fraction(1, 2)  # one input of the branch
    return adaptive.classify(*adaptive.adapt(q_squared, e0, e1, gamma), horizon)


def _amplifier_verdict(cfg: PipelineConfig, q_squared: Fraction, n: int):
    """Run the selected amplifier and return its verdict."""
    if cfg.amplifier == "chaos":
        return _chaos_verdict(float(q_squared), max(n, 1))
    return _stochastic_verdict(q_squared == 1, q_squared == 0, cfg.e0, cfg.e1,
                               complex(cfg.gamma_re, cfg.gamma_im))


def _read(path: str | Path) -> str:
    """An input file's text, read unbuffered and decoded as UTF-8 whatever the
    locale; its line ends are left to the parsers' splitlines."""
    with open(path, "rb", buffering=0) as f:
        return f.read().decode()


def run_pipeline(cfg: PipelineConfig) -> Report:
    """Parse the input file, produce q^2 in the configured mode, amplify, and
    attach the brute-force reference verdict. Both modes enumerate all 2^n
    inputs, so both refuse n > DEFAULT_ENUMERATION_CAP before building
    anything."""
    started = time.perf_counter()
    formula = parse_dimacs(_read(cfg.input_path))

    try:
        reference = count_satisfying(formula)
    except EnumerationCapError:
        raise EnumerationCapError(
            f"{cfg.mode} mode enumerates all 2^n inputs but n={formula.n} exceeds "
            f"the cap of {DEFAULT_ENUMERATION_CAP}; shrink the instance"
        ) from None

    if cfg.mode == "oracle":
        q_exact, mu = reference.q_squared, required_ancillas(formula)
    else:
        q_exact, mu = _circuit_count(formula)

    report = Report(
        input_path=str(cfg.input_path),
        n=formula.n,
        m=formula.num_clauses,
        mu=mu,
        mode=cfg.mode,
        amplifier=cfg.amplifier,
        q_squared_rational=q_exact,
        verdict=_amplifier_verdict(cfg, q_exact, formula.n),
        reference=reference,
        elapsed_s=time.perf_counter() - started,
    )
    if cfg.emit_path:
        emit(report, cfg.format, cfg.emit_path)
    return report


# -- emission -------------------------------------------------------------------


def render(report: Report, fmt: str) -> str:
    """Deterministic text form of a report: the JSON document, or the
    amplifier trace as CSV."""
    if not isinstance(report, Report):
        raise ValueError("emission is defined for reports only")
    if fmt == "json":
        return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return report.verdict.csv
    raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def emit(report: Report, fmt: str, path: str | Path) -> Path:
    """Write a report (json) or its amplifier trace (csv) to disk, as the
    encoded bytes of its text; bytes are deterministic for fixed inputs (the
    report's timing field is the one varying key). An unwritable path is a
    ValueError naming it."""
    out = Path(path)
    data = render(report, fmt).encode()
    try:
        with open(path, "wb") as f:
            f.write(data)
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from None
    return out


# -- regression harness -----------------------------------------------------------


@dataclass(frozen=True)
class CheckRow:
    name: str
    n: int
    r: int
    verdicts: dict[tuple[str, str], bool]
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class CheckSummary:
    rows: tuple[CheckRow, ...]

    @property
    def matrix(self) -> dict[tuple[str, str], tuple[int, int]]:
        """(agreeing, total) verdicts against brute force per (amplifier, mode)."""
        cells: dict[tuple[str, str], tuple[int, int]] = {}
        for row in self.rows:
            for key, sat in row.verdicts.items():
                good, total = cells.get(key, (0, 0))
                cells[key] = (good + (sat == (row.r >= 1)), total + 1)
        return cells

    @property
    def disagreements(self) -> int:
        return sum(len(row.issues) for row in self.rows)

    @property
    def ok(self) -> bool:
        return self.disagreements == 0

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            status = "ok " if row.ok else "FAIL"
            cells = " ".join(
                f"{amp[:4]}/{mode[:6]}={'SAT' if v else 'UNSAT'}"
                for (amp, mode), v in sorted(row.verdicts.items())
            )
            lines.append(f"{status} {row.name:<28} n={row.n:<3} r={row.r:<6} {cells}")
            for issue in row.issues:
                lines.append(f"     ^ {issue}")
        lines.append("")
        lines.append("agreement matrix (vs brute force):")
        for (amp, mode), (good, total) in sorted(self.matrix.items()):
            lines.append(f"  {amp:<10} {mode:<12} {good}/{total}")
        lines.append(f"disagreements: {self.disagreements}")
        return "\n".join(lines)


def read_expectation(text: str) -> bool | None:
    """Optional 'c expect SAT|UNSAT' annotation in a DIMACS file (either word
    in any case); any other word, or none, is a DimacsParseError."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if parts[:2] == ["c", "expect"]:
            word = parts[2] if len(parts) > 2 else ""
            if word.upper() not in ("SAT", "UNSAT"):
                raise DimacsParseError(f"'c expect' takes SAT or UNSAT, got {word!r}", lineno)
            return word.upper() == "SAT"
    return None


def self_check(corpus_dir: str | Path) -> CheckSummary:
    """Solve every .cnf in a directory once per amplifier and mode through run_pipeline and
    compare the verdicts with brute force and with any 'c expect' annotation, read after the
    solves. A missing or unreadable directory raises OSError naming it."""
    corpus = sorted(path for path in Path(corpus_dir).iterdir() if path.name.endswith(".cnf"))
    if not corpus:
        raise ValueError(f"no .cnf files found in {corpus_dir}")
    rows = []
    for path in corpus:
        reports = [run_pipeline(PipelineConfig(input_path=str(path), mode=mode, amplifier=amp))
                   for amp in AMPLIFIERS for mode in MODES]
        r = reports[0].reference.r
        expected = read_expectation(_read(path))
        issues = []
        if expected is not None and expected != (r >= 1):
            issues.append(f"expectation says {'SAT' if expected else 'UNSAT'} but brute force counts r={r}")
        issues += [f"{rep.amplifier}/{rep.mode} says {'SAT' if rep.amplifier_satisfiable else 'UNSAT'}, "
                   f"brute force says {'SAT' if r else 'UNSAT'}"
                   for rep in reports if not rep.agreement]
        rows.append(CheckRow(name=path.name, n=reports[0].n, r=r,
                             verdicts={(rep.amplifier, rep.mode): rep.amplifier_satisfiable for rep in reports},
                             issues=tuple(issues)))
    return CheckSummary(rows=tuple(rows))
