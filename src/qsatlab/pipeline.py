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

from . import adaptive, chaos
from .cnf import DEFAULT_ENUMERATION_CAP, CnfFormula, CountSummary, count_satisfying, parse_dimacs
from .errors import DimacsParseError, EnumerationCapError
from .sat_circuit import build_sat_circuit, collapse_to_qubit, count_result_ones, required_ancillas

MODES = ("oracle", "statevector")
AMPLIFIERS = ("chaos", "stochastic", "none")
FORMATS = ("json", "csv")


@dataclass(frozen=True)
class PipelineConfig:
    input_path: str
    mode: str = "oracle"
    amplifier: str = "chaos"
    a: float = 3.71
    gamma_re: float = 1.0
    gamma_im: float = 0.0
    e0: int = 0
    e1: int = 2
    horizon_factor: float = 20.0
    threshold: float = 0.1
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
    verdict: "chaos.ChaosVerdict | adaptive.DynVerdict | None"
    reference: CountSummary
    elapsed_s: float

    @property
    def q_squared_float(self) -> float:
        return float(self.q_squared_rational)

    @property
    def amplifier_satisfiable(self) -> bool | None:
        return None if self.verdict is None else self.verdict.satisfiable

    @property
    def agreement(self) -> bool | None:
        """Whether the amplifier's verdict matches brute force; None without one."""
        sat = self.amplifier_satisfiable
        return None if sat is None else sat == (self.reference.r >= 1)

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
                "verdict": self.verdict.summary() if self.verdict is not None else None,
            },
            "reference": {
                "r": self.reference.r,
                "total": self.reference.total,
                "satisfiable": self.reference.r >= 1,
            },
            "agreement": self.agreement,
            "timing": {"elapsed_s": self.elapsed_s},
        }


def statevector_q_squared(formula: CnfFormula) -> Fraction:
    """Weight on result = 1 after the formula circuit acts on the uniform
    superposition; exact, since the circuit permutes basis states."""
    circuit, layout = build_sat_circuit(formula)
    return Fraction(count_result_ones(circuit, layout), 1 << formula.n)


# Entries of the stochastic memo. The traffic needs few: self-check meets 3
# configurations and a stochastic_trace benchmark run 8. One entry is a
# 401 x 4 float64 trajectory (12.8 KB) and, once emitted, its CSV text (at
# most 40.1 KB: a float's repr takes at most 24 characters, a row at most
# 100), so 16 entries hold at most about 0.9 MB.
STOCHASTIC_MEMO_SIZE = 16


@functools.lru_cache(maxsize=STOCHASTIC_MEMO_SIZE)
def _stochastic_verdict(alpha0_zero: bool, alpha1_zero: bool, e0: int, e1: int, gamma: complex,
                        horizon_factor: float, threshold: float) -> adaptive.DynVerdict:
    """The stochastic verdict of one configuration, decided once per process.

    Its key is all that adapt and classify read: q^2 enters only through
    adapt's exact zero tests on the amplitudes, so any input of the branch
    stands for all. Reports share the verdict, which is frozen with a
    read-only trajectory. A refused configuration raises and stores nothing."""
    g = adaptive.Susceptibility(gamma)
    classifier = adaptive.classifier_for(g, horizon_factor, threshold)
    branch_q2 = 1.0 if alpha0_zero else 0.0 if alpha1_zero else 0.5
    dyn = adaptive.adapt(
        adaptive.InputAmplitudes(*collapse_to_qubit(branch_q2)),
        adaptive.TwoLevelHamiltonian(e0, e1),
        g,
    )
    return adaptive.classify(dyn, classifier)


def _amplifier_verdict(cfg: PipelineConfig, q_squared: Fraction, n: int):
    """Run the selected amplifier; its verdict, or None for amplifier "none"."""
    if cfg.amplifier == "chaos":
        return chaos.detect(float(q_squared), max(n, 1), chaos.LogisticParams(cfg.a))
    if cfg.amplifier == "stochastic":
        alpha0, alpha1 = collapse_to_qubit(q_squared)
        return _stochastic_verdict(alpha0 == 0, alpha1 == 0, cfg.e0, cfg.e1,
                                   complex(cfg.gamma_re, cfg.gamma_im), cfg.horizon_factor, cfg.threshold)
    return None


def run_pipeline(cfg: PipelineConfig) -> Report:
    """Parse the input file, produce q^2 in the configured mode, amplify, and
    attach the brute-force reference verdict. Both modes enumerate all 2^n
    inputs, so both refuse n > DEFAULT_ENUMERATION_CAP before building
    anything."""
    started = time.perf_counter()
    text = Path(cfg.input_path).read_text()
    formula = parse_dimacs(text)
    mu = required_ancillas(formula)

    try:
        reference = count_satisfying(formula)
    except EnumerationCapError:
        raise EnumerationCapError(
            f"{cfg.mode} mode enumerates all 2^n inputs but n={formula.n} exceeds "
            f"the cap of {DEFAULT_ENUMERATION_CAP}; shrink the instance"
        ) from None

    if cfg.mode == "oracle":
        q_exact = reference.q_squared
    else:
        q_exact = statevector_q_squared(formula)

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
        if report.verdict is None:
            raise ValueError("report has no amplifier trace to emit as CSV")
        return report.verdict.csv
    raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")


def emit(report: Report, fmt: str, path: str | Path) -> Path:
    """Write a report (json) or its amplifier trace (csv) to disk; bytes are
    deterministic for fixed inputs (the report's timing field is the one
    varying key). An unwritable path is a ValueError naming it."""
    out = Path(path)
    try:
        out.write_text(render(report, fmt))
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
    """Run both amplifiers in both modes over every .cnf in a directory and
    compare all verdicts against brute force and against any 'c expect'
    annotation."""
    corpus = sorted(Path(corpus_dir).glob("*.cnf"))
    if not corpus:
        raise ValueError(f"no .cnf files found in {corpus_dir}")
    rows = []
    for path in corpus:
        text = path.read_text()
        formula = parse_dimacs(text)
        reference = count_satisfying(formula)
        ref_sat = reference.r >= 1
        expected = read_expectation(text)
        issues = []
        if expected is not None and expected != ref_sat:
            issues.append(
                f"expectation says {'SAT' if expected else 'UNSAT'} but brute force "
                f"counts r={reference.r}"
            )
        q2_by_mode = {"oracle": reference.q_squared, "statevector": statevector_q_squared(formula)}
        verdicts: dict[tuple[str, str], bool] = {}
        for amp in ("chaos", "stochastic"):
            for mode, q2 in q2_by_mode.items():
                cfg = PipelineConfig(input_path=str(path), mode=mode, amplifier=amp)
                amp_sat = _amplifier_verdict(cfg, q2, formula.n).satisfiable
                verdicts[(amp, mode)] = amp_sat
                if amp_sat != ref_sat:
                    issues.append(f"{amp}/{mode} says {'SAT' if amp_sat else 'UNSAT'}, "
                                  f"brute force says {'SAT' if ref_sat else 'UNSAT'}")
        rows.append(CheckRow(name=path.name, n=formula.n, r=reference.r,
                             verdicts=verdicts, issues=tuple(issues)))
    return CheckSummary(rows=tuple(rows))
