"""End-to-end orchestration: parse, compute q^2, amplify, compare, report.

Both modes carry q^2 = r/2^n as an exact rational, so q = 0 versus q = 2^-n
stays an exact distinction rather than a thresholded one. Oracle mode takes r
from the brute-force count; statevector mode builds the reversible circuit and
evaluates it as a permutation of the basis inputs.
"""

from __future__ import annotations

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
    q_squared_float: float
    q_squared_rational: Fraction
    verdict: "chaos.ChaosVerdict | adaptive.DynVerdict | None"
    amplifier_satisfiable: bool | None
    reference: CountSummary
    agreement: bool | None
    elapsed_s: float

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


def _amplifier_verdict(cfg: PipelineConfig, q_squared: Fraction, n: int):
    """Run the selected amplifier; returns (verdict object, satisfiable or None)."""
    if cfg.amplifier == "chaos":
        verdict = chaos.detect(float(q_squared), max(n, 1), chaos.LogisticParams(cfg.a))
        return verdict, verdict.satisfiable
    if cfg.amplifier == "stochastic":
        dyn = adaptive.adapt(
            adaptive.InputAmplitudes(*collapse_to_qubit(q_squared)),
            adaptive.TwoLevelHamiltonian(cfg.e0, cfg.e1),
            adaptive.Susceptibility(complex(cfg.gamma_re, cfg.gamma_im)),
        )
        horizon = cfg.horizon_factor / cfg.gamma_re
        classifier = adaptive.ClassifierConfig(
            horizon=horizon, dt=horizon / 400.0, threshold=cfg.threshold
        )
        verdict = adaptive.classify(dyn, classifier)
        return verdict, verdict.satisfiable
    return None, None


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
    q_float = float(q_exact)

    verdict, amp_sat = _amplifier_verdict(cfg, q_exact, formula.n)
    agreement = None
    if amp_sat is not None:
        agreement = amp_sat == (reference.r >= 1)

    report = Report(
        input_path=str(cfg.input_path),
        n=formula.n,
        m=formula.num_clauses,
        mu=mu,
        mode=cfg.mode,
        amplifier=cfg.amplifier,
        q_squared_float=q_float,
        q_squared_rational=q_exact,
        verdict=verdict,
        amplifier_satisfiable=amp_sat,
        reference=reference,
        agreement=agreement,
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
        header, rows = report.verdict.trace_rows()
        return "\n".join([header] + rows) + "\n"
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
    m: int
    mu: int
    r: int
    expected_sat: bool | None
    verdicts: dict[tuple[str, str], bool]
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


@dataclass(frozen=True)
class CheckSummary:
    rows: tuple[CheckRow, ...]
    matrix: dict[tuple[str, str], tuple[int, int]]
    disagreements: int

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
    in any case); any other word is a DimacsParseError."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "c" and parts[1] == "expect":
            word = parts[2].upper()
            if word not in ("SAT", "UNSAT"):
                raise DimacsParseError(f"'c expect' takes SAT or UNSAT, got {parts[2]!r}", lineno)
            return word == "SAT"
    return None


def self_check(corpus_dir: str | Path) -> CheckSummary:
    """Run both amplifiers in both modes over every .cnf in a directory and
    compare all verdicts against brute force and against any 'c expect'
    annotation."""
    corpus = sorted(Path(corpus_dir).glob("*.cnf"))
    if not corpus:
        raise ValueError(f"no .cnf files found in {corpus_dir}")
    rows = []
    matrix: dict[tuple[str, str], list[int]] = {}
    for path in corpus:
        text = path.read_text()
        formula = parse_dimacs(text)
        mu = required_ancillas(formula)
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
                _, amp_sat = _amplifier_verdict(cfg, q2, formula.n)
                verdicts[(amp, mode)] = amp_sat
                cell = matrix.setdefault((amp, mode), [0, 0])
                cell[1] += 1
                if amp_sat == ref_sat:
                    cell[0] += 1
                else:
                    issues.append(f"{amp}/{mode} says {'SAT' if amp_sat else 'UNSAT'}, "
                                  f"brute force says {'SAT' if ref_sat else 'UNSAT'}")
        rows.append(
            CheckRow(
                name=path.name,
                n=formula.n,
                m=formula.num_clauses,
                mu=mu,
                r=reference.r,
                expected_sat=expected,
                verdicts=verdicts,
                issues=tuple(issues),
            )
        )
    disagreements = sum(len(row.issues) for row in rows)
    return CheckSummary(
        rows=tuple(rows),
        matrix={k: (v[0], v[1]) for k, v in matrix.items()},
        disagreements=disagreements,
    )
