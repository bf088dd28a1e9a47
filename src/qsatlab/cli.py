"""Command line front end: `qsatlab solve` and `qsatlab self-check`.

Exit codes follow sysexits for failures (64 usage, 65 bad data, 66 missing or
unreadable input, 70 internal); under --exit-verdict a produced verdict maps
to 10 (SAT) or 20 (UNSAT). self-check exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import DimacsParseError
from .pipeline import AMPLIFIERS, FORMATS, MODES, PipelineConfig, run_pipeline, self_check

EX_USAGE = 64
EX_DATAERR = 65
EX_NOINPUT = 66
EX_SOFTWARE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we want >= 64
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


@functools.cache  # built on first use, then reused: in-process callers solve many times
def build_parser() -> _Parser:
    parser = _Parser(prog="qsatlab", description="SAT decision laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options the user leaves out stay out of the namespace, so every solve
    # default comes from PipelineConfig alone.
    solve = sub.add_parser("solve", help="decide one DIMACS instance",
                           argument_default=argparse.SUPPRESS)
    solve.add_argument("--input", dest="input_path", metavar="INPUT", required=True,
                       help="DIMACS CNF file")
    solve.add_argument("--mode", choices=MODES)
    solve.add_argument("--amplifier", choices=AMPLIFIERS)
    solve.add_argument("--a", type=float, help="logistic map parameter")
    solve.add_argument("--gamma-re", type=float)
    solve.add_argument("--gamma-im", type=float)
    solve.add_argument("--e0", type=int)
    solve.add_argument("--e1", type=int)
    solve.add_argument("--horizon-factor", type=float)
    solve.add_argument("--threshold", type=float)
    solve.add_argument("--emit", dest="emit_path", metavar="EMIT",
                       help="write report/trace to this path")
    solve.add_argument("--format", choices=FORMATS)
    solve.add_argument(
        "--exit-verdict", action="store_true", default=False,
        help="exit 10 when SAT, 20 when UNSAT (script-friendly)",
    )

    check = sub.add_parser("self-check", help="regression harness over a corpus directory")
    check.add_argument("--corpus", required=True, help="directory of .cnf files")
    return parser


def _run_solve(args) -> int:
    options = vars(args).copy()
    del options["command"]
    exit_verdict = options.pop("exit_verdict")
    cfg = PipelineConfig(**options)
    report = run_pipeline(cfg)
    print(f"input      : {report.input_path}")
    print(f"formula    : n={report.n} m={report.m} mu={report.mu}")
    print(f"q_squared  : {report.q_squared_float!r} (= {report.q_squared_rational})")
    if report.amplifier_satisfiable is None:
        print("amplifier  : none")
    else:
        print(f"amplifier  : {report.amplifier} -> {'SAT' if report.amplifier_satisfiable else 'UNSAT'}")
    print(f"brute force: r={report.reference.r} -> {'SAT' if report.reference.r else 'UNSAT'}")
    if report.agreement is not None:
        print(f"agreement  : {report.agreement}")
    if cfg.emit_path:
        print(f"emitted    : {cfg.emit_path} ({cfg.format})")
    if exit_verdict and report.amplifier_satisfiable is not None:
        return 10 if report.amplifier_satisfiable else 20
    return 0


def _run_self_check(args) -> int:
    summary = self_check(args.corpus)
    print(summary.to_text())
    return 0 if summary.ok else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return _run_solve(args)
        return _run_self_check(args)
    except (DimacsParseError, UnicodeDecodeError) as exc:  # bad DIMACS, or not UTF-8
        print(f"qsatlab: parse error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except OSError as exc:  # unreadable input; emit turns output errors into ValueError
        print(f"qsatlab: {exc}", file=sys.stderr)
        return EX_NOINPUT
    except ValueError as exc:  # usage and caps; EnumerationCapError and QubitCapError too
        print(f"qsatlab: {exc}", file=sys.stderr)
        return EX_USAGE
    except MemoryError as exc:
        print(f"qsatlab: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EX_SOFTWARE
    except Exception as exc:  # InvariantError and any other program fault
        print(f"qsatlab: internal error: {exc}", file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    raise SystemExit(main())
