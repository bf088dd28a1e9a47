"""Command line front end: `qsatlab solve` and `qsatlab self-check`.

Every option is declared once, in build_parser, and argparse parses each
distinct argv once per process: main remembers the namespace it gave, and an
argv argparse refuses is never remembered, so help and refusals stay its own.

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
    # allow_abbrev=False: a prefix such as --a is an unknown option, never --amplifier.
    parser = _Parser(prog="qsatlab", description="SAT decision laboratory", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    # Options the user leaves out stay out of the namespace, so every solve
    # default comes from PipelineConfig alone.
    solve = sub.add_parser("solve", help="decide one DIMACS instance",
                           argument_default=argparse.SUPPRESS, allow_abbrev=False)
    solve.add_argument("--input", dest="input_path", metavar="INPUT", required=True, help="DIMACS CNF file")
    solve.add_argument("--mode", choices=MODES)
    solve.add_argument("--amplifier", choices=AMPLIFIERS)
    solve.add_argument("--gamma-re", type=float)
    solve.add_argument("--gamma-im", type=float)
    solve.add_argument("--e0", type=int)
    solve.add_argument("--e1", type=int)
    solve.add_argument("--emit", dest="emit_path", metavar="EMIT", help="write report/trace to this path")
    solve.add_argument("--format", choices=FORMATS)
    solve.add_argument("--exit-verdict", action="store_true", default=False,
                       help="exit 10 when SAT, 20 when UNSAT (script-friendly)")

    check = sub.add_parser("self-check", help="regression harness over a corpus directory",
                           allow_abbrev=False)
    check.add_argument("--corpus", required=True, help="directory of .cnf files")
    return parser


# Entries of the argv memo. The traffic repeats few argvs: a benchmark run
# cycles through at most 24 distinct ones (statevector_wide; 16 for
# stochastic_trace and oracle_count_wide), and an LRU cycled through more
# argvs than it holds never hits, so this stays well above that. One entry
# holds an argv and its parsed values, under 3 KB, so 64 hold under 200 KB.
ARGV_MEMO_SIZE = 64


@functools.lru_cache(maxsize=ARGV_MEMO_SIZE)
def _parse(argv: tuple[str, ...]) -> tuple[tuple[str, object], ...]:
    """parse_args's namespace for argv, as (dest, value) pairs no caller can
    change. A refused argv raises SystemExit, so nothing is stored for it."""
    return tuple(vars(build_parser().parse_args(argv)).items())


def _run_solve(args) -> int:
    options = vars(args).copy()
    del options["command"]
    exit_verdict = options.pop("exit_verdict")
    cfg = PipelineConfig(**options)
    report = run_pipeline(cfg)
    summary = (f"input      : {report.input_path}\n"
               f"formula    : n={report.n} m={report.m} mu={report.mu}\n"
               f"q_squared  : {report.q_squared_float!r} (= {report.q_squared_rational})\n"
               f"amplifier  : {report.amplifier} -> {'SAT' if report.amplifier_satisfiable else 'UNSAT'}\n"
               f"brute force: r={report.reference.r} -> {'SAT' if report.reference.r else 'UNSAT'}\n"
               f"agreement  : {report.agreement}\n")
    if cfg.emit_path:
        summary += f"emitted    : {cfg.emit_path} ({cfg.format})\n"
    sys.stdout.write(summary)
    if exit_verdict:
        return 10 if report.amplifier_satisfiable else 20
    return 0


def _run_self_check(args) -> int:
    summary = self_check(args.corpus)
    print(summary.to_text())
    return 0 if summary.ok else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace(**dict(_parse(tuple(argv))))  # a fresh namespace on every call
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
    except ValueError as exc:  # usage and caps; EnumerationCapError too
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
