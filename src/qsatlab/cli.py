"""Command line front end: `qsatlab solve` and `qsatlab self-check`.

Every option is declared once, in build_parser, and each command parser keeps
a table from its option strings to the argparse actions declared for them.
When the first argument names a command, main reads the rest in one walk over
that table: an option token must be one of its exact option strings, a value
is the next token, converted by the action's type and checked against its
choices. Anything the walk does not read that way (help, `--`, `--opt=value`,
an unknown or positional token, a missing or refused value, a missing
required option) goes to parse_args, so the walk gives the namespace
parse_args gives, and help, usage text and every refusal stay argparse's.

Exit codes follow sysexits for failures (64 usage, 65 bad data, 66 missing or
unreadable input, 70 internal); under --exit-verdict a produced verdict maps
to 10 (SAT) or 20 (UNSAT). self-check exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import functools
import re
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


def _options(*actions: argparse.Action) -> dict[str, argparse.Action]:
    return {option: action for action in actions for option in action.option_strings}


@functools.cache  # built on first use, then reused: in-process callers solve many times
def build_parser() -> _Parser:
    # allow_abbrev=False: a prefix such as --a is an unknown option, never --amplifier.
    parser = _Parser(prog="qsatlab", description="SAT decision laboratory", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its parser, filled in below

    # Options the user leaves out stay out of the namespace, so every solve
    # default comes from PipelineConfig alone.
    solve = sub.add_parser("solve", help="decide one DIMACS instance",
                           argument_default=argparse.SUPPRESS, allow_abbrev=False)
    # Each option is a plain store, or a store_true: _walk reads no other kind.
    solve.options = _options(
        solve.add_argument("--input", dest="input_path", metavar="INPUT", required=True,
                           help="DIMACS CNF file"),
        solve.add_argument("--mode", choices=MODES),
        solve.add_argument("--amplifier", choices=AMPLIFIERS),
        solve.add_argument("--gamma-re", type=float),
        solve.add_argument("--gamma-im", type=float),
        solve.add_argument("--e0", type=int),
        solve.add_argument("--e1", type=int),
        solve.add_argument("--emit", dest="emit_path", metavar="EMIT",
                           help="write report/trace to this path"),
        solve.add_argument("--format", choices=FORMATS),
        solve.add_argument(
            "--exit-verdict", action="store_true", default=False,
            help="exit 10 when SAT, 20 when UNSAT (script-friendly)",
        ),
    )

    check = sub.add_parser("self-check", help="regression harness over a corpus directory",
                           allow_abbrev=False)
    check.options = _options(check.add_argument("--corpus", required=True, help="directory of .cnf files"))
    return parser


# A token argparse reads as a value although it starts with "-", given that no
# option string looks like a negative number.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _walk(parser: _Parser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace parser.parse_args(argv) gives, read in one pass over the
    option table of the command argv[0] names; None where the walk cannot tell."""
    command, *args = argv
    options = parser.commands[command].options
    namespace = argparse.Namespace(command=command)
    tokens = iter(args)
    for token in tokens:
        action = options.get(token)
        if action is None:
            return None
        if action.nargs == 0:
            value = action.const
        else:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _NEGATIVE_NUMBER.fullmatch(value):
                return None
            if action.type is not None:
                try:
                    value = action.type(value)
                except (ValueError, TypeError, argparse.ArgumentTypeError):
                    return None
            if action.choices is not None and value not in action.choices:
                return None
        setattr(namespace, action.dest, value)
    for action in options.values():
        if hasattr(namespace, action.dest):  # seen: each option has its own dest
            continue
        if action.required:
            return None
        if action.default is not argparse.SUPPRESS:
            setattr(namespace, action.dest, action.default)
    return namespace


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
    parser = build_parser()
    args = _walk(parser, argv) if argv and argv[0] in parser.commands else None
    if args is None:
        args = parser.parse_args(argv)
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
