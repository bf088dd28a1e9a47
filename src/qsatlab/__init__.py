"""qsatlab: a SAT decision laboratory.

Pipeline: a CNF instance is compiled into a reversible evaluation circuit
whose result qubit carries the formula value over a uniform superposition of
assignments; the readout weight q^2 = r/2^n is then pushed through one of two
amplifiers (logistic-map threshold crossing, or a state-adaptive open-system
probe classified by damping vs oscillation) and cross-checked against the
brute-force counting oracle.

Public names load their module on first access (PEP 562), so a command
imports only the modules it runs. The package holds only what a command runs;
the reference code the tests check it against (a dense statevector simulator,
closed forms, spectra) lives with the tests, in tests/reference.py.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_MODULE_OF = {
    name: module
    for module, names in {
        "adaptive": ("DynVerdict", "adapt", "classify", "damping_generator"),
        "chaos": ("ChaosVerdict", "detect", "iterate"),
        "cnf": ("Clause", "CnfFormula", "CountSummary", "Literal", "count_satisfying", "parse_dimacs",
                "serialize_dimacs"),
        "dynamics": ("DensityMatrix2", "Superoperator"),
        "pipeline": ("PipelineConfig", "Report", "run_pipeline", "self_check"),
        "sat_circuit": ("Circuit", "build_sat_circuit"),
    }.items()
    for name in names
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
