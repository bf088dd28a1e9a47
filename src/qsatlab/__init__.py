"""qsatlab: a SAT decision laboratory.

Pipeline: a CNF instance is compiled into a reversible evaluation circuit
whose result qubit carries the formula value over a uniform superposition of
assignments; the readout weight q^2 = r/2^n is then pushed through one of two
amplifiers (logistic-map threshold crossing, or a state-adaptive open-system
probe classified by damping vs oscillation) and cross-checked against the
brute-force counting oracle.
"""

from .adaptive import (
    ClassifierConfig,
    DynVerdict,
    InputAmplitudes,
    Susceptibility,
    TwoLevelHamiltonian,
    adapt,
    classify,
    damping_generator,
)
from .chaos import ChaosVerdict, LogisticParams, detect, iterate
from .cnf import (
    Assignment,
    Clause,
    CnfFormula,
    CountSummary,
    Literal,
    count_satisfying,
    eval_formula,
    is_sat,
    parse_dimacs,
    serialize_dimacs,
)
from .dynamics import DensityMatrix2, Superoperator, evolve, spectrum, trace_distance
from .pipeline import PipelineConfig, Report, run_pipeline, self_check
from .sat_circuit import (
    CircuitLayout,
    build_sat_circuit,
    collapse_to_qubit,
    success_probability,
)
from .statevector import Circuit, Gate, StateVector, prepare_uniform, run

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "ChaosVerdict",
    "Circuit",
    "CircuitLayout",
    "ClassifierConfig",
    "Clause",
    "CnfFormula",
    "CountSummary",
    "DensityMatrix2",
    "DynVerdict",
    "Gate",
    "InputAmplitudes",
    "Literal",
    "LogisticParams",
    "PipelineConfig",
    "Report",
    "StateVector",
    "Superoperator",
    "Susceptibility",
    "TwoLevelHamiltonian",
    "adapt",
    "build_sat_circuit",
    "classify",
    "collapse_to_qubit",
    "count_satisfying",
    "damping_generator",
    "detect",
    "eval_formula",
    "evolve",
    "is_sat",
    "iterate",
    "parse_dimacs",
    "prepare_uniform",
    "run",
    "run_pipeline",
    "self_check",
    "serialize_dimacs",
    "spectrum",
    "success_probability",
    "trace_distance",
]
