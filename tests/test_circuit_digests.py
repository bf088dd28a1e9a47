"""Pinned gate lists: the circuit build_sat_circuit makes for every corpus file
and for 200 seeded random formulas.

The fixture holds each circuit's width and the sha256 of the repr of its gate
tuples, so any change to a gate, its qubits or the gate order shows here, not
only a change to the count read off the circuit. Regenerate it only when the
circuit is meant to change:

    PYTHONPATH=src python tests/test_circuit_digests.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import random_test_formula
from qsatlab.cnf import CnfFormula, parse_dimacs
from qsatlab.sat_circuit import build_sat_circuit

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "circuit_digests.json"
CORPUS = [path.name for path in sorted(CORPUS_DIR.glob("*.cnf"))]
SEEDS = range(200)


def random_formula(seed: int) -> CnfFormula:
    """Formulas of up to 8 variables and 10 clauses of 0-3 literals: unit
    clauses on one variable meet often, and every eighth seed may hold an
    empty clause."""
    return random_test_formula(random.Random(seed), max_n=8, max_m=10, allow_empty_clause=seed % 8 == 0)


def formula_for(key: str) -> CnfFormula:
    kind, name = key.split("/")
    if kind == "corpus":
        return parse_dimacs((CORPUS_DIR / name).read_text())
    return random_formula(int(name))


def circuit_digest(formula: CnfFormula) -> list:
    """[width, sha256 of the gate tuples' repr]."""
    circuit = build_sat_circuit(formula)
    return [circuit.num_qubits, hashlib.sha256(repr(circuit.gates).encode()).hexdigest()]


KEYS = [f"corpus/{name}" for name in CORPUS] + [f"random/{seed}" for seed in SEEDS]


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_corpus_and_the_seeds(pinned):
    assert len(CORPUS) == 44
    assert sorted(pinned) == sorted(KEYS)


def test_corpus_circuits_are_pinned(pinned):
    assert {key: circuit_digest(formula_for(key)) for key in KEYS if key.startswith("corpus/")} == \
        {key: digest for key, digest in pinned.items() if key.startswith("corpus/")}


def test_random_circuits_are_pinned(pinned):
    assert {key: circuit_digest(formula_for(key)) for key in KEYS if key.startswith("random/")} == \
        {key: digest for key, digest in pinned.items() if key.startswith("random/")}


if __name__ == "__main__":
    digests = {key: circuit_digest(formula_for(key)) for key in KEYS}
    FIXTURE.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(digests)} entries to {FIXTURE}")
