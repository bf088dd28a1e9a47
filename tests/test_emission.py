"""Pinned emission: the chaos report and trace of every corpus file, in both modes.

The chaos amplifier runs on pure-Python floats, so its JSON report and CSV
trace are the same bytes on every machine. The fixture holds their sha256
digests, with the report's `timing` key removed and `input` set to the file
name. Regenerate it only when an output is meant to change:

    PYTHONPATH=src python tests/test_emission.py

The self-check text of the corpus is pinned here too, as one digest held in
this file, since the fixture's keys are the corpus files and modes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from qsatlab.pipeline import MODES, PipelineConfig, render, run_pipeline, self_check

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "emission_digests.json"
CASES = [(path.name, mode) for path in sorted(CORPUS_DIR.glob("*.cnf")) for mode in MODES]
# sha256 of self_check(CORPUS_DIR).to_text(): 51 lines, 44/44 in every cell.
SELF_CHECK_SHA256 = "f370f21d91e3fc03d171907a02ba9ed2b366582436f84a478622a235dd1ff9b7"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def emission_digests(name: str, mode: str) -> dict[str, str]:
    """sha256 of the chaos report (without timing, input reduced to the file
    name) and of its CSV trace."""
    report = run_pipeline(PipelineConfig(input_path=str(CORPUS_DIR / name), mode=mode, amplifier="chaos"))
    doc = json.loads(render(report, "json"))
    del doc["timing"]
    doc["input"] = name
    return {
        "json": _sha256(json.dumps(doc, sort_keys=True, indent=2) + "\n"),
        "csv": _sha256(render(report, "csv")),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_corpus(pinned):
    assert len(CASES) == 88
    assert sorted(pinned) == sorted(f"{name}/{mode}" for name, mode in CASES)


@pytest.mark.parametrize("name, mode", CASES)
def test_chaos_emission_is_pinned(pinned, name, mode):
    assert emission_digests(name, mode) == pinned[f"{name}/{mode}"]


def test_self_check_text_is_pinned():
    assert _sha256(self_check(CORPUS_DIR).to_text()) == SELF_CHECK_SHA256


if __name__ == "__main__":
    digests = {f"{name}/{mode}": emission_digests(name, mode) for name, mode in CASES}
    FIXTURE.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(digests)} entries to {FIXTURE}")
