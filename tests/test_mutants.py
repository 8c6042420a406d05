"""The mutation table of ``scripts/mutants.py`` stays applicable: each snippet occurs once in its file.

Running the mutants themselves takes minutes, so CI does that in a weekly job; this keeps a refactor
from leaving a row behind until then.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_ids_are_unique():
    ids = [m.id for m in mutants.MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.id for m in mutants.MUTANTS])
def test_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "psdparam" / mutant.file).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement not in ("", mutant.snippet)
