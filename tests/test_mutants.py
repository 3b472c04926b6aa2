"""tests/mutants.py builds a valid mutant set for every vbx module."""

from pathlib import Path

import pytest

from mutants import mutants

SRC = Path(__file__).resolve().parents[1] / "src" / "vbx"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_mutant_of_every_module_compiles(path):
    mutants(path)  # compiles each mutant, raising SyntaxError on an invalid one


def test_a_dropped_not_keeps_the_parenthesis_of_its_operand():
    src = (SRC / "coords.py").read_bytes()
    dropped = [m.apply(src).splitlines()[m.line - 1].strip() for m in mutants(SRC / "coords.py")
               if m.function == "Box.contains" and m.old.startswith("not")]
    assert dropped == [b"if (a < v < b):"]
