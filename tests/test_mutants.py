"""Every mutant of `tools/mutants.py` applies to the present sources: its text
occurs exactly once in its file, within one line.  No mutant is run here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_exactly_once(mutant):
    text = mutants.mutated_text(ROOT, mutant)
    assert text != (ROOT / mutant.path).read_text(encoding="utf-8")


def test_a_mutant_that_does_not_apply_is_refused(tmp_path):
    (tmp_path / "f.py").write_text("x = 1\nx = 1\n")
    for old, new in (("x = 1", "x = 2"), ("y = 1", "y = 2"), ("x = 1\n", "x = 2\n")):
        with pytest.raises(ValueError):
            mutants.mutated_text(tmp_path, mutants.Mutant("m", "f.py", old, new))


def test_only_a_failed_test_kills_a_mutant():
    failed = "FAILED tests/test_x.py::test_y - AssertionError\n1 failed, 3 passed\n"
    assert mutants.verdict(1, failed) == ("killed", "tests/test_x.py::test_y")
    assert mutants.verdict(0, "4 passed\n") == ("survived", "4 passed")
    assert mutants.verdict(1, "1 failed\n")[0] == "error"
    for code in (2, 3, 4, 5):   # interrupted, internal error, usage error, nothing collected
        assert mutants.verdict(code, failed)[0] == "error"
