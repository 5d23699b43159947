"""The failure taxonomy stays in one place and in step with its table: only
`errors.py` defines a `PolyvemError` subclass, and README's failure table
lists exactly those subclasses, each with its exit code."""

import importlib
import re
from pathlib import Path

from polyvem.errors import PolyvemError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyvem"
# a row of the failure table: | `Name` | exit code | raised when |
TABLE_ROW = re.compile(r"^\| `(\w+)`\s*\|\s*(\d+)\s*\|", re.MULTILINE)


def _package_errors() -> list:
    """Every `PolyvemError` subclass that a module of the package defines,
    with every module imported."""
    for path in PACKAGE.glob("*.py"):
        importlib.import_module(f"polyvem.{path.stem}" if path.stem != "__init__" else "polyvem")

    def subclasses(cls):
        return [c for sub in cls.__subclasses__() for c in (sub, *subclasses(sub))]

    return [cls for cls in subclasses(PolyvemError) if cls.__module__.startswith("polyvem.")]


def test_only_errors_py_defines_error_classes():
    assert [cls.__qualname__ for cls in _package_errors()
            if cls.__module__ != "polyvem.errors"] == []


def test_readme_failure_table_lists_every_error_with_its_exit_code():
    table = TABLE_ROW.findall((ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(table) == len({name for name, _ in table})
    assert {name: int(code) for name, code in table} == {
        cls.__name__: cls.exit_code for cls in _package_errors()}
