"""Under the repository's pytest configuration a failing hypothesis property
is reported as a failure, and the session goes on to the tests after it.

`pyproject.toml` turns every DeprecationWarning into an error.  When a
property fails, hypothesis imports libcst to suggest a patch for it, and
libcst warns on import that `mypy_extensions.TypedDict` is deprecated.
Raised inside pytest's report hook, that warning ended the whole session
with an INTERNALERROR, so the configuration ignores that one warning.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_a_failing_property(n):
    assert n != n


def test_a_later_test():
    pass
"""


def test_a_failing_property_leaves_the_session_running(tmp_path):
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert run.returncode == 1 and "1 failed, 1 passed" in out, out
