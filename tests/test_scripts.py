"""The experiment scripts run end to end on the first ladder level."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(script, out):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           "--levels", "1", "-o", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_run_convergence_first_level(tmp_path):
    stdout = _run("run_convergence.py", tmp_path)
    for case_id in ("tc1", "tc2"):
        assert f"== {case_id} ==" in stdout
        with open(tmp_path / case_id / "study_rows.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 2 families x 2 orders x 2 methods, one level each
        assert len(rows) == 8
        assert (tmp_path / case_id / "summary.json").exists()


def test_reproduce_tables_first_level(tmp_path):
    _run("reproduce_tables.py", tmp_path)
    with open(tmp_path / "ratio_tables.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 8
    assert all(float(r[3]) > 0.0 for r in rows[1:])
