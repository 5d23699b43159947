"""Run one-line mutants of polyvem against the tier-1 suite.

    python3 tools/mutants.py

Each mutant replaces a text that occurs exactly once in its file, within one
line.  For each mutant of MUTANTS the checkout (without .git and caches) is
copied to a temporary directory, the replacement is made there, and tier-1
runs on the copy, stopped at the first failure.  A mutant is killed when
pytest reports a failed test (exit code 1 and a FAILED or ERROR line; the
report names that test) and survives when the whole suite passes.  Any other
outcome (pytest interrupted, an internal or usage error, no test collected,
a copy that does not import its own polyvem) is reported as an error, not as
a kill.  A surviving mutant is a missing test or code that nothing needs: add
the test or remove the code, and never drop the mutant from the list to hide
it.  `tests/test_mutants.py` checks in tier-1 that every mutant applies,
without running any.  The exit code is 1 unless every mutant is killed.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tier-1 as ROADMAP.md states it, stopped at the first failure, without the
# check that every mutant applies, which any applied mutant fails
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_out", "out_paper", "*.egg-info")
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the root of the checkout
    old: str
    new: str


MUTANTS = [
    Mutant("gradient energy unsymmetrized", "src/polyvem/local.py",
           "return 0.5 * (A + _t(A))", "return A"),
    Mutant("SPD check always passes", "src/polyvem/assembly.py",
           "spd_ok=bool(np.all(lu.U.diagonal() > 0.0)),", "spd_ok=True,"),
    Mutant("RANK_TOL 1e-9 -> 2e-9", "src/polyvem/local.py",
           "RANK_TOL = 1e-9", "RANK_TOL = 2e-9"),
    Mutant("Gauss-Jacobi without its Newton step", "src/polyvem/basis.py",
           "x = x - p / d", "x = x"),
    Mutant("RESIDUAL_RTOL 1e-10 -> 1e-4", "src/polyvem/assembly.py",
           "RESIDUAL_RTOL = 1e-10", "RESIDUAL_RTOL = 1e-4"),
    Mutant("MAX_ELL_BUMPS 4 -> 5", "src/polyvem/local.py",
           "MAX_ELL_BUMPS = 4", "MAX_ELL_BUMPS = 5"),
    Mutant("CONGRUENCE_TOL 1e-9 -> 1e-6", "src/polyvem/mesh.py",
           "CONGRUENCE_TOL = 1e-9 ", "CONGRUENCE_TOL = 1e-6 "),
    Mutant("moments recovered up to degree k+ell", "src/polyvem/local.py",
           "n_top = dim_poly(max(ctx.k - 1, ctx.grad_degree - 1))",
           "n_top = dim_poly(ctx.k + ctx.ell)"),
    Mutant("stabilization without sup|K|", "src/polyvem/local.py",
           "return a_pi, K.sup_norm() * (_t(Mc) @ Mc)",
           "return a_pi, K.sup_norm() ** 0 * (_t(Mc) @ Mc)"),
    Mutant("boundary values added to the load", "src/polyvem/assembly.py",
           "b_f -= np.bincount(", "b_f += np.bincount("),
    Mutant("a_ff kept alive through the SPD check", "src/polyvem/assembly.py",
           "del reduced, A", "del reduced"),
    Mutant("MemoryError of the solve not mapped", "src/polyvem/assembly.py",
           "except MemoryError:", "except ():"),
    Mutant("LinAlgError of the element kernels not mapped", "src/polyvem/local.py",
           "except (PolyvemError, np.linalg.LinAlgError) as exc:",
           "except PolyvemError as exc:"),
    Mutant("a kept error holds the error it replaced", "src/polyvem/study.py",
           "exc.__context__ = None", "pass"),
    Mutant("rectangle rule with k+4 points per direction", "src/polyvem/local.py",
           '("square", k + 5)', '("square", k + 4)'),
    Mutant("rectangle strip count rounded down", "src/polyvem/local.py",
           "np.ceil(sides[:, 1] / max_y_extent)", "np.floor(sides[:, 1] / max_y_extent)"),
    Mutant("rectangles of one side parity only", "src/polyvem/mesh.py",
           "(even & odd[:, ::-1]).any(axis=1).all()", "(even & odd[:, ::-1])[:, 1].all()"),
    Mutant("rectangle sides compared with a tolerance", "src/polyvem/mesh.py",
           "same = verts == np.roll(verts, -1, axis=1)",
           "same = np.isclose(verts, np.roll(verts, -1, axis=1))"),
    Mutant("rectangle boxes left writable", "src/polyvem/mesh.py",
           "flags, *(self.rectangles or ())):", "flags):"),
    Mutant("shared-pass failure recorded on the standard row only", "src/polyvem/study.py",
           "results = dict.fromkeys(METHODS, exc)", "results = dict.fromkeys(METHODS[:1], exc)"),
    Mutant("ratio average over every level, failed levels as zero", "src/polyvem/study.py",
           "sum(ratios) / len(ratios)",
           "sum(ratios) / len(result.series(family, order, Method.STANDARD))"),
    Mutant("every unit solved on its ladder's finest mesh", "src/polyvem/study.py",
           "ladders[family][level - 1]", "ladders[family][-1]"),
    Mutant("band cut refuses a cell with a straight corner", "src/polyvem/basis.py",
           "e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] >= 0.0",
           "e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0"),
    Mutant("band count rounded down", "src/polyvem/basis.py",
           "n = np.ceil((hi - lo) / max_y_extent)", "n = np.floor((hi - lo) / max_y_extent)"),
    Mutant("non-adjacent sides that only touch pass", "src/polyvem/mesh.py",
           "turn(ax, ay, bx, by, cx, cy) * turn(ax, ay, bx, by, dx, dy) <= 0",
           "turn(ax, ay, bx, by, cx, cy) * turn(ax, ay, bx, by, dx, dy) < 0"),
]


def mutated_text(root: Path, mutant: Mutant) -> str:
    """The mutant's file under `root` with its replacement made; raises
    ValueError unless the text occurs exactly once, within one line."""
    if "\n" in mutant.old + mutant.new or mutant.old == mutant.new:
        raise ValueError(f"{mutant.name}: not a one-line change")
    text = (root / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def verdict(returncode: int, stdout: str) -> tuple[str, str]:
    """(verdict, detail) of one tier-1 run from pytest's exit code and output:
    killed only on exit code 1 with a FAILED or ERROR line, whose test is the
    detail; survived on 0; an error on anything else."""
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if returncode == 0:
        return "survived", summary
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", stdout, re.MULTILINE)
    if returncode == 1 and failed:
        return "killed", failed[1]
    return "error", f"pytest exit code {returncode}: {summary}"


def run(mutant: Mutant) -> tuple[str, str, float]:
    """(verdict, detail, seconds) of tier-1 on a mutated copy of the checkout."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="polyvem-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        (copy / mutant.path).write_text(mutated_text(ROOT, mutant), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import polyvem; print(polyvem.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True)
        if where.returncode != 0 or not Path(where.stdout.strip()).is_relative_to(copy):
            found = where.stdout.strip() or where.stderr.strip()[-200:]
            seconds = time.perf_counter() - start
            return "error", f"the copy does not import its own polyvem: {found}", seconds
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    return *verdict(done.returncode, done.stdout), time.perf_counter() - start


def main() -> int:
    outcomes = []
    for mutant in MUTANTS:
        try:
            outcome, detail, seconds = run(mutant)
        except ValueError as exc:
            outcome, detail, seconds = "not applied", str(exc), 0.0
        except subprocess.TimeoutExpired:
            outcome, detail, seconds = "timed out", f"tier-1 ran past {TIMEOUT_S} s", TIMEOUT_S
        outcomes.append(outcome)
        print(f"{outcome:<11} {seconds:6.1f} s  {mutant.name}: {detail}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
