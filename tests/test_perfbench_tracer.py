"""The benchmark's tracer wraps polyvem functions by name; guard those names.

`perfbench/run.py --trace 1` installs `perfbench/tracer.py`, which fails when
a traced function is renamed, deleted or bound where it cannot be wrapped.
"""

import importlib.util
from pathlib import Path

import polyvem
import polyvem.cli  # noqa: F401  (the tracer wraps cli.main)
from polyvem.cases import testcase as get_case
from polyvem.local import Method
from polyvem.mesh import generate_cartesian
from polyvem.study import solve_case

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    originals = {name: getattr(polyvem, name) for name in
                 ("assemble", "build_projection_pack", "local_stiffness", "local_load")}
    tr = tracer.Tracer()
    try:
        tr.install()
        assert polyvem.assemble is not originals["assemble"]
        mesh = generate_cartesian(2)
        for method in (Method.STANDARD, Method.E2VEM):
            solve_case(mesh, 2, method, get_case("tc1"))
        take = tr.take()
    finally:
        tr.uninstall()
    for name, fn in originals.items():
        assert getattr(polyvem, name) is fn
    assert take["assembly.assemble"]["calls"] == 2
    assert take["local.pack"]["calls"] >= 2
    assert take["counts"]["local.rank_failures"] == 0
    assert take["counts"]["assembly.n_free"] > 0
