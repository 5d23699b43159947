"""Outside-in tracing of polyvem: spans recorded around calls into its layers.

Nothing in the package is edited.  `Tracer.install()` replaces each function
named in TRACED by a timing wrapper in *every* polyvem module namespace that
binds it: `from .basis import polygon_quadrature` makes a separate binding in
`local`, `study` and `assembly`, and each one is replaced.  Imports made at
call time (`ElementContext.__init__` re-imports `monomial_gram` from `basis`)
pick up the wrapper from the module attribute.  Functions left out of TRACED
are not wrapped; their time is self time of the traced caller.

A span is (name, parent span, start, end).  Spans are kept in memory in flat
arrays and written out once, at the end of the run (`save`).  A span's self
time is its duration minus the durations of its direct children; calls are
synchronous and single-threaded, so child intervals never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function, span name).  The span name is the per-layer bucket.
TRACED = [
    ("mesh", "generate_voronoi", "mesh.generate"),
    ("mesh", "generate_cartesian", "mesh.generate"),
    ("basis", "polygon_quadrature", "basis.quadrature"),
    ("basis", "monomial_gram", "basis.gram"),
    ("basis", "edge_rules", "basis.edge_rules"),
    ("local", "build_projection_pack", "local.pack"),
    ("local", "local_stiffness", "local.stiffness"),
    ("local", "local_load", "local.load"),
    ("assembly", "assemble", "assembly.assemble"),
    ("assembly", "build_dof_map", "assembly.dof_map"),
    ("assembly", "apply_dirichlet", "assembly.dirichlet"),
    ("assembly", "solve", "assembly.factor"),
    ("assembly", "stab_consistency_ratio", "study.ratio"),
    ("study", "energy_error", "study.error"),
    ("study", "emit_plot_data", "study.emit"),
    ("study", "solve_case", "study.harness"),
    ("study", "run_study", "study.harness"),
    ("cli", "main", "cli"),
]
SPAN_NAMES = sorted({name for _, _, name in TRACED})
COUNTERS = ("mesh.cells", "basis.quad_points", "local.ctx_built", "local.packs",
            "local.ell_bumps", "local.rank_failures", "assembly.cells",
            "assembly.cache_refs", "assembly.n_free", "assembly.nnz",
            "assembly.cg_fallbacks", "study.error_cells")
MODULES = ("mesh", "basis", "local", "assembly", "cases", "study", "cli")


class Tracer:
    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._saved = []          # (name ids, parents, t0, t1) per finished chunk
        self._patches = []        # (namespace, attribute, original)
        self._reset()

    def _reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self._ok_assembles = []   # span index of every assemble that returned
        self.counts = dict.fromkeys(COUNTERS, 0)

    # -- installation -------------------------------------------------------

    def install(self):
        import polyvem

        mods = {m: sys.modules[f"polyvem.{m}"] for m in MODULES}
        namespaces = [polyvem, *mods.values()]
        for mod, func, span in TRACED:
            original = getattr(mods[mod], func)
            wrapper = self._wrap(original, self._ids[span], _HOOKS.get(func))
            bound = 0
            for ns in namespaces:
                if ns.__dict__.get(func) is original:
                    self._patches.append((ns, func, original))
                    setattr(ns, func, wrapper)
                    bound += 1
            if not bound:
                raise RuntimeError(f"polyvem.{mod}.{func} is bound nowhere")
        ctx_cls = mods["local"].ElementContext
        init = ctx_cls.__init__
        counts = self

        @functools.wraps(init)
        def counted_init(ctx, *args, **kwargs):
            counts.counts["local.ctx_built"] += 1
            init(ctx, *args, **kwargs)

        self._patches.append((ctx_cls, "__init__", init))
        ctx_cls.__init__ = counted_init
        # every binding of a traced function must now be the wrapper
        originals = {id(orig) for _, _, orig in self._patches}
        for ns in namespaces:
            for attr, value in vars(ns).items():
                if id(value) in originals:
                    raise RuntimeError(f"{ns.__name__}.{attr} escaped tracing")

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, fn, sid, hook):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tr.t0)
            tr.name.append(sid)
            tr.parent.append(tr._stack[-1])
            tr.t1.append(0.0)
            tr._stack.append(idx)
            tr.t0.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tr.t1[idx] = perf_counter()
                tr._stack.pop()
                if hook is not None:
                    hook(tr, idx, args, kwargs, None, exc)
                raise
            tr.t1[idx] = perf_counter()
            tr._stack.pop()
            if hook is not None:
                hook(tr, idx, args, kwargs, out, None)
            return out

        return wrapper

    # -- aggregation --------------------------------------------------------

    def take(self) -> dict:
        """Aggregate the spans and counters since the last take, then clear.

        Returns {span name: {"calls", "incl_s", "self_s"}} plus "counts",
        which includes the cells built inside assemblies that returned.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.t1, dtype=np.float64) - np.frombuffer(self.t0, dtype=np.float64)
        n = dur.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child[:n]
        out = {}
        for sname, sid in self._ids.items():
            sel = name == sid
            out[sname] = {"calls": int(sel.sum()), "incl_s": float(dur[sel].sum()),
                          "self_s": float(own[sel].sum())}
        # packs built inside an assemble that returned: the cells the
        # congruent-cell cache did not serve (plus its one reference cell)
        ok = np.zeros(n, dtype=bool)
        ok[np.asarray(self._ok_assembles, dtype=np.int64)] = True
        pack_id = self._ids["local.pack"]
        in_ok = np.zeros(n, dtype=bool)
        in_ok[has_parent] = ok[parent[has_parent]]
        counts = dict(self.counts)
        counts["assembly.cells_built"] = int((in_ok & (name == pack_id)).sum())
        out["counts"] = counts
        self._saved.append((self.name, self.parent, self.t0, self.t1))
        self._reset()
        return out

    def save(self, path):
        """Write every span recorded so far (np.savez_compressed).

        `take` number `chunk` (one per operation or set-up build) is the
        identifier the spans of one operation share; `parent` indexes the
        concatenated arrays, -1 for a top-level span.
        """
        chunks = self._saved + [(self.name, self.parent, self.t0, self.t1)]
        names, parents, t0, t1, ids = [], [], [], [], []
        offset = 0
        for i, (n, p, a, b) in enumerate(chunks):
            p = np.frombuffer(p, dtype=np.int32).astype(np.int64)
            parents.append(np.where(p >= 0, p + offset, -1))
            names.append(np.frombuffer(n, dtype=np.int32))
            t0.append(np.frombuffer(a, dtype=np.float64))
            t1.append(np.frombuffer(b, dtype=np.float64))
            ids.append(np.full(p.size, i, dtype=np.int32))
            offset += p.size
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES),
                            name=np.concatenate(names), parent=np.concatenate(parents),
                            t0=np.concatenate(t0), t1=np.concatenate(t1),
                            chunk=np.concatenate(ids))


# -- counters read from arguments and results, at the layer boundary --------

def _generate(tr, idx, args, kwargs, out, exc):
    if out is not None:
        tr.counts["mesh.cells"] += out.n_cells


def _quadrature(tr, idx, args, kwargs, out, exc):
    if out is not None:
        tr.counts["basis.quad_points"] += out.weights.size


def _pack(tr, idx, args, kwargs, out, exc):
    if out is not None:
        from polyvem.local import Method, min_ell

        tr.counts["local.packs"] += 1
        method = args[2] if len(args) > 2 else kwargs["method"]
        if method is Method.E2VEM:
            tr.counts["local.ell_bumps"] += out.ell - min_ell(out.k, out.layout.n_vertices)
    elif type(exc).__name__ == "StabilizationFreeRankError":
        tr.counts["local.rank_failures"] += 1


def _stiffness(tr, idx, args, kwargs, out, exc):
    if exc is not None and type(exc).__name__ == "StabilizationFreeRankError":
        tr.counts["local.rank_failures"] += 1


def _assemble(tr, idx, args, kwargs, out, exc):
    if out is None:
        return
    mesh = args[0]
    K = args[3] if len(args) > 3 else kwargs["K"]
    tr._ok_assembles.append(idx)
    tr.counts["assembly.cells"] += mesh.n_cells
    # assemble builds one reference cell for its congruent-cell cache
    tr.counts["assembly.cache_refs"] += int(bool(mesh.congruent_cells and K.constant))


def _dirichlet(tr, idx, args, kwargs, out, exc):
    if out is not None:
        tr.counts["assembly.n_free"] += int(out.free_dofs.size)
        tr.counts["assembly.nnz"] += int(out.a_ff.nnz)


def _solve(tr, idx, args, kwargs, out, exc):
    if out is not None and out.solver == "cg":
        tr.counts["assembly.cg_fallbacks"] += 1


def _error(tr, idx, args, kwargs, out, exc):
    if out is not None:
        tr.counts["study.error_cells"] += args[0].n_cells


_HOOKS = {
    "generate_voronoi": _generate,
    "generate_cartesian": _generate,
    "polygon_quadrature": _quadrature,
    "build_projection_pack": _pack,
    "local_stiffness": _stiffness,
    "assemble": _assemble,
    "apply_dirichlet": _dirichlet,
    "solve": _solve,
    "energy_error": _error,
}
