"""Polygonal tessellations of the unit square.

Vertices are rows of an (nv, 2) float array; a cell is an index array listing
its vertices in counter-clockwise order.  Generators produce conforming meshes
(every internal edge shared by exactly two cells, traversed in opposite
directions) whose cell areas sum to one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Voronoi, cKDTree

from .errors import MeshError

log = logging.getLogger(__name__)

BOUNDARY_SNAP_TOL = 1e-9    # snapping band around the square sides
VERTEX_DEDUP_TOL = 1e-12    # absolute merge tolerance when stitching Voronoi cells
AREA_SUM_TOL = 1e-10
CONGRUENCE_TOL = 1e-9       # vertex offsets from the centroid, relative to h_E

CARTESIAN_LADDER = (8, 16, 32, 64, 128)
VORONOI_LADDER = (64, 256, 1024, 4096)
# mesh family -> its default refinement ladder (`generate_mesh` resolutions)
FAMILIES = {"cartesian": CARTESIAN_LADDER, "voronoi": VORONOI_LADDER}
DEFAULT_LLOYD_ITERS = 100


class OrientationError(MeshError):
    """A polygon is degenerate or not counter-clockwise."""


class MeshFormatError(MeshError):
    """Malformed mesh text stream; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class NonConformingMeshError(MeshError):
    pass


def cell_geometry(verts):
    """Area, centroid and diameter of one CCW polygon.

    Uses the shoelace formula for the area, the area-weighted polygon centroid,
    and the maximum pairwise vertex distance for the diameter.  Raises
    :class:`OrientationError` if the signed area is not positive.
    """
    v = np.asarray(verts, dtype=float)
    if v.ndim != 2 or v.shape[0] < 3 or v.shape[1] != 2:
        raise OrientationError(f"polygon needs at least 3 planar vertices, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise OrientationError("polygon has non-finite coordinates")
    x, y = v[:, 0], v[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    area = 0.5 * cross.sum()
    if area <= 0.0:
        raise OrientationError(f"polygon is not CCW (signed area {area:g})")
    cx = ((x + xn) * cross).sum() / (6.0 * area)
    cy = ((y + yn) * cross).sum() / (6.0 * area)
    d2 = ((v[:, None, :] - v[None, :, :]) ** 2).sum(axis=2)
    diameter = float(np.sqrt(d2.max()))
    return float(area), np.array([cx, cy]), diameter


@dataclass(frozen=True)
class CellGeometry:
    """Geometry of a single polygonal cell: CCW vertices, |E|, centroid, h_E."""

    verts: np.ndarray
    area: float
    centroid: np.ndarray
    diameter: float

    @classmethod
    def from_vertices(cls, verts):
        v = np.array(verts, dtype=float)
        area, centroid, diameter = cell_geometry(v)
        v.setflags(write=False)
        centroid.setflags(write=False)
        return cls(v, area, centroid, diameter)

    @property
    def n_vertices(self):
        return self.verts.shape[0]


class PolyMesh:
    """A conforming polygonal tessellation of the unit square.

    Instances come from the constructor, the generators or :func:`read_mesh`
    and are treated as immutable afterwards; they are safe to share across
    workers.  The constructor is where polygons are checked: a cell with an
    out-of-range or repeated consecutive vertex, or one that is not a CCW
    polygon of positive area, raises a `MeshError` naming the cell.
    `congruent_cells` is true when every cell is a translate of cell 0,
    vertex by vertex (the cartesian family, however it was built).
    """

    def __init__(self, vertices, cells, *, family="custom"):
        self.vertices = np.array(vertices, dtype=float)
        self.vertices.setflags(write=False)
        self.cells = [np.array(c, dtype=int) for c in cells]
        self.family = family

        nv = self.vertices.shape[0]
        areas, cents, diams = [], [], []
        try:
            for ci, cell in enumerate(self.cells):
                if cell.size and (cell.min() < 0 or cell.max() >= nv):
                    raise MeshError("vertex index out of range")
                if len(cell) >= 2 and np.any(cell == np.roll(cell, -1)):
                    raise MeshError("repeated consecutive vertex")
                a, c, d = cell_geometry(self.vertices[cell])
                areas.append(a)
                cents.append(c)
                diams.append(d)
        except MeshError as exc:
            exc.cell = ci
            raise
        self.cell_areas = np.array(areas)
        self.cell_centroids = np.array(cents).reshape(-1, 2)
        self.cell_diameters = np.array(diams)
        self.h_max = float(self.cell_diameters.max()) if self.cells else 0.0
        self.congruent_cells = self._all_translates_of_first()

        self._build_edges()
        self._flag_boundary()

    # -- construction helpers -------------------------------------------------

    def _all_translates_of_first(self):
        if not self.cells or any(len(c) != len(self.cells[0]) for c in self.cells):
            return False
        offsets = self.vertices[np.array(self.cells)] - self.cell_centroids[:, None, :]
        tol = CONGRUENCE_TOL * max(self.cell_diameters[0], 1e-300)
        return bool(np.abs(offsets - offsets[0]).max() <= tol)

    def _build_edges(self):
        edge_index = {}
        edges = []
        edge_cells = []
        for ci, cell in enumerate(self.cells):
            m = len(cell)
            for j in range(m):
                a, b = int(cell[j]), int(cell[(j + 1) % m])
                key = (a, b) if a < b else (b, a)
                direction = 1 if a < b else -1
                eid = edge_index.get(key)
                if eid is None:
                    eid = len(edges)
                    edge_index[key] = eid
                    edges.append(key)
                    edge_cells.append([])
                edge_cells[eid].append((ci, direction))
        self.edges = np.array(edges, dtype=int).reshape(-1, 2)
        self.edge_index = edge_index
        self.edge_cells = edge_cells
        self.boundary_edge_flags = np.array(
            [len(adj) == 1 for adj in edge_cells], dtype=bool
        )

    def _flag_boundary(self):
        flags = np.zeros(self.vertices.shape[0], dtype=bool)
        for eid, is_b in enumerate(self.boundary_edge_flags):
            if is_b:
                flags[self.edges[eid]] = True
        self.boundary_vertex_flags = flags

    # -- accessors -------------------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return self.edges.shape[0]

    def cell_geom(self, ci) -> CellGeometry:
        v = self.vertices[self.cells[ci]]
        v.setflags(write=False)
        return CellGeometry(v, float(self.cell_areas[ci]),
                            self.cell_centroids[ci], float(self.cell_diameters[ci]))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def generate_cartesian(n: int) -> PolyMesh:
    """Uniform n-by-n mesh of congruent square cells on the unit square."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ticks = np.arange(n + 1) / n
    X, Y = np.meshgrid(ticks, ticks)
    vertices = np.column_stack([X.ravel(), Y.ravel()])
    cells = []
    for j in range(n):
        for i in range(n):
            bl = j * (n + 1) + i
            cells.append([bl, bl + 1, bl + n + 2, bl + n + 1])
    return PolyMesh(vertices, cells, family="cartesian")


class SplitMix64:
    """SplitMix64 pseudo-random generator.

    State advances by the 64-bit odd constant 0x9E3779B97F4A7C15; each output
    is the finalized state (xor-shift / multiply mixing with the published
    constants).  Doubles are produced as (output >> 11) * 2**-53, uniform on
    [0, 1).  The sequence is fully determined by the 64-bit seed, which makes
    generated meshes reproducible anywhere this recurrence is implemented.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = int(seed) & self._MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53


def _draw_seeds(rng: SplitMix64, n: int) -> np.ndarray:
    """n seed points strictly inside the unit square.

    Coordinates within 1e-9 of a side are rejected and redrawn so that every
    seed has a well-separated mirror image.
    """
    pts = np.empty((n, 2))
    for i in range(n):
        for d in range(2):
            c = rng.next_float()
            while c < 1e-9 or c > 1.0 - 1e-9:
                c = rng.next_float()
            pts[i, d] = c
    return pts


def _mirror(points):
    p = points
    left = np.column_stack([-p[:, 0], p[:, 1]])
    right = np.column_stack([2.0 - p[:, 0], p[:, 1]])
    bottom = np.column_stack([p[:, 0], -p[:, 1]])
    top = np.column_stack([p[:, 0], 2.0 - p[:, 1]])
    return np.vstack([p, left, right, bottom, top])


def _box_voronoi(points):
    """Voronoi regions of `points` clipped to the unit square.

    Reflecting every seed across the four sides makes each original region
    finite with its outer edges lying exactly on the perpendicular bisector
    between a seed and its mirror, i.e. on the square sides.  Returns the
    shared vertex array and one CCW index list per seed.
    """
    n = points.shape[0]
    vor = Voronoi(_mirror(points))
    regions = []
    for i in range(n):
        reg = vor.regions[vor.point_region[i]]
        if len(reg) < 3 or -1 in reg:
            raise MeshError("degenerate Voronoi region (coincident seeds?)")
        regions.append(reg)
    return vor.vertices, regions


def _region_centroids(vertices, regions):
    lens = np.fromiter((len(r) for r in regions), dtype=int, count=len(regions))
    flat = np.fromiter((i for r in regions for i in r), dtype=int, count=lens.sum())
    starts = np.concatenate([[0], np.cumsum(lens)[:-1]])
    ends = np.cumsum(lens) - 1
    nxt = np.arange(flat.size) + 1
    nxt[ends] = starts
    p = vertices[flat]
    q = vertices[flat[nxt]]
    cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
    area = 0.5 * np.add.reduceat(cross, starts)
    cx = np.add.reduceat((p[:, 0] + q[:, 0]) * cross, starts) / (6.0 * area)
    cy = np.add.reduceat((p[:, 1] + q[:, 1]) * cross, starts) / (6.0 * area)
    return np.column_stack([cx, cy])


def generate_voronoi(n_cells: int, rng_seed: int = 0,
                     lloyd_iters: int = DEFAULT_LLOYD_ITERS) -> PolyMesh:
    """Lloyd-relaxed centroidal Voronoi tessellation of the unit square.

    Parameters
    ----------
    n_cells : number of Voronoi cells (= number of seed points).
    rng_seed : seed of the SplitMix64 generator that draws the initial seeds.
    lloyd_iters : number of Lloyd iterations (each moves every seed to the
        centroid of its clipped Voronoi region).

    The result is deterministic for fixed inputs.  Coincident seeds are
    perturbed by redrawing and reported on the module logger.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    if lloyd_iters < 0:
        raise ValueError("lloyd_iters must be >= 0")
    rng = SplitMix64(rng_seed)
    seeds = _draw_seeds(rng, n_cells)

    for attempt in range(16):
        if n_cells == 1:
            break
        dmin = cKDTree(seeds).query(seeds, k=2)[0][:, 1].min()
        if dmin > 1e-9:
            break
        log.warning("voronoi seeds nearly coincident (min distance %.3e), redrawing", dmin)
        seeds = _draw_seeds(rng, n_cells)
    else:
        raise MeshError("could not draw distinct Voronoi seeds")

    for _ in range(lloyd_iters):
        verts, regions = _box_voronoi(seeds)
        seeds = _region_centroids(verts, regions)

    verts, regions = _box_voronoi(seeds)
    return _stitch_regions(verts, regions)


def _stitch_regions(vor_vertices, regions):
    used = sorted({i for r in regions for i in r})
    remap = {old: new for new, old in enumerate(used)}
    verts = vor_vertices[used].copy()

    # boundary vertices land within roundoff of the sides; snap them exactly
    for target in (0.0, 1.0):
        near = np.abs(verts - target) <= BOUNDARY_SNAP_TOL
        verts[near] = target

    # merge vertices closer than the stitching tolerance (degenerate ridges)
    parent = np.arange(len(verts))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in sorted(cKDTree(verts).query_pairs(VERTEX_DEDUP_TOL)):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    roots = np.array([find(i) for i in range(len(verts))])
    kept = np.unique(roots)
    compact = {r: k for k, r in enumerate(kept)}
    final_verts = verts[kept]

    cells = []
    for reg in regions:
        ids = [compact[roots[remap[i]]] for i in reg]
        dedup = [v for j, v in enumerate(ids) if v != ids[(j + 1) % len(ids)]]
        if len(dedup) < 3:
            raise MeshError("Voronoi cell collapsed during vertex merging")
        if len(set(dedup)) != len(dedup):
            raise MeshError("Voronoi cell pinched during vertex merging")
        v = final_verts[dedup]
        ar = 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        if ar < 0:
            dedup.reverse()
        cells.append(dedup)

    mesh = PolyMesh(final_verts, cells, family="voronoi")
    _check_convex(mesh)
    return mesh


def _check_convex(mesh):
    for ci, cell in enumerate(mesh.cells):
        v = mesh.vertices[cell]
        a = np.roll(v, -1, axis=0) - v
        b = np.roll(a, -1, axis=0)
        cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        if np.any(cross < -1e-9 * mesh.cell_diameters[ci] ** 2):
            raise MeshError(f"Voronoi cell {ci} is not convex")


def generate_mesh(family: str, n: int, seed: int = 0,
                  lloyd_iters: int = DEFAULT_LLOYD_ITERS) -> PolyMesh:
    """One mesh of a family in FAMILIES.

    n is the cells per side (cartesian) or the cell count (voronoi); the seed
    and the Lloyd iteration count only apply to the voronoi family.
    """
    if family == "cartesian":
        return generate_cartesian(n)
    if family == "voronoi":
        return generate_voronoi(n, seed, lloyd_iters)
    raise ValueError(f"unknown mesh family {family!r}, expected one of "
                     f"{list(FAMILIES)}")


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def write_mesh(mesh: PolyMesh, stream) -> None:
    """Write the whitespace-separated mesh format.

    Line 1 is the header ``polymesh 1``, line 2 holds vertex and cell counts,
    followed by one ``x y`` line per vertex and one ``m i_0 ... i_{m-1}`` line
    per cell (CCW, 0-based).  Coordinates carry 17 significant digits so they
    round-trip exactly.
    """
    stream.write("polymesh 1\n")
    stream.write(f"{mesh.n_vertices} {mesh.n_cells}\n")
    for x, y in mesh.vertices:
        stream.write(f"{x:.17g} {y:.17g}\n")
    for cell in mesh.cells:
        stream.write(str(len(cell)) + " " + " ".join(str(int(i)) for i in cell) + "\n")


def read_mesh(stream) -> PolyMesh:
    """Parse the mesh text format; inverse of :func:`write_mesh`.

    Raises :class:`MeshFormatError` with a line number on malformed counts,
    trailing content, or a cell the :class:`PolyMesh` constructor rejects
    (out-of-range indices, non-CCW cells).
    """
    lines = []
    for lineno, raw in enumerate(stream, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        lines.append((lineno, s))
    it = iter(lines)

    def next_line(what):
        try:
            return next(it)
        except StopIteration:
            raise MeshFormatError(f"unexpected end of stream, expected {what}") from None

    lineno, header = next_line("header")
    if header.split() != ["polymesh", "1"]:
        raise MeshFormatError(f"bad header {header!r}, expected 'polymesh 1'", lineno)
    lineno, counts = next_line("counts")
    parts = counts.split()
    if len(parts) != 2:
        raise MeshFormatError("expected '<nv> <nc>'", lineno)
    try:
        nv, nc = int(parts[0]), int(parts[1])
    except ValueError:
        raise MeshFormatError("vertex/cell counts must be integers", lineno) from None
    if nv < 3 or nc < 1:
        raise MeshFormatError(f"implausible counts nv={nv} nc={nc}", lineno)

    verts = np.empty((nv, 2))
    for i in range(nv):
        lineno, s = next_line(f"vertex {i}")
        parts = s.split()
        if len(parts) != 2:
            raise MeshFormatError(f"expected 'x y' for vertex {i}", lineno)
        try:
            verts[i] = float(parts[0]), float(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad coordinate for vertex {i}", lineno) from None

    cells, cell_lines = [], []
    for ci in range(nc):
        lineno, s = next_line(f"cell {ci}")
        parts = s.split()
        try:
            ids = [int(p) for p in parts]
        except ValueError:
            raise MeshFormatError(f"bad index in cell {ci}", lineno) from None
        if not ids or ids[0] != len(ids) - 1:
            raise MeshFormatError(f"cell {ci}: count prefix does not match", lineno)
        cells.append(ids[1:])
        cell_lines.append(lineno)

    trailing = next(it, None)
    if trailing is not None:
        raise MeshFormatError("trailing content after last cell", trailing[0])
    try:
        return PolyMesh(verts, cells, family="imported")
    except MeshError as exc:
        raise MeshFormatError(str(exc), cell_lines[exc.cell]) from None


def save_mesh(mesh: PolyMesh, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_mesh(mesh, fh)


def load_mesh(path) -> PolyMesh:
    with open(path, "r", encoding="utf-8") as fh:
        return read_mesh(fh)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class Violation:
    kind: str         # "conformity" | "boundary" | "partition"
    where: str
    detail: str


@dataclass
class MeshValidationReport:
    violations: list = field(default_factory=list)
    area_sum: float = 0.0
    min_edge_ratio: float = float("inf")       # min over cells of min edge / h_E
    min_inradius_ratio: float = float("inf")   # min over cells of inradius estimate / h_E

    @property
    def ok(self):
        return not self.violations


def validate_mesh(mesh: PolyMesh) -> MeshValidationReport:
    """Regularity indicators and the checks across cells; collects violations, never raises.

    Each cell's own polygon was already checked by the `PolyMesh` constructor.
    """
    rep = MeshValidationReport()

    for ci, cell in enumerate(mesh.cells):
        v = mesh.vertices[cell]
        h = mesh.cell_diameters[ci]
        edges = np.roll(v, -1, axis=0) - v
        elen = np.hypot(edges[:, 0], edges[:, 1])
        rep.min_edge_ratio = min(rep.min_edge_ratio, float(elen.min() / h))
        # distance from the centroid to each edge line, a crude inradius proxy
        c = mesh.cell_centroids[ci]
        rel = v - c
        dist = np.abs(edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]) / elen
        rep.min_inradius_ratio = min(rep.min_inradius_ratio, float(dist.min() / h))

    rep.violations.extend(edge_conformity_violations(mesh))

    on_boundary = (
        (np.abs(mesh.vertices) <= BOUNDARY_SNAP_TOL)
        | (np.abs(mesh.vertices - 1.0) <= BOUNDARY_SNAP_TOL)
    ).any(axis=1)
    mismatched = np.nonzero(on_boundary != mesh.boundary_vertex_flags)[0]
    for vi in mismatched:
        rep.violations.append(
            Violation("boundary", f"vertex {vi}",
                      "boundary flag disagrees with position on the unit square"))

    rep.area_sum = float(mesh.cell_areas.sum())
    if abs(rep.area_sum - 1.0) > AREA_SUM_TOL:
        rep.violations.append(
            Violation("partition", "mesh", f"cell areas sum to {rep.area_sum!r}, not 1"))
    return rep


def edge_conformity_violations(mesh: PolyMesh):
    """Yield a conformity violation for each edge that breaks the mesh contract.

    An edge must be shared by at most two cells, traversed in opposite
    directions by two cells, and lie on a side of the unit square when only
    one cell has it.
    """
    for eid, adj in enumerate(mesh.edge_cells):
        a, b = mesh.edges[eid]
        if len(adj) > 2:
            detail = f"shared by {len(adj)} cells"
        elif len(adj) == 2:
            if adj[0][1] != adj[1][1]:
                continue
            detail = "traversed in the same direction by both cells"
        elif _on_square_side(mesh.vertices[a], mesh.vertices[b]):
            continue
        else:
            detail = "single-cell edge not on the square boundary"
        yield Violation("conformity", f"edge ({a},{b})", detail)


def _on_square_side(a, b):
    for coord in (0, 1):
        for side in (0.0, 1.0):
            if (abs(a[coord] - side) <= BOUNDARY_SNAP_TOL
                    and abs(b[coord] - side) <= BOUNDARY_SNAP_TOL):
                return True
    return False
