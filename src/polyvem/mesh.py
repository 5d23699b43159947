"""Polygonal tessellations of the unit square.

Vertices are rows of an (nv, 2) float array; a cell lists its vertex indices
in counter-clockwise order.  A mesh stores its cells flat: the indices of
every cell concatenated in cell order, with the offset of each cell's run.
Generators produce conforming meshes (every internal edge shared by exactly
two cells, traversed in opposite directions) whose cell areas sum to one.  A
lone polygon is a one-cell mesh: `PolyMesh(v, [range(len(v))]).cell_geom([0])`
checks and measures it as the cells of any mesh are, a one-cell stack.

Only Voronoi generation needs qhull and the KD-tree: `_triangulate` and
`_stitch_regions` import `scipy.spatial` when called, so a cartesian run or
one that reads its mesh from a file never loads it (nor `scipy.special`,
which `scipy.spatial` imports).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import MeshError

BOUNDARY_SNAP_TOL = 1e-9    # snapping band around the square sides
SEED_SIDE_GAP = 1e-6        # initial seeds are drawn at least this far from every side
DELAUNAY_TOL = 1e-12        # locally Delaunay test of a dual edge, relative to circumcenter roundoff
VERTEX_DEDUP_TOL = 1e-12    # absolute merge tolerance when stitching Voronoi cells
AREA_SUM_TOL = 1e-10
CONGRUENCE_TOL = 1e-9       # vertex offsets from the centroid, relative to h_E

CARTESIAN_LADDER = (8, 16, 32, 64, 128)
VORONOI_LADDER = (64, 256, 1024, 4096)
# mesh family -> its default refinement ladder (`generate_mesh` resolutions)
FAMILIES = {"cartesian": CARTESIAN_LADDER, "voronoi": VORONOI_LADDER}
DEFAULT_LLOYD_ITERS = 100


def _next_vertex(starts):
    """Position of the next vertex of each vertex of the polygon runs
    `starts[i]:starts[i+1]` of a flat vertex list, wrapping to the run's
    first vertex; a run may be empty."""
    nxt = np.arange(1, starts[-1] + 1)
    runs = starts[1:] > starts[:-1]
    nxt[starts[1:][runs] - 1] = starts[:-1][runs]
    return nxt


def _meeting_sides(x, y):
    """The first pair (i, j), i < j, of non-adjacent sides that intersect or
    touch in each of g polygons of m vertices, x and y (m, g), side i
    running from vertex i to vertex i+1; (-1, -1) for a simple polygon.

    Two segments meet when neither lies strictly on one side of the other's
    line and their bounding boxes overlap (which settles collinear ones)."""
    m = x.shape[0]
    i, j = np.triu_indices(m, 2)
    i, j = i[j - i < m - 1], j[j - i < m - 1]        # side m-1 is adjacent to side 0
    x1, y1 = np.roll(x, -1, axis=0), np.roll(y, -1, axis=0)
    # side i runs from a to b, side j from c to d
    ax, ay, bx, by = x[i], y[i], x1[i], y1[i]
    cx, cy, dx, dy = x[j], y[j], x1[j], y1[j]

    def turn(px, py, qx, qy, rx, ry):
        """The sign of the turn p -> q -> r: on which side of line pq r lies."""
        return np.sign((qx - px) * (ry - py) - (qy - py) * (rx - px))

    meet = ((turn(ax, ay, bx, by, cx, cy) * turn(ax, ay, bx, by, dx, dy) <= 0)
            & (turn(cx, cy, dx, dy, ax, ay) * turn(cx, cy, dx, dy, bx, by) <= 0)
            & (np.minimum(ax, bx) <= np.maximum(cx, dx))
            & (np.minimum(cx, dx) <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= np.maximum(cy, dy))
            & (np.minimum(cy, dy) <= np.maximum(ay, by)))
    first = meet.argmax(axis=0)
    return np.where(meet.any(axis=0)[:, None], np.column_stack([i[first], j[first]]), -1)


def _polygon_geometry(vertices, ids, starts):
    """Areas, centroids and diameters of the polygons `vertices[ids[starts[i]:
    starts[i+1]]]`, all at once, after checking each polygon.

    Areas are shoelace sums, centroids the area-weighted polygon centroids and
    diameters the largest vertex-to-vertex distances.  A polygon with an
    out-of-range or repeated consecutive vertex, fewer than 3 planar vertices,
    non-finite coordinates, a signed area that is not positive, or two
    non-adjacent sides that meet (`_meeting_sides`: not simple) raises
    `MeshError` naming the first bad polygon in `cell`, with the first check
    it fails.
    """
    n, nv = starts.size - 1, vertices.shape[0]
    lens = np.diff(starts)
    owner = np.repeat(np.arange(n), lens)
    nxt = _next_vertex(starts)

    def per_polygon(flags):
        return np.bincount(owner, weights=flags, minlength=n) > 0

    areas, cents, diams = np.zeros(n), np.zeros((n, 2)), np.zeros(n)
    non_finite = np.zeros(n, dtype=bool)
    # the first two non-adjacent sides of each polygon that meet, else -1
    meeting = np.full((n, 2), -1)
    planar = vertices.ndim == 2 and vertices.shape[1] == 2
    if planar:
        p = vertices[np.clip(ids, 0, max(nv - 1, 0))]
        q = p[nxt]
        non_finite = per_polygon(~np.isfinite(p).all(axis=1))
        # the measures of a bad polygon are never returned, nor warned about
        with np.errstate(all="ignore"):
            cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
            areas = 0.5 * np.bincount(owner, weights=cross, minlength=n)
            cents = np.column_stack([np.bincount(owner, weights=(p[:, i] + q[:, i]) * cross,
                                                 minlength=n) / (6.0 * areas) for i in (0, 1)])
            for m in np.unique(lens[lens >= 3]):
                group = np.flatnonzero(lens == m)
                x, y = p[starts[group][:, None] + np.arange(m)].T
                # the squares summed by hand: numpy reduces a length-2 axis slowly
                dx, dy = x[:, None] - x[None], y[:, None] - y[None]
                diams[group] = np.sqrt((dx * dx + dy * dy).reshape(m * m, -1).max(axis=0))
                if m > 3:       # a triangle has no non-adjacent sides
                    meeting[group] = _meeting_sides(x, y)

    checks = [
        (per_polygon((ids < 0) | (ids >= nv)), lambda ci: "vertex index out of range"),
        (per_polygon(ids == ids[nxt]) & (lens >= 2), lambda ci: "repeated consecutive vertex"),
        ((lens < 3) | (not planar),
         lambda ci: "polygon needs at least 3 planar vertices, got shape "
                    f"{(int(lens[ci]),) + vertices.shape[1:]}"),
        (non_finite, lambda ci: "polygon has non-finite coordinates"),
        (~(areas > 0.0), lambda ci: f"polygon is not CCW (signed area {areas[ci]:g})"),
        (meeting[:, 0] >= 0,
         lambda ci: "polygon is not simple: its sides {} and {} meet".format(*meeting[ci])),
    ]
    bad = np.flatnonzero(np.any([flags for flags, _ in checks], axis=0))
    if bad.size:
        ci = int(bad[0])
        message = next(message for flags, message in checks if flags[ci])
        raise MeshError(message(ci), cell=ci)
    return areas, cents, diams


@dataclass(frozen=True)
class CellGeometry:
    """Geometry of a stack of n >= 1 polygonal cells with one vertex count m:
    CCW vertices `verts` (n, m, 2), |E| `area` (n,), `centroid` (n, 2), h_E
    `diameter` (n,) and the index of each cell in its mesh, `cells` (n,), so
    an error found on a stack can name its mesh cell.  A lone cell is a
    one-cell stack."""

    verts: np.ndarray
    area: np.ndarray
    centroid: np.ndarray
    diameter: np.ndarray
    cells: np.ndarray

    @property
    def n_vertices(self):
        return self.verts.shape[-2]

    def take(self, positions) -> "CellGeometry":
        """The stack of the cells at `positions` of this stack."""
        return CellGeometry(self.verts[positions], self.area[positions],
                            self.centroid[positions], self.diameter[positions],
                            self.cells[positions])


class PolyMesh:
    """A conforming polygonal tessellation of the unit square.

    Instances come from the constructor, the generators or :func:`read_mesh`
    and are immutable afterwards, every array they hold read-only; they are
    safe to share across workers.  The constructor is where polygons are
    checked: a cell with an out-of-range or repeated consecutive vertex, one
    that is not a CCW polygon of positive area, or one that is not simple
    (two non-adjacent sides intersect or touch) raises a `MeshError` naming
    the cell.  Its `cells` are index sequences, one per cell (an
    (n, m) array gives n cells of m vertices).  It stores them once, as
    `flat_cells` = (ids, starts): the vertex ids of every cell concatenated
    in cell order, and the (n_cells + 1,) offsets of each cell's run in
    `ids`.  It checks and measures all cells and numbers the edges in array
    passes over them.
    It derives the two cell-shape facts that the element and data passes
    branch on from one gather of the cells' vertices: `congruent_cells` is
    true when every cell is a translate of cell 0, vertex by vertex (the
    cartesian family, however it was built), and `rectangles` is (lower-left
    corners, sides), each (n_cells, 2), when every cell has 4 vertices whose
    sides alternate exactly between horizontal and vertical (so, being CCW,
    an axis-aligned rectangle), else None.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.array(vertices, dtype=float)
        starts = np.zeros(len(cells) + 1, dtype=int)
        np.cumsum(np.fromiter(map(len, cells), dtype=int, count=len(cells)), out=starts[1:])
        # unsafe casting: an empty cell given as [] is a float array
        ids = (np.concatenate(cells, dtype=int, casting="unsafe") if len(cells)
               else np.zeros(0, dtype=int))
        self.flat_cells = (ids, starts)

        self.cell_areas, self.cell_centroids, self.cell_diameters = _polygon_geometry(
            self.vertices, ids, starts)
        self.h_max = float(self.cell_diameters.max()) if self.n_cells else 0.0
        self.congruent_cells, self.rectangles = self._cell_shapes()

        self._build_edges()
        flags = np.zeros(self.vertices.shape[0], dtype=bool)
        flags[self.edges[self.boundary_edge_flags].ravel()] = True
        self.boundary_vertex_flags = flags
        # the congruent-cell reuse and the data rules rely on a mesh never changing
        for array in (self.vertices, ids, starts, self.cell_areas, self.cell_centroids,
                      self.cell_diameters, self.edges, *self.cell_sides,
                      self.boundary_edge_flags, flags, *(self.rectangles or ())):
            array.setflags(write=False)

    # -- construction helpers -------------------------------------------------

    def _cell_shapes(self):
        """(`congruent_cells`, `rectangles`) from one gather of the cells' vertices."""
        ids, starts = self.flat_cells
        lens = np.diff(starts)
        if not self.n_cells or np.any(lens != lens[0]):
            return False, None
        verts = self.vertices[ids.reshape(self.n_cells, -1)]
        offsets = verts - self.cell_centroids[:, None, :]
        tol = CONGRUENCE_TOL * max(self.cell_diameters[0], 1e-300)
        congruent = bool(np.abs(offsets - offsets[0]).max() <= tol)
        if lens[0] != 4:
            return congruent, None
        # same[i, j, c]: side j of cell i keeps coordinate c; the even sides
        # keep one coordinate and the odd sides the other
        same = verts == np.roll(verts, -1, axis=1)
        even, odd = same[:, 0] & same[:, 2], same[:, 1] & same[:, 3]
        if not (even & odd[:, ::-1]).any(axis=1).all():
            return congruent, None
        # corners 0 and 2 of a rectangle are opposite
        return congruent, (np.minimum(verts[:, 0], verts[:, 2]),
                           np.abs(verts[:, 2] - verts[:, 0]))

    def _build_edges(self):
        """Number the edges in order of first appearance, walking the cells in
        order and each cell's sides from vertex j to vertex j+1, and find
        `cell_sides`: the edge of every side and whether the side runs
        against the edge's (low, high) vertex order."""
        ids, starts = self.flat_cells
        head, tail = ids, ids[_next_vertex(starts)]
        nv = self.n_vertices
        keys, first, side_key = np.unique(np.minimum(head, tail) * nv + np.maximum(head, tail),
                                          return_index=True, return_inverse=True)
        order = np.argsort(first)
        number = np.empty_like(order)
        number[order] = np.arange(order.size)
        keys = keys[order]
        self.edges = np.column_stack([keys // nv, keys % nv]).reshape(-1, 2)
        edge_ids = number[side_key]
        against = head > tail
        self.cell_sides = (edge_ids, against)
        self.boundary_edge_flags = np.bincount(edge_ids, minlength=self.n_edges) == 1

    # -- accessors -------------------------------------------------------------

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.flat_cells[1].size - 1

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def cells(self):
        """The vertex ids of each cell: read-only views of `flat_cells`."""
        ids, starts = self.flat_cells
        bounds = starts.tolist()
        return [ids[first:stop] for first, stop in zip(bounds, bounds[1:])]

    def cell_geom(self, cells) -> CellGeometry:
        """The stacked geometry of `cells`, a non-empty 1-D index array of
        cells that share a vertex count; `[i]` gives cell i alone."""
        cells = np.asarray(cells)
        if cells.ndim != 1 or not cells.size:
            raise ValueError("cell_geom takes a non-empty 1-D array of cell indices, "
                             f"got shape {cells.shape}")
        ids, starts = self.flat_cells
        first = starts[cells]
        lens = starts[cells + 1] - first
        m = int(lens[0])
        if np.any(lens != m):
            raise ValueError("a stack of cells must share one vertex count")
        v = self.vertices[ids[first[:, None] + np.arange(m)]]
        v.setflags(write=False)
        return CellGeometry(v, self.cell_areas[cells], self.cell_centroids[cells],
                            self.cell_diameters[cells], cells)


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
    # cell (i, j), row j of the grid, numbered j n + i from its bottom-left vertex
    bottom_left = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    return PolyMesh(vertices, bottom_left[:, None] + [0, 1, n + 2, n + 1])


def _draw_seeds(seed: int, n: int) -> np.ndarray:
    """n seed points strictly inside the unit square, drawn by SplitMix64.

    The draw is counter-based: output i >= 1 mixes seed + i * 0x9E3779B97F4A7C15
    (mod 2**64) with the published SplitMix64 finalizer and gives the double
    (output >> 11) * 2**-53, uniform on [0, 1).  So output i depends only on the
    seed and i, and the stream is that of the sequential generator seeded
    with `seed` (masked to 64 bits).  The outputs closer than SEED_SIDE_GAP
    to a side are dropped and the rest, in stream order, fill the seeds'
    coordinates row by row; more are drawn only when the first 2n leave
    fewer than 2n.  The gap gives every seed a well-separated mirror image.
    A seed and its image form slivers whose circumcenters carry a roundoff
    that grows as the seed nears the side: at 1e-9 from a side it exceeds
    BOUNDARY_SNAP_TOL and `_seed_fans` refuses the first diagram; at
    SEED_SIDE_GAP it is below 1e-11.
    """
    state = int(seed) & ((1 << 64) - 1)
    coords, drawn = np.empty(0), 0
    while coords.size < 2 * n:
        i = np.arange(drawn + 1, drawn + 1 + 2 * n - coords.size, dtype=np.uint64)
        drawn += i.size
        # array arithmetic on uint64 wraps mod 2**64, without a warning
        z = state + i * 0x9E3779B97F4A7C15
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        c = ((z ^ (z >> 31)) >> 11) * 2.0 ** -53
        coords = np.concatenate([coords, c[(c >= SEED_SIDE_GAP) & (c <= 1.0 - SEED_SIDE_GAP)]])
    return coords.reshape(n, 2)


def _mirror(points, band):
    """`points`, then their reflections across the left, right, bottom and top
    sides of the unit square, each side reflecting only the points closer to
    it than `band` (every point when `band` is inf).

    The bisector between a seed and its reflection is the side itself, so a
    reflection is needed only where the seed's region reaches that side.
    `generate_voronoi` passes inf for its first diagram and, for each later
    one, twice the largest seed-to-vertex distance of the previous diagram:
    a region reaching a side has its seed within that distance of the side,
    and the factor 2 leaves room for the seeds' Lloyd move.  The result is
    the point set that `_seed_fans` triangulates.
    """
    x, y = points[:, 0], points[:, 1]
    images = [(x < band, -x, y), (1.0 - x < band, 2.0 - x, y),
              (y < band, x, -y), (1.0 - y < band, x, 2.0 - y)]
    return np.vstack([points] + [np.column_stack([ix, iy])[near]
                                 for near, ix, iy in images])


def _triangulate(points):
    """Delaunay triangulation of `points` by qhull without facet merging,
    checked here in place of qhull's own check.

    The mirrored point sets of `generate_voronoi` are cocircular by
    construction (a seed near a side, its neighbour and their two images lie
    on one circle), and merging those facets is a third of qhull's time.  So
    qhull runs with scipy's default options plus `Q0` (no facet merging) and
    `Po` (output despite precision errors, which `Q0` alone raises on some
    Lloyd iterates).  With `Po` qhull no longer checks its output, and this
    function raises MeshError unless every triangle is CCW with positive area
    and every dual edge is locally Delaunay: its Voronoi edge runs from the
    circumcenter of `t` into `u`'s side of the shared Delaunay edge.  A
    cocircular quadrilateral gives two triangles with one circumcenter, and
    either diagonal passes, so the test allows the circumcenter of `u` on
    `t`'s side by DELAUNAY_TOL times a bound on the circumcenters' roundoff:
    a triangle with corner a and edge vectors b, c from it has a circumcenter
    exact to a few ulps of |a| + (|b|^2 |c| + |c|^2 |b|) / (2 |b x c|).  That
    bound grows for the slivers that a seed near a side forms with its image.

    Returns the triangles (nt, 3) of indices into `points`, their
    circumcenters (nt, 2), the dual edges as the arrays (t, i, u): triangle
    u lies across corner i of triangle t, and each pair of neighbours is
    listed once, with u > t; and their ends, (2, ne) rows p and q: the
    Delaunay edge p -> q that t and u share, with corner i of t on its left.
    """
    from scipy.spatial import Delaunay

    tri = Delaunay(points, qhull_options="Qbb Qc Qz Q12 Q0 Po")
    simplices, neighbors = tri.simplices, tri.neighbors
    x, y = tri.points.T
    X, Y = x[simplices], y[simplices]
    # circumcenters in coordinates relative to each triangle's first corner
    ax, ay = X[:, 0], Y[:, 0]
    bx, by, cx, cy = X[:, 1] - ax, Y[:, 1] - ay, X[:, 2] - ax, Y[:, 2] - ay
    bb, cc = bx * bx + by * by, cx * cx + cy * cy
    d = 2.0 * (bx * cy - by * cx)
    with np.errstate(all="ignore"):
        ox, oy = ax + (cy * bb - by * cc) / d, ay + (bx * cc - cx * bb) / d
        # the roundoff of each circumcenter is a few ulps of this size
        size = np.maximum(abs(ax), abs(ay)) + (bb * np.maximum(abs(cx), abs(cy))
                                               + cc * np.maximum(abs(bx), abs(by))) / abs(d)
    k = np.flatnonzero(neighbors > np.arange(len(simplices))[:, None])
    t = k // 3
    i = k - 3 * t
    u = neighbors.ravel()[k]
    ends = np.stack([simplices[:, [1, 2, 0]].ravel()[k], simplices[:, [2, 0, 1]].ravel()[k]])
    p, q = ends
    ex, ey = x[q] - x[p], y[q] - y[p]
    with np.errstate(all="ignore"):
        margin = ((ex * (oy[t] - oy[u]) - ey * (ox[t] - ox[u]))
                  / (np.sqrt(ex * ex + ey * ey) * np.maximum(size[t], size[u])))
    # written so that a non-finite value fails
    flipped = ~(margin >= -DELAUNAY_TOL)
    if not (d > 0.0).all() or flipped.any():
        raise MeshError(f"qhull's triangulation is not Delaunay "
                        f"({np.count_nonzero(~(d > 0.0))} triangles not CCW with positive "
                        f"area, {np.count_nonzero(flipped)} dual edges not locally Delaunay)")
    centers = np.column_stack([ox, oy])
    return simplices, centers, (t, i, u), ends


def _seed_fans(points, band):
    """Triangulate `_mirror(points, band)` and check that the Voronoi region
    of every seed is a closed polygon in the closed square.

    Each triangle's circumcenter is a Voronoi vertex, and a seed's region is
    the circumcenters of the triangles around it.  Each dual edge t-u is the
    Voronoi edge between the two seeds at the ends of the Delaunay edge that
    t and u share, and gives each of them the fan triangle (seed, c_t, c_u).

    Inside the closed square a reflection is never closer to a point than its
    own seed, so the part of a seed's region inside the square is its clipped
    region whatever the band.  A region that lies entirely in the closed
    square is therefore exactly the clipped region, and that is what is
    checked here.  A seed with fewer fan triangles than triangles lies on the
    hull of the mirrored points (its fan does not close, so its region is
    unbounded); that, or a region vertex outside the square by more than
    BOUNDARY_SNAP_TOL, raises MeshError naming the lowest such seed.  Such a
    region reaches a side whose reflection of its seed was left out, i.e. the
    band was too narrow; it is never repaired.  With `band` = inf every seed
    is reflected across every side and no region can leave the square.  A
    seed that qhull leaves out of every triangle (it coincides with another
    point) raises MeshError naming it first.

    Returns the triangles, their circumcenters and the fan triangles as
    arrays (seed, t, u): fan triangle k is (points[seed[k]], centers[t[k]],
    centers[u[k]]).
    """
    n = points.shape[0]
    simplices, centers, (t, _, u), ends = _triangulate(_mirror(points, band))
    corner = simplices.ravel()
    lens = np.bincount(corner[corner < n], minlength=n)
    if lens.min() == 0:
        raise MeshError("degenerate Voronoi region (coincident seeds?)",
                        cell=int(np.argmin(lens)))
    mine = ends < n
    edge = np.nonzero(mine)[1]
    seed, t, u = ends[mine], t[edge], u[edge]
    # written so that a non-finite vertex counts as outside
    lo, hi = -BOUNDARY_SNAP_TOL, 1.0 + BOUNDARY_SNAP_TOL
    x, y = centers.T
    inside = (x >= lo) & (x <= hi) & (y >= lo) & (y <= hi)
    outside = ~(inside[t] & inside[u])
    bad = np.bincount(seed, minlength=n) < lens
    if bad.any() or outside.any():
        bad |= np.bincount(seed, weights=outside, minlength=n) > 0
        raise MeshError("Voronoi region leaves the unit square (seeds reflected within "
                        f"{band:.3g} of a side)", cell=int(np.argmax(bad)))
    return simplices, centers, (seed, t, u)


def _lloyd_step(points, band):
    """One Lloyd step: the centroids of the clipped Voronoi regions of
    `points`, and `reach`, the largest seed-to-vertex distance.

    Each region is summed from its fan triangles (see `_seed_fans`), in
    coordinates relative to its seed; the seed lies inside its own convex
    region, so every fan triangle counts with its absolute area.  The checks
    and errors are those of `_seed_fans`.
    """
    n = points.shape[0]
    _, centers, (seed, t, u) = _seed_fans(points, band)
    x, y = centers.T
    px, py = points.T
    ax, ay, bx, by = x[t] - px[seed], y[t] - py[seed], x[u] - px[seed], y[u] - py[seed]
    w = np.abs(ax * by - ay * bx)
    area3 = 3.0 * np.bincount(seed, weights=w, minlength=n)
    centroids = np.column_stack([px + np.bincount(seed, weights=w * (ax + bx), minlength=n) / area3,
                                 py + np.bincount(seed, weights=w * (ay + by), minlength=n) / area3])
    reach = np.sqrt(max((ax * ax + ay * ay).max(), (bx * bx + by * by).max()))
    return centroids, reach


def _box_voronoi(points, band):
    """Voronoi regions of `points` clipped to the unit square, read off the
    Delaunay triangulation of `_mirror(points, band)`: the final diagram of
    `generate_voronoi`, with the checks and errors of `_seed_fans`.

    A region is the circumcenters of the triangles around its seed, in
    angular order about the seed.  Points on a common circle give one vertex
    per triangle of their polygon; these coincide and are merged by
    `_stitch_regions`.

    Returns the circumcenters and the regions flattened in seed order: `flat`
    holds the vertex indices of region 0, then of region 1, ..., and
    `lens[i]` the vertex count of region i.
    """
    n = points.shape[0]
    simplices, centers, _ = _seed_fans(points, band)
    corner = simplices.ravel()
    mine = corner < n
    seed = corner[mine]
    around = np.flatnonzero(mine) // 3
    rel = centers[around] - points[seed]
    # sort by (seed, angle) through one exact integer key built from the
    # angle's rank; np.lexsort with the float angle is several times slower
    angle = np.arctan2(rel[:, 1], rel[:, 0])
    rank = np.empty(angle.size, dtype=int)
    rank[np.argsort(angle)] = np.arange(angle.size)
    order = np.argsort(seed * angle.size + rank)
    return centers, around[order], np.bincount(seed, minlength=n)


def generate_voronoi(n_cells: int, rng_seed: int = 0,
                     lloyd_iters: int = DEFAULT_LLOYD_ITERS) -> PolyMesh:
    """Lloyd-relaxed centroidal Voronoi tessellation of the unit square.

    Parameters
    ----------
    n_cells : number of Voronoi cells (= number of seed points).
    rng_seed : seed of the SplitMix64 stream that draws the initial seeds
        (`_draw_seeds`).
    lloyd_iters : number of Lloyd iterations (each moves every seed to the
        centroid of its clipped Voronoi region).

    The result is deterministic for fixed inputs.  Cell i is the region of
    seed i.  The seeds are drawn once; drawn seeds that coincide leave a
    degenerate region, and `_seed_fans` raises MeshError naming its cell.

    Each diagram comes from one checked Delaunay triangulation of the seeds
    and their reflections (`_triangulate`).  A Lloyd step sums the fan
    triangles of the dual edges (`_lloyd_step`); the final diagram's regions
    are sorted by angle (`_box_voronoi`) and the mesh is stitched from them.
    Every diagram after the first reflects only the seeds near a side (see
    `_mirror`); `_seed_fans` checks that this sufficed and raises MeshError
    naming the cell if it did not.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    if lloyd_iters < 0:
        raise ValueError("lloyd_iters must be >= 0")
    seeds = _draw_seeds(rng_seed, n_cells)
    band = np.inf
    for _ in range(lloyd_iters):
        seeds, reach = _lloyd_step(seeds, band)
        band = 2.0 * reach

    return _stitch_regions(*_box_voronoi(seeds, band))


def _stitch_regions(vor_vertices, flat, lens):
    """The Voronoi PolyMesh whose cell i is region i, given as `_box_voronoi`
    returns the regions: `flat` the vertex indices into `vor_vertices` of
    region 0, then of region 1, ..., and `lens[i]` the vertex count of
    region i.

    Vertices within BOUNDARY_SNAP_TOL of a side are snapped onto it and
    vertices closer than VERTEX_DEDUP_TOL are merged, taking the coordinates
    of their lowest (y, x) member.  Each cell starts at its lowest (y, x)
    vertex, and the vertices are numbered by first appearance walking the
    cells in order, so the mesh does not depend on the order in which qhull
    lists its points and triangles.  The regions arrive CCW, each sorted by
    angle about a seed inside it, and are not reoriented: a clockwise one
    fails the `PolyMesh` check, which raises MeshError naming it.  A
    cell that merging collapses or pinches, or that is not convex, raises
    MeshError naming the lowest such cell.  Each step is one pass over the
    regions concatenated in cell order.
    """
    from scipy.spatial import cKDTree

    n = len(lens)
    used, entry = np.unique(flat, return_inverse=True)
    verts = vor_vertices[used]

    # boundary vertices land within roundoff of the sides; snap them exactly
    for target in (0.0, 1.0):
        verts[np.abs(verts - target) <= BOUNDARY_SNAP_TOL] = target

    # merge vertices closer than the stitching tolerance (degenerate ridges,
    # cocircular seeds); with the vertices in (y, x) order, a group takes the
    # coordinates of its lowest member whatever the order of `vor_vertices`
    by_yx = np.lexsort((verts[:, 0], verts[:, 1]))
    verts = verts[by_yx]
    entry = np.argsort(by_yx)[entry]
    pairs = cKDTree(verts).query_pairs(VERTEX_DEDUP_TOL, output_type="ndarray")
    links = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                       shape=(len(verts), len(verts)))
    group = connected_components(links, directed=False)[1]
    group_verts = verts[np.unique(group, return_index=True)[1]]

    # drop each vertex that equals its successor in its cell, cyclically
    ids = group[entry]
    keep = ids != ids[_next_vertex(np.concatenate([[0], np.cumsum(lens)]))]
    ids = ids[keep]
    owner = np.repeat(np.arange(n), lens)[keep]
    lens = np.bincount(owner, minlength=n)
    starts = np.concatenate([[0], np.cumsum(lens)])
    collapsed = lens < 3
    distinct = np.bincount(owner[np.unique(owner * len(group_verts) + ids, return_index=True)[1]],
                           minlength=n)
    bad = collapsed | (distinct != lens)
    if bad.any():
        ci = int(np.argmax(bad))
        raise MeshError("Voronoi cell collapsed during vertex merging" if collapsed[ci]
                        else "Voronoi cell pinched during vertex merging", cell=ci)

    # read each cell from its lowest (y, x) vertex, at position `low` of its run
    v = group_verts[ids]
    low = np.lexsort((v[:, 0], v[:, 1], owner))[starts[:-1]] - starts[:-1]
    flat = ids[starts[owner] + (np.arange(ids.size) - starts[owner] + low[owner]) % lens[owner]]

    numbered = flat[np.sort(np.unique(flat, return_index=True)[1])]
    number = np.empty(len(group_verts), dtype=int)
    number[numbered] = np.arange(len(numbered))
    mesh = PolyMesh(group_verts[numbered], np.split(number[flat], starts[1:-1]))
    _check_convex(mesh)
    return mesh


def _check_convex(mesh):
    """Raise MeshError naming the lowest cell of `mesh` with a reflex corner."""
    ids, starts = mesh.flat_cells
    nxt = _next_vertex(starts)
    v = mesh.vertices[ids]
    a = v[nxt] - v
    b = a[nxt]
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    owner = np.repeat(np.arange(mesh.n_cells), np.diff(starts))
    reflex = cross < -1e-9 * mesh.cell_diameters[owner] ** 2
    if reflex.any():
        raise MeshError("Voronoi cell is not convex", cell=int(owner[np.argmax(reflex)]))


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

    Raises `MeshError` on a missing header or counts, malformed lines,
    counts that declare more lines than follow them (checked before any
    array is allocated), trailing content, or a cell the :class:`PolyMesh`
    constructor rejects (out-of-range indices, non-CCW or self-intersecting
    cells); the message leads with the line it is about, `line N:`.
    """
    lines = []
    for lineno, raw in enumerate(stream, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        lines.append((lineno, s))

    def at(lineno, message):
        return MeshError(f"line {lineno}: {message}")

    if not lines:
        raise MeshError("unexpected end of stream, expected header")
    lineno, header = lines[0]
    if header.split() != ["polymesh", "1"]:
        raise at(lineno, f"bad header {header!r}, expected 'polymesh 1'")
    if len(lines) < 2:
        raise MeshError("unexpected end of stream, expected counts")
    lineno, counts = lines[1]
    parts = counts.split()
    if len(parts) != 2:
        raise at(lineno, "expected '<nv> <nc>'")
    try:
        nv, nc = int(parts[0]), int(parts[1])
    except ValueError:
        raise at(lineno, "vertex/cell counts must be integers") from None
    if nv < 3 or nc < 1:
        raise at(lineno, f"implausible counts nv={nv} nc={nc}")
    body = lines[2:]
    if nv + nc > len(body):
        raise at(lineno, f"counts nv={nv} nc={nc} need {nv + nc} vertex and cell lines, "
                         f"only {len(body)} follow")

    verts = np.empty((nv, 2))
    for i, (lineno, s) in enumerate(body[:nv]):
        parts = s.split()
        if len(parts) != 2:
            raise at(lineno, f"expected 'x y' for vertex {i}")
        try:
            verts[i] = float(parts[0]), float(parts[1])
        except ValueError:
            raise at(lineno, f"bad coordinate for vertex {i}") from None

    cells, cell_lines = [], []
    for ci, (lineno, s) in enumerate(body[nv:nv + nc]):
        try:
            ids = [int(p) for p in s.split()]
        except ValueError:
            raise at(lineno, f"bad index in cell {ci}") from None
        if ids[0] != len(ids) - 1:
            raise at(lineno, f"cell {ci}: count prefix does not match")
        cells.append(ids[1:])
        cell_lines.append(lineno)

    if len(body) > nv + nc:
        raise at(body[nv + nc][0], "trailing content after last cell")
    try:
        return PolyMesh(verts, cells)
    except MeshError as exc:
        raise at(cell_lines[exc.cell], exc) from None


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

    @property
    def ok(self):
        return not self.violations


def validate_mesh(mesh: PolyMesh) -> MeshValidationReport:
    """Regularity indicators and the checks across cells; collects violations, never raises.

    Each cell's own polygon was already checked by the `PolyMesh` constructor.
    """
    rep = MeshValidationReport()

    # one pass over the sides of all cells: dividing by h_E > 0 keeps their
    # order, so each least quotient is the per-cell least measure over h_E
    ids, starts = mesh.flat_cells
    owner = np.repeat(np.arange(mesh.n_cells), np.diff(starts))
    v = mesh.vertices[ids]
    h = mesh.cell_diameters[owner]
    edges = v[_next_vertex(starts)] - v
    elen = np.hypot(edges[:, 0], edges[:, 1])
    rep.min_edge_ratio = float(np.min(elen / h, initial=rep.min_edge_ratio))

    rep.violations.extend(cross_cell_violations(mesh))

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
    return rep


def cross_cell_violations(mesh: PolyMesh):
    """Yield a conformity violation for each edge that breaks the mesh
    contract and for each vertex that no cell uses, then a partition
    violation unless the cell areas sum to 1.

    An edge must be shared by at most two cells, traversed in opposite
    directions by two cells, and lie on a side of the unit square when only
    one cell has it; the cells then cover the square n >= 1 times, n = the area sum.
    An unused vertex would give its dof a zero row in the stiffness matrix.
    """
    edge_ids, against = mesh.cell_sides
    n_cells = np.bincount(edge_ids, minlength=mesh.n_edges)
    n_against = np.bincount(edge_ids, weights=against, minlength=mesh.n_edges)
    a, b = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    on_side = np.zeros(mesh.n_edges, dtype=bool)
    for side in (0.0, 1.0):
        on_side |= ((np.abs(a - side) <= BOUNDARY_SNAP_TOL)
                    & (np.abs(b - side) <= BOUNDARY_SNAP_TOL)).any(axis=1)
    bad = (n_cells > 2) | ((n_cells == 2) & (n_against != 1)) | ((n_cells == 1) & ~on_side)
    for eid in np.flatnonzero(bad).tolist():
        if n_cells[eid] > 2:
            detail = f"shared by {n_cells[eid]} cells"
        elif n_cells[eid] == 2:
            detail = "traversed in the same direction by both cells"
        else:
            detail = "single-cell edge not on the square boundary"
        yield Violation("conformity", f"edge ({mesh.edges[eid, 0]},{mesh.edges[eid, 1]})",
                        detail)
    used = np.bincount(mesh.flat_cells[0], minlength=mesh.n_vertices)
    for vi in np.flatnonzero(used == 0).tolist():
        yield Violation("conformity", f"vertex {vi}", "used by no cell")
    area_sum = float(mesh.cell_areas.sum())
    if abs(area_sum - 1.0) > AREA_SUM_TOL:
        yield Violation("partition", "mesh", f"cell areas sum to {area_sum!r}, not 1")
