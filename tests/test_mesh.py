import io
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, Voronoi

import polyvem.mesh as meshmod
from conftest import SQUARE_VERTICES, lone_cell, mixed_mesh, nudged_cartesian, tensor_mesh
from polyvem.assembly import build_dof_map
from polyvem.errors import MeshError
from polyvem.mesh import (CARTESIAN_LADDER, FAMILIES, VORONOI_LADDER, PolyMesh,
                          generate_cartesian, generate_mesh, generate_voronoi, read_mesh,
                          validate_mesh, write_mesh)


# -- cell geometry -----------------------------------------------------------

def test_cell_geometry_unit_square():
    E = lone_cell([[0, 0], [1, 0], [1, 1], [0, 1]])
    assert E.verts.shape == (1, 4, 2) and E.cells.tolist() == [0]
    assert E.area[0] == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(E.centroid[0], [0.5, 0.5])
    assert E.diameter[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_cell_geometry_triangle():
    E = lone_cell([[0, 0], [1, 0], [0, 1]])
    assert E.area[0] == pytest.approx(0.5)
    assert np.allclose(E.centroid[0], [1 / 3, 1 / 3])
    assert E.diameter[0] == pytest.approx(math.sqrt(2.0))


def test_cell_geometry_regular_hexagon():
    E = lone_cell([[math.cos(a), math.sin(a)] for a in np.arange(6) * math.pi / 3])
    assert E.area[0] == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, abs=1e-12)
    assert E.diameter[0] == pytest.approx(2.0)


@pytest.mark.parametrize("make", [lambda: generate_cartesian(5),
                                  lambda: generate_voronoi(40, rng_seed=3, lloyd_iters=5),
                                  mixed_mesh], ids=["cartesian", "voronoi", "mixed"])
def test_cell_diameters_are_those_of_the_difference_cube_bitwise(make):
    # each cell's (m, m, 2) cube of vertex differences, squared and summed
    # along its last axis; the Voronoi and mixed meshes mix vertex counts
    mesh = make()
    cube = [np.sqrt(((v[:, None] - v[None]) ** 2).sum(axis=2).max())
            for v in (mesh.vertices[cell] for cell in mesh.cells)]
    assert np.array_equal(mesh.cell_diameters, cube)


@pytest.mark.parametrize("cells", [0, np.int64(2), np.array([], dtype=int), [],
                                   np.array([[0, 1]])],
                         ids=["int", "numpy-scalar", "empty", "empty-list", "2-d"])
def test_cell_geom_takes_a_nonempty_1d_index_array(cells):
    mesh = generate_cartesian(2)
    with pytest.raises(ValueError, match=r"^cell_geom takes a non-empty 1-D array of cell "
                                         r"indices, got shape \("):
        mesh.cell_geom(cells)
    E = mesh.cell_geom(np.array([1, 3]))
    assert E.cells.tolist() == [1, 3] and E.verts.shape == (2, 4, 2)


def test_cell_geometry_rejects_clockwise():
    with pytest.raises(MeshError, match=r"^cell 0: polygon is not CCW \(signed area -1\)$"):
        lone_cell([[0, 0], [0, 1], [1, 1], [1, 0]])
    with pytest.raises(MeshError, match=r"^cell 0: polygon needs at least 3 planar vertices, "
                                        r"got shape \(2, 2\)$"):
        lone_cell([[0, 0], [1, 0]])


# the pentagram {5/2}, CCW: its shoelace area reads 1.47, the winding-weighted one
PENTAGRAM = [[math.cos(math.pi * (0.5 + 0.8 * j)), math.sin(math.pi * (0.5 + 0.8 * j))]
             for j in range(5)]


@pytest.mark.parametrize("verts, sides", [
    (PENTAGRAM, (0, 2)),
    ([[0, 0], [2, 1], [2, 0], [0, 3]], (0, 2)),             # a figure-eight of area 2
    ([[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]], (0, 2)),     # vertex 3 on side 0
], ids=["pentagram", "figure-eight", "vertex-on-a-side"])
def test_a_cell_whose_sides_meet_is_rejected_naming_it(verts, sides):
    square = [[5, 5], [6, 5], [6, 6], [5, 6]]
    message = f"polygon is not simple: its sides {sides[0]} and {sides[1]} meet"
    with pytest.raises(MeshError, match=f"^cell 1: {message}$") as info:
        PolyMesh(square + verts, [range(4), range(4, 4 + len(verts))])
    assert type(info.value) is MeshError and info.value.exit_code == 2
    text = (f"polymesh 1\n{4 + len(verts)} 2\n"
            + "".join(f"{x!r} {y!r}\n" for x, y in square + verts)
            + "4 0 1 2 3\n" + f"{len(verts)} " + " ".join(map(str, range(4, 4 + len(verts))))
            + "\n")
    line = 2 + 4 + len(verts) + 2
    with pytest.raises(MeshError) as info:
        read_mesh(io.StringIO(text))
    assert str(info.value) == f"line {line}: cell 1: {message}"


@pytest.mark.parametrize("verts", [
    [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],       # an L
    # a U, whose arms' tops are collinear sides that do not meet
    [[0, 0], [3, 0], [3, 2], [2, 2], [2, 1], [1, 1], [1, 2], [0, 2]],
    [[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]],               # a straight corner
    [[0, 0], [2, 0], [2, 2], [1, 1e-12], [0, 2]],           # vertex 3 just above side 0
])
def test_a_simple_cell_that_is_not_convex_is_accepted(verts):
    assert lone_cell(verts).area[0] > 0.0


# -- cartesian family --------------------------------------------------------

def test_cartesian_basic_counts():
    m1 = generate_cartesian(1)
    assert m1.n_cells == 1 and m1.n_vertices == 4
    assert m1.h_max == pytest.approx(math.sqrt(2.0))
    m2 = generate_cartesian(2)
    assert m2.n_cells == 4 and m2.n_vertices == 9
    assert m2.h_max == pytest.approx(math.sqrt(2.0) / 2.0)


def test_cartesian_cells_are_read_only_views_of_the_flat_cells():
    mesh = generate_cartesian(2)
    ids, starts = mesh.flat_cells
    assert np.array_equal(starts, [0, 4, 8, 12, 16])
    assert [c.tolist() for c in mesh.cells] == [[0, 1, 4, 3], [1, 2, 5, 4],
                                                 [3, 4, 7, 6], [4, 5, 8, 7]]
    for cell in mesh.cells:
        assert np.shares_memory(cell, ids) and not cell.flags.writeable


@pytest.mark.parametrize("make, count", [
    (lambda: generate_cartesian(3), 13),
    (lambda: generate_voronoi(12, rng_seed=4, lloyd_iters=20), 11),
    (lambda: _roundtrip(generate_voronoi(12, rng_seed=4, lloyd_iters=20)), 11),
], ids=["cartesian", "voronoi", "read_mesh"])
def test_every_mesh_array_is_read_only(make, count):
    # the congruent-cell reuse and the data rules rely on a mesh never
    # changing; a mesh of rectangles holds their corners and sides too
    mesh = make()
    arrays = [(name, a) for name, value in vars(mesh).items()
              for a in (value if isinstance(value, tuple) else (value,))
              if isinstance(a, np.ndarray)]
    assert len(arrays) == count
    for name, a in arrays:
        assert not a.flags.writeable, name


def test_cartesian_partition_of_unity():
    m = generate_cartesian(4)
    assert m.n_cells == 16
    assert abs(m.cell_areas.sum() - 1.0) < 1e-12


def test_cartesian_rejects_zero():
    with pytest.raises(ValueError):
        generate_cartesian(0)


def test_refinement_ladders_monotone():
    for fam, ladder in (("cartesian", CARTESIAN_LADDER), ("voronoi", VORONOI_LADDER[:2])):
        hs = [generate_mesh(fam, n, 0, 30).h_max for n in ladder]
        assert all(a > b for a, b in zip(hs, hs[1:]))


def test_generate_mesh_dispatches_families():
    assert set(FAMILIES) == {"cartesian", "voronoi"}
    cart = generate_mesh("cartesian", 3)
    assert cart.n_cells == 9
    vor = generate_mesh("voronoi", 9, seed=42, lloyd_iters=10)
    assert np.array_equal(vor.vertices, generate_voronoi(9, 42, 10).vertices)
    with pytest.raises(ValueError, match="unknown mesh family"):
        generate_mesh("triangular", 4)


# -- voronoi family ----------------------------------------------------------

def test_voronoi_single_cell_is_unit_square():
    m = generate_voronoi(1, rng_seed=5, lloyd_iters=3)
    assert m.n_cells == 1
    assert m.n_vertices == 4
    assert abs(m.cell_areas[0] - 1.0) < 1e-12
    assert sorted(map(tuple, np.round(m.vertices, 12))) == [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_voronoi_rejects_negative_lloyd_iters():
    with pytest.raises(ValueError, match="lloyd_iters"):
        generate_voronoi(9, 0, -5)


def test_voronoi_16_partition():
    m = generate_voronoi(16, rng_seed=42, lloyd_iters=100)
    assert m.n_cells == 16
    assert abs(m.cell_areas.sum() - 1.0) <= 1e-10
    assert validate_mesh(m).ok


def test_voronoi_cells_convex_ccw(rng):
    m = generate_voronoi(25, rng_seed=7, lloyd_iters=10)
    for ci, cell in enumerate(m.cells):
        v = m.vertices[cell]
        e = np.roll(v, -1, axis=0) - v
        cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        assert np.all(cross > -1e-9 * m.cell_diameters[ci] ** 2)
        assert m.cell_areas[ci] > 0


def test_voronoi_determinism_bit_identical():
    a = generate_voronoi(32, rng_seed=11, lloyd_iters=25)
    b = generate_voronoi(32, rng_seed=11, lloyd_iters=25)
    assert np.array_equal(a.vertices, b.vertices)
    assert all(np.array_equal(x, y) for x, y in zip(a.cells, b.cells))
    c = generate_voronoi(32, rng_seed=12, lloyd_iters=25)
    assert not np.array_equal(a.vertices, c.vertices)


def test_voronoi_conformity():
    m = generate_voronoi(40, rng_seed=3, lloyd_iters=40)
    edge_ids, against = m.cell_sides
    sides = np.bincount(edge_ids, minlength=m.n_edges)
    assert set(sides.tolist()) <= {1, 2}
    backward = np.bincount(edge_ids, weights=against, minlength=m.n_edges)
    assert np.all(backward[sides == 2] == 1)   # opposite traversal


def _splitmix64(seed):
    """The outputs of the sequential SplitMix64 generator (Steele, Lea &
    Flood, OOPSLA 2014) seeded with `seed`, masked to 64 bits, one by one."""
    mask = (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def _sequential_seeds(seed, n):
    """`_draw_seeds` by the sequential generator: each coordinate in turn
    takes the next double (output >> 11) * 2**-53 at least SEED_SIDE_GAP from
    the sides.  Returns the seeds and the number of outputs drawn."""
    gap = meshmod.SEED_SIDE_GAP
    pts, drawn, stream = np.empty((n, 2)), 0, _splitmix64(seed)
    for i in range(n):
        for d in range(2):
            c = -1.0
            while c < gap or c > 1.0 - gap:
                c = (next(stream) >> 11) * 2.0 ** -53
                drawn += 1
            pts[i, d] = c
    return pts, drawn


def test_splitmix64_reference_sequence():
    # seed 0 first outputs of the published SplitMix64 recurrence
    stream = _splitmix64(0)
    first = [next(stream), next(stream)]
    assert first == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert meshmod._draw_seeds(0, 1).tolist() == [[(u >> 11) * 2.0 ** -53 for u in first]]


@pytest.mark.parametrize("n", [1, 9, 1024])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, -1, -12345])
def test_draw_seeds_matches_the_sequential_generator(n, seed):
    assert np.array_equal(meshmod._draw_seeds(seed, n), _sequential_seeds(seed, n)[0])


def test_voronoi_coincident_seeds_name_a_cell(monkeypatch):
    """Seeds are drawn once: a drawn pair that coincides leaves a degenerate
    region, and generate_voronoi raises MeshError naming the lower cell."""
    good = meshmod._draw_seeds

    def coincident(seed, n):
        seeds = good(seed, n)
        seeds[3] = seeds[1]
        return seeds

    monkeypatch.setattr(meshmod, "_draw_seeds", coincident)
    with pytest.raises(MeshError, match=r"^cell 1: degenerate Voronoi region "
                                        r"\(coincident seeds\?\)$") as info:
        meshmod.generate_voronoi(6, rng_seed=1, lloyd_iters=3)
    assert info.value.cell == 1


def _split(flat, lens):
    return np.split(flat, np.cumsum(lens)[:-1])


def _stitch(verts, regions):
    """`_stitch_regions` of the regions given as lists of vertex indices."""
    return meshmod._stitch_regions(verts, np.concatenate(regions), [len(r) for r in regions])


def _region_centroids(vertices, flat, lens):
    """Shoelace centroids of the regions given as (flat, lens), as
    `_box_voronoi` returns them."""
    ends = np.cumsum(lens)
    starts = ends - lens
    nxt = np.arange(1, flat.size + 1)
    nxt[ends - 1] = starts
    p = vertices[flat]
    q = vertices[flat[nxt]]
    cross = p[:, 0] * q[:, 1] - q[:, 0] * p[:, 1]
    area = 0.5 * np.add.reduceat(cross, starts)
    cx = np.add.reduceat((p[:, 0] + q[:, 0]) * cross, starts) / (6.0 * area)
    cy = np.add.reduceat((p[:, 1] + q[:, 1]) * cross, starts) / (6.0 * area)
    return np.column_stack([cx, cy])


def _full_mirror_voronoi(n, seed, iters):
    """generate_voronoi's Lloyd loop with every seed reflected across every side."""
    seeds = meshmod._draw_seeds(seed, n)
    for _ in range(iters):
        seeds = meshmod._lloyd_step(seeds, np.inf)[0]
    verts, flat, lens = meshmod._box_voronoi(seeds, np.inf)
    return meshmod._stitch_regions(verts, flat, lens)


@pytest.mark.parametrize("n, seed", [(1, 0), (9, 0)] + [(64, s) for s in range(30)])
def test_band_mirroring_matches_full_mirroring(n, seed):
    mesh = generate_voronoi(n, seed, 100)
    ref = _full_mirror_voronoi(n, seed, 100)
    assert len(mesh.cells) == len(ref.cells)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, ref.cells))
    assert np.abs(mesh.vertices - ref.vertices).max() <= 1e-10
    assert validate_mesh(mesh).ok


def test_box_voronoi_names_the_seed_whose_region_leaves_the_square():
    seeds = meshmod._draw_seeds(42, 16)
    meshmod._box_voronoi(seeds, np.inf)
    with pytest.raises(MeshError, match="Voronoi region leaves the unit square") as info:
        meshmod._box_voronoi(seeds, 0.0)   # no reflections: boundary regions are unbounded
    assert info.value.cell in range(16)
    assert str(info.value).startswith(f"cell {info.value.cell}: ")


def test_stitch_regions_names_the_collapsed_cell():
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                      [0.5, 0.5], [0.5 + 1e-13, 0.5], [0.5, 0.5 + 1e-13]])
    with pytest.raises(MeshError,
                       match=r"^cell 1: Voronoi cell collapsed during vertex merging$"):
        _stitch(verts, [[0, 1, 2, 3], [4, 5, 6]])


def test_stitch_regions_names_the_pinched_cell():
    # vertices 3 and 5 merge, and they are not neighbours in cell 0
    verts = np.array([[0, 0], [1, 0], [1, 1], [0.5, 0.5], [0, 1], [0.5 + 1e-13, 0.5]])
    with pytest.raises(MeshError,
                       match=r"^cell 0: Voronoi cell pinched during vertex merging$"):
        _stitch(verts, [[0, 1, 3, 2, 4, 5]])


def test_stitch_regions_numbering_ignores_qhull_vertex_order():
    seeds = meshmod._draw_seeds(3, 16)
    verts, flat, lens = meshmod._box_voronoi(seeds, np.inf)
    mesh = meshmod._stitch_regions(verts, flat, lens)
    perm = np.random.default_rng(0).permutation(len(verts))
    where = np.argsort(perm)              # old vertex index -> its new position
    rolled = [np.roll(where[r], i) for i, r in enumerate(_split(flat, lens))]
    other = _stitch(verts[perm], rolled)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, other.cells))
    assert np.array_equal(mesh.vertices, other.vertices)
    for cell in mesh.cells:                # each cell starts at its lowest (y, x) vertex
        v = mesh.vertices[cell]
        assert np.lexsort((v[:, 0], v[:, 1]))[0] == 0
    first_seen = np.unique(np.concatenate(mesh.cells), return_index=True)[1]
    assert np.all(np.diff(first_seen) > 0)   # vertices numbered by first appearance


def _voronoi_oracle(n, seed, iters):
    """generate_voronoi with every diagram taken from qhull's Voronoi
    instead of the circumcenters of a Delaunay triangulation: the same
    seeds, Lloyd loop, band rule and stitching.  qhull lists a region in
    either orientation; the oracle turns the clockwise ones round, as
    `_stitch_regions` takes CCW regions only."""
    def ccw(region, verts):
        x, y = verts[region].T
        return region if x @ np.roll(y, -1) > np.roll(x, -1) @ y else region[::-1]

    def box(points, band):
        vor = Voronoi(meshmod._mirror(points, band))
        regions = [ccw(vor.regions[r], vor.vertices) for r in vor.point_region[:len(points)]]
        flat = np.concatenate(regions)
        assert flat.min() >= 0
        assert np.all(np.abs(vor.vertices[flat] - 0.5) <= 0.5 + meshmod.BOUNDARY_SNAP_TOL)
        return vor.vertices, regions, flat, np.array([len(r) for r in regions])

    seeds = meshmod._draw_seeds(seed, n)
    band = np.inf
    for _ in range(iters):
        verts, _, flat, lens = box(seeds, band)
        band = 2.0 * np.hypot(*(verts[flat] - np.repeat(seeds, lens, axis=0)).T).max()
        seeds = _region_centroids(verts, flat, lens)
    verts, regions, _, _ = box(seeds, band)
    return _stitch(verts, regions)


@pytest.mark.parametrize("seed", range(30))
def test_delaunay_voronoi_matches_qhull_voronoi_oracle(seed):
    # 25 Lloyd iterations leave more short edges than the ladder's 100
    mesh = generate_voronoi(64, seed, 25)
    ref = _voronoi_oracle(64, seed, 25)
    assert len(mesh.cells) == len(ref.cells)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, ref.cells))
    assert mesh.vertices.shape == ref.vertices.shape
    assert np.abs(mesh.vertices - ref.vertices).max() <= 1e-10
    assert validate_mesh(mesh).ok


def _cocircular_grid():
    """The Voronoi mesh of a 3 x 3 grid of seeds, whose regions meet four
    at a vertex."""
    ticks = np.array([1.0, 3.0, 5.0]) / 6.0
    seeds = np.column_stack([np.tile(ticks, 3), np.repeat(ticks, 3)])
    verts, flat, lens = meshmod._box_voronoi(seeds, np.inf)
    return meshmod._stitch_regions(verts, flat, lens)


def test_cocircular_seeds_share_one_vertex():
    mesh = _cocircular_grid()
    assert mesh.n_cells == 9 and mesh.n_vertices == 16
    assert [len(c) for c in mesh.cells] == [4] * 9
    assert np.allclose(mesh.cell_areas, 1.0 / 9.0)
    assert validate_mesh(mesh).ok


def test_box_voronoi_names_a_seed_with_an_open_fan():
    # no reflections: every seed is on the hull, and the one circumcenter,
    # (0.5, 0.45), lies inside the square
    seeds = np.array([[0.5, 0.2], [0.3, 0.6], [0.7, 0.6]])
    with pytest.raises(MeshError, match=r"^cell 0: Voronoi region leaves the unit square"):
        meshmod._box_voronoi(seeds, 0.0)


def test_box_voronoi_names_a_coincident_seed():
    seeds = meshmod._draw_seeds(5, 9)
    seeds[6] = seeds[2]
    with pytest.raises(MeshError,
                       match=r"degenerate Voronoi region \(coincident seeds\?\)") as info:
        meshmod._box_voronoi(seeds, np.inf)
    assert info.value.cell in (2, 6)
    assert str(info.value).startswith(f"cell {info.value.cell}: ")


def test_stitch_regions_names_the_reflex_cell():
    # cell 1 is a CCW dart whose corner at (2.5, 1) is reflex
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                      [2, 0], [4, 1], [2, 2], [2.5, 1]], dtype=float)
    with pytest.raises(MeshError, match=r"^cell 1: Voronoi cell is not convex$"):
        _stitch(verts, [[0, 1, 2, 3], [4, 5, 6, 7]])


def test_stitch_regions_refuses_a_clockwise_region_naming_it():
    # regions arrive CCW from `_box_voronoi`, and none is turned round
    verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1],
                      [2, 0], [3, 0], [3, 1], [2, 1]], dtype=float)
    _stitch(verts, [[0, 1, 2, 3], [4, 5, 6, 7]])
    with pytest.raises(MeshError, match=r"^cell 1: polygon is not CCW \(signed area -1\)$") \
            as info:
        _stitch(verts, [[0, 1, 2, 3], [7, 6, 5, 4]])
    assert info.value.cell == 1


def _merged_qhull_voronoi(n, seed, iters):
    """generate_voronoi as it was before the Lloyd steps summed fan
    triangles: every diagram from qhull's default (merging) `Delaunay`, each
    region its circumcenters sorted by angle about the seed, and each Lloyd
    step the shoelace centroids of those polygons.  The band rule and the
    stitching are the same."""
    def box(points, band):
        tri = Delaunay(meshmod._mirror(points, band))
        corners = tri.points[tri.simplices]
        a, b, c = corners[:, 0], corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
        bb, cc = (b ** 2).sum(axis=1), (c ** 2).sum(axis=1)
        d = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
        centers = a + np.column_stack([c[:, 1] * bb - b[:, 1] * cc,
                                       b[:, 0] * cc - c[:, 0] * bb]) / d[:, None]
        corner = tri.simplices.ravel()
        mine = corner < len(points)
        seed, around = corner[mine], np.flatnonzero(mine) // 3
        assert np.array_equal(np.unique(seed), np.arange(len(points)))
        assert not np.isin(seed, tri.convex_hull).any()
        rel = centers[around] - points[seed]
        order = np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), seed))
        flat = around[order]
        assert np.all(np.abs(centers[flat] - 0.5) <= 0.5 + meshmod.BOUNDARY_SNAP_TOL)
        return centers, flat, np.bincount(seed)

    seeds = meshmod._draw_seeds(seed, n)
    band = np.inf
    for _ in range(iters):
        verts, flat, lens = box(seeds, band)
        band = 2.0 * np.hypot(*(verts[flat] - np.repeat(seeds, lens, axis=0)).T).max()
        seeds = _region_centroids(verts, flat, lens)
    verts, flat, lens = box(seeds, band)
    return meshmod._stitch_regions(verts, flat, lens)


# the meshes on which `Q0` without `Po` raises qhull precision errors: there
# the mesh rests on `_triangulate`'s own Delaunay check
@pytest.mark.parametrize("n, seed", [(64, 11), (64, 13), (256, 5)])
def test_unmerged_lloyd_matches_merged_qhull_oracle(n, seed):
    mesh = generate_voronoi(n, seed, 100)
    ref = _merged_qhull_voronoi(n, seed, 100)
    assert len(mesh.cells) == len(ref.cells)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, ref.cells))
    assert mesh.vertices.shape == ref.vertices.shape
    assert np.abs(mesh.vertices - ref.vertices).max() <= 1e-10   # 2.7e-12 measured


def test_lloyd_step_is_the_centroid_of_the_box_voronoi_regions():
    seeds = meshmod._draw_seeds(4, 100)
    centroids, reach = meshmod._lloyd_step(seeds, np.inf)
    verts, flat, lens = meshmod._box_voronoi(seeds, np.inf)
    assert np.abs(centroids - _region_centroids(verts, flat, lens)).max() <= 1e-13
    assert reach == pytest.approx(
        np.hypot(*(verts[flat] - np.repeat(seeds, lens, axis=0)).T).max(), rel=1e-14)


def test_triangulate_lists_each_dual_edge_once():
    points = np.random.default_rng(1).uniform(size=(60, 2))
    simplices, centers, (t, i, u), ends = meshmod._triangulate(points)
    assert np.all(u > t)
    # the ends p -> q of each dual edge's Delaunay edge, corner i on the left
    assert np.array_equal(ends.T, simplices[t[:, None], (i[:, None] + [1, 2]) % 3])
    shared = np.sort(ends.T, axis=1)
    assert all(set(s) <= set(simplices[k]) and simplices[t[j], i[j]] not in simplices[k]
               for j, (s, k) in enumerate(zip(shared, u)))
    # 3 nt = 2 interior edges + hull edges, each hull edge on one triangle
    hull = Delaunay(points).convex_hull
    assert 3 * len(simplices) == 2 * len(t) + len(hull)
    assert np.allclose(np.hypot(*(points[simplices[:, 0]] - centers).T),
                       np.hypot(*(points[simplices[:, 1]] - centers).T))


# a kite A, B, C, D whose Delaunay diagonal is the short one, C-D; each
# triangulation is (triangles, neighbours) as qhull would list them
_KITE = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.5], [1.0, -0.5]])
_KITE_DELAUNAY = ([[0, 3, 2], [3, 1, 2]], [[1, -1, -1], [-1, 0, -1]])
_KITE_FLIPPED = ([[0, 3, 1], [0, 1, 2]], [[-1, 1, -1], [-1, -1, 0]])
_KITE_CLOCKWISE = ([[0, 2, 3]], [[-1, -1, -1]])           # one triangle, A C D


def _fake_qhull(monkeypatch, simplices, neighbors):
    tri = SimpleNamespace(points=_KITE, simplices=np.array(simplices),
                          neighbors=np.array(neighbors))
    # `_triangulate` imports Delaunay from scipy.spatial when called
    monkeypatch.setattr("scipy.spatial.Delaunay", lambda points, qhull_options: tri)


def test_triangulate_accepts_the_delaunay_kite(monkeypatch):
    assert np.array_equal(np.sort(Delaunay(_KITE).simplices, axis=1),
                          np.sort(_KITE_DELAUNAY[0], axis=1))
    _fake_qhull(monkeypatch, *_KITE_DELAUNAY)
    _, centers, (t, i, u), _ = meshmod._triangulate(_KITE)
    assert (t.tolist(), i.tolist(), u.tolist()) == ([0], [0], [1])
    assert np.allclose(centers, [[0.625, 0.0], [1.375, 0.0]])


@pytest.mark.parametrize("triangulation, counts", [
    (_KITE_FLIPPED, "0 triangles not CCW with positive area, "
                    "1 dual edges not locally Delaunay"),
    (_KITE_CLOCKWISE, "1 triangles not CCW with positive area, "
                      "0 dual edges not locally Delaunay"),
])
def test_triangulate_refuses_what_is_not_delaunay(monkeypatch, triangulation, counts):
    _fake_qhull(monkeypatch, *triangulation)
    with pytest.raises(MeshError, match="^qhull's triangulation is not Delaunay") as info:
        meshmod._triangulate(_KITE)
    assert counts in str(info.value)
    assert info.value.cell is None


def test_triangulate_accepts_the_slivers_of_seeds_next_to_a_side():
    # a seed 1e-9 from a side and its image make slivers whose circumcenters
    # lose about 1e-9 to roundoff; the Delaunay check must allow for that
    for s in range(20):
        seeds = meshmod._draw_seeds(s, 64)
        seeds[:4, 0] = [1e-9, 1.0 - 1e-9, 3e-9, 1.0 - 2e-9]
        seeds[4:8, 1] = [1e-9, 1.0 - 1e-9, 3e-9, 1.0 - 2e-9]
        meshmod._triangulate(meshmod._mirror(seeds, np.inf))


def test_seeds_at_the_side_gap_give_a_closed_first_diagram():
    # at 1e-9 from a side 10 of these 40 sets fail `_seed_fans`: the slivers
    # a seed forms with its image put circumcenters outside the square by
    # more than BOUNDARY_SNAP_TOL; at the drawing gap they stay within it
    gap = meshmod.SEED_SIDE_GAP
    for s in range(40):
        seeds = meshmod._draw_seeds(s, 64)
        seeds[:4, 0] = [gap, 1.0 - gap, gap, 1.0 - gap]
        seeds[4:8, 1] = [gap, 1.0 - gap, gap, 1.0 - gap]
        meshmod._seed_fans(seeds, np.inf)


def test_draw_seeds_redraws_coordinates_within_the_side_gap(monkeypatch):
    # a gap of 0.3 drops 60% of the draws, so the first 2n leave too few
    # and the draw is extended, perhaps more than once
    monkeypatch.setattr(meshmod, "SEED_SIDE_GAP", 0.3)
    for seed in (0, 7, -3):
        ref, drawn = _sequential_seeds(seed, 9)
        assert drawn > 2 * 9
        seeds = meshmod._draw_seeds(seed, 9)
        assert np.array_equal(seeds, ref)
        assert seeds.min() >= 0.3 and seeds.max() <= 0.7


# the first two doubles of seed 0's stream, about 0.883 and 0.432
_D0, _D1 = ((u >> 11) * 2.0 ** -53 for u in (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4))


@pytest.mark.parametrize("gap, value, kept", [
    (_D1, _D1, True),                           # _D0 > 1 - gap is dropped
    (np.nextafter(_D1, 1.0), _D1, False),
    (1.0 - _D0, _D0, True),                     # exact: 1 - (1 - _D0) == _D0
    (1.0 - np.nextafter(_D0, 0.0), _D0, False),
], ids=["at-gap", "inside-gap", "at-one-minus-gap", "beyond-one-minus-gap"])
def test_draw_seeds_keeps_a_draw_exactly_at_the_side_gap(monkeypatch, gap, value, kept):
    # the bounds are inclusive: a draw exactly at the gap or at 1 - gap is
    # the first coordinate, one a ulp closer to the side is dropped
    monkeypatch.setattr(meshmod, "SEED_SIDE_GAP", gap)
    assert (meshmod._draw_seeds(0, 1)[0, 0] == value) == kept


def _coincident_seeds():
    seeds = meshmod._draw_seeds(5, 9)
    seeds[6] = seeds[2]
    return seeds


@pytest.mark.parametrize("seeds, band, message", [
    (meshmod._draw_seeds(42, 16), 0.0, "Voronoi region leaves the unit square"),
    (np.array([[0.5, 0.2], [0.3, 0.6], [0.7, 0.6]]), 0.0,      # no interior edge at all
     "Voronoi region leaves the unit square"),
    (meshmod._draw_seeds(7, 30), 0.05, "Voronoi region leaves the unit square"),
    (_coincident_seeds(), np.inf, "degenerate Voronoi region"),
])
def test_lloyd_step_names_the_cell_that_box_voronoi_names(seeds, band, message):
    with pytest.raises(MeshError) as box:
        meshmod._box_voronoi(seeds, band)
    with pytest.raises(MeshError, match=message) as step:
        meshmod._lloyd_step(seeds, band)
    assert step.value.cell == box.value.cell
    assert str(step.value) == str(box.value)


# -- io ----------------------------------------------------------------------

def _roundtrip(mesh):
    buf = io.StringIO()
    write_mesh(mesh, buf)
    buf.seek(0)
    return read_mesh(buf)


def test_write_read_single_cell():
    text = "polymesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n"
    mesh = read_mesh(io.StringIO(text))
    assert mesh.n_vertices == 4 and mesh.n_cells == 1
    assert abs(mesh.cell_areas[0] - 1.0) < 1e-15


def test_roundtrip_exact():
    mesh = generate_cartesian(2)
    back = _roundtrip(mesh)
    assert np.array_equal(mesh.vertices, back.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, back.cells))


def test_congruence_derived_from_geometry():
    cart = generate_cartesian(4)
    assert cart.congruent_cells
    assert _roundtrip(cart).congruent_cells
    assert not generate_voronoi(12, rng_seed=4, lloyd_iters=20).congruent_cells
    nudged = cart.vertices.copy()
    nudged[6] += [1e-3, -2e-3]            # an interior vertex of the 4x4 grid
    assert not PolyMesh(nudged, cart.cells).congruent_cells


def _exact_boxes(mesh):
    """The reference rectangle rule, cell by cell: (lower-left corners,
    sides) if every cell has 4 vertices that are, exactly and in this
    cyclic order from one of them, (x0, y0), (x1, y0), (x1, y1), (x0, y1)
    with x0 < x1 and y0 < y1; else None."""
    lo, sides = [], []
    for cell in mesh.cells:
        v = mesh.vertices[cell]
        if len(cell) != 4:
            return None
        (x0, y0), (x1, y1) = v.min(axis=0), v.max(axis=0)
        box = np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
        if not (x0 < x1 and y0 < y1
                and any(np.array_equal(v, np.roll(box, -r, axis=0)) for r in range(4))):
            return None
        lo.append([x0, y0])
        sides.append([x1 - x0, y1 - y0])
    return (np.array(lo), np.array(sides)) if lo else None


def _turned(mesh, rotation):
    return PolyMesh(mesh.vertices @ np.asarray(rotation), mesh.cells)


def _rolled_tensor_mesh():
    """An uneven tensor mesh whose cell i starts at its corner i mod 4, so
    both side parities occur in one mesh."""
    mesh = tensor_mesh([0.0, 0.2, 0.45, 1.0], [0.0, 0.3, 0.35, 1.0])
    return PolyMesh(mesh.vertices, [np.roll(c, -i) for i, c in enumerate(mesh.cells)])


EIGHTH = [[math.cos(math.pi / 4), math.sin(math.pi / 4)],
          [-math.sin(math.pi / 4), math.cos(math.pi / 4)]]


@pytest.mark.parametrize("make, rectangles", [
    (lambda: generate_cartesian(1), True),
    (lambda: generate_cartesian(2), True),
    (lambda: generate_cartesian(8), True),
    # a quarter turn starts each cell with a vertical side
    (lambda: _turned(generate_cartesian(4), [[0.0, 1.0], [-1.0, 0.0]]), True),
    (lambda: tensor_mesh([0.0, 0.13, 0.3, 0.52, 1.0], [0.0, 0.1, 0.27, 1.0]), True),
    (_rolled_tensor_mesh, True),
    (lambda: _turned(generate_cartesian(4), EIGHTH), False),
    (lambda: nudged_cartesian(4), False),
    (mixed_mesh, False),
    (lambda: generate_voronoi(12, rng_seed=4, lloyd_iters=20), False),
    (_cocircular_grid, False),
    (lambda: _roundtrip(generate_cartesian(3)), True),
], ids=["cartesian1", "cartesian2", "cartesian8", "quarter_turn", "tensor", "rolled_tensor",
        "eighth_turn", "nudged", "mixed", "voronoi", "cocircular_grid", "read_mesh"])
def test_rectangles_derived_from_geometry(make, rectangles):
    mesh = make()
    ref = _exact_boxes(mesh)
    assert (ref is not None) == rectangles
    if ref is None:
        assert mesh.rectangles is None
        return
    for got, want in zip(mesh.rectangles, ref, strict=True):
        assert got.shape == (mesh.n_cells, 2) and not got.flags.writeable
        assert np.array_equal(got, want)


def test_roundtrip_voronoi_full_precision():
    mesh = generate_voronoi(9, rng_seed=1, lloyd_iters=5)
    back = _roundtrip(mesh)
    assert np.array_equal(mesh.vertices, back.vertices)


def test_read_respects_comments_and_blanks():
    text = "# header comment\npolymesh 1\n\n4 1\n0 0\n1 0\n1 1\n0 1\n# cells\n4 0 1 2 3\n"
    assert read_mesh(io.StringIO(text)).n_cells == 1


def test_read_errors_name_line_numbers():
    with pytest.raises(MeshError, match="^line 1: bad header 'polymesh 2', expected 'polymesh 1'$"):
        read_mesh(io.StringIO("polymesh 2\n4 1\n"))
    with pytest.raises(MeshError, match="^line 7: cell 0: vertex index out of range$"):
        read_mesh(io.StringIO("polymesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 9\n"))
    with pytest.raises(MeshError, match=r"^line 7: cell 0: polygon is not CCW \(signed area -1\)$"):
        # clockwise cell
        read_mesh(io.StringIO("polymesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n4 0 3 2 1\n"))
    with pytest.raises(MeshError, match="^line 7: cell 0: count prefix does not match$"):
        read_mesh(io.StringIO("polymesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n3 0 1 2 3\n"))
    with pytest.raises(MeshError, match="^line 2: expected '<nv> <nc>'$"):
        read_mesh(io.StringIO("polymesh 1\n4\n"))
    with pytest.raises(MeshError, match="^line 10: trailing content after last cell$"):
        read_mesh(io.StringIO("polymesh 1\n4 1\n0 0\n1 0\n1 1\n0 1\n4 0 1 2 3\n"
                              "\n# comment\n1 2\n"))


@pytest.mark.parametrize("text, line, message", [
    ("polymesh 1\n", None, "unexpected end of stream, expected counts"),
    ("", None, "unexpected end of stream, expected header"),
    ("polymesh 1\n4 1\n0 0\n1 0\n", 2,
     "counts nv=4 nc=1 need 5 vertex and cell lines, only 2 follow"),
    ("polymesh 1\n4 1\n" + SQUARE_VERTICES, 2,
     "counts nv=4 nc=1 need 5 vertex and cell lines, only 4 follow"),
    ("polymesh 1\n4 one\n", 2, "vertex/cell counts must be integers"),
    ("polymesh 1\n2 1\n", 2, "implausible counts nv=2 nc=1"),
    ("polymesh 1\n4 1\n0 0\n1 0 0\n1 1\n0 1\n4 0 1 2 3\n", 4, "expected 'x y' for vertex 1"),
    ("polymesh 1\n4 1\n0 0\n1 0\n1 y\n0 1\n4 0 1 2 3\n", 5, "bad coordinate for vertex 2"),
    ("polymesh 1\n4 1\n" + SQUARE_VERTICES + "4 0 1 2 3.0\n", 7, "bad index in cell 0"),
], ids=["end-of-stream", "empty-stream", "vertices-missing", "cells-missing",
        "non-integer-counts", "implausible-counts", "vertex-not-x-y",
        "bad-coordinate", "bad-cell-index"])
def test_read_rejects_malformed_text(text, line, message):
    with pytest.raises(MeshError) as info:
        read_mesh(io.StringIO(text))
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize("nv, nc", [(10**6, 1), (4, 10**6)])
def test_read_checks_the_counts_before_allocating(nv, nc):
    # the counts declare far more lines than follow: the reader refuses
    # them naming the counts line, without a 16 MB vertex array
    text = f"# a comment\npolymesh 1\n{nv} {nc}\n" + SQUARE_VERTICES
    tracemalloc.start()
    try:
        with pytest.raises(MeshError, match=f"^line 3: counts nv={nv} nc={nc} need {nv + nc} "
                                            "vertex and cell lines, only 4 follow$"):
            read_mesh(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 1000))
def test_roundtrip_property(n, seed):
    mesh = generate_voronoi(n * n, rng_seed=seed, lloyd_iters=2)
    back = _roundtrip(mesh)
    assert np.array_equal(mesh.vertices, back.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, back.cells))


# -- validation --------------------------------------------------------------

def test_validate_clean_mesh():
    rep = validate_mesh(generate_cartesian(4))
    assert rep.ok
    assert rep.area_sum == pytest.approx(1.0, abs=1e-12)
    assert rep.min_edge_ratio > 0.5


def _edge_ratio_per_cell(mesh):
    """validate_mesh's edge ratio, measured one cell at a time."""
    edge_ratio = float("inf")
    for ci, cell in enumerate(mesh.cells):
        v = mesh.vertices[cell]
        edges = np.roll(v, -1, axis=0) - v
        elen = np.hypot(edges[:, 0], edges[:, 1])
        edge_ratio = min(edge_ratio, float(elen.min() / mesh.cell_diameters[ci]))
    return edge_ratio


@pytest.mark.parametrize("family, n", [("cartesian", 8), ("voronoi", 256)])
def test_validate_ratios_match_per_cell_loop(family, n):
    mesh = generate_mesh(family, n)
    rep = validate_mesh(mesh)
    assert rep.min_edge_ratio == _edge_ratio_per_cell(mesh)


def test_validate_flags_clockwise_cell():
    # a clockwise cell never reaches the validator: the constructor names it
    verts = [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]]
    cells = [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 4, 3]]
    assert validate_mesh(PolyMesh(verts, cells)).ok
    with pytest.raises(MeshError, match=r"^cell 0: polygon is not CCW \(signed area -0.25\)$"):
        PolyMesh(verts, [[0, 4, 1]] + cells[1:])


def test_validate_flags_nonconforming_partial_edge():
    # right cell splits the shared edge x=0.5 with a hanging node
    verts = [[0, 0], [0.5, 0], [1, 0], [1, 1], [0.5, 1], [0, 1], [0.5, 0.5]]
    cells = [[0, 1, 4, 5],          # left quad uses full edge (1,4)
             [1, 2, 3, 4, 6]]       # right pentagon passes through midpoint 6
    mesh = PolyMesh(verts, cells)
    rep = validate_mesh(mesh)
    assert any(v.kind == "conformity" for v in rep.violations)


def test_validate_flags_an_unused_vertex():
    # vertex 9 lies inside a cell of cartesian 2, so no boundary flag is off
    cart = generate_cartesian(2)
    mesh = PolyMesh(np.vstack([cart.vertices, [[0.5, 0.25]]]), cart.cells)
    rep = validate_mesh(mesh)
    assert not rep.ok
    assert [(v.kind, v.where, v.detail) for v in rep.violations] == [
        ("conformity", "vertex 9", "used by no cell")]
    with pytest.raises(MeshError, match=r"^vertex 9 breaks conformity: used by no cell; "
                                        "run validate_mesh for details$"):
        build_dof_map(mesh, 1)


@pytest.mark.parametrize("n, detail", [
    (2, "traversed in the same direction by both cells"),
    (3, "shared by 3 cells"),
])
def test_validate_flags_stacked_copies_of_one_cell(n, detail):
    """n copies of the unit square: every side is shared by all n cells in
    one direction, no side is a boundary edge, and the areas sum to n."""
    mesh = PolyMesh([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2, 3]] * n)
    rep = validate_mesh(mesh)
    assert rep.area_sum == float(n)
    assert [(v.kind, v.where, v.detail) for v in rep.violations] == (
        [("conformity", f"edge {e}", detail) for e in ("(0,1)", "(1,2)", "(2,3)", "(0,3)")]
        + [("partition", "mesh", f"cell areas sum to {float(n)!r}, not 1")]
        + [("boundary", f"vertex {vi}",
            "boundary flag disagrees with position on the unit square") for vi in range(4)])
    with pytest.raises(MeshError, match=f"^edge \\(0,1\\) breaks conformity: {detail}; "
                                        "run validate_mesh for details$"):
        build_dof_map(mesh, 1)
