import itertools
import json

import numpy as np
import pytest

from epsteinzeta import (
    DomainError,
    EvalConfig,
    PrecisionError,
    ScaleVector,
    certify_connected,
    certify_discrete_convex,
    center_solution,
    grid_records,
    grid_to_json,
    kratio_chart,
    scan,
    standard_chart,
    xi,
)
from epsteinzeta.regions import INDETERMINATE, NEGATIVE, POSITIVE


def disk_labels(size=21, radius2=36):
    labels = np.full((size, size), POSITIVE, dtype=np.int8)
    c = size // 2
    for i in range(size):
        for j in range(size):
            if (i - c) ** 2 + (j - c) ** 2 <= radius2:
                labels[i, j] = NEGATIVE
    return labels


def l_shape_labels(size=21):
    labels = np.full((size, size), POSITIVE, dtype=np.int8)
    labels[2:19, 2:8] = NEGATIVE
    labels[2:8, 2:19] = NEGATIVE
    return labels


def test_kratio_chart_shape():
    chart = kratio_chart(3)
    assert chart.A.shape == (3, 2)
    assert np.allclose(chart.A.sum(axis=0), 0.0)
    # restricting to one free axis keeps column sums zero
    sub = kratio_chart(10, 2)
    assert sub.A.shape == (10, 2)
    assert np.allclose(sub.A.sum(axis=0), 0.0)
    with pytest.raises(DomainError):
        kratio_chart(3, 3)


def test_kratio_chart_matches_ratio_parameterisation():
    # chart point b = (log k2, log k3) must produce scales proportional to
    # 1 : k2 : k3 with unit product
    chart = kratio_chart(3)
    b = np.array([0.4, -0.7])
    scales = chart.scales(b)
    k2, k3 = np.exp(b)
    assert np.prod(scales.a) == pytest.approx(1.0, rel=1e-12)
    assert scales.a[1] / scales.a[0] == pytest.approx(k2, rel=1e-12)
    assert scales.a[2] / scales.a[0] == pytest.approx(k3, rel=1e-12)


@pytest.mark.parametrize(
    "chart", [kratio_chart(3), kratio_chart(10, 2), standard_chart(4, v=[0.3, -1.1, 0.5, 0.3])]
)
def test_chart_scales_batch_rows_equal_one_point_calls(chart):
    points = np.random.default_rng(chart.n).uniform(-2.5, 2.5, (50, chart.j))
    batch = chart._rows(points)
    assert batch.shape == (len(points), chart.n)
    for point, row in zip(points, batch.tolist()):
        one = chart.scales(point)
        assert (tuple(row), ScaleVector(row).V) == (one.a, one.V)


def test_single_cell_scan_at_origin():
    grid = scan(2, 0.5, kratio_chart(2), [(0.0, 0.0)], [1])
    assert grid.labels[(0,)] == NEGATIVE
    assert grid.values[(0,)] == pytest.approx(xi(2, 0.5, ScaleVector.unit(2)).value)


# a scan evaluates its nodes in blocks, and with one sum per block the batch
# is cut everywhere; a node alone is one block.  The kratio grids are
# symmetric, so mirror nodes repeat a sorted scale vector; the flat second
# axis of the last grid repeats every vector
_SCANS = [
    (3, 0.7, kratio_chart(3), [(-2.0, 2.0)] * 2, [5, 5]),
    (10, 2.5, kratio_chart(10, 2), [(-2.0, 2.0)] * 2, [5, 5]),
    (4, 0.9, kratio_chart(4, 2), [(-1.5, 1.0), (0.3, 0.3)], [7, 3]),
]


def test_scan_values_equal_xi_bit_for_bit():
    from epsteinzeta import epstein

    for n, s, chart, bounds, steps in _SCANS:
        grids = [scan(n, s, chart, bounds, steps)]
        # one block per sum cuts the scan's batch everywhere
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(epstein, "_BLOCK", 1)
            grids.append(scan(n, s, chart, bounds, steps))
        axes = grids[0].axes()
        for idx in np.ndindex(*steps):
            v = xi(n, s, chart.scales([axis[i] for axis, i in zip(axes, idx)]))
            sign = (1 if v.value > 0 else -1) if v.excludes_zero() else 0
            for grid in grids:
                assert (grid.labels[idx], grid.values[idx], grid.errs[idx]) == (sign, v.value, v.err)


@pytest.mark.parametrize("steps", [[1, 1], [3, 3], [5, 5]])
def test_scan_past_double_range_is_a_precision_error(steps):
    # the scales e^{+-533} of these chart points have squares past double
    # range: the scan stops, with no numpy warning
    with pytest.raises(PrecisionError):
        scan(3, 0.7, kratio_chart(3), [(700.0, 800.0)] * 2, steps)


def test_scan_keeps_tightest_evaluation_of_undecided_node():
    # a node on the zero crossing of Xi along the chart stays undecided
    # through every refinement; it reports its last, tightest evaluation
    chart = kratio_chart(3, 1)
    lo, hi = 1.2, 1.41  # Xi_3(0.7) changes sign on this stretch
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if xi(3, 0.7, chart.scales([mid]), EvalConfig(tol=1e-13)).value < 0:
            lo = mid
        else:
            hi = mid
    cfg = EvalConfig(tol=1e-3)
    grid = scan(3, 0.7, chart, [(lo, lo)], [1], cfg)
    assert grid.labels[0] == INDETERMINATE
    tightest = xi(3, 0.7, chart.scales([lo]), cfg.tighter(0.1).tighter(0.1).tighter(0.1))
    assert (grid.values[0], grid.errs[0]) == (tightest.value, tightest.err)
    assert grid.errs[0] < xi(3, 0.7, chart.scales([lo]), cfg).err


def test_scan_origin_negative_n3():
    grid = scan(3, 0.7, kratio_chart(3), [(-2.0, 2.0)] * 2, [21, 21])
    origin = grid.cell_of([0.0, 0.0])
    assert grid.labels[origin] == NEGATIVE
    conn = certify_connected(grid)
    assert conn.negative_cells > 0
    assert conn.connected
    conv = certify_discrete_convex(grid)
    assert conv.ok


def test_scan_all_positive_in_positivity_interval():
    grid = scan(10, 2.5, kratio_chart(10, 2), [(-2.0, 2.0)] * 2, [9, 9])
    assert np.all(grid.labels == POSITIVE)
    conn = certify_connected(grid)
    assert conn.empty
    assert conn.components == 0


@pytest.mark.parametrize("s", [0.3, 0.7, 1.2])
def test_scan_wide_bounds_contains_both_signs(s):
    # for n <= 9 the negative region is never all of the chart: large
    # anisotropy turns Xi positive
    grid = scan(3, s, kratio_chart(3), [(-4.0, 4.0)] * 2, [11, 11])
    assert np.any(grid.labels == POSITIVE)
    assert np.any(grid.labels == NEGATIVE)


def test_scan_deterministic_and_axis_reorder():
    chart = kratio_chart(3)
    grid1 = scan(3, 0.7, chart, [(-1.0, 1.0)] * 2, [5, 5])
    grid2 = scan(3, 0.7, chart, [(-1.0, 1.0)] * 2, [5, 5])
    assert np.array_equal(grid1.labels, grid2.labels)
    assert np.array_equal(grid1.values, grid2.values)
    # swapping the chart columns relabels the axes: labels transpose
    swapped = scan(
        3, 0.7,
        type(chart)(chart.A[:, ::-1]),
        [(-1.0, 1.0)] * 2,
        [5, 5],
    )
    assert np.array_equal(swapped.labels, grid1.labels.T)


def test_scan_rejects_out_of_range_s():
    with pytest.raises(DomainError):
        scan(3, 1.6, kratio_chart(3), [(-1.0, 1.0)] * 2, [3, 3])


@pytest.mark.parametrize("steps", [[0, 0], [3, 0], [-1, 2]])
def test_scan_rejects_step_counts_below_one(steps):
    with pytest.raises(DomainError, match="at least one step"):
        scan(3, 0.7, kratio_chart(3), [(-2.0, 2.0)] * 2, steps)


def test_scan_of_more_nodes_than_one_call_takes_is_a_domain_error():
    # refused before the grid is allocated: 20000^2 chart points would take
    # 6 GiB for the meshgrid alone; a 41^3 grid is still taken
    with pytest.raises(DomainError, match="131072"):
        scan(3, 0.7, standard_chart(3), [(-2.0, 2.0)] * 2, [20000, 20000])
    with pytest.raises(DomainError, match="131072"):
        scan(4, 1.1, kratio_chart(4), [(-2.0, 2.0)] * 3, [51, 51, 51])


def test_connected_full_grid():
    labels = np.full((7, 7), NEGATIVE, dtype=np.int8)
    report = certify_connected_from_labels(labels)
    assert report.components == 1 and report.connected


def certify_connected_from_labels(labels):
    from epsteinzeta.regions import RegionGrid

    chart = kratio_chart(labels.ndim + 1)
    grid = RegionGrid(
        chart=chart,
        n=labels.ndim + 1,
        s=0.5,
        bounds=tuple((0.0, 1.0) for _ in range(labels.ndim)),
        steps=labels.shape,
        labels=labels,
        values=np.zeros(labels.shape),
        errs=np.zeros(labels.shape),
    )
    return certify_connected(grid)


def test_connected_empty_region():
    labels = np.full((5, 5), POSITIVE, dtype=np.int8)
    report = certify_connected_from_labels(labels)
    assert report.empty
    assert report.connected


def test_connected_two_blobs():
    labels = np.full((9, 9), POSITIVE, dtype=np.int8)
    labels[1:3, 1:3] = NEGATIVE
    labels[6:8, 6:8] = NEGATIVE
    report = certify_connected_from_labels(labels)
    assert report.components == 2
    assert not report.connected


def bfs_components(labels):
    """Components holding a negative cell, by breadth-first search over the
    negative and indeterminate cells."""
    member = labels != POSITIVE
    seen = np.zeros(labels.shape, dtype=bool)
    count = 0
    for start in map(tuple, np.argwhere(labels == NEGATIVE)):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = [start]
        while queue:
            cell = queue.pop()
            for axis in range(labels.ndim):
                for step in (-1, 1):
                    nxt = list(cell)
                    nxt[axis] += step
                    nxt = tuple(nxt)
                    if 0 <= nxt[axis] < labels.shape[axis] and member[nxt] and not seen[nxt]:
                        seen[nxt] = True
                        queue.append(nxt)
    return count


def test_connected_matches_breadth_first_search():
    rng = np.random.default_rng(5)
    for trial in range(400):
        ndim = 1 + trial % 4
        shape = tuple(rng.integers(1, (30, 10, 6, 4)[ndim - 1], size=ndim, endpoint=True))
        weights = rng.dirichlet(np.ones(3))
        labels = rng.choice(
            np.array([NEGATIVE, INDETERMINATE, POSITIVE], dtype=np.int8), size=shape, p=weights
        )
        report = certify_connected_from_labels(labels)
        expected = bfs_components(labels)
        assert report.components == expected, labels
        assert report.connected == (expected <= 1)
        assert report.negative_cells == np.sum(labels == NEGATIVE)
        assert report.indeterminate_cells == np.sum(labels == INDETERMINATE)
        assert report.empty == (report.negative_cells == 0)


def test_connected_serpentine():
    # one snake through every other row of a 41x41 grid: the slowest shape
    # for label propagation, and one indeterminate bend still joins it
    labels = np.full((41, 41), POSITIVE, dtype=np.int8)
    labels[::2] = NEGATIVE
    labels[1::4, -1] = NEGATIVE
    labels[3::4, 0] = NEGATIVE
    labels[19, labels[19] == NEGATIVE] = INDETERMINATE
    report = certify_connected_from_labels(labels)
    assert bfs_components(labels) == 1
    assert report.components == 1 and report.connected
    labels[21, -1] = POSITIVE  # cut the snake at the bend after row 20
    assert bfs_components(labels) == 2
    assert certify_connected_from_labels(labels).components == 2


def test_discrete_convex_disk():
    report = certify_discrete_convex(disk_labels())
    assert report.ok
    # a full-dimensional set is decided by the hull test alone
    assert report.pairs_checked == 0


def test_discrete_convex_holds_without_triangulation(monkeypatch):
    # a full-rank 3-d set is the one path that reaches Delaunay, and its
    # facet test decides a convex set; Delaunay only names a witness
    import scipy.spatial

    def refuse(*args, **kwargs):
        raise AssertionError("Delaunay called on a convex set")

    monkeypatch.setattr(scipy.spatial, "Delaunay", refuse)
    i, j, k = np.indices((9, 9, 9)) - 4
    ball = np.where(i * i + j * j + k * k <= 10, NEGATIVE, POSITIVE).astype(np.int8)
    assert certify_discrete_convex(ball).ok
    grid = scan(3, 0.7, kratio_chart(3), [(-2.0, 2.0)] * 2, [21, 21])
    assert certify_discrete_convex(grid).ok


def span_points(negative):
    """Coordinates of the cells in an orthonormal basis of their affine span."""
    offsets = negative - negative[0]
    _, sing, vt = np.linalg.svd(offsets, full_matrices=False)
    return offsets @ vt[sing > 1e-9 * sing[0]].T


def seeded_planar_sets():
    """Planar negative sets: polygons cut from 2-d grids by lattice half-planes,
    whose boundaries run through many collinear cells, the same with holes and
    scattered cells, the 41x41 (3, 0.7) `kratio_chart` region, and random
    subsets of lattice planes in 3-d grids."""
    rng = np.random.default_rng(23)
    for trial in range(120):
        shape = tuple(rng.integers(4, 16, size=2))
        cells = np.indices(shape).reshape(2, -1).T
        inside = np.ones(len(cells), dtype=bool)
        for _ in range(rng.integers(1, 5)):
            inside &= cells @ rng.integers(-3, 4, size=2) <= rng.integers(0, 20)
        labels = np.where(inside, NEGATIVE, POSITIVE).reshape(shape).astype(np.int8)
        if trial % 3:
            labels[rng.random(shape) < 0.1 * (trial % 3)] = INDETERMINATE
        yield labels
    yield scan(3, 0.7, kratio_chart(3), [(-2.0, 2.0)] * 2, [41, 41]).labels
    for _ in range(60):
        shape = tuple(rng.integers(3, 8, size=3))
        cells = np.indices(shape).reshape(3, -1).T
        normal = rng.integers(-2, 3, size=3)
        normal[rng.integers(3)] = rng.choice([-1, 1])
        plane = (cells @ normal == rng.integers(-2, 6)) & (rng.random(len(cells)) < 0.8)
        yield np.where(plane, NEGATIVE, POSITIVE).reshape(shape).astype(np.int8)


def test_ring_vertices_match_scipy_convex_hull():
    # the monotone chain's ring, over the cells the filter keeps, has the
    # vertices of the qhull hull of all the negatives
    from scipy.spatial import ConvexHull

    from epsteinzeta.regions import _ring

    seen = set()
    for labels in seeded_planar_sets():
        negative = np.argwhere(labels == NEGATIVE)
        if len(negative) < 3:
            continue
        points = span_points(negative)
        if points.shape[1] != 2:
            continue
        ring = _ring(labels, negative, points)
        assert len(set(ring.tolist())) == len(ring)
        assert set(ring.tolist()) == set(ConvexHull(points).vertices.tolist()), labels
        # counter-clockwise: every turn of the ring is to the left
        corner = points[ring]
        edge = np.roll(corner, -1, axis=0) - corner
        turn = edge[:, 0] * np.roll(edge[:, 1], -1) - edge[:, 1] * np.roll(edge[:, 0], -1)
        assert (turn > 0.5).all()
        seen.add((labels.ndim, len(negative) > len(ring)))
    # some ring in each dimension leaves negatives out
    assert {(2, True), (3, True)} <= seen


def test_planar_scans_and_witnesses_never_import_scipy_spatial():
    # a fresh interpreter: a 2-d chart scan with both certifiers, and a
    # planar set with a witness, decided without scipy.spatial
    import os
    import subprocess
    import sys

    import epsteinzeta

    code = """
import sys
import numpy as np
import epsteinzeta as ez
grid = ez.scan(3, 0.7, ez.kratio_chart(3), [(-2.0, 2.0)] * 2, [9, 9])
assert ez.certify_connected(grid).connected
assert ez.certify_discrete_convex(grid).ok
labels = np.full((21, 21), 1, dtype=np.int8)
labels[2:19, 2:8] = -1
labels[2:8, 2:19] = -1
assert ez.certify_discrete_convex(labels).witness is not None
sys.exit('scipy.spatial was imported' if 'scipy.spatial' in sys.modules else 0)
"""
    src = os.path.dirname(os.path.dirname(epsteinzeta.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_discrete_convex_l_shape_fails_with_witness():
    report = certify_discrete_convex(l_shape_labels())
    assert not report.ok
    vertices, cell = report.witness
    assert certify_discrete_convex(disk_labels()).witness is None
    # the witness cell is positive and lies in the simplex of its vertices
    labels = l_shape_labels()
    assert labels[cell] == POSITIVE
    assert len(vertices) == 3
    assert all(labels[v] == NEGATIVE for v in vertices)
    assert in_simplex(cell, vertices)


def in_simplex(cell, vertices):
    # barycentric coordinates of cell with respect to the dim+1 vertices
    corners = np.array(vertices, dtype=float)
    edges = (corners[1:] - corners[0]).T
    lam = np.linalg.solve(edges, np.array(cell, dtype=float) - corners[0])
    return bool(np.all(lam >= -1e-12) and lam.sum() <= 1.0 + 1e-12)


def test_discrete_convex_hull_witness_names_the_simplex():
    # three negatives whose triangle holds (1, 1); no segment between two
    # of them passes through it, so the witness is the whole simplex
    labels = np.full((5, 5), POSITIVE, dtype=np.int8)
    for cell in [(0, 0), (3, 1), (1, 3)]:
        labels[cell] = NEGATIVE
    report = certify_discrete_convex(labels)
    assert not report.ok
    vertices, cell = report.witness
    assert sorted(vertices) == [(0, 0), (1, 3), (3, 1)]
    assert labels[cell] == POSITIVE
    assert in_simplex(cell, vertices)


def test_discrete_convex_collinear_sets_checked_pairwise():
    # one column of negatives with a one-cell gap has no 2-d hull: the
    # interval test along its line finds the gap between the two ends
    labels = np.full((13, 4), POSITIVE, dtype=np.int8)
    labels[2:5, 1] = NEGATIVE
    labels[6:8, 1] = NEGATIVE
    report = certify_discrete_convex(labels)
    assert not report.ok
    (a, b), cell = report.witness
    assert labels[a] == labels[b] == NEGATIVE
    assert labels[cell] == POSITIVE
    assert cell[1] == 1 and min(a[0], b[0]) < cell[0] < max(a[0], b[0])
    # a gapless row of k negatives passes; no pairwise test remains
    k = 9
    row = np.full((5, k), POSITIVE, dtype=np.int8)
    row[2, :] = NEGATIVE
    report = certify_discrete_convex(row)
    assert report.ok
    assert report.pairs_checked == 0


def test_discrete_convex_coplanar_triangle_in_3d():
    # the triangle of the 2-d witness test, lying in the plane z = 0 of a
    # 3-d grid: the set has no 3-d hull, and no segment between two of its
    # cells meets a lattice cell, yet its triangle holds (1, 1, 0)
    labels = np.full((4, 4, 2), POSITIVE, dtype=np.int8)
    triangle = [(0, 0, 0), (2, 1, 0), (1, 3, 0)]
    for cell in triangle:
        labels[cell] = NEGATIVE
    report = certify_discrete_convex(labels)
    assert not report.ok
    vertices, cell = report.witness
    assert cell in [(1, 1, 0), (1, 2, 0)]
    assert sorted(vertices) == sorted(triangle)


@pytest.mark.parametrize("cell", [(20, 10), (20, 30), (0, 20)])
def test_discrete_convex_finds_a_cell_on_a_long_hull_edge(cell):
    # the lattice triangle (0, 0), (40, 20), (0, 40) of a 41x41 grid is
    # negative but for one cell on an edge between two far corners
    i, j = np.indices((41, 41))
    labels = np.where((2 * j >= i) & (2 * j <= 80 - i), NEGATIVE, POSITIVE).astype(np.int8)
    labels[cell] = POSITIVE
    report = certify_discrete_convex(labels)
    assert not report.ok
    vertices, witness = report.witness
    assert witness == cell
    assert sorted(vertices) == [(0, 0), (0, 40), (40, 20)]


def hull_oracle(negatives, cells):
    """Which cells lie in the convex hull of the negatives (at most 8).

    By Caratheodory a point of the hull lies in the simplex of some affinely
    independent subset of at most dim + 1 negatives; each subset's
    barycentric coordinates come from its Gram system, whose integer
    determinant is 0 exactly when the subset is degenerate.
    """
    negatives = np.array(negatives, dtype=float)
    cells = np.array(cells, dtype=float).reshape(-1, negatives.shape[1])
    inside = np.zeros(len(cells), dtype=bool)
    for k in range(2, min(len(negatives), negatives.shape[1] + 1) + 1):
        for subset in itertools.combinations(negatives, k):
            edges = (np.array(subset[1:]) - subset[0]).T
            gram = edges.T @ edges
            if abs(np.linalg.det(gram)) < 0.5:
                continue
            lam = np.linalg.solve(gram, edges.T @ (cells - subset[0]).T)
            residual = np.abs(cells - subset[0] - (edges @ lam).T).max(axis=1)
            inside |= (residual < 1e-9) & (lam.min(axis=0) > -1e-9) & (lam.sum(axis=0) < 1 + 1e-9)
    return inside


def seeded_negative_sets(count):
    """(labels, kind): random, ball, collinear and coplanar sets of 2..8
    negative cells in grids of dims 1-3, with scattered indeterminate cells."""
    rng = np.random.default_rng(2024)
    kinds = ["random", "ball", "collinear", "coplanar"]
    for i in range(count):
        dim = 1 + i % 3
        kind = kinds[(i // 3) % 4]
        shape = tuple(rng.integers(3, 7 if dim < 3 else 5, size=dim))
        grid = np.stack(np.meshgrid(*map(np.arange, shape), indexing="ij"), axis=-1).reshape(-1, dim)
        if kind == "ball":
            center = rng.uniform(0, np.array(shape) - 1)
            pool = grid[np.argsort(((grid - center) ** 2).sum(axis=1))[: rng.integers(2, 9)]]
        elif kind == "collinear":
            step = rng.integers(-2, 3, size=dim)
            step[rng.integers(dim)] = rng.choice([-1, 1])
            line = rng.choice(grid) + np.outer(np.arange(-6, 7), step)
            pool = line[np.all((line >= 0) & (line < shape), axis=1)]
            if len(pool) < 2:  # the step leaves the grid: take a row instead
                pool = grid[np.all(grid[:, 1:] == grid[0, 1:], axis=1)]
        elif kind == "coplanar" and dim == 3:
            u, v = rng.integers(-1, 2, size=(2, 3))
            ab = np.stack(np.meshgrid(np.arange(-4, 5), np.arange(-4, 5)), axis=-1).reshape(-1, 2)
            plane = rng.choice(grid) + ab @ np.array([u, v])
            pool = np.unique(plane[np.all((plane >= 0) & (plane < shape), axis=1)], axis=0)
        else:
            pool = grid
        if len(pool) < 2:
            pool = grid
        picked = pool[rng.choice(len(pool), size=min(len(pool), rng.integers(2, 9)), replace=False)]
        labels = np.where(rng.random(shape) < 0.15, INDETERMINATE, POSITIVE).astype(np.int8)
        labels[tuple(picked.T)] = NEGATIVE
        yield labels, kind


def test_discrete_convex_matches_barycentric_oracle():
    kinds = set()
    for labels, kind in seeded_negative_sets(240):
        negatives = np.argwhere(labels == NEGATIVE)
        positives = np.argwhere(labels == POSITIVE)
        report = certify_discrete_convex(labels)
        kinds.add((labels.ndim, kind))
        assert report.pairs_checked == 0
        assert report.ok == (not hull_oracle(negatives, positives).any()), (kind, labels)
        if not report.ok:
            vertices, cell = report.witness
            assert labels[cell] == POSITIVE
            assert all(labels[v] == NEGATIVE for v in vertices)
            assert hull_oracle(vertices, [cell])[0]
    assert (3, "coplanar") in kinds and (3, "collinear") in kinds and (1, "random") in kinds


def test_center_solution_standard_chart():
    assert np.allclose(center_solution(standard_chart(4)), 0.0)
    assert np.allclose(center_solution(kratio_chart(4)), 0.0)
    chart_ones = standard_chart(3, v=np.ones(3))
    assert np.allclose(center_solution(chart_ones), 0.0)


def test_center_cell_is_negative_when_region_nonempty():
    chart = kratio_chart(3)
    grid = scan(3, 0.7, chart, [(-2.0, 2.0)] * 2, [21, 21])
    center = center_solution(chart)
    assert center is not None
    assert grid.labels[grid.cell_of(center)] == NEGATIVE


def test_csv_round_trip():
    grid = scan(2, 0.5, kratio_chart(2), [(-1.0, 1.0)], [5])
    records = grid_records(grid)
    assert ",".join(records[0]) == "b1,sign,value,err"
    assert len(records) == 5
    for rec in records:
        assert list(rec) == ["b1", "sign", "value", "err"]
        assert rec["sign"] in "+-0"
        assert all(isinstance(rec[k], float) for k in ("b1", "value", "err"))


def test_json_schema():
    grid = scan(2, 0.5, kratio_chart(2), [(-1.0, 1.0)], [3])
    payload = grid_to_json(grid)
    text = json.dumps(payload)
    parsed = json.loads(text)
    for key in ("chart", "bounds", "steps", "labels", "values", "errs"):
        assert key in parsed
    assert len(parsed["values"]) == len(parsed["errs"]) == 3
