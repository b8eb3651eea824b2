import itertools
import json

import numpy as np
import pytest

from epsteinzeta import (
    DomainError,
    EvalConfig,
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


def test_single_cell_scan_at_origin():
    grid = scan(2, 0.5, kratio_chart(2), [(0.0, 0.0)], [1])
    assert grid.labels[(0,)] == NEGATIVE
    assert grid.values[(0,)] == pytest.approx(xi(2, 0.5, ScaleVector.unit(2)).value)


def test_scan_values_equal_xi_bit_for_bit():
    chart = kratio_chart(3)
    grid = scan(3, 0.7, chart, [(-2.0, 2.0)] * 2, [5, 5])
    axes = grid.axes()
    for idx in np.ndindex(*grid.steps):
        v = xi(3, 0.7, chart.scales([axes[0][idx[0]], axes[1][idx[1]]]))
        assert (grid.values[idx], grid.errs[idx]) == (v.value, v.err)


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


def test_discrete_convex_disk():
    report = certify_discrete_convex(disk_labels())
    assert report.ok
    # a full-dimensional set is decided by the hull test alone
    assert report.pairs_checked == 0


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
