"""Sign-region scans of Xi over hyperplane charts, with connectivity and
discrete-convexity certification of the negative region.

A scan labels every node of a rectangular grid in chart coordinates with the
sign of Xi there; a sign is only asserted when the error bound excludes zero,
otherwise the node is marked indeterminate and keeps its tightest
evaluation.  All nodes are decided in one batched call (`decide_signs`),
which refines only the nodes still undecided.  The negative region in these
coordinates is convex, hence connected, and the certifiers check the discrete
shadow of both facts on the sampled grid: one 2j-adjacency component, and no
positive cell inside the convex hull of the negative cells, a test that is
exact in every rank of the negatives' affine span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import decide_signs
from .config import DEFAULT_CONFIG, EvalConfig
from .convexity import HyperplaneChart
from .errors import DomainError

__all__ = [
    "RegionGrid",
    "kratio_chart",
    "scan",
    "certify_connected",
    "ConnectivityReport",
    "certify_discrete_convex",
    "DiscreteConvexityReport",
    "center_solution",
    "grid_records",
    "grid_to_json",
]

NEGATIVE, INDETERMINATE, POSITIVE = -1, 0, 1
_LABEL_CHARS = {NEGATIVE: "-", INDETERMINATE: "0", POSITIVE: "+"}


@dataclass(frozen=True)
class RegionGrid:
    """Signs of Xi over a rectangular grid in chart coordinates."""

    chart: HyperplaneChart
    n: int
    s: float
    bounds: tuple[tuple[float, float], ...]
    steps: tuple[int, ...]
    labels: np.ndarray  # int8, values in {-1, 0, +1}
    values: np.ndarray
    errs: np.ndarray

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(lo, hi, k) for (lo, hi), k in zip(self.bounds, self.steps)]

    def indeterminate_fraction(self) -> float:
        return float(np.mean(self.labels == INDETERMINATE))

    def cell_of(self, point) -> tuple[int, ...]:
        """Grid index whose node is nearest to the chart point."""
        point = np.asarray(point, dtype=float)
        idx = []
        for x, axis in zip(point, self.axes()):
            idx.append(int(np.argmin(np.abs(axis - x))))
        return tuple(idx)


def kratio_chart(n: int, j: int | None = None) -> HyperplaneChart:
    """Built-in chart in log scale-ratio coordinates.

    The full matrix is n x (n-1) with (n-1)/n on the shifted diagonal and
    -1/n elsewhere; passing j keeps the first j ratio coordinates and pins
    the rest, which restricts the chart to an intersection of hyperplanes
    and preserves convexity of the scanned region.
    """
    if n < 2:
        raise DomainError("ratio chart needs n >= 2")
    full = np.full((n, n - 1), -1.0 / n)
    for l in range(n - 1):
        full[l + 1, l] = (n - 1.0) / n
    if j is None:
        j = n - 1
    if not 1 <= j <= n - 1:
        raise DomainError(f"free dimensions must be in 1..{n - 1}, got {j}")
    return HyperplaneChart(full[:, :j])


def scan(
    n: int,
    s: float,
    chart: HyperplaneChart,
    bounds,
    steps,
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> RegionGrid:
    """Label the sign of Xi_n(s; chart(b)) at every grid node."""
    if chart.n != n:
        raise DomainError(f"chart is {chart.n}-dimensional, expected {n}")
    if not 0.0 < s < n / 2.0:
        raise DomainError(f"s must lie in the critical range (0, {n / 2}), got {s}")
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    steps = tuple(int(k) for k in steps)
    if len(bounds) != chart.j or len(steps) != chart.j:
        raise DomainError("bounds and steps must match the chart's free dimensions")
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(bounds, steps)]
    shape = tuple(steps)
    nodes = [
        (n, s, chart.scales(np.array([axes[d][idx[d]] for d in range(chart.j)])))
        for idx in np.ndindex(*shape)
    ]
    decided = decide_signs(nodes, cfg)  # sign 0, undecided, is INDETERMINATE
    labels = np.array([sign for sign, _ in decided], dtype=np.int8).reshape(shape)
    values = np.array([value.value for _, value in decided]).reshape(shape)
    errs = np.array([value.err for _, value in decided]).reshape(shape)
    return RegionGrid(chart, n, s, bounds, steps, labels, values, errs)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConnectivityReport:
    negative_cells: int
    indeterminate_cells: int
    components: int  # components containing at least one negative cell
    connected: bool  # one component, or vacuously true when empty
    empty: bool


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent[p]
            x = p
            p = self.parent[x]
        return x

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def certify_connected(grid: RegionGrid) -> ConnectivityReport:
    """Union-find over 2j-neighbour adjacency of the negative cells.

    Indeterminate cells act as wildcards: they may join two negative patches
    but never count as negative themselves.
    """
    labels = grid.labels
    member = (labels == NEGATIVE) | (labels == INDETERMINATE)
    uf = _UnionFind()
    shape = labels.shape
    for idx in np.ndindex(*shape):
        if not member[idx]:
            continue
        uf.find(idx)
        for d in range(len(shape)):
            if idx[d] + 1 < shape[d]:
                nxt = idx[:d] + (idx[d] + 1,) + idx[d + 1 :]
                if member[nxt]:
                    uf.union(idx, nxt)
    negative = [tuple(i) for i in np.argwhere(labels == NEGATIVE)]
    roots = {uf.find(i) for i in negative}
    return ConnectivityReport(
        negative_cells=len(negative),
        indeterminate_cells=int(np.sum(labels == INDETERMINATE)),
        components=len(roots),
        connected=len(roots) <= 1,
        empty=len(negative) == 0,
    )


# ---------------------------------------------------------------------------
# Discrete convexity via the exact hull in the affine span
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteConvexityReport:
    negative_cells: int
    pairs_checked: int  # always 0: the hull test is exhaustive and examines no pairs
    ok: bool
    # (vertices, cell): a positive cell inside the hull of the negative
    # vertices, which are the two ends of a collinear set or else the r+1
    # corners of a simplex of the hull in its r-dimensional affine span
    witness: tuple[tuple[tuple[int, ...], ...], tuple[int, ...]] | None


def certify_discrete_convex(grid_or_labels) -> DiscreteConvexityReport:
    """Digital convexity: no positive cell inside the convex hull of the
    negative cells, decided exactly in every rank.

    The rank r of the negatives' affine span comes from an SVD of their
    offsets; the candidates are the positive cells of their bounding box on
    that span.  r = 1 is an interval test along the line; otherwise the
    hull's vertices, in span coordinates, are triangulated and every
    candidate is located in one call.  Only exact lattice membership counts:
    cells merely clipped by the hull would flag the boundary skin of a
    convex region.  Accepts a RegionGrid or a raw int8 label array.
    """
    labels = grid_or_labels.labels if isinstance(grid_or_labels, RegionGrid) else grid_or_labels
    negative = np.argwhere(labels == NEGATIVE)
    witness = _hull_witness(labels, negative) if len(negative) > 1 else None
    return DiscreteConvexityReport(len(negative), 0, witness is None, witness)


def _hull_witness(labels: np.ndarray, negative: np.ndarray):
    """(vertices, cell) for the first positive cell, in C order, inside the
    hull of two or more negative cells, or None."""
    origin = negative[0]
    _, sing, vt = np.linalg.svd(negative - origin, full_matrices=False)
    basis = vt[sing > 1e-9 * sing[0]]  # orthonormal rows spanning the offsets
    points = (negative - origin) @ basis.T
    lo, hi = negative.min(axis=0), negative.max(axis=0)
    cells = np.argwhere(labels[tuple(slice(a, b + 1) for a, b in zip(lo, hi))] == POSITIVE) + lo
    coords = (cells - origin) @ basis.T
    # an off-span lattice cell lies at least 1/|m| from the span, m a nonzero
    # integer vector of minors of the offsets: far above the projection's rounding
    on_span = np.abs(cells - origin - coords @ basis).max(axis=1) < 1e-8
    cells, coords = cells[on_span], coords[on_span]
    if not len(cells):
        return None
    if len(basis) == 1:
        t, x = points[:, 0], coords[:, 0]
        hit = np.flatnonzero((x > t.min() - 1e-9) & (x < t.max() + 1e-9))[:1]
        corners = [t.argmin(), t.argmax()]
    else:
        from scipy.spatial import ConvexHull, Delaunay

        hull = ConvexHull(points).vertices
        tri = Delaunay(points[hull])  # the hull's vertices triangulate all of it
        simplex = tri.find_simplex(coords, tol=1e-9)  # off-hull cells lie >= 1/|det| out
        hit = np.flatnonzero(simplex >= 0)[:1]
        corners = hull[tri.simplices[simplex[hit]]].ravel()
    if not len(hit):
        return None
    return tuple(map(tuple, negative[corners].tolist())), tuple(cells[hit[0]].tolist())


# ---------------------------------------------------------------------------
# Distinguished point and serialisation
# ---------------------------------------------------------------------------


def center_solution(chart: HyperplaneChart) -> np.ndarray | None:
    """Chart point mapping to equal log-scales, if the system is consistent.

    Solves A b + v = mean(v) * (1 .. 1) in the least-squares sense and
    accepts the solution when the residual is below 1e-8; that point lies in
    the negative region whenever the region is nonempty, since equal scales
    minimise Xi at fixed volume.
    """
    target = np.full(chart.n, float(np.mean(chart.v))) - chart.v
    b, *_ = np.linalg.lstsq(chart.A, target, rcond=None)
    residual = float(np.abs(chart.A @ b - target).max())
    if residual > 1e-8:
        return None
    return b


def grid_records(grid: RegionGrid) -> list[dict]:
    """One row per node in C order: chart coordinates b1 .. bj, then sign
    ('-', '0' for indeterminate, '+'), value and err."""
    axes = grid.axes()
    return [
        {
            **{f"b{d + 1}": float(axes[d][i]) for d, i in enumerate(idx)},
            "sign": _LABEL_CHARS[int(grid.labels[idx])],
            "value": float(grid.values[idx]),
            "err": float(grid.errs[idx]),
        }
        for idx in np.ndindex(*grid.steps)
    ]


def grid_to_json(grid: RegionGrid) -> dict:
    return {
        "chart": {
            "A": grid.chart.A.tolist(),
            "v": grid.chart.v.tolist(),
            "j": grid.chart.j,
        },
        "n": grid.n,
        "s": grid.s,
        "bounds": [list(b) for b in grid.bounds],
        "steps": list(grid.steps),
        "labels": [_LABEL_CHARS[int(v)] for v in grid.labels.ravel()],
        "values": grid.values.ravel().tolist(),
        "errs": grid.errs.ravel().tolist(),
    }
