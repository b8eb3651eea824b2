"""Sign-region scans of Xi over hyperplane charts, with connectivity and
discrete-convexity certification of the negative region.

A scan labels every node of a rectangular grid in chart coordinates with the
sign of Xi there; a sign is only asserted when the error bound excludes zero,
otherwise the node is marked indeterminate and keeps its tightest
evaluation.  The chart gives the scales of all nodes as one array, sorted
as a whole with no ScaleVector per node, and one batched engine call decides
them (`analysis._decide`), refining only the nodes still undecided.  Xi is
symmetric in the scales and the engine evaluates each distinct sorted scale
vector once per call, so mirror nodes of a symmetric chart, such as those
across the diagonal of a `kratio_chart` grid, cost one evaluation and get
the same bits.  The negative region in these coordinates is convex, hence
connected, and the certifiers check the discrete shadow of both facts on the
sampled grid: one 2j-adjacency component, and no positive cell inside the
convex hull of the negative cells, a test that is exact in every rank of the
negatives' affine span.  Rank 2, which covers every 2-d chart, builds the
hull by Andrew's monotone chain in numpy and plain Python and names a
witness by a fan triangle of it; only rank >= 3 loads `scipy.spatial`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _decide
from .config import DEFAULT_CONFIG, EvalConfig
from .convexity import HyperplaneChart
from .epstein import _array_nodes, _check_not_pole
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
    """Label the sign of Xi_n(s; chart(b)) at every grid node.

    The nodes' scales exp(v + A b) come from the chart as one (N, n) array,
    checked and sorted as a whole, and `analysis._decide` decides each
    distinct sorted scale vector once, refining the undecided ones; every
    node gets the bits of `xi` at its scales, or of its tightest refinement."""
    if chart.n != n:
        raise DomainError(f"chart is {chart.n}-dimensional, expected {n}")
    if not 0.0 < s < n / 2.0:
        raise DomainError(f"s must lie in the critical range (0, {n / 2}), got {s}")
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    steps = tuple(int(k) for k in steps)
    if len(bounds) != chart.j or len(steps) != chart.j:
        raise DomainError("bounds and steps must match the chart's free dimensions")
    if any(k < 1 for k in steps):
        raise DomainError(f"every axis needs at least one step, got {steps}")
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(bounds, steps)]
    shape = tuple(steps)
    _check_not_pole(n, s)
    # every node's chart point, in C order, and its scales from one chart call
    points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, chart.j)
    # sign 0, undecided, is INDETERMINATE
    decided = _decide([float(s)] * len(points), _array_nodes(chart._rows(points)), cfg)
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


def certify_connected(grid: RegionGrid) -> ConnectivityReport:
    """Components of the negative cells under 2j-neighbour adjacency.

    Indeterminate cells act as wildcards: they may join two negative patches
    but never count as negative themselves.  Every member cell (negative or
    indeterminate) starts labelled with its own flat index; each round it
    takes the least label across its faces with other members, then every
    label is replaced by the label of the cell it names.  Labels only fall
    and always name a member of the same component, so once no label moves
    each component carries one label, and the components are the distinct
    labels under the negative cells.
    """
    labels = grid.labels
    member = (labels == NEGATIVE) | (labels == INDETERMINATE)
    size = labels.size
    # non-members hold the sentinel size, which names itself at the end
    ids = np.append(np.where(member.ravel(), np.arange(size), size), size)
    while True:
        least = ids.copy()
        cells, old = least[:-1].reshape(labels.shape), ids[:-1].reshape(labels.shape)
        for axis in range(labels.ndim):
            head = (slice(None),) * axis + (slice(None, -1),)
            tail = (slice(None),) * axis + (slice(1, None),)
            np.minimum(cells[head], old[tail], out=cells[head], where=member[head])
            np.minimum(cells[tail], old[head], out=cells[tail], where=member[tail])
        least = least[least]
        if np.array_equal(least, ids):
            break
        ids = least
    negative = labels.ravel() == NEGATIVE
    components = len(np.unique(ids[:-1][negative]))
    return ConnectivityReport(
        negative_cells=int(negative.sum()),
        indeterminate_cells=int(np.sum(labels == INDETERMINATE)),
        components=components,
        connected=components <= 1,
        empty=not negative.any(),
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
    that span.  r = 1 is an interval test along the line; otherwise every
    candidate is tested against the facet planes of the hull, in span
    coordinates, in one product, and a simplex of the hull is found only to
    name a hit.  For r = 2 the hull is the ring of Andrew's monotone chain
    (`_ring`), its facets are its edges and the simplex is the fan triangle
    (v_0, v_i, v_i+1) of the ring that holds the hit; only r >= 3 loads
    `scipy.spatial`, for `ConvexHull` and `Delaunay`.  Only exact lattice
    membership counts: cells merely clipped by the hull would flag the
    boundary skin of a convex region.  Accepts a RegionGrid or a raw int8
    label array.
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
    elif len(basis) == 2:
        ring = _ring(labels, negative, points)
        corner = points[ring]
        edge = np.roll(corner, -1, axis=0) - corner
        # inward unit normals of the counter-clockwise edges; an off-hull
        # lattice cell lies at least 1/|integer normal| outside one
        inward = np.stack([-edge[:, 1], edge[:, 0]], axis=1) / np.hypot(edge[:, 0], edge[:, 1])[:, None]
        depth = coords @ inward.T - (corner * inward).sum(axis=1)
        hit = np.flatnonzero((depth >= -1e-9).all(axis=1))[:1]
        if len(hit):
            # the fan triangle (v_0, v_i, v_i+1) that holds the hit: the rays
            # v_0 v_2 .. v_0 v_m-2 turn counter-clockwise, and v_i is the last
            # whose ray has the hit strictly on its left (see `_ring`)
            ray = corner[2:-1] - corner[0]
            offset = coords[hit[0]] - corner[0]
            i = 1 + int((ray[:, 0] * offset[1] - ray[:, 1] * offset[0] > 0.5).sum())
            corners = ring[[0, i, i + 1]]
    else:
        from scipy.spatial import ConvexHull, Delaunay

        hull = ConvexHull(points)
        # inside iff on the inner side of every facet plane normal . x + offset = 0;
        # an off-hull lattice cell lies at least 1/|integer normal| outside one
        normals, offsets = hull.equations[:, :-1], hull.equations[:, -1]
        hit = np.flatnonzero((coords @ normals.T + offsets <= 1e-9).all(axis=1))[:1]
        if len(hit):
            # only a hit is triangulated, to name the simplex that holds it
            tri = Delaunay(points[hull.vertices])
            simplex = tri.find_simplex(coords[hit], tol=1e-9)
            corners = hull.vertices[tri.simplices[simplex]].ravel()
    if not len(hit):
        return None
    return tuple(map(tuple, negative[corners].tolist())), tuple(cells[hit[0]].tolist())


def _ring(labels: np.ndarray, negative: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Indices into `negative` of the vertices of its hull, counter-clockwise
    in the span coordinates `points` from the first, for negatives of rank 2:
    Andrew's monotone chain (Inf. Proc. Letters 9, 1979).

    The chain takes the cells in C order, the order of `negative`: it is
    lexicographic in their integer indices, so along one direction of their
    plane with ties broken along another, as the chain needs, and no tie is
    left to rounding.  A reflected order only swaps the two halves.
    A negative strictly between two negative neighbours along a grid axis is
    their midpoint, never a vertex, so the chain skips it.  Twice the area of
    a triangle of lattice cells in a lattice plane is the norm of an integer
    vector, 0 or at least 1, so a turn whose cross product is at most 0.5 is
    straight and drops its middle point."""
    negatives = labels == NEGATIVE
    between = np.zeros_like(negatives)
    for axis in range(labels.ndim):
        head = (slice(None),) * axis
        between[head + (slice(1, -1),)] |= negatives[head + (slice(None, -2),)] & negatives[head + (slice(2, None),)]
    chain = np.flatnonzero(~between[tuple(negative.T)])
    xy = points[chain].tolist()

    def half(order):
        kept: list[int] = []
        for k in order:
            bx, by = xy[k]
            while len(kept) > 1:
                (ox, oy), (ax, ay) = xy[kept[-2]], xy[kept[-1]]
                if (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) > 0.5:
                    break
                kept.pop()
            kept.append(k)
        return kept

    ends = range(len(chain))
    return chain[half(ends)[:-1] + half(ends[::-1])[:-1]]


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
