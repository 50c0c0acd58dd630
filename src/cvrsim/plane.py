"""Rasterized continuous-space coverage machinery.

A city region is a bounding box cut into square pixels; demand is a
normalized mass per pixel. All geometry below (Voronoi assignment, range
limited cells, weighted centroids, polar moments, the coverage objective,
and the move-toward-centroid step) works on pixel centers, with sums taken
in ascending pixel index order so results do not depend on scheduling.

Every pixel's nearest generator comes from one exact tiled pass: the raster
is cut into 8x8-pixel tiles, each tile keeps only the generators that can be
nearest to some pixel center in its bounding box, and the tiles' candidates
are compared rank by rank, the squared distances dx*dx + dy*dy exactly and
ties going to the smallest generator index. :func:`coverage_summary` derives
every per-generator statistic from that pass; the objective, the Lloyd step
and the hold scores derive from the summary. Its one-cell references are in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .roadnet import RoadGraph, _box_distances

_TILE = 8  # tile side in pixels for the nearest-generator pass

# The most pixels one numpy array can index.
MAX_PIXELS = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class GridField:
    """Rasterized demand density over a bounding box.

    Pixels are squares of side ``resolution`` laid row-major from the lower
    left corner: pixel (ix, iy) has flat index iy * nx + ix and center
    (xmin + (ix + 0.5) * resolution, ymin + (iy + 0.5) * resolution).
    ``mass`` is nonnegative and sums to one.
    """

    xmin: float
    ymin: float
    resolution: float
    nx: int
    ny: int
    mass: np.ndarray      # flat (nx * ny,)
    centers: np.ndarray   # (nx * ny, 2)

    def __post_init__(self):
        self.mass.flags.writeable = False
        self.centers.flags.writeable = False

    @property
    def n_pixels(self) -> int:
        return self.nx * self.ny

    @cached_property
    def _tiles(self):
        """Pixel indices and center coordinates of the 8x8-pixel tiles, and their boxes.

        Returns (pix, col_x, row_y, col_lo, col_hi, row_lo, row_hi): pix is
        (tiles, 64), the row-major pixels of each tile in row-major tile order;
        col_x[c] holds the 8 center x values of tile column c and row_y[r] the
        8 center y values of tile row r, so pixel (i, j) of tile (r, c) is
        centered at (col_x[c, j], row_y[r, i]). That tile lies inside the box
        [col_lo[c], col_hi[c]] x [row_lo[r], row_hi[r]]. Edge tiles repeat
        their last real row and column, so every box bounds real centers only.
        """
        t = _TILE
        ix = np.minimum(np.arange(-(-self.nx // t) * t), self.nx - 1).reshape(-1, t)
        iy = np.minimum(np.arange(-(-self.ny // t) * t), self.ny - 1).reshape(-1, t)
        pix = (iy[:, None, :, None] * self.nx + ix[None, :, None, :]).reshape(-1, t * t)
        col_x = self.centers[ix, 0]
        row_y = self.centers[iy * self.nx, 1]
        return (pix, col_x, row_y,
                col_x.min(axis=1)[:, None], col_x.max(axis=1)[:, None],
                row_y.min(axis=1)[:, None], row_y.max(axis=1)[:, None])


def raster_shape(box, resolution: float) -> tuple[int, int]:
    """Columns and rows (nx, ny) of the pixels of side ``resolution`` covering ``box``.

    Raises ValueError, before any array is made, for a degenerate box and for
    a raster whose pixel count is not finite or exceeds :data:`MAX_PIXELS`.
    """
    xmin, ymin, xmax, ymax = (float(b) for b in box)
    if xmax <= xmin or ymax <= ymin or resolution <= 0:
        raise ValueError(f"degenerate box {box!r} at resolution {resolution}")
    cols = (xmax - xmin) / resolution - 1e-9
    rows = (ymax - ymin) / resolution - 1e-9
    if not (math.isfinite(cols) and math.isfinite(rows)):
        raise ValueError(f"a raster at resolution {resolution} has a non-finite pixel count")
    nx, ny = math.ceil(cols), math.ceil(rows)
    if nx * ny > MAX_PIXELS:
        raise ValueError(f"a raster at resolution {resolution} has {cols:.4g} x {rows:.4g} "
                         f"pixels, more than the {MAX_PIXELS} an array can index")
    return nx, ny


def _grid_geometry(box, resolution: float):
    nx, ny = raster_shape(box, resolution)
    xmin, ymin = float(box[0]), float(box[1])
    ix = np.arange(nx)
    iy = np.arange(ny)
    cx = xmin + (ix + 0.5) * resolution
    cy = ymin + (iy + 0.5) * resolution
    gx, gy = np.meshgrid(cx, cy)  # row-major: index iy * nx + ix
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    return xmin, ymin, nx, ny, centers


def _field_from_raw(resolution, raw: np.ndarray, xmin, ymin, nx, ny, centers) -> GridField:
    total = raw.sum()
    if not total > 0:
        raise ValueError("rasterized density is identically zero")
    return GridField(
        xmin=xmin, ymin=ymin, resolution=float(resolution),
        nx=nx, ny=ny, mass=raw / total, centers=centers,
    )


def mixture_density(points, components) -> np.ndarray:
    """Density of a 2-D Gaussian mixture at each row of ``points``.

    components: iterable of (weight, mean, cov) with positive definite 2x2
    covariances; the weights are used as given. Raises ValueError when a
    covariance has no Cholesky factor.
    """
    points = np.asarray(points, dtype=np.float64)
    density = np.zeros(len(points))
    for weight, mean, cov in components:
        cov = np.asarray(cov, dtype=np.float64)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError(f"covariance {cov.tolist()}") from None
        delta = points - np.asarray(mean, dtype=np.float64)
        # solve L z = delta^T, quadratic form = |z|^2
        z = np.linalg.solve(chol, delta.T)
        quad = np.einsum("ij,ij->j", z, z)
        density += float(weight) * np.exp(-0.5 * quad) / (2.0 * np.pi * chol[0, 0] * chol[1, 1])
    return density


def rasterize_mixture(box, resolution: float, components) -> GridField:
    """Rasterize a 2-D Gaussian mixture onto a pixel grid.

    components: iterable of (weight, mean, cov) with weights >= 0 summing to
    one and positive definite 2x2 covariances. The pixel masses are the
    mixture density at pixel centers, renormalized to sum to one.
    """
    xmin, ymin, nx, ny, centers = _grid_geometry(box, resolution)
    components = list(components)
    weights = np.array([float(w) for w, _, _ in components])
    if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("component weights must be nonnegative and sum to 1")
    raw = mixture_density(centers, components)
    return _field_from_raw(resolution, raw, xmin, ymin, nx, ny, centers)


def rasterize_node_mass(box, resolution: float, graph: RoadGraph, node_mass) -> GridField:
    """Deposit each node's probability mass into the pixel containing it."""
    xmin, ymin, nx, ny, centers = _grid_geometry(box, resolution)
    node_mass = np.asarray(node_mass, dtype=np.float64)
    coords = graph.coords
    fx = (coords[:, 0] - xmin) / resolution
    fy = (coords[:, 1] - ymin) / resolution
    outside = (fx < -1e-9) | (fy < -1e-9) | (fx > nx + 1e-9) | (fy > ny + 1e-9)
    if outside.any():
        bad = int(np.flatnonzero(outside)[0])
        raise ValueError(f"node {bad} at {coords[bad].tolist()} lies outside {box!r}")
    ix = np.clip(fx.astype(np.int64), 0, nx - 1)
    iy = np.clip(fy.astype(np.int64), 0, ny - 1)
    raw = np.zeros(nx * ny)
    np.add.at(raw, iy * nx + ix, node_mass)
    return _field_from_raw(resolution, raw, xmin, ymin, nx, ny, centers)


def _nearest_generator(field: GridField, gens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest generator of every pixel center and its squared distance.

    A tile keeps the generators whose squared distance to its box is at most
    (1 + 1e-9) times the smallest squared distance at which some generator
    reaches the box's far corner. Rounding is monotone, so the computed
    distance from a pixel to a generator never falls below that generator's
    box distance nor exceeds its far-corner distance: every generator that
    ties for the nearest survives, and every tile keeps at least one
    candidate, which rank 0 below needs.

    The tiles are sorted by candidate count, largest first, so those with an
    r-th candidate form a prefix. Rank 0 fills every tile; each later rank
    takes the r-th candidate wherever d2 = dx*dx + dy*dy is strictly smaller.
    Candidates ascend, so ties stay with the smallest index. d2 is formed as
    dy*dy + dx*dx from each tile's column and row coordinates, the same
    rounded sum since floating-point addition commutes.
    """
    pix, col_x, row_y, col_lo, col_hi, row_lo, row_hi = field._tiles
    gx, gy = gens[:, 0], gens[:, 1]
    near_x, far_x = _box_distances(col_lo, col_hi, gx)
    near_y, far_y = _box_distances(row_lo, row_hi, gy)
    near = (near_x[None, :, :] + near_y[:, None, :]).reshape(len(pix), -1)
    far = (far_x[None, :, :] + far_y[:, None, :]).reshape(len(pix), -1)
    keep = near <= far.min(axis=1, keepdims=True) * (1.0 + 1e-9)
    counts = keep.sum(axis=1)
    gen = np.flatnonzero(keep) % len(gens)  # grouped by tile, generators ascending
    order = np.argsort(-counts, kind="stable")
    starts = (np.cumsum(counts) - counts)[order]
    counts = counts[order]
    x = col_x[order % len(col_x)]
    y = row_y[order // len(col_x)]
    best = np.empty((len(order), _TILE, _TILE))
    owner = np.empty((len(order), _TILE, _TILE), dtype=np.int32)
    for r in range(counts[0]):
        m = int(np.count_nonzero(counts > r))
        g = gen[starts[:m] + r]
        dx = x[:m] - gx[g, None]
        dy = y[:m] - gy[g, None]
        d2 = (dy * dy)[:, :, None] + (dx * dx)[:, None, :]
        g = g[:, None, None]
        if r == 0:
            best[...] = d2
            owner[...] = g
        else:
            b = best[:m]
            np.copyto(owner[:m], g, where=d2 < b)
            np.minimum(b, d2, out=b)
    assignment = np.empty(field.n_pixels, dtype=np.int32)
    own_d2 = np.empty(field.n_pixels)
    assignment[pix[order]] = owner.reshape(len(order), -1)
    own_d2[pix[order]] = best.reshape(len(order), -1)
    return assignment, own_d2


def _generators(generators) -> np.ndarray:
    gens = np.atleast_2d(np.asarray(generators, dtype=np.float64))
    if gens.size == 0:
        raise ValueError("no generators")
    if not np.isfinite(gens).all():
        raise ValueError("generator coordinates must be finite")
    return gens


def plane_voronoi(field: GridField, generators) -> np.ndarray:
    """Assign each pixel center to its Euclidean-nearest generator.

    Returns flat int32 generator indices. The squared distances are compared
    exactly as dx*dx + dy*dy; ties go to the smallest index.
    """
    return _nearest_generator(field, _generators(generators))[0]


@dataclass(frozen=True)
class CoverageSummary:
    """One-pass per-generator statistics of a range-limited partition.

    Centroids are NaN where the limited cell carries no mass. The polar
    moments are computed from the pass on first read: j_full over the
    unlimited Voronoi cell, j_limited over the cell cut to the coverage radius.
    """

    assignment: np.ndarray
    own_d2: np.ndarray         # each pixel's squared distance to its generator
    mass: np.ndarray           # pixel masses
    in_range_mass: np.ndarray  # pixel masses, 0.0 beyond the coverage radius
    limited_mass: np.ndarray
    limited_centroid: np.ndarray  # (n, 2), NaN rows for massless cells

    @cached_property
    def j_full(self) -> np.ndarray:
        return np.bincount(self.assignment, weights=self.mass * self.own_d2,
                           minlength=len(self.limited_mass))

    @cached_property
    def j_limited(self) -> np.ndarray:
        return np.bincount(self.assignment, weights=self.in_range_mass * self.own_d2,
                           minlength=len(self.limited_mass))


def coverage_summary(field: GridField, generators, r_m: float) -> CoverageSummary:
    """Assignment, limited masses and centroids in one raster pass; moments on demand.

    The assignment is exactly plane_voronoi's (ties to the smallest index);
    a limited cell is the pixels a generator owns within r_m of it. Each
    statistic is one bincount over the pixels in ascending index order, so
    it equals a per-cell sum up to the order of the floating-point additions.
    """
    gens = _generators(generators)
    n = len(gens)
    assignment, own_d2 = _nearest_generator(field, gens)
    # Out of range a pixel weighs 0.0, which adds exactly +0.0 to its owner's sums.
    w_in = np.where(own_d2 <= r_m * r_m, field.mass, 0.0)
    mass_w = np.bincount(assignment, weights=w_in, minlength=n)
    sum_x = np.bincount(assignment, weights=w_in * field.centers[:, 0], minlength=n)
    sum_y = np.bincount(assignment, weights=w_in * field.centers[:, 1], minlength=n)
    with np.errstate(invalid="ignore", divide="ignore"):
        centroid = np.column_stack([sum_x, sum_y]) / mass_w[:, None]
    centroid[mass_w <= 0] = np.nan
    return CoverageSummary(assignment=assignment, own_d2=own_d2, mass=field.mass,
                           in_range_mass=w_in, limited_mass=mass_w, limited_centroid=centroid)


def coverage_objective(generators, field: GridField, r_m: float) -> float:
    """Sum of per-generator polar moments over range-limited cells."""
    return float(coverage_summary(field, generators, r_m).j_limited.sum())


def lloyd_step(generators, field: GridField, r_m: float) -> np.ndarray:
    """Move each generator to the centroid of its range-limited cell.

    Generators whose range-limited cell carries no mass stay put.
    """
    gens = _generators(generators).copy()
    summary = coverage_summary(field, gens, r_m)
    moving = summary.limited_mass > 0
    gens[moving] += summary.limited_centroid[moving] - gens[moving]
    return gens
