import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvrsim.plane import (
    GridField,
    coverage_objective,
    coverage_summary,
    lloyd_step,
    plane_voronoi,
    rasterize_mixture,
    rasterize_node_mass,
)
from cvrsim.roadnet import build_graph

from oracles import (
    brute_coverage_objective,
    brute_plane_assignment,
    polar_moment,
    r_limited_cell,
    weighted_centroid,
)

BIG_R = 1e9


def uniform_field(n=10, res=1.0):
    mass = np.full(n * n, 1.0 / (n * n))
    centers = np.array([[(i % n + 0.5) * res, (i // n + 0.5) * res] for i in range(n * n)])
    return GridField(xmin=0.0, ymin=0.0, resolution=res, nx=n, ny=n,
                     mass=mass, centers=centers)


def rect_field(nx, ny, res=1.0, xmin=0.0, ymin=0.0, mass=None):
    """nx-by-ny raster laid out as GridField documents; uniform mass by default."""
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    centers = np.column_stack([(xmin + (ix + 0.5) * res).ravel(),
                               (ymin + (iy + 0.5) * res).ravel()])
    if mass is None:
        mass = np.full(nx * ny, 1.0 / (nx * ny))
    return GridField(xmin=xmin, ymin=ymin, resolution=res, nx=nx, ny=ny,
                     mass=mass, centers=centers)


def point_mass_field(pixel_xy, n=10, res=1.0):
    """All mass in the pixel whose center is pixel_xy."""
    field = uniform_field(n, res)
    mass = np.zeros(field.n_pixels)
    idx = int(np.argmin(np.einsum("ij,ij->i", field.centers - pixel_xy,
                                  field.centers - pixel_xy)))
    mass[idx] = 1.0
    return GridField(xmin=0.0, ymin=0.0, resolution=res, nx=n, ny=n,
                     mass=mass, centers=field.centers)


# -- rasterize_mixture ----------------------------------------------------------

def test_isotropic_component_peaks_at_center_pixel():
    field = rasterize_mixture((0, 0, 50, 50), 1.0, [(1.0, [25, 25], [[16, 0], [0, 16]])])
    peak = field.centers[np.argmax(field.mass)]
    assert np.allclose(peak, [25.5, 25.5]) or np.allclose(peak, [24.5, 24.5])
    assert field.mass.sum() == pytest.approx(1.0, abs=1e-12)


def test_huge_variance_approaches_uniform():
    field = rasterize_mixture((0, 0, 10, 10), 1.0, [(1.0, [5, 5], [[1e8, 0], [0, 1e8]])])
    assert field.mass.max() / field.mass.min() < 1.01


def test_mirrored_components_give_mirror_symmetric_field():
    field = rasterize_mixture(
        (0, 0, 20, 10), 1.0,
        [(0.5, [5, 5], [[9, 0], [0, 9]]), (0.5, [15, 5], [[9, 0], [0, 9]])],
    )
    grid = field.mass.reshape(field.ny, field.nx)
    assert np.allclose(grid, grid[:, ::-1], atol=1e-12)


def test_non_positive_definite_covariance_rejected():
    with pytest.raises(ValueError, match=f"^{re.escape('covariance [[1.0, 2.0], [2.0, 1.0]]')}$"):
        rasterize_mixture((0, 0, 10, 10), 1.0, [(1.0, [5, 5], [[1, 2], [2, 1]])])


# -- rasterize_node_mass -----------------------------------------------------------

def line_graph(coords):
    nodes = [(i, x, y) for i, (x, y) in enumerate(coords)]
    edges = [(i, i + 1, 1.0) for i in range(len(coords) - 1)]
    return build_graph(nodes, edges)


def test_single_node_mass_lands_in_one_pixel():
    g = line_graph([(2.5, 2.5), (2.6, 2.6)])
    field = rasterize_node_mass((0, 0, 10, 10), 1.0, g, [1.0, 0.0])
    assert np.count_nonzero(field.mass) == 1
    assert field.mass.max() == 1.0


def test_same_pixel_masses_add():
    g = line_graph([(2.2, 2.2), (2.8, 2.8)])
    field = rasterize_node_mass((0, 0, 10, 10), 1.0, g, [0.3, 0.7])
    assert field.mass.max() == pytest.approx(1.0)


def test_four_nodes_four_pixels():
    g = build_graph(
        [(0, 1.5, 1.5), (1, 5.5, 1.5), (2, 1.5, 5.5), (3, 5.5, 5.5)],
        [(0, 1, 4.0), (0, 2, 4.0), (1, 3, 4.0)],
    )
    field = rasterize_node_mass((0, 0, 8, 8), 1.0, g, [0.25] * 4)
    assert np.count_nonzero(field.mass) == 4
    assert np.all(field.mass[field.mass > 0] == 0.25)


def test_node_outside_box_rejected():
    g = line_graph([(2.5, 2.5), (15.0, 2.5)])
    outside = "node 1 at [15.0, 2.5] lies outside (0, 0, 10, 10)"
    with pytest.raises(ValueError, match=f"^{re.escape(outside)}$"):
        rasterize_node_mass((0, 0, 10, 10), 1.0, g, [0.5, 0.5])


# -- plane_voronoi ---------------------------------------------------------------

def test_single_generator_owns_all_pixels():
    field = uniform_field()
    assert np.all(plane_voronoi(field, [[3.0, 3.0]]) == 0)


def test_mirrored_generators_split_with_tie_to_smaller_index():
    field = uniform_field(10)
    # pixel centers sit at x = 0.5..9.5; the column at x=5.5 is equidistant
    assignment = plane_voronoi(field, [[4.5, 5.0], [6.5, 5.0]])
    grid = assignment.reshape(10, 10)
    assert np.all(grid[:, :5] == 0)
    assert np.all(grid[:, 5] == 0)  # tie on the midline column goes to index 0
    assert np.all(grid[:, 6:] == 1)


def test_matches_brute_force_assignment():
    field = uniform_field(20)
    rng = np.random.default_rng(0)
    gens = rng.uniform(0, 20, size=(3, 2))
    assert np.array_equal(plane_voronoi(field, gens), brute_plane_assignment(field, gens))


@pytest.mark.parametrize("nx, ny", [(9, 17), (1, 1), (1, 40), (40, 1), (16, 8)])
def test_lattice_ties_go_to_smallest_index(nx, ny):
    field = rect_field(nx, ny)
    # Generators on the half-pixel lattice sit exactly between pixel centers
    # or on them, so many pixels tie; mirrored pairs about a pixel column and
    # duplicates (listed after the original) add more exact ties.
    rng = np.random.default_rng(nx * 100 + ny)
    lattice = rng.integers(-2, 2 * max(nx, ny) + 3, size=(12, 2)) * 0.5
    mirrored = np.array([[nx / 2 - 1.5, ny / 2], [nx / 2 + 1.5, ny / 2],
                         [0.5, ny + 1.0], [0.5, -1.0]])
    gens = np.vstack([mirrored, lattice, lattice[::3], mirrored[::-1]])
    summary = coverage_summary(field, gens, 2.0)
    assignment = plane_voronoi(field, gens)
    assert np.array_equal(summary.assignment, assignment)
    assert np.array_equal(assignment, brute_plane_assignment(field, gens))
    for j in range(len(gens)):
        if any(np.array_equal(gens[i], gens[j]) for i in range(j)):
            assert not np.any(assignment == j)  # a later duplicate never wins


def test_empty_generator_set_rejected():
    with pytest.raises(ValueError, match=f"^{re.escape('no generators')}$"):
        plane_voronoi(uniform_field(), np.empty((0, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_generator_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        plane_voronoi(uniform_field(), [[bad, 1.0], [3.0, 3.0]])


def test_every_pixel_assigned_exactly_once():
    field = uniform_field(15)
    gens = np.random.default_rng(1).uniform(0, 15, size=(5, 2))
    assignment = plane_voronoi(field, gens)
    assert assignment.shape == (field.n_pixels,)
    assert np.all((assignment >= 0) & (assignment < 5))


# -- range limit ---------------------------------------------------------------------

def test_huge_radius_recovers_full_cell():
    field = uniform_field(10)
    summary = coverage_summary(field, [[2.0, 2.0], [8.0, 8.0]], BIG_R)
    assert np.array_equal(summary.in_range_mass, field.mass)
    assert np.array_equal(summary.j_limited, summary.j_full)


def test_tiny_radius_keeps_at_most_own_pixel():
    field = uniform_field(10)
    summary = coverage_summary(field, [[2.5, 2.5]], 0.4)
    assert np.flatnonzero(summary.in_range_mass).tolist() == [2 * 10 + 2]


def test_disk_cell_area_within_one_pixel_ring():
    field = uniform_field(100)
    r = 25.0
    summary = coverage_summary(field, [[50.0, 50.0]], r)
    area = np.count_nonzero(summary.in_range_mass) * field.resolution ** 2
    assert abs(area - np.pi * r * r) <= 2 * np.pi * r * field.resolution


# -- limited centroids and polar moments ----------------------------------------------

def test_uniform_cell_centroid_is_geometric_center():
    field = uniform_field(10)
    summary = coverage_summary(field, [[5.0, 5.0]], BIG_R)
    assert np.allclose(summary.limited_centroid[0], [5.0, 5.0])


def test_point_mass_centroid_is_that_pixel():
    field = point_mass_field(np.array([3.5, 7.5]))
    summary = coverage_summary(field, [[0.0, 0.0]], BIG_R)
    assert np.allclose(summary.limited_centroid[0], [3.5, 7.5])


def test_two_pixel_weighted_mean():
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    field = GridField(xmin=-5, ymin=-5, resolution=10.0, nx=2, ny=1,
                      mass=np.array([0.25, 0.75]), centers=centers)
    summary = coverage_summary(field, [[0.0, 0.0]], BIG_R)
    assert summary.limited_centroid[0, 0] == pytest.approx(7.5)


def test_polar_moment_of_single_pixel_at_centroid_is_zero():
    field = point_mass_field(np.array([3.5, 3.5]))
    summary = coverage_summary(field, [[3.5, 3.5]], BIG_R)
    assert summary.j_full[0] == 0.0 and summary.j_limited[0] == 0.0


def test_polar_moment_equidistant_pixels():
    centers = np.array([[-3.0, 0.0], [3.0, 0.0]])
    field = GridField(xmin=-6, ymin=-1, resolution=6.0, nx=2, ny=1,
                      mass=np.array([0.5, 0.5]), centers=centers)
    summary = coverage_summary(field, [[0.0, 0.0]], BIG_R)
    assert summary.j_full[0] == pytest.approx(9.0)  # M=1, d=3
    assert summary.j_limited[0] == pytest.approx(9.0)


# -- coverage_objective ----------------------------------------------------------------

def test_objective_zero_when_mass_sits_on_generators():
    field = point_mass_field(np.array([2.5, 2.5]))
    assert coverage_objective([[2.5, 2.5]], field, BIG_R) == 0.0


def test_objective_single_pixel_at_distance():
    field = point_mass_field(np.array([2.5, 2.5]))
    assert coverage_objective([[5.5, 2.5]], field, BIG_R) == pytest.approx(9.0)
    assert coverage_objective([[5.5, 2.5]], field, 2.0) == 0.0  # outside radius


def test_objective_matches_brute_force():
    field = uniform_field(10)
    rng = np.random.default_rng(9)
    gens = rng.uniform(0, 10, size=(2, 2))
    for r in (BIG_R, 3.0):
        assert coverage_objective(gens, field, r) == pytest.approx(
            brute_coverage_objective(field, gens, r), rel=1e-12)


# -- lloyd_step ------------------------------------------------------------------------

def test_generator_at_centroid_is_fixed_point():
    field = uniform_field(10)
    gens = np.array([[5.0, 5.0]])
    assert np.allclose(lloyd_step(gens, field, BIG_R), gens)


def test_full_step_jumps_to_center_of_mass():
    field = uniform_field(10)
    gens = np.array([[1.0, 2.0]])
    assert np.allclose(lloyd_step(gens, field, BIG_R), [[5.0, 5.0]])


def test_zero_mass_cells_stay_put():
    field = point_mass_field(np.array([1.5, 1.5]))
    gens = np.array([[1.5, 1.5], [8.0, 8.0]])  # second cell has no mass
    out = lloyd_step(gens, field, BIG_R)
    assert np.allclose(out[1], [8.0, 8.0])
    summary = coverage_summary(field, gens, BIG_R)
    assert summary.limited_mass[1] == 0.0
    assert np.all(np.isnan(summary.limited_centroid[1]))


# -- identities and descent --------------------------------------------------------------

def test_fixed_partition_move_toward_centroid_never_increases_moment():
    # One generator owns the whole raster at every position, so its cell stays fixed.
    rng = np.random.default_rng(31)
    field = rasterize_mixture((0, 0, 20, 20), 1.0, [(1.0, [8, 12], [[20, 0], [0, 12]])])
    for g in rng.uniform(0, 20, size=(3, 2)):
        summary = coverage_summary(field, [g], BIG_R)
        c = summary.limited_centroid[0]
        j0 = summary.j_full[0]
        for lam in (0.1, 0.5, 1.0):
            x = g + lam * (c - g)
            assert coverage_summary(field, [x], BIG_R).j_full[0] <= j0 + 1e-12


def test_full_lloyd_descent_unlimited_radius():
    rng = np.random.default_rng(41)
    for _ in range(20):
        field = rasterize_mixture(
            (0, 0, 25, 25), 1.0,
            [(1.0, rng.uniform(5, 20, size=2), [[rng.uniform(4, 30), 0], [0, rng.uniform(4, 30)]])])
        gens = rng.uniform(0, 25, size=(4, 2))
        h = coverage_objective(gens, field, BIG_R)
        for _ in range(15):
            gens = lloyd_step(gens, field, BIG_R)
            h_next = coverage_objective(gens, field, BIG_R)
            assert h_next <= h + 1e-9 * max(h, 1e-12)
            h = h_next


def _limited_membership(field, gens, r):
    """(inside-some-limited-cell mask, owner) for descent bookkeeping."""
    summary = coverage_summary(field, gens, r)
    own_d2 = np.einsum(
        "ij,ij->i", field.centers - gens[summary.assignment],
        field.centers - gens[summary.assignment])
    return own_d2 <= r * r, summary.assignment


def test_finite_radius_descent_up_to_boundary_churn():
    # With a finite radius the full-step objective can rise by the mass of
    # pixels whose limited-cell membership flips (each worth at most r^2),
    # and by nothing else; net descent over the run still holds.
    rng = np.random.default_rng(51)
    field = rasterize_mixture((0, 0, 30, 30), 1.0, [(1.0, [15, 15], [[60, 0], [0, 60]])])
    r = 8.0
    gens = rng.uniform(0, 30, size=(5, 2))
    h_start = h = coverage_objective(gens, field, r)
    mask, owner = _limited_membership(field, gens, r)
    for _ in range(30):
        gens_next = lloyd_step(gens, field, r)
        mask_next, owner_next = _limited_membership(field, gens_next, r)
        churned = (mask != mask_next) | (mask & mask_next & (owner != owner_next))
        slack = field.mass[churned].sum() * r * r + field.mass.max() * field.resolution ** 2
        h_next = coverage_objective(gens_next, field, r)
        assert h_next <= h + slack
        gens, h, mask, owner = gens_next, h_next, mask_next, owner_next
    assert h < h_start


def test_centroid_stays_inside_cell_bounding_box():
    rng = np.random.default_rng(61)
    field = rasterize_mixture((0, 0, 20, 20), 1.0, [(1.0, [10, 6], [[25, 0], [0, 25]])])
    gens = rng.uniform(0, 20, size=(4, 2))
    summary = coverage_summary(field, gens, BIG_R)
    for i in range(4):
        if summary.limited_mass[i] <= 0:
            continue
        c = summary.limited_centroid[i]
        pts = field.centers[summary.assignment == i]
        assert pts[:, 0].min() <= c[0] <= pts[:, 0].max()
        assert pts[:, 1].min() <= c[1] <= pts[:, 1].max()


# -- bulk summary consistency -----------------------------------------------------------

def test_coverage_summary_matches_granular_ops():
    rng = np.random.default_rng(71)
    field = rasterize_mixture((0, 0, 25, 25), 1.0, [(1.0, [10, 15], [[40, 8], [8, 30]])])
    gens = rng.uniform(0, 25, size=(6, 2))
    r = 7.0
    summary = coverage_summary(field, gens, r)
    assignment = plane_voronoi(field, gens)
    assert np.array_equal(summary.assignment, assignment)
    for i in range(6):
        limited = r_limited_cell(assignment, field, i, gens[i], r)
        full = np.flatnonzero(assignment == i)
        assert summary.limited_mass[i] == pytest.approx(
            field.mass[limited].sum(), abs=1e-15)
        assert summary.j_limited[i] == pytest.approx(
            polar_moment(limited, field, gens[i]), rel=1e-9, abs=1e-12)
        assert summary.j_full[i] == pytest.approx(
            polar_moment(full, field, gens[i]), rel=1e-9, abs=1e-12)
        if summary.limited_mass[i] > 0:
            assert np.allclose(summary.limited_centroid[i],
                               weighted_centroid(limited, field), rtol=1e-9)


@st.composite
def fields_and_generators(draw):
    nx = draw(st.integers(1, 30))
    ny = draw(st.integers(1, 30))
    res = draw(st.sampled_from([0.25, 1.0, 3.0, 50.0, 9750.0 / 29]))
    xmin = draw(st.floats(-1000.0, 1000.0))
    ymin = draw(st.floats(-1000.0, 1000.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mass = rng.random(nx * ny) * (rng.random(nx * ny) < 0.7)
    mass[rng.integers(0, nx * ny)] += 1.0
    field = rect_field(nx, ny, res, xmin, ymin, mass / mass.sum())
    # lattice points (exact ties) and arbitrary points, inside and outside the box
    on_lattice = st.tuples(st.integers(-8, 2 * nx + 8), st.integers(-8, 2 * ny + 8)).map(
        lambda k: (xmin + k[0] * res / 2, ymin + k[1] * res / 2))
    anywhere = st.tuples(st.floats(xmin - 3 * nx * res, xmin + 4 * nx * res),
                         st.floats(ymin - 3 * ny * res, ymin + 4 * ny * res))
    gens = draw(st.lists(st.one_of(on_lattice, anywhere), min_size=1, max_size=12))
    gens += draw(st.lists(st.sampled_from(gens), max_size=4))  # duplicates
    r = draw(st.floats(0.0, 1.5 * math.hypot(nx * res, ny * res)))
    return field, np.array(gens), r


def assert_summary_exact(field, gens, r):
    """The summary's assignment and polar moments equal, bit for bit, those of
    the brute-force owners, summed in ascending pixel order."""
    summary = coverage_summary(field, gens, r)
    owner = brute_plane_assignment(field, gens)
    assert np.array_equal(summary.assignment, owner)
    dx = field.centers[:, 0] - gens[owner, 0]
    dy = field.centers[:, 1] - gens[owner, 1]
    d2 = dx * dx + dy * dy
    w_in = np.where(d2 <= r * r, field.mass, 0.0)
    n = len(gens)
    assert np.array_equal(summary.j_full, np.bincount(owner, weights=field.mass * d2, minlength=n))
    assert np.array_equal(summary.j_limited, np.bincount(owner, weights=w_in * d2, minlength=n))
    return summary


def crowded_generators(nx, ny):
    """Twelve copies of the first pixel center, and six half-pixel lattice points
    in the lower left 8x8 tile: that tile keeps more than eight candidates,
    even on a 1x1 raster. Five more generators lie anywhere around the box."""
    rng = np.random.default_rng(nx * 100 + ny)
    corner = [min(nx, 8), min(ny, 8)]
    lattice = rng.integers(0, 2 * np.array(corner) + 1, size=(6, 2)) / 2
    anywhere = rng.uniform(-2.0, [nx + 2.0, ny + 2.0], size=(5, 2))
    return np.vstack([lattice[:3], np.full((12, 2), 0.5), lattice[3:], anywhere])


@pytest.mark.parametrize("nx, ny", [(1, 1), (1, 40), (40, 1), (16, 16), (23, 9)])
def test_coverage_summary_exact_on_every_candidate_rank(nx, ny):
    mass = np.random.default_rng(nx + ny).random(nx * ny)
    field = rect_field(nx, ny, mass=mass / mass.sum())
    for r in (0.0, 1.5, 2.0 * math.hypot(nx, ny)):
        assert_summary_exact(field, crowded_generators(nx, ny), r)


@settings(max_examples=80, deadline=None)
@given(fields_and_generators())
def test_coverage_summary_exact_and_consistent_on_random_rasters(case):
    field, gens, r = case
    summary = assert_summary_exact(field, gens, r)
    assignment = plane_voronoi(field, gens)
    assert np.array_equal(summary.assignment, assignment)
    for i in range(len(gens)):
        limited = r_limited_cell(assignment, field, i, gens[i], r)
        full = np.flatnonzero(assignment == i)
        assert summary.limited_mass[i] == pytest.approx(
            field.mass[limited].sum(), rel=1e-12, abs=1e-15)
        assert summary.j_limited[i] == pytest.approx(
            polar_moment(limited, field, gens[i]), rel=1e-9, abs=1e-12)
        assert summary.j_full[i] == pytest.approx(
            polar_moment(full, field, gens[i]), rel=1e-9, abs=1e-12)
        if summary.limited_mass[i] > 0:
            assert np.allclose(summary.limited_centroid[i],
                               weighted_centroid(limited, field), rtol=1e-9)
        else:
            assert np.all(np.isnan(summary.limited_centroid[i]))
