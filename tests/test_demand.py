import hashlib
import math
import re

import numpy as np
import pytest

from cvrsim.demand import (
    check_node_mass,
    check_profile,
    complement_mass,
    generate_requests,
    hellinger,
    mass_from_counts,
    synthesize_destination,
)
from cvrsim.scenario import build_config, desk_document

from test_city_trajectories import perfbench_module


# -- mass_from_counts ------------------------------------------------------------

def test_uniform_counts():
    assert np.allclose(mass_from_counts([1, 1, 1, 1]), [0.25, 0.25, 0.25, 0.25])


def test_skewed_counts():
    assert np.allclose(mass_from_counts([3, 1]), [0.75, 0.25])


def test_single_nonzero_count():
    assert np.allclose(mass_from_counts([0, 0, 5]), [0, 0, 1])


def test_all_zero_counts_rejected():
    with pytest.raises(ValueError, match=f"^{re.escape('all counts are zero')}$"):
        mass_from_counts([0, 0, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(bad):
    # a NaN sum passes the |sum - 1| test, so finiteness is checked first
    with pytest.raises(ValueError, match="finite"):
        mass_from_counts([bad, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        check_node_mass([bad, 0.5, 0.5])


@pytest.mark.parametrize("call, message", [
    (lambda: check_node_mass([[0.5, 0.5]]), "mass must be one-dimensional"),
    (lambda: synthesize_destination([1.0], [0.5, 0.5], 0.5), "1 vs 2 nodes"),
    (lambda: generate_requests([(60.0, 60.0)], [1.0], [0.5, 0.5], seed=1), "1 vs 2 nodes"),
], ids=["check_node_mass-2d", "synthesize_destination-lengths", "generate_requests-lengths"])
def test_node_masses_of_another_shape_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# Explicit ids (the names these cases had), so a case inserted in the list renames none.
@pytest.mark.parametrize("profile", [
    [(math.nan, 75.0)], [(math.inf, 75.0)], [(3600.0, math.inf)], [(3600.0, math.nan)],
    [(0.0, 75.0)], [(3600.0, -1.0)],
], ids=[f"profile{i}" for i in range(6)])
def test_malformed_profile_rejected(profile):
    # a non-finite entry would otherwise never close the arrival loop
    with pytest.raises(ValueError, match="entry 0"):
        check_profile(profile)


# -- complement_mass --------------------------------------------------------------

def test_complement_three_nodes():
    assert np.allclose(complement_mass([0.5, 0.3, 0.2]), [0.0, 0.4, 0.6])


def test_complement_point_mass():
    assert np.allclose(complement_mass([1.0, 0.0]), [0.0, 1.0])


def test_complement_of_uniform_rejected():
    with pytest.raises(ValueError, match=f"^{re.escape('uniform mass has no complement')}$"):
        complement_mass([0.25, 0.25, 0.25, 0.25])


# -- synthesize_destination ----------------------------------------------------------

def test_gamma_one_returns_destination_exactly():
    p_d = np.array([0.6, 0.4])
    out = synthesize_destination(p_d, [0.2, 0.8], 1.0)
    assert np.array_equal(out, p_d)


def test_gamma_zero_returns_complement_exactly():
    p_comp = np.array([0.2, 0.8])
    out = synthesize_destination([0.6, 0.4], p_comp, 0.0)
    assert np.array_equal(out, p_comp)


def test_gamma_half_blends():
    out = synthesize_destination([0.6, 0.4], [0.2, 0.8], 0.5)
    assert np.allclose(out, [0.4, 0.6])


def test_gamma_out_of_range_rejected():
    with pytest.raises(ValueError, match=f"^{re.escape('gamma=1.5 outside [0, 1]')}$"):
        synthesize_destination([1.0, 0.0], [0.0, 1.0], 1.5)


def test_blend_always_sums_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.random(6)
        b = rng.random(6)
        out = synthesize_destination(a / a.sum(), b / b.sum(), float(rng.random()))
        assert out.sum() == pytest.approx(1.0, abs=1e-9)
        assert (out >= 0).all()


# -- hellinger ------------------------------------------------------------------------

def test_identical_distributions_distance_zero():
    assert hellinger([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_disjoint_distributions_distance_one():
    assert hellinger([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


def test_half_versus_point_mass():
    expected = math.sqrt(1.0 - math.sqrt(0.5))  # 0.5411961001461971
    assert hellinger([0.5, 0.5], [1.0, 0.0]) == pytest.approx(expected, abs=1e-12)


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match=f"^{re.escape('(1,) vs (2,)')}$"):
        hellinger([1.0], [0.5, 0.5])


def test_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p, q, s = (rng.random(5) for _ in range(3))
        p, q, s = p / p.sum(), q / q.sum(), s / s.sum()
        assert hellinger(p, q) == pytest.approx(hellinger(q, p), abs=1e-15)
        assert hellinger(p, s) <= hellinger(p, q) + hellinger(q, s) + 1e-12
        assert 0.0 <= hellinger(p, q) <= 1.0
    assert hellinger(p, p) == 0.0


# -- generate_requests -------------------------------------------------------------------

def test_zero_rate_generates_nothing():
    assert generate_requests([(3600, 0.0)], [1.0], [1.0], seed=1) == []


def test_low_high_low_profile_count_near_expectation():
    profile = [(3600, 600.0), (3600, 1200.0), (3600, 600.0)]
    p = np.full(10, 0.1)
    requests = generate_requests(profile, p, p, seed=42)
    sigma = math.sqrt(2400.0)
    assert abs(len(requests) - 2400) <= 4 * sigma


def test_point_mass_origin():
    p_o = np.zeros(8)
    p_o[5] = 1.0
    p_d = np.full(8, 0.125)
    requests = generate_requests([(1800, 200.0)], p_o, p_d, seed=3)
    assert all(r.origin == 5 for r in requests)
    assert all(r.destination != 5 for r in requests)  # self trips resampled


def test_sorted_and_deterministic():
    p = np.full(4, 0.25)
    a = generate_requests([(3600, 100.0)], p, p, seed=9)
    b = generate_requests([(3600, 100.0)], p, p, seed=9)
    times = [r.t0 for r in a]
    assert times == sorted(times)
    assert [(r.origin, r.destination, r.t0) for r in a] == \
           [(r.origin, r.destination, r.t0) for r in b]
    c = generate_requests([(3600, 100.0)], p, p, seed=10)
    assert [(r.t0) for r in c] != times


def test_arrivals_stay_within_profile_span():
    p = np.full(3, 1 / 3)
    requests = generate_requests([(600, 60.0), (600, 0.0), (600, 120.0)], p, p, seed=5)
    for r in requests:
        assert 0 <= r.t0 <= 1800
        assert not (600 < r.t0 <= 1200)  # middle period is silent


def test_empirical_origin_frequencies_match():
    rng = np.random.default_rng(17)
    p_o = rng.random(12)
    p_o /= p_o.sum()
    p_d = np.full(12, 1 / 12)
    # one long period with ~1e5 expected arrivals
    requests = generate_requests([(3600, 1e5)], p_o, p_d, seed=23)
    counts = np.bincount([r.origin for r in requests], minlength=12)
    freq = counts / counts.sum()
    assert 0.5 * np.abs(freq - p_o).sum() <= 0.02


# SHA-256 of each request's (id, origin, destination, t0.hex(), t_mtol, t_ptol),
# drawn as World draws them for the desk scenario and for the benchmark's
# two-hour city, at sim.seed 1 and 7.
REQUEST_SHA256 = {
    ("desk", 1): "a14ea85b99ad1968615f58144232fe11950d57b53c05f2bce413db92f2b3042f",
    ("desk", 7): "1f889918bc6197d5a99be592611e00e35513a31d8ed21c63694799f3e67a4a19",
    ("city", 1): "5cfd9a3cbba6e6aacce9b2ec8af75f92541572f1e0bf233953f20a709b3b1568",
    ("city", 7): "6c6ed31c483f6ced4ec6f4e4a41b6dc07c546988f68287f502c11ead2be346a7",
}


@pytest.mark.parametrize("scenario, seed", list(REQUEST_SHA256))
def test_request_streams_are_pinned(scenario, seed):
    if scenario == "desk":
        doc = desk_document("do_nothing", seed=seed)
    else:
        doc = perfbench_module("workloads").city_document("cvr_graph", seed, 2)
    cfg = build_config(doc)
    requests = generate_requests(cfg.profile, cfg.origin_mass, cfg.destination_mass,
                                 np.random.SeedSequence([seed, 0]),
                                 t_mtol=cfg.match_tolerance_s, t_ptol=cfg.pickup_tolerance_s)
    digest = hashlib.sha256()
    for r in requests:
        digest.update(repr((r.id, r.origin, r.destination, r.t0.hex(), r.t_mtol, r.t_ptol)).encode()
                      + b"\n")
    assert digest.hexdigest() == REQUEST_SHA256[scenario, seed]
    kinds = {(type(r.origin), type(r.destination), type(r.t0)) for r in requests}
    assert kinds == {(int, int, float)}
