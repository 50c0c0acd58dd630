"""Node-level demand: probability masses, imbalance synthesis, and arrivals.

A node mass is a plain 1-D numpy array of per-node probabilities (nonnegative,
summing to one). Arrival profiles are lists of (duration_s, rate_per_hour)
pairs; request streams are Poisson with that piecewise constant rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .roadnet import _named, _real

PENDING = "pending"
MATCHED = "matched"
PICKED_UP = "picked_up"
COMPLETED = "completed"
CANCELLED = "cancelled"

DEFAULT_MATCH_TOLERANCE_S = 60.0
DEFAULT_PICKUP_TOLERANCE_S = 300.0


@dataclass
class Request:
    """One ride request and its lifecycle timestamps (seconds)."""

    id: int
    origin: int
    destination: int
    t0: float
    t_mtol: float = DEFAULT_MATCH_TOLERANCE_S
    t_ptol: float = DEFAULT_PICKUP_TOLERANCE_S
    status: str = PENDING
    match_time: float | None = None
    pickup_time: float | None = None
    dropoff_time: float | None = None
    vehicle_id: int | None = None


def check_node_mass(values, name: str = "mass") -> np.ndarray:
    """Validate and return a node-mass vector (finite, >= 0, sums to 1 +- 1e-9)."""
    p = np.asarray(values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} has non-finite entries")
    if (p < 0).any():
        raise ValueError(f"{name} has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"{name} sums to {total!r}, expected 1")
    return p


def mass_from_counts(counts) -> np.ndarray:
    """Normalize finite nonnegative per-node counts into a probability mass."""
    counts = np.asarray(counts, dtype=np.float64)
    if not np.isfinite(counts).all():
        raise ValueError("counts must be finite")
    if (counts < 0).any():
        raise ValueError("counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("all counts are zero")
    return counts / total


def complement_mass(p) -> np.ndarray:
    """Normalized max(p) - p, a mass that peaks where p is lowest."""
    p = check_node_mass(p, "p")
    raw = p.max() - p
    total = raw.sum()
    if total <= 0:
        raise ValueError("uniform mass has no complement")
    return raw / total


def synthesize_destination(p_dest, p_origin_complement, gamma: float) -> np.ndarray:
    """Convex blend gamma * p_dest + (1 - gamma) * p_origin_complement."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma={gamma!r} outside [0, 1]")
    p_dest = check_node_mass(p_dest, "p_dest")
    p_comp = check_node_mass(p_origin_complement, "p_origin_complement")
    if len(p_dest) != len(p_comp):
        raise ValueError(f"{len(p_dest)} vs {len(p_comp)} nodes")
    return gamma * p_dest + (1.0 - gamma) * p_comp


def check_profile(profile) -> None:
    """Validate (duration_s, rate_per_hour) pairs of real numbers, not bools: durations
    positive, rates nonnegative, both finite (a non-finite entry would never end the stream)."""
    try:
        one_shot = iter(profile) is profile
        pairs = [(duration, rate) for duration, rate in profile]
    except (TypeError, ValueError):  # not iterable, or an entry that is not a pair
        raise ValueError("need a sequence of (duration_s, rate_per_hour) pairs") from None
    if one_shot:  # this check has used it up, so the stream would draw no request
        raise ValueError("need a sequence of (duration_s, rate_per_hour) pairs, "
                         "not a one-shot iterator")
    for i, (duration, rate) in enumerate(pairs):
        duration = _named(_real, duration, "entry {}: duration", i)
        rate = _named(_real, rate, "entry {}: rate", i)
        if not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"entry {i}: duration must be positive and finite, got {duration!r}")
        if not (math.isfinite(rate) and rate >= 0):
            raise ValueError(f"entry {i}: rate must be nonnegative and finite, got {rate!r}")


def hellinger(p, q) -> float:
    """Discrete Hellinger distance, (1/sqrt(2)) * ||sqrt(p) - sqrt(q)||_2."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"{p.shape} vs {q.shape}")
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


def generate_requests(
    profile,
    p_origin,
    p_destination,
    seed,
    t_mtol: float = DEFAULT_MATCH_TOLERANCE_S,
    t_ptol: float = DEFAULT_PICKUP_TOLERANCE_S,
) -> list[Request]:
    """Sample a time-ordered Poisson request stream.

    profile: list of (duration_s, rate_per_hour); the rate is piecewise
    constant and inter-arrival gaps carry over period boundaries exactly
    (unit-rate exponential clock consumed at the active rate). Origins and
    destinations are sampled independently from their masses; a destination
    equal to its origin is redrawn up to 100 times, so a point mass keeps it.
    """
    p_origin = check_node_mass(p_origin, "p_origin")
    p_destination = check_node_mass(p_destination, "p_destination")
    if len(p_origin) != len(p_destination):
        raise ValueError(f"{len(p_origin)} vs {len(p_destination)} nodes")
    check_profile(profile)

    rng = np.random.default_rng(seed)
    times: list[float] = []
    t = 0.0
    period_start = 0.0
    hazard = rng.exponential(1.0)  # unit-rate exponential clock
    for duration, rate_per_hour in profile:
        period_end = period_start + float(duration)
        rate = float(rate_per_hour) / 3600.0
        while rate > 0.0:
            gap = hazard / rate
            if t + gap > period_end:
                hazard -= (period_end - t) * rate
                break
            t += gap
            times.append(t)
            hazard = rng.exponential(1.0)
        t = period_end
        period_start = period_end

    n_nodes = len(p_origin)
    count = len(times)
    origins = rng.choice(n_nodes, size=count, p=p_origin)
    destinations = rng.choice(n_nodes, size=count, p=p_destination)
    # redraw self trips; a point-mass destination may leave some equal
    for _ in range(100):
        clash = origins == destinations
        if not clash.any():
            break
        destinations[clash] = rng.choice(n_nodes, size=int(clash.sum()), p=p_destination)
    return list(map(Request, range(count), origins.tolist(), destinations.tolist(), times,
                    repeat(t_mtol), repeat(t_ptol)))
