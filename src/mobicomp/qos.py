"""Signal-strength and capacity model for moving services.

Strength follows an exponential attenuation coverage model: full signal (1.0)
inside a confident radius, then exp(-k * (pdis - R_c)) out to the sensing
radius R_s. Capacity is Shannon-style, (B/K) * log2(1 + strength). A composite
plan's QoS is the mean capacity of its component services. The perpendicular
distance, strength and capacity are priced a column of pairs at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidInputError
from .trajectories import DistanceMode, haversine_m


@dataclass(frozen=True)
class QosParams:
    """Attenuation parameters. The sensing radius doubles as the search radius
    used for spatial candidacy, so strength is always evaluated inside it. A
    decay so steep that the capacity at the sensing edge rounds to 0.0 is
    refused."""

    confident_radius_rc: float
    decay_k: float
    sensing_radius_rs: float

    def __post_init__(self):
        if not (0 < self.confident_radius_rc <= self.sensing_radius_rs):
            raise InvalidInputError(
                "require 0 < confident_radius_rc <= sensing_radius_rs, got "
                f"R_c={self.confident_radius_rc}, R_s={self.sensing_radius_rs}"
            )
        if not (math.isfinite(self.decay_k) and self.decay_k >= 0):
            raise InvalidInputError(f"decay_k must be finite and >= 0, got {self.decay_k}")
        # the weakest strength, at the sensing edge, must leave 1 + s above
        # 1.0, or its capacity (B/K) * log2(1 + s) is 0.0
        edge = math.exp(-self.decay_k * (self.sensing_radius_rs - self.confident_radius_rc))
        if not 1.0 + edge > 1.0:
            raise InvalidInputError(
                f"decay_k={self.decay_k} too steep: strength {edge} at the sensing edge "
                f"(R_c={self.confident_radius_rc}, R_s={self.sensing_radius_rs}) "
                "gives a capacity of 0.0"
            )

    @classmethod
    def defaults_for(cls, sensing_radius_rs: float) -> "QosParams":
        """Defaults when a scenario omits them: R_c = 0.25 * R_s and a decay
        factor chosen so strength falls to 0.01 at the sensing edge."""
        if not (math.isfinite(sensing_radius_rs) and sensing_radius_rs > 0):
            raise InvalidInputError(
                f"sensing radius must be finite and > 0, got {sensing_radius_rs}"
            )
        rc = 0.25 * sensing_radius_rs
        k = math.log(100.0) / (sensing_radius_rs - rc)
        return cls(confident_radius_rc=rc, decay_k=k, sensing_radius_rs=sensing_radius_rs)


def perpendicular_distance(sx, sy, ax, ay, bx, by, mode: DistanceMode) -> np.ndarray:
    """Distance from each service at (sx, sy) to the user's path segment from
    (ax, ay), the user's sample at timestep t, to (bx, by), its sample at t+1;
    one value per row of the equal-length coordinate columns.

    The foot of the perpendicular is clamped to the segment. At the final
    timestep (no sample at t+1) the caller passes b = a, and the zero-length
    segment degenerates to the point-to-point distance. numpy does the exact
    steps in the order of the one-pair formula
    ``s = min(1, max(0, ((sx - ax) * scale * wx + (sy - ay) * vy) / den))``
    and ``math`` the rounded ones (hypot, cos, haversine), so every value
    equals the one-pair formula's bit for bit, whatever numpy's SIMD kernels.
    GPS coordinates must be range-checked, as ``oracle.discover`` does;
    nothing here checks them.
    """
    sx, sy, ax, ay, bx, by = (np.asarray(c, dtype=np.float64) for c in (sx, sy, ax, ay, bx, by))
    gps = mode is DistanceMode.HAVERSINE
    with np.errstate(all="ignore"):  # overflow to inf or nan as Python floats do
        # GPS finds the foot in a local equirectangular frame around the
        # segment start, then measures great-circle distance to it
        scale = np.array(list(map(math.cos, map(math.radians, ay.tolist())))) if gps else 1.0
        vx, vy = bx - ax, by - ay
        wx = vx * scale
        den = wx * wx + vy * vy
        num = (sx - ax) * scale * wx + (sy - ay) * vy
        s = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
        # Python's max(0.0, s) and min(1.0, s): keep s only when strictly
        # inside, which fixes the result at -0.0 and nan as well
        s = np.where(s > 0.0, s, 0.0)
        s = np.where(s < 1.0, s, 1.0)
        fx, fy = ax + s * vx, ay + s * vy
        if not gps:
            return np.array(list(map(math.hypot, (sx - fx).tolist(), (sy - fy).tolist())))
    cols = [c.tolist() for c in (sx, sy, fx, fy, ax, ay, bx, by)]
    # never worse than the segment endpoints, which bounds the frame's error
    return np.array(list(map(
        min,
        map(haversine_m, *cols[0:4]),
        map(haversine_m, *cols[0:2], *cols[4:6]),
        map(haversine_m, *cols[0:2], *cols[6:8]),
    )))


def strength(pdis, params: QosParams) -> np.ndarray:
    """Exponential attenuation strength in (0, 1] for each distance
    pdis <= R_s: 1.0 within R_c, else ``math.exp(-k * (pdis - R_c))``."""
    pdis = np.asarray(pdis, dtype=np.float64)
    bad = np.flatnonzero((pdis < 0) | (pdis > params.sensing_radius_rs))
    if bad.size:
        d = pdis[bad[0]].item()
        if d < 0:
            raise InvalidInputError(f"pdis must be non-negative, got {d}")
        raise ContractViolationError(
            f"pdis={d} beyond sensing radius {params.sensing_radius_rs}; "
            "callers must pre-filter by spatial candidacy"
        )
    out = np.ones(len(pdis))
    beyond = ~(pdis <= params.confident_radius_rc)
    exponent = -params.decay_k * (pdis[beyond] - params.confident_radius_rc)
    out[beyond] = list(map(math.exp, exponent.tolist()))
    return out


def capacity(strength_value, bandwidth_b, max_concurrent_k) -> np.ndarray:
    """Transmission capacity (B/K) * log2(1 + str) in bits/second, per row."""
    s = np.asarray(strength_value, dtype=np.float64)
    b = np.asarray(bandwidth_b, dtype=np.float64)
    k = np.asarray(max_concurrent_k)
    bad = np.flatnonzero(~((s > 0) & (b > 0) & (k >= 1)))
    if bad.size:
        j = bad[0]
        if not s[j] > 0:
            raise InvalidInputError(f"strength must be positive, got {s[j].item()}")
        if not b[j] > 0:
            raise InvalidInputError(f"bandwidth must be positive, got {b[j].item()}")
        raise InvalidInputError(f"max concurrent requests must be >= 1, got {k[j].item()}")
    return (b / k) * np.array(list(map(math.log2, (1.0 + s).tolist())))


def reward_scale(services) -> float:
    """Universe-wide capacity ceiling used to map capacities into (0, 1].

    Falls back to 1.0 for an empty universe (no capacity rewards exist there).
    """
    bandwidth = [s.bandwidth_b for s in services]
    caps = capacity(np.ones(len(bandwidth)), bandwidth, [s.max_concurrent_k for s in services])
    return caps.max().item() if caps.size else 1.0


def composite_qos(plan_capacities: list[float]) -> float:
    """Mean capacity over the composed services (dummy steps excluded)."""
    if not plan_capacities:
        raise InvalidInputError("composite QoS undefined for an empty composition")
    return math.fsum(plan_capacities) / len(plan_capacities)
