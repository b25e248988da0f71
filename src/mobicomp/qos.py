"""Signal-strength and capacity model for moving services.

Strength follows an exponential attenuation coverage model: full signal (1.0)
inside a confident radius, then exp(-k * (pdis - R_c)) out to the sensing
radius R_s. Capacity is Shannon-style, (B/K) * log2(1 + strength). A composite
plan's QoS is the mean capacity of its component services.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolationError, InvalidInputError
from .trajectories import DistanceMode, distance


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


def perpendicular_distance(
    sx: float, sy: float, ax: float, ay: float, bx: float, by: float, mode: DistanceMode
) -> float:
    """Distance from the service at (sx, sy) to the user's path segment from
    (ax, ay), the user's sample at timestep t, to (bx, by), its sample at t+1.

    The foot of the perpendicular is clamped to the segment. At the final
    timestep (no sample at t+1) the caller passes b = a, and the zero-length
    segment degenerates to the point-to-point distance.
    """
    # GPS finds the foot in a local equirectangular frame around the segment
    # start, then measures great-circle distance to it
    scale = 1.0 if mode is DistanceMode.PLANAR_EUCLIDEAN else math.cos(math.radians(ay))
    vx, vy = bx - ax, by - ay
    wx = vx * scale
    den = wx * wx + vy * vy
    s = 0.0 if den == 0.0 else min(1.0, max(0.0, ((sx - ax) * scale * wx + (sy - ay) * vy) / den))
    d = distance(sx, sy, ax + s * vx, ay + s * vy, mode)
    if mode is DistanceMode.PLANAR_EUCLIDEAN:
        return d
    # never worse than the segment endpoints, which bounds the frame's error
    return min(d, distance(sx, sy, ax, ay, mode), distance(sx, sy, bx, by, mode))


def strength(pdis: float, params: QosParams) -> float:
    """Exponential attenuation strength in (0, 1] for a distance pdis <= R_s."""
    if pdis < 0:
        raise InvalidInputError(f"pdis must be non-negative, got {pdis}")
    if pdis > params.sensing_radius_rs:
        raise ContractViolationError(
            f"pdis={pdis} beyond sensing radius {params.sensing_radius_rs}; "
            "callers must pre-filter by spatial candidacy"
        )
    if pdis <= params.confident_radius_rc:
        return 1.0
    return math.exp(-params.decay_k * (pdis - params.confident_radius_rc))


def capacity(strength_value: float, bandwidth_b: float, max_concurrent_k: int) -> float:
    """Transmission capacity (B/K) * log2(1 + str) in bits/second."""
    if not strength_value > 0:
        raise InvalidInputError(f"strength must be positive, got {strength_value}")
    if not bandwidth_b > 0:
        raise InvalidInputError(f"bandwidth must be positive, got {bandwidth_b}")
    if max_concurrent_k < 1:
        raise InvalidInputError(f"max concurrent requests must be >= 1, got {max_concurrent_k}")
    return (bandwidth_b / max_concurrent_k) * math.log2(1.0 + strength_value)


def unit_capacity(bandwidth_b: float, max_concurrent_k: int) -> float:
    """Capacity at full strength; the per-service reward-normalisation ceiling."""
    return capacity(1.0, bandwidth_b, max_concurrent_k)


def reward_scale(services) -> float:
    """Universe-wide capacity ceiling used to map capacities into (0, 1].

    Falls back to 1.0 for an empty universe (no capacity rewards exist there).
    """
    caps = [unit_capacity(s.bandwidth_b, s.max_concurrent_k) for s in services]
    return max(caps) if caps else 1.0


def composite_qos(plan_capacities: list[float]) -> float:
    """Mean capacity over the composed services (dummy steps excluded)."""
    if not plan_capacities:
        raise InvalidInputError("composite QoS undefined for an empty composition")
    return math.fsum(plan_capacities) / len(plan_capacities)
