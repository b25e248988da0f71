"""Trajectory data model: timestamped samples, constant-speed interpolation,
fixed-rate resampling, and the planar/great-circle distance metrics every
other module builds on.

Timesteps are global integer sequence indices once data has been ingested;
fractional ``t`` values only appear on interpolated query results.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, OutOfRangeError
from .ioutil import atomic_write_bytes

EARTH_RADIUS_M = 6_371_000.0  # mean Earth radius, fixed constant for haversine

USER_ID_PREFIX = "user:"  # reserved id namespace for consumer trajectories

_GRID_EPS = 1e-9


class DistanceMode(Enum):
    """Coordinate interpretation: planar metres or GPS degrees."""

    PLANAR_EUCLIDEAN = "planar_euclidean"
    HAVERSINE = "haversine"


@dataclass(frozen=True)
class TrajectoryPoint:
    t: float
    x: float
    y: float

    def __post_init__(self):
        if self.t < 0:
            raise InvalidInputError(f"timestep must be non-negative, got {self.t}")


@dataclass(frozen=True)
class Trajectory:
    """Non-empty sequence of samples, strictly ascending in ``t``."""

    points: tuple[TrajectoryPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise InvalidInputError("trajectory must contain at least one point")
        for a, b in zip(pts, pts[1:]):
            if b.t <= a.t:
                raise InvalidInputError(
                    f"timesteps must be strictly ascending, got {a.t} then {b.t}"
                )
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_ts", tuple(p.t for p in pts))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def t_min(self) -> float:
        return self.points[0].t

    @property
    def t_max(self) -> float:
        return self.points[-1].t

    def index_of(self, t: float) -> int:
        """Index of the stored sample at exactly ``t``; OutOfRangeError if absent."""
        ts = self._ts
        i = bisect.bisect_left(ts, t)
        if i == len(ts) or ts[i] != t:
            raise OutOfRangeError(f"no sample at timestep {t}")
        return i


@dataclass(frozen=True)
class UserTrajectory:
    """A consumer path; ids live in the ``user:`` namespace."""

    id: str
    trajectory: Trajectory


@dataclass(frozen=True)
class MovingService:
    """A service id, its trajectory, and the static QoS constants: total
    bandwidth and maximum concurrent requests."""

    id: str
    trajectory: Trajectory
    bandwidth_b: float
    max_concurrent_k: int

    def __post_init__(self):
        if self.bandwidth_b <= 0:
            raise InvalidInputError("bandwidth_b must be positive")
        if self.max_concurrent_k < 1:
            raise InvalidInputError("max_concurrent_k must be >= 1")


def check_gps(p: TrajectoryPoint) -> None:
    if not (-180.0 <= p.x <= 180.0 and -90.0 <= p.y <= 90.0):
        raise InvalidInputError(f"GPS coordinates out of range: ({p.x}, {p.y})")


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in metres on a sphere of radius EARTH_RADIUS_M."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def distance(a: TrajectoryPoint, b: TrajectoryPoint, mode: DistanceMode) -> float:
    """Distance in metres between two samples under the given mode."""
    if mode is DistanceMode.PLANAR_EUCLIDEAN:
        return math.hypot(a.x - b.x, a.y - b.y)
    check_gps(a)
    check_gps(b)
    return haversine_m(a.x, a.y, b.x, b.y)


def distances(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray, mode: DistanceMode
) -> np.ndarray:
    """``distance`` over coordinate arrays, for filtering only: numpy's hypot
    and trigonometric functions may differ from ``math``'s in the last bits.
    Haversine inputs must already be range-checked."""
    if mode is DistanceMode.PLANAR_EUCLIDEAN:
        return np.hypot(ax - bx, ay - by)
    phi1, phi2 = np.radians(ay), np.radians(by)
    dphi = phi2 - phi1
    dlam = np.radians(bx - ax)
    a = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def position_at(traj: Trajectory, t_query: float) -> TrajectoryPoint:
    """Position at ``t_query`` under the constant-speed-between-samples model.

    Exact stored samples are returned unchanged; queries outside the recorded
    span raise OutOfRangeError (a trajectory does not exist beyond its span).
    """
    ts = traj._ts
    if t_query < ts[0] or t_query > ts[-1]:
        raise OutOfRangeError(
            f"t={t_query} outside trajectory span [{ts[0]}, {ts[-1]}]"
        )
    i = bisect.bisect_left(ts, t_query)
    if i < len(ts) and ts[i] == t_query:
        return traj.points[i]
    lo, hi = traj.points[i - 1], traj.points[i]
    frac = (t_query - lo.t) / (hi.t - lo.t)
    return TrajectoryPoint(
        t=t_query,
        x=lo.x + frac * (hi.x - lo.x),
        y=lo.y + frac * (hi.y - lo.y),
    )


def resample(traj: Trajectory, rate: float, origin: float | None = None) -> Trajectory:
    """Resample onto the uniform grid ``origin + k*rate`` and renumber timesteps.

    Output timesteps are the 1-based grid indices (``t = k + 1``), so a
    trajectory resampled from its own start gets t = 1, 2, ... and multiple
    trajectories resampled against a shared origin land on one global integer
    sequence. Gaps are filled by linear interpolation; there is no
    extrapolation beyond the recorded span.
    """
    if rate <= 0:
        raise InvalidInputError(f"rate must be positive, got {rate}")
    if origin is None:
        origin = traj.t_min
    span_lo, span_hi = traj.t_min, traj.t_max
    k_min = math.ceil((span_lo - origin) / rate - _GRID_EPS)
    k_max = math.floor((span_hi - origin) / rate + _GRID_EPS)
    if k_max - k_min < 1:
        raise InvalidInputError(
            f"trajectory span [{span_lo}, {span_hi}] covers fewer than two grid "
            f"points at rate {rate}"
        )
    out = []
    for k in range(k_min, k_max + 1):
        tw = min(max(origin + k * rate, span_lo), span_hi)
        p = position_at(traj, tw)
        out.append(TrajectoryPoint(t=k + 1, x=p.x, y=p.y))
    return Trajectory(tuple(out))


def dump_trajectories_csv(items: list[tuple[str, Trajectory]], path: str | Path) -> None:
    """Atomically write the canonical ``id,t,x,y`` CSV (UTF-8, '.' decimal
    separator)."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["id", "t", "x", "y"])
    for ident, traj in items:
        for p in traj.points:
            t = int(p.t) if float(p.t).is_integer() else p.t
            w.writerow([ident, repr(t) if isinstance(t, float) else t, repr(p.x), repr(p.y)])
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))


def load_trajectories_csv(path: str | Path) -> list[tuple[str, Trajectory]]:
    """Read a canonical trajectory CSV; one entry per id, in file order."""
    order: list[str] = []
    buckets: dict[str, list[TrajectoryPoint]] = {}
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InvalidInputError(f"{path}: cannot read: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InvalidInputError(f"empty trajectory file: {path}")
        if [h.strip().lower() for h in header] != ["id", "t", "x", "y"]:
            raise InvalidInputError(f"unexpected header {header!r} in {path}")
        for row in reader:
            if not row:
                continue
            try:
                ident, t, x, y = row[0], float(row[1]), float(row[2]), float(row[3])
            except (IndexError, ValueError):
                raise InvalidInputError(
                    f"malformed row {row!r} in {path} line {reader.line_num}"
                ) from None
            if ident not in buckets:
                order.append(ident)
                buckets[ident] = []
            buckets[ident].append(TrajectoryPoint(t=t, x=x, y=y))
    if not order:
        raise InvalidInputError(f"no trajectory rows in {path}")
    out = []
    for ident in order:
        pts = sorted(buckets[ident], key=lambda p: p.t)
        out.append((ident, Trajectory(tuple(pts))))
    return out
