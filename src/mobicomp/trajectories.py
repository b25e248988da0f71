"""Trajectory data model: timestamped samples, fixed-rate resampling of raw
traces by constant-speed interpolation, and the planar/great-circle distance
metrics every other module builds on.

A ``Trajectory`` is stored as three read-only float64 columns, ``t``, ``x``
and ``y``, one entry per sample; the generator, the CSV reader, resampling and
ingestion build it from columns (``Trajectory.from_columns``), and discovery,
state encoding and composition read the columns directly. ``TrajectoryPoint``
is the public per-sample view: ``Trajectory(points)`` builds a trajectory
from points and ``Trajectory.points`` lists its samples as points.

Timesteps are global integer sequence indices: ``MovingService`` and
``UserTrajectory`` refuse a timestep that is not an integer below 2**53, for
which float64, int64 and t + 1 are exact. Only a bare ``Trajectory``, such
as a raw trace before resampling, may hold a fractional ``t``.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .ioutil import open_text, write_csv

EARTH_RADIUS_M = 6_371_000.0  # mean Earth radius, fixed constant for haversine

USER_ID_PREFIX = "user:"  # reserved id namespace for consumer trajectories
DUMMY_SERVICE = "__dummy__"  # the "no valid service here" action; no service's id

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


class Trajectory:
    """Non-empty sequence of finite samples, ``t >= 0`` and strictly ascending
    in ``t``, held as the read-only float64 columns ``t``, ``x`` and ``y``.
    Immutable, and equal and hashed by value."""

    __slots__ = ("t", "x", "y")

    def __init__(self, points: Sequence[TrajectoryPoint]):
        pts = tuple(points)
        self._store([p.t for p in pts], [p.x for p in pts], [p.y for p in pts])

    @classmethod
    def from_columns(cls, t, x, y) -> Trajectory:
        """Trajectory of the samples ``(t[i], x[i], y[i])``, stored as copies of
        the three columns."""
        traj = cls.__new__(cls)
        traj._store(t, x, y)
        return traj

    def _store(self, t, x, y) -> None:
        if not len(t) == len(x) == len(y):
            raise InvalidInputError(
                f"trajectory columns must have equal lengths, got {len(t)}, {len(x)} and {len(y)}"
            )
        cols = np.array((t, x, y), np.float64)
        if not cols.shape[1]:
            raise InvalidInputError("trajectory must contain at least one point")
        t = cols[0]
        below = t < 0
        if below.any():
            raise InvalidInputError(f"timestep must be non-negative, got {t[below.argmax()]}")
        if not np.isfinite(cols).all():
            raise InvalidInputError("trajectory samples must be finite numbers")
        back = t[1:] <= t[:-1]
        if back.any():
            i = int(back.argmax())
            raise InvalidInputError(
                f"timesteps must be strictly ascending, got {t[i]} then {t[i + 1]}"
            )
        cols.flags.writeable = False
        for name, col in zip(self.__slots__, cols):
            object.__setattr__(self, name, col)

    def __setattr__(self, name, value):
        raise AttributeError(f"Trajectory is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle through the column path
        return Trajectory.from_columns, (self.t, self.x, self.y)

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self.__slots__)

    def __hash__(self) -> int:
        # + 0.0 maps -0.0 to 0.0, which compares equal to it
        return hash(b"".join((getattr(self, c) + 0.0).tobytes() for c in self.__slots__))

    @property
    def points(self) -> tuple[TrajectoryPoint, ...]:
        """The samples as points, the per-sample form of the I/O edges."""
        return tuple(map(TrajectoryPoint, self.t.tolist(), self.x.tolist(), self.y.tolist()))


def _check_grid(name: str, t: np.ndarray) -> None:
    """Refuse a timestep of ``name`` that is not an integer below 2**53."""
    off = (t != np.floor(t)) | (t >= 2.0**53)
    if off.any():
        raise InvalidInputError(f"{name}: timestep {t[off.argmax()]} is not an integer below 2**53")


@dataclass(frozen=True)
class UserTrajectory:
    """A consumer path on the integer grid; ids live in the ``user:`` namespace."""

    id: str
    trajectory: Trajectory

    def __post_init__(self):
        _check_grid(f"user {self.id!r}", self.trajectory.t)


@dataclass(frozen=True)
class MovingService:
    """A service id other than ``DUMMY_SERVICE``, its trajectory on the
    integer grid, and the static QoS constants: total bandwidth and maximum
    concurrent requests."""

    id: str
    trajectory: Trajectory
    bandwidth_b: float
    max_concurrent_k: int

    def __post_init__(self):
        name = f"service {self.id!r}"
        if self.id == DUMMY_SERVICE:
            raise InvalidInputError(f"{name}: the id is reserved for the dummy action")
        _check_grid(name, self.trajectory.t)
        if not (math.isfinite(self.bandwidth_b) and self.bandwidth_b > 0):
            raise InvalidInputError(
                f"{name}: bandwidth_b must be finite and positive, got {self.bandwidth_b}"
            )
        if self.max_concurrent_k < 1:
            raise InvalidInputError(f"{name}: max_concurrent_k must be >= 1")


def in_gps_range(x, y):
    """Whether (x, y) lies in the GPS box, |x| <= 180 and |y| <= 90: a bool
    for two floats, a bool array, elementwise, for two arrays. NaN lies
    outside."""
    return (abs(x) <= 180.0) & (abs(y) <= 90.0)


def check_gps(x: float, y: float) -> None:
    if not in_gps_range(x, y):
        raise InvalidInputError(f"GPS coordinates out of range: ({x}, {y})")


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in metres on a sphere of radius EARTH_RADIUS_M."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def distance(ax: float, ay: float, bx: float, by: float, mode: DistanceMode) -> float:
    """Distance in metres between positions (ax, ay) and (bx, by) under the
    given mode."""
    if mode is DistanceMode.PLANAR_EUCLIDEAN:
        return math.hypot(ax - bx, ay - by)
    check_gps(ax, ay)
    check_gps(bx, by)
    return haversine_m(ax, ay, bx, by)


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


def resample(t, x, y, rate: float, origin: float) -> Trajectory:
    """Resample the raw trace ``(t[i], x[i], y[i])``, finite and strictly
    ascending in ``t`` of either sign, onto the uniform grid
    ``origin + k*rate`` and renumber timesteps.

    Output timesteps are the 1-based grid indices (``t = k + 1``), so a trace
    resampled from its own start gets t = 1, 2, ... and multiple traces
    resampled against a shared origin land on one global integer sequence.
    A grid point on a stored sample takes that sample's coordinates; one
    between two samples is interpolated at constant speed between them.
    There is no extrapolation beyond the recorded span. A span that covers
    fewer than two grid points, or 2**53 or more, is refused.
    """
    if not rate > 0:
        raise InvalidInputError(f"rate must be positive, got {rate}")
    t, x, y = (np.asarray(c, np.float64) for c in (t, x, y))
    span_lo, span_hi = float(t[0]), float(t[-1])
    # every step runs under errstate: an overflow, on a row whose result is
    # not used or in a span refused below, must not warn
    with np.errstate(all="ignore"):
        k_min = np.ceil((span_lo - origin) / rate - _GRID_EPS)
        k_max = np.floor((span_hi - origin) / rate + _GRID_EPS)
        if not 1 <= k_max - k_min < 2.0**53:  # false for an overflow to inf too
            raise InvalidInputError(
                f"trajectory span [{span_lo}, {span_hi}] covers fewer than two grid "
                f"points, or 2**53 or more, at rate {rate}"
            )
        k = np.arange(k_min, k_max + 1)
        tw = np.minimum(np.maximum(origin + k * rate, span_lo), span_hi)
        j = np.searchsorted(t, tw)
        on_sample = t[j] == tw
        j1 = np.maximum(j, 1)  # j is 0 only on the first sample
        j0 = j1 - 1
        frac = (tw - t[j0]) / (t[j1] - t[j0])
        xs = np.where(on_sample, x[j], x[j0] + frac * (x[j1] - x[j0]))
        ys = np.where(on_sample, y[j], y[j0] + frac * (y[j1] - y[j0]))
    return Trajectory.from_columns(k + 1, xs, ys)


def dump_trajectories_csv(items: list[tuple[str, Trajectory]], path: str | Path) -> None:
    """Atomically write the canonical ``id,t,x,y`` CSV (UTF-8, '.' decimal
    separator, a whole-number ``t`` as an integer)."""
    write_csv(path, _csv_rows(items))


def _csv_rows(items: list[tuple[str, Trajectory]]):
    yield ["id", "t", "x", "y"]
    for ident, traj in items:
        for t, x, y in zip(traj.t.tolist(), traj.x.tolist(), traj.y.tolist()):
            yield [ident, int(t) if t.is_integer() else t, x, y]


def parse_row(row: list[str]) -> tuple[str, float, float, float]:
    """The ``id, t, x, y`` of one CSV row: IndexError for a short row,
    ValueError for a value that is not a finite number."""
    t, x, y = float(row[1]), float(row[2]), float(row[3])
    if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite value in {row!r}")
    return row[0], t, x, y


def load_trajectories_csv(path: str | Path) -> list[tuple[str, Trajectory]]:
    """Read a canonical trajectory CSV; one entry per id, in file order, its
    samples stably sorted by ``t``."""
    samples: dict[str, list[tuple[float, float, float]]] = {}
    with open_text(path) as fh:
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
                ident, t, x, y = parse_row(row)
            except (IndexError, ValueError):
                raise InvalidInputError(
                    f"malformed row {row!r} in {path} line {reader.line_num}"
                ) from None
            if t < 0:
                raise InvalidInputError(
                    f"timestep must be non-negative, got {t} for id {ident!r} "
                    f"in {path} line {reader.line_num}"
                )
            samples.setdefault(ident, []).append((t, x, y))
    if not samples:
        raise InvalidInputError(f"no trajectory rows in {path}")
    out = []
    for ident, rows in samples.items():
        cols = np.array(rows, np.float64)
        cols = cols[np.argsort(cols[:, 0], kind="stable")]
        try:
            traj = Trajectory.from_columns(cols[:, 0], cols[:, 1], cols[:, 2])
        except InvalidInputError as exc:
            raise InvalidInputError(f"{exc} for id {ident!r} in {path}") from None
        out.append((ident, traj))
    return out
