"""Trajectory data model: timestamped samples, fixed-rate resampling of raw
traces by constant-speed interpolation, and the planar/great-circle distance
metrics every other module builds on (``haversine_m``, ``distances``).

A ``Trajectory`` is stored as three read-only float64 columns, ``t``, ``x``
and ``y``, one entry per sample; the generator, the CSV reader, resampling and
ingestion build it from columns (``Trajectory.from_columns``), and discovery,
state encoding and composition read the columns directly. The canonical CSV
is written by columns too, one trajectory at a time
(``dump_trajectories_csv``), and read once: the per-row reader defines what
a file may hold, and numpy's C reader parses a plain file, one without
quotes or long lines, in one pass (``load_trajectories_csv``).
``TrajectoryPoint`` is the public per-sample view: ``Trajectory(points)``
builds a trajectory from points and ``Trajectory.points`` lists its samples
as points.

Timesteps are global integer sequence indices: ``MovingService`` and
``UserTrajectory`` refuse a timestep that is not an integer below 2**53, for
which float64, int64 and t + 1 are exact. Only a bare ``Trajectory``, such
as a raw trace before resampling, may hold a fractional ``t``.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import GridTooLargeError, InvalidInputError
from .ioutil import csv_rows, open_text, write_csv_blocks

EARTH_RADIUS_M = 6_371_000.0  # mean Earth radius, fixed constant for haversine

USER_ID_PREFIX = "user:"  # reserved id namespace for consumer trajectories
DUMMY_SERVICE = "__dummy__"  # the "no valid service here" action; no service's id

_GRID_EPS = 1e-9
# Most grid points one trace is resampled to. Building the grid takes about
# 100 bytes a point (101 measured on 10**6 points), so a trace at the bound
# takes about 1 GB; at 25 Hz the bound is 4.6 days of one person's trace.
MAX_GRID_POINTS = 10**7


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


def check_gps_samples(name: str, x: np.ndarray, y: np.ndarray) -> None:
    """Raise for the first sample of the columns ``(x, y)`` out of the GPS
    box, naming ``name``."""
    out = ~in_gps_range(x, y)
    if out.any():
        i = int(out.argmax())
        raise InvalidInputError(f"{name}: GPS coordinates out of range: ({x[i]}, {y[i]})")


def haversine_m(lon1: float, lat1: float, lon2: float, lat2: float) -> float:
    """Great-circle distance in metres on a sphere of radius EARTH_RADIUS_M."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def distances(
    ax: np.ndarray, ay: np.ndarray, bx: np.ndarray, by: np.ndarray, mode: DistanceMode
) -> np.ndarray:
    """Distances in metres between positions (ax, ay) and (bx, by) under the
    given mode, for filtering only: numpy's hypot and trigonometric functions
    may differ from ``math.hypot`` and ``haversine_m`` in the last bits.
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
    fewer than two grid points, or 2**53 or more, is refused; one that covers
    more than ``MAX_GRID_POINTS`` is refused with a ``GridTooLargeError``
    before the grid is allocated.
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
        if k_max - k_min >= MAX_GRID_POINTS:
            raise GridTooLargeError(
                f"trajectory span [{span_lo}, {span_hi}] covers {int(k_max - k_min) + 1} "
                f"grid points at rate {rate}, more than {MAX_GRID_POINTS}"
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
    separator, a whole-number ``t`` as an integer): the bytes ``csv.writer``
    writes for one row per sample, rendered by columns, one trajectory at a
    time."""
    blocks = ((ident, _csv_columns(traj)) for ident, traj in items)
    write_csv_blocks(path, ["id", "t", "x", "y"], blocks)


def _csv_columns(traj: Trajectory) -> list[list[str]]:
    """The ``t``, ``x`` and ``y`` fields of a trajectory's rows."""
    return [
        [int.__repr__(int(t)) if t.is_integer() else float.__repr__(t) for t in traj.t.tolist()],
        list(map(float.__repr__, traj.x.tolist())),
        list(map(float.__repr__, traj.y.tolist())),
    ]


def parse_row(row: list[str]) -> tuple[str, float, float, float]:
    """The ``id, t, x, y`` of one CSV row: IndexError for a short row,
    ValueError for a value that is not a finite number."""
    t, x, y = float(row[1]), float(row[2]), float(row[3])
    if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite value in {row!r}")
    return row[0], t, x, y


# One trajectory CSV row as numpy's reader parses it
_CSV_ROW = np.dtype([("id", object), ("t", np.float64), ("x", np.float64), ("y", np.float64)])
# Bytes of a file numpy does not read: the quote, and the characters numpy's
# float parser strips around a number as space (they are str.isspace) and
# float() refuses
_NOT_PLAIN = b'"\x1c\x1d\x1e\x1f'


def load_trajectories_csv(path: str | Path) -> list[tuple[str, Trajectory]]:
    """Read a canonical trajectory CSV; one entry per id, in order of first
    appearance, its samples stably sorted by ``t``.

    The file is read once. The row reader (``_scan_rows``) defines what a
    file may hold and names the line of the first row it refuses; numpy's C
    reader (``_parse_rows``) reads a plain file in one pass, and any other
    file, or one whose columns it does not give, goes to the row reader."""
    with open_text(path) as fh:
        _, header = next(csv_rows(path, fh), (0, None))
        if header is None:
            raise InvalidInputError(f"empty trajectory file: {path}")
        if [h.strip().lower() for h in header] != ["id", "t", "x", "y"]:
            raise InvalidInputError(f"unexpected header {header!r} in {path}")
        cols = _parse_rows(fh)
        if cols is None:
            fh.seek(0)
            cols = _scan_rows(path, fh)
    ids, t, x, y = cols
    if not len(ids):
        raise InvalidInputError(f"no trajectory rows in {path}")
    starts = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]).tolist()
    runs: dict[str, list[np.ndarray]] = {}
    for lo, hi in zip(starts, [*starts[1:], len(ids)]):
        runs.setdefault(ids[lo], []).append(np.arange(lo, hi))
    out = []
    for ident, parts in runs.items():
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        rows = rows[np.argsort(t[rows], kind="stable")]
        try:
            traj = Trajectory.from_columns(t[rows], x[rows], y[rows])
        except InvalidInputError as exc:
            raise InvalidInputError(f"{exc} for id {ident!r} in {path}") from None
        out.append((ident, traj))
    return out


def _parse_rows(fh):
    """The ``id``, ``t``, ``x`` and ``y`` columns of the rows left in ``fh``,
    parsed by ``np.loadtxt``, where it gives the row reader's columns: only
    for a file holding no byte of ``_NOT_PLAIN`` and no line longer than
    ``csv``'s field limit, and not where it refuses the rows, finds none, or
    finds a non-finite value or a negative ``t``; None otherwise."""
    data = fh.buffer.getvalue()
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))
    longest = np.diff(ends, prepend=-1, append=len(data)).max() - 1
    if longest > csv.field_size_limit() or any(c in data for c in _NOT_PLAIN):
        return None
    with warnings.catch_warnings():  # it warns on an empty input, refused here
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = np.loadtxt(fh, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1)
        except ValueError:  # UnicodeDecodeError too: the row reader names it
            return None
    t, x, y = rows["t"], rows["x"], rows["y"]
    if not len(rows) or (t < 0).any() or not np.isfinite([t, x, y]).all():
        return None
    return rows["id"], t, x, y


def _scan_rows(path: str | Path, fh):
    """The columns of the rows of ``fh`` after its header, read one row at a
    time with ``csv_rows`` and ``parse_row``; a malformed row or a negative
    ``t`` is an ``InvalidInputError`` naming the file and the line."""
    rows = csv_rows(path, fh)
    next(rows)
    ids, ts, xs, ys = [], [], [], []
    for line, row in rows:
        if not row:
            continue
        try:
            ident, t, x, y = parse_row(row)
        except (IndexError, ValueError):
            raise InvalidInputError(f"malformed row {row!r} in {path} line {line}") from None
        if t < 0:
            raise InvalidInputError(
                f"timestep must be non-negative, got {t} for id {ident!r} "
                f"in {path} line {line}"
            )
        ids.append(ident)
        ts.append(t)
        xs.append(x)
        ys.append(y)
    return np.array(ids, object), *(np.array(c, np.float64) for c in (ts, xs, ys))
