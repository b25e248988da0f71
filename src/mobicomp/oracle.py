"""Ground-truth discovery of co-moving services and the optimal composition.

A map-reduce over one user trajectory against ``ServiceColumns``, the service
universe held as flat arrays with one row per service sample, sorted by
integer timestep. The temporal join finds each user timestep's block of rows
by binary search. The spatial filter tests every joined row against the
search disk with numpy, widened by a small relative margin, and passes only
the survivors to the scalar ``distance`` (which makes the strict ``< r_s``
decision), perpendicular distance, strength and capacity, so every emitted
float comes from the scalar functions. The reduce phase keeps services paired
over at least ``w`` strictly consecutive timesteps.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, OutOfRangeError
from .qos import QosParams, QosValue, capacity, perpendicular_distance, strength
from .trajectories import (
    DistanceMode,
    MovingService,
    TrajectoryPoint,
    UserTrajectory,
    check_gps,
    distance,
    distances,
)

DUMMY_SERVICE = "__dummy__"  # the "no valid service here" action


@dataclass(frozen=True)
class SpatialCandidatePair:
    """A service strictly inside the search disk at one user timestep."""

    user_timestep: int
    service_id: str
    distance: float
    qos: QosValue


@dataclass(frozen=True)
class CandidateTable:
    """Validated pairing of services against one user trajectory.

    ``per_timestep`` maps each user timestep with at least one surviving pair
    to those pairs keyed by service id, in service-id order; ``validated``
    maps service id to its maximal consecutive runs [start, end], each of
    length >= w.
    """

    per_timestep: dict[int, dict[str, SpatialCandidatePair]]
    validated: dict[str, tuple[tuple[int, int], ...]]

    def validated_at(self, t: int) -> dict[str, SpatialCandidatePair]:
        """Validated candidates covering timestep t, keyed by service id."""
        return self.per_timestep.get(t, {})


@dataclass(frozen=True)
class PlanStep:
    user_timestep: int
    chosen: str  # service id or DUMMY_SERVICE
    reward: float
    capacity: float


@dataclass(frozen=True)
class CompositionPlan:
    user_id: str
    steps: tuple[PlanStep, ...]

    def total_reward(self) -> float:
        return sum(s.reward for s in self.steps)


# Relative widening of the search disk for the numpy prefilter. numpy's
# hypot, sin, cos and arcsin may differ from math's in the last bits; the
# margin keeps every pair the scalar ``distance`` puts inside the disk.
DISK_MARGIN = 1e-6


def _int_timesteps(points: Sequence[TrajectoryPoint]) -> np.ndarray:
    try:
        return np.fromiter((int(p.t) for p in points), dtype=np.int64, count=len(points))
    except OverflowError:
        raise InvalidInputError("timestep beyond the 64-bit integer range") from None


class ServiceColumns:
    """The service universe as flat columns, one row per service sample.

    Rows are stably sorted by integer timestep ``int(t)``, so within one
    timestep they keep service order, then sample order; the rows of
    ``timesteps[i]`` are ``bounds[i]:bounds[i + 1]``. ``row`` indexes
    ``services`` and ``sample`` the sample within that service's trajectory.
    Built once per scenario and read-only afterwards.
    """

    def __init__(self, services: Sequence[MovingService]):
        self.services = tuple(services)
        lengths = np.array([len(s.trajectory) for s in self.services], dtype=np.int64)
        n = int(lengths.sum())
        points = [p for s in self.services for p in s.trajectory.points]
        t = _int_timesteps(points)
        order = np.argsort(t, kind="stable")
        self.timesteps, first = np.unique(t[order], return_index=True)
        self.bounds = np.append(first, n)
        self.row = np.repeat(np.arange(len(self.services), dtype=np.int32), lengths)[order]
        self.sample = (order - (np.cumsum(lengths) - lengths)[self.row]).astype(np.int32)
        self.x = np.fromiter((p.x for p in points), dtype=np.float64, count=n)[order]
        self.y = np.fromiter((p.y for p in points), dtype=np.float64, count=n)[order]


class JoinedSamples(Mapping):
    """Result of the temporal join: for each distinct user timestep, the
    universe rows sharing it (``rows[bounds[i]:bounds[i + 1]]`` for
    ``timesteps[i]``), possibly none."""

    def __init__(self, timesteps: np.ndarray, bounds: np.ndarray, rows: np.ndarray):
        self.timesteps, self.bounds, self.rows = timesteps, bounds, rows

    def __getitem__(self, t) -> np.ndarray:
        i = int(np.searchsorted(self.timesteps, t))
        if i == len(self.timesteps) or self.timesteps[i] != t:
            raise KeyError(t)
        return self.rows[self.bounds[i] : self.bounds[i + 1]]

    def __iter__(self):
        return iter(self.timesteps.tolist())

    def __len__(self) -> int:
        return len(self.timesteps)


def temporal_map(universe: ServiceColumns, user: UserTrajectory) -> JoinedSamples:
    """Left-outer join of service samples onto the user's timesteps.

    Every distinct integer user timestep maps to the universe rows sharing
    it; timesteps no service covers map to no rows. Each timestep's rows are
    one contiguous block of the timestep-sorted universe, found by binary
    search over the universe's distinct timesteps, so the cost follows the
    rows joined and the user's sample count, never the timestep values.
    """
    timesteps = np.unique(_int_timesteps(user.trajectory.points))
    lo = universe.bounds[np.searchsorted(universe.timesteps, timesteps, side="left")]
    counts = universe.bounds[np.searchsorted(universe.timesteps, timesteps, side="right")] - lo
    bounds = np.zeros(len(timesteps) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    rows = np.arange(bounds[-1]) + np.repeat(lo - bounds[:-1], counts)
    return JoinedSamples(timesteps, bounds, rows)


def spatial_map(
    joined: JoinedSamples,
    user: UserTrajectory,
    universe: ServiceColumns,
    qos_params: QosParams,
    mode: DistanceMode,
) -> list[SpatialCandidatePair]:
    """Keep pairs strictly inside the search disk and attach their QoS.

    Disk membership uses the point-to-point distance at the shared timestep
    (strict ``< r_s``); the attached strength uses the clamped perpendicular
    distance to the user's path segment, which never exceeds the point
    distance, so the strength precondition holds by construction. A numpy
    prefilter over all joined rows, widened by ``DISK_MARGIN``, picks the
    rows that the scalar functions then decide and price.
    """
    r_s = qos_params.sensing_radius_rs
    traj = user.trajectory
    rows = joined.rows
    counts = np.diff(joined.bounds)
    # index of the user sample at each joined timestep; a timestep with
    # joined rows needs a user sample at exactly that timestep
    user_t = np.fromiter((p.t for p in traj.points), dtype=np.float64, count=len(traj))
    at = np.minimum(np.searchsorted(user_t, joined.timesteps), len(traj) - 1)
    absent = (user_t[at] != joined.timesteps) & (counts > 0)
    if absent.any():
        raise OutOfRangeError(f"no sample at timestep {joined.timesteps[np.argmax(absent)]}")
    ux = np.repeat(np.fromiter((p.x for p in traj.points), np.float64, len(traj))[at], counts)
    uy = np.repeat(np.fromiter((p.y for p in traj.points), np.float64, len(traj))[at], counts)
    sx, sy = universe.x[rows], universe.y[rows]

    def step_of(j):  # index into joined.timesteps of joined row j
        return np.searchsorted(joined.bounds, j, side="right") - 1

    if mode is DistanceMode.HAVERSINE:
        # every joined pair is range-checked, inside the disk or not
        valid = (np.abs(ux) <= 180.0) & (np.abs(uy) <= 90.0)
        valid &= (np.abs(sx) <= 180.0) & (np.abs(sy) <= 90.0)
        if not valid.all():
            j = int(np.argmin(valid))
            check_gps(traj.points[at[step_of(j)]])
            i = rows[j]
            check_gps(universe.services[universe.row[i]].trajectory.points[universe.sample[i]])
    near = np.flatnonzero(distances(ux, uy, sx, sy, mode) < r_s * (1.0 + DISK_MARGIN))
    step = step_of(near)
    near_rows = rows[near]

    pairs: list[SpatialCandidatePair] = []
    for t, i, svc_index, k in zip(
        joined.timesteps[step].tolist(),
        at[step].tolist(),
        universe.row[near_rows].tolist(),
        universe.sample[near_rows].tolist(),
    ):
        svc = universe.services[svc_index]
        svc_pt = svc.trajectory.points[k]
        d = distance(traj.points[i], svc_pt, mode)
        if d < r_s:
            pdis = perpendicular_distance(svc_pt, traj, t, mode)
            s = strength(pdis, qos_params)
            cap = capacity(s, svc.bandwidth_b, svc.max_concurrent_k)
            pairs.append(
                SpatialCandidatePair(
                    user_timestep=t,
                    service_id=svc.id,
                    distance=d,
                    qos=QosValue(strength=s, capacity=cap),
                )
            )
    return pairs


def consecutive_runs(timesteps: list[int]) -> list[tuple[int, int]]:
    """Maximal runs of strictly consecutive integers, as inclusive spans."""
    if not timesteps:
        return []
    ts = sorted(timesteps)
    runs = []
    start = prev = ts[0]
    for t in ts[1:]:
        if t == prev + 1:
            prev = t
            continue
        runs.append((start, prev))
        start = prev = t
    runs.append((start, prev))
    return runs


def reduce_validate(pairs: list[SpatialCandidatePair], w: int) -> CandidateTable:
    """Group pairs by timestep and keep services paired over runs of >= w steps."""
    if w < 1:
        raise InvalidInputError(f"w must be >= 1, got {w}")
    by_service: dict[str, list[SpatialCandidatePair]] = {}
    for p in pairs:
        by_service.setdefault(p.service_id, []).append(p)

    validated: dict[str, tuple[tuple[int, int], ...]] = {}
    surviving: list[SpatialCandidatePair] = []
    for sid in sorted(by_service):
        svc_pairs = by_service[sid]
        runs = [
            r
            for r in consecutive_runs([p.user_timestep for p in svc_pairs])
            if r[1] - r[0] + 1 >= w
        ]
        if not runs:
            continue
        validated[sid] = tuple(runs)
        keep = {t for a, b in runs for t in range(a, b + 1)}
        surviving.extend(p for p in svc_pairs if p.user_timestep in keep)

    per_timestep: dict[int, list[SpatialCandidatePair]] = {}
    for p in surviving:
        per_timestep.setdefault(p.user_timestep, []).append(p)
    grouped = {
        t: {p.service_id: p for p in sorted(per_timestep[t], key=lambda p: p.service_id)}
        for t in sorted(per_timestep)
    }
    return CandidateTable(per_timestep=grouped, validated=validated)


def optimal_plan(
    table: CandidateTable,
    user: UserTrajectory,
    reward_scale: float = 1.0,
    dummy_reward: float = -1.0,
) -> CompositionPlan:
    """Best possible plan: per timestep, the validated candidate of maximum
    capacity (ties to the lexicographically smallest id), dummy elsewhere.

    Per-step rewards never couple timesteps once candidates are validated, so
    the per-step argmax maximises the plan total.
    """
    steps = []
    for p in user.trajectory.points:
        t = int(p.t)
        cands = table.validated_at(t)
        if not cands:
            steps.append(
                PlanStep(user_timestep=t, chosen=DUMMY_SERVICE, reward=dummy_reward, capacity=0.0)
            )
            continue
        best = min(cands.values(), key=lambda c: (-c.qos.capacity, c.service_id))
        steps.append(
            PlanStep(
                user_timestep=t,
                chosen=best.service_id,
                reward=best.qos.capacity / reward_scale,
                capacity=best.qos.capacity,
            )
        )
    return CompositionPlan(user_id=user.id, steps=tuple(steps))


def discover(
    universe: ServiceColumns,
    user: UserTrajectory,
    qos_params: QosParams,
    w: int,
    mode: DistanceMode,
) -> CandidateTable:
    """Full discovery pipeline for one user: the temporal join, the spatial
    filter with QoS, then run validation over all of the user's timesteps at
    once. ``universe`` is the scenario's ``ServiceColumns``, built once and
    shared by every user; everything runs in the calling thread."""
    joined = temporal_map(universe, user)
    return reduce_validate(spatial_map(joined, user, universe, qos_params, mode), w)


def table_plan_json(
    table: CandidateTable, plan: CompositionPlan, user: UserTrajectory
) -> list[dict]:
    """Per-timestep JSON rows combining the candidate table and the plan."""
    chosen_by_t = {s.user_timestep: s.chosen for s in plan.steps}
    rows = []
    for p in user.trajectory.points:
        t = int(p.t)
        cands = [
            {
                "service_id": c.service_id,
                "distance_m": c.distance,
                "strength": c.qos.strength,
                "capacity_bps": c.qos.capacity,
            }
            for c in table.validated_at(t).values()
        ]
        rows.append({"timestep": t, "candidates": cands, "chosen": chosen_by_t[t]})
    return rows
