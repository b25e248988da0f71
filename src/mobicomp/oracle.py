"""Ground-truth discovery of co-moving services and the optimal composition.

A map-reduce over one user trajectory against ``ServiceColumns``, the service
universe as the concatenation of every service trajectory's ``t``/``x``/``y``
columns, one row per service sample, sorted by integer timestep. The temporal
join finds each user timestep's block of rows by binary search. The spatial
filter tests every joined row against the search disk with numpy, widened by
a small relative margin; the survivors' exact point distance (``math.hypot``
or the haversine) makes the strict ``< r_s`` decision. The pairs left are
priced as columns: ``perpendicular_distance``, ``strength`` and ``capacity``
each run once per user over all of them, with numpy doing only the steps
that are exact in IEEE arithmetic and ``math`` the rounded ones, so every
emitted float is the one-pair formula's, bit for bit. The reduce phase sorts
the pairs by service and timestep in integer numpy and keeps services paired
over at least ``w`` strictly consecutive timesteps; a ``CandidateTable`` holds
the survivors as columns, and the plan and the JSON rows are read from them.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import InvalidInputError, OutOfRangeError
from .qos import QosParams, capacity, perpendicular_distance, strength
from .trajectories import (
    DistanceMode, MovingService, UserTrajectory, check_gps, distances, haversine_m
)

DUMMY_SERVICE = "__dummy__"  # the "no valid service here" action


@dataclass(frozen=True, eq=False)
class DiskPairs:
    """Every (user timestep, service sample) pair strictly inside the search
    disk, priced, as columns in join order: by timestep, then universe row.
    ``service`` indexes the universe's services; ``ids`` and ``rank`` are
    the universe's (see ``ServiceColumns``)."""

    timestep: np.ndarray  # int64
    service: np.ndarray  # int32
    distance: np.ndarray
    strength: np.ndarray
    capacity: np.ndarray
    ids: np.ndarray
    rank: np.ndarray

    def __len__(self) -> int:
        return len(self.timestep)


class CandidateTable:
    """Validated pairing of services against one user trajectory, as columns.

    One row per validated (timestep, service) pair, sorted by timestep and
    then by service id: ``timestep`` (int64), ``service_id`` (object, str),
    ``distance``, ``strength`` and ``capacity`` (float64). ``per_timestep``
    maps each timestep that has candidates to its ``range`` of rows;
    ``validated`` maps service id, in id order, to its maximal consecutive
    runs [start, end], each of length >= w; ``capacity_at`` maps (timestep,
    service id) to the row's capacity. Read-only once built.
    """

    def __init__(self, timestep, service_id, distance, strength, capacity, validated):
        self.timestep, self.service_id = timestep, service_id
        self.distance, self.strength, self.capacity = distance, strength, capacity
        self.validated: dict[str, tuple[tuple[int, int], ...]] = validated
        steps, first = np.unique(timestep, return_index=True)
        ends = np.append(first[1:], len(timestep))
        self.per_timestep: dict[int, range] = dict(
            zip(steps.tolist(), map(range, first.tolist(), ends.tolist()))
        )

    @cached_property
    def capacity_at(self) -> dict[tuple[int, str], float]:
        """(timestep, service id) -> capacity of every row, built on first use."""
        keys = zip(self.timestep.tolist(), self.service_id.tolist())
        return dict(zip(keys, self.capacity.tolist()))


@dataclass(frozen=True)
class PlanStep:
    """One composed step: the pick, its reward and the capacity it delivers."""

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


def _int_timesteps(t: np.ndarray) -> np.ndarray:
    """Integer timesteps ``int(t)`` of a column of non-negative times."""
    if t.size and t.max() >= 2.0**63:
        raise InvalidInputError("timestep beyond the 64-bit integer range")
    return t.astype(np.int64)


class ServiceColumns:
    """The service universe as flat columns, one row per service sample: the
    services' trajectory columns concatenated.

    Rows are stably sorted by integer timestep ``int(t)``, so within one
    timestep they keep service order, then sample order; the rows of
    ``timesteps[i]`` are ``bounds[i]:bounds[i + 1]``. ``row`` indexes
    ``services``, and ``x``/``y`` are the sample's position. Per service, in
    the services' (bundle) order: ``ids``, ``bandwidth``, ``max_k``, and
    ``rank``, the position of its id among the distinct ids sorted, which
    orders rows by id. Built once per scenario and read-only afterwards.
    """

    def __init__(self, services: Sequence[MovingService]):
        self.services = tuple(services)
        trajs = [s.trajectory for s in self.services]
        lengths = np.array([len(tr) for tr in trajs], dtype=np.int64)
        # the empty column keeps concatenate defined for an empty universe
        t, x, y = (np.concatenate([np.empty(0)] + [getattr(tr, c) for tr in trajs]) for c in "txy")
        steps = _int_timesteps(t)
        order = np.argsort(steps, kind="stable")
        self.timesteps, first = np.unique(steps[order], return_index=True)
        self.bounds = np.append(first, len(t))
        self.row = np.repeat(np.arange(len(self.services), dtype=np.int32), lengths)[order]
        self.x, self.y = x[order], y[order]
        ids = [s.id for s in self.services]
        position = {sid: i for i, sid in enumerate(sorted(set(ids)))}
        self.ids = np.array(ids, dtype=object)
        self.rank = np.array([position[sid] for sid in ids], dtype=np.int64)
        self.bandwidth = np.array([s.bandwidth_b for s in self.services], dtype=np.float64)
        self.max_k = np.array([s.max_concurrent_k for s in self.services])


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
    timesteps = np.unique(_int_timesteps(user.trajectory.t))
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
) -> DiskPairs:
    """Keep pairs strictly inside the search disk and attach their QoS.

    Disk membership uses the point-to-point distance at the shared timestep
    (strict ``< r_s``); the attached strength uses the clamped perpendicular
    distance to the user's path segment, which never exceeds the point
    distance, so the strength precondition holds by construction. A numpy
    prefilter over all joined rows, widened by ``DISK_MARGIN``, picks the
    rows whose exact distance is then taken; the pairs inside are priced by
    one call each of ``perpendicular_distance``, ``strength`` and
    ``capacity``.
    """
    r_s = qos_params.sensing_radius_rs
    traj = user.trajectory
    rows = joined.rows
    counts = np.diff(joined.bounds)
    # index of the user sample at each joined timestep; a timestep with
    # joined rows needs a user sample at exactly that timestep
    at = np.minimum(np.searchsorted(traj.t, joined.timesteps), len(traj) - 1)
    absent = (traj.t[at] != joined.timesteps) & (counts > 0)
    if absent.any():
        raise OutOfRangeError(f"no sample at timestep {joined.timesteps[np.argmax(absent)]}")
    # index of the user sample at t + 1, or at t where there is none
    nxt = np.minimum(at + 1, len(traj) - 1)
    nxt = np.where(traj.t[nxt] == joined.timesteps + 1, nxt, at)
    ux, uy = np.repeat(traj.x[at], counts), np.repeat(traj.y[at], counts)
    sx, sy = universe.x[rows], universe.y[rows]

    if mode is DistanceMode.HAVERSINE:
        # every joined pair is range-checked, inside the disk or not
        valid = (np.abs(ux) <= 180.0) & (np.abs(uy) <= 90.0)
        valid &= (np.abs(sx) <= 180.0) & (np.abs(sy) <= 90.0)
        if not valid.all():
            j = int(np.argmin(valid))
            check_gps(float(ux[j]), float(uy[j]))
            check_gps(float(sx[j]), float(sy[j]))
    near = np.flatnonzero(distances(ux, uy, sx, sy, mode) < r_s * (1.0 + DISK_MARGIN))
    step = np.searchsorted(joined.bounds, near, side="right") - 1
    a = at[step]
    ax, ay, px, py = traj.x[a], traj.y[a], sx[near], sy[near]
    if mode is DistanceMode.HAVERSINE:
        d = map(haversine_m, ax.tolist(), ay.tolist(), px.tolist(), py.tolist())
    else:
        d = map(math.hypot, (ax - px).tolist(), (ay - py).tolist())
    d = np.array(list(d))
    inside = d < r_s
    step, near, d = step[inside], near[inside], d[inside]
    ax, ay, px, py = ax[inside], ay[inside], px[inside], py[inside]
    b = nxt[step]
    service = universe.row[rows[near]]
    pdis = perpendicular_distance(px, py, ax, ay, traj.x[b], traj.y[b], mode)
    s = strength(pdis, qos_params)
    cap = capacity(s, universe.bandwidth[service], universe.max_k[service])
    return DiskPairs(
        timestep=joined.timesteps[step], service=service, distance=d, strength=s, capacity=cap,
        ids=universe.ids, rank=universe.rank,
    )


def reduce_validate(pairs: DiskPairs, w: int) -> CandidateTable:
    """Keep services paired over runs of >= w consecutive timesteps.

    The pairs are sorted once, by service id and then timestep, in integer
    numpy. Of two samples of a service in one integer timestep the later one
    is kept, and runs split where consecutive timesteps differ by more than
    one. The survivors are re-sorted by timestep, then id.
    """
    if w < 1:
        raise InvalidInputError(f"w must be >= 1, got {w}")
    key = pairs.rank[pairs.service]
    # lexsort is stable: within one (id, timestep) the join order, samples
    # in time order, is kept, so the last of each group is the later sample
    order = np.lexsort((pairs.timestep, key))
    ts, key = pairs.timestep[order], key[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (key[1:] != key[:-1]) | (ts[1:] != ts[:-1])
    order, ts, key = order[last], ts[last], key[last]

    start = np.ones(len(order), dtype=bool)
    start[1:] = (key[1:] != key[:-1]) | (ts[1:] - ts[:-1] != 1)
    first = np.flatnonzero(start)
    length = np.diff(np.append(first, len(order)))
    long = length >= w
    runs = zip(
        pairs.ids[pairs.service[order[first[long]]]].tolist(),
        ts[first[long]].tolist(),
        ts[first[long] + length[long] - 1].tolist(),
    )
    validated = {
        sid: tuple((lo, hi) for _, lo, hi in group)
        for sid, group in groupby(runs, key=itemgetter(0))
    }

    keep = np.repeat(long, length)
    rows = order[keep][np.lexsort((key[keep], ts[keep]))]
    return CandidateTable(
        timestep=pairs.timestep[rows],
        service_id=pairs.ids[pairs.service[rows]],
        distance=pairs.distance[rows],
        strength=pairs.strength[rows],
        capacity=pairs.capacity[rows],
        validated=validated,
    )


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
    # rows are in id order within a timestep and lexsort is stable, so each
    # timestep's first row by (timestep, -capacity) is its best, ties to the
    # smallest id
    order = np.lexsort((-table.capacity, table.timestep))
    ts = table.timestep[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = ts[1:] != ts[:-1]
    best = order[head]
    pick = dict(zip(
        table.timestep[best].tolist(),
        zip(table.service_id[best].tolist(), table.capacity[best].tolist()),
    ))
    steps = []
    for t in _int_timesteps(user.trajectory.t).tolist():
        chosen = pick.get(t)
        if chosen is None:
            steps.append(
                PlanStep(user_timestep=t, chosen=DUMMY_SERVICE, reward=dummy_reward, capacity=0.0)
            )
            continue
        sid, cap = chosen
        steps.append(PlanStep(user_timestep=t, chosen=sid, reward=cap / reward_scale, capacity=cap))
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
    # most strengths are the full 1.0; one shared float for them keeps a
    # payload that is held until it is written about 8 % smaller
    strengths = [1.0 if st == 1.0 else st for st in table.strength.tolist()]
    cands = [
        {"service_id": sid, "distance_m": d, "strength": st, "capacity_bps": cap}
        for sid, d, st, cap in zip(
            table.service_id.tolist(), table.distance.tolist(), strengths, table.capacity.tolist()
        )
    ]
    at, none = table.per_timestep, range(0)
    return [
        {"timestep": t, "candidates": cands[r.start : r.stop], "chosen": chosen_by_t[t]}
        for t in _int_timesteps(user.trajectory.t).tolist()
        for r in (at.get(t, none),)
    ]
