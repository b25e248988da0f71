"""Ground-truth discovery of co-moving services and the optimal composition.

Services and users are samples on one integer grid and service ids are unique
(``MovingService``, ``UserTrajectory`` and ``ServiceColumns`` refuse anything
else), so user sample i is joined timestep i and a (timestep, service) pair
occurs at most once. Discovery is a map-reduce over one user trajectory
against ``ServiceColumns``, the service universe as flat columns, one row per
service sample, sorted by timestep and, within a timestep, by y. The temporal
join finds each user timestep's block of rows by binary search and keeps it as
bounds. The spatial filter reads only the band of each block whose y lies
within about ``r_s`` of the user's y, one run of rows found by two binary
searches over the universe's (block, y) keys, since a sample farther off in y
is farther off in distance. It tests those rows against the search disk with
numpy, widened by a small relative margin; the survivors' exact point distance
(``math.hypot`` or the haversine) makes the strict ``< r_s`` decision. The
pairs left are priced as columns: ``perpendicular_distance``, ``strength`` and
``capacity`` each run once per user over all of them, with numpy doing only
the steps that are exact in IEEE arithmetic and ``math`` the rounded ones, so
every emitted float is the one-pair formula's, bit for bit. The reduce phase
sorts the pairs by service and timestep in integer numpy and keeps services
paired over at least ``w`` strictly consecutive timesteps. One table type,
``CandidateTable``, holds the in-disk pairs and the survivors as columns,
with views built when first read; the plan and the JSON rows are read from
it. In haversine mode ``discover`` first range-checks the universe, once,
and the user, so every later phase takes coordinates inside the GPS box.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from operator import itemgetter

import numpy as np

from .errors import InvalidInputError
from .qos import QosParams, capacity, perpendicular_distance, strength
from .trajectories import (
    DUMMY_SERVICE, EARTH_RADIUS_M, DistanceMode, MovingService, UserTrajectory,
    check_gps_samples, distances, haversine_m, in_gps_range,
)


@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Priced (timestep, service) pairs of one user trajectory as columns in
    join order, by timestep, then service, each pair once: ``spatial_map``'s
    pairs inside the disk, or ``reduce_validate``'s validated ones.
    ``service`` (int32) indexes ``ids``, the universe's ids in id order.

    Views, built when first read: ``service_id``, each row's id;
    ``per_timestep``, each timestep's ``range`` of rows; ``capacity_at``,
    (timestep, service id) -> capacity; ``validated``, service id, in id
    order, -> its maximal runs [start, end] of consecutive timesteps, each
    of length >= w in a validated table.
    """

    timestep: np.ndarray  # int64
    service: np.ndarray  # int32
    distance: np.ndarray
    strength: np.ndarray
    capacity: np.ndarray
    ids: np.ndarray

    def __len__(self) -> int:
        return len(self.timestep)

    def rows(self, index) -> CandidateTable:
        """The table of the rows ``index`` selects, in that order."""
        cols = self.timestep, self.service, self.distance, self.strength, self.capacity
        return CandidateTable(*(c[index] for c in cols), self.ids)

    @cached_property
    def service_id(self) -> np.ndarray:
        return self.ids[self.service]

    @cached_property
    def per_timestep(self) -> dict[int, range]:
        steps, first = np.unique(self.timestep, return_index=True)
        ends = np.append(first[1:], len(self.timestep))
        return dict(zip(steps.tolist(), map(range, first.tolist(), ends.tolist())))

    @cached_property
    def capacity_at(self) -> dict[tuple[int, str], float]:
        keys = zip(self.timestep.tolist(), self.service_id.tolist())
        return dict(zip(keys, self.capacity.tolist()))

    @cached_property
    def validated(self) -> dict[str, tuple[tuple[int, int], ...]]:
        order, first, length = _runs(self)
        head, last = order[first], order[first + length - 1]
        starts, ends = self.timestep[head].tolist(), self.timestep[last].tolist()
        runs = zip(self.service[head].tolist(), starts, ends)
        return {
            self.ids[k]: tuple((lo, hi) for _, lo, hi in group)
            for k, group in groupby(runs, key=itemgetter(0))
        }


def _runs(pairs: CandidateTable):
    """The maximal runs of consecutive timesteps of each service: the rows
    sorted by service, then timestep, in integer numpy, and per run its
    first position in that order and its length."""
    order = np.lexsort((pairs.timestep, pairs.service))
    ts, key = pairs.timestep[order], pairs.service[order]
    start = np.ones(len(order), dtype=bool)
    start[1:] = (key[1:] != key[:-1]) | (ts[1:] - ts[:-1] != 1)
    first = np.flatnonzero(start)
    return order, first, np.diff(np.append(first, len(order)))


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
# margin keeps every pair ``math.hypot`` or ``haversine_m`` puts inside the disk.
DISK_MARGIN = 1e-6


def _band_keys(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Complex keys ``real + 1j*imag``, built without rounding either part;
    numpy orders and searches complex values by real part, then imaginary."""
    key = np.empty(len(real), dtype=np.complex128)
    key.real, key.imag = real, imag
    return key


def _band_sorted(services: Sequence[MovingService]):
    """The services' samples sorted by (timestep, y): the distinct
    timesteps, their row bounds, the sorted band keys, and per row x and the
    index of its service (int32). Each concatenated column is dropped once
    used, which keeps the peak memory of the build near what its result
    holds."""
    trajs = [s.trajectory for s in services]

    def column(name):
        # the empty column keeps concatenate defined for an empty universe
        return np.concatenate([np.empty(0)] + [getattr(tr, name) for tr in trajs])

    steps = column("t").astype(np.int64)
    order = np.argsort(steps, kind="stable")
    timesteps, first = np.unique(steps[order], return_index=True)
    bounds = np.append(first, len(steps))
    del steps
    y = column("y")
    key = _band_keys(np.repeat(bounds[:-1], np.diff(bounds)), y[order])
    order = order[key.argsort()]
    # sorting moves rows only within their block, so the real parts
    # already stand in sorted order
    key.imag = y[order]
    del y
    service = np.repeat(np.arange(len(trajs), dtype=np.int32), [len(tr) for tr in trajs])
    return timesteps, bounds, key, column("x")[order], service[order]


class ServiceColumns:
    """The service universe as flat columns, one row per service sample,
    sorted by timestep and, within one timestep, by y. Service ids must be
    unique, and every service lies on the integer grid, so a block holds at
    most one row of each service.

    The rows of ``timesteps[i]`` are ``bounds[i]:bounds[i + 1]``, its block;
    ``x``/``y`` are the sample's position and ``service`` (int32) the index
    of its service in ``services``, held in id order, so ``service`` orders
    rows by id, the join order within a block.

    The band index: ``band_key`` holds each row's key, its block start
    ``bounds[i]`` plus ``1j*y``, and is sorted; ``y`` is its imaginary part.
    The rows of one timestep whose y lies in a closed interval are therefore
    one run, found by two binary searches over it. The index holds no radius
    and no distance mode.

    Per service, in id order: ``ids``, ``bandwidth`` and ``max_k``. Built
    once per scenario and read-only afterwards.
    """

    def __init__(self, services: Sequence[MovingService]):
        self.services = tuple(sorted(services, key=lambda s: s.id))
        ids = [s.id for s in self.services]
        repeated = [a for a, b in zip(ids, ids[1:]) if a == b]
        if repeated:
            raise InvalidInputError(f"repeated service id {repeated[0]!r}")
        self.timesteps, self.bounds, self.band_key, self.x, self.service = _band_sorted(self.services)
        self.y = self.band_key.imag
        self.ids = np.array(ids, dtype=object)
        self.bandwidth = np.array([s.bandwidth_b for s in self.services], dtype=np.float64)
        self.max_k = np.array([s.max_concurrent_k for s in self.services])

    @cached_property
    def gps_bad_service(self) -> MovingService | None:
        """The first service in id order with a sample out of the GPS box, or
        None; found on first use, by haversine discovery."""
        bad = self.service[~in_gps_range(self.x, self.y)]
        return self.services[bad.min()] if bad.size else None


class JoinedSamples(Mapping):
    """Result of the temporal join: for user sample i, at ``timesteps[i]``,
    the universe rows sharing its timestep, ``start[i]:start[i] + count[i]``,
    possibly none. The rows are kept as these bounds and listed, in universe
    order, only when one timestep is looked up; the universe's ``service``
    orders them as joined."""

    def __init__(self, timesteps: np.ndarray, start: np.ndarray, count: np.ndarray):
        self.timesteps, self.start, self.count = timesteps, start, count

    def __getitem__(self, t) -> np.ndarray:
        i = int(np.searchsorted(self.timesteps, t))
        if i == len(self.timesteps) or self.timesteps[i] != t:
            raise KeyError(t)
        return np.arange(self.start[i], self.start[i] + self.count[i])

    def __iter__(self):
        return iter(self.timesteps.tolist())

    def __len__(self) -> int:
        return len(self.timesteps)


def temporal_map(universe: ServiceColumns, user: UserTrajectory) -> JoinedSamples:
    """Left-outer join of service samples onto the user's timesteps.

    Every user timestep, one per user sample, maps to the universe rows
    sharing it; timesteps no service covers map to no rows. Each timestep's
    rows are one contiguous block of the timestep-sorted universe, found by
    binary search over the universe's distinct timesteps, so the cost follows
    the user's sample count, never the rows joined or the timestep values.
    """
    timesteps = user.trajectory.t.astype(np.int64)
    start = universe.bounds[np.searchsorted(universe.timesteps, timesteps, side="left")]
    count = universe.bounds[np.searchsorted(universe.timesteps, timesteps, side="right")] - start
    return JoinedSamples(timesteps, start, count)


def spatial_map(
    joined: JoinedSamples,
    user: UserTrajectory,
    universe: ServiceColumns,
    qos_params: QosParams,
    mode: DistanceMode,
) -> CandidateTable:
    """Keep pairs strictly inside the search disk and attach their QoS.

    Disk membership uses the point-to-point distance at the shared timestep
    (strict ``< r_s``); the attached strength uses the clamped perpendicular
    distance to the user's path segment, which never exceeds the point
    distance, so the strength precondition holds by construction. Only the
    joined rows in the band of y around the user's y are read (see
    ``_band_half_width``); a numpy prefilter over them, widened by
    ``DISK_MARGIN``, picks the rows whose exact distance is then taken, in
    join order. The pairs inside are priced by one call each of
    ``perpendicular_distance``, ``strength`` and ``capacity``. Haversine
    coordinates must be range-checked, as ``discover`` does.
    """
    r_s = qos_params.sensing_radius_rs
    traj = user.trajectory
    ts, start, count = joined.timesteps, joined.start, joined.count
    # joined timestep i is user sample i; the sample at t + 1 is the next
    # one, or sample i itself where there is none
    nxt = np.arange(len(ts)) + np.append(np.diff(ts) == 1, False)

    # each joined timestep's band: one run of the band index
    joins = np.flatnonzero(count)
    block, uy, h = start[joins], traj.y[joins], _band_half_width(r_s, mode)
    lo = np.searchsorted(universe.band_key, _band_keys(block, uy - h), side="left")
    width = np.searchsorted(universe.band_key, _band_keys(block, uy + h), side="right") - lo
    offset = np.cumsum(width) - width
    rows = np.arange(width.sum()) + np.repeat(lo - offset, width)
    step = np.repeat(joins, width)
    ax, ay, sx, sy = traj.x[step], traj.y[step], universe.x[rows], universe.y[rows]
    near = np.flatnonzero(distances(ax, ay, sx, sy, mode) < r_s * (1.0 + DISK_MARGIN))
    # back to join order: by timestep, then service
    near = near[np.lexsort((universe.service[rows[near]], step[near]))]
    rows, step = rows[near], step[near]
    ax, ay, px, py = ax[near], ay[near], sx[near], sy[near]
    if mode is DistanceMode.HAVERSINE:
        d = map(haversine_m, ax.tolist(), ay.tolist(), px.tolist(), py.tolist())
    else:
        d = map(math.hypot, (ax - px).tolist(), (ay - py).tolist())
    d = np.array(list(d))
    inside = d < r_s
    step, rows, d = step[inside], rows[inside], d[inside]
    ax, ay, px, py = ax[inside], ay[inside], px[inside], py[inside]
    b = nxt[step]
    service = universe.service[rows]
    pdis = perpendicular_distance(px, py, ax, ay, traj.x[b], traj.y[b], mode)
    s = strength(pdis, qos_params)
    cap = capacity(s, universe.bandwidth[service], universe.max_k[service])
    return CandidateTable(ts[step], service, d, s, cap, universe.ids)


# Latitude slack of the haversine band, in degrees: more than the rounding of
# two latitudes' radians (each at most 1.2e-16 rad, about 7e-15 degrees), so a
# rounded latitude difference never brings a row outside the band into r_s.
_GPS_BAND_SLACK_DEG = 1e-12


def _band_half_width(r_s: float, mode: DistanceMode) -> float:
    """Half-width h of the y band that holds every sample within r_s of the
    user: |dy| <= hypot(dx, dy) in the plane, and the great-circle distance
    is at least R * |dlat|. Widened by ``DISK_MARGIN`` like the disk test, so
    a row outside the band is at least ``r_s * (1 + DISK_MARGIN)`` away."""
    if mode is DistanceMode.HAVERSINE:
        return math.degrees(r_s / EARTH_RADIUS_M) * (1.0 + DISK_MARGIN) + _GPS_BAND_SLACK_DEG
    return r_s * (1.0 + DISK_MARGIN)


def reduce_validate(pairs: CandidateTable, w: int) -> CandidateTable:
    """Keep services paired over runs of >= w consecutive timesteps.

    Each (timestep, service) pair occurs once. Runs split where a service's
    consecutive timesteps differ by more than one (``_runs``); the rows of
    the long runs are returned in join order, by timestep, then id.
    """
    if w < 1:
        raise InvalidInputError(f"w must be >= 1, got {w}")
    order, _, length = _runs(pairs)
    keep = order[np.repeat(length >= w, length)]
    return pairs.rows(keep[np.lexsort((pairs.service[keep], pairs.timestep[keep]))])


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
    best, best_ts = order[head], ts[head]
    # each user sample's timestep, matched to its best row if it has one
    t = user.trajectory.t.astype(np.int64)
    i = np.searchsorted(best_ts, t)
    hit = i < len(best)
    hit[hit] = best_ts[i[hit]] == t[hit]
    pick = best[i[hit]]
    chosen = np.full(len(t), DUMMY_SERVICE, dtype=object)
    chosen[hit] = table.ids[table.service[pick]]
    cap = np.zeros(len(t))
    cap[hit] = table.capacity[pick]
    reward = np.full(len(t), dummy_reward, dtype=np.float64)
    reward[hit] = cap[hit] / reward_scale  # IEEE division: the scalar quotient
    steps = map(PlanStep, t.tolist(), chosen.tolist(), reward.tolist(), cap.tolist())
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
    shared by every user; everything runs in the calling thread. In
    haversine mode the first service in id order, then the user, with a
    sample outside the GPS box is refused first, its id named."""
    if mode is DistanceMode.HAVERSINE:
        bad = universe.gps_bad_service
        if bad is not None:
            check_gps_samples(f"service {bad.id!r}", bad.trajectory.x, bad.trajectory.y)
        check_gps_samples(f"user {user.id!r}", user.trajectory.x, user.trajectory.y)
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
        for t in user.trajectory.t.astype(np.int64).tolist()
        for r in (at.get(t, none),)
    ]
