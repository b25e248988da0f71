"""Synthetic scenario generation and dataset ingestion.

Two mobility models: ``random_waypoint`` wanderers, and ``corridor_flow``
which routes users along shared corridors and co-routes a configurable
fraction of services with them in overlapping time windows, guaranteeing
non-trivial candidate density. Ingestion converts the two supported raw
formats (indoor positioning traces and 1 Hz GPS trips) into the canonical
trajectory CSV on a global integer timestep grid.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .environment import RewardScheme
from .errors import InvalidInputError
from .ioutil import atomic_write_text, dump_json, read_json_object
from .qos import QosParams
from .trajectories import (
    USER_ID_PREFIX,
    DistanceMode,
    MovingService,
    Trajectory,
    TrajectoryPoint,
    UserTrajectory,
    dump_trajectories_csv,
    load_trajectories_csv,
    resample,
)

DEFAULT_SERVICE_QOS = {"bandwidth_bps": 5_000_000.0, "max_concurrent": 2}


@dataclass
class ScenarioSpec:
    """Knobs for synthetic generation. Coordinates are planar metres."""

    n_services: int
    n_users: int
    area: tuple[float, float, float, float]  # x_min, y_min, x_max, y_max
    timestep_count: int
    speed_range: tuple[float, float]  # metres per step
    seed: int
    mobility_model: str = "corridor_flow"
    coroute_fraction: float = 0.8
    jitter_m: float = 2.0  # total lateral band width around a corridor
    corridor_count: int = 4
    bandwidth_range_bps: tuple[float, float] = (2e6, 2e7)
    max_concurrent_choices: tuple[int, ...] = (1, 2, 3, 4)
    r_s_meters: float = 20.0
    w: int = 2

    def __post_init__(self):
        if self.n_services < 0 or self.n_users < 1 or self.timestep_count < 2:
            raise InvalidInputError("need n_services >= 0, n_users >= 1, timesteps >= 2")
        if self.speed_range[0] < 0 or self.speed_range[1] < self.speed_range[0]:
            raise InvalidInputError(f"bad speed_range {self.speed_range}")
        if self.mobility_model not in ("random_waypoint", "corridor_flow"):
            raise InvalidInputError(f"unknown mobility model {self.mobility_model!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        d = dict(d)
        for key in ("area", "speed_range", "bandwidth_range_bps", "max_concurrent_choices"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


def default_scenario_spec(seed: int = 7) -> ScenarioSpec:
    """Desk-scale default: sized so the exhaustive oracle finishes in seconds."""
    return ScenarioSpec(
        n_services=200,
        n_users=100,
        area=(0.0, 0.0, 500.0, 500.0),
        timestep_count=500,
        speed_range=(0.8, 1.6),
        seed=seed,
    )


def _random_waypoint_points(
    rng: np.random.Generator, spec: ScenarioSpec, t_start: int, t_end: int
) -> list[TrajectoryPoint]:
    x_min, y_min, x_max, y_max = spec.area
    pos = np.array([rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)])
    target = np.array([rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)])
    speed = rng.uniform(*spec.speed_range)
    points = []
    for t in range(t_start, t_end + 1):
        points.append(TrajectoryPoint(t=t, x=float(pos[0]), y=float(pos[1])))
        delta = target - pos
        dist = float(np.hypot(*delta))
        if dist <= speed or dist == 0.0:
            pos = target
            target = np.array([rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)])
            speed = rng.uniform(*spec.speed_range)
        elif speed > 0.0:
            pos = pos + delta * (speed / dist)
    return points


@dataclass
class _Corridor:
    start: np.ndarray
    end: np.ndarray
    normal: np.ndarray

    def base(self, t: int, t_count: int) -> np.ndarray:
        frac = (t - 1) / (t_count - 1) if t_count > 1 else 0.0
        return self.start + frac * (self.end - self.start)


def _make_corridors(rng: np.random.Generator, spec: ScenarioSpec) -> list[_Corridor]:
    x_min, y_min, x_max, y_max = spec.area
    corridors = []
    for _ in range(spec.corridor_count):
        speed = rng.uniform(*spec.speed_range)
        length = max(speed, (spec.timestep_count - 1) * speed)
        start = end = None
        for _attempt in range(200):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            cand_start = np.array([rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)])
            cand_end = cand_start + length * np.array([math.cos(theta), math.sin(theta)])
            if x_min <= cand_end[0] <= x_max and y_min <= cand_end[1] <= y_max:
                start, end = cand_start, cand_end
                break
        if start is None:  # area too small for the speed; clip instead
            start = np.array([x_min, y_min])
            end = np.array([x_max, y_max])
        d = end - start
        norm = float(np.hypot(*d))
        normal = np.array([-d[1], d[0]]) / norm if norm > 0 else np.array([0.0, 1.0])
        corridors.append(_Corridor(start=start, end=end, normal=normal))
    return corridors


def _corridor_points(
    rng: np.random.Generator,
    corridor: _Corridor,
    spec: ScenarioSpec,
    t_start: int,
    t_end: int,
) -> list[TrajectoryPoint]:
    half = spec.jitter_m / 2.0
    offset = rng.uniform(-half, half)
    points = []
    for t in range(t_start, t_end + 1):
        lateral = offset
        if half > 0:
            lateral = float(np.clip(offset + rng.normal(0.0, spec.jitter_m / 8.0), -half, half))
        p = corridor.base(t, spec.timestep_count) + lateral * corridor.normal
        points.append(TrajectoryPoint(t=t, x=float(p[0]), y=float(p[1])))
    return points


def _service_windows(
    rng: np.random.Generator, group_size: int, t_count: int
) -> list[tuple[int, int]]:
    """Overlapping shift windows whose union always covers [1, t_count]."""
    stride = max(1, math.ceil(t_count / group_size))
    windows = []
    for rank in range(group_size):
        start = 1 + (rank * stride) % t_count
        min_len = 2 * stride + 1
        length = max(min_len, int(rng.integers(t_count // 8 + 1, max(t_count // 3, t_count // 8 + 2))))
        windows.append((start, min(t_count, start + length - 1)))
    return windows


def generate(spec: ScenarioSpec) -> tuple[list[MovingService], list[UserTrajectory]]:
    """Seeded, reproducible service/user trajectories on the integer grid."""
    rng = np.random.default_rng(spec.seed)
    t_count = spec.timestep_count

    users: list[UserTrajectory] = []
    services: list[MovingService] = []

    if spec.mobility_model == "corridor_flow":
        corridors = _make_corridors(rng, spec)
        n_co = int(round(spec.coroute_fraction * spec.n_services))
    else:
        corridors = []
        n_co = 0

    for i in range(spec.n_users):
        if spec.mobility_model == "corridor_flow":
            corridor = corridors[i % len(corridors)]
            pts = _corridor_points(rng, corridor, spec, 1, t_count)
        else:
            pts = _random_waypoint_points(rng, spec, 1, t_count)
        users.append(UserTrajectory(id=f"{USER_ID_PREFIX}u{i:04d}", trajectory=Trajectory(tuple(pts))))

    window_plan: dict[int, tuple[_Corridor, tuple[int, int]]] = {}
    if n_co:
        per_corridor: dict[int, list[int]] = {}
        for j in range(n_co):
            per_corridor.setdefault(j % len(corridors), []).append(j)
        for c_idx, members in sorted(per_corridor.items()):
            windows = _service_windows(rng, len(members), t_count)
            for member, win in zip(members, windows):
                window_plan[member] = (corridors[c_idx], win)

    for j in range(spec.n_services):
        if j in window_plan:
            corridor, (w_start, w_end) = window_plan[j]
            pts = _corridor_points(rng, corridor, spec, w_start, w_end)
        else:
            pts = _random_waypoint_points(rng, spec, 1, t_count)
        bw = float(np.exp(rng.uniform(*map(math.log, spec.bandwidth_range_bps))))
        k = int(rng.choice(list(spec.max_concurrent_choices)))
        services.append(
            MovingService(
                id=f"s{j:04d}",
                trajectory=Trajectory(tuple(pts)),
                bandwidth_b=bw,
                max_concurrent_k=k,
            )
        )
    return services, users


@dataclass
class Scenario:
    """A loaded scenario bundle: the service universe, users, and parameters."""

    services: list[MovingService]
    users: list[UserTrajectory]
    qos_params: QosParams
    w: int
    mode: DistanceMode
    rewards: RewardScheme
    seed: int


def _scenario_config(
    services: list[MovingService],
    qos_params: QosParams,
    w: int,
    mode: DistanceMode,
    rewards: RewardScheme,
    seed: int,
) -> dict:
    return {
        "services_csv": "services.csv",
        "users_csv": "users.csv",
        "distance_mode": mode.value,
        "w": w,
        "qos": {
            "r_c_meters": qos_params.confident_radius_rc,
            "decay_k": qos_params.decay_k,
            "r_s_meters": qos_params.sensing_radius_rs,
        },
        "rewards": {"dummy": rewards.dummy, "invalid": rewards.invalid},
        "default_service_qos": dict(DEFAULT_SERVICE_QOS),
        "service_qos": {
            s.id: {"bandwidth_bps": s.bandwidth_b, "max_concurrent": s.max_concurrent_k}
            for s in services
        },
        "seed": seed,
    }


def write_scenario_bundle(
    out_dir: str | Path,
    services: list[MovingService],
    users: list[UserTrajectory],
    qos_params: QosParams,
    w: int,
    mode: DistanceMode,
    rewards: RewardScheme = RewardScheme(),
    seed: int = 0,
) -> Path:
    """Write services.csv, users.csv and scenario.json, each atomically."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dump_trajectories_csv([(s.id, s.trajectory) for s in services], out / "services.csv")
    dump_trajectories_csv([(u.id, u.trajectory) for u in users], out / "users.csv")
    config = _scenario_config(services, qos_params, w, mode, rewards, seed)
    atomic_write_text(out / "scenario.json", dump_json(config))
    return out / "scenario.json"


def _number(path: Path, section: dict, key: str, default=None, kind=float, where: str = ""):
    """``kind`` of ``section[key]``, or of ``default`` when the key is absent;
    with no default the key is required. A missing key or a value that is not
    a number is an ``InvalidInputError`` naming the file and the key."""
    if key not in section and default is None:
        raise InvalidInputError(f"{path}: missing key {key!r}{where}")
    value = section.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{path}: {key}{where} must be a number, got {value!r}") from None


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario.json and its referenced trajectory CSVs."""
    path = Path(path)
    cfg = read_json_object(path)
    base = path.parent
    try:
        mode = DistanceMode(cfg["distance_mode"])
        services_csv, users_csv = base / cfg["services_csv"], base / cfg["users_csv"]
    except KeyError as exc:
        raise InvalidInputError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    qos_cfg = cfg.get("qos", {})
    r_s = _number(path, qos_cfg, "r_s_meters", 20.0)
    if "r_c_meters" in qos_cfg or "decay_k" in qos_cfg:
        defaults = QosParams.defaults_for(r_s)
        qos_params = QosParams(
            confident_radius_rc=_number(path, qos_cfg, "r_c_meters", defaults.confident_radius_rc),
            decay_k=_number(path, qos_cfg, "decay_k", defaults.decay_k),
            sensing_radius_rs=r_s,
        )
    else:
        qos_params = QosParams.defaults_for(r_s)
    rewards_cfg = cfg.get("rewards", {})
    rewards = RewardScheme(
        dummy=_number(path, rewards_cfg, "dummy", -1.0),
        invalid=_number(path, rewards_cfg, "invalid", -10.0),
    )
    default_qos = cfg.get("default_service_qos", DEFAULT_SERVICE_QOS)
    service_qos = cfg.get("service_qos", {})

    services = []
    for sid, traj in load_trajectories_csv(services_csv):
        entry = service_qos.get(sid, default_qos)
        where = f" for service {sid}"
        services.append(
            MovingService(
                id=sid,
                trajectory=traj,
                bandwidth_b=_number(path, entry, "bandwidth_bps", where=where),
                max_concurrent_k=_number(path, entry, "max_concurrent", kind=int, where=where),
            )
        )
    users = [
        UserTrajectory(id=uid, trajectory=traj)
        for uid, traj in load_trajectories_csv(users_csv)
    ]
    return Scenario(
        services=services,
        users=users,
        qos_params=qos_params,
        w=_number(path, cfg, "w", 2, kind=int),
        mode=mode,
        rewards=rewards,
        seed=_number(path, cfg, "seed", 0, kind=int),
    )


def split_train_test(
    users: list[UserTrajectory], seed: int, train_fraction: float = 0.7
) -> tuple[list[UserTrajectory], list[UserTrajectory]]:
    """Deterministic 70/30 split: order by id, seeded shuffle, cut."""
    ordered = sorted(users, key=lambda u: u.id)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    perm = rng.permutation(len(ordered))
    shuffled = [ordered[int(i)] for i in perm]
    n_train = int(round(train_fraction * len(ordered)))
    n_train = max(1, min(len(ordered) - 1, n_train)) if len(ordered) > 1 else 1
    return shuffled[:n_train], shuffled[n_train:]


def split_services_users(
    ids: list[str], user_fraction: float
) -> tuple[list[str], list[str]]:
    """Deterministic service/user split of a real dataset by hash of id."""
    services, users = [], []
    for ident in ids:
        h = hashlib.sha1(ident.encode("utf-8")).digest()
        frac = int.from_bytes(h[:8], "big") / 2**64
        (users if frac < user_fraction else services).append(ident)
    return services, users


@dataclass
class IngestResult:
    trajectories: list[tuple[str, Trajectory]]
    skipped_rows: int = 0
    rejected_ids: list[str] = field(default_factory=list)


def _open_rows(path: str | Path):
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row:
                yield row


def ingest_indoor(path: str | Path, rate: float) -> IngestResult:
    """Indoor positioning traces: rows of (person_id, wall_clock_s, x, y).

    Unsynchronised wall-clock samples are resampled at the fixed rate against
    a file-global origin, so everyone lands on one shared integer timestep
    grid (global sequences starting at 1); gaps are filled by linear
    interpolation. Coordinates are treated as planar metres; that unit choice
    is a configuration of this ingester, not a property of the format.
    """
    if rate <= 0:
        raise InvalidInputError(f"rate must be positive, got {rate}")
    raw: dict[str, list[tuple[float, float, float]]] = {}
    order: list[str] = []
    skipped = 0
    first = True
    for row in _open_rows(path):
        try:
            pid, wall, x, y = row[0], float(row[1]), float(row[2]), float(row[3])
        except (ValueError, IndexError):
            if not first:
                skipped += 1
            first = False
            continue  # header or malformed row
        first = False
        if pid not in raw:
            order.append(pid)
            raw[pid] = []
        raw[pid].append((wall, x, y))
    if not raw:
        raise InvalidInputError(f"no usable rows in {path}")

    origin = min(wall for rows in raw.values() for (wall, _, _) in rows)
    result = IngestResult(trajectories=[], skipped_rows=skipped)
    for pid in order:
        samples = sorted(raw[pid])
        pts, prev = [], None
        for wall, x, y in samples:
            if prev is not None and wall <= prev:
                result.skipped_rows += 1
                continue
            pts.append(TrajectoryPoint(t=wall, x=x, y=y))
            prev = wall
        try:
            traj = resample(Trajectory(tuple(pts)), rate, origin=origin)
        except InvalidInputError:
            result.rejected_ids.append(pid)
            continue
        result.trajectories.append((pid, traj))
    return result


def ingest_gps(path: str | Path) -> IngestResult:
    """1 Hz GPS trips: rows of (trip_id, epoch_seconds, lon, lat).

    Each trip becomes one trajectory on one file-global integer grid,
    t = epoch - first_epoch_in_file + 1, so trips keep their sampling gaps
    and their offsets from each other and only trips recorded at the same
    time share timesteps. Trips whose timestamps are not strictly increasing
    in file order are rejected.
    """
    raw: dict[str, list[tuple[float, float, float]]] = {}
    order: list[str] = []
    skipped = 0
    first = True
    for row in _open_rows(path):
        try:
            tid, epoch, lon, lat = row[0], float(row[1]), float(row[2]), float(row[3])
        except (ValueError, IndexError):
            if not first:
                skipped += 1
            first = False
            continue
        first = False
        if not (-180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0):
            skipped += 1
            continue
        if tid not in raw:
            order.append(tid)
            raw[tid] = []
        raw[tid].append((epoch, lon, lat))
    if not raw:
        raise InvalidInputError(f"no usable rows in {path}")

    origin = min(epoch for rows in raw.values() for (epoch, _, _) in rows)
    result = IngestResult(trajectories=[], skipped_rows=skipped)
    for tid in order:
        samples = raw[tid]
        epochs = [s[0] for s in samples]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            result.rejected_ids.append(tid)
            continue
        try:
            traj = Trajectory(
                tuple(
                    TrajectoryPoint(t=int(round(e - origin)) + 1, x=lon, y=lat)
                    for e, lon, lat in samples
                )
            )
        except InvalidInputError:  # sub-second spacing collapses onto one timestep
            result.rejected_ids.append(tid)
            continue
        result.trajectories.append((tid, traj))
    return result
