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
from .ioutil import atomic_write_text, dump_json, open_text, read_json_object
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
    parse_row,
    resample,
)

DEFAULT_SERVICE_QOS = {"bandwidth_bps": 5_000_000.0, "max_concurrent": 2}


def _is_real(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _reals(values, size: int) -> bool:
    return len(values) == size and all(map(_is_real, values))


# ScenarioSpec's fields and the test each value must pass
_SPEC_RULES = (
    ("n_services", lambda v: type(v) is int and v >= 0),
    ("n_users", lambda v: type(v) is int and v >= 1),
    ("timestep_count", lambda v: type(v) is int and v >= 2),
    ("corridor_count", lambda v: type(v) is int and v >= 1),
    ("w", lambda v: type(v) is int and v >= 1),
    ("seed", lambda v: type(v) is int and v >= 0),
    ("area", lambda a: _reals(a, 4) and a[0] < a[2] and a[1] < a[3]),
    ("speed_range", lambda r: _reals(r, 2) and 0 <= r[0] <= r[1]),
    ("bandwidth_range_bps", lambda r: _reals(r, 2) and 0 < r[0] <= r[1]),
    ("max_concurrent_choices", lambda ks: len(ks) > 0 and all(type(k) is int and k >= 1 for k in ks)),
    ("coroute_fraction", lambda v: _is_real(v) and 0 <= v <= 1),
    ("jitter_m", lambda v: _is_real(v) and v >= 0),
    ("r_s_meters", lambda v: _is_real(v) and v > 0),
    ("mobility_model", lambda m: m in ("random_waypoint", "corridor_flow")),
)


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
        for name, ok in _SPEC_RULES:
            value = getattr(self, name)
            if not ok(value):
                raise InvalidInputError(f"bad {name}: {value!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        d = dict(d)
        for key in ("area", "speed_range", "bandwidth_range_bps", "max_concurrent_choices"):
            if key in d:
                d[key] = tuple(d[key])
        return cls(**d)


DEFAULT_SEED = 7  # the default scenario's seed and every command's default --seed


def default_scenario_spec(seed: int = DEFAULT_SEED) -> ScenarioSpec:
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
) -> tuple[list[int], list[float], list[float]]:
    """The (t, x, y) columns of one wanderer. The walk is sequential, so it
    runs on Python floats; ``np.hypot`` stays because ``math.hypot`` may
    differ from it in the last bit, and that would change every bundle."""
    x_min, y_min, x_max, y_max = spec.area
    px, py = rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)
    tx, ty = rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)
    speed = rng.uniform(*spec.speed_range)
    ts = list(range(t_start, t_end + 1))
    xs, ys = [], []
    for _ in ts:
        xs.append(px)
        ys.append(py)
        dx, dy = tx - px, ty - py
        dist = float(np.hypot(dx, dy))
        if dist <= speed or dist == 0.0:
            px, py = tx, ty
            tx, ty = rng.uniform(x_min, x_max), rng.uniform(y_min, y_max)
            speed = rng.uniform(*spec.speed_range)
        elif speed > 0.0:
            step = speed / dist
            px, py = px + dx * step, py + dy * step
    return ts, xs, ys


@dataclass
class _Corridor:
    start: np.ndarray
    end: np.ndarray
    normal: np.ndarray

    def base(self, t: np.ndarray, t_count: int) -> np.ndarray:
        """Positions on the corridor at timesteps ``t``, one row each."""
        frac = (t - 1) / (t_count - 1)
        return self.start + frac[:, None] * (self.end - self.start)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (t, x, y) columns of one walk along ``corridor``: a uniform lateral
    offset plus, when the band has a width, a clipped normal jitter at each
    step. One ``normal`` draw for the whole window gives the same stream as
    one draw a step."""
    half = spec.jitter_m / 2.0
    offset = rng.uniform(-half, half)
    t = np.arange(t_start, t_end + 1)
    lateral = np.full(len(t), offset)
    if half > 0:
        lateral = np.clip(offset + rng.normal(0.0, spec.jitter_m / 8.0, size=len(t)), -half, half)
    p = corridor.base(t, spec.timestep_count) + lateral[:, None] * corridor.normal
    return t, p[:, 0], p[:, 1]


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
            cols = _corridor_points(rng, corridor, spec, 1, t_count)
        else:
            cols = _random_waypoint_points(rng, spec, 1, t_count)
        traj = Trajectory.from_columns(*cols)
        users.append(UserTrajectory(id=f"{USER_ID_PREFIX}u{i:04d}", trajectory=traj))

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
            cols = _corridor_points(rng, corridor, spec, w_start, w_end)
        else:
            cols = _random_waypoint_points(rng, spec, 1, t_count)
        bw = float(np.exp(rng.uniform(*map(math.log, spec.bandwidth_range_bps))))
        k = int(rng.choice(list(spec.max_concurrent_choices)))
        services.append(
            MovingService(
                id=f"s{j:04d}",
                trajectory=Trajectory.from_columns(*cols),
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
    dump_trajectories_csv([(s.id, s.trajectory) for s in services], out / "services.csv")
    dump_trajectories_csv([(u.id, u.trajectory) for u in users], out / "users.csv")
    config = {
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


def _section(path: Path, cfg: dict, key: str, default: dict, where: str = "") -> dict:
    """The object ``cfg[key]``, or ``default`` when the key is absent; any
    other value is an ``InvalidInputError`` naming the file and the key."""
    value = cfg.get(key, default)
    if not isinstance(value, dict):
        raise InvalidInputError(f"{path}: {key}{where} must be an object, got {value!r}")
    return value


def _csv_path(path: Path, key: str, name) -> Path:
    """The CSV that ``name``, the value of ``key``, names beside ``path``."""
    if not isinstance(name, str):
        raise InvalidInputError(f"{path}: {key} must be a file name, got {name!r}")
    return path.parent / name


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario.json and its referenced trajectory CSVs."""
    path = Path(path)
    cfg = read_json_object(path)
    try:
        mode = DistanceMode(cfg["distance_mode"])
        names = {k: cfg[k] for k in ("services_csv", "users_csv")}
    except KeyError as exc:
        raise InvalidInputError(f"{path}: missing key {exc}") from None
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    services_csv, users_csv = (_csv_path(path, k, name) for k, name in names.items())
    qos_cfg = _section(path, cfg, "qos", {})
    r_s = _number(path, qos_cfg, "r_s_meters", ScenarioSpec.r_s_meters)
    try:
        defaults = QosParams.defaults_for(r_s)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    r_c = _number(path, qos_cfg, "r_c_meters", defaults.confident_radius_rc)
    decay_k = _number(path, qos_cfg, "decay_k", defaults.decay_k)
    try:
        qos_params = QosParams(confident_radius_rc=r_c, decay_k=decay_k, sensing_radius_rs=r_s)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    rewards_cfg = _section(path, cfg, "rewards", {})
    rewards = RewardScheme(
        dummy=_number(path, rewards_cfg, "dummy", RewardScheme.dummy),
        invalid=_number(path, rewards_cfg, "invalid", RewardScheme.invalid),
    )
    default_qos = _section(path, cfg, "default_service_qos", DEFAULT_SERVICE_QOS)
    service_qos = _section(path, cfg, "service_qos", {})

    services = []
    for sid, traj in load_trajectories_csv(services_csv):
        entry = _section(path, service_qos, sid, default_qos, where=" in service_qos")
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
        w=_number(path, cfg, "w", ScenarioSpec.w, kind=int),
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


def _read_traces(
    path: str | Path, in_range
) -> tuple[dict[str, list[tuple[float, float, float]]], int, float]:
    """Samples (time, x, y) of a raw ``id,time,x,y`` file per id in file order,
    the count of skipped rows (rows that do not parse or hold a non-finite
    number, but for a header: the first non-empty row; rows not
    ``in_range(x, y)``) and the earliest time."""
    raw: dict[str, list[tuple[float, float, float]]] = {}
    skipped = 0
    first = True
    with open_text(path) as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            try:
                ident, t, x, y = parse_row(row)
            except (ValueError, IndexError):
                if not first:
                    skipped += 1
            else:
                if in_range(x, y):
                    raw.setdefault(ident, []).append((t, x, y))
                else:
                    skipped += 1
            first = False
    if not raw:
        raise InvalidInputError(f"no usable rows in {path}")
    return raw, skipped, min(t for samples in raw.values() for t, _, _ in samples)


def ingest_indoor(path: str | Path, rate: float) -> IngestResult:
    """Indoor positioning traces: rows of (person_id, wall_clock_s, x, y).

    Unsynchronised wall-clock samples are resampled at the fixed rate against
    a file-global origin, so everyone lands on one shared integer timestep
    grid (global sequences starting at 1); gaps are filled by linear
    interpolation. Coordinates are treated as planar metres; that unit choice
    is a configuration of this ingester, not a property of the format.
    """
    if not rate > 0:
        raise InvalidInputError(f"rate must be positive, got {rate}")
    raw, skipped, origin = _read_traces(path, lambda x, y: True)
    result = IngestResult(trajectories=[], skipped_rows=skipped)
    for pid, samples in raw.items():
        pts, prev = [], None
        for wall, x, y in sorted(samples):
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
    raw, skipped, origin = _read_traces(
        path, lambda lon, lat: -180.0 <= lon <= 180.0 and -90.0 <= lat <= 90.0
    )
    result = IngestResult(trajectories=[], skipped_rows=skipped)
    for tid, samples in raw.items():
        try:
            traj = Trajectory(
                tuple(
                    TrajectoryPoint(t=int(round(e - origin)) + 1, x=lon, y=lat)
                    for e, lon, lat in samples
                )
            )
        except InvalidInputError:  # epochs that do not increase or round onto one timestep
            result.rejected_ids.append(tid)
            continue
        result.trajectories.append((tid, traj))
    return result
