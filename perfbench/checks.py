"""Checks of the program's outputs, computed apart from the program.

Nothing here imports ``mobicomp``. The inputs are read back from the scenario
bundle files with the standard library, the co-moving pairs are found by
brute force with numpy over the whole integer timestep grid, and every output
is compared with what the model in the paper says it must be. Each ``check_*``
function returns a list of readable mismatches; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DUMMY = "__dummy__"
EARTH_RADIUS_M = 6_371_000.0  # the sphere the bundle format defines distances on
PLANAR, HAVERSINE = "planar_euclidean", "haversine"
# Pairs this close to the sensing radius may fall either side of it under
# rounding, so they are left out of the comparison (metres).
EDGE_BAND = {PLANAR: 1e-9, HAVERSINE: 1e-6}
RTOL = 1e-9


@dataclass
class Bundle:
    """A scenario bundle read back from its files."""

    mode: str
    r_s: float
    r_c: float
    decay_k: float
    w: int
    dummy_reward: float
    invalid_reward: float
    service_ids: list[str]
    unit_capacity: np.ndarray  # B/K per service, in service_ids order
    positions: np.ndarray  # (n_services, t_max + 1, 2), nan where absent
    users: dict[str, tuple[np.ndarray, np.ndarray]]  # id -> (timesteps, xy)

    @property
    def reward_scale(self) -> float:
        return float(self.unit_capacity.max()) if len(self.unit_capacity) else 1.0


def _read_csv(path: Path) -> dict[str, list[tuple[int, float, float]]]:
    rows: dict[str, list[tuple[int, float, float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for ident, t, x, y in reader:
            rows.setdefault(ident, []).append((int(t), float(x), float(y)))
    return rows


def read_bundle(scenario_json: str | Path) -> Bundle:
    path = Path(scenario_json)
    cfg = json.loads(path.read_text(encoding="utf-8"))
    services = _read_csv(path.parent / cfg["services_csv"])
    users = _read_csv(path.parent / cfg["users_csv"])
    t_max = max(t for rows in (*services.values(), *users.values()) for t, _, _ in rows)
    ids = list(services)
    positions = np.full((len(ids), t_max + 1, 2), np.nan)
    for i, sid in enumerate(ids):
        arr = np.array(services[sid])
        positions[i, arr[:, 0].astype(int)] = arr[:, 1:]
    qos = cfg["service_qos"]
    unit = np.array(
        [qos[s]["bandwidth_bps"] / qos[s]["max_concurrent"] for s in ids], dtype=float
    )
    return Bundle(
        mode=cfg["distance_mode"],
        r_s=float(cfg["qos"]["r_s_meters"]),
        r_c=float(cfg["qos"]["r_c_meters"]),
        decay_k=float(cfg["qos"]["decay_k"]),
        w=int(cfg["w"]),
        dummy_reward=float(cfg["rewards"]["dummy"]),
        invalid_reward=float(cfg["rewards"]["invalid"]),
        service_ids=ids,
        unit_capacity=unit,
        positions=positions,
        users={
            uid: (np.array([r[0] for r in rows]), np.array([r[1:] for r in rows]))
            for uid, rows in users.items()
        },
    )


def great_circle_m(lon1, lat1, lon2, lat2):
    """Vincenty's atan2 form of the great-circle distance on the sphere."""
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dl = np.radians(lon2 - lon1)
    num = np.hypot(np.cos(p2) * np.sin(dl), np.cos(p1) * np.sin(p2) - np.sin(p1) * np.cos(p2) * np.cos(dl))
    den = np.sin(p1) * np.sin(p2) + np.cos(p1) * np.cos(p2) * np.cos(dl)
    return EARTH_RADIUS_M * np.arctan2(num, den)


def strength_of(pdis, r_c: float, decay_k: float):
    pdis = np.asarray(pdis, dtype=float)
    return np.where(pdis <= r_c, 1.0, np.exp(-decay_k * (pdis - r_c)))


@dataclass
class Reference:
    """Brute-force pairs and validated runs for one user."""

    timesteps: np.ndarray
    distance: dict[tuple[int, str], float]  # every pair strictly inside the disk
    runs: dict[str, list[tuple[int, int]]]  # maximal runs of length >= w
    surviving: dict[int, set[str]]  # timestep -> services in a validated run
    capacity: dict[tuple[int, str], float] = field(default_factory=dict)
    unsure: set[str] = field(default_factory=set)  # services with a pair at the edge


def _runs(ts: list[int]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for t in ts:
        if out and t == out[-1][1] + 1:
            out[-1] = (out[-1][0], t)
        else:
            out.append((t, t))
    return out


def reference(bundle: Bundle, user_id: str) -> Reference:
    ts, xy = bundle.users[user_id]
    svc = bundle.positions[:, ts]  # (n_services, n_steps, 2)
    if bundle.mode == PLANAR:
        d = np.hypot(svc[..., 0] - xy[:, 0], svc[..., 1] - xy[:, 1])
    else:
        d = great_circle_m(xy[:, 0], xy[:, 1], svc[..., 0], svc[..., 1])
    with np.errstate(invalid="ignore"):
        inside = d < bundle.r_s
        edge = np.abs(d - bundle.r_s) <= EDGE_BAND[bundle.mode]
    ref = Reference(timesteps=ts, distance={}, runs={}, surviving={})
    ref.unsure = {bundle.service_ids[i] for i in np.unique(np.nonzero(edge)[0])}
    for i, sid in enumerate(bundle.service_ids):
        steps = np.nonzero(inside[i])[0]
        for j in steps:
            ref.distance[(int(ts[j]), sid)] = float(d[i, j])
        runs = [r for r in _runs([int(ts[j]) for j in steps]) if r[1] - r[0] + 1 >= bundle.w]
        if runs:
            ref.runs[sid] = runs
            for a, b in runs:
                for t in range(a, b + 1):
                    ref.surviving.setdefault(t, set()).add(sid)
    if bundle.mode == PLANAR:
        _planar_capacities(bundle, ref, xy)
    return ref


def _planar_capacities(bundle: Bundle, ref: Reference, xy: np.ndarray) -> None:
    """Capacity of every surviving pair from the clamped perpendicular foot."""
    pairs = [(t, sid) for t, sids in ref.surviving.items() for sid in sids]
    if not pairs:
        return
    col = {sid: i for i, sid in enumerate(bundle.service_ids)}
    ts = ref.timesteps
    t = np.array([p[0] for p in pairs])
    j = np.searchsorted(ts, t)
    p = bundle.positions[[col[p[1]] for p in pairs], t]
    a = xy[j]
    nxt = np.minimum(j + 1, len(ts) - 1)
    has_next = (j + 1 < len(ts)) & (ts[nxt] == t + 1)
    v = np.where(has_next[:, None], xy[nxt] - a, 0.0)
    den = (v * v).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        s = np.clip(((p - a) * v).sum(axis=1) / den, 0.0, 1.0)
    s = np.where(den == 0.0, 0.0, s)
    foot = a + s[:, None] * v
    pdis = np.hypot(p[:, 0] - foot[:, 0], p[:, 1] - foot[:, 1])
    unit = bundle.unit_capacity[[col[p[1]] for p in pairs]]
    cap = unit * np.log2(1.0 + strength_of(pdis, bundle.r_c, bundle.decay_k))
    ref.capacity.update(zip(pairs, cap.tolist()))


def _close(a: float, b: float, rtol: float = RTOL, atol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def check_runs(bundle: Bundle, ref: Reference, validated: dict[str, list]) -> list[str]:
    """The program's validated runs equal the brute-force maximal runs."""
    got = {sid: [tuple(r) for r in runs] for sid, runs in validated.items()}
    errors = []
    for sid in sorted(set(got) | set(ref.runs)):
        if sid in ref.unsure:
            continue
        if got.get(sid) != ref.runs.get(sid):
            errors.append(f"runs of {sid}: got {got.get(sid)}, expected {ref.runs.get(sid)}")
    return errors


def check_discover_rows(bundle: Bundle, ref: Reference, rows: list[dict]) -> list[str]:
    """One discover JSON user block (its ``steps``) against the reference.

    Also records the program's capacities in haversine mode, where the
    reference can only bound them, so later checks can price picks.
    """
    errors = []
    col = {sid: i for i, sid in enumerate(bundle.service_ids)}
    band = EDGE_BAND[bundle.mode]
    if [r["timestep"] for r in rows] != ref.timesteps.tolist():
        return [f"rows cover timesteps {len(rows)}, expected {len(ref.timesteps)} in order"]
    for row in rows:
        t = row["timestep"]
        cands = row["candidates"]
        ids = [c["service_id"] for c in cands]
        if ids != sorted(ids):
            errors.append(f"t={t}: candidates not sorted by id")
        want = {s for s in ref.surviving.get(t, ()) if s not in ref.unsure}
        have = {s for s in ids if s not in ref.unsure}
        if have != want:
            errors.append(f"t={t}: candidates {sorted(have ^ want)} differ from the brute force")
            continue
        for c in cands:
            sid, d = c["service_id"], c["distance_m"]
            st, cap = c["strength"], c["capacity_bps"]
            unit = bundle.unit_capacity[col[sid]]
            if (t, sid) in ref.distance and not _close(d, ref.distance[(t, sid)], atol=band):
                errors.append(f"t={t} {sid}: distance {d} != {ref.distance[(t, sid)]}")
            if bundle.mode == PLANAR:
                if sid in ref.unsure:
                    continue
                exp = ref.capacity[(t, sid)]
                if not _close(cap, exp):
                    errors.append(f"t={t} {sid}: capacity {cap} != {exp}")
            else:
                # the perpendicular distance never exceeds the point distance
                floor = float(strength_of(d, bundle.r_c, bundle.decay_k))
                if not (0.0 < st <= 1.0) or st < floor * (1 - RTOL):
                    errors.append(f"t={t} {sid}: strength {st} outside ({floor}, 1]")
                if cap > unit * (1 + RTOL) or not _close(cap, unit * math.log2(1.0 + st)):
                    errors.append(f"t={t} {sid}: capacity {cap} inconsistent with strength {st}")
                ref.capacity[(t, sid)] = cap
        errors += _check_choice(ref, t, row["chosen"], {c["service_id"]: c["capacity_bps"] for c in cands})
    return errors


def _check_choice(ref: Reference, t: int, chosen: str, caps: dict[str, float]) -> list[str]:
    """Per-step argmax of capacity, ties to the smallest id; dummy if empty."""
    if not caps:
        return [] if chosen == DUMMY else [f"t={t}: chose {chosen} with no candidate"]
    if chosen not in caps:
        return [f"t={t}: chose {chosen!r}, not a candidate"]
    best = min(caps, key=lambda s: (-caps[s], s))
    if chosen != best:
        return [f"t={t}: chose {chosen}, the argmax is {best}"]
    ours = {s: ref.capacity[(t, s)] for s in caps if (t, s) in ref.capacity}
    if ours and chosen in ours and ours[chosen] < max(ours.values()) * (1 - RTOL):
        return [f"t={t}: {chosen} is not the reference argmax"]
    return []


def check_discover_json(bundle: Bundle, refs: dict[str, Reference], data: bytes) -> list[str]:
    """A whole discover JSON, parsed back: one block per user, in order."""
    payload = json.loads(data)
    blocks = payload["users"]
    if [b["user_id"] for b in blocks] != list(refs):
        return [f"user blocks {[b['user_id'] for b in blocks]} != {list(refs)}"]
    errors = []
    for block in blocks:
        errors += [f"{block['user_id']} {e}" for e in check_discover_rows(bundle, refs[block["user_id"]], block["steps"])]
    return errors


def expected_reward(bundle: Bundle, ref: Reference, t: int, chosen: str) -> tuple[float, float]:
    """(reward, capacity) the environment must pay for picking ``chosen`` at t."""
    if chosen == DUMMY:
        return bundle.dummy_reward, 0.0
    if chosen in ref.surviving.get(t, ()):
        cap = ref.capacity[(t, chosen)]
        return cap / bundle.reward_scale, cap
    return bundle.invalid_reward, 0.0


def check_composition(bundle: Bundle, ref: Reference, steps: list[tuple[int, str, float, float]]) -> list[str]:
    """Every composed step's reward and capacity, rebuilt from the reference."""
    if [s[0] for s in steps] != ref.timesteps.tolist():
        return ["composition does not cover the user's timesteps in order"]
    errors = []
    for t, chosen, reward, cap in steps:
        if chosen in ref.unsure:
            continue
        exp_r, exp_c = expected_reward(bundle, ref, t, chosen)
        if not (_close(reward, exp_r) and _close(cap, exp_c)):
            errors.append(f"t={t} {chosen}: reward {reward}/cap {cap}, expected {exp_r}/{exp_c}")
    return errors


def accuracy(agent_steps, oracle_steps) -> tuple[int, int]:
    """(correct, valid) steps: the agent matched the oracle's capacity where
    the oracle had a candidate; dummy and invalid picks are never correct."""
    cs = ns = 0
    for (_, a_chosen, _, a_cap), (_, o_chosen, _, o_cap) in zip(agent_steps, oracle_steps):
        if o_chosen == DUMMY:
            continue
        ns += 1
        if a_chosen != DUMMY and a_cap > 0.0 and a_cap == o_cap:
            cs += 1
    return cs, ns


def train_schedule(steps_per_episode: list[int], capacity: int, interval: int) -> list[bool]:
    """Which episodes end with a training pass: the first time the replay
    memory is full, then whenever ``interval`` new transitions arrived."""
    out, stored, new, trained = [], 0, 0, False
    for n in steps_per_episode:
        stored, new = stored + n, new + n
        due = stored >= capacity and (not trained or new >= interval)
        if due:
            trained, new = True, 0
        out.append(due)
    return out


def check_training(
    log: list[tuple[int, float, float, float]],
    steps_per_episode: list[int],
    config: dict,
) -> list[str]:
    """Episode count, pass schedule, epsilon decay and finite losses."""
    n = len(steps_per_episode)
    if [row[0] for row in log] != list(range(1, n + 1)):
        return [f"log has {len(log)} episodes, expected {n}"]
    errors = []
    due = train_schedule(steps_per_episode, config["memory_capacity"], config["train_interval"])
    passes = 0
    for (ep, cum, eps, loss), pass_due, steps in zip(log, due, steps_per_episode):
        if pass_due != (not math.isnan(loss)):
            errors.append(f"episode {ep}: training pass {'missing' if pass_due else 'unexpected'}")
        if pass_due:
            passes += 1
            if not math.isfinite(loss) or loss < 0:
                errors.append(f"episode {ep}: loss {loss}")
        want = max(config["epsilon_min"], config["epsilon_start"] * config["epsilon_decay"] ** passes)
        if not _close(eps, want, 1e-12):
            errors.append(f"episode {ep}: epsilon {eps}, expected {want}")
        if not math.isfinite(cum) or abs(cum) > steps * max(1.0, abs(config["invalid_reward"])):
            errors.append(f"episode {ep}: cumulative reward {cum} out of range")
    return errors
