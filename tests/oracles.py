"""Independent brute-force reference implementations used only by tests.

These deliberately avoid the library's own code paths: plain loops, no shared
helpers, so the production pipeline is checked against a second derivation.
"""

import csv
import io
import math

import numpy as np

from mobicomp.errors import ContractViolationError, InvalidInputError, ProtocolError
from mobicomp.network import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
from mobicomp.oracle import DUMMY_SERVICE
from mobicomp.qos import composite_qos
from mobicomp.trajectories import DistanceMode, Trajectory, haversine_m, in_gps_range


def scalar_resample(t, x, y, rate, origin):
    """The ``(k + 1, x, y)`` samples of a raw trace resampled onto the grid
    ``origin + k*rate``, one grid point at a time: the query time is clamped
    to the span, found by a linear scan, and takes the stored sample's
    position when it lands on one, else the constant-speed interpolation
    between the samples around it."""
    t, x, y = (list(map(float, c)) for c in (t, x, y))
    k_min = math.ceil((t[0] - origin) / rate - 1e-9)
    k_max = math.floor((t[-1] - origin) / rate + 1e-9)
    out = []
    for k in range(k_min, k_max + 1):
        tq = min(max(origin + k * rate, t[0]), t[-1])
        i = 0
        while t[i] < tq:
            i += 1
        if t[i] == tq:
            out.append((k + 1, x[i], y[i]))
            continue
        frac = (tq - t[i - 1]) / (t[i] - t[i - 1])
        x_k, y_k = x[i - 1] + frac * (x[i] - x[i - 1]), y[i - 1] + frac * (y[i] - y[i - 1])
        out.append((k + 1, x_k, y_k))
    return out


def great_circle_vincenty(lon1, lat1, lon2, lat2, radius=6_371_000.0):
    """Great-circle distance via the Vincenty sphere (atan2) formula; an
    independent derivation from the haversine implementation under test."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    num = math.sqrt(
        (math.cos(p2) * math.sin(dl)) ** 2
        + (math.cos(p1) * math.sin(p2) - math.sin(p1) * math.cos(p2) * math.cos(dl)) ** 2
    )
    den = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return radius * math.atan2(num, den)


def check_gps(x: float, y: float) -> None:
    if not in_gps_range(x, y):
        raise InvalidInputError(f"GPS coordinates out of range: ({x}, {y})")


def distance(ax: float, ay: float, bx: float, by: float, mode: DistanceMode) -> float:
    """Distance in metres between positions (ax, ay) and (bx, by) under the
    given mode."""
    if mode is DistanceMode.PLANAR_EUCLIDEAN:
        return math.hypot(ax - bx, ay - by)
    check_gps(ax, ay)
    check_gps(bx, by)
    return haversine_m(ax, ay, bx, by)


def scalar_perpendicular_distance(sx, sy, ax, ay, bx, by, mode):
    """One pair's distance to the segment a-b, in Python floats: the formula
    the column pricing must equal bit for bit. It reuses the scalar
    ``distance`` above, which test_trajectories checks on its own."""
    scale = 1.0 if mode is DistanceMode.PLANAR_EUCLIDEAN else math.cos(math.radians(ay))
    vx, vy = bx - ax, by - ay
    wx = vx * scale
    den = wx * wx + vy * vy
    s = 0.0 if den == 0.0 else min(1.0, max(0.0, ((sx - ax) * scale * wx + (sy - ay) * vy) / den))
    d = distance(sx, sy, ax + s * vx, ay + s * vy, mode)
    if mode is DistanceMode.PLANAR_EUCLIDEAN:
        return d
    return min(d, distance(sx, sy, ax, ay, mode), distance(sx, sy, bx, by, mode))


def scalar_strength(pdis, params):
    """One distance's strength, in Python floats, with the same refusals."""
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


def scalar_capacity(strength_value, bandwidth_b, max_concurrent_k):
    """One pair's capacity, in Python floats, with the same refusals."""
    if not strength_value > 0:
        raise InvalidInputError(f"strength must be positive, got {strength_value}")
    if not bandwidth_b > 0:
        raise InvalidInputError(f"bandwidth must be positive, got {bandwidth_b}")
    if max_concurrent_k < 1:
        raise InvalidInputError(f"max concurrent requests must be >= 1, got {max_concurrent_k}")
    return (bandwidth_b / max_concurrent_k) * math.log2(1.0 + strength_value)


def nested_loop_join(services, user):
    """Timestep join by exhaustive pairwise comparison; each joined service
    sample as (service id, (x, y)), in id order."""
    out = {}
    for up in user.trajectory.points:
        out[int(up.t)] = []
    for svc in sorted(services, key=lambda s: s.id):
        for sp in svc.trajectory.points:
            for up in user.trajectory.points:
                if int(sp.t) == int(up.t):
                    out[int(up.t)].append((svc.id, (sp.x, sp.y)))
    return out


def brute_force_pairs(services, user, r_s):
    """All (timestep, service) pairs strictly inside the search disk, found by
    scanning every combination with a from-scratch planar distance."""
    pairs = set()
    user_at = {int(p.t): p for p in user.trajectory.points}
    for svc in services:
        for sp in svc.trajectory.points:
            up = user_at.get(int(sp.t))
            if up is None:
                continue
            d = math.sqrt((up.x - sp.x) ** 2 + (up.y - sp.y) ** 2)
            if d < r_s:
                pairs.add((int(sp.t), svc.id))
    return pairs


def brute_force_gps_pairs(services, user, r_s, edge_m):
    """(timestep, service) pairs whose Vincenty-sphere distance is below
    r_s, and, apart, those within edge_m of r_s, where two correct
    great-circle formulas may disagree."""
    inside, edge = set(), set()
    user_at = {int(p.t): p for p in user.trajectory.points}
    for svc in services:
        for sp in svc.trajectory.points:
            up = user_at.get(int(sp.t))
            if up is None:
                continue
            d = great_circle_vincenty(up.x, up.y, sp.x, sp.y)
            if abs(d - r_s) <= edge_m:
                edge.add((int(sp.t), svc.id))
            elif d < r_s:
                inside.add((int(sp.t), svc.id))
    return inside, edge


def rle_runs(timesteps):
    """Maximal consecutive runs via run-length encoding over a bitmap."""
    if not timesteps:
        return []
    ts = sorted(set(timesteps))
    lo, hi = ts[0], ts[-1]
    bitmap = [t in set(ts) for t in range(lo, hi + 1)]
    runs, start = [], None
    for i, bit in enumerate(bitmap):
        if bit and start is None:
            start = lo + i
        elif not bit and start is not None:
            runs.append((start, lo + i - 1))
            start = None
    if start is not None:
        runs.append((start, hi))
    return runs


def brute_force_validated(services, user, r_s, w):
    """Validated runs per service: brute-force pairs + RLE + length filter."""
    pairs = brute_force_pairs(services, user, r_s)
    per_service = {}
    for t, sid in pairs:
        per_service.setdefault(sid, []).append(t)
    validated = {}
    surviving = set()
    for sid, ts in per_service.items():
        runs = [r for r in rle_runs(ts) if r[1] - r[0] + 1 >= w]
        if runs:
            validated[sid] = tuple(runs)
            for a, b in runs:
                for t in range(a, b + 1):
                    if (t, sid) in pairs:
                        surviving.add((t, sid))
    return validated, surviving


def value_iteration_chain(rewards_by_state, gamma, sweeps=200):
    """Value iteration for a deterministic chain MDP: state i always moves to
    i+1, the last state is terminal. rewards_by_state[i][a] = r(s_i, a).

    Returns the optimal action index per state.
    """
    n = len(rewards_by_state)
    values = [0.0] * (n + 1)  # values[n] is the terminal continuation (0)
    for _ in range(sweeps):
        for i in range(n - 1, -1, -1):
            values[i] = max(
                r + (gamma * values[i + 1] if i + 1 < n else 0.0)
                for r in rewards_by_state[i].values()
            )
    policy = {}
    for i in range(n):
        cont = gamma * values[i + 1] if i + 1 < n else 0.0
        best_a, best_q = None, -math.inf
        for a, r in rewards_by_state[i].items():
            q = r + cont
            if q > best_q:
                best_a, best_q = a, q
        policy[i] = best_a
    return policy


def quadratic_convergence(cum_rewards, ma, final_tail, band_fraction):
    """Convergence detection by testing, for every round in turn, the whole
    rest of the moving average ``ma`` against the band (O(n^2)): the first
    round from which every value lies within ``band_fraction`` of the final
    value, the mean of the last ``final_tail`` rewards. A NaN is never in the
    band. Returns (1-based round, converged, final value)."""
    final = float(np.mean(cum_rewards[-min(final_tail, len(cum_rewards)) :]))
    band = band_fraction * max(abs(final), 1e-12)
    for i in range(len(ma)):
        if all(abs(v - final) <= band for v in ma[i:]):
            return i + 1, True, final
    return len(ma), False, final


def unblocked_adam_update(state, grads_w, grads_b, lr):
    """``network._apply_update`` as one whole-array pass per operation: the
    reference the cache-blocked update must match byte for byte."""
    if state.m_w is None:  # the first step: zero moments
        state.m_w = [np.zeros(w.shape) for w in state.weights]
        state.v_w = [np.zeros(w.shape) for w in state.weights]
        state.m_b = [np.zeros(b.shape) for b in state.biases]
        state.v_b = [np.zeros(b.shape) for b in state.biases]
    state.adam_t += 1
    t = state.adam_t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for i in range(len(state.weights)):
        for params, grad, m, v in (
            (state.weights[i], grads_w[i], state.m_w[i], state.v_w[i]),
            (state.biases[i], grads_b[i], state.m_b[i], state.v_b[i]),
        ):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            params -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def training_state(state):
    """What training carries from one step to the next, in a form that
    compares equal only when bit-identical: the Adam step count, then the
    shape and bytes of every weight, bias and Adam moment array (none before
    the first step)."""
    moments = [] if state.m_w is None else [*state.m_w, *state.v_w, *state.m_b, *state.v_b]
    arrays = [*state.weights, *state.biases, *moments]
    return state.adam_t, [(arr.shape, arr.tobytes()) for arr in arrays]


def row_csv_bytes(items):
    """The canonical trajectory CSV of ``(id, Trajectory)`` items written one
    ``csv.writer`` row per sample, a whole-number ``t`` as an int: the bytes
    the column writer must equal."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["id", "t", "x", "y"])
    for ident, traj in items:
        for t, x, y in zip(traj.t.tolist(), traj.x.tolist(), traj.y.tolist()):
            writer.writerow([ident, int(t) if t.is_integer() else t, x, y])
    return buf.getvalue().encode("utf-8")


def row_load_trajectories_csv(path):
    """A trajectory CSV read one ``csv`` row and one ``float()`` per field at
    a time: the result, or the ``InvalidInputError`` message, the column
    reader must give. Blank rows are skipped; a short row, a field that is
    not a finite number, a negative ``t`` and a row ``csv`` refuses (a field
    beyond its limit) name the file and the line."""
    samples = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
                    t, x, y = float(row[1]), float(row[2]), float(row[3])
                except (IndexError, ValueError):
                    t = math.nan
                if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
                    raise InvalidInputError(
                        f"malformed row {row!r} in {path} line {reader.line_num}"
                    )
                if t < 0:
                    raise InvalidInputError(
                        f"timestep must be non-negative, got {t} for id {row[0]!r} "
                        f"in {path} line {reader.line_num}"
                    )
                samples.setdefault(row[0], []).append((t, x, y))
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise InvalidInputError(f"{path} line {reader.line_num}: {exc}") from None
    if not samples:
        raise InvalidInputError(f"no trajectory rows in {path}")
    out = []
    for ident, rows in samples.items():
        rows = sorted(rows, key=lambda r: r[0])  # stable
        try:
            traj = Trajectory.from_columns(*zip(*rows))
        except InvalidInputError as exc:
            raise InvalidInputError(f"{exc} for id {ident!r} in {path}") from None
        out.append((ident, traj))
    return out


def _quality(row, agent_qos, oracle_qos):
    """``row`` with the quality fields that are ratios of its sums, given the
    agent's and the oracle's mean capacity: None where a denominator is 0."""
    n = row["steps"]
    return {
        **row,
        "regret": row["oracle_reward"] - row["reward"],
        "mean_reward": row["reward"] / n if n else None,
        "invalid_rate": row["invalid_picks"] / n if n else None,
        "dummy_rate": row["dummy_picks"] / n if n else None,
        "qos_ratio": agent_qos / oracle_qos if agent_qos is not None and oracle_qos else None,
    }


def keyed_accuracy(agent_plan, oracle_plan, lenient=False):
    """The accuracy report, as the dict ``asdict`` gives, of an agent plan
    against the oracle plan, both keyed by timestep and compared as sets: of
    the timesteps where the oracle has a validated pick, those where the
    agent picked a validated service (capacity above 0) of the oracle's
    capacity, or of any capacity when ``lenient``. The quality fields: each
    plan's rewards summed in step order, the agent's dummy picks and its
    invalid ones (another pick of capacity 0.0), the capacities of the
    agent's other picks and of the oracle's validated ones (``math.fsum``),
    and the ratio of the two plans' ``composite_qos`` over those picks."""
    a_steps = {s.user_timestep: s for s in agent_plan.steps}
    o_steps = {s.user_timestep: s for s in oracle_plan.steps}
    if set(a_steps) != set(o_steps):
        raise ProtocolError("plans do not cover identical timesteps")
    cs = ns = 0
    for t, o in o_steps.items():
        if o.chosen == DUMMY_SERVICE:
            continue
        ns += 1
        a = a_steps[t]
        if a.chosen == DUMMY_SERVICE or a.capacity <= 0.0:
            continue
        if lenient or a.capacity == o.capacity:
            cs += 1
    acc = cs / ns if ns else 1.0
    picks = [a.capacity for a in a_steps.values() if a.chosen != DUMMY_SERVICE]
    valid = [o.capacity for o in o_steps.values() if o.chosen != DUMMY_SERVICE]
    row = {
        "correct_selections": cs, "valid_samples": ns, "accuracy": acc,
        "steps": len(a_steps),
        "reward": sum(a.reward for a in a_steps.values()),
        "oracle_reward": sum(o.reward for o in o_steps.values()),
        "dummy_picks": len(a_steps) - len(picks),
        "invalid_picks": picks.count(0.0),
        "capacity": math.fsum(picks),
        "oracle_capacity": math.fsum(valid),
    }
    row = _quality(
        row, composite_qos(picks) if picks else None, composite_qos(valid) if valid else None
    )
    return {**row, "error": 1.0 - acc, "per_trajectory": {agent_plan.user_id: row}}


def summed_reports(reports):
    """One report of several users' ``keyed_accuracy`` reports: their
    per-user rows merged, their counts and rewards summed in user order,
    their capacities by ``math.fsum``, and the ratios taken of the sums."""
    per = {}
    for r in reports:
        per.update(r["per_trajectory"])
    total = {}
    for key in ("correct_selections", "valid_samples", "steps", "reward", "oracle_reward",
                "dummy_picks", "invalid_picks"):
        total[key] = sum(r[key] for r in reports)
    for key in ("capacity", "oracle_capacity"):
        total[key] = math.fsum(r[key] for r in reports)
    cs, ns = total["correct_selections"], total["valid_samples"]
    acc = cs / ns if ns else 1.0
    picks = total["steps"] - total["dummy_picks"]
    agent_qos = total["capacity"] / picks if picks else None
    oracle_qos = total["oracle_capacity"] / ns if ns else None
    total = _quality({**total, "accuracy": acc}, agent_qos, oracle_qos)
    return {**total, "error": 1.0 - acc, "per_trajectory": per}
