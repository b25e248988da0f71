"""Evaluation harness: per-timestep accuracy against the oracle plan, wall
clock timing of discovery vs. agent selection, and convergence detection on
training logs.

Accuracy is one scoring row per user (``_row``: correct picks, oracle-valid
steps and their ratio, from the two plans' columns compared row by row, with
the quality fields: regret, mean reward, invalid and dummy rates and the QoS
ratio, each derived from the row's sums by ``_quality``), and a report's
totals are the rows summed once and derived again (``_report``).

Every model is trained by ``train_on_scenario`` on an explicit user list. The
accuracy sweep trains on prefixes of the seeded 70% split and scores on the
held-out 30%; timing and convergence run on ``service_subsets``, the scenario
over its first ``count`` services by id. Counts of ``None`` mean the whole
split or universe. Reports are dataclasses that serialize through ``asdict``.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import agent as agent_mod
from . import oracle as oracle_mod
from .agent import AgentConfig, PolicyModel, TrainResult
from .datasets import Scenario, split_train_test
from .environment import Environment, Extents
from .errors import InvalidInputError, ProtocolError
from .oracle import DUMMY_SERVICE, CompositionPlan

# convergence detector constants: trailing moving-average window, the band
# around the final value, and how many tail episodes define "final"
MA_WINDOW = 20
BAND_FRACTION = 0.05
FINAL_TAIL = 50


@dataclass
class AccuracyReport:
    """The totals of the per-user rows of ``per_trajectory`` (``_row``
    says what each field is): the sums of their counts, rewards and
    capacities, and the ratios derived from those sums."""

    correct_selections: int
    valid_samples: int
    accuracy: float
    error: float
    steps: int
    reward: float
    oracle_reward: float
    dummy_picks: int
    invalid_picks: int
    capacity: float
    oracle_capacity: float
    regret: float
    mean_reward: float | None
    invalid_rate: float | None
    dummy_rate: float | None
    qos_ratio: float | None
    per_trajectory: dict[str, dict] = field(default_factory=dict)


@dataclass
class TimingReport:
    phase: str  # oracle_discovery[_warm] | model_training | agent_selection
    wall_seconds: float  # median over repeats
    n_services: int
    n_users: int
    n_timesteps: int
    samples: list[float] = field(default_factory=list)


@dataclass
class ConvergenceReport:
    n_services: int
    series: list[tuple[int, float]]  # (training round, moving-average cum reward)
    convergence_round: int
    converged: bool
    final_value: float


def _row(agent_plan: CompositionPlan, oracle_plan: CompositionPlan, lenient: bool) -> dict:
    """One user's scoring row, from the two plans' columns compared row by
    row; the steps where the oracle has a validated pick are the
    denominator, and one counts when the agent picked a validated candidate
    (not the dummy, capacity above 0) of the oracle's capacity, so ties
    count, or of any capacity when ``lenient``.

    The quality sums: each plan's total reward, the agent's dummy picks and
    its invalid ones (another pick of capacity 0.0), and the capacities of
    the agent's other picks and of the oracle's validated ones. ``_quality``
    derives the rest."""
    a, o = agent_plan, oracle_plan
    if not np.array_equal(a.timestep, o.timestep):
        raise ProtocolError("plans do not list identical timesteps in the same order")
    valid = o.chosen != DUMMY_SERVICE
    picks = a.chosen != DUMMY_SERVICE
    hit = valid & picks & (a.capacity > 0.0)
    if not lenient:
        hit &= a.capacity == o.capacity
    return _quality({
        "correct_selections": int(hit.sum()),
        "valid_samples": int(valid.sum()),
        "steps": len(a.timestep),
        "reward": a.total_reward(),
        "oracle_reward": o.total_reward(),
        "dummy_picks": int((~picks).sum()),
        "invalid_picks": int((picks & (a.capacity == 0.0)).sum()),
        "capacity": math.fsum(a.capacity[picks].tolist()),
        "oracle_capacity": math.fsum(o.capacity[valid].tolist()),
    })


# how _report sums each field of the rows, in user order
_SUMS = {
    "correct_selections": sum, "valid_samples": sum, "steps": sum, "reward": sum,
    "oracle_reward": sum, "dummy_picks": sum, "invalid_picks": sum,
    "capacity": math.fsum, "oracle_capacity": math.fsum,
}


def _quality(sums: dict) -> dict:
    """``sums`` (``_SUMS``'s fields) with the fields derived from them:
    accuracy, the regret (the oracle's reward less the agent's), the mean
    reward, the invalid and dummy rates per step, and the QoS ratio, the
    agent's mean capacity over its non-dummy picks to the oracle's over its
    validated ones (each what ``qos.composite_qos`` computes). A ratio whose
    denominator is 0 is None, but accuracy is then 1.0."""
    cs, ns, n = sums["correct_selections"], sums["valid_samples"], sums["steps"]
    picks = n - sums["dummy_picks"]
    agent_qos = sums["capacity"] / picks if picks else None
    oracle_qos = sums["oracle_capacity"] / ns if ns else None
    return {
        **sums,
        "accuracy": cs / ns if ns else 1.0,
        "regret": sums["oracle_reward"] - sums["reward"],
        "mean_reward": sums["reward"] / n if n else None,
        "invalid_rate": sums["invalid_picks"] / n if n else None,
        "dummy_rate": sums["dummy_picks"] / n if n else None,
        "qos_ratio": agent_qos / oracle_qos if agent_qos is not None and oracle_qos else None,
    }


def _report(per_trajectory: dict[str, dict]) -> AccuracyReport:
    """The report of the per-user rows: their sums, summed once, and the
    fields derived from those."""
    rows = per_trajectory.values()
    total = _quality({key: add(row[key] for row in rows) for key, add in _SUMS.items()})
    return AccuracyReport(**total, error=1.0 - total["accuracy"], per_trajectory=per_trajectory)


def accuracy(
    agent_plan: CompositionPlan, oracle_plan: CompositionPlan, lenient: bool = False
) -> AccuracyReport:
    """The report of one user's plans, which must list the same timesteps in
    the same order (``_row`` says what counts)."""
    return _report({agent_plan.user_id: _row(agent_plan, oracle_plan, lenient)})


def evaluate_model(
    model: PolicyModel, env: Environment, users, lenient: bool = False
) -> AccuracyReport:
    """Accuracy of greedy composition against the oracle plan: one row per
    user, summed once."""
    if not users:
        raise InvalidInputError("cannot evaluate an empty user list")
    rows = {}
    for user in users:
        oracle_plan = oracle_mod.optimal_plan(
            env.table_for(user), user, reward_scale=env.reward_scale, dummy_reward=env.rewards.dummy
        )
        agent_plan = agent_mod.compose(model, env, user)
        rows[agent_plan.user_id] = _row(agent_plan, oracle_plan, lenient)
    return _report(rows)


def build_environment(scenario: Scenario, train_users=None) -> Environment:
    """Environment over a scenario; extents come from the training users
    (all of the scenario's users when none are given)."""
    universe_users = train_users if train_users is not None else scenario.users
    extents = Extents.from_universe(scenario.services, universe_users)
    return Environment(
        services=scenario.services,
        qos_params=scenario.qos_params,
        w=scenario.w,
        mode=scenario.mode,
        extents=extents,
        rewards=scenario.rewards,
    )


def train_on_scenario(
    scenario: Scenario,
    train_users: list,
    config: AgentConfig,
) -> tuple[TrainResult, Environment]:
    """Train on ``train_users`` in an environment whose extents they set."""
    env = build_environment(scenario, train_users=train_users)
    return agent_mod.train(env, train_users, config), env


def service_subsets(scenario: Scenario, counts: list[int] | None) -> list[tuple[int, Scenario]]:
    """``(count, the scenario over its first count services by id)`` for each
    count, every count checked first; ``None`` means the whole universe."""
    services = sorted(scenario.services, key=lambda s: s.id)
    n = len(services)
    counts = [n] if counts is None else counts
    for count in counts:
        if not 0 <= count <= n:
            raise InvalidInputError(
                f"service count {count} outside 0..{n}: the scenario has {n} services"
            )
    return [(c, replace(scenario, services=services[:c])) for c in counts]


@dataclass
class SweepPoint:
    trajectory_count: int
    report: AccuracyReport


def run_accuracy_sweep(
    scenario: Scenario,
    trajectory_counts: list[int] | None,
    config: AgentConfig,
    lenient: bool = False,
) -> list[SweepPoint]:
    """Train one model per training-set size (the first ``count`` users of
    the seeded 70% split; ``None`` means the whole split) and score it on the
    held-out 30%."""
    train_users, test_users = split_train_test(scenario.users, seed=config.seed)
    if not test_users:
        raise InvalidInputError(
            f"accuracy needs a held-out user, but the split has {len(train_users)} "
            "training and 0 held-out users"
        )
    if trajectory_counts is None:
        trajectory_counts = [len(train_users)]
    if sorted(trajectory_counts) != list(trajectory_counts):
        raise InvalidInputError("trajectory_counts must be ascending")
    for count in trajectory_counts:  # every count checked before any training
        if not (1 <= count <= len(train_users)):
            raise InvalidInputError(
                f"count {count} outside the training split size {len(train_users)}"
            )
    points = []
    for count in trajectory_counts:
        result, env = train_on_scenario(scenario, train_users[:count], config)
        report = evaluate_model(result.model, env, test_users, lenient=lenient)
        points.append(SweepPoint(trajectory_count=count, report=report))
    return points


def run_timing(
    scenario: Scenario,
    service_counts: list[int] | None,
    config: AgentConfig,
    repeats: int,
) -> list[TimingReport]:
    """Median wall time over ``repeats`` runs of oracle discovery and agent
    selection, and the time of one training, per service count.

    Discovery is timed twice: cold (``oracle_discovery``), building the
    columnar universe and its band index each run, and warm
    (``oracle_discovery_warm``), on one universe built outside the timed
    region, as every user after the first is discovered.

    Selection is the greedy composition of one held-out user with an already
    loaded model; model load time is excluded by construction.
    """
    if repeats < 1:
        raise InvalidInputError(f"repeats must be >= 1, got {repeats}")
    reports = []
    for count, sub in service_subsets(scenario, service_counts):
        train_users, test_users = split_train_test(sub.users, seed=config.seed)
        probe = (test_users or train_users)[0]
        n_steps = len(probe.trajectory)

        oracle_times, warm_times = [], []
        for _ in range(repeats):
            # a cold discovery builds the columnar universe and its band index too
            t0 = time.perf_counter()
            universe = oracle_mod.ServiceColumns(sub.services)
            oracle_mod.discover(universe, probe, sub.qos_params, sub.w, sub.mode)
            oracle_times.append(time.perf_counter() - t0)
        for _ in range(repeats):
            t0 = time.perf_counter()
            oracle_mod.discover(universe, probe, sub.qos_params, sub.w, sub.mode)
            warm_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        result, env = train_on_scenario(sub, train_users, config)
        train_time = time.perf_counter() - t0

        env.table_for(probe)  # selection timing should not pay oracle costs
        select_times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            agent_mod.compose(result.model, env, probe)
            select_times.append(time.perf_counter() - t0)

        info = dict(n_services=count, n_users=len(sub.users), n_timesteps=n_steps)
        for phase, samples in (
            ("oracle_discovery", oracle_times),
            ("oracle_discovery_warm", warm_times),
            ("model_training", [train_time]),
            ("agent_selection", select_times),
        ):
            reports.append(
                TimingReport(
                    phase=phase, wall_seconds=statistics.median(samples), samples=samples, **info
                )
            )
    return reports


def moving_average(values: list[float], window: int = MA_WINDOW) -> list[float]:
    out = []
    acc = 0.0
    for i, v in enumerate(values):
        acc += v
        if i >= window:
            acc -= values[i - window]
        out.append(acc / min(i + 1, window))
    return out


def detect_convergence(cum_rewards: list[float], ma: list[float]) -> tuple[int, bool, float]:
    """First round whose moving average ``ma`` (of ``cum_rewards``) stays
    inside the +/-5% band around the final value (mean of the last FINAL_TAIL
    episodes) through the end: one backward scan finds the last round outside
    the band, where NaN always is."""
    if not cum_rewards:
        raise InvalidInputError("empty reward series")
    final = float(np.mean(cum_rewards[-min(FINAL_TAIL, len(cum_rewards)) :]))
    band = BAND_FRACTION * max(abs(final), 1e-12)
    first = len(ma)
    while first > 0 and abs(ma[first - 1] - final) <= band:
        first -= 1
    if first == len(ma):
        return len(ma), False, final
    return first + 1, True, final  # rounds are 1-based


def run_convergence(
    scenario: Scenario,
    service_counts: list[int] | None,
    config: AgentConfig,
) -> list[ConvergenceReport]:
    """Convergence round per service-universe size, training on every user;
    ``None`` means the whole universe."""
    reports = []
    for count, sub in service_subsets(scenario, service_counts):
        result, _ = train_on_scenario(sub, sub.users, config)
        rewards = [row.cum_reward for row in result.log]
        ma = moving_average(rewards)
        round_, converged, final = detect_convergence(rewards, ma)
        reports.append(
            ConvergenceReport(
                n_services=count,
                series=[(i + 1, v) for i, v in enumerate(ma)],
                convergence_round=round_,
                converged=converged,
                final_value=final,
            )
        )
    return reports
