"""Evaluation harness: per-timestep accuracy against the oracle plan, wall
clock timing of discovery vs. agent selection, and convergence detection on
training logs. Reports are dataclasses of scalars that serialize to JSON
through ``dataclasses.asdict``, with companion CSV series ready for any
plotting tool.
"""

from __future__ import annotations

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
    correct_selections: int
    valid_samples: int
    accuracy: float
    error: float
    per_trajectory: dict[str, dict] = field(default_factory=dict)


@dataclass
class TimingReport:
    phase: str  # oracle_discovery | model_training | agent_selection
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


def _count_plan(agent_plan: CompositionPlan, oracle_plan: CompositionPlan, lenient: bool):
    a_steps = {s.user_timestep: s for s in agent_plan.steps}
    o_steps = {s.user_timestep: s for s in oracle_plan.steps}
    if set(a_steps) != set(o_steps):
        raise ProtocolError("plans do not cover identical timesteps")
    cs = ns = 0
    for t, o in o_steps.items():
        if o.chosen == DUMMY_SERVICE:
            continue  # no valid candidate exists; excluded from the denominator
        ns += 1
        a = a_steps[t]
        if a.chosen == DUMMY_SERVICE or a.capacity <= 0.0:
            continue  # dummy or invalid pick
        if lenient:
            cs += 1  # any validated candidate counts under the weaker reading
        elif a.capacity == o.capacity:
            cs += 1  # optimal pick; capacity ties count as correct
    return cs, ns


def accuracy(
    agent_plan: CompositionPlan, oracle_plan: CompositionPlan, lenient: bool = False
) -> AccuracyReport:
    """Fraction of oracle-valid timesteps where the agent picked an optimal
    validated candidate (``lenient=True`` relaxes optimal to merely valid)."""
    cs, ns = _count_plan(agent_plan, oracle_plan, lenient)
    acc = cs / ns if ns else 1.0
    return AccuracyReport(
        correct_selections=cs,
        valid_samples=ns,
        accuracy=acc,
        error=1.0 - acc,
        per_trajectory={
            agent_plan.user_id: {"correct_selections": cs, "valid_samples": ns, "accuracy": acc}
        },
    )


def combine_reports(reports: list[AccuracyReport]) -> AccuracyReport:
    if not reports:
        raise InvalidInputError("cannot combine an empty report list")
    cs = sum(r.correct_selections for r in reports)
    ns = sum(r.valid_samples for r in reports)
    acc = cs / ns if ns else 1.0
    per = {}
    for r in reports:
        per.update(r.per_trajectory)
    return AccuracyReport(
        correct_selections=cs, valid_samples=ns, accuracy=acc, error=1.0 - acc, per_trajectory=per
    )


def evaluate_model(
    model: PolicyModel,
    env: Environment,
    users,
    lenient: bool = False,
) -> AccuracyReport:
    """Accuracy of greedy composition against the oracle plan, per user."""
    scale = env.reward_scale
    reports = []
    for user in users:
        table = env.table_for(user)
        oracle_plan = oracle_mod.optimal_plan(
            table, user, reward_scale=scale, dummy_reward=env.rewards.dummy
        )
        agent_plan = agent_mod.compose(model, env, user)
        reports.append(accuracy(agent_plan, oracle_plan, lenient=lenient))
    return combine_reports(reports)


def build_environment(scenario: Scenario, train_users=None) -> Environment:
    """Environment over a scenario; extents come from the training split only."""
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
    config: AgentConfig,
    train_users=None,
) -> tuple[TrainResult, Environment, list]:
    """Train over the scenario's 70% split (or an explicit user list)."""
    if train_users is None:
        train_users, test_users = split_train_test(scenario.users, seed=config.seed)
    else:
        train_ids = {u.id for u in train_users}
        test_users = [u for u in scenario.users if u.id not in train_ids]
    env = build_environment(scenario, train_users=train_users)
    result = agent_mod.train(env, train_users, config)
    return result, env, test_users


@dataclass
class SweepPoint:
    trajectory_count: int
    report: AccuracyReport


def run_accuracy_sweep(
    scenario: Scenario,
    trajectory_counts: list[int],
    config: AgentConfig,
    lenient: bool = False,
) -> list[SweepPoint]:
    """Train one model per training-set size and score it on the held-out 30%."""
    if sorted(trajectory_counts) != list(trajectory_counts):
        raise InvalidInputError("trajectory_counts must be ascending")
    train_users, test_users = split_train_test(scenario.users, seed=config.seed)
    points = []
    for count in trajectory_counts:
        if not (1 <= count <= len(train_users)):
            raise InvalidInputError(
                f"count {count} outside the training split size {len(train_users)}"
            )
        env = build_environment(scenario, train_users=train_users[:count])
        result = agent_mod.train(env, train_users[:count], config)
        report = evaluate_model(result.model, env, test_users, lenient=lenient)
        points.append(SweepPoint(trajectory_count=count, report=report))
    return points


def run_timing(
    scenario: Scenario,
    service_counts: list[int],
    config: AgentConfig,
    repeats: int = 5,
) -> list[TimingReport]:
    """Median wall time of oracle discovery, training, and agent selection.

    Selection is the greedy composition of one held-out user with an already
    loaded model; model load time is excluded by construction.
    """
    reports = []
    all_services = sorted(scenario.services, key=lambda s: s.id)
    for count in service_counts:
        services = all_services[:count]
        sub = replace(scenario, services=services)
        train_users, test_users = split_train_test(sub.users, seed=config.seed)
        probe = (test_users or train_users)[0]
        n_steps = len(probe.trajectory)

        oracle_times = []
        for _ in range(repeats):
            # a cold discovery builds the columnar universe too
            t0 = time.perf_counter()
            oracle_mod.discover(
                oracle_mod.ServiceColumns(services), probe, sub.qos_params, sub.w, sub.mode
            )
            oracle_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        result, env, _ = train_on_scenario(sub, config, train_users=train_users)
        train_time = time.perf_counter() - t0

        env.table_for(probe)  # selection timing should not pay oracle costs
        select_times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            agent_mod.compose(result.model, env, probe)
            select_times.append(time.perf_counter() - t0)

        info = dict(n_services=len(services), n_users=len(sub.users), n_timesteps=n_steps)
        reports.append(
            TimingReport(
                phase="oracle_discovery",
                wall_seconds=statistics.median(oracle_times),
                samples=oracle_times,
                **info,
            )
        )
        reports.append(
            TimingReport(
                phase="model_training",
                wall_seconds=train_time,
                samples=[train_time],
                **info,
            )
        )
        reports.append(
            TimingReport(
                phase="agent_selection",
                wall_seconds=statistics.median(select_times),
                samples=select_times,
                **info,
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


def detect_convergence(cum_rewards: list[float]) -> tuple[int, bool, float]:
    """First round whose moving average stays inside the +/-5% band around the
    final value (mean of the last FINAL_TAIL episodes) through the end."""
    if not cum_rewards:
        raise InvalidInputError("empty reward series")
    ma = moving_average(cum_rewards)
    final = float(np.mean(cum_rewards[-min(FINAL_TAIL, len(cum_rewards)) :]))
    band = BAND_FRACTION * max(abs(final), 1e-12)
    converged_at = None
    for i in range(len(ma)):
        if all(abs(v - final) <= band for v in ma[i:]):
            converged_at = i
            break
    if converged_at is None:
        return len(ma), False, final
    return converged_at + 1, True, final  # rounds are 1-based


def run_convergence(
    scenario: Scenario,
    service_counts: list[int],
    config: AgentConfig,
) -> list[ConvergenceReport]:
    """Convergence round per service-universe size, all else shared."""
    reports = []
    all_services = sorted(scenario.services, key=lambda s: s.id)
    for count in service_counts:
        sub = replace(scenario, services=all_services[:count])
        result, _, _ = train_on_scenario(sub, config, train_users=sub.users)
        rewards = [row.cum_reward for row in result.log]
        ma = moving_average(rewards)
        round_, converged, final = detect_convergence(rewards)
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
