import json
from dataclasses import asdict

import numpy as np
import pytest

from mobicomp import oracle
from mobicomp.agent import AgentConfig, train
from mobicomp.datasets import (
    Scenario,
    ScenarioSpec,
    generate,
    split_train_test,
)
from mobicomp.environment import RewardScheme
from mobicomp.errors import InvalidInputError, ProtocolError
from mobicomp.evaluation import (
    AccuracyReport,
    accuracy,
    build_environment,
    combine_reports,
    detect_convergence,
    evaluate_model,
    moving_average,
    run_accuracy_sweep,
    run_convergence,
    run_timing,
    train_on_scenario,
)
from mobicomp.oracle import DUMMY_SERVICE, CompositionPlan, PlanStep
from mobicomp.qos import QosParams
from mobicomp.trajectories import DistanceMode

from conftest import line_user, make_env, service_tracking

FAST = dict(
    memory_capacity=128,
    batch_size=16,
    train_interval=16,
    hidden_layers=(16,),
    dropout_p=0.0,
    lr=0.005,
    epsilon_decay=0.95,
    epsilon_min=0.1,
)


def plan(user_id, rows):
    return CompositionPlan(
        user_id=user_id,
        steps=tuple(PlanStep(user_timestep=t, chosen=c, reward=r, capacity=cap) for t, c, r, cap in rows),
    )


def tiny_scenario(n_services=6, n_users=4, n_steps=25, seed=21):
    spec = ScenarioSpec(
        n_services=n_services,
        n_users=n_users,
        area=(0.0, 0.0, 80.0, 80.0),
        timestep_count=n_steps,
        speed_range=(0.8, 1.4),
        seed=seed,
        mobility_model="corridor_flow",
        corridor_count=2,
        coroute_fraction=1.0,
    )
    services, users = generate(spec)
    return Scenario(
        services=services,
        users=users,
        qos_params=QosParams.defaults_for(spec.r_s_meters),
        w=spec.w,
        mode=DistanceMode.PLANAR_EUCLIDEAN,
        rewards=RewardScheme(),
        seed=seed,
    )


class TestAccuracy:
    def test_self_comparison_is_perfect(self):
        p = plan("user:u", [(1, "a", 0.5, 5.0), (2, "b", 0.25, 2.5), (3, DUMMY_SERVICE, -1.0, 0.0)])
        rep = accuracy(p, p)
        assert rep.accuracy == 1.0
        assert rep.valid_samples == 2  # dummy timestep excluded from the denominator
        assert rep.error == 0.0

    def test_all_dummy_agent_scores_zero(self):
        o = plan("user:u", [(1, "a", 0.5, 5.0), (2, "a", 0.5, 5.0)])
        a = plan("user:u", [(1, DUMMY_SERVICE, -1.0, 0.0), (2, DUMMY_SERVICE, -1.0, 0.0)])
        rep = accuracy(a, o)
        assert rep.accuracy == 0.0
        assert rep.valid_samples == 2

    def test_93_of_100(self):
        o_rows = [(t, "best", 0.9, 9.0) for t in range(1, 101)]
        a_rows = [
            (t, "best", 0.9, 9.0) if t <= 93 else (t, "worse", 0.5, 5.0)
            for t in range(1, 101)
        ]
        rep = accuracy(plan("user:u", a_rows), plan("user:u", o_rows))
        assert rep.correct_selections == 93
        assert rep.valid_samples == 100
        assert rep.accuracy == 0.93
        assert rep.error == pytest.approx(0.07)

    def test_capacity_tie_counts_as_correct(self):
        o = plan("user:u", [(1, "a", 0.9, 9.0)])
        a = plan("user:u", [(1, "b", 0.9, 9.0)])  # different id, equal capacity
        assert accuracy(a, o).accuracy == 1.0

    def test_lenient_counts_any_valid_pick(self):
        o = plan("user:u", [(1, "best", 0.9, 9.0)])
        a = plan("user:u", [(1, "worse", 0.5, 5.0)])
        assert accuracy(a, o).accuracy == 0.0
        assert accuracy(a, o, lenient=True).accuracy == 1.0

    def test_mismatched_timesteps_rejected(self):
        o = plan("user:u", [(1, "a", 0.9, 9.0)])
        a = plan("user:u", [(2, "a", 0.9, 9.0)])
        with pytest.raises(ProtocolError):
            accuracy(a, o)

    def test_combine_reports(self):
        r1 = AccuracyReport(3, 4, 0.75, 0.25, {"u1": {}})
        r2 = AccuracyReport(1, 4, 0.25, 0.75, {"u2": {}})
        combined = combine_reports([r1, r2])
        assert combined.correct_selections == 4
        assert combined.valid_samples == 8
        assert combined.accuracy == 0.5
        assert set(combined.per_trajectory) == {"u1", "u2"}
        with pytest.raises(InvalidInputError):
            combine_reports([])

    def test_report_round_trips_through_json(self):
        rep = AccuracyReport(93, 100, 0.93, 0.07, {"user:u": {"accuracy": 0.93}})
        restored = AccuracyReport(**json.loads(json.dumps(asdict(rep))))
        assert restored == rep


class TestSweep:
    def test_same_count_same_seed_is_identical(self):
        scenario = tiny_scenario()
        cfg = AgentConfig(repetition=8, seed=3, **FAST)
        a = run_accuracy_sweep(scenario, [2, 2], cfg)
        assert asdict(a[0].report) == asdict(a[1].report)

    def test_counts_must_be_ascending_and_in_range(self):
        scenario = tiny_scenario()
        cfg = AgentConfig(repetition=2, seed=3, **FAST)
        with pytest.raises(InvalidInputError):
            run_accuracy_sweep(scenario, [2, 1], cfg)
        with pytest.raises(InvalidInputError):
            run_accuracy_sweep(scenario, [500], cfg)


class TestTiming:
    def test_empty_universe_does_not_crash(self):
        scenario = tiny_scenario()
        empty = Scenario(
            services=[],
            users=scenario.users,
            qos_params=scenario.qos_params,
            w=scenario.w,
            mode=scenario.mode,
            rewards=scenario.rewards,
            seed=scenario.seed,
        )
        cfg = AgentConfig(repetition=2, seed=4, **FAST)
        reports = run_timing(empty, [0], cfg, repeats=3)
        phases = {r.phase for r in reports}
        assert phases == {"oracle_discovery", "model_training", "agent_selection"}
        for rep in reports:
            assert rep.wall_seconds >= 0.0

    def test_repeats_recorded_with_median(self):
        scenario = tiny_scenario()
        cfg = AgentConfig(repetition=2, seed=5, **FAST)
        reports = run_timing(scenario, [4], cfg, repeats=5)
        by_phase = {r.phase: r for r in reports}
        sel = by_phase["agent_selection"]
        assert len(sel.samples) == 5
        assert sel.wall_seconds == sorted(sel.samples)[2]


class TestConvergence:
    def test_moving_average_window(self):
        vals = list(range(1, 26))
        ma = moving_average(vals, window=5)
        assert ma[0] == 1.0
        assert ma[4] == pytest.approx(3.0)  # mean of 1..5
        assert ma[-1] == pytest.approx(23.0)  # mean of 21..25

    def test_detector_on_synthetic_series(self):
        flat = [10.0] * 100
        rnd, converged, final = detect_convergence(flat)
        assert converged and rnd == 1 and final == 10.0
        rising = [float(i) for i in range(100)]
        rnd, converged, final = detect_convergence(rising)
        assert rnd > 50  # only the tail sits inside the band

    def test_single_count_report(self):
        scenario = tiny_scenario()
        cfg = AgentConfig(repetition=10, seed=6, **FAST)
        reports = run_convergence(scenario, [4], cfg)
        assert len(reports) == 1
        rep = reports[0]
        assert rep.n_services == 4
        assert len(rep.series) == 10 * len(scenario.users)
        assert rep.convergence_round <= len(rep.series)

    def test_converged_reward_matches_oracle_mean(self):
        # a learnable single-candidate world with exploration annealed to zero:
        # the moving average at convergence must sit within 5% of the oracle
        user = line_user(12)
        svc = service_tracking(user, "a", 1, 12, bandwidth=2.0, k=2)
        env = make_env([svc], [user])
        cfg = AgentConfig(
            repetition=220,
            memory_capacity=256,
            batch_size=32,
            train_interval=10,
            hidden_layers=(32, 32),
            dropout_p=0.0,
            lr=0.005,
            epsilon_decay=0.9,
            epsilon_min=0.0,
            seed=0,
        )
        result = train(env, [user], cfg)
        rewards = [r.cum_reward for r in result.log]
        rnd, converged, _final = detect_convergence(rewards)
        assert converged
        table = env.table_for(user)
        oracle_plan = oracle.optimal_plan(table, user, reward_scale=env.reward_scale)
        n = len(oracle_plan.steps)
        oracle_mean = oracle_plan.total_reward() / n
        ma_mean = moving_average(rewards)[rnd - 1] / n
        assert abs(ma_mean - oracle_mean) <= 0.05 * abs(oracle_mean) + 1e-9


class TestEvaluateModel:
    def test_perfect_universe_scores_high(self):
        # one dominant service everywhere: the trained agent must match oracle
        user_a = line_user(10, user_id="user:a")
        user_b = line_user(10, user_id="user:b", y=1.0)
        svc = service_tracking(user_a, "only", 1, 10, bandwidth=2.0, k=2)
        env = make_env([svc], [user_a, user_b])
        cfg = AgentConfig(repetition=120, seed=0, memory_capacity=512, batch_size=32,
                          train_interval=10, hidden_layers=(64, 64), dropout_p=0.0,
                          lr=0.005, epsilon_decay=0.99, epsilon_min=0.2)
        result = train(env, [user_a], cfg)
        report = evaluate_model(result.model, env, [user_b])
        assert report.accuracy >= 0.9
        assert "user:b" in report.per_trajectory

    def test_train_on_scenario_splits_70_30(self):
        scenario = tiny_scenario(n_users=10)
        cfg = AgentConfig(repetition=2, seed=7, **FAST)
        result, env, test_users = train_on_scenario(scenario, cfg)
        assert len(test_users) == 3
        assert len(result.log) == 7 * 2
