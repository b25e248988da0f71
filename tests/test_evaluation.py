import json
import math
from dataclasses import asdict, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mobicomp import evaluation, oracle
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
    BAND_FRACTION,
    FINAL_TAIL,
    AccuracyReport,
    accuracy,
    build_environment,
    detect_convergence,
    evaluate_model,
    moving_average,
    run_accuracy_sweep,
    run_convergence,
    run_timing,
    train_on_scenario,
)
from mobicomp.oracle import DUMMY_SERVICE, CompositionPlan
from mobicomp.qos import QosParams
from mobicomp.trajectories import DistanceMode

from conftest import line_user, make_env, service_tracking
from oracles import keyed_accuracy, quadratic_convergence, summed_reports

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
    """The plan of (timestep, chosen, reward, capacity) rows, as columns."""
    t, c, r, cap = zip(*rows) if rows else ((),) * 4
    return CompositionPlan(
        user_id, np.array(t, dtype=np.int64), np.array(c, dtype=object),
        np.array(r, dtype=np.float64), np.array(cap, dtype=np.float64),
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

    @pytest.mark.parametrize(
        "a_ts, o_ts", [((1, 2), (2, 1)), ((1, 1), (1,)), ((1,), (1, 1))],
        ids=["reordered", "agent_repeats", "oracle_repeats"],
    )
    def test_reordered_or_repeated_timesteps_rejected(self, a_ts, o_ts):
        a = plan("user:u", [(t, "a", 0.9, 9.0) for t in a_ts])
        o = plan("user:u", [(t, "a", 0.9, 9.0) for t in o_ts])
        with pytest.raises(ProtocolError):
            accuracy(a, o)

    def test_report_round_trips_through_json(self):
        # the agent picks only the dummy, so its QoS ratio is None
        a = plan("user:u", [(1, DUMMY_SERVICE, -1.0, 0.0), (2, DUMMY_SERVICE, -1.0, 0.0)])
        o = plan("user:u", [(1, "a", 0.5, 5.0), (2, DUMMY_SERVICE, -1.0, 0.0)])
        rep = AccuracyReport(**keyed_accuracy(a, o))
        assert rep.qos_ratio is None and rep.regret == 1.5
        restored = AccuracyReport(**json.loads(json.dumps(asdict(rep))))
        assert restored == rep


# the (chosen, reward, capacity) of one plan step: the dummy or a service,
# at capacity 0 (an invalid pick) or one of three others, so that ties are
# common; a hand-built dummy step may carry a capacity, and sums of the
# rewards and of 0.1 round differently in another order or by another sum
STEP = st.tuples(
    st.sampled_from([DUMMY_SERVICE, "a", "b"]),
    st.sampled_from([-10.0, -1.0, 0.1, 0.2, 0.7]),
    st.sampled_from([0.0, 0.1, 2.5, 5.0]),
)


@st.composite
def plan_rows(draw):
    """The rows of an agent plan and of an oracle plan over the same
    ascending timesteps."""
    timesteps = sorted(draw(st.sets(st.integers(0, 9), max_size=6)))
    return tuple([(t, *draw(STEP)) for t in timesteps] for _ in range(2))


class TestScorerReference:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(plan_rows(), min_size=1, max_size=4), lenient=st.booleans())
    def test_reports_equal_the_timestep_keyed_reference(self, pairs, lenient):
        # each user alone through accuracy, and all users through
        # evaluate_model with the plans it would compose and discover
        users = [SimpleNamespace(id=f"user:{i}") for i in range(len(pairs))]
        agent_plans = {u.id: plan(u.id, a_rows) for u, (a_rows, _) in zip(users, pairs)}
        oracle_plans = {u.id: plan(u.id, o_rows) for u, (_, o_rows) in zip(users, pairs)}
        expected = [keyed_accuracy(agent_plans[u.id], oracle_plans[u.id], lenient) for u in users]
        for u, want in zip(users, expected):
            assert asdict(accuracy(agent_plans[u.id], oracle_plans[u.id], lenient)) == want
        env = SimpleNamespace(
            reward_scale=1.0, rewards=SimpleNamespace(dummy=-1.0), table_for=lambda user: None
        )
        with mock.patch.object(
            evaluation.agent_mod, "compose", lambda model, env, user: agent_plans[user.id]
        ), mock.patch.object(
            evaluation.oracle_mod, "optimal_plan", lambda table, user, **kw: oracle_plans[user.id]
        ):
            report = evaluate_model(None, env, users, lenient=lenient)
        assert asdict(report) == summed_reports(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        a_ts=st.lists(st.integers(0, 4), max_size=4),
        o_ts=st.lists(st.integers(0, 4), max_size=4),
    )
    def test_plans_over_other_timesteps_are_refused_like_the_reference(self, a_ts, o_ts):
        assume(set(a_ts) != set(o_ts))
        a = plan("user:u", [(t, "a", 0.9, 9.0) for t in a_ts])
        o = plan("user:u", [(t, "a", 0.9, 9.0) for t in o_ts])
        for score in (accuracy, keyed_accuracy):
            with pytest.raises(ProtocolError):
                score(a, o)


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

    def test_out_of_range_count_rejected_before_any_training(self, monkeypatch):
        trained = []
        monkeypatch.setattr(evaluation, "train_on_scenario", lambda *a: trained.append(a))
        cfg = AgentConfig(repetition=2, seed=3, **FAST)
        with pytest.raises(InvalidInputError, match="count 500"):
            run_accuracy_sweep(tiny_scenario(), [1, 2, 500], cfg)
        assert trained == []

    def test_empty_held_out_split_rejected_before_any_training(self, monkeypatch):
        trained = []
        monkeypatch.setattr(evaluation, "train_on_scenario", lambda *a: trained.append(a))
        cfg = AgentConfig(repetition=2, seed=3, **FAST)
        with pytest.raises(InvalidInputError, match="1 training and 0 held-out users"):
            run_accuracy_sweep(tiny_scenario(n_users=1), None, cfg)
        assert trained == []


class TestTiming:
    def test_empty_universe_does_not_crash(self):
        scenario = tiny_scenario()
        empty = replace(scenario, services=[])
        cfg = AgentConfig(repetition=2, seed=4, **FAST)
        reports = run_timing(empty, [0], cfg, repeats=3)
        phases = {r.phase for r in reports}
        assert phases == {
            "oracle_discovery", "oracle_discovery_warm", "model_training", "agent_selection"
        }
        for rep in reports:
            assert rep.wall_seconds >= 0.0

    def test_repeats_recorded_with_median(self):
        scenario = tiny_scenario()
        cfg = AgentConfig(repetition=2, seed=5, **FAST)
        reports = run_timing(scenario, [4], cfg, repeats=5)
        by_phase = {r.phase: r for r in reports}
        for phase in ("agent_selection", "oracle_discovery", "oracle_discovery_warm"):
            rep = by_phase[phase]
            assert len(rep.samples) == 5
            assert rep.wall_seconds == sorted(rep.samples)[2]

    def test_warm_discovery_builds_no_universe_in_its_timed_runs(self, monkeypatch):
        # the cold runs build one universe each; the warm runs reuse the last
        built, discovered = [], []
        columns, discover = oracle.ServiceColumns, oracle.discover

        def counted_columns(services):
            built.append(len(discovered))
            return columns(services)

        def counted_discover(universe, *args):
            discovered.append(universe)
            return discover(universe, *args)

        monkeypatch.setattr(oracle, "ServiceColumns", counted_columns)
        monkeypatch.setattr(oracle, "discover", counted_discover)
        cfg = AgentConfig(repetition=2, seed=5, **FAST)
        reports = run_timing(tiny_scenario(), [4], cfg, repeats=3)
        assert built[:3] == [0, 1, 2]
        assert [b for b in built if 3 <= b < 6] == []
        assert len(set(map(id, discovered[:3]))) == 3
        assert all(u is discovered[2] for u in discovered[3:6])
        warm = {r.phase: r for r in reports}["oracle_discovery_warm"]
        assert (warm.n_services, len(warm.samples)) == (4, 3)

    def test_fewer_than_one_repeat_rejected(self):
        cfg = AgentConfig(repetition=2, seed=5, **FAST)
        with pytest.raises(InvalidInputError, match="repeats must be >= 1, got 0"):
            run_timing(tiny_scenario(), [4], cfg, repeats=0)


class TestServiceCounts:
    @pytest.mark.parametrize("count", [-2, 7, 500])
    def test_count_outside_the_universe_rejected(self, count):
        scenario = tiny_scenario()  # 6 services
        cfg = AgentConfig(repetition=2, seed=5, **FAST)
        match = f"count {count} outside 0..6: the scenario has 6 services"
        with pytest.raises(InvalidInputError, match=match):
            run_timing(scenario, [count], cfg, repeats=1)
        with pytest.raises(InvalidInputError, match=match):
            run_convergence(scenario, [2, count], cfg)

    def test_reports_state_the_size_they_ran(self):
        scenario = tiny_scenario()
        cfg = AgentConfig(repetition=2, seed=5, **FAST)
        assert {r.n_services for r in run_timing(scenario, [0, 6], cfg, repeats=1)} == {0, 6}
        assert [r.n_services for r in run_convergence(scenario, [0, 3], cfg)] == [0, 3]

    def test_no_counts_means_the_whole_universe(self):
        scenario = tiny_scenario()
        cfg = AgentConfig(repetition=2, seed=5, **FAST)
        assert {r.n_services for r in run_timing(scenario, None, cfg, repeats=1)} == {6}
        assert [r.n_services for r in run_convergence(scenario, None, cfg)] == [6]


class TestConvergence:
    def test_moving_average_window(self):
        vals = list(range(1, 26))
        ma = moving_average(vals, window=5)
        assert ma[0] == 1.0
        assert ma[4] == pytest.approx(3.0)  # mean of 1..5
        assert ma[-1] == pytest.approx(23.0)  # mean of 21..25

    def test_detector_on_synthetic_series(self):
        flat = [10.0] * 100
        rnd, converged, final = detect_convergence(flat, moving_average(flat))
        assert converged and rnd == 1 and final == 10.0
        rising = [float(i) for i in range(100)]
        rnd, converged, final = detect_convergence(rising, moving_average(rising))
        assert rnd > 50  # only the tail sits inside the band

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            # small whole numbers put moving averages exactly on the band's edge
            st.one_of(st.integers(-30, 30).map(float), st.floats(-100.0, 100.0), st.just(math.nan)),
            min_size=1,
            max_size=80,
        ),
        st.integers(-30, 30).map(float),
        st.integers(0, 120),
    )
    def test_detector_matches_quadratic_reference(self, head, tail_value, tail_length):
        rewards = head + [tail_value] * tail_length  # a flat tail converges
        got = detect_convergence(rewards, moving_average(rewards))
        ref = quadratic_convergence(rewards, moving_average(rewards), FINAL_TAIL, BAND_FRACTION)
        assert got[:2] == ref[:2]
        assert got[2] == ref[2] or (math.isnan(got[2]) and math.isnan(ref[2]))

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
        rnd, converged, _final = detect_convergence(rewards, moving_average(rewards))
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

    def test_no_users_is_refused(self):
        env = SimpleNamespace(reward_scale=1.0, rewards=SimpleNamespace(dummy=-1.0))
        with pytest.raises(InvalidInputError):
            evaluate_model(None, env, [])

    def test_train_on_scenario_splits_70_30(self):
        # the 70% split trains: one episode per user and repetition, and the
        # environment's extents come from those users alone
        scenario = tiny_scenario(n_users=10)
        cfg = AgentConfig(repetition=2, seed=7, **FAST)
        train_users, test_users = split_train_test(scenario.users, seed=cfg.seed)
        assert (len(train_users), len(test_users)) == (7, 3)
        result, env = train_on_scenario(scenario, train_users, cfg)
        assert len(result.log) == 7 * 2
        assert env.extents == build_environment(scenario, train_users=train_users).extents
        assert result.model.extents == env.extents
