import json
import math
import struct
from dataclasses import asdict, astuple

import numpy as np
import pytest

from mobicomp import network
from mobicomp.agent import (
    AgentConfig,
    PolicyModel,
    ReplayMemory,
    Transitions,
    compose,
    load_model,
    q_targets,
    save_model,
    select_action,
    train,
)
from mobicomp.environment import Extents, encode_states
from mobicomp.errors import CheckpointError, ConfigError, InvalidInputError
from mobicomp.network import NetworkSpec, init_network
from mobicomp.oracle import DUMMY_SERVICE

from conftest import line_user, make_env, policy_file, service_tracking, wrapping_policy_file
from oracles import training_state

EXTENTS = Extents(t_min=0, t_max=1, x_min=0, x_max=1, y_min=0, y_max=1)
EXTENT_FIELDS = asdict(EXTENTS)

# a config proven to learn the desk-size fixtures reliably
FAST_LEARNER = dict(
    memory_capacity=512,
    batch_size=32,
    train_interval=10,
    hidden_layers=(64, 64),
    dropout_p=0.0,
    lr=0.005,
    epsilon_decay=0.99,
    epsilon_min=0.2,
)


def fixed_model(outputs, n_inputs=3):
    """A linear model with zero weights and biases set to ``outputs``, so every
    state maps to the same Q row."""
    spec = NetworkSpec(input_dim=n_inputs, hidden_layers=(), output_dim=len(outputs))
    state = init_network(spec, seed=0)
    state.weights[0][:] = 0.0
    state.biases[0][:] = np.asarray(outputs, dtype=float)
    ids = tuple(f"a{i}" for i in range(len(outputs) - 1)) + (DUMMY_SERVICE,)
    return PolicyModel(network=state, action_ids=ids, extents=EXTENTS)


def transitions(*rows):
    """Transitions from (state, action, reward, next_state, done) rows."""
    states, actions, rewards, next_states, done = zip(*rows)
    return Transitions(
        np.array(states, dtype=float),
        np.array(actions),
        np.array(rewards, dtype=float),
        np.array(next_states, dtype=float),
        np.array(done),
    )


class TestSelectAction:
    def test_pure_exploration_is_uniform(self):
        model = fixed_model([0.0] * 7)
        rng = np.random.default_rng(123)
        n = 100_000
        counts = np.zeros(7)
        for _ in range(n):
            counts[select_action(model, np.zeros(3), epsilon=1.0, rng=rng)] += 1
        expected = n / 7
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 22.458  # chi^2 critical value, df=6, alpha=0.001

    def test_greedy_argmax(self):
        model = fixed_model([0.1, 0.9, 0.3])
        rng = np.random.default_rng(0)
        assert select_action(model, np.zeros(3), epsilon=0.0, rng=rng) == 1

    def test_tie_breaks_to_lowest_index(self):
        model = fixed_model([0.5, 0.5])
        rng = np.random.default_rng(0)
        assert select_action(model, np.zeros(3), epsilon=0.0, rng=rng) == 0


class TestQTargets:
    def test_terminal_ignores_next_state(self):
        model = fixed_model([0.0, 0.0, 0.0])
        model.network.weights[0][:] = 1.0  # so that Q(next) is huge
        # poisoned next state: must never be bootstrapped
        batch = transitions((np.zeros(3), 1, 1.0, np.full(3, 1e6), True))
        assert q_targets(model, batch, gamma=0.9).tolist() == [1.0]

    def test_gamma_zero_is_myopic(self):
        model = fixed_model([0.2, -0.4])
        batch = transitions(
            (np.zeros(3), 0, 0.7, np.ones(3), False),
            (np.ones(3), 1, -1.0, np.zeros(3), False),
        )
        assert q_targets(model, batch, gamma=0.0).tolist() == [0.7, -1.0]

    def test_two_state_chain_matches_hand_bellman(self):
        # Q rows are constant [0.5, 2.0]; hand backup with gamma = 0.9:
        # non-terminal target = r + 0.9 * max(0.5, 2.0) = r + 1.8
        model = fixed_model([0.5, 2.0])
        batch = transitions(
            (np.zeros(3), 0, 0.25, np.ones(3), False),
            (np.ones(3), 1, 1.0, np.ones(3), True),
        )
        targets = q_targets(model, batch, gamma=0.9)
        assert targets.shape == (2,)
        assert targets[0] == pytest.approx(0.25 + 1.8, abs=1e-12)
        assert targets[1] == 1.0

    def test_empty_batch_rejected(self):
        empty = Transitions(
            np.zeros((0, 3)), np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, 3)),
            np.zeros(0, dtype=bool),
        )
        with pytest.raises(InvalidInputError):
            q_targets(fixed_model([0.0]), empty, gamma=0.9)


class TestReplayMemory:
    @staticmethod
    def push_numbered(mem, n):
        """Push transitions 0..n-1; every field of transition i encodes i."""
        for i in range(n):
            mem.push(np.array([float(i)]), i, -float(i), np.array([i + 0.5]), i % 2 == 1)

    def test_capacity_never_exceeded(self):
        mem = ReplayMemory(4, state_dim=1)
        for i in range(10):
            self.push_numbered(mem, 1)
            assert len(mem) == min(i + 1, 4)
        assert mem.full

    def test_eviction_is_oldest_first(self):
        mem = ReplayMemory(3, state_dim=1)
        self.push_numbered(mem, 5)
        kept = mem.sample(3, np.random.default_rng(0))
        assert sorted(kept.actions.tolist()) == [2, 3, 4]

    def test_sample_returns_whole_rows_in_the_generators_order(self):
        mem = ReplayMemory(8, state_dim=1)
        self.push_numbered(mem, 11)  # rows 0..2 hold transitions 8..10
        batch = mem.sample(5, np.random.default_rng(3))
        rows = np.random.default_rng(3).choice(8, size=5, replace=False)
        expected = np.where(rows < 3, rows + 8, rows)
        assert batch.actions.tolist() == expected.tolist()
        assert batch.states[:, 0].tolist() == expected.astype(float).tolist()
        assert batch.rewards.tolist() == (-expected.astype(float)).tolist()
        assert batch.next_states[:, 0].tolist() == (expected + 0.5).tolist()
        assert batch.done.tolist() == (expected % 2 == 1).tolist()


class TestTraining:
    def _single_candidate(self):
        user = line_user(10)
        svc = service_tracking(user, "a", 1, 10, bandwidth=2.0, k=2)
        env = make_env([svc], [user])
        return env, user

    def test_exploration_only_never_consults_model(self, monkeypatch):
        env, user = self._single_candidate()
        cfg = AgentConfig(
            epsilon_start=1.0,
            epsilon_min=1.0,  # never exploit
            repetition=30,
            memory_capacity=64,
            batch_size=8,
            train_interval=16,
            hidden_layers=(8,),
            dropout_p=0.0,
            seed=0,
        )
        calls = {"n": 0}
        real_forward = network.forward

        def counting_forward(*args, **kwargs):
            calls["n"] += 1
            return real_forward(*args, **kwargs)

        import mobicomp.agent as agent_mod

        monkeypatch.setattr(agent_mod.network, "forward", counting_forward)
        result = train(env, [user], cfg)
        # training still ran: every forward call is accounted for by q_targets
        # (1 per minibatch, over the next states), none by action selection
        passes = sum(1 for row in result.log if not np.isnan(row.loss))
        assert passes > 0
        n_batches = cfg.memory_capacity // cfg.batch_size
        assert calls["n"] == passes * n_batches
        assert all(row.epsilon == 1.0 for row in result.log)

    def test_pushed_transitions_walk_the_encoded_episode(self, monkeypatch):
        # each row's next state is the episode's next encoded row; only the
        # last row is terminal, and it is its own next state
        user_a, user_b = line_user(4, user_id="user:a"), line_user(3, user_id="user:b", y=5.0)
        env = make_env([service_tracking(user_a, "a", 1, 4)], [user_a, user_b])
        pushed = []
        real_push = ReplayMemory.push

        def recording_push(memory, state, action, reward, next_state, done):
            pushed.append((np.array(state), reward, np.array(next_state), done))
            real_push(memory, state, action, reward, next_state, done)

        monkeypatch.setattr(ReplayMemory, "push", recording_push)
        cfg = AgentConfig(repetition=2, memory_capacity=8, batch_size=4, train_interval=4,
                          hidden_layers=(4,), seed=2)
        result = train(env, [user_a, user_b], cfg)
        episodes = [user_a, user_a, user_b, user_b]
        assert len(pushed) == sum(len(u.trajectory) for u in episodes)
        for user, row in zip(episodes, [r.cum_reward for r in result.log]):
            states = encode_states(user.trajectory, env.extents)
            episode, pushed = pushed[: len(states)], pushed[len(states) :]
            assert np.array_equal([p[0] for p in episode], states)
            assert np.array_equal([p[2] for p in episode], np.vstack([states[1:], states[-1:]]))
            assert [p[3] for p in episode] == [False] * (len(states) - 1) + [True]
            assert sum(p[1] for p in episode) == row

    def test_learns_single_valid_candidate(self):
        env, user = self._single_candidate()
        cfg = AgentConfig(repetition=120, seed=0, **FAST_LEARNER)
        result = train(env, [user], cfg)
        plan = compose(result.model, env, user)
        hit = sum(1 for s in plan.steps if s.chosen == "a") / len(plan.steps)
        assert hit >= 0.95

    def test_epsilon_monotone_and_floored(self):
        env, user = self._single_candidate()
        cfg = AgentConfig(
            repetition=60,
            memory_capacity=64,
            batch_size=8,
            train_interval=8,
            hidden_layers=(8,),
            dropout_p=0.0,
            epsilon_decay=0.8,
            epsilon_min=0.3,
            seed=1,
        )
        result = train(env, [user], cfg)
        eps = [row.epsilon for row in result.log]
        assert all(b <= a for a, b in zip(eps, eps[1:]))
        assert min(eps) >= 0.3
        assert eps[-1] == 0.3

    def test_training_log_shape(self):
        env, user = self._single_candidate()
        cfg = AgentConfig(
            repetition=5,
            memory_capacity=32,
            batch_size=8,
            train_interval=16,
            hidden_layers=(8,),
            dropout_p=0.0,
            seed=2,
        )
        result = train(env, [user], cfg)
        assert [row.episode for row in result.log] == list(range(1, 6))

    def test_reproducible_logs_and_checkpoints(self):
        def run():
            env, user = self._single_candidate()
            cfg = AgentConfig(
                repetition=25,
                memory_capacity=64,
                batch_size=16,
                train_interval=16,
                hidden_layers=(16,),
                dropout_p=0.2,
                seed=3,
            )
            return train(env, [user], cfg)

        r1, r2 = run(), run()
        assert r1.log == r2.log
        assert save_model(r1.model) == save_model(r2.model)
        assert training_state(r1.model.network) == training_state(r2.model.network)

    def test_no_users_rejected(self):
        env, _ = self._single_candidate()
        with pytest.raises(InvalidInputError):
            train(env, [], AgentConfig())

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            AgentConfig(seed=seed)

    @pytest.mark.parametrize("value", [float("nan"), -0.1, 1.5, float("inf")])
    def test_epsilon_min_must_be_a_probability(self, value):
        with pytest.raises(InvalidInputError, match="epsilon_min"):
            AgentConfig(epsilon_min=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_lr_must_be_positive_and_finite(self, value):
        with pytest.raises(InvalidInputError, match="lr"):
            AgentConfig(lr=value)

    @pytest.mark.parametrize(
        "field, value", [("epsilon_min", 0.0), ("epsilon_min", 1.0), ("lr", 1e-9)]
    )
    def test_edge_values_accepted(self, field, value):
        assert getattr(AgentConfig(**{field: value}), field) == value


class TestCompose:
    def test_deterministic(self):
        user = line_user(6)
        svc = service_tracking(user, "a", 1, 6)
        env = make_env([svc], [user])
        cfg = AgentConfig(
            repetition=10,
            memory_capacity=32,
            batch_size=8,
            train_interval=8,
            hidden_layers=(8,),
            dropout_p=0.0,
            seed=4,
        )
        model = train(env, [user], cfg).model
        p1 = compose(model, env, user)
        p2 = compose(model, env, user)
        assert (p1.user_id, p1.steps) == (p2.user_id, p2.steps)

    def test_steps_view_holds_python_values_equal_to_the_columns(self):
        user = line_user(5)
        env = make_env([service_tracking(user, "a", 2, 4)], [user])
        # always picks "a": valid at t = 2..4, invalid at t = 1 and 5
        model = PolicyModel(fixed_model([1.0, 0.0]).network, env.action_ids, env.extents)
        plan = compose(model, env, user)
        steps = plan.steps
        assert [type(v) for s in steps for v in astuple(s)] == [int, str, float, float] * 5
        assert [s.user_timestep for s in steps] == plan.timestep.tolist() == [1, 2, 3, 4, 5]
        assert [s.chosen for s in steps] == plan.chosen.tolist() == ["a"] * 5
        assert [s.reward for s in steps] == plan.reward.tolist()
        assert plan.reward[[0, 4]].tolist() == [-10.0, -10.0] and min(plan.reward[1:4]) > 0.0
        assert [s.capacity for s in steps] == plan.capacity.tolist()
        assert plan.total_reward() == sum(s.reward for s in steps)

    def test_zero_services_composes_all_dummy(self):
        user = line_user(4)
        env = make_env([], [user])
        cfg = AgentConfig(
            repetition=40,
            memory_capacity=32,
            batch_size=8,
            train_interval=8,
            hidden_layers=(8,),
            dropout_p=0.0,
            epsilon_min=0.05,
            seed=5,
        )
        model = train(env, [user], cfg).model
        plan = compose(model, env, user)
        assert all(s.chosen == DUMMY_SERVICE for s in plan.steps)
        assert all(s.reward == -1.0 for s in plan.steps)

    def test_action_space_mismatch_raises(self):
        user = line_user(3)
        env_a = make_env([service_tracking(user, "a", 1, 3)], [user])
        env_b = make_env(
            [service_tracking(user, "a", 1, 3), service_tracking(user, "b", 1, 3)], [user]
        )
        cfg = AgentConfig(
            repetition=2,
            memory_capacity=8,
            batch_size=4,
            train_interval=4,
            hidden_layers=(4,),
            dropout_p=0.0,
            seed=6,
        )
        model = train(env_a, [user], cfg).model
        with pytest.raises(ConfigError):
            compose(model, env_b, user)


class TestModelSerialization:
    def test_round_trip(self):
        user = line_user(3)
        env = make_env([service_tracking(user, "a", 1, 3)], [user])
        cfg = AgentConfig(
            repetition=3,
            memory_capacity=8,
            batch_size=4,
            train_interval=4,
            hidden_layers=(6,),
            dropout_p=0.2,
            seed=7,
        )
        model = train(env, [user], cfg).model
        assert model.network.adam_t > 0
        clone = load_model(save_model(model))
        assert clone.action_ids == model.action_ids
        assert clone.extents == model.extents
        x = np.array([[0.3, 0.5, 0.7], [0.0, 1.0, 0.25]])
        assert network.forward(clone.network, x).tobytes() == (
            network.forward(model.network, x).tobytes()
        )
        assert save_model(clone) == save_model(model)
        # the file holds no optimizer state and no dropout: a loaded network
        # only runs forward, and holds no Adam moments until a training step
        net = clone.network
        assert net.adam_t == 0 and net.spec.dropout_p == 0.0
        assert (net.m_w, net.v_w, net.m_b, net.v_b) == (None, None, None, None)

    def test_layout_is_pinned_on_a_hand_built_network(self):
        net = init_network(NetworkSpec(3, (2,), 2), seed=0)
        net.weights[0][:] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        net.biases[0][:] = [0.5, -0.5]
        net.weights[1][:] = [[-1.0, 0.25], [2.0, -3.0]]
        net.biases[1][:] = [0.125, 8.0]
        extents = Extents(t_min=0.0, t_max=10.0, x_min=-1.0, x_max=1.0, y_min=2.0, y_max=4.0)
        header = (
            b'{"action_ids": ["a", "__dummy__"], "extents": {"t_max": 10.0, "t_min": 0.0, '
            b'"x_max": 1.0, "x_min": -1.0, "y_max": 4.0, "y_min": 2.0}, "hidden_layers": [2]}'
        )
        layers = [1, 2, 3, 4, 5, 6, 0.5, -0.5, -1, 0.25, 2, -3, 0.125, 8]
        expected = (
            b"MPOL" + struct.pack("<II", 2, len(header)) + header
            + struct.pack("<14d", *layers)
        )
        assert save_model(PolicyModel(net, ("a", DUMMY_SERVICE), extents)) == expected
        assert save_model(load_model(expected)) == expected

    @pytest.mark.parametrize(
        "header",
        [
            b"\xff\xfe not utf-8",
            b"{not json",
            b"[1, 2]",
            json.dumps({"extents": EXTENT_FIELDS, "hidden_layers": [4]}).encode(),
            json.dumps({"action_ids": ["a", DUMMY_SERVICE], "hidden_layers": [4]}).encode(),
            json.dumps({"action_ids": ["a", DUMMY_SERVICE], "extents": EXTENT_FIELDS}).encode(),
            json.dumps({"action_ids": ["a"], "extents": [0, 1]}).encode(),
            json.dumps({"action_ids": ["a"], "extents": {"t_min": "x"}}).encode(),
            json.dumps({"action_ids": ["a"], "extents": {**EXTENT_FIELDS, "x_max": math.nan}}).encode(),
            json.dumps({"action_ids": ["a"], "extents": {**EXTENT_FIELDS, "t_min": -math.inf}}).encode(),
        ],
        ids=["not_utf8", "invalid_json", "not_object", "no_action_ids", "no_extents",
             "no_hidden_layers", "extents_not_object", "extents_not_numeric", "extent_nan",
             "extent_inf"],
    )
    def test_bad_header_is_checkpoint_error(self, header):
        with pytest.raises(CheckpointError, match="header"):
            load_model(policy_file(header=header))

    @pytest.mark.parametrize(
        "hidden, action_ids, match",
        [
            (4, ["a", DUMMY_SERVICE], "hidden_layers must be a list of int"),
            ([2.5], ["a", DUMMY_SERVICE], "hidden_layers must be a list of int"),
            ([True], ["a", DUMMY_SERVICE], "hidden_layers must be a list of int"),
            (["4"], ["a", DUMMY_SERVICE], "hidden_layers must be a list of int"),
            ([0], ["a", DUMMY_SERVICE], "layer widths"),
            ([4], [], "layer widths"),
            ([4], "ab", "action_ids must be a list of str"),
            ([4], [1, 2], "action_ids must be a list of str"),
        ],
        ids=["hidden_not_list", "hidden_fraction", "hidden_bool", "hidden_str",
             "zero_hidden_width", "no_actions", "action_ids_str", "action_ids_numbers"],
    )
    def test_bad_widths_are_checkpoint_error(self, hidden, action_ids, match):
        header = json.dumps(
            {"action_ids": action_ids, "extents": EXTENT_FIELDS, "hidden_layers": hidden}
        ).encode()
        with pytest.raises(CheckpointError, match=f"bad policy model header: .*{match}"):
            load_model(policy_file(header=header))

    @pytest.mark.parametrize(
        "case, message",
        [
            ("short", "bad magic"),
            ("magic", "bad magic"),
            ("version", "unsupported policy model version 3"),
            ("version_1", "unsupported policy model version 1"),
            ("header_length", "truncated policy model header"),
            ("truncated", "truncated or oversized"),
            ("oversized", "truncated or oversized"),
        ],
    )
    def test_bad_container_is_checkpoint_error(self, case, message):
        data = policy_file()
        assert load_model(data).action_ids == ("a", DUMMY_SERVICE)
        data = {
            "short": data[:11],
            "magic": b"MNET" + data[4:],
            "version": policy_file(version=3),
            # the previous layout; nothing after the version is read
            "version_1": policy_file(version=1),
            "header_length": data[:8] + struct.pack("<I", len(data)) + data[12:],
            "truncated": data[:-1],
            "oversized": data + b"\x00",
        }[case]
        with pytest.raises(CheckpointError, match=message):
            load_model(data)

    @pytest.mark.parametrize(
        "n_inputs, n_outputs", [(3, 5), (4, 2)], ids=["output_5_wide", "input_4_wide"]
    )
    def test_misfit_network_is_checkpoint_error(self, n_inputs, n_outputs):
        # the header's 2 action ids and the encoded state's 3 columns fix the
        # outer widths; a network of other widths does not fill the file
        net = init_network(NetworkSpec(n_inputs, (4,), n_outputs), seed=0)
        data = save_model(PolicyModel(net, ("a", DUMMY_SERVICE), EXTENTS))
        with pytest.raises(CheckpointError, match="truncated or oversized"):
            load_model(data)

    def test_network_past_the_parameter_bound_is_a_bad_header(self):
        with pytest.raises(CheckpointError, match="bad policy model header.*parameters, more than"):
            load_model(wrapping_policy_file())

    @pytest.mark.parametrize("field", ["repetition", "train_interval"])
    def test_counts_below_one_rejected(self, field):
        with pytest.raises(InvalidInputError, match=f"{field} must be >= 1, got 0"):
            AgentConfig(**{field: 0})

    def test_memory_past_the_bound_rejected(self):
        # 10**13 rows would take 650 TB: refused before any ring is allocated
        with pytest.raises(InvalidInputError, match="memory_capacity"):
            AgentConfig(memory_capacity=10**13)

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidInputError):
            AgentConfig(gamma=1.0)
        with pytest.raises(InvalidInputError):
            AgentConfig(epsilon_decay=1.0)
        with pytest.raises(InvalidInputError):
            AgentConfig(memory_capacity=8, batch_size=16)
