import math

import numpy as np
import pytest

from mobicomp.environment import Environment, Extents, RewardScheme, encode_states
from mobicomp.errors import InvalidInputError, ProtocolError
from mobicomp.oracle import DUMMY_SERVICE
from mobicomp.trajectories import UserTrajectory

from conftest import line_user, make_env, service_tracking, traj


class TestEncodeState:
    extents = Extents(t_min=1, t_max=11, x_min=0, x_max=100, y_min=-50, y_max=50)

    def test_lower_corner(self):
        v = encode_states(traj([(1, 0, -50)]), self.extents)[0]
        assert np.array_equal(v, [0.0, 0.0, 0.0])

    def test_upper_corner(self):
        v = encode_states(traj([(11, 100, 50)]), self.extents)[0]
        assert np.array_equal(v, [1.0, 1.0, 1.0])

    def test_midpoint_hand_normalized(self):
        v = encode_states(traj([(6, 50, 0)]), self.extents)[0]
        assert np.allclose(v, [0.5, 0.5, 0.5], atol=1e-15)

    def test_degenerate_extent_encodes_zero(self):
        flat = Extents(t_min=1, t_max=1, x_min=0, x_max=10, y_min=0, y_max=0)
        v = encode_states(traj([(1, 5, 0)]), flat)[0]
        assert np.array_equal(v, [0.0, 0.5, 0.0])


class TestReset:
    def test_reset_idempotent(self):
        user = line_user(4)
        env = make_env([service_tracking(user, "a", 1, 4)], [user])
        s1 = env.reset(user)
        s2 = env.reset(user)
        assert np.array_equal(s1, s2)

    def test_distinct_users_distinct_encodings(self):
        u1 = line_user(4, user_id="user:u1", y=0.0)
        u2 = line_user(4, user_id="user:u2", y=30.0)
        env = make_env([service_tracking(u1, "a", 1, 4)], [u1, u2])
        assert not np.array_equal(env.reset(u1), env.reset(u2))

    def test_empty_universe_extents_rejected(self):
        with pytest.raises(InvalidInputError):
            Extents.from_universe([], [])


class TestActionSpace:
    def test_action_ids_are_the_service_ids_in_id_order_then_dummy(self):
        user = line_user(3)
        env = make_env([service_tracking(user, sid, 1, 3) for sid in ("c", "a", "b")], [user])
        assert env.action_ids == ("a", "b", "c", DUMMY_SERVICE)


class TestStepRewards:
    def _env_single_candidate(self):
        # one service tracks the user exactly, strength 1, B == K => scale 1
        user = line_user(3)
        svc = service_tracking(user, "a", 1, 3, bandwidth=2.0, k=2)
        env = make_env([svc], [user])
        return env, user

    def test_best_candidate_reward_is_one(self):
        env, user = self._env_single_candidate()
        env.reset(user)
        assert env.step("a") == (1.0, 1.0)

    def test_dummy_reward(self):
        env, user = self._env_single_candidate()
        env.reset(user)
        assert env.step(DUMMY_SERVICE) == (-1.0, 0.0)

    def test_invalid_reward(self):
        env, user = self._env_single_candidate()
        env.reset(user)
        assert env.step("not-a-candidate") == (-10.0, 0.0)

    def test_rewards_partition_and_match_table(self):
        user = line_user(6)
        near = service_tracking(user, "near", 1, 3)
        far = service_tracking(user, "far", 2, 6, offset_y=100.0)  # outside the disk
        env = make_env([near, far], [user])
        env.reset(user)
        table = env.table_for(user)
        for p in user.trajectory.points:
            t = int(p.t)
            here = table.service_id[table.per_timestep.get(t, range(0))].tolist()
            for action in ("near", "far", DUMMY_SERVICE):
                expected_kind = (
                    "dummy"
                    if action == DUMMY_SERVICE
                    else ("valid" if action in here else "invalid")
                )
                env2 = make_env([near, far], [user])
                env2.reset(user)
                for _ in range(t - 1):
                    env2.step(DUMMY_SERVICE)
                r, _ = env2.step(action)
                if expected_kind == "dummy":
                    assert r == -1.0
                elif expected_kind == "invalid":
                    assert r == -10.0
                else:
                    assert 0.0 < r <= 1.0

    def test_reward_ordering_constants(self):
        scheme = RewardScheme()
        assert scheme.dummy > scheme.invalid
        with pytest.raises(InvalidInputError):
            RewardScheme(dummy=-10.0, invalid=-1.0)

    @pytest.mark.parametrize(
        "dummy, invalid, name",
        [(math.inf, -10.0, "dummy"), (-1.0, -math.inf, "invalid"), (-1.0, math.nan, "invalid")],
    )
    def test_non_finite_reward_rejected(self, dummy, invalid, name):
        with pytest.raises(InvalidInputError, match=f"{name} reward must be finite"):
            RewardScheme(dummy=dummy, invalid=invalid)


class TestEpisodeProtocol:
    def test_reset_returns_the_encoded_states(self):
        user = line_user(5)
        env = make_env([service_tracking(user, "a", 1, 5)], [user])
        states = env.reset(user)
        assert np.array_equal(states, encode_states(user.trajectory, env.extents))
        assert states.shape == (5, 3)

    def test_episode_length_equals_samples(self):
        user = line_user(5)
        env = make_env([service_tracking(user, "a", 1, 5)], [user])
        env.reset(user)
        for _ in range(5):
            env.step("a")
        with pytest.raises(ProtocolError):
            env.step("a")

    def test_step_after_done_is_protocol_error(self):
        user = line_user(2)
        env = make_env([service_tracking(user, "a", 1, 2)], [user])
        env.reset(user)
        env.step("a")
        env.step("a")
        with pytest.raises(ProtocolError):
            env.step("a")

    def test_step_before_reset_is_protocol_error(self):
        user = line_user(2)
        env = make_env([service_tracking(user, "a", 1, 2)], [user])
        with pytest.raises(ProtocolError):
            env.step("a")

    def test_reset_never_builds_the_runs(self):
        user = line_user(3)
        env = make_env([service_tracking(user, "a", 1, 3)], [user])
        env.reset(user)
        table = env.table_for(user)
        assert len(table) == 3 and "validated" not in table.__dict__

    def test_table_cached_per_user(self):
        user = line_user(3)
        env = make_env([service_tracking(user, "a", 1, 3)], [user])
        assert env.table_for(user) is env.table_for(user)

    def test_same_id_different_trajectory_gets_own_table(self):
        near = line_user(4, user_id="user:same")
        far = line_user(4, user_id="user:same", y=100.0)
        env = make_env([service_tracking(near, "a", 1, 4)], [near, far])
        assert env.table_for(near).validated == {"a": ((1, 4),)}
        assert env.table_for(far).validated == {}
        assert env.table_for(near).validated == {"a": ((1, 4),)}
