"""Composition environment: states are user trajectory samples, actions are
service ids plus a dummy "no service" action, rewards are normalized
capacities for validated candidates and fixed penalties otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ProtocolError
from .oracle import DUMMY_SERVICE, CandidateTable, ServiceColumns, discover
from .qos import QosParams, reward_scale
from .trajectories import DistanceMode, MovingService, Trajectory, UserTrajectory


@dataclass(frozen=True)
class Extents:
    """Min-max normalisation bounds, computed from the training universe and
    stored with trained models so evaluation encodes states identically."""

    t_min: float
    t_max: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    @classmethod
    def from_universe(
        cls, services: list[MovingService], users: list[UserTrajectory]
    ) -> "Extents":
        trajs = [s.trajectory for s in services] + [u.trajectory for u in users]
        if not trajs:
            raise InvalidInputError("cannot compute extents of an empty universe")
        cols = [np.concatenate([getattr(tr, c) for tr in trajs]) for c in "txy"]
        # fields in order: t_min, t_max, x_min, x_max, y_min, y_max
        return cls(*(float(f(col)) for col in cols for f in (np.min, np.max)))

    @classmethod
    def from_dict(cls, d: dict) -> "Extents":
        return cls(**{k: float(v) for k, v in d.items()})


STATE_DIM = 3  # the columns of encode_states: t, x, y


def encode_states(traj: Trajectory, extents: Extents) -> np.ndarray:
    """Min-max normalized [t, x, y] feature rows, one per sample; a
    degenerate extent encodes as 0."""
    e = extents
    cols = [
        np.zeros(len(v)) if hi <= lo else (v - lo) / (hi - lo)
        for v, lo, hi in (
            (traj.t, e.t_min, e.t_max), (traj.x, e.x_min, e.x_max), (traj.y, e.y_min, e.y_max)
        )
    ]
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class RewardScheme:
    dummy: float = -1.0
    invalid: float = -10.0

    def __post_init__(self):
        for name, value in (("dummy", self.dummy), ("invalid", self.invalid)):
            if not math.isfinite(value):
                raise InvalidInputError(f"{name} reward must be finite, got {value}")
        # a reward-maximising agent must always prefer dummy over invalid
        if not self.dummy > self.invalid:
            raise InvalidInputError(
                f"dummy reward ({self.dummy}) must exceed invalid reward ({self.invalid})"
            )


class Environment:
    """One episode walks one user trajectory sample by sample.

    The action space is the full (sorted) service universe plus the dummy
    action and stays fixed for the lifetime of any model trained against it.
    The columnar form of the universe is built once here; candidate tables
    are computed per user trajectory on first use and cached.
    """

    def __init__(
        self,
        services: list[MovingService],
        qos_params: QosParams,
        w: int,
        mode: DistanceMode,
        extents: Extents,
        rewards: RewardScheme = RewardScheme(),
    ):
        self.qos_params = qos_params
        self.w = w
        self.mode = mode
        self.rewards = rewards
        self.universe = ServiceColumns(services)
        self.action_ids: tuple[str, ...] = (*self.universe.ids.tolist(), DUMMY_SERVICE)
        self.reward_scale = reward_scale(self.universe.services)
        self.extents = extents
        # keyed by the whole user: one id may name different trajectories
        self._tables: dict[UserTrajectory, CandidateTable] = {}
        self._capacity_at: dict[tuple[int, str], float] = {}
        self._timesteps: list[int] = []
        self._cursor = 0

    @property
    def n_actions(self) -> int:
        return len(self.action_ids)

    def table_for(self, user: UserTrajectory) -> CandidateTable:
        table = self._tables.get(user)
        if table is None:
            table = discover(self.universe, user, self.qos_params, self.w, self.mode)
            self._tables[user] = table
        return table

    def reset(self, user: UserTrajectory) -> np.ndarray:
        """Start an episode over ``user``'s samples; returns its encoded
        states, one row per sample."""
        self._capacity_at = self.table_for(user).capacity_at
        self._timesteps = user.trajectory.t.astype(np.int64).tolist()
        self._cursor = 0
        return encode_states(user.trajectory, self.extents)

    def step(self, action_id: str) -> tuple[float, float]:
        """Apply one action at the current sample and advance the cursor;
        returns (reward, capacity).

        Rewards: normalized capacity in (0, 1] for a validated candidate
        covering this timestep, the dummy penalty for the dummy action, and
        the invalid penalty for anything else. The capacity is the one
        delivered, 0.0 unless the pick is a validated candidate.
        """
        if self._cursor == len(self._timesteps):
            raise ProtocolError("step() called on a finished episode; call reset() first")
        t = self._timesteps[self._cursor]
        self._cursor += 1
        if action_id == DUMMY_SERVICE:
            return self.rewards.dummy, 0.0
        cap = self._capacity_at.get((t, action_id))
        if cap is None:
            return self.rewards.invalid, 0.0
        return cap / self.reward_scale, cap
