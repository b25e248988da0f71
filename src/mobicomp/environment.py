"""Composition environment: states are user trajectory samples, actions are
service ids plus a dummy "no service" action, rewards are normalized
capacities for validated candidates and fixed penalties otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ProtocolError
from .oracle import DUMMY_SERVICE, CandidateTable, ServiceColumns, discover
from .qos import QosParams, reward_scale
from .trajectories import DistanceMode, MovingService, TrajectoryPoint, UserTrajectory

STATE_DIM = 3  # encoded (t, x, y)


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
        pts = [p for s in services for p in s.trajectory.points]
        pts += [p for u in users for p in u.trajectory.points]
        if not pts:
            raise InvalidInputError("cannot compute extents of an empty universe")
        return cls(
            t_min=float(min(p.t for p in pts)),
            t_max=float(max(p.t for p in pts)),
            x_min=float(min(p.x for p in pts)),
            x_max=float(max(p.x for p in pts)),
            y_min=float(min(p.y for p in pts)),
            y_max=float(max(p.y for p in pts)),
        )

    @classmethod
    def from_dict(cls, d: dict) -> "Extents":
        return cls(**{k: float(v) for k, v in d.items()})


def _norm(v: float, lo: float, hi: float) -> float:
    # degenerate extent encodes as 0
    return 0.0 if hi <= lo else (v - lo) / (hi - lo)


def encode_state(sample: TrajectoryPoint, extents: Extents) -> np.ndarray:
    """Min-max normalized [t, x, y] feature vector."""
    return np.array(
        [
            _norm(sample.t, extents.t_min, extents.t_max),
            _norm(sample.x, extents.x_min, extents.x_max),
            _norm(sample.y, extents.y_min, extents.y_max),
        ]
    )


@dataclass(frozen=True)
class RewardScheme:
    dummy: float = -1.0
    invalid: float = -10.0

    def __post_init__(self):
        # a reward-maximising agent must always prefer dummy over invalid
        if not self.dummy > self.invalid:
            raise InvalidInputError(
                f"dummy reward ({self.dummy}) must exceed invalid reward ({self.invalid})"
            )


@dataclass(frozen=True)
class StepOutcome:
    reward: float
    next_state: np.ndarray
    done: bool


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
        extents: Extents | None = None,
        rewards: RewardScheme = RewardScheme(),
    ):
        self.services = list(services)
        self.qos_params = qos_params
        self.w = w
        self.mode = mode
        self.rewards = rewards
        self.universe = ServiceColumns(self.services)
        self.action_ids: tuple[str, ...] = tuple(
            sorted(s.id for s in self.services)
        ) + (DUMMY_SERVICE,)
        self.reward_scale = reward_scale(self.services)
        self.extents = extents
        # keyed by the whole user: one id may name different trajectories
        self._tables: dict[UserTrajectory, CandidateTable] = {}
        self._user: UserTrajectory | None = None
        self._table: CandidateTable | None = None
        self._cursor = 0
        self._done = True

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
        if self.extents is None:
            raise InvalidInputError("environment has no normalisation extents set")
        self._user = user
        self._table = self.table_for(user)
        self._cursor = 0
        self._done = False
        return encode_state(user.trajectory.points[0], self.extents)

    def validated_at(self, t: int):
        return self._table.validated_at(t)

    def step(self, action_id: str) -> StepOutcome:
        """Apply one action at the current sample and advance the cursor.

        Rewards: normalized capacity in (0, 1] for a validated candidate
        covering this timestep, the dummy penalty for the dummy action, and
        the invalid penalty for anything else.
        """
        if self._done or self._user is None:
            raise ProtocolError("step() called on a finished episode; call reset() first")
        points = self._user.trajectory.points
        t = int(points[self._cursor].t)
        if action_id == DUMMY_SERVICE:
            rew = self.rewards.dummy
        else:
            pair = self._table.validated_at(t).get(action_id)
            if pair is None:
                rew = self.rewards.invalid
            else:
                rew = pair.qos.capacity / self.reward_scale
        self._cursor += 1
        self._done = self._cursor >= len(points)
        nxt = points[min(self._cursor, len(points) - 1)]
        return StepOutcome(
            reward=rew, next_state=encode_state(nxt, self.extents), done=self._done
        )
