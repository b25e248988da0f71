"""The epsilon-greedy deep Q-learning composer: replay memory, exploration
decay, minibatch training, and greedy plan extraction.

Training walks each user trajectory ``repetition`` times, writing each
transition as one row of a ring of preallocated columns (state, action,
reward, next state, done). Once the ring first fills, and again after every
``train_interval`` new transitions, the network trains for one pass of
uniformly sampled minibatches and the exploration rate decays by
``epsilon_decay`` (floored at ``epsilon_min``). Each row has one target,
reward + gamma * max Q(next state), bootstrapped from the network being
trained, and only the taken action's output is regressed towards it.

A trained policy is saved as one file that holds only what ``compose`` reads
(little-endian, no trailing bytes):

    magic        4s   b"MPOL"
    version      u32  (currently 2)
    header_len   u32
    header       JSON, sort_keys: action_ids, extents, hidden_layers
    per layer, in order: W (fan_in x fan_out, row-major), then b, as f64

The outer widths are not stored: the input width is ``STATE_DIM``, the
encoded state's, and the output width is ``len(action_ids)``. A loaded
network is at optimizer step 0, holds no optimizer moments and has no
dropout.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import network
from .environment import STATE_DIM, Environment, Extents, encode_states
from .errors import CheckpointError, ConfigError, InvalidInputError
from .network import NetworkSpec, NetworkState
from .oracle import CompositionPlan
from .trajectories import UserTrajectory

_MODEL_MAGIC = b"MPOL"
_MODEL_VERSION = 2
# The most transitions the replay ring may hold. A row is two float64 states
# of STATE_DIM (3) columns, an intp action, a float64 reward and a bool, 65
# bytes, so a ring at the bound takes 2**24 * 65 B = 1.09 GB; the default
# holds 1,024.
MAX_REPLAY_ROWS = 2**24


@dataclass
class AgentConfig:
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_min: float = 0.05
    memory_capacity: int = 1024
    batch_size: int = 32
    repetition: int = 10
    lr: float = 0.001
    train_interval: int = 128  # new experiences between training passes
    hidden_layers: tuple[int, ...] = (512, 512, 512)
    dropout_p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.gamma < 1.0):
            raise InvalidInputError(f"gamma must be in [0, 1), got {self.gamma}")
        if not (0.0 < self.epsilon_decay < 1.0):
            raise InvalidInputError(f"epsilon_decay must be in (0, 1), got {self.epsilon_decay}")
        if not (0.0 <= self.epsilon_min <= 1.0):
            raise InvalidInputError(f"epsilon_min must be in [0, 1], got {self.epsilon_min}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise InvalidInputError(f"lr must be positive and finite, got {self.lr}")
        if self.memory_capacity > MAX_REPLAY_ROWS:
            raise InvalidInputError(
                f"memory_capacity must be <= {MAX_REPLAY_ROWS}, got {self.memory_capacity}"
            )
        if not self.memory_capacity >= self.batch_size >= 1:
            raise InvalidInputError(
                f"require memory_capacity >= batch_size >= 1, got "
                f"{self.memory_capacity} and {self.batch_size}"
            )
        if self.repetition < 1:
            raise InvalidInputError(f"repetition must be >= 1, got {self.repetition}")
        if self.train_interval < 1:
            raise InvalidInputError(f"train_interval must be >= 1, got {self.train_interval}")
        if type(self.seed) is not int or self.seed < 0:
            raise InvalidInputError(f"seed must be a non-negative integer, got {self.seed!r}")


class Transitions(NamedTuple):
    """Transitions as columns, one row each."""

    states: np.ndarray  # (rows, state_dim) float64
    actions: np.ndarray  # (rows,) action indices
    rewards: np.ndarray  # (rows,) float64
    next_states: np.ndarray  # (rows, state_dim) float64
    done: np.ndarray  # (rows,) bool


class ReplayMemory:
    """Fixed-capacity ring of transitions in preallocated columns; eviction is
    oldest-first."""

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise InvalidInputError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rows = Transitions(
            states=np.zeros((capacity, state_dim)),
            actions=np.zeros(capacity, dtype=np.intp),
            rewards=np.zeros(capacity),
            next_states=np.zeros((capacity, state_dim)),
            done=np.zeros(capacity, dtype=bool),
        )
        self._len = 0
        self._next = 0

    def push(
        self, state: np.ndarray, action: int, reward: float, next_state: np.ndarray, done: bool
    ) -> None:
        for column, value in zip(self._rows, (state, action, reward, next_state, done)):
            column[self._next] = value
        self._next = (self._next + 1) % self.capacity
        self._len = min(self._len + 1, self.capacity)

    def __len__(self) -> int:
        return self._len

    @property
    def full(self) -> bool:
        return self._len == self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> Transitions:
        idx = rng.choice(self._len, size=batch_size, replace=False)
        return Transitions(*(column[idx] for column in self._rows))


@dataclass
class PolicyModel:
    """A trained network plus the action-index mapping and the normalisation
    extents it was trained with."""

    network: NetworkState
    action_ids: tuple[str, ...]
    extents: Extents


@dataclass(frozen=True)
class EpisodeLog:
    episode: int
    cum_reward: float
    epsilon: float
    loss: float  # nan on episodes without a training pass


@dataclass
class TrainResult:
    model: PolicyModel
    log: list[EpisodeLog]


def select_action(
    model: PolicyModel, state: np.ndarray, epsilon: float, rng: np.random.Generator
) -> int:
    """Uniform random action with probability epsilon, else the Q-argmax
    (ties broken by lowest action index)."""
    n = len(model.action_ids)
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(n))
    q = network.forward(model.network, state)
    return int(np.argmax(q))


def q_targets(model: PolicyModel, batch: Transitions, gamma: float) -> np.ndarray:
    """One target per row: reward + gamma * max_a' Q(next, a') from one
    eval-mode forward pass over the next states, or just the reward on
    terminal transitions."""
    if len(batch.rewards) == 0:
        raise InvalidInputError("q_targets needs a non-empty batch")
    next_q = network.forward(model.network, batch.next_states)
    return batch.rewards + np.where(batch.done, 0.0, gamma * next_q.max(axis=1))


def _train_pass(
    model: PolicyModel,
    memory: ReplayMemory,
    config: AgentConfig,
    rng: np.random.Generator,
) -> float:
    """One pass of uniformly sampled minibatches over the memory; mean loss."""
    n_batches = max(1, memory.capacity // config.batch_size)
    losses = []
    for _ in range(n_batches):
        batch = memory.sample(config.batch_size, rng)
        targets = q_targets(model, batch, config.gamma)
        losses.append(
            network.train_batch(model.network, batch.states, batch.actions, targets, config.lr)
        )
    return float(np.mean(losses))


def train(
    env: Environment,
    users: list[UserTrajectory],
    config: AgentConfig,
) -> TrainResult:
    """Run the training loop over the given user trajectories.

    Returns the trained policy and the per-episode log
    (episode, cumulative reward, epsilon, loss).
    """
    if not users:
        raise InvalidInputError("training needs at least one user trajectory")
    net_seed = int(np.random.SeedSequence([config.seed, 0]).generate_state(1)[0])
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))
    spec = NetworkSpec(
        input_dim=STATE_DIM,
        hidden_layers=tuple(config.hidden_layers),
        output_dim=len(env.action_ids),
        dropout_p=config.dropout_p,
    )
    net = network.init_network(spec, seed=net_seed)
    model = PolicyModel(network=net, action_ids=env.action_ids, extents=env.extents)

    memory = ReplayMemory(config.memory_capacity, spec.input_dim)
    epsilon = config.epsilon_start
    logs: list[EpisodeLog] = []
    episode = 0
    new_since_train = 0
    trained_once = False

    for user in users:
        states = encode_states(user.trajectory, env.extents)
        last = len(states) - 1
        for _ in range(config.repetition):
            env.reset(user)
            cum = 0.0
            # the last row is its own next state, and the only terminal one
            for i, state in enumerate(states):
                a_idx = select_action(model, state, epsilon, rng)
                reward, _ = env.step(model.action_ids[a_idx])
                memory.push(state, a_idx, reward, states[min(i + 1, last)], i == last)
                new_since_train += 1
                cum += reward
            episode += 1
            loss = math.nan
            if memory.full and (not trained_once or new_since_train >= config.train_interval):
                loss = _train_pass(model, memory, config, rng)
                trained_once = True
                new_since_train = 0
                epsilon = max(config.epsilon_min, epsilon * config.epsilon_decay)
            logs.append(EpisodeLog(episode=episode, cum_reward=cum, epsilon=epsilon, loss=loss))
    return TrainResult(model=model, log=logs)


def compose(model: PolicyModel, env: Environment, user: UserTrajectory) -> CompositionPlan:
    """Greedy (epsilon = 0) composition of one user trajectory.

    Q-values for the whole episode are computed in one batched forward pass;
    next states never depend on the chosen action, so this is identical to
    stepping greedily sample by sample.
    """
    if tuple(model.action_ids) != tuple(env.action_ids):
        raise ConfigError(
            "model action space does not match environment "
            f"({len(model.action_ids)} vs {len(env.action_ids)} actions)"
        )
    states = encode_states(user.trajectory, model.extents)
    q = network.forward(model.network, states)
    chosen = np.array(model.action_ids, dtype=object)[np.argmax(q, axis=1)]

    env.reset(user)
    reward, capacity = np.array(list(map(env.step, chosen.tolist()))).reshape(-1, 2).T
    return CompositionPlan(user.id, user.trajectory.t.astype(np.int64), chosen, reward, capacity)


def save_model(model: PolicyModel) -> bytes:
    """The policy file of the layout in this module's docstring."""
    net = model.network
    header = json.dumps(
        {
            "action_ids": list(model.action_ids),
            "extents": asdict(model.extents),
            "hidden_layers": list(net.spec.hidden_layers),
        },
        sort_keys=True,
    ).encode("utf-8")
    layers = [arr for pair in zip(net.weights, net.biases) for arr in pair]
    return b"".join(
        [
            _MODEL_MAGIC,
            struct.pack("<II", _MODEL_VERSION, len(header)),
            header,
            *(np.ascontiguousarray(arr, dtype="<f8").tobytes() for arr in layers),
        ]
    )


def load_model(data: bytes) -> PolicyModel:
    """The policy that ``save_model`` wrote to ``data``; anything else (bad
    magic, another version, a header it cannot read, or layers that do not
    fill the rest of the file exactly) is a CheckpointError."""
    if len(data) < 12 or data[:4] != _MODEL_MAGIC:
        raise CheckpointError("not a policy model file (bad magic)")
    version, hlen = struct.unpack("<II", data[4:12])
    if version != _MODEL_VERSION:
        raise CheckpointError(f"unsupported policy model version {version}")
    if 12 + hlen > len(data):
        raise CheckpointError("truncated policy model header")
    try:
        header = json.loads(data[12 : 12 + hlen].decode("utf-8"))
        extents = Extents.from_dict(header["extents"])
        for key, kind in (("action_ids", str), ("hidden_layers", int)):
            value = header[key]
            if not isinstance(value, list) or any(type(v) is not kind for v in value):
                raise TypeError(f"{key} must be a list of {kind.__name__}, got {value!r}")
        action_ids = tuple(header["action_ids"])
        spec = NetworkSpec(STATE_DIM, tuple(header["hidden_layers"]), len(action_ids))
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise CheckpointError(f"bad policy model header: {exc!r}") from None
    for name, value in asdict(extents).items():
        if not math.isfinite(value):
            raise CheckpointError(f"bad policy model header: extent {name} is {value}")
    sizes = [n for fan_in, fan_out in spec.layer_dims for n in (fan_in * fan_out, fan_out)]
    if 12 + hlen + 8 * sum(sizes) != len(data):
        raise CheckpointError("truncated or oversized policy model payload")
    flat = np.frombuffer(data, dtype="<f8", offset=12 + hlen).astype(np.float64)
    arrays = np.split(flat, np.cumsum(sizes)[:-1])
    net = NetworkState(
        spec=spec,
        weights=[w.reshape(dims) for w, dims in zip(arrays[0::2], spec.layer_dims)],
        biases=arrays[1::2],
    )
    return PolicyModel(network=net, action_ids=action_ids, extents=extents)
