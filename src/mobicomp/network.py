"""Dense feed-forward network with backpropagation, inverted dropout, and an
adaptive-moment optimizer; the function approximator behind the Q-learning
composer. All arithmetic is float64 so gradient checks and cross-run
determinism are meaningful.

Checkpoint byte layout (little-endian, no trailing bytes):

    magic        4s   b"MNET"
    version      u32  (currently 1)
    input_dim    u32
    n_hidden     u32
    hidden dims  u32 * n_hidden
    output_dim   u32
    dropout_p    f64
    seed         u64
    optimizer    u8   always 1 (adam)
    adam_t       u64
    per layer, in declaration order:
        rows u32, cols u32,
        then f64 blobs row-major: W, b, mW, vW, mb, vb

Loading re-seeds the dropout/init stream from the stored seed; weights,
biases, and optimizer moments round-trip bit-exactly.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, InvalidInputError, TrainingDivergenceError

_MAGIC = b"MNET"
_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture: ReLU hidden layers, linear output, dropout on hidden only."""

    input_dim: int
    hidden_layers: tuple[int, ...]
    output_dim: int
    dropout_p: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        widths = (self.input_dim, *self.hidden_layers, self.output_dim)
        if any(w < 1 for w in widths):
            raise InvalidInputError(f"all layer widths must be >= 1, got {widths}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise InvalidInputError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        widths = (self.input_dim, *self.hidden_layers, self.output_dim)
        return list(zip(widths[:-1], widths[1:]))


@dataclass
class NetworkState:
    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    m_w: list[np.ndarray]
    v_w: list[np.ndarray]
    m_b: list[np.ndarray]
    v_b: list[np.ndarray]
    seed: int
    adam_t: int = 0
    rng: np.random.Generator = field(default=None, repr=False)


def init_network(spec: NetworkSpec, seed: int) -> NetworkState:
    """He-style uniform init for the ReLU stack, zero biases, zero moments."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims:
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    zeros = lambda arrs: [np.zeros_like(a) for a in arrs]
    return NetworkState(
        spec=spec,
        weights=weights,
        biases=biases,
        m_w=zeros(weights),
        v_w=zeros(weights),
        m_b=zeros(biases),
        v_b=zeros(biases),
        seed=int(seed),
        rng=rng,
    )


def _forward_cached(state: NetworkState, X: np.ndarray, train_mode: bool):
    """Forward pass keeping post-dropout activations for backprop.

    Inverted dropout: surviving hidden activations are scaled by 1/(1-p) at
    train time so evaluation mode needs no rescaling.
    """
    spec = state.spec
    acts = [X]
    masks = []
    a = X
    n_layers = len(state.weights)
    for i in range(n_layers - 1):
        z = a @ state.weights[i] + state.biases[i]
        h = np.maximum(z, 0.0)
        if train_mode and spec.dropout_p > 0.0:
            keep = state.rng.random(h.shape) >= spec.dropout_p
            h = h * keep / (1.0 - spec.dropout_p)
            masks.append(keep)
        else:
            masks.append(None)
        acts.append(h)
        a = h
    out = a @ state.weights[-1] + state.biases[-1]
    return acts, masks, out


def _as_batch(x: np.ndarray, dim: int, name: str) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    was_vector = arr.ndim == 1
    if was_vector:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise InvalidInputError(f"{name} must have {dim} columns, got shape {arr.shape}")
    return arr, was_vector


def forward(state: NetworkState, x: np.ndarray, train_mode: bool = False) -> np.ndarray:
    """Q-values for one encoded state vector or a batch of them."""
    X, was_vector = _as_batch(x, state.spec.input_dim, "input")
    _, _, out = _forward_cached(state, X, train_mode)
    return out[0] if was_vector else out


def _loss_and_grads(
    state: NetworkState, X: np.ndarray, actions: np.ndarray, y: np.ndarray, train_mode: bool
):
    """Loss (mean over rows of the taken action's squared error) and
    gradients. Row i's error sits at output ``actions[i]``, and every other
    output's error is zero."""
    acts, masks, out = _forward_cached(state, X, train_mode)
    n = X.shape[0]
    rows = np.arange(n)
    # a full (rows x outputs) error, zero off the taken actions: the sums and
    # matmuls below then run in the same order as for a dense target matrix
    err = np.zeros_like(out)
    err[rows, actions] = out[rows, actions] - y
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is detected, not warned
        loss = float(np.sum(err * err) / n)
    g = 2.0 * err / n

    grads_w = [None] * len(state.weights)
    grads_b = [None] * len(state.biases)
    grads_w[-1] = acts[-1].T @ g
    grads_b[-1] = g.sum(axis=0)
    upstream = g @ state.weights[-1].T
    for i in range(len(state.weights) - 2, -1, -1):
        h = acts[i + 1]
        dh = upstream
        if masks[i] is not None:
            dh = dh * masks[i] / (1.0 - state.spec.dropout_p)
        # relu'(z) == (h > 0) also after dropout: dropped units have h == 0
        # and contribute nothing either way
        dz = dh * (h > 0.0)
        grads_w[i] = acts[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            upstream = dz @ state.weights[i].T
    return loss, grads_w, grads_b


def _apply_update(state: NetworkState, grads_w, grads_b, lr: float) -> None:
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


def train_batch(
    state: NetworkState, inputs: np.ndarray, actions: np.ndarray, targets: np.ndarray, lr: float
) -> float:
    """One optimizer step regressing output ``actions[i]`` of row i towards
    ``targets[i]``; returns the pre-step loss."""
    X, _ = _as_batch(inputs, state.spec.input_dim, "inputs")
    A = np.asarray(actions)
    y = np.asarray(targets, dtype=np.float64)
    if A.shape != (X.shape[0],) or y.shape != (X.shape[0],):
        raise InvalidInputError(
            f"row count mismatch: {X.shape[0]} inputs vs actions of shape {A.shape} "
            f"and targets of shape {y.shape}"
        )
    n_out = state.spec.output_dim
    if not np.issubdtype(A.dtype, np.integer) or np.any((A < 0) | (A >= n_out)):
        raise InvalidInputError(f"actions must be integer indices in [0, {n_out})")
    loss, grads_w, grads_b = _loss_and_grads(state, X, A, y, train_mode=True)
    if not np.isfinite(loss):
        raise TrainingDivergenceError(
            f"non-finite loss {loss} (batch of {X.shape[0]}, lr={lr}); "
            "inputs or targets may be diverging"
        )
    _apply_update(state, grads_w, grads_b, lr)
    return loss


def save(state: NetworkState) -> bytes:
    """Serialize to the documented little-endian binary layout."""
    spec = state.spec
    parts = [
        _MAGIC,
        struct.pack("<I", _VERSION),
        struct.pack("<II", spec.input_dim, len(spec.hidden_layers)),
        struct.pack(f"<{len(spec.hidden_layers)}I", *spec.hidden_layers)
        if spec.hidden_layers
        else b"",
        struct.pack("<I", spec.output_dim),
        struct.pack("<d", spec.dropout_p),
        struct.pack("<Q", state.seed),
        struct.pack("<B", 1),  # optimizer: adam
        struct.pack("<Q", state.adam_t),
    ]
    for i in range(len(state.weights)):
        rows, cols = state.weights[i].shape
        parts.append(struct.pack("<II", rows, cols))
        for arr in (
            state.weights[i],
            state.biases[i],
            state.m_w[i],
            state.v_w[i],
            state.m_b[i],
            state.v_b[i],
        ):
            parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointError("truncated checkpoint")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape: tuple[int, ...]) -> np.ndarray:
        n = math.prod(shape)  # exact: np.prod wraps around in int64
        raw = self.take(n * 8)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def load(data: bytes) -> NetworkState:
    """Rebuild a NetworkState from checkpoint bytes.

    Raises CheckpointError on bad magic/version, an optimizer other than
    Adam, truncation or trailing bytes.
    """
    r = _Reader(data)
    if r.take(4) != _MAGIC:
        raise CheckpointError("not a network checkpoint (bad magic)")
    (version,) = r.unpack("<I")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    input_dim, n_hidden = r.unpack("<II")
    hidden = r.unpack(f"<{n_hidden}I") if n_hidden else ()
    (output_dim,) = r.unpack("<I")
    (dropout_p,) = r.unpack("<d")
    (seed,) = r.unpack("<Q")
    (opt_flag,) = r.unpack("<B")
    if opt_flag != 1:
        raise CheckpointError(f"unsupported optimizer byte {opt_flag}, expected 1 (adam)")
    (adam_t,) = r.unpack("<Q")
    spec = NetworkSpec(
        input_dim=input_dim,
        hidden_layers=tuple(hidden),
        output_dim=output_dim,
        dropout_p=dropout_p,
    )
    weights, biases = [], []
    m_w, v_w, m_b, v_b = [], [], [], []
    for fan_in, fan_out in spec.layer_dims:
        rows, cols = r.unpack("<II")
        if (rows, cols) != (fan_in, fan_out):
            raise CheckpointError(
                f"layer shape {(rows, cols)} does not match spec {(fan_in, fan_out)}"
            )
        weights.append(r.array((rows, cols)))
        biases.append(r.array((cols,)))
        m_w.append(r.array((rows, cols)))
        v_w.append(r.array((rows, cols)))
        m_b.append(r.array((cols,)))
        v_b.append(r.array((cols,)))
    if r.pos != len(data):
        raise CheckpointError(f"{len(data) - r.pos} trailing bytes in checkpoint")
    return NetworkState(
        spec=spec,
        weights=weights,
        biases=biases,
        m_w=m_w,
        v_w=v_w,
        m_b=m_b,
        v_b=v_b,
        seed=int(seed),
        adam_t=int(adam_t),
        rng=np.random.default_rng(int(seed)),
    )
