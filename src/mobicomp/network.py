"""Dense feed-forward network with backpropagation, inverted dropout, and an
adaptive-moment optimizer; the function approximator behind the Q-learning
composer. All arithmetic is float64 so gradient checks and cross-run
determinism are meaningful. The optimizer step runs in cache-sized slices of
each array, with the same per-element arithmetic as one whole-array pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, TrainingDivergenceError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Elements per slice of the optimizer step. The six float64 slices one step
# combines (params, grad, m, v and two scratch buffers) take 1.5 MiB and stay
# in a 2 MiB L2 cache; a 3x512 network's step took 4.2 ms at this size against
# 5.2-6.2 ms at 4,096 and 5.5 ms at 131,072 elements (2-vCPU Xeon).
_ADAM_BLOCK = 32_768
# The most parameters (weights and biases) a network may have. Training holds
# each as a float64 parameter, gradient and two Adam moments, 32 bytes, so a
# network at the bound takes 2**25 * 32 B = 1.07 GB; the default 3x512 one
# over 200 services has 630,473.
MAX_PARAMETERS = 2**25


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
        n_params = sum((a + 1) * b for a, b in zip(widths, widths[1:]))  # Python ints: no wrap
        if n_params > MAX_PARAMETERS:
            raise InvalidInputError(
                f"layer widths {widths} make {n_params} parameters, more than {MAX_PARAMETERS}"
            )
        if not (0.0 <= self.dropout_p < 1.0):
            raise InvalidInputError(f"dropout_p must be in [0, 1), got {self.dropout_p}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        widths = (self.input_dim, *self.hidden_layers, self.output_dim)
        return list(zip(widths[:-1], widths[1:]))


@dataclass
class NetworkState:
    """Weights and biases, the Adam moments and step count, and the dropout
    stream. A new state is at step 0 and holds no moments: the first
    optimizer step allocates them as zeros, so a network that only runs
    ``forward`` (a loaded policy) never does."""

    spec: NetworkSpec
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    rng: np.random.Generator = field(default=None, repr=False)
    adam_t: int = field(default=0, init=False)
    m_w: list[np.ndarray] | None = field(default=None, init=False, repr=False)
    v_w: list[np.ndarray] | None = field(default=None, init=False, repr=False)
    m_b: list[np.ndarray] | None = field(default=None, init=False, repr=False)
    v_b: list[np.ndarray] | None = field(default=None, init=False, repr=False)


def init_network(spec: NetworkSpec, seed: int) -> NetworkState:
    """He-style uniform init for the ReLU stack, zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in spec.layer_dims:
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkState(spec=spec, weights=weights, biases=biases, rng=rng)


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


def forward(state: NetworkState, x: np.ndarray) -> np.ndarray:
    """Q-values, in eval mode, for one encoded state vector or a batch of them."""
    X, was_vector = _as_batch(x, state.spec.input_dim, "input")
    _, _, out = _forward_cached(state, X, False)
    return out[0] if was_vector else out


def _loss_and_grads(state: NetworkState, X: np.ndarray, actions: np.ndarray, y: np.ndarray):
    """Loss (mean over rows of the taken action's squared error) and
    gradients, from a train-mode pass. Row i's error sits at output
    ``actions[i]``, and every other output's error is zero."""
    acts, masks, out = _forward_cached(state, X, True)
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
    """One Adam step, in place, in first-axis slices of about ``_ADAM_BLOCK``
    elements of each array (a first-axis slice is a view whatever the layout).
    Every operation writes into the slice or into one of two scratch buffers
    sized to the largest slice. Each element gets the operations of
    ``m = m*b1 + (1-b1)*g``, ``v = v*b2 + ((1-b2)*g)*g`` and
    ``p = p - lr*(m/bc1) / (sqrt(v/bc2) + eps)`` in that order, so the bytes
    equal those of one whole-array pass. The first step allocates the
    moments."""
    if state.m_w is None:
        state.m_w, state.v_w = ([np.zeros_like(w) for w in state.weights] for _ in range(2))
        state.m_b, state.v_b = ([np.zeros_like(b) for b in state.biases] for _ in range(2))
    state.adam_t += 1
    t = state.adam_t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    slices = []
    for i in range(len(state.weights)):
        for params, grad, m, v in (
            (state.weights[i], grads_w[i], state.m_w[i], state.v_w[i]),
            (state.biases[i], grads_b[i], state.m_b[i], state.v_b[i]),
        ):
            rows = max(1, _ADAM_BLOCK * len(params) // params.size)
            if rows >= len(params):  # slicing would cost a small network a tenth of its step
                slices.append((params, grad, m, v))
            else:
                slices += [
                    tuple(arr[lo : lo + rows] for arr in (params, grad, m, v))
                    for lo in range(0, len(params), rows)
                ]
    size = max(params.size for params, _, _, _ in slices)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for params, grad, m, v in slices:
        a = scratch_a[: params.size].reshape(params.shape)
        b = scratch_b[: params.size].reshape(params.shape)
        m *= ADAM_BETA1
        np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(grad, 1.0 - ADAM_BETA2, out=a)
        a *= grad
        v += a
        np.divide(m, bc1, out=a)
        a *= lr
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        params -= a


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
    loss, grads_w, grads_b = _loss_and_grads(state, X, A, y)
    if not np.isfinite(loss):
        raise TrainingDivergenceError(
            f"non-finite loss {loss} (batch of {X.shape[0]}, lr={lr}); "
            "inputs or targets may be diverging"
        )
    _apply_update(state, grads_w, grads_b, lr)
    return loss
