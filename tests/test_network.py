import struct

import numpy as np
import pytest

from mobicomp import network
from mobicomp.agent import PolicyModel, load_model, save_model
from mobicomp.environment import Extents
from mobicomp.errors import CheckpointError, InvalidInputError, TrainingDivergenceError
from mobicomp.network import (
    NetworkSpec,
    _forward_cached,
    _loss_and_grads,
    forward,
    init_network,
    train_batch,
)
from mobicomp.oracle import DUMMY_SERVICE

from conftest import wrapping_policy_file
from oracles import training_state, unblocked_adam_update


def zeroed(spec, seed=0):
    state = init_network(spec, seed=seed)
    for w in state.weights:
        w[:] = 0.0
    for b in state.biases:
        b[:] = 0.0
    return state


def taken_action_loss(state, X, actions, y):
    """Mean over rows of the squared error of each row's taken action, from an
    eval-mode forward pass."""
    d = forward(state, X)[np.arange(len(X)), actions] - y
    return float(np.sum(d * d) / len(X))


def gradient_check(state, X, actions, y, n_samples=40, step=1e-5, seed=0):
    """Max relative error between the analytic gradients of the taken-action
    loss and central differences of ``taken_action_loss``, probed on a random
    parameter subset; ``state`` has no dropout, so the train-mode pass is the
    eval-mode one."""
    _, grads_w, grads_b = _loss_and_grads(state, X, np.asarray(actions), y)
    rng = np.random.default_rng(seed)
    params = list(zip(state.weights, grads_w)) + list(zip(state.biases, grads_b))
    worst = 0.0
    for _ in range(n_samples):
        arr, grad = params[int(rng.integers(len(params)))]
        idx = tuple(int(rng.integers(s)) for s in arr.shape)
        orig = arr[idx]
        arr[idx] = orig + step
        f_plus = taken_action_loss(state, X, actions, y)
        arr[idx] = orig - step
        f_minus = taken_action_loss(state, X, actions, y)
        arr[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * step)
        analytic = grad[idx]
        denom = max(abs(numeric), abs(analytic), 1e-6)
        worst = max(worst, abs(numeric - analytic) / denom)
    return worst


class TestSpec:
    @pytest.mark.parametrize(
        "hidden", [(10**13,), (2**32 - 1, 2**32 - 1)], ids=["wide", "past_int64"]
    )
    def test_parameters_past_the_bound_rejected(self, hidden):
        # counted in Python ints, so a count past int64 is refused too
        with pytest.raises(InvalidInputError, match="parameters"):
            NetworkSpec(3, hidden, 2)


class TestForward:
    def test_zero_network_outputs_zero(self):
        spec = NetworkSpec(input_dim=3, hidden_layers=(4,), output_dim=2)
        state = zeroed(spec)
        out = forward(state, np.array([1.0, -2.0, 3.0]))
        assert out.shape == (2,)
        assert np.all(out == 0.0)

    def test_identity_linear_layer(self):
        spec = NetworkSpec(input_dim=3, hidden_layers=(), output_dim=3)
        state = zeroed(spec)
        state.weights[0][:] = np.eye(3)
        x = np.array([0.5, -1.5, 2.0])
        assert np.array_equal(forward(state, x), x)

    def test_hand_computed_2_3_2(self):
        spec = NetworkSpec(input_dim=2, hidden_layers=(3,), output_dim=2)
        state = zeroed(spec)
        W1 = np.array([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]])
        b1 = np.array([0.01, -0.02, 0.03])
        W2 = np.array([[1.0, -1.0], [2.0, 0.5], [-0.5, 0.25]])
        b2 = np.array([0.1, 0.2])
        state.weights[0][:] = W1
        state.biases[0][:] = b1
        state.weights[1][:] = W2
        state.biases[1][:] = b2
        x = np.array([1.0, -2.0])
        # independent hand computation, element by element
        z1 = np.array(
            [
                1.0 * 0.1 + (-2.0) * 0.4 + 0.01,
                1.0 * -0.2 + (-2.0) * 0.5 + (-0.02),
                1.0 * 0.3 + (-2.0) * -0.6 + 0.03,
            ]
        )
        h = np.maximum(z1, 0.0)
        expected = np.array(
            [
                h[0] * 1.0 + h[1] * 2.0 + h[2] * -0.5 + 0.1,
                h[0] * -1.0 + h[1] * 0.5 + h[2] * 0.25 + 0.2,
            ]
        )
        assert np.allclose(forward(state, x), expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        spec = NetworkSpec(input_dim=3, hidden_layers=(4,), output_dim=2)
        state = init_network(spec, seed=0)
        with pytest.raises(InvalidInputError):
            forward(state, np.zeros(4))

    def test_batched_forward_matches_per_row(self):
        spec = NetworkSpec(input_dim=3, hidden_layers=(8, 8), output_dim=4)
        state = init_network(spec, seed=3)
        X = np.random.default_rng(0).standard_normal((5, 3))
        batched = forward(state, X)
        rows = np.stack([forward(state, x) for x in X])
        # gemm and gemv may round differently; equality up to a few ulps
        assert np.allclose(batched, rows, rtol=1e-12, atol=1e-15)


class TestTrainBatch:
    def test_fixed_point_when_targets_equal_outputs(self):
        spec = NetworkSpec(input_dim=2, hidden_layers=(4,), output_dim=2)
        state = init_network(spec, seed=1)
        X = np.array([[0.3, -0.7], [1.2, 0.4]])
        actions = np.array([1, 0])
        y = forward(state, X)[[0, 1], actions]
        before = [w.copy() for w in state.weights]
        loss = train_batch(state, X, actions, y, lr=0.1)
        assert loss == 0.0
        assert all(np.array_equal(b, w) for b, w in zip(before, state.weights))

    def test_loss_is_the_taken_actions_squared_error(self):
        spec = NetworkSpec(input_dim=2, hidden_layers=(4,), output_dim=3)
        state = init_network(spec, seed=1)
        X = np.array([[0.3, -0.7], [1.2, 0.4], [-0.5, 0.1]])
        actions = np.array([2, 0, 2])
        y = np.array([0.5, -1.0, 3.0])
        expected = taken_action_loss(state, X, actions, y)
        assert train_batch(state, X, actions, y, lr=0.1) == pytest.approx(expected, rel=1e-12)

    def test_other_outputs_untouched_under_dropout(self):
        # with dropout the train-mode pass differs from any eval-mode
        # prediction; outputs no row took must still get no gradient at all
        spec = NetworkSpec(input_dim=3, hidden_layers=(16,), output_dim=4, dropout_p=0.5)
        state = init_network(spec, seed=11)
        rng = np.random.default_rng(11)
        w_out, b_out = state.weights[-1].copy(), state.biases[-1].copy()
        for _ in range(5):
            X = rng.standard_normal((8, 3))
            train_batch(state, X, np.zeros(8, dtype=int), rng.standard_normal(8), lr=0.01)
        assert np.array_equal(state.weights[-1][:, 1:], w_out[:, 1:])
        assert np.array_equal(state.biases[-1][1:], b_out[1:])
        assert not np.array_equal(state.weights[-1][:, 0], w_out[:, 0])

    def test_one_step_plain_gradient(self):
        # y = w*x, one sample (x=1, target=1), w=0: g = d/dw (w-1)^2 = -2.
        # Adam's first step: m/(1-b1) = g and v/(1-b2) = g^2, so w moves by
        # lr * 2 / (2 + eps) at lr=0.1
        spec = NetworkSpec(input_dim=1, hidden_layers=(), output_dim=1)
        state = zeroed(spec)
        loss = train_batch(state, np.array([[1.0]]), np.array([0]), np.array([1.0]), lr=0.1)
        assert loss == 1.0
        assert state.weights[0][0, 0] == pytest.approx(0.1 * 2 / (2 + 1e-8), abs=1e-15)

    def test_loss_decreases_on_small_regression(self):
        rng = np.random.default_rng(2)
        spec = NetworkSpec(input_dim=2, hidden_layers=(16,), output_dim=1)
        state = init_network(spec, seed=2)
        X = rng.standard_normal((32, 2))
        y = (X[:, 0] * 0.5 - X[:, 1] * 0.25) ** 2
        actions = np.zeros(32, dtype=int)
        losses = [train_batch(state, X, actions, y, lr=0.01) for _ in range(100)]
        windows = [float(np.mean(losses[i : i + 10])) for i in range(0, 100, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(windows, windows[1:]))
        assert windows[-1] < windows[0]

    def test_divergence_raises(self):
        spec = NetworkSpec(input_dim=1, hidden_layers=(), output_dim=1)
        state = zeroed(spec)
        with pytest.raises(TrainingDivergenceError):
            train_batch(state, np.array([[1.0]]), np.array([0]), np.array([1e200]), lr=1.0)

    def test_row_count_mismatch_rejected(self):
        spec = NetworkSpec(input_dim=1, hidden_layers=(), output_dim=1)
        state = init_network(spec, seed=0)
        for n_actions, n_targets in [(3, 3), (2, 3), (3, 2)]:
            with pytest.raises(InvalidInputError, match="row count"):
                train_batch(
                    state, np.zeros((2, 1)), np.zeros(n_actions, dtype=int),
                    np.zeros(n_targets), lr=0.1,
                )

    @pytest.mark.parametrize("actions", [[0, -1], [0, 2], [0.0, 1.0], [True, False]])
    def test_action_outside_the_outputs_rejected(self, actions):
        # a negative index would otherwise wrap around to the last output
        spec = NetworkSpec(input_dim=1, hidden_layers=(), output_dim=2)
        state = init_network(spec, seed=0)
        before = state.weights[0].copy()
        with pytest.raises(InvalidInputError):
            train_batch(state, np.zeros((2, 1)), np.array(actions), np.zeros(2), lr=0.1)
        assert np.array_equal(state.weights[0], before) and state.adam_t == 0


class TestGradientCheck:
    def test_fresh_small_networks(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            spec = NetworkSpec(
                input_dim=3,
                hidden_layers=(int(rng.integers(4, 10)), int(rng.integers(4, 10))),
                output_dim=2,
            )
            state = init_network(spec, seed=trial)
            X = rng.standard_normal((4, 3))
            actions = rng.integers(2, size=4)
            y = rng.standard_normal(4)
            assert gradient_check(state, X, actions, y, seed=trial) < 1e-4

    def test_linear_layer_is_machine_precision(self):
        spec = NetworkSpec(input_dim=4, hidden_layers=(), output_dim=3)
        state = init_network(spec, seed=5)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((3, 4))
        err = gradient_check(state, X, np.array([2, 0, 2]), rng.standard_normal(3))
        assert err < 1e-9

    def test_relu_network_away_from_kinks(self):
        spec = NetworkSpec(input_dim=2, hidden_layers=(6, 6), output_dim=2)
        state = init_network(spec, seed=6)
        # inputs of order one keep preactivations clear of the 1e-5 probe step
        X = np.array([[0.9, -1.1], [-0.8, 1.2]])
        y = np.array([0.5, -0.25])
        assert gradient_check(state, X, np.array([1, 0]), y, n_samples=60, seed=6) < 1e-4


class TestDropout:
    def test_masks_only_in_train_mode(self):
        spec = NetworkSpec(input_dim=3, hidden_layers=(32,), output_dim=2, dropout_p=0.5)
        state = init_network(spec, seed=7)
        x = np.array([1.0, 2.0, 3.0])
        eval_1 = forward(state, x)
        eval_2 = forward(state, x)
        assert np.array_equal(eval_1, eval_2)
        train_out = [_forward_cached(state, x[None, :], True)[2][0] for _ in range(8)]
        assert any(not np.array_equal(t, eval_1) for t in train_out)

    def test_inverted_dropout_expectation(self):
        # expected train-mode activation equals the eval activation; every
        # batch row draws its own mask, giving 40k independent draws
        spec = NetworkSpec(input_dim=3, hidden_layers=(64,), output_dim=4, dropout_p=0.5)
        state = init_network(spec, seed=8)
        x = np.array([0.5, -1.0, 2.0])
        eval_out = forward(state, x)
        n = 40_000
        mean = _forward_cached(state, np.tile(x, (n, 1)), True)[2].mean(axis=0)
        denom = np.maximum(np.abs(eval_out), 1e-9)
        assert np.max(np.abs(mean - eval_out) / denom) < 0.02


class TestCheckpoint:
    """A trained network's weights and biases are stored in the policy file
    ``agent.save_model`` writes; nothing else of the network is kept."""

    def _trained_file(self):
        spec = NetworkSpec(input_dim=3, hidden_layers=(5,), output_dim=2, dropout_p=0.25)
        state = init_network(spec, seed=9)
        rng = np.random.default_rng(9)
        for _ in range(3):
            X, actions, y = rng.standard_normal((4, 3)), rng.integers(2, size=4), rng.standard_normal(4)
            train_batch(state, X, actions, y, lr=0.01)
        extents = Extents(t_min=0.0, t_max=4.0, x_min=-1.0, x_max=1.0, y_min=0.0, y_max=2.0)
        return state, save_model(PolicyModel(state, ("a", DUMMY_SERVICE), extents))

    def test_round_trip_bit_exact(self):
        state, blob = self._trained_file()
        clone = load_model(blob).network
        x = np.array([0.1, -0.2, 0.7])
        assert forward(state, x).tobytes() == forward(clone, x).tobytes()
        for saved, loaded in ((state.weights, clone.weights), (state.biases, clone.biases)):
            assert [a.shape for a in saved] == [b.shape for b in loaded]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(saved, loaded))
        assert clone.spec.hidden_layers == state.spec.hidden_layers
        assert clone.adam_t == 0 and clone.spec.dropout_p == 0.0
        assert save_model(load_model(blob)) == blob

    def test_truncated_rejected(self):
        _, blob = self._trained_file()
        with pytest.raises(CheckpointError):
            load_model(blob[: len(blob) // 2])

    def test_trailing_bytes_rejected(self):
        _, blob = self._trained_file()
        with pytest.raises(CheckpointError):
            load_model(blob + b"\x00")

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError):
            load_model(b"NOPE" + b"\x00" * 64)

    def test_unsupported_version_rejected(self):
        _, blob = self._trained_file()
        for version in (0, 1, 3):
            data = blob[:4] + struct.pack("<I", version) + blob[8:]
            with pytest.raises(CheckpointError, match=f"unsupported policy model version {version}"):
                load_model(data)

    def test_layers_past_the_parameter_bound_are_a_bad_header(self):
        # the header's two 2**32 - 1 wide layers, past int64 in parameters
        with pytest.raises(CheckpointError, match="bad policy model header.*parameters, more than"):
            load_model(wrapping_policy_file())


class TestDeterminism:
    def test_same_seed_bitwise_identical_training(self):
        def run():
            spec = NetworkSpec(input_dim=3, hidden_layers=(16, 16), output_dim=2, dropout_p=0.3)
            state = init_network(spec, seed=10)
            rng = np.random.default_rng(10)
            for _ in range(20):
                X, actions, y = rng.standard_normal((8, 3)), rng.integers(2, size=8), rng.standard_normal(8)
                train_batch(state, X, actions, y, lr=0.005)
            return state

        assert training_state(run()) == training_state(run())


def trained_state(spec, steps, seed=12):
    """``training_state`` after ``steps`` train_batch calls on random batches."""
    state = init_network(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        X = rng.standard_normal((8, spec.input_dim))
        actions = rng.integers(spec.output_dim, size=8)
        train_batch(state, X, actions, rng.standard_normal(8), lr=0.01)
    return training_state(state)


class TestBlockedAdam:
    """The update runs in first-axis slices of about ``_ADAM_BLOCK`` elements
    with the same per-element operations as one whole-array pass."""

    def unblocked_state(self, monkeypatch, spec, steps):
        with monkeypatch.context() as patch:
            patch.setattr(network, "_apply_update", unblocked_adam_update)
            return trained_state(spec, steps)

    @pytest.mark.parametrize("block", [3, 20])
    def test_small_blocks_match_the_unblocked_update(self, monkeypatch, block):
        spec = NetworkSpec(input_dim=7, hidden_layers=(9, 7), output_dim=4, dropout_p=0.3)
        # every weight array spans several slices: at block 3 each row is
        # wider than a block and the biases span several slices too, at
        # block 20 each weight array's last slice is partial and the biases
        # fit in one slice
        for rows, cols in spec.layer_dims:
            per_slice = max(1, block // cols)
            assert rows > per_slice and (cols > block or rows % per_slice)
        expected = self.unblocked_state(monkeypatch, spec, steps=12)
        monkeypatch.setattr(network, "_ADAM_BLOCK", block)
        assert trained_state(spec, steps=12) == expected

    def test_default_network_matches_the_unblocked_update(self, monkeypatch):
        spec = NetworkSpec(input_dim=3, hidden_layers=(512, 512), output_dim=201, dropout_p=0.5)
        assert trained_state(spec, steps=3) == self.unblocked_state(monkeypatch, spec, steps=3)
