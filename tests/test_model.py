"""Three-headed model tests: head behavior, oracle recomputation, gradient
checks, and exact recovery of the plain actor-critic when the
terminal-prediction weight is zero."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from a3ctp.envs import make_env
from a3ctp.losses import LossWeights
from a3ctp.model import (
    ModelConfig, act, backward_batch, forward_batch, init_model, model_backward,
    rollout_loss, sample_action,
)
from a3ctp.nn import NonFiniteError, ShapeError, gradient_check


def small_cfg(obs_dim=6, n_actions=4, hidden=(8, 8)):
    return ModelConfig(obs_dim, n_actions, hidden)


class TestForward:
    def test_zero_params_uniform_policy_zero_value_half_tp(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(0))
        for k in params:
            params[k] = np.zeros_like(params[k])
        x = np.random.default_rng(1).normal(size=6)
        policy, value = act(params, cfg, x)
        tp = forward_batch(params, cfg, x[None, :])[2][0]
        assert np.allclose(policy, 0.25)
        assert value == 0.0
        assert tp == 0.5

    def test_policy_always_normalized(self):
        cfg = small_cfg()
        rng = np.random.default_rng(2)
        for seed in range(10):
            params = init_model(cfg, np.random.default_rng(seed))
            x = rng.normal(size=6) * 3
            policy, _ = act(params, cfg, x)
            tp = forward_batch(params, cfg, x[None, :])[2][0]
            assert np.isclose(policy.sum(), 1.0, atol=1e-9)
            assert np.all(policy >= 0)
            assert 0.0 < tp < 1.0

    def test_matches_independent_recomputation(self):
        cfg = small_cfg(hidden=(5,))
        params = init_model(cfg, np.random.default_rng(3))
        x = np.random.default_rng(4).normal(size=6)
        # naive trunk + heads with explicit loops
        h = np.tanh(np.array([
            sum(x[i] * params["trunk0.W"][i, j] for i in range(6))
            + params["trunk0.b"][j] for j in range(5)
        ]))
        logits = np.array([
            sum(h[i] * params["policy.W"][i, j] for i in range(5))
            + params["policy.b"][j] for j in range(4)
        ])
        e = np.exp(logits - logits.max())
        probs = e / e.sum()
        value = sum(h[i] * params["value.W"][i, 0] for i in range(5)) + params["value.b"][0]
        u = sum(h[i] * params["tp.W"][i, 0] for i in range(5)) + params["tp.b"][0]
        tp = 1.0 / (1.0 + np.exp(-u))
        policy, v = act(params, cfg, x)
        assert np.allclose(policy, probs, atol=1e-12)
        assert np.isclose(v, value, atol=1e-12)
        assert np.isclose(forward_batch(params, cfg, x[None, :])[2][0], tp, atol=1e-12)

    def test_deterministic_and_side_effect_free(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(5))
        before = params.copy()
        x = np.random.default_rng(6).normal(size=6)
        a = act(params, cfg, x)
        b = act(params, cfg, x)
        assert np.array_equal(a[0], b[0])
        assert a[1] == b[1]
        tp_a = forward_batch(params, cfg, x[None, :])[2]
        tp_b = forward_batch(params, cfg, x[None, :])[2]
        assert np.array_equal(tp_a, tp_b)
        assert params.equal_bits(before)


class TestBackward:
    def _random_batch(self, cfg, seed, T=5):
        rng = np.random.default_rng(seed)
        obs = rng.normal(size=(T, cfg.obs_dim))
        actions = rng.integers(0, cfg.n_actions, size=T)
        adv = rng.normal(size=T)
        ret = rng.normal(size=T)
        y = rng.random(T)
        return obs, actions, adv, ret, y

    def test_stationary_point_gives_zero_gradients(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(7))
        rng = np.random.default_rng(8)
        obs = rng.normal(size=(3, 6))
        # targets that sit exactly at the current outputs, entropy off
        from a3ctp.model import forward_batch
        probs, v, tp, _ = forward_batch(params, cfg, obs)
        w = LossWeights(lambda_h=0.0)
        grads, parts = model_backward(params, cfg, obs, [0, 1, 2],
                                      np.zeros(3), v, tp, w)
        for k in grads:
            assert np.allclose(grads[k], 0.0, atol=1e-12), k

    def test_entropy_gradient_vanishes_on_uniform_policy(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(9))
        # zero the policy head: logits all zero -> uniform policy
        params["policy.W"] = np.zeros_like(params["policy.W"])
        params["policy.b"] = np.zeros_like(params["policy.b"])
        obs = np.random.default_rng(10).normal(size=(2, 6))
        from a3ctp.model import forward_batch
        _, v, tp, _ = forward_batch(params, cfg, obs)
        # entropy-only loss: all other terms at stationary points
        w = LossWeights(lambda_v=0.0, lambda_pi=0.0, lambda_h=0.01, lambda_tp=0.0)
        grads, _ = model_backward(params, cfg, obs, [0, 1], np.zeros(2), v, tp, w)
        assert np.allclose(grads["policy.W"], 0.0, atol=1e-12)
        assert np.allclose(grads["policy.b"], 0.0, atol=1e-12)

    def test_matches_finite_differences(self):
        cfg = small_cfg(hidden=(7,))
        params = init_model(cfg, np.random.default_rng(11))
        obs, actions, adv, ret, y = self._random_batch(cfg, 12)
        w = LossWeights()
        loss_fn = lambda p: rollout_loss(p, cfg, obs, actions, adv, ret, y, w)
        grad_fn = lambda p: model_backward(p, cfg, obs, actions, adv, ret, y, w)[0]
        report = gradient_check(params, loss_fn, grad_fn, tolerance=1e-4)
        assert report.passed, (report.worst_param, report.max_rel_error)

    def test_invalid_action_index_rejected(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(13))
        obs = np.zeros((1, 6))
        with pytest.raises(IndexError):
            model_backward(params, cfg, obs, [7], [0.0], [0.0], [0.5], LossWeights())


class TestTPInteraction:
    def test_tp_loss_reaches_trunk_parameters(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(14))
        obs = np.random.default_rng(15).normal(size=(4, 6))
        # tp-only loss with targets away from predictions
        w = LossWeights(lambda_v=0.0, lambda_pi=0.0, lambda_h=0.0, lambda_tp=0.5)
        from a3ctp.model import forward_batch
        _, v, tp, _ = forward_batch(params, cfg, obs)
        y = np.clip(tp + 0.3, 0, 1)
        grads, parts = model_backward(params, cfg, obs, [0, 0, 0, 0],
                                      np.zeros(4), v, y, w)
        assert parts.tp_loss > 0
        assert np.any(grads["trunk0.W"] != 0.0)
        assert np.any(grads["tp.W"] != 0.0)

    def test_lambda_tp_zero_bit_identical_to_plain_backward(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(16))
        rng = np.random.default_rng(17)
        obs = rng.normal(size=(5, 6))
        actions = rng.integers(0, 4, size=5)
        adv, ret, y = rng.normal(size=5), rng.normal(size=5), rng.random(5)
        g_zero, _ = model_backward(params, cfg, obs, actions, adv, ret, y,
                                   LossWeights(lambda_tp=0.0))
        g_off, _ = model_backward(params, cfg, obs, actions, adv, ret, None,
                                  LossWeights())
        for k in g_zero:
            assert np.array_equal(g_zero[k], g_off[k]), k

    def test_tp_gradients_confined_to_tp_head_and_trunk(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(18))
        rng = np.random.default_rng(19)
        obs = rng.normal(size=(5, 6))
        actions = rng.integers(0, 4, size=5)
        adv, ret, y = rng.normal(size=5), rng.normal(size=5), rng.random(5)
        g_on, _ = model_backward(params, cfg, obs, actions, adv, ret, y, LossWeights())
        g_off, _ = model_backward(params, cfg, obs, actions, adv, ret, y,
                                  LossWeights(lambda_tp=0.0))
        for k in g_on:
            if k.startswith(("policy", "value")):
                assert np.array_equal(g_on[k], g_off[k]), k
        assert any(not np.array_equal(g_on[k], g_off[k])
                   for k in g_on if k.startswith(("tp", "trunk")))


def mlp_forward(params, x, layers):
    """A stack of dense layers, each (name, activation) with activation
    "tanh" or "linear": the generic layer-by-layer forward the model's
    forward pass replaced. Returns (output, cache)."""
    h = x
    cache = {"pre": [], "post": [h], "layers": layers}
    for name, activation in layers:
        z = h @ params[f"{name}.W"] + params[f"{name}.b"]
        h = np.tanh(z) if activation == "tanh" else z
        cache["pre"].append(z)
        cache["post"].append(h)
    return h, cache


def mlp_backward(params, cache, d_out, grads):
    """Backward pass matching an mlp_forward cache: accumulates parameter
    gradients into `grads` and returns the gradient w.r.t. the input."""
    d = d_out
    for i in range(len(cache["layers"]) - 1, -1, -1):
        name, activation = cache["layers"][i]
        a = cache["post"][i + 1]
        dz = d * (1.0 - a * a) if activation == "tanh" else d
        x = cache["post"][i]
        grads[f"{name}.W"] = grads[f"{name}.W"] + x.T @ dz
        grads[f"{name}.b"] = grads[f"{name}.b"] + dz.sum(axis=0)
        d = dz @ params[f"{name}.W"].T
    return d


def layered_forward(params, cfg, obs):
    """Forward pass composed from mlp_forward, one stack per head: the
    reference the model's forward must match bit for bit."""
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    trunk = [(f"trunk{i}", "tanh") for i in range(len(cfg.hidden))]
    h, trunk_cache = mlp_forward(params, obs, trunk)
    logits, pol = mlp_forward(params, h, [("policy", "linear")])
    v, val = mlp_forward(params, h, [("value", "linear")])
    u, tp_cache = mlp_forward(params, h, [("tp", "linear")])
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    probs = e / e.sum(axis=-1, keepdims=True)
    tp = 1.0 / (1.0 + np.exp(-u[:, 0]))
    return probs, v[:, 0], tp, (trunk_cache, pol, val, tp_cache)


def layered_backward(params, cfg, obs, actions, adv, ret, y, w, with_tp):
    """Backward pass composed from mlp_backward with the same loss
    arithmetic as the model: the reference for its gradients."""
    probs, v, tp_pred, (trunk, pol, val, tp_cache) = layered_forward(params, cfg, obs)
    T, A = probs.shape
    z = pol["pre"][0] - pol["pre"][0].max(axis=-1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
    onehot = np.zeros((T, A))
    onehot[np.arange(T), actions] = 1.0
    ent = -np.sum(probs * logp, axis=1)
    d_logits = w.lambda_pi * adv[:, None] * (probs - onehot) / T
    d_logits += w.lambda_h * probs * (logp + ent[:, None]) / T
    d_v = w.lambda_v * (-2.0 / T) * (ret - v)
    grads = params.zeros_like()
    d_h_pol = mlp_backward(params, pol, d_logits, grads)
    d_h_val = mlp_backward(params, val, d_v[:, None], grads)
    d_h = d_h_pol + d_h_val
    if with_tp:
        d_u = w.lambda_tp * (-2.0 / T) * (y - tp_pred) * tp_pred * (1.0 - tp_pred)
        d_h = d_h + mlp_backward(params, tp_cache, d_u[:, None], grads)
    mlp_backward(params, trunk, d_h, grads)
    return grads


class TestAct:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6), st.lists(st.integers(1, 16), max_size=3),
           st.integers(0, 2**32 - 1), st.floats(0.1, 10.0))
    def test_bits_equal_row_zero_of_forward_batch(self, obs_dim, n_actions, hidden, seed, scale):
        cfg = ModelConfig(obs_dim, n_actions, tuple(hidden))
        rng = np.random.default_rng(seed)
        params = init_model(cfg, rng)
        for k in params:
            params[k] = params[k] + rng.normal(size=params[k].shape)  # nonzero biases too
        obs = rng.normal(size=obs_dim) * scale
        policy, value = act(params, cfg, obs)
        probs, values, _, _ = forward_batch(params, cfg, obs[None, :])
        assert policy.shape == (n_actions,) and np.array_equal(policy, probs[0])
        assert isinstance(value, float) and value == values[0]

    def test_wrong_width_raises_shape_error(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(50))
        with pytest.raises(ShapeError):
            act(params, cfg, np.zeros(5))

    @pytest.mark.parametrize("key", ["trunk0.W", "trunk1.b", "policy.W", "policy.b",
                                     "value.W", "value.b"])
    def test_nan_in_an_acting_layer_raises(self, key):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(51))
        params[key] = np.full_like(params[key], np.nan)
        with pytest.raises(NonFiniteError):
            act(params, cfg, np.ones(6))

    @pytest.mark.parametrize("key", ["tp.W", "tp.b"])
    def test_nan_only_in_the_tp_head_raises_in_forward_batch_alone(self, key):
        """act never computes the terminal-prediction head; the rollout's
        forward_batch in the next compute_update is what catches it."""
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(52))
        params[key] = np.full_like(params[key], np.nan)
        policy, value = act(params, cfg, np.ones(6))
        assert np.isfinite(policy).all() and np.isfinite(value)
        with pytest.raises(NonFiniteError):
            forward_batch(params, cfg, np.ones((1, 6)))


class TestLeanPasses:
    @pytest.mark.parametrize("T", [1, 7])
    def test_forward_bit_identical_to_layered_reference(self, T):
        cfg = small_cfg(obs_dim=9, n_actions=5, hidden=(16, 12))
        params = init_model(cfg, np.random.default_rng(30))
        obs = np.random.default_rng(31).normal(size=(T, 9))
        got = forward_batch(params, cfg, obs)[:3]
        want = layered_forward(params, cfg, obs)[:3]
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b)

    @pytest.mark.parametrize("with_tp", [True, False])
    def test_backward_bit_identical_to_layered_reference(self, with_tp):
        cfg = small_cfg(obs_dim=9, n_actions=5, hidden=(16, 12))
        params = init_model(cfg, np.random.default_rng(32))
        rng = np.random.default_rng(33)
        T = 20
        obs = rng.normal(size=(T, 9))
        actions = rng.integers(0, 5, size=T)
        adv, ret, y = rng.normal(size=T), rng.normal(size=T), rng.random(T)
        w = LossWeights()
        _, _, _, cache = forward_batch(params, cfg, obs)
        got, _ = backward_batch(params, cfg, cache, actions, adv, ret,
                                y if with_tp else None, w)
        want = layered_backward(params, cfg, obs, actions, adv, ret, y, w, with_tp)
        assert got.names() == want.names()
        for k in got:
            assert np.array_equal(got[k], want[k]), k

    @pytest.mark.parametrize("case", ["tp-on", "no-targets", "lambda-tp-zero"])
    def test_rollout_loss_equals_backward_total(self, case):
        cfg = small_cfg(obs_dim=9, n_actions=5, hidden=(16, 12))
        params = init_model(cfg, np.random.default_rng(35))
        rng = np.random.default_rng(36)
        obs = rng.normal(size=(11, 9))
        actions = rng.integers(0, 5, size=11)
        adv, ret, y = rng.normal(size=11), rng.normal(size=11), rng.random(11)
        w = LossWeights(lambda_tp=0.0) if case == "lambda-tp-zero" else LossWeights()
        y = None if case == "no-targets" else y
        _, _, _, cache = forward_batch(params, cfg, obs)
        _, parts = backward_batch(params, cfg, cache, actions, adv, ret, y, w)
        assert parts.tp_on == (case == "tp-on")
        assert rollout_loss(params, cfg, obs, actions, adv, ret, y, w) == parts.total

    def test_forward_checks_width_and_finiteness(self):
        cfg = small_cfg()
        params = init_model(cfg, np.random.default_rng(34))
        with pytest.raises(ShapeError):
            forward_batch(params, cfg, np.zeros((1, 5)))
        for key in ("trunk0.b", "tp.b"):
            bad = params.copy()
            bad[key] = np.full_like(bad[key], np.nan)
            with pytest.raises(NonFiniteError):
                forward_batch(bad, cfg, np.zeros((1, 6)))


class TestSampleAction:
    def test_matches_inverse_cdf_with_one_draw(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            probs = rng.dirichlet(np.ones(5))
            a, b = np.random.default_rng(7), np.random.default_rng(7)
            u = b.random()
            want = min(int(np.searchsorted(np.cumsum(probs), u)), 4)
            assert sample_action(probs, a) == want
            assert a.random() == b.random()  # exactly one draw consumed

    def test_short_cdf_falls_on_last_action(self):
        probs = np.array([0.1, 0.1, 0.1])  # sums to 0.3: most draws exceed it
        rng = np.random.default_rng(0)
        assert {sample_action(probs, rng) for _ in range(50)} <= {0, 1, 2}
        assert sample_action(probs, np.random.default_rng(0)) == 2


class TestInit:
    # sha256 of init_model(cfg, default_rng(0)).to_bytes() with the default
    # hidden widths, as the layer-by-layer initializer produced them.
    PINS = {
        ("gridgoal", 8): "b6a44b38d2ac3869a63b68e8c45d83d6ac25142557e235842c0823cc2db41cee",
        ("polebalance", None): "be807a0618a6c3cf26fabd434a5d8e01270f5089a0d0e1eb6b98f681126b55c3",
        ("minibomber-static", 8): "ea587696e8a762f6727928bc890a5337f62b44adcd151318209d4c56f1b718f6",
    }

    @pytest.mark.parametrize("env,size", list(PINS))
    def test_init_bytes_are_pinned(self, env, size):
        spec = make_env(env, **({} if size is None else {"size": size})).spec()
        cfg = ModelConfig(spec.obs_dim, spec.n_actions)
        blob = init_model(cfg, np.random.default_rng(0)).to_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.PINS[env, size]

    def test_layers_are_the_manifest(self):
        cfg = ModelConfig(6, 4, (8, 5))
        assert cfg.layers == (("trunk0", 6, 8), ("trunk1", 8, 5), ("policy", 5, 4),
                              ("value", 5, 1), ("tp", 5, 1))
        assert cfg.trunk_keys == (("trunk0.W", "trunk0.b"), ("trunk1.W", "trunk1.b"))
        params = init_model(cfg, np.random.default_rng(0))
        assert params.names() == [f"{n}.{k}" for n, _, _ in cfg.layers for k in "Wb"]
        assert tuple((n, shape) for n, shape, _, _ in params.layout) == cfg.manifest
        assert cfg.manifest[:2] == (("trunk0.W", (6, 8)), ("trunk0.b", (8,)))
        assert ModelConfig(6, 4, ()).layers[0] == ("policy", 6, 4)
