"""Loss and target tests, including property tests for the
terminal-prediction labels and the running-average episode tracker."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from a3ctp.losses import (
    LossWeights, TPLabeler, advantages, entropy, loss_parts, n_step_returns,
    tp_loss, tp_targets,
)


class TestNStepReturns:
    def test_undiscounted_terminal_sum(self):
        assert np.allclose(n_step_returns([0, 0, 1], 0.0, 1.0, True), [1, 1, 1])

    def test_discounted_with_bootstrap(self):
        # oracle: naive backward loop
        # R1 = 1 + 0.5*2.0 = 2.0 ; R0 = 1 + 0.5*2.0 = 2.0
        assert np.allclose(n_step_returns([1, 1], 2.0, 0.5, False), [2.0, 2.0])

    def test_single_step_bootstrap(self):
        assert np.allclose(n_step_returns([0], 1.0, 0.99, False), [0.99])

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(0)
        rewards = rng.normal(size=13)
        gamma, boot = 0.9, 0.7
        expected = []
        acc = boot
        for r in reversed(rewards):
            acc = r + gamma * acc
            expected.append(acc)
        expected.reverse()
        assert np.allclose(n_step_returns(rewards, boot, gamma, False), expected)

    def test_gamma_zero_returns_raw_rewards(self):
        rewards = [0.3, -1.0, 2.0]
        assert np.allclose(n_step_returns(rewards, 5.0, 0.0, False), rewards)

    def test_empty_rewards_rejected(self):
        with pytest.raises(ValueError):
            n_step_returns([], 0.0, 0.9, True)

    def test_terminal_with_nonzero_bootstrap_rejected(self):
        with pytest.raises(ValueError):
            n_step_returns([1.0], 0.5, 0.9, True)


class TestAdvantages:
    def test_equal_inputs_give_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(advantages(v, v), np.zeros(3))

    def test_direct_subtraction(self):
        assert np.array_equal(advantages([1, 1], [0, 2]), [1, -1])

    def test_matches_elementwise_loop(self):
        rng = np.random.default_rng(1)
        r, v = rng.normal(size=8), rng.normal(size=8)
        expected = [ri - vi for ri, vi in zip(r, v)]
        assert np.allclose(advantages(r, v), expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            advantages([1.0], [1.0, 2.0])


class TestEntropy:
    def test_uniform_is_log_n(self):
        assert np.isclose(entropy(np.full(6, 1 / 6)), np.log(6))

    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_fair_coin_is_log_two(self):
        assert np.isclose(entropy([0.5, 0.5]), np.log(2))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            entropy([0.5, 0.6])

    @given(st.lists(st.floats(0.01, 10.0), min_size=2, max_size=12))
    def test_bounded_by_log_support_size(self, raw):
        p = np.array(raw) / np.sum(raw)
        p = p / p.sum()
        h = entropy(p)
        assert -1e-12 <= h <= np.log(len(p)) + 1e-9


class TestTPTargets:
    def test_initial_state_is_zero(self):
        assert tp_targets([0], 10.0)[0] == 0.0

    def test_terminal_state_is_one(self):
        assert tp_targets([10], 10.0)[0] == 1.0

    def test_past_average_clipped_to_one(self):
        assert tp_targets([15], 10.0)[0] == 1.0

    def test_linear_interpolation(self):
        y = tp_targets([0, 1, 2, 3, 4], 4.0)
        assert np.allclose(y, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            tp_targets([1], 0.0)
        with pytest.raises(ValueError):
            tp_targets([1], None)

    @given(st.integers(1, 500), st.floats(1.0, 400.0))
    def test_monotone_and_bounded(self, length, horizon):
        y = tp_targets(np.arange(length), horizon)
        assert np.all(y >= 0.0) and np.all(y <= 1.0)
        assert np.all(np.diff(y) >= 0.0)


class TestTPLoss:
    def test_perfect_predictions_are_free(self):
        y = np.linspace(0, 1, 7)
        assert tp_loss(y, y) == 0.0

    def test_constant_offset_squares(self):
        y = np.linspace(0, 0.8, 5)
        assert np.isclose(tp_loss(y, y + 0.1), 0.01)

    def test_matches_naive_mse(self):
        rng = np.random.default_rng(2)
        a, b = rng.random(9), rng.random(9)
        expected = sum((x - y) ** 2 for x, y in zip(a, b)) / 9
        assert np.isclose(tp_loss(a, b), expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tp_loss([0.1], [0.1, 0.2])


def _softmax(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(u):
    return 1.0 / (1.0 + np.exp(-u))


def _rollout_outputs(T=9, A=4, seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(T, A))
    return (logits, _softmax(logits), rng.normal(size=T), rng.random(T),
            rng.integers(0, A, size=T), rng.normal(size=T), rng.normal(size=T),
            rng.random(T))


def _base_total(parts, w):
    """The objective without its terminal-prediction term, in loss_parts' order."""
    return w.lambda_v * parts.value_loss + w.lambda_pi * parts.policy_loss - w.lambda_h * parts.entropy


class TestLossParts:
    def test_parts_are_the_component_losses(self):
        logits, probs, v, tp, actions, adv, ret, y = _rollout_outputs()
        w = LossWeights()
        parts, _, _, d_u = loss_parts(logits, probs, v, tp, actions, adv, ret, y, w)
        T = len(actions)
        logp = np.log(probs)
        assert parts.tp_on and d_u is not None
        assert np.isclose(parts.policy_loss, np.mean(-logp[np.arange(T), actions] * adv))
        assert np.isclose(parts.value_loss, np.mean((ret - v) ** 2))
        assert np.isclose(parts.entropy, np.mean([entropy(p) for p in probs]))
        assert parts.tp_loss == tp_loss(y, tp)
        assert parts.total == _base_total(parts, w) + w.lambda_tp * parts.tp_loss

    @pytest.mark.parametrize("with_targets,lambda_tp", [(False, 0.5), (True, 0.0), (False, 0.0)])
    def test_tp_term_off_without_targets_or_weight(self, with_targets, lambda_tp):
        logits, probs, v, tp, actions, adv, ret, y = _rollout_outputs(seed=1)
        w = LossWeights(lambda_tp=lambda_tp)
        off, _, _, d_u = loss_parts(logits, probs, v, tp, actions, adv, ret,
                                    y if with_targets else None, w)
        assert not off.tp_on and off.tp_loss == 0.0 and d_u is None
        assert off.total == _base_total(off, w)

    def test_lambda_tp_zero_recovers_base_loss_bitwise(self):
        """The total at lambda_tp = 0 is the plain actor-critic objective, bit
        for bit, and so is every head gradient but the absent d_u."""
        logits, probs, v, tp, actions, adv, ret, y = _rollout_outputs(seed=4)
        w0 = LossWeights(lambda_tp=0.0)
        base, d_logits0, d_v0, d_u = loss_parts(logits, probs, v, tp, actions, adv, ret, y, w0)
        on, d_logits, d_v, _ = loss_parts(logits, probs, v, tp, actions, adv, ret, y,
                                          LossWeights())
        assert d_u is None
        assert base.total == _base_total(on, w0)
        assert np.array_equal(d_logits0, d_logits) and np.array_equal(d_v0, d_v)

    def test_default_weights_arithmetic(self):
        """Weights (0.5, 1.0, 0.01, 0.5) on unit parts give 1.99."""
        # One row of 3 actions with logits (0, c, c): bisect c for entropy 1.
        lo, hi = -20.0, 0.0
        for _ in range(100):
            c = (lo + hi) / 2
            lo, hi = (c, hi) if entropy(_softmax(np.array([0.0, c, c]))) < 1.0 else (lo, c)
        logits = np.array([[0.0, c, c]])
        probs = _softmax(logits)
        adv = np.array([-1.0 / np.log(probs[0, 0])])  # -log pi(a) * A = 1
        parts, _, _, _ = loss_parts(logits, probs, np.zeros(1), np.zeros(1), [0], adv,
                                    np.ones(1), np.ones(1), LossWeights())
        for x in (parts.policy_loss, parts.value_loss, parts.entropy, parts.tp_loss):
            assert np.isclose(x, 1.0)
        assert np.isclose(parts.total, 1.99)

    def test_all_zero_parts_total_zero(self):
        # A deterministic policy (zero entropy), zero advantages, exact values
        # and exact terminal predictions.
        logits = np.array([[0.0, -1000.0], [-1000.0, 0.0]])
        probs = _softmax(logits)
        parts, _, _, _ = loss_parts(logits, probs, np.array([0.3, -0.2]), np.array([0.1, 0.9]),
                                    [0, 1], np.zeros(2), np.array([0.3, -0.2]),
                                    np.array([0.1, 0.9]), LossWeights())
        assert parts.tp_on
        for x in (parts.policy_loss, parts.value_loss, parts.entropy, parts.tp_loss):
            assert x == 0.0
        assert parts.total == 0.0

    def test_rejects_actions_out_of_range(self):
        logits, probs, v, tp, actions, adv, ret, y = _rollout_outputs(seed=2)
        for bad in (-1, probs.shape[1]):
            actions[0] = bad
            with pytest.raises(IndexError):
                loss_parts(logits, probs, v, tp, actions, adv, ret, y, LossWeights())

    def test_non_finite_part_raises(self):
        logits, probs, v, tp, actions, adv, ret, y = _rollout_outputs(seed=3)
        v[0] = np.inf
        with pytest.raises(FloatingPointError):
            loss_parts(logits, probs, v, tp, actions, adv, ret, y, LossWeights())

    def test_non_finite_rejected(self):
        # A NaN advantage makes the policy part NaN; a NaN prediction the tp part.
        logits, probs, v, tp, actions, adv, ret, y = _rollout_outputs(seed=5)
        for arr in (adv, tp):
            arr[0] = np.nan
            with pytest.raises(FloatingPointError):
                loss_parts(logits, probs, v, tp, actions, adv, ret, y, LossWeights())
            arr[0] = 0.5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([0.0, 0.5, 2.0]), st.sampled_from([0.0, 0.01, 0.3]))
    def test_head_gradients_match_central_differences(self, T, A, seed, with_targets,
                                                       lambda_tp, lambda_h):
        """d_logits, d_values and d_u against central differences of the
        total, with probs the softmax of the logits and tp_pred the sigmoid
        of the TP head's pre-sigmoid output u."""
        rng = np.random.default_rng(seed)
        logits, v, u = rng.normal(size=(T, A)), rng.normal(size=T), rng.normal(size=T)
        actions = rng.integers(0, A, size=T)
        adv, ret = rng.normal(size=T), rng.normal(size=T)
        y = rng.random(T) if with_targets else None
        w = LossWeights(lambda_h=lambda_h, lambda_tp=lambda_tp)

        def total(logits, v, u):
            return loss_parts(logits, _softmax(logits), v, _sigmoid(u), actions, adv, ret,
                              y, w)[0].total

        parts, d_logits, d_v, d_u = loss_parts(logits, _softmax(logits), v, _sigmoid(u),
                                               actions, adv, ret, y, w)
        assert (d_u is None) == (not parts.tp_on)
        assert parts.tp_on == (with_targets and lambda_tp != 0.0)
        eps = 1e-6

        def central(x, rebuild):
            g = np.zeros_like(x)
            for i in np.ndindex(x.shape):
                hi, lo = x.copy(), x.copy()
                hi[i] += eps
                lo[i] -= eps
                g[i] = (total(*rebuild(hi)) - total(*rebuild(lo))) / (2 * eps)
            return g

        tol = dict(rtol=1e-5, atol=1e-7)
        assert np.allclose(d_logits, central(logits, lambda x: (x, v, u)), **tol)
        assert np.allclose(d_v, central(v, lambda x: (logits, x, u)), **tol)
        d_u_num = central(u, lambda x: (logits, v, x))
        if d_u is None:
            assert np.all(d_u_num == 0.0)
        else:
            assert np.allclose(d_u, d_u_num, **tol)


class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.lambda_v, w.lambda_pi, w.lambda_h, w.lambda_tp) == (0.5, 1.0, 0.01, 0.5)
        assert w.gamma == 0.99 and w.t_max == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_v=-0.1)
        with pytest.raises(ValueError):
            LossWeights(gamma=1.5)
        with pytest.raises(ValueError):
            LossWeights(t_max=0)


class TestTPLabeler:
    def test_single_episode_sets_horizon(self):
        lab = TPLabeler()
        lab.record_episode(50)
        assert lab.horizon == 50

    def test_mean_of_two(self):
        lab = TPLabeler()
        lab.record_episode(10)
        lab.record_episode(30)
        assert lab.horizon == 20

    def test_eviction_beyond_window(self):
        lab = TPLabeler(window=100)
        lengths = list(range(1, 102))  # 101 episodes
        for n in lengths:
            lab.record_episode(n)
        expected = sum(lengths[-100:]) / 100  # loop oracle over the buffer
        assert lab.horizon == expected
        assert len(lab) == 100

    def test_empty_has_no_horizon(self):
        assert TPLabeler().horizon is None

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            TPLabeler().record_episode(0)

    def test_full_buffer_updates_are_smooth(self):
        # once full, |delta N| <= (new - evicted) / window
        rng = np.random.default_rng(3)
        lab = TPLabeler(window=100)
        lengths = list(rng.integers(1, 500, size=150))
        for n in lengths[:100]:
            lab.record_episode(int(n))
        for i, n in enumerate(lengths[100:], start=100):
            before = lab.horizon
            lab.record_episode(int(n))
            evicted = lengths[i - 100]
            assert abs(lab.horizon - before) <= abs(int(n) - int(evicted)) / 100 + 1e-12
