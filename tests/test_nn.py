"""Network-core tests: the model's forward pass against a naive oracle, the
dense backward step against finite differences, Adam against a direct
transcription of its update equations, gradient checking, and bit-exact
serialization."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from a3ctp.losses import LossWeights
from a3ctp.model import ModelConfig, forward_batch, init_model, model_backward, rollout_loss
from a3ctp.nn import (
    AdamState, GradCheckReport, ParamSet, ShapeError, adam_step, clip_global_norm,
    dense_backward, gradient_check,
)


def small_net(rng, obs_dim=5, n_actions=3, hidden=(7, 6)):
    """A three-headed model with two tanh trunk layers."""
    cfg = ModelConfig(obs_dim, n_actions, hidden)
    return cfg, init_model(cfg, rng)


def naive_forward(params, cfg, x):
    """Straight-line re-computation of (probs, value, tp) for one
    observation, with explicit nested loops."""
    def dense(h, name, fan_out):
        W, b = params[f"{name}.W"], params[f"{name}.b"]
        out = []
        for j in range(fan_out):
            acc = b[j]
            for i in range(len(h)):
                acc += h[i] * W[i, j]
            out.append(acc)
        return out

    h = list(x)
    for i, width in enumerate(cfg.hidden):
        h = [np.tanh(v) for v in dense(h, f"trunk{i}", width)]
    logits = np.array(dense(h, "policy", cfg.n_actions))
    e = np.exp(logits - logits.max())
    value = dense(h, "value", 1)[0]
    tp = 1.0 / (1.0 + np.exp(-dense(h, "tp", 1)[0]))
    return e / e.sum(), value, tp


class TestForward:
    def test_all_zero_params_give_zero_preactivations(self):
        cfg, params = small_net(np.random.default_rng(0), obs_dim=4)
        params.flat[:] = 0.0
        probs, v, tp, cache = forward_batch(params, cfg, np.array([[1.0, -2.0, 3.0, 4.0]]))
        for h in cache["post"][1:]:
            assert np.array_equal(h, np.zeros_like(h))
        assert np.array_equal(cache["logits"], np.zeros((1, 3)))
        assert np.array_equal(v, [0.0]) and np.array_equal(tp, [0.5])
        assert np.array_equal(probs, np.full((1, 3), 1.0 / 3.0))

    def test_identity_layer_passes_input_through(self):
        # With no trunk, an identity policy head's logits are the input.
        cfg, params = small_net(np.random.default_rng(0), obs_dim=4, n_actions=4, hidden=())
        params["policy.W"] = np.eye(4)
        params["policy.b"] = np.zeros(4)
        x = np.array([[0.5, -1.5, 2.0, 0.0]])
        _, _, _, cache = forward_batch(params, cfg, x)
        assert np.array_equal(cache["logits"], x)

    def test_matches_naive_nested_loop_recomputation(self):
        rng = np.random.default_rng(7)
        cfg, params = small_net(rng)
        x = rng.normal(size=5)
        probs, v, tp, _ = forward_batch(params, cfg, x[None, :])
        want_probs, want_v, want_tp = naive_forward(params, cfg, x)
        assert np.allclose(probs[0], want_probs, atol=1e-12)
        assert np.isclose(v[0], want_v, atol=1e-12)
        assert np.isclose(tp[0], want_tp, atol=1e-12)

    def test_shape_mismatch_raises(self):
        cfg, params = small_net(np.random.default_rng(0))
        with pytest.raises(ShapeError):
            forward_batch(params, cfg, np.zeros((1, 4)))

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(3)
        cfg, params = small_net(rng)
        x = rng.normal(size=(3, 5))
        a = forward_batch(params, cfg, x)[:3]
        b = forward_batch(params, cfg, x)[:3]
        assert all(np.array_equal(p, q) for p, q in zip(a, b))


class TestBackward:
    """`dense_backward`, the one backward step the model is built from."""

    def _layer(self, rng, fan_in=5, fan_out=3, T=4):
        return (rng.normal(size=(T, fan_in)), rng.normal(size=(fan_in, fan_out)),
                rng.normal(size=fan_out))

    def test_zero_output_gradient_gives_zero_param_gradients(self):
        x, W, _ = self._layer(np.random.default_rng(1))
        gW, gb = np.zeros_like(W), np.zeros(W.shape[1])
        d_x = dense_backward(x, np.zeros((x.shape[0], W.shape[1])), W, gW, gb)
        assert not gW.any() and not gb.any() and not d_x.any()

    def test_single_linear_layer_weight_gradient_is_input(self):
        x = np.array([[1.0, 2.0, 3.0]])
        W = np.zeros((3, 2))
        gW, gb = np.zeros((3, 2)), np.zeros(2)
        # loss = output[0]
        dense_backward(x, np.array([[1.0, 0.0]]), W, gW, gb)
        assert np.array_equal(gW[:, 0], x[0])
        assert np.array_equal(gW[:, 1], np.zeros(3))
        assert np.array_equal(gb, [1.0, 0.0])
        with pytest.raises(ShapeError):
            dense_backward(x, np.zeros((1, 3)), W, gW, gb)

    def test_matches_central_finite_differences(self):
        # A tanh layer, as in the trunk: loss = sum(w * tanh(x @ W + b)).
        rng = np.random.default_rng(11)
        x, W, b = self._layer(rng)
        w = rng.normal(size=(x.shape[0], W.shape[1]))
        params = ParamSet({"l.W": W, "l.b": b, "x": x})

        def loss_fn(p):
            return float(np.sum(w * np.tanh(p["x"] @ p["l.W"] + p["l.b"])))

        def grad_fn(p):
            g = p.zeros_like()
            a = np.tanh(p["x"] @ p["l.W"] + p["l.b"])
            g["x"] = dense_backward(p["x"], w * (1.0 - a * a), p["l.W"], g["l.W"], g["l.b"])
            return g

        report = gradient_check(params, loss_fn, grad_fn, tolerance=1e-4)
        assert report.passed, report.max_rel_error


def naive_adam_step(theta, g, m, v, t, lr, b1, b2, eps):
    """Direct transcription of the Adam update equations."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta, m, v


class TestAdam:
    def _scalar_setup(self, theta0=1.0, lr=1e-4):
        params = ParamSet({"p.W": np.array([[theta0]]), "p.b": np.zeros(1)})
        state = AdamState.for_params(params, lr=lr)
        return params, state

    def test_zero_gradient_is_noop_but_counts(self):
        params, state = self._scalar_setup()
        before = params.copy()
        adam_step(params, params.zeros_like(), state)
        assert params.equal_bits(before)
        assert state.step == 1
        assert params.version == 1

    def test_first_step_matches_direct_transcription(self):
        params, state = self._scalar_setup()
        grads = params.zeros_like()
        grads["p.W"] = np.array([[1.0]])
        adam_step(params, grads, state)
        expected, _, _ = naive_adam_step(1.0, 1.0, 0.0, 0.0, 1,
                                         1e-4, 0.9, 0.999, 1e-8)
        assert np.isclose(params["p.W"][0, 0], expected, rtol=0, atol=1e-15)
        # at step 1 the bias-corrected update is essentially lr
        assert np.isclose(1.0 - params["p.W"][0, 0], 1e-4, rtol=1e-6)

    def test_two_identical_gradients_match_transcription_oracle(self):
        # Note: with bias correction, two identical gradients produce equal
        # step sizes (m-hat and sqrt(v-hat) both equal |g|); the oracle is
        # the direct transcription of the update equations at t=1 and t=2.
        params, state = self._scalar_setup()
        grads = params.zeros_like()
        grads["p.W"] = np.array([[2.0]])
        theta, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            adam_step(params, grads, state)
            theta, m, v = naive_adam_step(theta, 2.0, m, v, t, 1e-4, 0.9, 0.999, 1e-8)
            assert np.isclose(params["p.W"][0, 0], theta, atol=1e-15)
        assert state.step == 2

    def test_uncorrected_first_step_would_be_tiny(self):
        # The raw first-moment estimate after one step is (1-b1)*g; bias
        # correction is what makes the realized first step close to lr.
        params, state = self._scalar_setup()
        grads = params.zeros_like()
        grads["p.W"] = np.array([[1.0]])
        adam_step(params, grads, state)
        assert np.isclose(state.m["p.W"][0, 0], 0.1)
        assert np.isclose(1.0 - params["p.W"][0, 0], 1e-4, rtol=1e-6)

    def test_shape_mismatch_raises(self):
        params, state = self._scalar_setup()
        grads = ParamSet({"p.W": np.zeros((2, 2)), "p.b": np.zeros(1)})
        with pytest.raises(ShapeError):
            adam_step(params, grads, state)


class TestGradientCheck:
    def test_quadratic_is_exact_up_to_rounding(self):
        params = ParamSet({"q.W": np.array([[3.0]]), "q.b": np.zeros(1)})
        loss_fn = lambda p: float(p["q.W"][0, 0] ** 2)
        def grad_fn(p):
            g = p.zeros_like()
            g["q.W"] = np.array([[2.0 * p["q.W"][0, 0]]])
            return g
        report = gradient_check(params, loss_fn, grad_fn, tolerance=1e-8)
        assert report.passed
        assert report.max_rel_error < 1e-8

    def test_corrupted_backward_fails(self):
        rng = np.random.default_rng(5)
        cfg, params = small_net(rng, hidden=(4,))
        obs = rng.normal(size=(3, 5))
        actions, adv, ret, y = [0, 2, 1], rng.normal(size=3), rng.normal(size=3), rng.random(3)
        w = LossWeights()

        def loss_fn(p):
            return rollout_loss(p, cfg, obs, actions, adv, ret, y, w)

        def bad_grad_fn(p):
            g, _ = model_backward(p, cfg, obs, actions, adv, ret, y, w)
            g["value.b"] = -g["value.b"]  # one sign flip
            return g

        report = gradient_check(params, loss_fn, bad_grad_fn, tolerance=1e-4)
        assert not report.passed
        assert isinstance(report, GradCheckReport)


class TestSerialization:
    def test_paramset_roundtrip_bit_exact(self):
        rng = np.random.default_rng(9)
        _, params = small_net(rng)
        params.version = 42
        restored = ParamSet.from_bytes(params.to_bytes())
        assert restored.version == 42
        assert restored.equal_bits(params)

    def test_equal_paramsets_serialize_identically(self):
        rng = np.random.default_rng(9)
        _, a = small_net(rng)
        b = a.copy()
        assert a.to_bytes() == b.to_bytes()

    def test_adamstate_roundtrip_bit_exact(self):
        rng = np.random.default_rng(4)
        _, params = small_net(rng)
        state = AdamState.for_params(params, lr=3e-4)
        grads = params.zeros_like()
        for k in grads:
            grads[k] = rng.normal(size=grads[k].shape)
        adam_step(params, grads, state)
        restored = AdamState.from_bytes(state.to_bytes())
        assert restored.step == state.step
        assert restored.lr == state.lr
        assert restored.m.equal_bits(state.m)
        assert restored.v.equal_bits(state.v)

    def test_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        _, params = small_net(rng)
        path = tmp_path / "ckpt.bin"
        params.save(path)
        assert ParamSet.load(path).equal_bits(params)


class TestClip:
    def test_small_gradients_untouched(self):
        g = ParamSet({"a.W": np.array([[3.0]]), "a.b": np.array([4.0])})
        norm = clip_global_norm(g, 40.0)
        assert norm == 5.0
        assert g["a.W"][0, 0] == 3.0

    def test_large_gradients_scaled_to_max_norm(self):
        g = ParamSet({"a.W": np.array([[30.0]]), "a.b": np.array([40.0])})
        clip_global_norm(g, 5.0)
        assert np.isclose(g.global_norm(), 5.0)

    def test_zero_max_norm_turns_clipping_off(self):
        g = ParamSet({"a.W": np.array([[30.0]]), "a.b": np.array([40.0])})
        assert clip_global_norm(g, 0.0) == 50.0
        assert g["a.W"][0, 0] == 30.0 and g["a.b"][0] == 40.0

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.integers(1, 64), elements=st.floats(-1e3, 1e3)),
           st.lists(st.integers(1, 63), max_size=6), st.lists(st.integers(1, 63), max_size=6))
    def test_global_norm_depends_only_on_the_flat_values(self, x, cuts_a, cuts_b):
        # Up to 64 values the sum stays within a few ulps even when every
        # value is the same, which is the worst case for a running sum.
        def split(cuts):
            bounds = [0, *sorted({c for c in cuts if c < x.size}), x.size]
            return ParamSet({f"t{i}": x[lo:hi]
                             for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))})

        norm = split(cuts_a).global_norm()
        assert norm.hex() == split(cuts_b).global_norm().hex()
        exact = math.sqrt(math.fsum(x * x))
        assert abs(norm - exact) <= 8 * math.ulp(exact)


def per_tensor_adam_step(params, grads, m, v, t, lr, b1, b2, eps):
    """The per-tensor Adam loop that preceded the flat buffer, on dicts of
    arrays: the reference the flat update must match bit for bit."""
    for k in params:
        g = grads[k]
        m[k] = b1 * m[k] + (1.0 - b1) * g
        v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
        m_hat = m[k] / (1.0 - b1 ** t)
        v_hat = v[k] / (1.0 - b2 ** t)
        params[k] = params[k] - lr * m_hat / (np.sqrt(v_hat) + eps)


def per_tensor_to_bytes(tensors, extra):
    """The per-tensor checkpoint writer that preceded the flat buffer."""
    buf = io.BytesIO()
    header = ["A3CTP-TENSORS v1"]
    for k, val in extra.items():
        header.append(f"field {k} {val}")
    header.append(f"tensors {len(tensors)}")
    for name, t in tensors.items():
        dims = "x".join(str(d) for d in t.shape) if t.shape else "scalar"
        header.append(f"tensor {name} {dims}")
    header.append("end-header")
    buf.write(("\n".join(header) + "\n").encode("ascii"))
    for t in tensors.values():
        buf.write(np.ascontiguousarray(t, dtype="<f8").tobytes())
    return buf.getvalue()


class TestFlatBuffer:
    def test_views_share_the_buffer_in_insertion_order(self):
        rng = np.random.default_rng(0)
        _, params = small_net(rng)
        assert params.flat.flags["C_CONTIGUOUS"] and params.flat.dtype == np.float64
        assert params.flat.size == sum(params[k].size for k in params)
        offset = 0
        for k in params:
            t = params[k]
            assert np.shares_memory(t, params.flat)
            assert np.array_equal(t.ravel(), params.flat[offset:offset + t.size])
            offset += t.size
        params.flat[:] = 3.0
        assert all(np.all(params[k] == 3.0) for k in params)

    def test_copy_and_zeros_like_are_independent(self):
        rng = np.random.default_rng(1)
        _, params = small_net(rng)
        params.version = 7
        before = params.flat.copy()
        dup, zeros = params.copy(), params.zeros_like()
        assert dup.version == 7 and zeros.version == 0
        assert dup.names() == zeros.names() == params.names()
        assert not np.shares_memory(dup.flat, params.flat)
        assert not np.shares_memory(zeros.flat, params.flat)
        assert np.array_equal(dup.flat, before) and not zeros.flat.any()
        dup["trunk0.W"][:] = 5.0
        zeros.flat += 1.0
        assert np.array_equal(params.flat, before)
        params.flat[:] = -1.0
        assert not np.any(dup["trunk1.W"] == -1.0) and np.all(zeros.flat == 1.0)

    def test_tensors_mapping_is_read_only(self):
        _, params = small_net(np.random.default_rng(2))
        view = params["tp.b"]
        with pytest.raises(TypeError):
            params.tensors["tp.b"] = -view
        assert params["tp.b"] is view and np.shares_memory(view, params.flat)

    def test_setitem_existing_name_writes_in_place(self):
        params = ParamSet({"a.W": np.zeros((2, 3)), "a.b": np.zeros(3)})
        flat, view = params.flat, params["a.b"]
        params["a.b"] = np.array([1.0, 2.0, 3.0])
        assert params.flat is flat and params["a.b"] is view
        assert np.array_equal(flat, [0.0] * 6 + [1.0, 2.0, 3.0])
        with pytest.raises(ShapeError):
            params["a.b"] = np.zeros(4)

    def test_setitem_new_name_extends_the_layout(self):
        """It does not: the layout is fixed when the set is built, so a new
        name raises KeyError and leaves the buffer and its views as they were."""
        params = ParamSet({"a.W": np.ones((2, 2))})
        flat, view = params.flat, params["a.W"]
        with pytest.raises(KeyError):
            params["a.b"] = np.array([7.0, 8.0])
        assert params.names() == ["a.W"] and params.flat is flat and params["a.W"] is view
        assert np.array_equal(flat, np.ones(4))

    def test_adam_equals_per_tensor_reference_over_50_steps(self):
        rng = np.random.default_rng(12)
        _, params = small_net(rng)
        state = AdamState.for_params(params, lr=3e-3)
        ref_p = {k: params[k].copy() for k in params}
        ref_m = {k: np.zeros_like(params[k]) for k in params}
        ref_v = {k: np.zeros_like(params[k]) for k in params}
        for t in range(1, 51):
            grads = params.zeros_like()
            for k in grads:
                grads[k] = rng.normal(scale=10.0 ** rng.uniform(-6, 2), size=grads[k].shape)
            adam_step(params, grads, state)
            per_tensor_adam_step(ref_p, grads.tensors, ref_m, ref_v, t,
                                 3e-3, 0.9, 0.999, 1e-8)
            for k in params:
                assert np.array_equal(params[k], ref_p[k]), (t, k)
                assert np.array_equal(state.m[k], ref_m[k]), (t, k)
                assert np.array_equal(state.v[k], ref_v[k]), (t, k)
        assert state.step == 50 and params.version == 50

    def test_adam_rejects_state_of_another_layout(self):
        params = ParamSet({"p.W": np.ones((2, 2)), "p.b": np.zeros(2)})
        other = ParamSet({"p.b": np.zeros(2), "p.W": np.ones((2, 2))})
        with pytest.raises(ShapeError):
            adam_step(params, params.zeros_like(), AdamState.for_params(other))

    def test_to_bytes_equals_per_tensor_writer(self):
        rng = np.random.default_rng(8)
        _, params = small_net(rng)
        params.version = 31
        assert params.to_bytes() == per_tensor_to_bytes(params.tensors, {"version": "31"})
        state = AdamState.for_params(params, lr=2e-4)
        adam_step(params, params.copy(), state)
        tensors = {f"m:{k}": state.m[k] for k in params}
        tensors.update({f"v:{k}": state.v[k] for k in params})
        extra = {"step": "1", "lr": repr(2e-4), "beta1": repr(0.9),
                 "beta2": repr(0.999), "eps": repr(1e-8)}
        assert state.to_bytes() == per_tensor_to_bytes(tensors, extra)


names = st.from_regex(r"[a-z][a-z0-9_.:]{0,10}", fullmatch=True)
shapes = st.lists(st.integers(0, 4), max_size=3).map(tuple)  # () is a scalar
# Any non-empty ASCII name without whitespace, control characters included.
legal_names = st.text(st.characters(max_codepoint=127).filter(lambda ch: not ch.isspace()),
                      min_size=1, max_size=8)


@st.composite
def tensor_dicts(draw):
    keys = draw(st.lists(names, max_size=6, unique=True))
    return {k: draw(arrays(np.float64, draw(shapes),
                           elements=st.floats(allow_nan=False, width=64)))
            for k in keys}


class TestStrictParser:
    @settings(max_examples=60, deadline=None)
    @given(tensor_dicts(), st.integers(0, 2**62))
    def test_roundtrip_property(self, tensors, version):
        params = ParamSet(tensors, version=version)
        blob = params.to_bytes()
        assert blob == per_tensor_to_bytes(tensors, {"version": str(version)})
        restored = ParamSet.from_bytes(blob)
        assert restored.version == version
        assert restored.names() == list(tensors)
        for k, t in tensors.items():
            assert restored[k].shape == t.shape
            assert restored[k].tobytes() == t.tobytes()
        assert restored.to_bytes() == blob

    def _blob(self):
        params = ParamSet({"a.W": np.arange(6.0).reshape(2, 3), "a.b": np.ones(3),
                           "s": np.array(2.5)}, version=4)
        return params.to_bytes()

    def test_valid_v1_blob_reads(self):
        blob = self._blob()
        assert blob.startswith(b"A3CTP-TENSORS v1\nfield version 4\ntensors 3\n")
        assert ParamSet.from_bytes(blob)["s"].shape == ()

    def test_rejects_other_format_version(self):
        blob = self._blob().replace(b"A3CTP-TENSORS v1", b"A3CTP-TENSORS v2", 1)
        with pytest.raises(ValueError):
            ParamSet.from_bytes(blob)

    def test_rejects_trailing_bytes(self):
        with pytest.raises(ValueError):
            ParamSet.from_bytes(self._blob() + b"\x00" * 8)

    def test_rejects_count_that_disagrees_with_manifest(self):
        blob = self._blob().replace(b"tensors 3\n", b"tensors 2\n", 1)
        with pytest.raises(ValueError):
            ParamSet.from_bytes(blob)

    def test_rejects_missing_end_header(self):
        blob = self._blob().replace(b"end-header\n", b"", 1)
        with pytest.raises(ValueError):
            ParamSet.from_bytes(blob)

    @pytest.mark.parametrize("line", [b"tensor a.b", b"tensor a.b 3xq",
                                      b"tensor a.b 3 extra", b"tensor a.b -3"])
    def test_rejects_malformed_tensor_line(self, line):
        blob = self._blob().replace(b"tensor a.b 3", line, 1)
        with pytest.raises(ValueError):
            ParamSet.from_bytes(blob)

    def test_rejects_truncated_data(self):
        with pytest.raises(ValueError):
            ParamSet.from_bytes(self._blob()[:-8])

    @pytest.mark.parametrize("name", ["", "a b", "x\ny", "a\tb"],
                             ids=["empty", "space", "newline", "tab"])
    def test_rejects_unwritable_name(self, name):
        with pytest.raises(ValueError, match="whitespace"):
            ParamSet({name: np.zeros(1)})

    @pytest.mark.parametrize("name", [b"", b"a\tb"], ids=["empty", "tab"])
    def test_rejects_unwritable_name_in_manifest(self, name):
        blob = self._blob().replace(b"tensor a.b 3", b"tensor " + name + b" 3", 1)
        with pytest.raises(ValueError, match="whitespace"):
            ParamSet.from_bytes(blob)

    def test_rejects_non_ascii_name(self):
        # The ASCII header could not carry it: to_bytes would raise UnicodeEncodeError.
        with pytest.raises(ValueError, match="non-ASCII"):
            ParamSet({"\u00e9": np.zeros(1)})
        blob = self._blob().replace(b"tensor a.b 3", "tensor \u00e9 3".encode(), 1)
        with pytest.raises(ValueError):
            ParamSet.from_bytes(blob)

    def test_equal_bits_compares_bits(self):
        zero, nan = ParamSet({"a": np.array([0.0])}), ParamSet({"a": np.array([np.nan])})
        assert not zero.equal_bits(ParamSet({"a": np.array([-0.0])}))
        assert nan.equal_bits(nan.copy())
        assert not zero.equal_bits(ParamSet({"b": np.array([0.0])}))
        assert not zero.equal_bits(ParamSet({"a": np.array([[0.0]])}))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(legal_names, min_size=1, max_size=4, unique=True))
    def test_roundtrip_over_legal_names(self, keys):
        tensors = {k: np.full(2, float(i)) for i, k in enumerate(keys)}
        restored = ParamSet.from_bytes(ParamSet(tensors).to_bytes())
        assert restored.names() == keys
        assert restored.equal_bits(ParamSet(tensors))


ADAM_FIELDS = ("step", "lr", "beta1", "beta2", "eps")


class TestAdamStateParser:
    def _state(self):
        params = ParamSet({"a": np.arange(3.0), "b": np.ones((2, 2))})
        state = AdamState.for_params(params, lr=2e-4)
        adam_step(params, params.copy(), state)
        return state

    @settings(max_examples=60, deadline=None)
    @given(tensor_dicts(), st.integers(0, 2**62),
           st.floats(min_value=0.0, allow_infinity=False, width=64))
    def test_roundtrip_property(self, tensors, step, lr):
        m = ParamSet(tensors)
        v = ParamSet({k: -t for k, t in tensors.items()})
        state = AdamState(m=m, v=v, step=step, lr=lr)
        restored = AdamState.from_bytes(state.to_bytes())
        assert (restored.step, restored.lr) == (step, lr)
        assert (restored.beta1, restored.beta2, restored.eps) == (0.9, 0.999, 1e-8)
        assert restored.m.names() == restored.v.names() == list(tensors)
        assert restored.m.equal_bits(m) and restored.v.equal_bits(v)
        assert restored.to_bytes() == state.to_bytes()

    @pytest.mark.parametrize("field", ADAM_FIELDS)
    def test_rejects_missing_field(self, field):
        lines = self._state().to_bytes().split(b"\n")
        blob = b"\n".join(l for l in lines if not l.startswith(f"field {field} ".encode()))
        with pytest.raises(ValueError, match=field):
            AdamState.from_bytes(blob)

    def test_rejects_paramset_checkpoint(self):
        blob = ParamSet({"a": np.arange(3.0)}, version=5).to_bytes()
        with pytest.raises(ValueError, match="step"):
            AdamState.from_bytes(blob)

    def test_rejects_unprefixed_tensor(self):
        blob = self._state().to_bytes().replace(b"tensor m:a ", b"tensor xxa ", 1)
        with pytest.raises(ValueError, match="prefix"):
            AdamState.from_bytes(blob)

    def test_rejects_empty_name_after_prefix(self):
        blob = self._state().to_bytes()
        blob = blob.replace(b"tensor m:a ", b"tensor m: ", 1).replace(b"tensor v:a ", b"tensor v: ", 1)
        with pytest.raises(ValueError, match="empty"):
            AdamState.from_bytes(blob)

    @pytest.mark.parametrize("m,v", [
        ({"a": np.zeros(3)}, {"c": np.zeros(3)}),
        ({"a": np.zeros(3)}, {"a": np.zeros((3, 1))}),
        ({"a": np.zeros(3), "b": np.zeros(1)}, {"b": np.zeros(1), "a": np.zeros(3)}),
        ({"a": np.zeros(3)}, {}),
    ], ids=["names", "shapes", "order", "no-v"])
    def test_rejects_m_and_v_layouts_that_differ(self, m, v):
        tensors = {f"m:{k}": t for k, t in m.items()}
        tensors.update({f"v:{k}": t for k, t in v.items()})
        extra = {k: "1" for k in ADAM_FIELDS}
        with pytest.raises(ValueError, match="differ"):
            AdamState.from_bytes(per_tensor_to_bytes(tensors, extra))
