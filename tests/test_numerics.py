import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from char2subword.numerics import (
    cosine_similarity,
    gelu,
    gelu_backward,
    layer_norm,
    layer_norm_backward,
    sinusoidal_pe,
    softmax_rows,
)
import reference
from reference import finite_diff_gradient


class TestSoftmaxRows:
    def test_single_element_row(self):
        assert softmax_rows(np.array([[5.0]]))[0, 0] == 1.0

    def test_symmetric_row(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_stabilized_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        m = rng.normal(scale=10, size=(20, 7))
        sums = softmax_rows(m).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestSoftmaxDownKeys:
    """softmax_rows(x, axis=-2) on (..., keys, queries) sums keys in order, so
    padded keys at -inf change no bit of the real ones; so does the default
    axis -1 on (..., queries, keys)."""

    @staticmethod
    def in_order(x):
        keys = [x[..., i, :] for i in range(x.shape[-2])]
        top = keys[0]
        for key in keys[1:]:
            top = np.maximum(top, key)
        e = [np.exp(key - top) for key in keys]
        total = e[0]
        for term in e[1:]:
            total = total + term
        return np.stack([term / total for term in e], axis=-2)

    # (3, 2, 17, 5) and (2, 2, 33, 4): more keys than numpy's 8-lane pairwise block
    @pytest.mark.parametrize("shape", [(1, 1), (2, 5), (3, 2, 9, 4), (2, 3, 29, 17), (64, 3),
                                       (3, 2, 17, 5), (2, 2, 33, 4)])
    def test_equals_in_order_loop_and_ignores_padded_keys(self, shape):
        rng = np.random.default_rng(sum(shape))
        x = 3.0 * rng.normal(size=shape)
        for axis in (-2, -1):  # keys down axis -2, then along the default, the last axis
            keys = x.swapaxes(axis, -2)  # as in_order takes them
            got = softmax_rows(x, axis=axis).swapaxes(axis, -2)
            assert got.tobytes() == self.in_order(keys).tobytes()
            for extra in (1, 7, 40):
                pad = np.full((*keys.shape[:-2], extra, keys.shape[-1]), -np.inf)
                padded = softmax_rows(np.concatenate([keys, pad], axis=-2).swapaxes(-2, axis),
                                      axis=axis).swapaxes(axis, -2)
                assert padded[..., :keys.shape[-2], :].tobytes() == got.tobytes()
                assert not padded[..., keys.shape[-2]:, :].any()

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (64, 3), (3, 2, 17, 5)])
    def test_never_shares_memory_with_its_input(self, shape):
        # axis 0 of a 2-D input is already leading and C-contiguous: the copy is
        # still made, or the in-place steps would overwrite the caller's array
        x = np.random.default_rng(6).normal(size=shape)
        before = x.copy()
        for axis in range(-x.ndim, x.ndim):
            out = softmax_rows(x, axis=axis)
            assert out.shape == x.shape
            assert not np.shares_memory(out, x)
            np.testing.assert_allclose(out.sum(axis=axis), 1.0, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(x, before)


class TestLayerNorm:
    def test_constant_vector_is_zeroed(self):
        out = layer_norm(np.full(5, 3.0), np.ones(5), np.zeros(5), eps=1e-5)[0]
        np.testing.assert_allclose(out, 0.0, atol=1e-6)

    def test_unit_variance_pair(self):
        out = layer_norm(np.array([1.0, -1.0]), np.ones(2), np.zeros(2), eps=1e-15)[0]
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-6)

    def test_normalizes_mean_and_variance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=64) * 5 + 2
        out = layer_norm(x, np.ones(64), np.zeros(64), eps=1e-12)[0]
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="layer_norm dims"):
            layer_norm(np.zeros(3), np.ones(4), np.zeros(3))

    def test_backward_matches_finite_diff(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=6)
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)
        up = rng.normal(size=6)
        _, d, sigma = layer_norm(x, gain, bias, 1e-5)
        gx, gg, gb = layer_norm_backward(d, sigma, gain, up)
        fd_x = finite_diff_gradient(lambda v: float(layer_norm(v, gain, bias, 1e-5)[0] @ up), x)
        fd_g = finite_diff_gradient(lambda v: float(layer_norm(x, v, bias, 1e-5)[0] @ up), gain)
        fd_b = finite_diff_gradient(lambda v: float(layer_norm(x, gain, v, 1e-5)[0] @ up), bias)
        np.testing.assert_allclose(gx, fd_x, atol=1e-8)
        np.testing.assert_allclose(gg, fd_g, atol=1e-8)
        np.testing.assert_allclose(gb, fd_b, atol=1e-8)


class TestGelu:
    def test_zero(self):
        assert gelu(0.0)[0] == 0.0

    def test_symmetry_identity(self):
        xs = np.linspace(-4, 4, 23)
        np.testing.assert_allclose(gelu(xs)[0] - gelu(-xs)[0], xs, atol=1e-14)

    def test_against_normal_cdf_oracle(self):
        assert float(gelu(2.0)[0]) == pytest.approx(2.0 * norm.cdf(2.0), abs=1e-14)

    def test_backward_matches_finite_diff(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=11)
        up = rng.normal(size=11)
        fd = finite_diff_gradient(lambda v: float(gelu(v)[0] @ up), x)
        np.testing.assert_allclose(gelu_backward(x, gelu(x)[1], up), fd, atol=1e-9)


class TestSameBytesAsReference:
    """layer_norm, gelu and their backward passes work in place and call numpy's
    reductions directly, yet give the bytes of reference.py's plain expressions;
    the backward passes, fed the terms their forward handed back, give the
    reference's bytes computed from x. softmax_rows, which also works in place,
    leaves its input alone too."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), max_size=2), width=st.integers(1, 768),
           scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2 ** 32 - 1))
    def test_byte_equal(self, lead, width, scale, seed):
        rng = np.random.default_rng(seed)
        x = scale * rng.normal(size=(*lead, width)) + rng.normal()
        gain, bias = rng.normal(size=width), rng.normal(size=width)
        up = rng.normal(size=x.shape)
        eps = float(rng.choice([1e-12, 1e-5, 1.0]))
        out, d, sigma = layer_norm(x, gain, bias, eps)
        g, cdf = gelu(x)
        pairs = [(out, reference.layer_norm(x, gain, bias, eps)),
                 *zip(layer_norm_backward(d, sigma, gain, up),
                      reference.layer_norm_backward(x, gain, eps, up)),
                 (g, reference.gelu(x)),
                 (gelu_backward(x, cdf, up), reference.gelu_backward(x, up))]
        for got, want in pairs:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_inputs_left_unchanged(self):
        x = np.random.default_rng(4).normal(size=(3, 5))
        before = x.copy()
        ln = layer_norm(x, np.ones(5), np.zeros(5))
        gl = gelu(x)
        outs = [softmax_rows(x), *gl, *ln, gelu_backward(x, gl[1], np.ones((3, 5))),
                *layer_norm_backward(ln[1], ln[2], np.ones(5), np.ones((3, 5)))]
        # no output, saved term included, shares memory with x or with another output
        for i, out in enumerate(outs):
            assert not np.shares_memory(out, x)
            assert not any(np.shares_memory(out, other) for other in outs[i + 1:])
        np.testing.assert_array_equal(x, before)
        # the backward passes leave the saved terms as they were
        np.testing.assert_array_equal(gl[1], gelu(x)[1])
        for got, want in zip(ln[1:], layer_norm(x, np.ones(5), np.zeros(5))[1:]):
            np.testing.assert_array_equal(got, want)


class TestCosineSimilarity:
    def test_self_is_one(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        v = np.array([1.0, 2.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_orthogonal_is_zero(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.zeros(3), np.ones(3))


class TestSinusoidalPE:
    def test_position_zero(self):
        pe = sinusoidal_pe(0, 8)
        np.testing.assert_array_equal(pe[0::2], 0.0)
        np.testing.assert_array_equal(pe[1::2], 1.0)

    def test_unit_scale_slot(self):
        assert sinusoidal_pe(1, 4)[0] == pytest.approx(np.sin(1.0))

    def test_range(self):
        for pos in (0, 1, 7, 100):
            pe = sinusoidal_pe(pos, 16)
            assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            sinusoidal_pe(0, 5)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_gradient(lambda t: float(t[0] ** 2), np.array([3.0]), h=1e-5)
        assert g[0] == pytest.approx(6.0, abs=1e-8)

    def test_linear_exact(self):
        g = finite_diff_gradient(lambda t: float(2.5 * t[0] - t[1]), np.array([1.0, 4.0]), h=0.1)
        np.testing.assert_allclose(g, [2.5, -1.0], atol=1e-10)

    def test_dict_params(self):
        params = {"a": np.array([2.0]), "b": np.array([[1.0, 1.0]])}
        g = finite_diff_gradient(lambda p: float(p["a"][0] * p["b"].sum()), params)
        assert g["a"][0] == pytest.approx(2.0, abs=1e-8)
        np.testing.assert_allclose(g["b"], 2.0, atol=1e-8)

    def test_h_positive_required(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda t: 0.0, np.zeros(1), h=0.0)
