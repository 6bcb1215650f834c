import numpy as np
import pytest

from come.attention import attention_backward, attention_forward, init_attention
from come.numerics import grad_check


def _params(width=8, heads=2, seed=0):
    return init_attention(width, heads, np.random.default_rng(seed))


def _naive_forward(x, params, h):
    # O(T^2) per-head double loop; the oracle for the batched implementation
    b, t, d = x.shape
    dh = d // h
    out = np.zeros_like(x)
    for bi in range(b):
        merged = np.zeros((t, d))
        for hi in range(h):
            wq = params["attn.wq"][:, hi * dh : (hi + 1) * dh]
            wk = params["attn.wk"][:, hi * dh : (hi + 1) * dh]
            wv = params["attn.wv"][:, hi * dh : (hi + 1) * dh]
            q = x[bi] @ wq
            k = x[bi] @ wk
            v = x[bi] @ wv
            for ti in range(t):
                scores = np.array([q[ti] @ k[tj] / np.sqrt(dh) for tj in range(t)])
                scores -= scores.max()
                w = np.exp(scores)
                w /= w.sum()
                merged[ti, hi * dh : (hi + 1) * dh] = sum(w[tj] * v[tj] for tj in range(t))
        out[bi] = merged @ params["attn.wo"]
    return out


def test_init_draws_the_four_projections_in_order():
    params = _params(width=8, heads=2, seed=0)
    rng = np.random.default_rng(0)
    assert list(params) == ["attn.wq", "attn.wk", "attn.wv", "attn.wo"]
    for name in params:
        expected = rng.normal(scale=1.0 / np.sqrt(8), size=(8, 8))
        np.testing.assert_array_equal(params[name], expected)


def test_forward_rejects_width_mismatch():
    params = _params(width=8)
    with pytest.raises(ValueError, match="expected"):
        attention_forward(np.zeros((1, 3, 6)), params, 2)


def test_single_token_reduces_to_value_projection():
    params = _params()
    x = np.random.default_rng(1).normal(size=(1, 1, 8))
    out, cache = attention_forward(x, params, 2)
    np.testing.assert_allclose(
        out[0, 0], (x[0, 0] @ params["attn.wv"]) @ params["attn.wo"], atol=1e-14
    )
    np.testing.assert_allclose(cache.probs, 1.0, atol=0)


def test_identical_tokens_get_identical_outputs():
    params = _params()
    row = np.random.default_rng(2).normal(size=8)
    x = np.stack([row, row])[None, :, :]
    out, _ = attention_forward(x, params, 2)
    np.testing.assert_allclose(out[0, 0], out[0, 1], atol=1e-14)


def test_matches_naive_reference():
    params = _params(width=8, heads=4, seed=3)
    x = np.random.default_rng(4).normal(size=(2, 8, 8))
    out, _ = attention_forward(x, params, 4)
    np.testing.assert_allclose(out, _naive_forward(x, params, 4), atol=1e-10)


def test_attention_rows_are_stochastic():
    params = _params()
    x = np.random.default_rng(5).normal(size=(3, 6, 8))
    _, cache = attention_forward(x, params, 2)
    np.testing.assert_allclose(cache.probs.sum(axis=-1), 1.0, atol=1e-12)


def test_permutation_equivariance():
    params = _params(width=8, heads=2, seed=6)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 7, 8))
    perm = rng.permutation(7)
    out, _ = attention_forward(x, params, 2)
    out_p, _ = attention_forward(x[:, perm, :], params, 2)
    np.testing.assert_allclose(out_p, out[:, perm, :], atol=1e-12, rtol=0)


def test_backward_zero_upstream_gives_zero_grads():
    params = _params()
    x = np.random.default_rng(8).normal(size=(1, 4, 8))
    out, cache = attention_forward(x, params, 2)
    grads = attention_backward(np.zeros_like(out), cache, params, 2)
    assert all(np.all(g == 0) for g in grads.values())


def test_single_token_backward_matches_hand_chain():
    # with one token the attention weight is constantly 1, so the block is
    # the linear chain x -> x @ wv @ wo and the score path carries no grad
    params = _params(seed=10)
    x = np.random.default_rng(11).normal(size=(1, 1, 8))
    out, cache = attention_forward(x, params, 2)
    g = np.random.default_rng(12).normal(size=out.shape)
    grads = attention_backward(g, cache, params, 2)
    np.testing.assert_allclose(
        grads["attn.wv"], np.outer(x[0, 0], g[0, 0] @ params["attn.wo"].T), atol=1e-13
    )
    np.testing.assert_allclose(grads["attn.wq"], 0.0, atol=1e-13)
    np.testing.assert_allclose(grads["attn.wk"], 0.0, atol=1e-13)


def test_backward_passes_grad_check():
    width, heads = 6, 2
    params = _params(width=width, heads=heads, seed=13)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(1, 4, width))
    proj = rng.normal(size=(1, 4, width))  # fixed readout to a scalar

    names = ["attn.wq", "attn.wk", "attn.wv", "attn.wo"]

    def fn(theta):
        mats = theta.reshape(4, width, width)
        p = dict(zip(names, mats))
        out, cache = attention_forward(x, p, heads)
        val = float(np.sum(out * proj))
        grads = attention_backward(proj, cache, p, heads)
        flat = np.concatenate([grads[n].ravel() for n in names])
        return val, flat

    theta0 = np.concatenate([params[n].ravel() for n in names])
    assert grad_check(fn, theta0, h=1e-5).max_rel_error < 1e-4

