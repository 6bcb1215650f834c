"""The step's kernels against the forms they replaced, bit for bit.

Each ``_ref_*`` function below is an earlier form of a kernel, kept as the
oracle: attention with the fresh-array softmax and the token gradient it
used to build, the full-width dimension-reduction input gradient, the FFN
and frozen priors without in-place writes, and traceability's per-source
loop over the (n_sources, n_experts) ownership mask it once read. The
current kernels must give exactly the same arrays
(``np.array_equal``) on a real forward at the default routed shape (B=8,
D=32, top-1) and at the wide one (B=64, D=64, top-2); the pinned runs of
``test_pin.py`` cover D=32 only.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from come.attention import _merge_heads, _split_heads, attention_backward, attention_forward
from come.config import RunConfig, apply_overrides
from come.datagen import TokenBatch
from come.experts import dr_backward, ffn_backward, ffn_forward, frozen_forward
from come.losses import GROUP_MASS_EPS, traceability_loss
from come.model import ComeModel

SHAPES = {
    "routed-small": (),
    "routed-wide": ("training.batch_size=64", "data.width=64", "router.top_k=2"),
}


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


def _ref_softmax(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _ref_softmax_backward(probs, grad_out, axis=-1):
    inner = np.sum(grad_out * probs, axis=axis, keepdims=True)
    return probs * (grad_out - inner)


def _ref_attention_forward(x, params, heads):
    dh = x.shape[2] // heads
    q = _split_heads(x @ params["attn.wq"], heads)
    k = _split_heads(x @ params["attn.wk"], heads)
    v = _split_heads(x @ params["attn.wv"], heads)
    probs = _ref_softmax(q @ k.transpose(0, 1, 3, 2) / np.sqrt(dh), axis=-1)
    return _merge_heads(probs @ v) @ params["attn.wo"], probs


def _ref_attention_backward(grad_out, cache, params, heads):
    width = cache.tokens.shape[2]
    dh = width // heads
    d_wo = cache.merged.reshape(-1, width).T @ grad_out.reshape(-1, width)
    d_headed = _split_heads(grad_out @ params["attn.wo"].T, heads)
    d_probs = d_headed @ cache.v.transpose(0, 1, 3, 2)
    d_v = cache.probs.transpose(0, 1, 3, 2) @ d_headed
    d_scores = _ref_softmax_backward(cache.probs, d_probs, axis=-1) / np.sqrt(dh)
    d_q = d_scores @ cache.k
    d_k = d_scores.transpose(0, 1, 3, 2) @ cache.q
    d_qf, d_kf, d_vf = _merge_heads(d_q), _merge_heads(d_k), _merge_heads(d_v)
    x_t = cache.tokens.reshape(-1, width).T
    grads = {
        "attn.wq": x_t @ d_qf.reshape(-1, width),
        "attn.wk": x_t @ d_kf.reshape(-1, width),
        "attn.wv": x_t @ d_vf.reshape(-1, width),
        "attn.wo": d_wo,
    }
    d_tokens = (d_qf @ params["attn.wq"].T + d_kf @ params["attn.wk"].T
                + d_vf @ params["attn.wv"].T)
    return d_tokens, grads


def _ref_dr_backward(grad_out, cache, params):
    g = np.asarray(grad_out, dtype=np.float64)
    grads = {"dr.w": cache.concat.T @ g, "dr.b": g.sum(axis=0)}
    return (g @ params["dr.w"].T)[:, : cache.width], grads


def _ref_ffn_forward(params, prefix, x):
    h = np.tanh(x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"])
    return h @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"], h


def _ref_ffn_backward(params, prefix, x, h, d_y):
    d_pre = (d_y @ params[f"{prefix}.w2"].T) * (1.0 - h * h)
    grads = {
        f"{prefix}.w2": h.T @ d_y,
        f"{prefix}.b2": d_y.sum(axis=0),
        f"{prefix}.w1": x.T @ d_pre,
        f"{prefix}.b1": d_pre.sum(axis=0),
    }
    return d_pre @ params[f"{prefix}.w1"].T, grads


def _ref_frozen_forward(frozen, kind, tokens):
    return np.tanh(tokens @ frozen[f"frozen.{kind}.w"] + frozen[f"frozen.{kind}.b"])


def expert_group_map(n_experts, n_sources):
    """The ownership rule as the (n_sources, n_experts) bool mask it once
    was: source m owns experts [m * per, (m + 1) * per) with per =
    n_experts // n_sources, and the remainder experts are unowned."""
    per = n_experts // n_sources
    mask = np.zeros((n_sources, n_experts), dtype=bool)
    for m in range(n_sources):
        mask[m, m * per : (m + 1) * per] = True
    return mask


def _ref_traceability(gates, token_sources, owners):
    scale = 1.0 / gates.shape[0]
    d_gates = np.zeros_like(gates)
    total = 0.0
    clamped = 0
    for src in np.unique(token_sources):
        group = np.flatnonzero(owners[src])
        rows = np.flatnonzero(token_sources == src)
        mass = gates[np.ix_(rows, group)].sum(axis=1)
        low = mass < GROUP_MASS_EPS
        clamped += int(np.count_nonzero(low))
        safe = np.maximum(mass, GROUP_MASS_EPS)
        total += float(-np.log(safe).sum())
        inv = np.where(low, 0.0, -1.0 / safe)
        d_gates[np.ix_(rows, group)] = (inv * scale)[:, None]
    return total * scale, d_gates, clamped


# ---------------------------------------------------------------------------
# one real forward per shape
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _forward(shape):
    cfg = apply_overrides(RunConfig(), list(SHAPES[shape])).validate()
    model = ComeModel.build(cfg)
    rng = np.random.default_rng(13)
    b, t, d = cfg.training.batch_size, cfg.data.tokens_per_sample, cfg.data.width
    batch = TokenBatch(
        tokens=rng.normal(size=(b, t, d)),
        sources=rng.integers(0, cfg.data.n_sources, size=b),
        labels=rng.integers(0, cfg.data.n_classes, size=b),
    )
    state = model.forward(batch, cluster_rng=np.random.default_rng(0))
    return model, state, rng


def _assert_dicts_equal(got, want):
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


shapes = pytest.mark.parametrize("shape", sorted(SHAPES))


@shapes
def test_attention_matches_reference(shape):
    model, state, rng = _forward(shape)
    heads = model.cfg.model.heads
    tokens = state.batch.tokens
    out, cache = attention_forward(tokens, model.params, heads)
    ref_out, ref_probs = _ref_attention_forward(tokens, model.params, heads)
    assert np.array_equal(out, ref_out)
    assert np.array_equal(cache.probs, ref_probs)
    grad_out = rng.normal(size=out.shape)
    _, ref_grads = _ref_attention_backward(grad_out, cache, model.params, heads)
    _assert_dicts_equal(attention_backward(grad_out, cache, model.params, heads), ref_grads)


@shapes
def test_dr_backward_matches_reference(shape):
    model, state, rng = _forward(shape)
    cache = state.body.dr
    grad_out = rng.normal(size=(cache.concat.shape[0], cache.width))
    d_attended, grads = dr_backward(grad_out, cache, model.params)
    ref_attended, ref_grads = _ref_dr_backward(grad_out, cache, model.params)
    assert np.array_equal(d_attended, ref_attended)
    _assert_dicts_equal(grads, ref_grads)


@shapes
def test_ffn_matches_reference_on_every_routed_expert(shape):
    model, state, rng = _forward(shape)
    assert state.body.mix.per_expert
    for j, _, x, h, y in state.body.mix.per_expert:
        prefix = f"expert.{j}"
        ref_y, ref_h = _ref_ffn_forward(model.params, prefix, x)
        assert np.array_equal(y, ref_y) and np.array_equal(h, ref_h), prefix
        d_y = rng.normal(size=y.shape)
        d_x, grads = ffn_backward(model.params, prefix, x, h, d_y)
        ref_x, ref_grads = _ref_ffn_backward(model.params, prefix, x, h, d_y)
        assert np.array_equal(d_x, ref_x), prefix
        _assert_dicts_equal(grads, ref_grads)
        # the forward leaves its input alone
        y2, h2 = ffn_forward(model.params, prefix, x)
        assert np.array_equal(y2, y) and np.array_equal(h2, h)


@shapes
def test_frozen_forward_matches_reference(shape):
    model, state, _ = _forward(shape)
    for kind in ("structure", "semantic"):
        assert np.array_equal(frozen_forward(model.frozen, kind, state.batch.tokens),
                              _ref_frozen_forward(model.frozen, kind, state.batch.tokens))


@shapes
def test_traceability_matches_reference(shape):
    model, state, _ = _forward(shape)
    gates, sources = state.body.gate.gates, state.batch.token_sources
    value, d_gates, clamped = traceability_loss(gates, sources, model.group_size)
    owners = expert_group_map(model.cfg.model.n_experts, model.cfg.data.n_sources)
    ref_value, ref_d_gates, ref_clamped = _ref_traceability(gates, sources, owners)
    assert value == ref_value
    assert np.array_equal(d_gates, ref_d_gates)
    assert clamped == ref_clamped


@settings(max_examples=150, deadline=None)
@given(
    n_sources=st.integers(1, 6),
    per=st.integers(1, 4),
    remainder_share=st.floats(0.0, 0.999),
    n_tokens=st.integers(1, 40),
    data=st.data(),
)
def test_traceability_matches_reference_on_any_grouping(n_sources, per, remainder_share,
                                                        n_tokens, data):
    # remainder experts, groups of 1-4, sources missing from the batch and
    # tokens whose group mass is clamped
    n_experts = per * n_sources + int(remainder_share * n_sources)
    owners = expert_group_map(n_experts, n_sources)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    present = data.draw(
        st.lists(st.integers(0, n_sources - 1), min_size=1, unique=True), label="present")
    sources = rng.choice(present, size=n_tokens)
    gates = rng.dirichlet(np.ones(n_experts), size=n_tokens)
    starved = rng.random(n_tokens) < data.draw(st.floats(0.0, 1.0), label="starved share")
    for i in np.flatnonzero(starved):
        group = owners[sources[i]]
        gates[i, group] = rng.choice([0.0, GROUP_MASS_EPS * rng.random() / per])
    value, d_gates, clamped = traceability_loss(gates, sources, n_experts // n_sources)
    ref_value, ref_d_gates, ref_clamped = _ref_traceability(gates, sources, owners)
    assert value == ref_value
    assert np.array_equal(d_gates, ref_d_gates)
    assert clamped == ref_clamped
