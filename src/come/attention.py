"""Single multi-head self-attention block feeding clustering and routing.

Operates on unordered token sets: no positional encoding and no mask, so the
block is permutation-equivariant. Projections are bias-free; the D-wide
weight matrices hold the per-head projections as contiguous column blocks of
width D / heads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import require_finite, softmax, softmax_backward

Array = np.ndarray


@dataclass
class AttentionCache:
    tokens: Array  # (B, T, D)
    q: Array  # (B, h, T, dh)
    k: Array
    v: Array
    probs: Array  # (B, h, T, T) row-stochastic
    merged: Array  # (B, T, D) concatenated head outputs


def init_attention(width: int, heads: int, rng: np.random.Generator) -> dict:
    """The ``attn.{wq,wk,wv,wo}`` (D, D) projections, drawn in that order."""
    if width % heads != 0:
        raise ValueError(f"width {width} not divisible by heads {heads}")
    scale = 1.0 / np.sqrt(width)
    return {f"attn.{name}": rng.normal(scale=scale, size=(width, width))
            for name in ("wq", "wk", "wv", "wo")}


def _split_heads(x: Array, heads: int) -> Array:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Array) -> Array:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def attention_forward(tokens: Array, params: dict, heads: int):
    """Self-attention over each sample's token set with the ``attn.*``
    weights of ``params``.

    Returns (output (B, T, D), cache). As the first operation on a batch,
    it rejects non-finite tokens and width mismatches.
    """
    x = require_finite("attention tokens", tokens)
    width = params["attn.wq"].shape[0]
    if x.ndim != 3 or x.shape[2] != width:
        raise ValueError(f"attention: expected (B, T, {width}) tokens, got {x.shape}")
    dh = width // heads
    q = _split_heads(x @ params["attn.wq"], heads)
    k = _split_heads(x @ params["attn.wk"], heads)
    v = _split_heads(x @ params["attn.wv"], heads)
    probs = q @ k.transpose(0, 1, 3, 2)  # the scores, softmaxed in place
    probs /= np.sqrt(dh)
    softmax(probs, axis=-1, out=probs)
    merged = _merge_heads(probs @ v)
    out = merged @ params["attn.wo"]
    cache = AttentionCache(tokens=x, q=q, k=k, v=v, probs=probs, merged=merged)
    return out, cache


def attention_backward(grad_out: Array, cache: AttentionCache, params: dict, heads: int) -> dict:
    """Gradients of the attention output w.r.t. the ``attn.*`` weights, from
    the forward cache. Tokens are data, so no token gradient is formed.
    """
    width = cache.tokens.shape[2]
    dh = width // heads

    d_wo = cache.merged.reshape(-1, width).T @ grad_out.reshape(-1, width)
    d_merged = grad_out @ params["attn.wo"].T
    d_headed = _split_heads(d_merged, heads)

    d_scores = d_headed @ cache.v.transpose(0, 1, 3, 2)  # d_probs until the softmax
    d_v = cache.probs.transpose(0, 1, 3, 2) @ d_headed
    softmax_backward(cache.probs, d_scores, axis=-1, out=d_scores)
    d_scores /= np.sqrt(dh)
    d_q = d_scores @ cache.k
    d_k = d_scores.transpose(0, 1, 3, 2) @ cache.q

    x_t = cache.tokens.reshape(-1, width).T
    return {
        "attn.wq": x_t @ _merge_heads(d_q).reshape(-1, width),
        "attn.wk": x_t @ _merge_heads(d_k).reshape(-1, width),
        "attn.wv": x_t @ _merge_heads(d_v).reshape(-1, width),
        "attn.wo": d_wo,
    }
