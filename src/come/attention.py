"""Single multi-head self-attention block feeding clustering and routing.

Operates on unordered token sets: no positional encoding and no mask, so the
block is permutation-equivariant. Projections are bias-free; the D-wide
weight matrices hold the per-head projections as contiguous column blocks of
width D / heads.

Q, K and V come from one GEMM: the tokens (B T, D) times the (D, 3D) packed
projection [wq | wk | wv], whose (B, T, 3D) product is read as (B, T, 3, h,
dh); q, k and v are strided views of its three slots, each with its heads as
(B, h, T, dh). The backward writes d_q, d_k and d_v into the same (B, T, 3,
h, dh) layout and forms the three weight gradients with one GEMM, tokens^T
(D, B T) times that (B T, 3D) buffer; the wq, wk and wv gradients are the
(D, D) column blocks of the (D, 3D) product, in that order. Each entry is the
same dot product, summed in the same order, as with three separate GEMMs.
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
    """The ``attn.{wq,wk,wv,wo}`` (D, D) projections, drawn in that order;
    ``RunConfig.validate`` checks that ``model.heads`` divides ``data.width``."""
    scale = 1.0 / np.sqrt(width)
    return {f"attn.{name}": rng.normal(scale=scale, size=(width, width))
            for name in ("wq", "wk", "wv", "wo")}


def _split_heads(x: Array, heads: int) -> Array:
    b, t, d = x.shape
    return x.reshape(b, t, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Array) -> Array:
    b, h, t, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, h * dh)


def _qkv_heads(packed: Array, heads: int):
    """The q, k and v (B, h, T, dh) views of a (B, T, 3D) packed array."""
    b, t, d3 = packed.shape
    slots = packed.reshape(b, t, 3, heads, d3 // (3 * heads)).transpose(2, 0, 3, 1, 4)
    return slots[0], slots[1], slots[2]


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
    w_qkv = np.concatenate([params["attn.wq"], params["attn.wk"], params["attn.wv"]], axis=1)
    q, k, v = _qkv_heads(x @ w_qkv, heads)
    probs = q @ k.transpose(0, 1, 3, 2)  # the scores, softmaxed in place
    probs /= np.sqrt(width // heads)
    softmax(probs, out=probs)
    merged = _merge_heads(probs @ v)
    out = merged @ params["attn.wo"]
    cache = AttentionCache(tokens=x, q=q, k=k, v=v, probs=probs, merged=merged)
    return out, cache


def attention_backward(grad_out: Array, cache: AttentionCache, params: dict, heads: int) -> dict:
    """Gradients of the attention output w.r.t. the ``attn.*`` weights, from
    the forward cache. Tokens are data, so no token gradient is formed.
    """
    b, t, width = cache.tokens.shape
    dh = width // heads

    d_wo = cache.merged.reshape(-1, width).T @ grad_out.reshape(-1, width)
    d_merged = grad_out @ params["attn.wo"].T
    d_headed = _split_heads(d_merged, heads)

    d_packed = np.empty((b, t, 3 * width))
    d_q, d_k, d_v = _qkv_heads(d_packed, heads)
    d_scores = d_headed @ cache.v.transpose(0, 1, 3, 2)  # d_probs until the softmax
    np.matmul(cache.probs.transpose(0, 1, 3, 2), d_headed, out=d_v)
    softmax_backward(cache.probs, d_scores, out=d_scores)
    d_scores /= np.sqrt(dh)
    np.matmul(d_scores, cache.k, out=d_q)
    np.matmul(d_scores.transpose(0, 1, 3, 2), cache.q, out=d_k)

    d_qkv = cache.tokens.reshape(-1, width).T @ d_packed.reshape(-1, 3 * width)
    return {
        "attn.wq": d_qkv[:, :width],
        "attn.wk": d_qkv[:, width : 2 * width],
        "attn.wv": d_qkv[:, 2 * width :],
        "attn.wo": d_wo,
    }
