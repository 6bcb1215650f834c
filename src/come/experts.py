"""The three expert families.

Two frozen shared experts (structure / semantic priors as fixed random
affine+tanh maps, never updated), a bank of trainable FFN experts, and the
2D->D dimension-reduction projection that fuses attended tokens with their
cluster feature. Which bank experts a source owns is ``ComeModel.group_size``.

``init_ffn``/``ffn_forward``/``ffn_backward`` define the one two-layer tanh
FFN: every bank expert is one, under the parameter prefix ``expert.{i}``,
and so is the dense baseline's body, under ``dense``.

The frozen experts live outside the trainable ``params``: ``init_frozen``
returns read-only ``frozen.{kind}.{w,b}`` arrays, which the model keeps in
its ``frozen`` dict and saves in the checkpoint next to its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray


# ---------------------------------------------------------------------------
# frozen shared experts
# ---------------------------------------------------------------------------


# Weight scale of the frozen maps: it keeps typical pre-activations in the
# informative (non-saturated) range of tanh for the expected input size.
FROZEN_SCALE = 0.3


def init_frozen(kind: str, width: int, rng: np.random.Generator) -> dict:
    """A fixed affine + tanh map as read-only ``frozen.{kind}.{w,b}`` (w drawn
    before b)."""
    frozen = {
        f"frozen.{kind}.w": rng.normal(scale=FROZEN_SCALE / np.sqrt(width), size=(width, width)),
        f"frozen.{kind}.b": rng.normal(scale=0.1, size=width),
    }
    for arr in frozen.values():
        arr.setflags(write=False)
    return frozen


def frozen_forward(frozen: dict, kind: str, tokens: Array) -> Array:
    """tanh(X W + b) applied row-wise with the ``kind`` map of ``frozen``."""
    out = tokens @ frozen[f"frozen.{kind}.w"]
    out += frozen[f"frozen.{kind}.b"]
    return np.tanh(out, out=out)


# ---------------------------------------------------------------------------
# source-specific expert bank
# ---------------------------------------------------------------------------


def init_ffn(prefix: str, width: int, hidden: int, rng: np.random.Generator) -> dict:
    """A two-layer tanh FFN as ``{prefix}.{w1,b1,w2,b2}``, with scaled-uniform
    fan-in init (w1 drawn before w2)."""
    lim1 = 1.0 / np.sqrt(width)
    lim2 = 1.0 / np.sqrt(hidden)
    return {
        f"{prefix}.w1": rng.uniform(-lim1, lim1, size=(width, hidden)),
        f"{prefix}.b1": np.zeros(hidden),
        f"{prefix}.w2": rng.uniform(-lim2, lim2, size=(hidden, width)),
        f"{prefix}.b2": np.zeros(width),
    }


def ffn_forward(params: dict, prefix: str, x: Array):
    """tanh(x W1 + b1) W2 + b2 on a row block; returns (output, hidden)."""
    h = x @ params[f"{prefix}.w1"]
    h += params[f"{prefix}.b1"]
    np.tanh(h, out=h)
    y = h @ params[f"{prefix}.w2"]
    y += params[f"{prefix}.b2"]
    return y, h


def ffn_backward(params: dict, prefix: str, x: Array, h: Array, d_y: Array):
    """Backward of ``ffn_forward`` given its input, hidden activations and
    the output gradient; returns (d_x, parameter grads)."""
    slope = h * h  # tanh' = 1 - h^2
    np.subtract(1.0, slope, out=slope)
    d_pre = d_y @ params[f"{prefix}.w2"].T
    d_pre *= slope
    grads = {
        f"{prefix}.w2": h.T @ d_y,
        f"{prefix}.b2": d_y.sum(axis=0),
        f"{prefix}.w1": x.T @ d_pre,
        f"{prefix}.b1": d_pre.sum(axis=0),
    }
    return d_pre @ params[f"{prefix}.w1"].T, grads


def init_expert_bank(n_experts: int, width: int, hidden: int,
                     rng: np.random.Generator) -> dict:
    """n_experts FFNs as ``expert.{i}.{w1,b1,w2,b2}``."""
    params = {}
    for i in range(n_experts):
        params.update(init_ffn(f"expert.{i}", width, hidden, rng))
    return params


# ---------------------------------------------------------------------------
# dimension reduction (token || cluster feature -> width D)
# ---------------------------------------------------------------------------


def init_dim_reduction(width: int) -> dict:
    """Token-branch block = identity, cluster-branch block = zeros, zero bias.

    At this init the projection passes attended tokens through unchanged, so
    a run without clustering is the exact step-0 special case.
    """
    w = np.zeros((2 * width, width))
    w[:width] = np.eye(width)
    return {"dr.w": w, "dr.b": np.zeros(width)}


@dataclass
class DimReductionCache:
    concat: Array  # (N, 2D)
    width: int


def dr_forward(attended: Array, cluster_feats: Array, params: dict):
    """Project [attended | cluster feature] (N, 2D) down to (N, D)."""
    concat = np.concatenate([attended, cluster_feats], axis=1)
    out = concat @ params["dr.w"] + params["dr.b"]
    return out, DimReductionCache(concat=concat, width=attended.shape[1])


def dr_backward(grad_out: Array, cache: DimReductionCache, params: dict):
    """Gradients for the projection. The cluster branch is a constant, so the
    input gradient is formed for the attended half only, from the
    token-branch rows of ``dr.w``; returns (d_attended, grads)."""
    g = np.asarray(grad_out, dtype=np.float64)
    grads = {
        "dr.w": cache.concat.T @ g,
        "dr.b": g.sum(axis=0),
    }
    return g @ params["dr.w"][: cache.width].T, grads


# ---------------------------------------------------------------------------
# routed mixture
# ---------------------------------------------------------------------------


@dataclass
class MixtureCache:
    inputs: Array  # (N, D) expert inputs
    gates: Array  # (N, n_experts) full gate matrix
    per_expert: list  # (expert id, token indices, gathered inputs, hidden, outputs)


def expert_mixture_forward(bank_params: dict, plan, inputs: Array, gates: Array):
    """Capacity-masked Top-K combination: out[i] = sum_j g[i,j] * E_j(x_i)
    over the admitted (token, expert) pairs of ``plan``, whose experts
    ``expert.{j}`` are read from ``bank_params``. Dropped pairs contribute
    zero.
    """
    out = np.zeros_like(inputs)
    per_expert = []
    for j, tok in enumerate(plan.expert_tokens):
        if tok.size == 0:
            continue
        x = inputs[tok]
        y, h = ffn_forward(bank_params, f"expert.{j}", x)
        out[tok] += gates[tok, j][:, None] * y
        per_expert.append((j, tok, x, h, y))
    return out, MixtureCache(inputs=inputs, gates=gates, per_expert=per_expert)


def expert_mixture_backward(grad_out: Array, cache: MixtureCache, bank_params: dict):
    """Backward of the admitted mixture.

    The selection and admission masks are constants of the backward pass.
    Returns (d_inputs, d_gates, parameter grads); d_gates is nonzero only at
    admitted (token, expert) entries.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    d_inputs = np.zeros_like(cache.inputs)
    d_gates = np.zeros_like(cache.gates)
    grads = {}
    for j, tok, x, h, y in cache.per_expert:
        up = g[tok]
        w = cache.gates[tok, j][:, None]
        d_gates[tok, j] = np.sum(up * y, axis=1)
        d_x, expert_grads = ffn_backward(bank_params, f"expert.{j}", x, h, w * up)
        grads.update(expert_grads)
        d_inputs[tok] += d_x
    return d_inputs, d_gates, grads
