"""The three expert families.

Two frozen shared experts (structure / semantic priors as fixed random
affine+tanh maps, never updated), a bank of trainable FFN experts, and the
2D->D dimension-reduction projection that fuses attended tokens with their
cluster feature. Which bank experts a source owns is ``ComeModel.group_size``.

``init_ffn``/``ffn_forward``/``ffn_backward`` define the one two-layer tanh
FFN: every bank expert is one, under the parameter prefix ``expert.{i}``,
and so is the dense baseline's body, under ``dense``. A bank expert's
hidden width is ``EXPERT_HIDDEN_RATIO`` times the token width.

The frozen experts live outside the trainable ``params``: ``init_frozen``
returns read-only ``frozen.{kind}.{w,b}`` arrays, which the model keeps in
its ``frozen`` dict and saves in the checkpoint next to its parameters.
"""

from __future__ import annotations

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


# Hidden width of a bank expert per unit of token width.
EXPERT_HIDDEN_RATIO = 4


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


def dr_forward(attended: Array, cluster_feats: Array, params: dict):
    """Project [attended | cluster feature] (N, 2D) down to (N, D); returns
    (out, concat), and the backward reads ``concat``."""
    concat = np.concatenate([attended, cluster_feats], axis=1)
    out = concat @ params["dr.w"] + params["dr.b"]
    return out, concat


def dr_backward(grad_out: Array, concat: Array, params: dict):
    """Gradients for the projection, given the forward's ``concat``. The
    cluster branch is a constant, so the input gradient is formed for the
    attended half only, from the first D = ``grad_out.shape[1]`` (token-branch)
    rows of ``dr.w``; returns (d_attended, grads)."""
    grads = {
        "dr.w": concat.T @ grad_out,
        "dr.b": grad_out.sum(axis=0),
    }
    return grad_out @ params["dr.w"][: grad_out.shape[1]].T, grads


# ---------------------------------------------------------------------------
# routed mixture
# ---------------------------------------------------------------------------


def expert_mixture_forward(bank_params: dict, plan, inputs: Array, combine: Array):
    """Capacity-masked Top-K combination: out[i] = sum_j c[i,j] * E_j(x_i)
    over the admitted (token, expert) pairs of ``plan``, with weights c =
    ``combine`` (N, n_experts) and experts ``expert.{j}`` read from
    ``bank_params``. Dropped pairs contribute zero. Returns (out, saved):
    (expert id, token indices, gathered inputs, hidden, outputs) for each
    expert that got tokens, in ascending expert order.
    """
    out = np.zeros_like(inputs)
    saved = []
    for j, tok in enumerate(plan.expert_tokens):
        if tok.size == 0:
            continue
        x = inputs[tok]
        y, h = ffn_forward(bank_params, f"expert.{j}", x)
        out[tok] += combine[tok, j][:, None] * y
        saved.append((j, tok, x, h, y))
    return out, saved


def expert_mixture_backward(grad_out: Array, saved: list, combine: Array, bank_params: dict):
    """Backward of the admitted mixture, given the forward's ``saved``
    entries and ``combine`` weights.

    The selection and admission masks are constants of the backward pass.
    Consumes ``saved``: each expert's entry is popped once its backward is
    done, in ascending expert order, the order of the top-2 tokens'
    ``d_inputs`` scatter-adds. Returns (d_inputs, d_combine, parameter
    grads); d_combine is nonzero only at admitted (token, expert) entries.
    """
    d_inputs = np.zeros_like(grad_out)
    d_combine = np.zeros_like(combine)
    grads = {}
    while saved:
        j, tok, x, h, y = saved.pop(0)
        up = grad_out[tok]
        w = combine[tok, j][:, None]
        d_combine[tok, j] = np.sum(up * y, axis=1)
        d_x, expert_grads = ffn_backward(bank_params, f"expert.{j}", x, h, w * up)
        grads.update(expert_grads)
        d_inputs[tok] += d_x
    return d_inputs, d_combine, grads
