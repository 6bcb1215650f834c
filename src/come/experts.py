"""The three expert families.

Two frozen shared experts (structure / semantic priors as fixed random
affine+tanh maps, never updated), a bank of trainable FFN experts, and the
2D->D dimension-reduction projection that fuses attended tokens with their
cluster feature. Which bank experts a source owns is ``ComeModel.group_size``.

``init_ffn`` defines the one two-layer tanh FFN: every bank expert is one,
under the parameter prefix ``expert.{i}``, and so is the dense baseline's
body, under ``dense``. A bank expert's hidden width is
``EXPERT_HIDDEN_RATIO`` times the token width.

The FFN is split at its nonlinearity, and both layers, each with its
backward, are shared by the bank and the dense body: ``ffn_hidden`` is the
tanh first layer and ``ffn_output`` the linear second layer. A bank expert
runs them back to back on every token (``ffn_forward``/``ffn_backward``).
The dense body mean-pools its hidden rows over each sample's tokens between
the two, which the linear second layer allows, so its second layer runs on
one row per sample. The bank experts do not pool: each token's expert
output is weighted by its gate before the pool, so an expert could pool only
per (expert, sample) segment, and at these sizes the segment sums cost about
as much as the second-layer GEMM they would save.

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


def ffn_hidden(params: dict, prefix: str, x: Array) -> Array:
    """The FFN's first layer, tanh(x W1 + b1), on a row block."""
    h = x @ params[f"{prefix}.w1"]
    h += params[f"{prefix}.b1"]
    return np.tanh(h, out=h)


def ffn_hidden_backward(params: dict, prefix: str, x: Array, h: Array, d_h: Array):
    """Backward of ``ffn_hidden`` given its input, its output ``h`` and the
    gradient w.r.t. ``h``; returns (d_x, {w1, b1} grads)."""
    d_pre = h * h
    np.subtract(1.0, d_pre, out=d_pre)  # tanh' = 1 - h^2
    d_pre *= d_h
    grads = {f"{prefix}.w1": x.T @ d_pre, f"{prefix}.b1": d_pre.sum(axis=0)}
    return d_pre @ params[f"{prefix}.w1"].T, grads


def ffn_output(params: dict, prefix: str, h: Array) -> Array:
    """The FFN's linear second layer, h W2 + b2, on a row block."""
    y = h @ params[f"{prefix}.w2"]
    y += params[f"{prefix}.b2"]
    return y


def ffn_output_backward(params: dict, prefix: str, h: Array, d_y: Array):
    """Backward of ``ffn_output`` given its input and output gradient;
    returns (d_h, {w2, b2} grads)."""
    grads = {f"{prefix}.w2": h.T @ d_y, f"{prefix}.b2": d_y.sum(axis=0)}
    return d_y @ params[f"{prefix}.w2"].T, grads


def ffn_forward(params: dict, prefix: str, x: Array):
    """tanh(x W1 + b1) W2 + b2 on a row block; returns (output, hidden)."""
    h = ffn_hidden(params, prefix, x)
    return ffn_output(params, prefix, h), h


def ffn_backward(params: dict, prefix: str, x: Array, h: Array, d_y: Array):
    """Backward of ``ffn_forward`` given its input, hidden activations and
    the output gradient; returns (d_x, parameter grads)."""
    d_h, grads = ffn_output_backward(params, prefix, h, d_y)
    d_x, first = ffn_hidden_backward(params, prefix, x, h, d_h)
    grads.update(first)
    return d_x, grads


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
