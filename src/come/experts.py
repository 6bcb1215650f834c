"""The three expert families and their aggregation.

Two frozen shared experts (structure / semantic priors as seeded fixed
affine+tanh maps, never updated), a bank of trainable FFN experts with a
disjoint source->expert ownership mask, the 2D->D dimension-reduction
projection that fuses attended tokens with their cluster feature, and the
exact elementwise aggregation of the three feature streams.

``init_ffn``/``ffn_forward``/``ffn_backward`` define the one two-layer tanh
FFN: every bank expert is one, under the parameter prefix ``expert.{i}``,
and so is the dense baseline's body, under ``dense``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .numerics import require_finite

Array = np.ndarray

FROZEN_KINDS = ("structure", "semantic")


# ---------------------------------------------------------------------------
# frozen shared experts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenExpert:
    """Seeded fixed affine + tanh map; parameters never receive gradients."""

    kind: str
    seed: int
    weight: Array  # (D, D)
    bias: Array  # (D,)


def make_frozen_expert(kind: str, width: int, seed: int, scale: float = 1.0) -> FrozenExpert:
    """``scale`` tunes the affine map so typical pre-activations stay in the
    informative (non-saturated) range of tanh for the expected input size."""
    if kind not in FROZEN_KINDS:
        raise ValueError(f"frozen expert kind must be one of {FROZEN_KINDS}, got {kind!r}")
    rng = np.random.default_rng(seed)
    weight = rng.normal(scale=scale / np.sqrt(width), size=(width, width))
    bias = rng.normal(scale=0.1, size=width)
    weight.setflags(write=False)
    bias.setflags(write=False)
    return FrozenExpert(kind=kind, seed=int(seed), weight=weight, bias=bias)


def frozen_forward(expert: FrozenExpert, tokens: Array) -> Array:
    """tanh(X W + b) applied row-wise; deterministic for a given expert."""
    x = require_finite("frozen expert input", tokens)
    if x.shape[-1] != expert.weight.shape[0]:
        raise ValueError(
            f"frozen expert: width {expert.weight.shape[0]} expected, got {x.shape[-1]}"
        )
    return np.tanh(x @ expert.weight + expert.bias)


def frozen_digest(expert: FrozenExpert) -> str:
    h = hashlib.sha256()
    h.update(expert.kind.encode())
    h.update(np.ascontiguousarray(expert.weight).tobytes())
    h.update(np.ascontiguousarray(expert.bias).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# source-specific expert bank
# ---------------------------------------------------------------------------


def expert_group_map(n_experts: int, n_sources: int) -> Array:
    """Disjoint ownership as an (n_sources, n_experts) bool mask: source m
    owns experts [m * per, (m + 1) * per) with per = n_experts // n_sources.

    Remainder experts stay unowned and receive no traceability supervision.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    per = n_experts // n_sources
    mask = np.zeros((n_sources, n_experts), dtype=bool)
    for m in range(n_sources):
        mask[m, m * per : (m + 1) * per] = True
    return mask


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
    h = np.tanh(x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"])
    return h @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"], h


def ffn_backward(params: dict, prefix: str, x: Array, h: Array, d_y: Array):
    """Backward of ``ffn_forward`` given its input, hidden activations and
    the output gradient; returns (d_x, parameter grads)."""
    d_pre = (d_y @ params[f"{prefix}.w2"].T) * (1.0 - h * h)
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
    a = require_finite("dr attended", attended)
    c = require_finite("dr cluster features", cluster_feats)
    if a.shape != c.shape:
        raise ValueError(f"dr_forward: shapes differ {a.shape} vs {c.shape}")
    concat = np.concatenate([a, c], axis=1)
    out = concat @ params["dr.w"] + params["dr.b"]
    return out, DimReductionCache(concat=concat, width=a.shape[1])


def dr_backward(grad_out: Array, cache: DimReductionCache, params: dict):
    """Gradients for the projection; the cluster branch is a constant, so
    input gradients flow through the attended half only."""
    g = np.asarray(grad_out, dtype=np.float64)
    grads = {
        "dr.w": cache.concat.T @ g,
        "dr.b": g.sum(axis=0),
    }
    d_concat = g @ params["dr.w"].T
    d_attended = d_concat[:, : cache.width]
    return d_attended, grads


# ---------------------------------------------------------------------------
# routed mixture
# ---------------------------------------------------------------------------


@dataclass
class MixtureCache:
    inputs: Array  # (N, D) expert inputs
    gates: Array  # (N, n_experts) full gate matrix
    per_expert: list  # (expert id, token indices, hidden, outputs)


def expert_mixture_forward(bank_params: dict, n_experts: int, plan, inputs: Array, gates: Array):
    """Capacity-masked Top-K combination: out[i] = sum_j g[i,j] * E_j(x_i)
    over the admitted (token, expert) pairs of ``plan``. Dropped pairs
    contribute zero.
    """
    x = require_finite("mixture inputs", inputs)
    if plan.n_experts != n_experts:
        raise ValueError(
            f"dispatch plan built for {plan.n_experts} experts, bank has {n_experts}"
        )
    if plan.n_tokens != x.shape[0]:
        raise ValueError(
            f"dispatch plan built for {plan.n_tokens} tokens, got {x.shape[0]}"
        )
    out = np.zeros_like(x)
    per_expert = []
    for j in range(n_experts):
        tok = plan.expert_tokens[j]
        if tok.size == 0:
            continue
        y, h = ffn_forward(bank_params, f"expert.{j}", x[tok])
        out[tok] += gates[tok, j][:, None] * y
        per_expert.append((j, tok, h, y))
    return out, MixtureCache(inputs=x, gates=gates, per_expert=per_expert)


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
    for j, tok, h, y in cache.per_expert:
        up = g[tok]
        w = cache.gates[tok, j][:, None]
        d_gates[tok, j] = np.sum(up * y, axis=1)
        d_x, expert_grads = ffn_backward(bank_params, f"expert.{j}", cache.inputs[tok], h, w * up)
        grads.update(expert_grads)
        d_inputs[tok] += d_x
    return d_inputs, d_gates, grads


def aggregate_features(f_structure: Array, f_semantic: Array, f_routed: Array) -> Array:
    """Exact elementwise sum of the three feature streams."""
    if not (f_structure.shape == f_semantic.shape == f_routed.shape):
        raise ValueError(
            f"aggregate_features: shapes differ "
            f"{f_structure.shape}/{f_semantic.shape}/{f_routed.shape}"
        )
    return f_structure + f_semantic + f_routed
