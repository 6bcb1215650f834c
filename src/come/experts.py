"""The three expert families and their aggregation.

Two frozen shared experts (structure / semantic priors as seeded fixed
affine+tanh maps, never updated), a bank of trainable FFN experts with a
disjoint source->expert-group ownership map, the 2D->D dimension-reduction
projection that fuses attended tokens with their cluster feature, and the
exact elementwise aggregation of the three feature streams.
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


@dataclass
class ExpertBank:
    """n_experts two-layer tanh FFNs plus the source ownership map."""

    n_experts: int
    width: int
    hidden: int
    params: dict  # expert.{i}.{w1,b1,w2,b2}
    groups: dict  # source id -> tuple of owned expert ids


def expert_group_map(n_experts: int, n_sources: int) -> dict:
    """Disjoint ownership: source m owns floor(n_experts / n_sources) experts.

    Remainder experts stay unowned and receive no traceability supervision.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    per = n_experts // n_sources
    return {
        s: tuple(range(s * per, (s + 1) * per))
        for s in range(n_sources)
    }


def init_expert_bank(n_experts: int, width: int, hidden: int, n_sources: int,
                     rng: np.random.Generator) -> ExpertBank:
    params = {}
    for i in range(n_experts):
        # scaled-uniform fan-in init, tanh nonlinearity between the layers
        lim1 = 1.0 / np.sqrt(width)
        lim2 = 1.0 / np.sqrt(hidden)
        params[f"expert.{i}.w1"] = rng.uniform(-lim1, lim1, size=(width, hidden))
        params[f"expert.{i}.b1"] = np.zeros(hidden)
        params[f"expert.{i}.w2"] = rng.uniform(-lim2, lim2, size=(hidden, width))
        params[f"expert.{i}.b2"] = np.zeros(width)
    return ExpertBank(
        n_experts=n_experts,
        width=width,
        hidden=hidden,
        params=params,
        groups=expert_group_map(n_experts, n_sources),
    )


def expert_apply(params: dict, index: int, x: Array):
    """One FFN expert on a row block; returns (output, hidden activations)."""
    h = np.tanh(x @ params[f"expert.{index}.w1"] + params[f"expert.{index}.b1"])
    return h @ params[f"expert.{index}.w2"] + params[f"expert.{index}.b2"], h


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
    n_experts: int


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
        y, h = expert_apply(bank_params, j, x[tok])
        out[tok] += gates[tok, j][:, None] * y
        per_expert.append((j, tok, h, y))
    cache = MixtureCache(inputs=x, gates=gates, per_expert=per_expert, n_experts=n_experts)
    return out, cache


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
        d_y = w * up
        grads[f"expert.{j}.w2"] = h.T @ d_y
        grads[f"expert.{j}.b2"] = d_y.sum(axis=0)
        d_h = d_y @ bank_params[f"expert.{j}.w2"].T
        d_pre = d_h * (1.0 - h * h)
        grads[f"expert.{j}.w1"] = cache.inputs[tok].T @ d_pre
        grads[f"expert.{j}.b1"] = d_pre.sum(axis=0)
        d_inputs[tok] += d_pre @ bank_params[f"expert.{j}.w1"].T
    return d_inputs, d_gates, grads


def aggregate_features(f_structure: Array, f_semantic: Array, f_routed: Array) -> Array:
    """Exact elementwise sum of the three feature streams."""
    if not (f_structure.shape == f_semantic.shape == f_routed.shape):
        raise ValueError(
            f"aggregate_features: shapes differ "
            f"{f_structure.shape}/{f_semantic.shape}/{f_routed.shape}"
        )
    return f_structure + f_semantic + f_routed
