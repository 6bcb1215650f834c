"""Gating network and temperature-scaled Top-K capacity dispatch.

Gates are a per-token softmax over a linear map of the routed features,
divided by a temperature before the softmax. The dispatcher admits tokens
per expert in ascending token order up to capacity = ceil(f * T * K / E);
excess (token, expert) pairs are recorded as overflow and contribute zero
to the mixture. Ties in Top-K selection break toward the lower expert
index, so identical inputs always produce identical plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import require_finite, softmax, softmax_backward

Array = np.ndarray


@dataclass
class RouterParams:
    weight: Array  # (n_experts, D)
    bias: Array  # (n_experts,)
    temperature: float = 1.0
    top_k: int = 1
    capacity_factor: float = 1.25

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("router temperature must be > 0")
        if not (1 <= self.top_k <= self.weight.shape[0]):
            raise ValueError(
                f"top_k={self.top_k} outside [1, {self.weight.shape[0]}]"
            )

    @property
    def n_experts(self) -> int:
        return self.weight.shape[0]


@dataclass
class GateCache:
    inputs: Array  # (N, D)
    logits: Array  # (N, n_experts) raw, before temperature scaling
    gates: Array  # (N, n_experts)


def gate_forward(inputs: Array, router: RouterParams):
    """Row-stochastic gate matrix softmax((W x + b) / temperature)."""
    x = require_finite("router inputs", inputs)
    if x.shape[1] != router.weight.shape[1]:
        raise ValueError(
            f"router expects width {router.weight.shape[1]}, got {x.shape[1]}"
        )
    logits = x @ router.weight.T + router.bias
    gates = softmax(logits / router.temperature, axis=1)
    return gates, GateCache(inputs=x, logits=logits, gates=gates)


def gate_backward(d_gates: Array, cache: GateCache, router: RouterParams,
                  extra_logit_grad: Array | None = None):
    """Push gate gradients through the softmax and linear map.

    ``extra_logit_grad`` adds a gradient that targets the raw logits
    directly (the margin-mode load loss). Returns (d_inputs,
    {router.w, router.b} grads).
    """
    d_scaled = softmax_backward(cache.gates, np.asarray(d_gates, dtype=np.float64), axis=1)
    d_logits = d_scaled / router.temperature
    if extra_logit_grad is not None:
        d_logits = d_logits + extra_logit_grad
    grads = {
        "router.w": d_logits.T @ cache.inputs,
        "router.b": d_logits.sum(axis=0),
    }
    d_inputs = d_logits @ router.weight
    return d_inputs, grads


def topk_select(gates: Array, k: int, renormalize: bool = False):
    """Per-token K largest gates; ties break toward the lower expert index.

    Combination weights are the raw gate values unless ``renormalize`` is
    set, in which case they are rescaled to sum to 1 over the selection.
    Returns (indices (N, K), weights (N, K)).
    """
    g = np.asarray(gates, dtype=np.float64)
    if k > g.shape[1]:
        raise ValueError(f"top_k={k} exceeds {g.shape[1]} experts")
    order = np.argsort(-g, axis=1, kind="stable")  # stable: equal gates keep index order
    indices = order[:, :k]
    weights = np.take_along_axis(g, indices, axis=1)
    if renormalize:
        weights = weights / weights.sum(axis=1, keepdims=True)
    return indices, weights


@dataclass
class DispatchPlan:
    n_tokens: int
    n_experts: int
    top_k: int
    capacity: int
    selection: Array  # (N, K) expert indices
    weights: Array  # (N, K) combination weights
    admitted: Array  # (N, K) bool mask
    expert_tokens: list  # per expert: admitted token indices, ascending
    overflow: list = field(default_factory=list)  # (token, expert) dropped pairs

    @property
    def overflow_rate(self) -> float:
        total = self.n_tokens * self.top_k
        return len(self.overflow) / total if total else 0.0

    def utilization(self) -> Array:
        return np.array([t.size for t in self.expert_tokens], dtype=np.int64)


def dispatch_capacity(n_tokens: int, top_k: int, n_experts: int, capacity_factor: float) -> int:
    if capacity_factor <= 0:
        raise ValueError("capacity factor must be > 0")
    return int(math.ceil(capacity_factor * n_tokens * top_k / n_experts))


def build_dispatch(selection: Array, weights: Array, n_experts: int,
                   capacity_factor: float) -> DispatchPlan:
    """Admit (token, expert) pairs per expert in ascending token order until
    capacity; record the rest as overflow."""
    sel = np.asarray(selection)
    n_tokens, top_k = sel.shape
    capacity = dispatch_capacity(n_tokens, top_k, n_experts, capacity_factor)
    admitted = np.zeros_like(sel, dtype=bool)
    expert_tokens = []
    overflow = []
    for j in range(n_experts):
        rows, cols = np.nonzero(sel == j)  # nonzero scans row-major: ascending token order
        keep = rows[:capacity]
        admitted[keep, cols[:capacity]] = True
        expert_tokens.append(keep.astype(np.int64))
        for t in rows[capacity:]:
            overflow.append((int(t), j))
    return DispatchPlan(
        n_tokens=n_tokens,
        n_experts=n_experts,
        top_k=top_k,
        capacity=capacity,
        selection=sel,
        weights=np.asarray(weights, dtype=np.float64),
        admitted=admitted,
        expert_tokens=expert_tokens,
        overflow=overflow,
    )
