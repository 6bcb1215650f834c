"""Gating network and temperature-scaled Top-K capacity dispatch.

Gates are a per-token softmax over a linear map of the routed features,
divided by a temperature before the softmax. The dispatcher admits tokens
per expert in ascending token order up to capacity = ceil(f * T * K / E);
a (token, expert) pair it does not admit overflows, so overflow is the
complement of the ``admitted`` mask, and an overflowed pair contributes
zero to the mixture. Ties in Top-K selection break toward the lower expert
index, so identical inputs always produce identical plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import softmax, softmax_backward

Array = np.ndarray


@dataclass
class GateCache:
    inputs: Array  # (N, D)
    gates: Array  # (N, n_experts)


def gate_forward(inputs: Array, params: dict, temperature: float):
    """Row-stochastic gate matrix softmax((W x + b) / temperature) with the
    ``router.w`` (n_experts, D) and ``router.b`` weights of ``params``."""
    logits = inputs @ params["router.w"].T + params["router.b"]
    gates = softmax(logits / temperature, axis=1)
    return gates, GateCache(inputs=inputs, gates=gates)


def gate_backward(d_gates: Array, cache: GateCache, params: dict, temperature: float):
    """Push gate gradients through the softmax and linear map.

    Returns (d_inputs, {router.w, router.b} grads).
    """
    d_scaled = softmax_backward(cache.gates, np.asarray(d_gates, dtype=np.float64), axis=1)
    d_logits = d_scaled / temperature
    grads = {
        "router.w": d_logits.T @ cache.inputs,
        "router.b": d_logits.sum(axis=0),
    }
    d_inputs = d_logits @ params["router.w"]
    return d_inputs, grads


def topk_select(gates: Array, k: int) -> Array:
    """Per-token indices (N, K) of the K largest gates, largest first; ties
    break toward the lower expert index."""
    g = np.asarray(gates, dtype=np.float64)
    if k > g.shape[1]:
        raise ValueError(f"top_k={k} exceeds {g.shape[1]} experts")
    order = np.argsort(-g, axis=1, kind="stable")  # stable: equal gates keep index order
    return order[:, :k]


@dataclass
class DispatchPlan:
    selection: Array  # (N, K) expert indices
    admitted: Array  # (N, K) bool mask; the other pairs overflowed
    expert_tokens: list  # per expert: admitted token indices, ascending
    capacity: int

    @property
    def n_tokens(self) -> int:
        return self.selection.shape[0]

    @property
    def n_overflow(self) -> int:
        return self.admitted.size - int(np.count_nonzero(self.admitted))

    def utilization(self) -> Array:
        return np.array([t.size for t in self.expert_tokens], dtype=np.int64)


def dispatch_capacity(n_tokens: int, top_k: int, n_experts: int, capacity_factor: float) -> int:
    if capacity_factor <= 0:
        raise ValueError("capacity factor must be > 0")
    return int(math.ceil(capacity_factor * n_tokens * top_k / n_experts))


def build_dispatch(selection: Array, n_experts: int, capacity_factor: float) -> DispatchPlan:
    """Admit (token, expert) pairs per expert in ascending token order until
    capacity; the pairs left out of ``admitted`` overflow."""
    sel = np.asarray(selection)
    n_tokens, top_k = sel.shape
    capacity = dispatch_capacity(n_tokens, top_k, n_experts, capacity_factor)
    admitted = np.zeros_like(sel, dtype=bool)
    expert_tokens = []
    for j in range(n_experts):
        rows, cols = np.nonzero(sel == j)  # nonzero scans row-major: ascending token order
        keep = rows[:capacity]
        admitted[keep, cols[:capacity]] = True
        expert_tokens.append(keep.astype(np.int64))
    return DispatchPlan(selection=sel, admitted=admitted, expert_tokens=expert_tokens,
                        capacity=capacity)
