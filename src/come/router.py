"""Gating network and Top-K capacity dispatch.

Gates are a per-token softmax over a linear map of the routed features.
The dispatcher admits tokens per expert in ascending token order up to
capacity = ceil(f * T * K / E); a (token, expert) pair it does not admit
overflows and contributes zero to the mixture. A plan keeps no overflow
count: the pairs outside its ``admitted`` mask are the overflow, which
``harness.routing_figures`` counts over any number of plans. Ties in Top-K
selection break toward the lower expert index, so identical inputs always
produce identical plans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import softmax, softmax_backward

Array = np.ndarray


def gate_forward(inputs: Array, params: dict) -> Array:
    """Row-stochastic gate matrix softmax(W x + b) with the ``router.w``
    (n_experts, D) and ``router.b`` weights of ``params``. The backward
    reads ``inputs`` and the returned gates."""
    logits = inputs @ params["router.w"].T + params["router.b"]
    return softmax(logits, out=logits)


def gate_backward(d_gates: Array, inputs: Array, gates: Array, params: dict):
    """Push gate gradients through the softmax and linear map, given the
    forward's ``inputs`` (N, D) and ``gates`` (N, n_experts).

    Returns (d_inputs, {router.w, router.b} grads).
    """
    d_logits = softmax_backward(gates, d_gates)
    grads = {
        "router.w": d_logits.T @ inputs,
        "router.b": d_logits.sum(axis=0),
    }
    d_inputs = d_logits @ params["router.w"]
    return d_inputs, grads


def topk_select(gates: Array, k: int) -> Array:
    """Per-token indices (N, K) of the K largest of E gates, largest first;
    ties break toward the lower expert index (K = 1 takes ``argmax``, the
    stable sort's pick). K <= E: ``RunConfig.validate`` bounds ``router.top_k``."""
    if k == 1:
        return np.argmax(gates, axis=1).reshape(-1, 1)
    order = np.argsort(-gates, axis=1, kind="stable")  # stable: equal gates keep index order
    return order[:, :k]


@dataclass
class DispatchPlan:
    selection: Array  # (N, K) expert indices
    admitted: Array  # (N, K) bool mask; the other pairs overflowed
    expert_tokens: list  # per expert: admitted token indices, ascending
    capacity: int

    def utilization(self) -> Array:
        return np.array([t.size for t in self.expert_tokens], dtype=np.int64)


def dispatch_capacity(n_tokens: int, top_k: int, n_experts: int, capacity_factor: float) -> int:
    """ceil(f N K / E), or N when that product overflows a float: any
    capacity >= N admits every (token, expert) pair. f > 0:
    ``RunConfig.validate`` requires it of ``router.capacity_factor``."""
    capacity = capacity_factor * n_tokens * top_k / n_experts
    return n_tokens if math.isinf(capacity) else int(math.ceil(capacity))


def build_dispatch(selection: Array, n_experts: int, capacity_factor: float) -> DispatchPlan:
    """Admit (token, expert) pairs per expert in ascending token order until
    capacity; the pairs left out of ``admitted`` overflow.

    One stable argsort of the row-major pairs groups them by expert with
    each group in ascending token order; a pair is admitted when its rank
    in its group is below capacity. A selection entry outside
    [0, n_experts) is rejected; the sorted order gives its extremes.
    """
    sel = np.asarray(selection)
    n_tokens, top_k = sel.shape
    capacity = dispatch_capacity(n_tokens, top_k, n_experts, capacity_factor)
    flat = sel.ravel()
    order = np.argsort(flat, kind="stable")
    if order.size:
        least, most = flat[order[0]], flat[order[-1]]
        if least < 0 or most >= n_experts:
            raise ValueError(f"build_dispatch: selection entry {least if least < 0 else most} "
                             f"is outside [0, {n_experts}), the {n_experts} experts")
    counts = np.bincount(flat, minlength=n_experts)
    starts = np.cumsum(counts) - counts
    rank = np.arange(order.size) - np.repeat(starts, counts)
    kept = order[rank < capacity]
    admitted = np.zeros(sel.size, dtype=bool)
    admitted[kept] = True
    tokens = (kept // top_k).astype(np.int64, copy=False)
    ends = np.cumsum(np.minimum(counts, capacity)).tolist()
    expert_tokens = [tokens[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]
    return DispatchPlan(selection=sel, admitted=admitted.reshape(sel.shape),
                        expert_tokens=expert_tokens, capacity=capacity)
