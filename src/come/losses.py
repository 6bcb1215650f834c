"""Collaborative source-specific training objective.

Traceability pushes each token's gate mass onto the expert group owned by
its source (plain -log g_d when groups are singletons). Importance and load
are squared coefficients of variation, of the per-expert gate-mass column
sums and of the per-expert sums of a standard-normal CDF of the gates. The
task head is mean softmax cross-entropy. Every loss here returns its value
together with an explicit gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import cv_squared, normal_cdf, normal_pdf, softmax

Array = np.ndarray

GROUP_MASS_EPS = 1e-12


@dataclass
class LossReport:
    """One training step's loss decomposition plus per-expert statistics.
    ``total`` is the objective ``ComeModel.forward`` weighted from the parts."""

    task_ce: float
    total: float
    l_tb: float = 0.0  # the routing fields stay zero for the dense body
    l_ip: float = 0.0
    l_load: float = 0.0
    importance: Array = field(default_factory=lambda: np.zeros(0))  # (n_experts,)
    load: Array = field(default_factory=lambda: np.zeros(0))  # (n_experts,)
    tb_clamped: int = 0


def traceability_loss(gates: Array, token_sources: Array, group_size: int):
    """Mean over tokens of -log of the gate mass on each token's own expert
    group: for source m, the block [m g, (m + 1) g) of g = ``group_size``
    experts (``ComeModel.group_size``). Every id must own a whole block:
    g >= 1 and (m + 1) g <= n_experts.

    Group mass below GROUP_MASS_EPS is clamped; the clamp count is returned
    for the warning counter. The total keeps one partial sum per source,
    over its tokens in batch order, added in ascending source order.

    Returns (value, d_gates, clamp_count).
    """
    if group_size < 1:
        raise ValueError(f"group size {group_size} < 1: the sources own no experts")
    owned = token_sources[:, None] * group_size + np.arange(group_size)  # (n, g) columns
    mass = np.take_along_axis(gates, owned, axis=1).sum(axis=1)
    low = mass < GROUP_MASS_EPS
    safe = np.maximum(mass, GROUP_MASS_EPS)
    neg_log = -np.log(safe)
    total = 0.0
    for src in np.flatnonzero(np.bincount(token_sources)):
        total += float(neg_log[token_sources == src].sum())
    scale = 1.0 / gates.shape[0]
    d_gates = np.zeros(gates.shape)
    inv = np.where(low, 0.0, -1.0 / safe)  # clamped tokens sit on a constant
    np.put_along_axis(d_gates, owned, (inv * scale)[:, None], axis=1)
    return total * scale, d_gates, int(np.count_nonzero(low))


def importance_loss(gates: Array):
    """CV^2 of the per-expert importance (column sums of the gate matrix).

    Returns (value, d_gates, importance vector).
    """
    importance = gates.sum(axis=0)
    value, d_importance = cv_squared(importance)
    d_gates = np.broadcast_to(d_importance, gates.shape).copy()
    return value, d_gates, importance


def load_loss(gates: Array):
    """CV^2 of the per-expert load: the standard-normal CDF applied directly
    to the gate probabilities, exactly as the balance objective is written.

    Returns (value, d_gates, load vector).
    """
    load = normal_cdf(gates).sum(axis=0)
    value, d_load = cv_squared(load)
    d_gates = d_load[None, :] * normal_pdf(gates)
    return value, d_gates, load


def cross_entropy(logits: Array, labels: Array):
    """Mean softmax cross-entropy over samples; rejects out-of-range labels.

    Returns (value, d_logits).
    """
    y = np.asarray(labels)
    n, c = logits.shape
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} samples")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ValueError(f"label out of range [0, {c})")
    probs = softmax(logits)
    picked = probs[np.arange(n), y]
    value = float(-np.log(np.maximum(picked, 1e-300)).mean())
    d_logits = probs.copy()
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    return value, d_logits
