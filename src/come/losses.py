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

from .numerics import (
    cv_squared,
    cv_squared_grad,
    normal_cdf,
    normal_pdf,
    require_finite,
    softmax,
)

Array = np.ndarray

GROUP_MASS_EPS = 1e-12


@dataclass
class LossReport:
    """One training step's loss decomposition plus per-expert statistics."""

    task_ce: float
    l_tb: float = 0.0  # the routing fields stay zero for the dense body
    l_ip: float = 0.0
    l_load: float = 0.0
    importance: Array = field(default_factory=lambda: np.zeros(0))  # (n_experts,)
    load: Array = field(default_factory=lambda: np.zeros(0))  # (n_experts,)
    tb_weight: float = 0.0
    balance_weight: float = 0.0
    tb_clamped: int = 0

    @property
    def l_balance(self) -> float:
        return self.l_ip + self.l_load

    @property
    def total(self) -> float:
        return self.task_ce + self.tb_weight * self.l_tb + self.balance_weight * self.l_balance


def traceability_loss(gates: Array, token_sources: Array, owners: Array):
    """Mean over tokens of -log of the gate mass on each token's own expert
    group.

    ``owners`` is the (n_sources, n_experts) bool ownership mask of
    ``experts.expert_group_map``. Group mass below GROUP_MASS_EPS is
    clamped; the clamp count is returned for the warning counter.

    Returns (value, d_gates, clamp_count).
    """
    g = require_finite("traceability gates", gates)
    scale = 1.0 / g.shape[0]
    d_gates = np.zeros_like(g)
    total = 0.0
    clamped = 0
    for src in np.unique(token_sources):
        group = np.flatnonzero(owners[src]) if src < len(owners) else []
        if len(group) == 0:
            raise ValueError(f"source {src} owns no experts")
        rows = np.flatnonzero(token_sources == src)
        mass = g[np.ix_(rows, group)].sum(axis=1)
        low = mass < GROUP_MASS_EPS
        clamped += int(np.count_nonzero(low))
        safe = np.maximum(mass, GROUP_MASS_EPS)
        total += float(-np.log(safe).sum())
        inv = np.where(low, 0.0, -1.0 / safe)  # clamped tokens sit on a constant
        d_gates[np.ix_(rows, group)] = (inv * scale)[:, None]
    return total * scale, d_gates, clamped


def importance_loss(gates: Array):
    """CV^2 of the per-expert importance (column sums of the gate matrix).

    Returns (value, d_gates, importance vector).
    """
    g = require_finite("importance gates", gates)
    importance = g.sum(axis=0)
    value = cv_squared(importance)
    d_importance = cv_squared_grad(importance)
    d_gates = np.broadcast_to(d_importance, g.shape).copy()
    return value, d_gates, importance


def load_loss(gates: Array):
    """CV^2 of the per-expert load: the standard-normal CDF applied directly
    to the gate probabilities, exactly as the balance objective is written.

    Returns (value, d_gates, load vector).
    """
    g = require_finite("load gates", gates)
    cdf = normal_cdf(g)
    load = cdf.sum(axis=0)
    value = cv_squared(load)
    d_load = cv_squared_grad(load)
    d_gates = d_load[None, :] * normal_pdf(g)
    return value, d_gates, load


def cross_entropy(logits: Array, labels: Array):
    """Mean softmax cross-entropy over samples; rejects out-of-range labels.

    Returns (value, d_logits).
    """
    z = require_finite("task logits", logits)
    y = np.asarray(labels)
    n, c = z.shape
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} samples")
    if np.any(y < 0) or np.any(y >= c):
        raise ValueError(f"label out of range [0, {c})")
    probs = softmax(z, axis=1)
    picked = probs[np.arange(n), y]
    value = float(-np.log(np.maximum(picked, 1e-300)).mean())
    d_logits = probs.copy()
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    return value, d_logits
