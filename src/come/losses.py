"""Collaborative source-specific training objective.

Traceability pushes each token's gate mass onto the expert group owned by
its source (plain -log g_d when groups are singletons). Importance and load
are squared coefficients of variation, of the per-expert gate-mass column
sums and of the per-expert sums of a standard-normal CDF of the gates. The
task head is mean softmax cross-entropy. Every loss here returns its value
together with an explicit gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    l_tb: float
    l_ip: float
    l_load: float
    importance: Array  # (n_experts,)
    load: Array  # (n_experts,)
    tb_weight: float = 1.0
    balance_weight: float = 0.1
    tb_clamped: int = 0

    @property
    def l_balance(self) -> float:
        return self.l_ip + self.l_load

    @property
    def total(self) -> float:
        return self.task_ce + self.tb_weight * self.l_tb + self.balance_weight * self.l_balance


def traceability_loss(gates: Array, token_sources: Array, groups: dict, average: bool = True):
    """-log of the gate mass on each token's own expert group.

    Averaged over tokens by default (a summed variant is kept for the
    batch-size-dependent reading). Group mass below GROUP_MASS_EPS is
    clamped; the clamp count is returned for the warning counter.

    Returns (value, d_gates, clamp_count).
    """
    g = require_finite("traceability gates", gates)
    n = g.shape[0]
    d_gates = np.zeros_like(g)
    total = 0.0
    clamped = 0
    scale = 1.0 / n if average else 1.0
    for src in np.unique(token_sources):
        group = groups.get(int(src), ())
        if len(group) == 0:
            raise ValueError(f"source {src} owns no experts")
        rows = np.flatnonzero(token_sources == src)
        mass = g[np.ix_(rows, list(group))].sum(axis=1)
        low = mass < GROUP_MASS_EPS
        clamped += int(np.count_nonzero(low))
        safe = np.maximum(mass, GROUP_MASS_EPS)
        total += float(-np.log(safe).sum())
        inv = np.where(low, 0.0, -1.0 / safe)  # clamped tokens sit on a constant
        for j in group:
            d_gates[rows, j] = inv * scale
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


def load_loss(gates: Array, mode: str = "literal", logits: Array | None = None,
              top_k: int = 1, noise_scale: float = 1.0):
    """CV^2 of the per-expert load.

    ``literal`` applies the standard-normal CDF directly to the gate
    probabilities, exactly as the balance objective is written. ``margin``
    is the classical alternative: the CDF of the standardized margin
    between each raw logit and the token's K-th largest competing logit;
    the margin threshold is a constant of the backward pass, mirroring how
    Top-K selection is treated. Returns (value, d_gates, load vector);
    in margin mode the gradient is w.r.t. the logits instead.
    """
    g = require_finite("load gates", gates)
    if mode == "literal":
        cdf = normal_cdf(g)
        load = cdf.sum(axis=0)
        value = cv_squared(load)
        d_load = cv_squared_grad(load)
        d_gates = d_load[None, :] * normal_pdf(g)
        return value, d_gates, load
    if mode == "margin":
        if logits is None:
            raise ValueError("margin mode needs the raw router logits")
        z = require_finite("load logits", logits)
        order = np.argsort(-z, axis=1, kind="stable")
        kth = np.take_along_axis(z, order[:, top_k - 1 : top_k], axis=1)
        kth1 = np.take_along_axis(z, order[:, top_k : top_k + 1], axis=1) \
            if top_k < z.shape[1] else np.full((z.shape[0], 1), -np.inf)
        in_top = np.zeros_like(z, dtype=bool)
        np.put_along_axis(in_top, order[:, :top_k], True, axis=1)
        # threshold excluding the expert itself: the (K+1)-th value for
        # selected experts, the K-th for the rest
        threshold = np.where(in_top, kth1, kth)
        margin = np.where(np.isfinite(threshold), (z - threshold) / noise_scale, np.inf)
        cdf = np.where(np.isfinite(margin), normal_cdf(np.nan_to_num(margin, posinf=38.0)), 1.0)
        load = cdf.sum(axis=0)
        value = cv_squared(load)
        d_load = cv_squared_grad(load)
        pdf = np.where(np.isfinite(margin), normal_pdf(np.nan_to_num(margin, posinf=38.0)), 0.0)
        d_logits = d_load[None, :] * pdf / noise_scale
        return value, d_logits, load
    raise ValueError(f"unknown load loss mode {mode!r}")


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
