"""Collaborative source-specific training objective.

Traceability pushes each token's gate mass onto the expert group owned by
its source (plain -log g_d when groups are singletons). Importance and load
are squared coefficients of variation, of the per-expert gate-mass column
sums and of the per-expert sums of a standard-normal CDF of the gates. The
task head is mean softmax cross-entropy.

Each loss returns its value together with its unweighted gradient w.r.t.
its input (the logits or the gates). ``ComeModel.objective`` calls the four
and is the one place that weights them, into a ``LossReport`` and the
gradients ``ComeModel.backward`` starts from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import cv_squared, normal_cdf, normal_pdf, require_ids, softmax

Array = np.ndarray

GROUP_MASS_EPS = 1e-12


@dataclass
class LossReport:
    """The loss decomposition of one ``ComeModel.objective`` plus per-expert
    statistics, over a training batch or an evaluated split. ``total`` is
    the objective weighted from the parts. The per-expert vectors are tuples,
    so two reports are equal when every part and every per-expert entry is."""

    task_ce: float
    total: float
    l_tb: float = 0.0  # the routing fields stay zero for the dense body
    l_ip: float = 0.0
    l_load: float = 0.0
    importance: tuple = ()  # n_experts floats
    load: tuple = ()  # n_experts floats
    tb_clamped: int = 0  # tokens whose own-group gate mass was clamped


def traceability_loss(gates: Array, token_sources: Array, group_size: int):
    """Mean over tokens of -log of the gate mass on each token's own expert
    group: for source m, the block [m g, (m + 1) g) of g = ``group_size``
    experts (``ComeModel.group_size``). Every id owns a whole block, g >= 1
    and (m + 1) g <= n_experts: ``RunConfig.validate`` bounds
    ``data.n_sources`` by ``model.n_experts`` and ``objective`` checks ids.

    Group mass below GROUP_MASS_EPS is clamped; the clamp count is returned
    for ``LossReport.tb_clamped``, which each log point records. A clamped
    token sits on a constant and gets no gradient. The total keeps one
    partial sum per source, over its tokens in batch order, added in
    ascending source order.

    Returns (value, d_gates, clamp_count).
    """
    n = gates.shape[0]
    rows = np.arange(n)[:, None]
    owned = token_sources[:, None] * group_size + np.arange(group_size)  # (n, g) columns
    mass = gates[rows, owned].sum(axis=1)
    low = mass < GROUP_MASS_EPS
    safe = np.maximum(mass, GROUP_MASS_EPS)
    neg_log = -np.log(safe)
    total = 0.0
    for src in np.flatnonzero(np.bincount(token_sources)):
        total += float(neg_log[token_sources == src].sum())
    d_gates = np.zeros(gates.shape)
    d_gates[rows, owned] = (np.where(low, 0.0, -1.0 / safe) * (1.0 / n))[:, None]
    return total * (1.0 / n), d_gates, int(np.count_nonzero(low))


def importance_loss(gates: Array):
    """CV^2 of the per-expert importance (column sums of the gate matrix).

    Returns (value, d_gates, importance vector); every row of ``d_gates`` is
    the column-sum gradient, so it is a read-only broadcast view.
    """
    importance = gates.sum(axis=0)
    value, d_importance = cv_squared(importance)
    return value, np.broadcast_to(d_importance, gates.shape), importance


def load_loss(gates: Array):
    """CV^2 of the per-expert load: the standard-normal CDF applied directly
    to the gate probabilities, exactly as the balance objective is written.

    Returns (value, d_gates, load vector).
    """
    load = normal_cdf(gates).sum(axis=0)
    value, d_load = cv_squared(load)
    return value, d_load[None, :] * normal_pdf(gates), load


def cross_entropy(logits: Array, labels: Array):
    """Mean softmax cross-entropy over samples; rejects labels that are not
    one integer per row of ``logits`` in [0, C) (``require_ids``).

    Returns (value, d_logits).
    """
    n, c = logits.shape
    y = require_ids("cross_entropy", "labels", labels, n, "n_classes", c)
    d_logits = softmax(logits)
    picked = d_logits[np.arange(n), y]
    value = float(np.add.reduce(-np.log(np.maximum(picked, 1e-300))) / n)
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    return value, d_logits
