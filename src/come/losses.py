"""Collaborative source-specific training objective.

Traceability pushes each token's gate mass onto the expert group owned by
its source (plain -log g_d when groups are singletons). Importance and load
are squared coefficients of variation, of the per-expert gate-mass column
sums and of the per-expert sums of a standard-normal CDF of the gates. The
task head is mean softmax cross-entropy.

Each loss is a forward/backward pair, like the other layers. The forward
returns the value plus the small arrays its gradient reads, and forms no
gradient of the input. The ``*_backward`` function builds the gradient
w.r.t. the gates (or logits) from those arrays. ``ComeModel.objective``
calls the four forwards and weights them into a ``LossReport``, for one
training batch or, in evaluation, once over every evaluated sample; only
a training step calls the backwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import cv_squared, normal_cdf, normal_pdf, require_ids, softmax

Array = np.ndarray

GROUP_MASS_EPS = 1e-12


@dataclass
class LossReport:
    """The loss decomposition of one ``ComeModel.objective`` plus per-expert
    statistics, over a training batch or an evaluated split. ``total`` is
    the objective weighted from the parts. Two reports are equal when every
    part and every per-expert entry is."""

    task_ce: float
    total: float
    l_tb: float = 0.0  # the routing fields stay zero for the dense body
    l_ip: float = 0.0
    l_load: float = 0.0
    importance: Array = field(default_factory=lambda: np.zeros(0))  # (n_experts,)
    load: Array = field(default_factory=lambda: np.zeros(0))  # (n_experts,)
    tb_clamped: int = 0  # tokens whose own-group gate mass was clamped

    def __eq__(self, other):
        if not isinstance(other, LossReport):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def traceability_loss(gates: Array, token_sources: Array, group_size: int):
    """Mean over tokens of -log of the gate mass on each token's own expert
    group: for source m, the block [m g, (m + 1) g) of g = ``group_size``
    experts (``ComeModel.group_size``). Every id must own a whole block:
    g >= 1 and (m + 1) g <= n_experts.

    Group mass below GROUP_MASS_EPS is clamped; the clamp count is returned
    for ``LossReport.tb_clamped``, which each log point records. The total
    keeps one partial sum per source, over its tokens in batch order, added
    in ascending source order.

    Returns (value, (owned, safe, low), clamp_count): the (n, g) owned
    columns, the clamped group masses and the clamp mask are what
    ``traceability_backward`` reads.
    """
    if group_size < 1:
        raise ValueError(f"group size {group_size} < 1: the sources own no experts")
    owned = token_sources[:, None] * group_size + np.arange(group_size)  # (n, g) columns
    mass = gates[np.arange(gates.shape[0])[:, None], owned].sum(axis=1)
    low = mass < GROUP_MASS_EPS
    safe = np.maximum(mass, GROUP_MASS_EPS)
    neg_log = -np.log(safe)
    total = 0.0
    for src in np.flatnonzero(np.bincount(token_sources)):
        total += float(neg_log[token_sources == src].sum())
    return total * (1.0 / gates.shape[0]), (owned, safe, low), int(np.count_nonzero(low))


def traceability_backward(n_experts: int, owned: Array, safe: Array, low: Array) -> Array:
    """(n, n_experts) gradient of ``traceability_loss`` w.r.t. the gates, from
    its owned columns, clamped masses and clamp mask. A clamped token sits on
    a constant and gets none."""
    n = owned.shape[0]
    d_gates = np.zeros((n, n_experts))
    inv = np.where(low, 0.0, -1.0 / safe)
    d_gates[np.arange(n)[:, None], owned] = (inv * (1.0 / n))[:, None]
    return d_gates


def importance_loss(gates: Array):
    """CV^2 of the per-expert importance (column sums of the gate matrix).

    Returns (value, d_importance, importance vector); the (n_experts,)
    ``d_importance`` is what ``importance_backward`` reads.
    """
    importance = gates.sum(axis=0)
    value, d_importance = cv_squared(importance)
    return value, d_importance, importance


def importance_backward(d_importance: Array, n_tokens: int) -> Array:
    """(n_tokens, n_experts) gradient of ``importance_loss`` w.r.t. the gates:
    every token's row is the column-sum gradient, as a read-only view."""
    return np.broadcast_to(d_importance, (n_tokens, d_importance.size))


def load_loss(gates: Array):
    """CV^2 of the per-expert load: the standard-normal CDF applied directly
    to the gate probabilities, exactly as the balance objective is written.

    Returns (value, d_load, load vector); the (n_experts,) ``d_load`` and the
    gates are what ``load_backward`` reads.
    """
    load = normal_cdf(gates).sum(axis=0)
    value, d_load = cv_squared(load)
    return value, d_load, load


def load_backward(d_load: Array, gates: Array) -> Array:
    """Gradient of ``load_loss`` w.r.t. the gates, shaped like them."""
    return d_load[None, :] * normal_pdf(gates)


def cross_entropy(logits: Array, labels: Array):
    """Mean softmax cross-entropy over samples; rejects labels that are not
    one integer per row of ``logits`` in [0, C) (``require_ids``).

    Returns (value, probs): the (B, C) softmax ``cross_entropy_backward``
    reads.
    """
    n, c = logits.shape
    y = require_ids("cross_entropy", "labels", labels, n, "n_classes", c)
    probs = softmax(logits)
    picked = probs[np.arange(n), y]
    value = float(np.add.reduce(-np.log(np.maximum(picked, 1e-300))) / n)
    return value, probs


def cross_entropy_backward(probs: Array, labels: Array) -> Array:
    """(B, C) gradient of ``cross_entropy`` w.r.t. the logits, from its
    softmax ``probs``; ``probs`` is left as it is."""
    n = probs.shape[0]
    d_logits = probs.copy()
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    return d_logits
