import math

import numpy as np
import pytest

from come.losses import (
    GROUP_MASS_EPS,
    LossReport,
    cross_entropy,
    importance_loss,
    load_loss,
    traceability_loss,
)
from come.numerics import grad_check, normal_cdf, softmax


def _uniform_gates(n, m):
    return np.full((n, m), 1.0 / m)


def _mask(groups, n_experts):
    """{source: expert ids} as the (n_sources, n_experts) ownership mask."""
    mask = np.zeros((max(groups) + 1, n_experts), dtype=bool)
    for src, experts in groups.items():
        mask[src, list(experts)] = True
    return mask


# ---------------------------------------------------------------------------
# traceability
# ---------------------------------------------------------------------------


def test_traceability_zero_when_group_holds_all_mass():
    gates = np.zeros((4, 4))
    gates[:, 0] = 1.0
    groups = {0: (0,)}
    val, grad, clamped = traceability_loss(gates, np.zeros(4, dtype=int), _mask(groups, 4))
    assert val == 0.0
    assert clamped == 0


def test_traceability_half_mass_is_ln2():
    gates = np.array([[0.25, 0.25, 0.3, 0.2]])
    groups = {1: (0, 1)}  # group mass 0.5
    val, _, _ = traceability_loss(gates, np.array([1]), _mask(groups, 4))
    assert abs(val - math.log(2.0)) < 1e-12


def test_traceability_singleton_groups_match_loop_oracle():
    rng = np.random.default_rng(0)
    gates = rng.dirichlet(np.ones(5), size=12)
    sources = rng.integers(0, 3, size=12)
    groups = {0: (2,), 1: (0,), 2: (4,)}
    val, grad, _ = traceability_loss(gates, sources, _mask(groups, 5))
    expected = -sum(math.log(gates[i, groups[int(sources[i])][0]]) for i in range(12)) / 12
    assert abs(val - expected) < 1e-12
    # gradient vs finite differences (softmax reparam keeps gates valid)
    logits0 = rng.normal(size=(6, 5))
    src = rng.integers(0, 3, size=6)

    def fn(flat):
        g = softmax(flat.reshape(6, 5), axis=1)
        v, dg, _ = traceability_loss(g, src, _mask(groups, 5))
        from come.numerics import softmax_backward

        return v, softmax_backward(g, dg, axis=1).ravel()

    assert grad_check(fn, logits0.ravel(), h=1e-5).max_rel_error < 1e-6


def test_traceability_clamps_zero_mass_and_counts():
    gates = np.array([[1.0, 0.0], [0.0, 1.0]])
    groups = {0: (1,)}  # first token has zero group mass
    val, grad, clamped = traceability_loss(gates, np.zeros(2, dtype=int), _mask(groups, 2))
    assert clamped == 1
    assert np.isfinite(val)
    assert val >= -0.5 * math.log(GROUP_MASS_EPS) - 1e-9
    assert grad[0, 1] == 0.0  # clamped token contributes a constant


def test_traceability_rejects_empty_group():
    with pytest.raises(ValueError, match="owns no experts"):
        traceability_loss(_uniform_gates(2, 4), np.zeros(2, dtype=int), _mask({0: ()}, 4))


# ---------------------------------------------------------------------------
# importance
# ---------------------------------------------------------------------------


def test_importance_zero_for_uniform_gates():
    val, grad, ip = importance_loss(_uniform_gates(6, 4))
    assert val == 0.0
    np.testing.assert_allclose(ip, 1.5)


def test_importance_zero_for_balanced_one_hots():
    gates = np.array([[1.0, 0.0], [0.0, 1.0]])
    val, _, ip = importance_loss(gates)
    np.testing.assert_allclose(ip, [1.0, 1.0])
    assert val == 0.0


def test_importance_concentrated_value():
    gates = np.array([[1.0, 0.0], [1.0, 0.0]])
    val, _, ip = importance_loss(gates)
    np.testing.assert_allclose(ip, [2.0, 0.0])
    assert abs(val - 1.0) < 1e-15  # mean 1, population variance 1


def test_importance_permutation_invariance():
    rng = np.random.default_rng(1)
    gates = rng.dirichlet(np.ones(5), size=10)
    base, _, _ = importance_loss(gates)
    v_tok, _, _ = importance_loss(gates[rng.permutation(10)])
    v_exp, _, _ = importance_loss(gates[:, rng.permutation(5)])
    assert abs(base - v_tok) < 1e-12
    assert abs(base - v_exp) < 1e-12


def test_importance_gradient():
    rng = np.random.default_rng(2)
    for seed in range(10):
        logits0 = np.random.default_rng(100 + seed).normal(size=(5, 4))

        def fn(flat):
            g = softmax(flat.reshape(5, 4), axis=1)
            v, dg, _ = importance_loss(g)
            from come.numerics import softmax_backward

            return v, softmax_backward(g, dg, axis=1).ravel()

        assert grad_check(fn, logits0.ravel(), h=1e-5).max_rel_error < 1e-5


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def test_load_zero_for_uniform_gates():
    val, _, load = load_loss(_uniform_gates(8, 4))
    assert val == 0.0
    assert np.all(load == load[0])


def test_load_hand_computed_case():
    gates = np.array([[1.0, 0.0], [1.0, 0.0]])
    val, _, load = load_loss(gates)
    phi1 = normal_cdf(1.0)
    np.testing.assert_allclose(load, [2 * phi1, 1.0], atol=1e-12)
    assert abs(load[0] - 1.682690) < 1e-6
    # direct arithmetic on the quadrature-verified CDF values
    mean = (2 * phi1 + 1.0) / 2
    var = ((2 * phi1 - mean) ** 2 + (1.0 - mean) ** 2) / 2
    assert abs(val - var / mean**2) < 1e-12


def test_load_zero_for_identical_columns():
    rng = np.random.default_rng(3)
    col = rng.uniform(0, 1, size=6)
    gates = np.tile(col[:, None], (1, 5))
    val, _, _ = load_loss(gates)
    assert abs(val) < 1e-24


def test_load_gradient_literal():
    for seed in range(10):
        logits0 = np.random.default_rng(200 + seed).normal(size=(4, 5))

        def fn(flat):
            g = softmax(flat.reshape(4, 5), axis=1)
            v, dg, _ = load_loss(g)
            from come.numerics import softmax_backward

            return v, softmax_backward(g, dg, axis=1).ravel()

        assert grad_check(fn, logits0.ravel(), h=1e-5).max_rel_error < 1e-5


# ---------------------------------------------------------------------------
# task loss
# ---------------------------------------------------------------------------


def test_cross_entropy_aligned_huge_logits_vanishes():
    logits = np.full((3, 4), -50.0)
    labels = np.array([1, 0, 3])
    logits[np.arange(3), labels] = 50.0
    val, _ = cross_entropy(logits, labels)
    assert val < 1e-12


def test_cross_entropy_uniform_is_log_c():
    val, _ = cross_entropy(np.zeros((5, 3)), np.array([0, 1, 2, 0, 1]))
    assert abs(val - math.log(3.0)) < 1e-12


def test_cross_entropy_matches_loop_oracle():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(7, 4))
    labels = rng.integers(0, 4, size=7)
    val, _ = cross_entropy(logits, labels)
    expected = 0.0
    for i in range(7):
        row = np.exp(logits[i] - logits[i].max())
        p = row / row.sum()
        expected -= math.log(p[labels[i]])
    assert abs(val - expected / 7) < 1e-12


def test_cross_entropy_gradient():
    rng = np.random.default_rng(6)
    logits0 = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, size=4)

    def fn(flat):
        v, d = cross_entropy(flat.reshape(4, 3), labels)
        return v, d.ravel()

    assert grad_check(fn, logits0.ravel(), h=1e-5).max_rel_error < 1e-7


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError, match="range"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError, match="shape"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------


def test_report_total_is_stated_weighted_sum():
    rep = LossReport(
        task_ce=1.2,
        l_tb=0.4,
        l_ip=0.3,
        l_load=0.1,
        importance=np.ones(4),
        load=np.ones(4),
        tb_weight=1.0,
        balance_weight=0.1,
    )
    assert abs(rep.l_balance - 0.4) < 1e-15
    assert abs(rep.total - (1.2 + 0.4 + 0.1 * 0.4)) < 1e-12


def test_report_zero_aux_weights_reduce_to_task():
    rep = LossReport(
        task_ce=0.9, l_tb=5.0, l_ip=2.0, l_load=3.0,
        importance=np.ones(2), load=np.ones(2),
        tb_weight=0.0, balance_weight=0.0,
    )
    assert rep.total == 0.9


def test_report_balance_contribution_is_linear_in_weight():
    kw = dict(task_ce=1.0, l_tb=0.0, l_ip=0.5, l_load=0.25,
              importance=np.ones(2), load=np.ones(2), tb_weight=0.0)
    lo = LossReport(balance_weight=0.1, **kw)
    hi = LossReport(balance_weight=0.2, **kw)
    assert abs((hi.total - 1.0) - 2 * (lo.total - 1.0)) < 1e-12


def test_losses_are_nonnegative_on_random_gates():
    rng = np.random.default_rng(7)
    groups = {0: (0, 1), 1: (2,)}
    for _ in range(25):
        gates = rng.dirichlet(np.ones(4), size=9)
        sources = rng.integers(0, 2, size=9)
        v_tb, _, _ = traceability_loss(gates, sources, _mask(groups, 4))
        v_ip, _, _ = importance_loss(gates)
        v_ld, _, _ = load_loss(gates)
        assert v_tb >= 0.0 and v_ip >= 0.0 and v_ld >= 0.0
