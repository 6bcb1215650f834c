import hashlib
import math
import re

import numpy as np
import pytest

from come.config import LossConfig, apply_overrides, config_from_dict
from come.datagen import TokenBatch
from come.losses import (GROUP_MASS_EPS, cross_entropy, importance_loss, load_loss,
                         traceability_loss)
from come.model import ComeModel
from come.numerics import grad_check, normal_cdf, softmax


def _uniform_gates(n, m):
    return np.full((n, m), 1.0 / m)


# ---------------------------------------------------------------------------
# traceability
# ---------------------------------------------------------------------------


def test_traceability_zero_when_group_holds_all_mass():
    gates = np.zeros((4, 4))
    gates[:, 0] = 1.0
    val, _, clamped = traceability_loss(gates, np.zeros(4, dtype=int), 1)  # owns expert 0
    assert val == 0.0
    assert clamped == 0


def test_traceability_half_mass_is_ln2():
    gates = np.array([[0.25, 0.25, 0.3, 0.2]])
    val, _, _ = traceability_loss(gates, np.array([1]), 2)  # experts 2, 3: group mass 0.5
    assert abs(val - math.log(2.0)) < 1e-12


def test_traceability_singleton_groups_match_loop_oracle():
    rng = np.random.default_rng(0)
    gates = rng.dirichlet(np.ones(5), size=12)
    sources = rng.integers(0, 3, size=12)
    val, _, _ = traceability_loss(gates, sources, 1)  # source m owns expert m
    expected = -sum(math.log(gates[i, sources[i]]) for i in range(12)) / 12
    assert abs(val - expected) < 1e-12
    # gradient vs finite differences (softmax reparam keeps gates valid)
    logits0 = rng.normal(size=(6, 5))
    src = rng.integers(0, 3, size=6)

    def fn(flat):
        g = softmax(flat.reshape(6, 5))
        v, dg, _ = traceability_loss(g, src, 1)
        from come.numerics import softmax_backward

        return v, softmax_backward(g, dg).ravel()

    assert grad_check(fn, logits0.ravel(), h=1e-5).max_rel_error < 1e-6


def test_traceability_clamps_zero_mass_and_counts():
    gates = np.array([[1.0, 0.0], [0.0, 1.0]])
    # source 1 owns expert 1, so the first token has zero group mass
    val, grad, clamped = traceability_loss(gates, np.ones(2, dtype=int), 1)
    assert clamped == 1
    assert np.isfinite(val)
    assert val >= -0.5 * math.log(GROUP_MASS_EPS) - 1e-9
    assert grad[0, 1] == 0.0  # clamped token contributes a constant


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
            g = softmax(flat.reshape(5, 4))
            v, dg, _ = importance_loss(g)
            from come.numerics import softmax_backward

            return v, softmax_backward(g, dg).ravel()

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
            g = softmax(flat.reshape(4, 5))
            v, dg, _ = load_loss(g)
            from come.numerics import softmax_backward

            return v, softmax_backward(g, dg).ravel()

        assert grad_check(fn, logits0.ravel(), h=1e-5).max_rel_error < 1e-5


# SHA-256 of load_loss's value, d_gates and load vector, each as float64
# bytes, on softmax gates of seeded normal logits with 8 experts.
LOAD_LOSS_DIGESTS = {
    128: (
        "06f63ef702e2fe9caa8e6f76d6b5a82a9074dd99ddc9dae9ce69a41af6727728",
        "d8f3cc4ffcac1e9849252ae4068655ffccb24cd75d0c0207839829cd7711e407",
        "02ba9269050b955590e0fa33bd46fe4dac1e07a5ba070c054d01d4af1c21cc59",
    ),
    1024: (
        "fe6b9c09a3b78ed6d9c70d73b4b0da9f652cb75083c50132380fd30cd236408f",
        "9b48b959b5ef7f2af294314ef1ab34ad54d4095752ecdc9b731db4773dcac076",
        "65b04f477a9041245efdbacf3ebe31b786a1bc5c7203f324679f942daa174406",
    ),
}


@pytest.mark.parametrize("n_tokens", sorted(LOAD_LOSS_DIGESTS))
def test_load_loss_digest_pinned(n_tokens):
    gates = softmax(np.random.default_rng(n_tokens).normal(size=(n_tokens, 8)))
    digests = tuple(
        hashlib.sha256(np.asarray(part, dtype=np.float64).tobytes()).hexdigest()
        for part in load_loss(gates)
    )
    assert digests == LOAD_LOSS_DIGESTS[n_tokens]


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
        v, d_logits = cross_entropy(flat.reshape(4, 3), labels)
        return v, d_logits.ravel()

    assert grad_check(fn, logits0.ravel(), h=1e-5).max_rel_error < 1e-7


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError, match=re.escape(
            "cross_entropy: sample 2 of 2 has label 3, not an integer in [0, n_classes = 3)")):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError, match=re.escape(
            "cross_entropy: sample 1 of 2 has label -1, not an integer in [0, n_classes = 3)")):
        cross_entropy(np.zeros((2, 3)), np.array([-1, 2]))
    with pytest.raises(ValueError, match="shape"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="labels have dtype float64, expected integers"):
        cross_entropy(np.zeros((2, 3)), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="labels have dtype bool, expected integers"):
        cross_entropy(np.zeros((2, 3)), np.array([True, False]))


def test_cross_entropy_of_no_samples_passes_the_label_check():
    with pytest.warns(RuntimeWarning):  # the mean of no losses
        val, d_logits = cross_entropy(np.zeros((0, 3)), np.array([], dtype=np.int64))
    assert math.isnan(val) and d_logits.shape == (0, 3)


# ---------------------------------------------------------------------------
# combined report: the model weights the losses once, in its objective
# ---------------------------------------------------------------------------


def _report(**over):
    """The LossReport of one forward's objective, on a small model with
    ``over`` set and a random router."""
    cfg = config_from_dict({
        "data": {"n_sources": 2, "width": 6, "tokens_per_sample": 3, "n_classes": 3,
                 "shared_rank": 2, "source_rank": 1, "source_weights": [1.0, 1.0]},
        "model": {"heads": 2, "n_experts": 4},
        "clustering": {"fine_clusters": 4, "coarse_clusters": 2},
        "router": {"top_k": 2},
    })
    cfg = apply_overrides(cfg, [f"{key}={value}" for key, value in over.items()])
    rng = np.random.default_rng(3)
    batch = TokenBatch(tokens=rng.normal(size=(4, 3, 6)), sources=np.array([0, 1, 1, 0]),
                       labels=np.array([0, 2, 1, 1]))
    model = ComeModel.build(cfg)
    if "router.w" in model.params:  # the zero init gives uniform gates and zero balance losses
        model.params["router.w"] = np.random.default_rng(5).normal(size=(4, 6))
    state = model.forward(batch, cluster_rng=np.random.default_rng(4))
    routing = (state.gates, batch.token_sources) if state.gates is not None else ()
    return model.objective(state.logits, batch.labels, *routing)[0]


def test_report_total_is_stated_weighted_sum():
    defaults = LossConfig()
    for w_tb, w_bal, rep in (
        (defaults.tb_weight, defaults.balance_weight, _report()),
        (0.5, 0.3, _report(**{"losses.tb_weight": 0.5, "losses.balance_weight": 0.3})),
    ):
        assert rep.l_tb > 0 and rep.l_ip > 0 and rep.l_load > 0
        assert rep.total == rep.task_ce + w_tb * rep.l_tb + w_bal * (rep.l_ip + rep.l_load)


def test_report_zero_aux_weights_reduce_to_task():
    rep = _report(**{"losses.tb_weight": 0.0, "losses.balance_weight": 0.0})
    assert rep.l_tb > 0 and rep.l_ip > 0 and rep.l_load > 0
    assert rep.total == rep.task_ce


def test_report_balance_contribution_is_linear_in_weight():
    lo = _report(**{"losses.tb_weight": 0.0, "losses.balance_weight": 0.1})
    hi = _report(**{"losses.tb_weight": 0.0, "losses.balance_weight": 0.2})
    # the weights move the total only: every loss part is the same
    assert (lo.task_ce, lo.l_tb, lo.l_ip, lo.l_load) == (hi.task_ce, hi.l_tb, hi.l_ip, hi.l_load)
    for w, rep in ((0.1, lo), (0.2, hi)):
        assert rep.total == rep.task_ce + 0.0 * rep.l_tb + w * (rep.l_ip + rep.l_load)


@pytest.mark.parametrize("w_tb, w_bal", [(1.0, 0.1), (0.5, 0.3), (0.0, 0.0)])
def test_dense_report_total_is_task_whatever_the_weights(w_tb, w_bal):
    rep = _report(**{"model.arch": "dense", "losses.tb_weight": w_tb,
                     "losses.balance_weight": w_bal})
    assert rep.total == rep.task_ce
    assert (rep.l_tb, rep.l_ip, rep.l_load) == (0.0, 0.0, 0.0)


def test_losses_are_nonnegative_on_random_gates():
    rng = np.random.default_rng(7)
    for _ in range(25):
        gates = rng.dirichlet(np.ones(4), size=9)
        sources = rng.integers(0, 2, size=9)
        v_tb, _, _ = traceability_loss(gates, sources, 2)
        v_ip, _, _ = importance_loss(gates)
        v_ld, _, _ = load_loss(gates)
        assert v_tb >= 0.0 and v_ip >= 0.0 and v_ld >= 0.0
