import math
import re
import sys

import numpy as np
import pytest

from come.experts import init_expert_bank
from come.numerics import grad_check, softmax
from come.router import (
    build_dispatch,
    dispatch_capacity,
    gate_backward,
    gate_forward,
    topk_select,
)


def _router(n_experts=4, width=5, seed=None):
    if seed is None:
        return {"router.w": np.zeros((n_experts, width)), "router.b": np.zeros(n_experts)}
    rng = np.random.default_rng(seed)
    return {"router.w": rng.normal(size=(n_experts, width)),
            "router.b": rng.normal(size=n_experts)}


def _theta_router(theta, n_experts, width):
    return {"router.w": theta[: n_experts * width].reshape(n_experts, width),
            "router.b": theta[n_experts * width :]}


def _theta0(router):
    return np.concatenate([router["router.w"].ravel(), router["router.b"]])


def _grad_vector(grads):
    return np.concatenate([grads["router.w"].ravel(), grads["router.b"]])


# ---------------------------------------------------------------------------
# gating
# ---------------------------------------------------------------------------


def test_zero_router_gives_uniform_gates():
    router = _router(n_experts=8, width=3)
    x = np.random.default_rng(0).normal(size=(5, 3))
    gates = gate_forward(x, router)
    np.testing.assert_allclose(gates, 1.0 / 8, atol=1e-15)


def test_gate_rows_sum_to_one():
    router = _router(seed=1)
    x = np.random.default_rng(2).normal(size=(20, 5)) * 50
    gates = gate_forward(x, router)
    np.testing.assert_allclose(gates.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# top-k selection
# ---------------------------------------------------------------------------


def test_topk_direct_example():
    g = np.array([[0.5, 0.3, 0.15, 0.05]])
    idx = topk_select(g, 2)
    np.testing.assert_array_equal(idx, [[0, 1]])


def test_topk_all_experts_weights_sum_to_one():
    g = softmax(np.random.default_rng(7).normal(size=(6, 4)))
    idx = topk_select(g, 4)
    assert np.all(np.sort(idx, axis=1) == np.arange(4))
    np.testing.assert_allclose(np.take_along_axis(g, idx, axis=1).sum(axis=1), 1.0, atol=1e-12)


def test_topk_tie_breaks_to_lowest_index():
    g = np.full((1, 4), 0.25)
    assert topk_select(g, 1)[0, 0] == 0
    idx2 = topk_select(g, 3)
    np.testing.assert_array_equal(idx2[0], [0, 1, 2])


def test_top1_is_the_stable_sort_pick_on_exact_ties():
    rng = np.random.default_rng(9)
    tied = rng.dirichlet(np.ones(3), size=5)[:, [0, 1, 1, 2, 0]]  # equal column pairs
    tied[0] = [0.3, 0.3, 0.1, 0.3, 0.0]  # the largest gate three times
    for gates in (np.full((4, 5), 0.2), np.array([[0.5, 0.5], [0.0, 0.0]]), tied):
        expected = np.argsort(-gates, axis=1, kind="stable")[:, :1]
        picked = topk_select(gates, 1)
        assert picked.shape == expected.shape and np.array_equal(picked, expected)


def test_topk_invariant_to_per_row_constant_logit_shift():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(10, 6))
    g1 = softmax(logits)
    g2 = softmax(logits + rng.normal(size=(10, 1)))
    idx1 = topk_select(g1, 3)
    idx2 = topk_select(g2, 3)
    np.testing.assert_array_equal(idx1, idx2)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def test_capacity_arithmetic_examples():
    assert dispatch_capacity(64, 1, 8, 1.25) == 10
    assert dispatch_capacity(20, 1, 8, 1.25) == 4


def test_capacity_of_an_overflowing_product_admits_every_token():
    # f N K / E is inf in float arithmetic, and ceil(inf) raises OverflowError
    assert dispatch_capacity(128, 1, 8, 1e308) == 128
    assert dispatch_capacity(64, 2, 8, sys.float_info.max) == 64
    plan = build_dispatch(np.zeros((5, 1), dtype=np.int64), 2, 1e308)
    assert plan.capacity == 5
    assert np.count_nonzero(~plan.admitted) == 0


def test_all_tokens_one_expert_overflow_accounting():
    sel = np.zeros((20, 1), dtype=np.int64)
    plan = build_dispatch(sel, 8, capacity_factor=1.25)
    assert plan.capacity == 4
    assert plan.expert_tokens[0].size == 4
    np.testing.assert_array_equal(plan.expert_tokens[0], [0, 1, 2, 3])  # ascending order
    assert np.count_nonzero(~plan.admitted) == 16
    np.testing.assert_array_equal(np.nonzero(~plan.admitted)[0], np.arange(4, 20))


def test_uniform_routing_has_no_overflow():
    n_experts, per = 4, 6
    sel = np.repeat(np.arange(n_experts), per)[:, None]
    plan = build_dispatch(sel, n_experts, 1.0)
    assert np.count_nonzero(~plan.admitted) == 0
    np.testing.assert_array_equal(plan.utilization(), per)


def test_capacity_never_violated_randomized():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        n_tokens = int(rng.integers(1, 64))
        n_experts = int(rng.integers(1, 10))
        k = int(rng.integers(1, n_experts + 1))
        f = float(rng.choice([0.5, 1.0, 1.25, 2.0, rng.uniform(0.1, 3.0)]))
        gates = rng.dirichlet(np.ones(n_experts), size=n_tokens)
        sel = topk_select(gates, k)
        plan = build_dispatch(sel, n_experts, f)
        cap = math.ceil(f * n_tokens * k / n_experts)
        assert plan.capacity == cap
        assert np.all(plan.utilization() <= cap)
        # reference: walk the pairs in token order, admitting while the expert has room
        seen = np.zeros(n_experts, dtype=int)
        expected = np.zeros_like(sel, dtype=bool)
        for t, s in np.ndindex(*sel.shape):
            expected[t, s] = seen[sel[t, s]] < cap
            seen[sel[t, s]] += 1
        np.testing.assert_array_equal(plan.admitted, expected)
        assert np.count_nonzero(~plan.admitted) == np.count_nonzero(~expected)


@pytest.mark.parametrize("selection, entry", [([[0], [5]], 5), ([[0], [-1]], -1),
                                              ([[2, 1], [0, 1]], 2)],
                         ids=["past-the-end", "negative", "equal-to-count"])
def test_dispatch_rejects_a_selection_entry_outside_the_experts(selection, entry):
    with pytest.raises(ValueError, match=re.escape(
            f"build_dispatch: selection entry {entry} is outside [0, 2), the 2 experts")):
        build_dispatch(np.array(selection), 2, 1.25)


def test_dispatch_deterministic():
    rng = np.random.default_rng(10)
    gates = rng.dirichlet(np.ones(5), size=30)
    sel = topk_select(gates, 2)
    p1 = build_dispatch(sel, 5, 1.25)
    p2 = build_dispatch(sel, 5, 1.25)
    np.testing.assert_array_equal(p1.admitted, p2.admitted)
    assert [tuple(t) for t in p1.expert_tokens] == [tuple(t) for t in p2.expert_tokens]


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_gate_backward_passes_grad_check():
    router = _router(n_experts=4, width=5, seed=12)
    rng = np.random.default_rng(13)
    x = rng.normal(size=(6, 5))
    proj = rng.normal(size=(6, 4))

    def fn(theta):
        r = _theta_router(theta, 4, 5)
        gates = gate_forward(x, r)
        val = float(np.sum(gates * proj))
        _, grads = gate_backward(proj, x, gates, r)
        return val, _grad_vector(grads)

    assert grad_check(fn, _theta0(router), h=1e-5).max_rel_error < 1e-5


def test_unmasked_mixture_gradient_matches_full_softmax_mixture():
    # K = n_experts and huge capacity: nothing is masked, so the analytic
    # gradient must match finite differences of the plain mixture
    n_experts, width, n_tok = 3, 4, 5
    bank = init_expert_bank(n_experts, width, 6, np.random.default_rng(14))
    rng = np.random.default_rng(15)
    x = rng.normal(size=(n_tok, width))
    proj = rng.normal(size=(n_tok, width))
    router0 = _router(n_experts, width, seed=16)

    from come.experts import expert_mixture_backward, expert_mixture_forward

    def fn(theta):
        r = _theta_router(theta, n_experts, width)
        gates = gate_forward(x, r)
        plan = build_dispatch(topk_select(gates, n_experts), n_experts, 100.0)
        out, saved = expert_mixture_forward(bank, plan, x, gates)
        val = float(np.sum(out * proj))
        _, d_gates, _ = expert_mixture_backward(proj, saved, gates, bank)
        _, grads = gate_backward(d_gates, x, gates, r)
        return val, _grad_vector(grads)

    assert grad_check(fn, _theta0(router0), h=1e-5).max_rel_error < 1e-4


def test_masked_mixture_gradient_with_fixed_mask():
    # random masked case: hold selection and admission fixed, check the
    # router gradient against finite differences of the masked function
    n_experts, width, n_tok, k = 4, 3, 8, 2
    bank = init_expert_bank(n_experts, width, 5, np.random.default_rng(17))
    rng = np.random.default_rng(18)
    x = rng.normal(size=(n_tok, width))
    proj = rng.normal(size=(n_tok, width))
    router0 = _router(n_experts, width, seed=19)
    gates0 = gate_forward(x, router0)
    plan = build_dispatch(topk_select(gates0, k), n_experts, 1.0)
    assert np.count_nonzero(~plan.admitted) > 0

    from come.experts import expert_mixture_backward, expert_mixture_forward

    def fn(theta):
        r = _theta_router(theta, n_experts, width)
        gates = gate_forward(x, r)
        out, saved = expert_mixture_forward(bank, plan, x, gates)
        val = float(np.sum(out * proj))
        _, d_gates, _ = expert_mixture_backward(proj, saved, gates, bank)
        _, grads = gate_backward(d_gates, x, gates, r)
        return val, _grad_vector(grads)

    assert grad_check(fn, _theta0(router0), h=1e-5).max_rel_error < 1e-4


def test_gate_backward_rejects_cache_mismatch():
    router = _router(n_experts=3, width=4)
    with pytest.raises(Exception):
        gate_backward(np.zeros((3, 3)), np.zeros((2, 4)), np.full((2, 3), 1 / 3), router)
