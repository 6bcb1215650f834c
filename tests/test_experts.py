import numpy as np
import pytest

from come.experts import (
    aggregate_features,
    dr_backward,
    dr_forward,
    expert_group_map,
    expert_mixture_backward,
    expert_mixture_forward,
    ffn_forward,
    frozen_digest,
    frozen_forward,
    init_dim_reduction,
    init_expert_bank,
    make_frozen_expert,
)
from come.numerics import grad_check
from come.router import build_dispatch


def _bank(n_experts=3, width=6, hidden=8, seed=0):
    return init_expert_bank(n_experts, width, hidden, np.random.default_rng(seed))


def _full_plan(n_tokens, n_experts):
    # every token admitted to every expert (K = n_experts, huge capacity)
    sel = np.tile(np.arange(n_experts), (n_tokens, 1))
    return build_dispatch(sel, n_experts, capacity_factor=float(n_experts) * 10)


# ---------------------------------------------------------------------------
# frozen shared experts
# ---------------------------------------------------------------------------


def test_frozen_zero_input_gives_bias_image():
    e = make_frozen_expert("structure", 6, seed=3)
    out = frozen_forward(e, np.zeros((4, 6)))
    np.testing.assert_allclose(out, np.tile(np.tanh(e.bias), (4, 1)), atol=1e-15)


def test_frozen_is_deterministic_and_kind_seeded():
    x = np.random.default_rng(0).normal(size=(5, 6))
    a = make_frozen_expert("structure", 6, seed=3)
    b = make_frozen_expert("structure", 6, seed=3)
    np.testing.assert_array_equal(frozen_forward(a, x), frozen_forward(b, x))
    assert frozen_digest(a) == frozen_digest(b)
    sem = make_frozen_expert("semantic", 6, seed=4)
    assert frozen_digest(sem) != frozen_digest(a)
    assert not np.allclose(sem.weight, a.weight)


def test_frozen_params_are_read_only():
    e = make_frozen_expert("semantic", 4, seed=1)
    with pytest.raises(ValueError):
        e.weight[0, 0] = 1.0


def test_frozen_rejects_bad_kind_and_width():
    with pytest.raises(ValueError, match="kind"):
        make_frozen_expert("texture", 4, seed=0)
    e = make_frozen_expert("structure", 4, seed=0)
    with pytest.raises(ValueError, match="width"):
        frozen_forward(e, np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# expert groups
# ---------------------------------------------------------------------------


def _owned(mask):
    """The ownership mask as {source: owned expert ids}."""
    return {m: tuple(np.flatnonzero(row).tolist()) for m, row in enumerate(mask)}


def test_group_map_disjoint_and_sized():
    groups = _owned(expert_group_map(8, 4))
    assert groups == {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)}
    all_owned = [e for g in groups.values() for e in g]
    assert len(all_owned) == len(set(all_owned)) == 4 * (8 // 4)


def test_group_map_remainder_experts_unowned():
    groups = _owned(expert_group_map(10, 4))
    owned = {e for g in groups.values() for e in g}
    assert owned == set(range(8))  # experts 8, 9 unowned


def test_group_map_singletons_when_counts_match():
    groups = _owned(expert_group_map(8, 8))
    assert all(len(g) == 1 for g in groups.values())


# ---------------------------------------------------------------------------
# dimension reduction
# ---------------------------------------------------------------------------


def test_dr_identity_init_passes_tokens_through():
    params = init_dim_reduction(6)
    rng = np.random.default_rng(9)
    attended = rng.normal(size=(10, 6))
    feats = rng.normal(size=(10, 6))
    out, _ = dr_forward(attended, feats, params)
    np.testing.assert_array_equal(out, attended)


def test_dr_single_cluster_varies_only_through_token_branch():
    params = init_dim_reduction(4)
    params["dr.w"] = np.random.default_rng(10).normal(size=(8, 4))
    attended = np.random.default_rng(11).normal(size=(6, 4))
    shared_feat = np.ones((6, 4)) * 0.3
    out, _ = dr_forward(attended, shared_feat, params)
    out2, _ = dr_forward(attended + 1.0, shared_feat, params)
    delta = out2 - out
    expected = np.ones((6, 4)) @ params["dr.w"][:4]
    np.testing.assert_allclose(delta, expected, atol=1e-12)


def test_dr_rejects_shape_mismatch():
    params = init_dim_reduction(4)
    with pytest.raises(ValueError, match="differ"):
        dr_forward(np.zeros((3, 4)), np.zeros((4, 4)), params)


def test_dr_param_and_token_grads_pass_grad_check():
    width = 4
    rng = np.random.default_rng(12)
    attended = rng.normal(size=(5, width))
    feats = rng.normal(size=(5, width))
    proj = rng.normal(size=(5, width))
    w0 = rng.normal(size=(2 * width, width))
    b0 = rng.normal(size=width)

    def fn(theta):
        params = {
            "dr.w": theta[: 2 * width * width].reshape(2 * width, width),
            "dr.b": theta[2 * width * width :],
        }
        out, cache = dr_forward(attended, feats, params)
        val = float(np.sum(out * proj))
        _, grads = dr_backward(proj, cache, params)
        return val, np.concatenate([grads["dr.w"].ravel(), grads["dr.b"]])

    theta0 = np.concatenate([w0.ravel(), b0])
    assert grad_check(fn, theta0, h=1e-5).max_rel_error < 1e-4

    # token-branch gradient, cluster features held constant
    params = {"dr.w": w0, "dr.b": b0}

    def fn_tokens(flat):
        a = flat.reshape(5, width)
        out, cache = dr_forward(a, feats, params)
        val = float(np.sum(out * proj))
        d_attended, _ = dr_backward(proj, cache, params)
        return val, d_attended.ravel()

    assert grad_check(fn_tokens, attended.ravel(), h=1e-5).max_rel_error < 1e-6


# ---------------------------------------------------------------------------
# routed mixture
# ---------------------------------------------------------------------------


def test_mixture_single_expert_unit_gate_is_plain_ffn():
    bank = _bank(n_experts=2)
    x = np.random.default_rng(13).normal(size=(5, 6))
    sel = np.zeros((5, 1), dtype=np.int64)
    plan = build_dispatch(sel, 2, capacity_factor=10.0)
    gates = np.zeros((5, 2))
    gates[:, 0] = 1.0
    out, _ = expert_mixture_forward(bank, 2, plan, x, gates)
    expected, _ = ffn_forward(bank, "expert.0", x)
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_mixture_zero_weights_give_zero_output():
    bank = _bank()
    bank = {key: np.zeros_like(value) for key, value in bank.items()}
    x = np.random.default_rng(14).normal(size=(4, 6))
    plan = _full_plan(4, 3)
    gates = np.full((4, 3), 1 / 3)
    out, _ = expert_mixture_forward(bank, 3, plan, x, gates)
    assert np.all(out == 0.0)


def test_mixture_matches_naive_loop_oracle():
    bank = _bank(n_experts=4, width=5, hidden=7, seed=15)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(9, 5))
    gates = rng.dirichlet(np.ones(4), size=9)
    from come.router import topk_select

    sel = topk_select(gates, 2)
    plan = build_dispatch(sel, 4, capacity_factor=1.25)
    out, _ = expert_mixture_forward(bank, 4, plan, x, gates)

    expected = np.zeros_like(x)
    for t in range(9):
        for s in range(2):
            if plan.admitted[t, s]:
                j = sel[t, s]
                y, _ = ffn_forward(bank, f"expert.{j}", x[t : t + 1])
                expected[t] += gates[t, j] * y[0]
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_mixture_rejects_mismatched_plan():
    bank = _bank(n_experts=3)
    plan = _full_plan(4, 2)
    gates = np.full((4, 3), 1 / 3)
    with pytest.raises(ValueError, match="plan"):
        expert_mixture_forward(bank, 3, plan, np.zeros((4, 6)), gates)
    plan = _full_plan(5, 3)
    with pytest.raises(ValueError, match="tokens"):
        expert_mixture_forward(bank, 3, plan, np.zeros((4, 6)), np.full((4, 3), 1 / 3))


def test_mixture_backward_passes_grad_check():
    n_experts, width, hidden, n_tok = 3, 4, 5, 6
    bank = _bank(n_experts, width, hidden, seed=17)
    rng = np.random.default_rng(18)
    x = rng.normal(size=(n_tok, width))
    gates = rng.dirichlet(np.ones(n_experts), size=n_tok)
    from come.router import topk_select

    plan = build_dispatch(topk_select(gates, 2), n_experts, capacity_factor=1.0)  # some overflow
    proj = rng.normal(size=(n_tok, width))
    names = sorted(bank)

    def fn(theta):
        params = {}
        off = 0
        for n in names:
            size = bank[n].size
            params[n] = theta[off : off + size].reshape(bank[n].shape)
            off += size
        out, cache = expert_mixture_forward(params, n_experts, plan, x, gates)
        val = float(np.sum(out * proj))
        _, _, grads = expert_mixture_backward(proj, cache, params)
        flat = np.concatenate(
            [grads.get(n, np.zeros_like(bank[n])).ravel() for n in names]
        )
        return val, flat

    theta0 = np.concatenate([bank[n].ravel() for n in names])
    assert grad_check(fn, theta0, h=1e-5).max_rel_error < 1e-4


def test_mixture_gate_gradient_nonzero_only_on_admitted_pairs():
    bank = _bank(n_experts=2, width=4, hidden=6, seed=19)
    rng = np.random.default_rng(20)
    x = rng.normal(size=(6, 4))
    # all tokens pick expert 0; capacity forces overflow on the later ones
    sel = np.zeros((6, 1), dtype=np.int64)
    plan = build_dispatch(sel, 2, capacity_factor=0.5)
    assert plan.n_overflow > 0
    gates = np.zeros((6, 2))
    gates[:, 0] = 1.0
    out, cache = expert_mixture_forward(bank, 2, plan, x, gates)
    _, d_gates, _ = expert_mixture_backward(np.ones_like(out), cache, bank)
    for t in np.nonzero(~plan.admitted[:, 0])[0]:
        assert d_gates[t, 0] == 0.0
        assert np.all(out[t] == 0.0)
    admitted_rows = plan.expert_tokens[0]
    assert np.all(d_gates[admitted_rows, 0] != 0.0)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_aggregate_reduces_to_shared_sum_without_routing():
    rng = np.random.default_rng(21)
    st, se = rng.normal(size=(2, 4, 6))
    np.testing.assert_array_equal(aggregate_features(st, se, np.zeros((4, 6))), st + se)


def test_aggregate_passes_routed_through_alone():
    routed = np.random.default_rng(22).normal(size=(3, 5))
    z = np.zeros((3, 5))
    np.testing.assert_array_equal(aggregate_features(z, z, routed), routed)


def test_aggregate_matches_per_element_sum_and_residual():
    rng = np.random.default_rng(23)
    a, b, c = rng.normal(size=(3, 7, 4))
    out = aggregate_features(a, b, c)
    for i in range(7):
        for j in range(4):
            assert out[i, j] == a[i, j] + b[i, j] + c[i, j]
    assert np.max(np.abs(out - a - b - c)) < 1e-15


def test_aggregate_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        aggregate_features(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 2)))
