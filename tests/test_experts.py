import numpy as np
import pytest

from come.experts import (
    dr_backward,
    dr_forward,
    expert_mixture_backward,
    expert_mixture_forward,
    ffn_forward,
    frozen_forward,
    init_dim_reduction,
    init_expert_bank,
    init_frozen,
)
from come.losses import traceability_loss
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


def _frozen(kind="structure", width=6, seed=3):
    return init_frozen(kind, width, np.random.default_rng(seed))


def test_frozen_zero_input_gives_bias_image():
    frozen = _frozen()
    out = frozen_forward(frozen, "structure", np.zeros((4, 6)))
    np.testing.assert_allclose(out, np.tile(np.tanh(frozen["frozen.structure.b"]), (4, 1)),
                               atol=1e-15)


def test_frozen_is_deterministic_and_kind_seeded():
    x = np.random.default_rng(0).normal(size=(5, 6))
    a = _frozen(seed=3)
    b = _frozen(seed=3)
    np.testing.assert_array_equal(frozen_forward(a, "structure", x),
                                  frozen_forward(b, "structure", x))
    sem = _frozen("semantic", seed=4)
    assert sorted(sem) == ["frozen.semantic.b", "frozen.semantic.w"]
    assert not np.allclose(sem["frozen.semantic.w"], a["frozen.structure.w"])


def test_frozen_params_are_read_only():
    frozen = _frozen("semantic", width=4, seed=1)
    for arr in frozen.values():
        with pytest.raises(ValueError):
            arr[0] = 1.0


# ---------------------------------------------------------------------------
# expert groups, as traceability's gradient reads them
# ---------------------------------------------------------------------------


def _owned(n_experts, n_sources):
    """{source: the gate columns on which its tokens get traceability
    gradient}, with every source present three times in shuffled order."""
    rng = np.random.default_rng(n_experts * 100 + n_sources)
    sources = rng.permutation(np.repeat(np.arange(n_sources), 3))
    gates = rng.dirichlet(np.ones(n_experts), size=sources.size)
    _, d_gates, clamped = traceability_loss(gates, sources, n_experts // n_sources)
    assert clamped == 0
    columns = {}
    for src, row in zip(sources.tolist(), d_gates):
        cols = tuple(np.flatnonzero(row).tolist())
        assert columns.setdefault(src, cols) == cols  # one block per source
    return columns


def test_group_map_disjoint_and_sized():
    groups = _owned(8, 4)
    assert groups == {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)}
    all_owned = [e for g in groups.values() for e in g]
    assert len(all_owned) == len(set(all_owned)) == 4 * (8 // 4)


def test_group_map_remainder_experts_unowned():
    groups = _owned(10, 4)
    assert groups == {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)}  # experts 8, 9 unowned
    groups = _owned(11, 4)
    assert {e for g in groups.values() for e in g} == set(range(8))  # 8, 9, 10 unowned


def test_group_map_singletons_when_counts_match():
    assert _owned(8, 8) == {m: (m,) for m in range(8)}
    assert _owned(5, 3) == {0: (0,), 1: (1,), 2: (2,)}  # experts 3, 4 unowned


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
        out, concat = dr_forward(attended, feats, params)
        val = float(np.sum(out * proj))
        _, grads = dr_backward(proj, concat, params)
        return val, np.concatenate([grads["dr.w"].ravel(), grads["dr.b"]])

    theta0 = np.concatenate([w0.ravel(), b0])
    assert grad_check(fn, theta0, h=1e-5).max_rel_error < 1e-4

    # token-branch gradient, cluster features held constant
    params = {"dr.w": w0, "dr.b": b0}

    def fn_tokens(flat):
        a = flat.reshape(5, width)
        out, concat = dr_forward(a, feats, params)
        val = float(np.sum(out * proj))
        d_attended, _ = dr_backward(proj, concat, params)
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
    out, _ = expert_mixture_forward(bank, plan, x, gates)
    expected, _ = ffn_forward(bank, "expert.0", x)
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_mixture_zero_weights_give_zero_output():
    bank = _bank()
    bank = {key: np.zeros_like(value) for key, value in bank.items()}
    x = np.random.default_rng(14).normal(size=(4, 6))
    plan = _full_plan(4, 3)
    gates = np.full((4, 3), 1 / 3)
    out, _ = expert_mixture_forward(bank, plan, x, gates)
    assert np.all(out == 0.0)


def test_mixture_matches_naive_loop_oracle():
    bank = _bank(n_experts=4, width=5, hidden=7, seed=15)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(9, 5))
    gates = rng.dirichlet(np.ones(4), size=9)
    from come.router import topk_select

    sel = topk_select(gates, 2)
    plan = build_dispatch(sel, 4, capacity_factor=1.25)
    out, _ = expert_mixture_forward(bank, plan, x, gates)

    expected = np.zeros_like(x)
    for t in range(9):
        for s in range(2):
            if plan.admitted[t, s]:
                j = sel[t, s]
                y, _ = ffn_forward(bank, f"expert.{j}", x[t : t + 1])
                expected[t] += gates[t, j] * y[0]
    np.testing.assert_allclose(out, expected, atol=1e-12)


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
        out, saved = expert_mixture_forward(params, plan, x, gates)
        val = float(np.sum(out * proj))
        _, _, grads = expert_mixture_backward(proj, saved, gates, params)
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
    out, saved = expert_mixture_forward(bank, plan, x, gates)
    _, d_gates, _ = expert_mixture_backward(np.ones_like(out), saved, gates, bank)
    for t in np.nonzero(~plan.admitted[:, 0])[0]:
        assert d_gates[t, 0] == 0.0
        assert np.all(out[t] == 0.0)
    admitted_rows = plan.expert_tokens[0]
    assert np.all(d_gates[admitted_rows, 0] != 0.0)
