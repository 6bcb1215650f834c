import numpy as np
import pytest

import come.model
from come.config import apply_overrides, config_from_dict
from come.datagen import TokenBatch, generate
from come.harness import ABLATION_VARIANTS
from come.model import ComeModel, component_grad_check, matched_dense_hidden
from come.numerics import AdamWState, adamw_step


def _cfg(**over):
    cfg = config_from_dict(
        {
            "seed": 0,
            "data": {
                "n_sources": 2,
                "width": 6,
                "tokens_per_sample": 3,
                "n_classes": 3,
                "shared_rank": 2,
                "source_rank": 1,
                "n_samples": 40,
                "source_weights": [1.0, 1.0],
            },
            "model": {"heads": 2, "n_experts": 4},
            "clustering": {"fine_clusters": 4, "coarse_clusters": 2},
            "router": {"top_k": 2, "capacity_factor": 1.25},
        }
    )
    for dotted, value in over.items():
        section, key = dotted.split(".")
        setattr(getattr(cfg, section), key, value)
    return cfg


def _batch(cfg, seed=0, b=2):
    rng = np.random.default_rng(seed)
    t, d = cfg.data.tokens_per_sample, cfg.data.width
    return TokenBatch(
        tokens=rng.normal(size=(b, t, d)),
        sources=rng.integers(0, cfg.data.n_sources, size=b),
        labels=rng.integers(0, cfg.data.n_classes, size=b),
    )


def _forward(model, batch, seed=1):
    return model.forward(batch, cluster_rng=np.random.default_rng(seed))


def _preset(name):
    return apply_overrides(_cfg(), ABLATION_VARIANTS[name])


def _counting(monkeypatch, name):
    """Wrap ``come.model.<name>`` so each call records its first argument."""
    calls = []
    original = getattr(come.model, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(come.model, name, wrapper)
    return calls


def test_forward_shapes_and_finiteness():
    cfg = _cfg()
    model = ComeModel.build(cfg)
    batch = _batch(cfg, b=3)
    state = _forward(model, batch)
    gates = state.body.gate.gates
    assert state.pooled.shape == (3, 6)
    assert gates.shape == (9, 4)
    assert state.predictions.shape == (3,)
    assert np.isfinite(state.report.total)
    np.testing.assert_allclose(gates.sum(axis=1), 1.0, atol=1e-12)


def test_forward_deterministic_given_rng():
    cfg = _cfg()
    model = ComeModel.build(cfg)
    batch = _batch(cfg)
    s1 = _forward(model, batch, seed=3)
    s2 = _forward(model, batch, seed=3)
    np.testing.assert_array_equal(s1.body.gate.gates, s2.body.gate.gates)
    np.testing.assert_array_equal(s1.plan.admitted, s2.plan.admitted)
    assert s1.report.total == s2.report.total


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_forward_rejects_empty_batches(arch, monkeypatch):
    cfg = _cfg(**{"model.arch": arch})
    model = ComeModel.build(cfg)
    attention_calls = _counting(monkeypatch, "attention_forward")
    dataset = generate(cfg.data.generator(), cfg.data.seed)
    with pytest.raises(ValueError, match=r"empty batch of shape \(0, 3, 6\)"):
        _forward(model, dataset.take([]))
    with pytest.raises(ValueError, match=r"empty batch of shape \(2, 0, 6\)"):
        _forward(model, TokenBatch(np.zeros((2, 0, 6)), np.zeros(2, np.int64), np.zeros(2, np.int64)))
    assert attention_calls == []


def test_no_dse_disables_both_shared_streams(monkeypatch):
    calls = _counting(monkeypatch, "frozen_forward")
    full = ComeModel.build(_cfg())
    _forward(full, _batch(full.cfg))
    assert [e.kind for e in calls] == ["structure", "semantic"]
    calls.clear()
    for name, kinds in (("no_ste", ["semantic"]), ("no_see", ["structure"]), ("no_dse", [])):
        model = ComeModel.build(_preset(name))
        state = _forward(model, _batch(model.cfg))
        assert [e.kind for e in calls] == kinds, name
        assert np.isfinite(state.report.total)
        calls.clear()


def test_no_clustering_equals_fine2coarse_at_initialization(monkeypatch):
    # the dimension reduction starts as [I | 0], so the cluster branch is
    # inert at step 0 and the two configs produce identical forwards
    calls = _counting(monkeypatch, "fine2coarse")
    base = ComeModel.build(_cfg())
    ablated = ComeModel.build(_preset("no_clustering"))
    batch = _batch(base.cfg, b=3)
    s_base = _forward(base, batch, seed=5)
    assert len(calls) == 1
    s_abl = _forward(ablated, batch, seed=5)
    assert len(calls) == 1
    np.testing.assert_array_equal(s_base.body.gate.gates, s_abl.body.gate.gates)
    np.testing.assert_array_equal(s_base.pooled, s_abl.pooled)
    assert s_base.report.total == s_abl.report.total
    assert np.all(s_abl.body.dr.concat[:, base.width :] == 0)


def test_no_tb_zeroes_the_traceability_weight_but_reports_value():
    cfg = _preset("no_tb")
    model = ComeModel.build(cfg)
    state = _forward(model, _batch(cfg))
    assert state.report.tb_weight == 0.0
    assert state.report.l_tb >= 0.0
    expected = state.report.task_ce + 0.1 * (state.report.l_ip + state.report.l_load)
    assert abs(state.report.total - expected) < 1e-12


@pytest.mark.parametrize(
    "component", ["attention", "dim_reduction", "router", "experts", "classifier"]
)
def test_component_gradients(component):
    cfg = _cfg()
    model = ComeModel.build(cfg)
    batch = _batch(cfg, seed=11, b=2)
    res = component_grad_check(
        model, batch, component, h=1e-5, cluster_rng=np.random.default_rng(2)
    )
    assert res.max_rel_error < 1e-4, f"{component}: {res.max_rel_error}"


def test_gradients_with_renormalize():
    cfg = _cfg(**{"router.renormalize_topk": True})
    model = ComeModel.build(cfg)
    batch = _batch(cfg, seed=13, b=2)
    for component in ("router", "experts"):
        res = component_grad_check(
            model, batch, component, h=1e-5, cluster_rng=np.random.default_rng(3)
        )
        assert res.max_rel_error < 1e-4, f"{component}: {res.max_rel_error}"


def test_gradients_with_attention_residual():
    cfg = _cfg(**{"model.attention_residual": True})
    model = ComeModel.build(cfg)
    batch = _batch(cfg, seed=17, b=2)
    res = component_grad_check(
        model, batch, "attention", h=1e-5, cluster_rng=np.random.default_rng(4)
    )
    assert res.max_rel_error < 1e-4


def test_frozen_digests_survive_training_steps():
    cfg = _cfg()
    model = ComeModel.build(cfg)
    before = model.frozen_digests()
    opt = AdamWState(lr=1e-2)
    for step in range(5):
        batch = _batch(cfg, seed=20 + step)
        _, grads = model.loss_and_grads(batch, cluster_rng=np.random.default_rng(step))
        adamw_step(model.params, grads, opt)
    assert model.frozen_digests() == before


def test_training_steps_reduce_loss():
    cfg = _cfg()
    model = ComeModel.build(cfg)
    batch = _batch(cfg, seed=30, b=8)
    opt = AdamWState(lr=5e-3)
    first = _forward(model, batch, seed=7).report.total
    for step in range(60):
        _, grads = model.loss_and_grads(batch, cluster_rng=np.random.default_rng(7))
        adamw_step(model.params, grads, opt)
    last = _forward(model, batch, seed=7).report.total
    assert last < first


def test_checkpoint_roundtrip_and_validation(tmp_path):
    cfg = _cfg()
    model = ComeModel.build(cfg)
    path = model.save(tmp_path / "m.come")
    loaded = ComeModel.from_checkpoint(cfg, path)
    assert loaded.parameter_digest() == model.parameter_digest()
    assert loaded.frozen_digests() == model.frozen_digests()
    bad_cfg = _cfg(**{"model.n_experts": 3, "router.top_k": 2})
    with pytest.raises(ValueError, match="do not match"):
        ComeModel.from_checkpoint(bad_cfg, path)


def test_dense_architecture_forward_backward():
    cfg = _cfg(**{"model.arch": "dense"})
    model = ComeModel.build(cfg)
    batch = _batch(cfg, seed=40, b=3)
    state = model.forward(batch)
    assert state.report.l_tb == 0.0 and state.report.total == state.report.task_ce
    for component in ("attention", "dense", "classifier"):
        res = component_grad_check(model, batch, component, h=1e-5)
        assert res.max_rel_error < 1e-4, f"{component}: {res.max_rel_error}"


def test_matched_dense_hidden_accounting():
    cfg = _cfg(**{"router.top_k": 2})
    d = cfg.data.width
    hidden = matched_dense_hidden(cfg)
    dense_params = 2 * d * hidden + hidden + d
    dh = cfg.model.expert_hidden_ratio * d
    active = (
        2 * (d * dh + dh + dh * d + d)  # top_k experts
        + (2 * d * d + d)  # dimension reduction
        + (cfg.model.n_experts * d + cfg.model.n_experts)  # router
        + 2 * (d * d + d)  # frozen shared maps
    )
    assert abs(dense_params - active) <= 2 * d + 1  # off by at most one hidden unit
