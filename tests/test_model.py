import dataclasses
import tracemalloc

import numpy as np
import pytest

import come.model
from come.config import RunConfig, apply_overrides, config_from_dict
from come.container import checkpoint_digest
from come.datagen import TokenBatch, generate
from come.experts import EXPERT_HIDDEN_RATIO
from come.harness import ABLATION_VARIANTS, EVAL_STREAM_OFFSET, evaluate
from come.model import ComeModel, component_grad_check, matched_dense_hidden
from come.numerics import AdamWState, RandomStreams, adamw_step


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


def _routing(state):
    """The routed body's gates and token sources for ``objective``; none for the dense body."""
    return (state.gates, state.batch.token_sources) if state.gates is not None else ()


def _objective(model, state):
    """The LossReport of ``state``'s forward, from ``ComeModel.objective``."""
    return _objective_and_grads(model, state)[0]


def _objective_and_grads(model, state):
    """``ComeModel.objective`` of ``state``'s forward: (LossReport, d_logits, d_gates)."""
    return model.objective(state.logits, state.batch.labels, *_routing(state))


def _preset(name):
    return apply_overrides(_cfg(), ABLATION_VARIANTS[name])


def _counting(monkeypatch, name, arg=0):
    """Wrap ``come.model.<name>`` so each call records its ``arg``-th argument."""
    calls = []
    original = getattr(come.model, name)

    def wrapper(*args, **kwargs):
        calls.append(args[arg])
        return original(*args, **kwargs)

    monkeypatch.setattr(come.model, name, wrapper)
    return calls


def test_forward_shapes_and_finiteness():
    cfg = _cfg()
    model = ComeModel.build(cfg)
    batch = _batch(cfg, b=3)
    state = _forward(model, batch)
    gates = state.gates
    assert state.pooled.shape == (3, 6)
    assert gates.shape == (9, 4)
    assert state.logits.shape == (3, 3)
    assert np.isfinite(_objective(model, state).total)
    np.testing.assert_allclose(gates.sum(axis=1), 1.0, atol=1e-12)


def test_forward_deterministic_given_rng():
    cfg = _cfg()
    model = ComeModel.build(cfg)
    batch = _batch(cfg)
    s1 = _forward(model, batch, seed=3)
    s2 = _forward(model, batch, seed=3)
    np.testing.assert_array_equal(s1.gates, s2.gates)
    np.testing.assert_array_equal(s1.plan.admitted, s2.plan.admitted)
    assert _objective(model, s1).total == _objective(model, s2).total


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


@pytest.mark.parametrize("sources, match", [
    (np.full(8, -1), r"sample 1 of 8 has source id -1, not an integer in \[0, n_sources = 4\)"),
    (np.full(8, 4), r"sample 1 of 8 has source id 4, not an integer in \[0, n_sources = 4\)"),
    (np.zeros(7, np.int64), r"source ids shape \(7,\) does not match 8 samples"),
    (np.zeros(9, np.int64), r"source ids shape \(9,\) does not match 8 samples"),
    (np.zeros(8), "source ids have dtype float64, expected integers"),
])
def test_routed_forward_rejects_bad_source_ids(sources, match):
    cfg = RunConfig().validate()  # B=8, 4 sources
    model = ComeModel.build(cfg)
    rng = np.random.default_rng(0)
    batch = TokenBatch(
        tokens=rng.normal(size=(8, cfg.data.tokens_per_sample, cfg.data.width)),
        sources=sources,
        labels=np.zeros(8, np.int64),
    )
    with pytest.raises(ValueError, match=match):
        _forward(model, batch)


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_forward_raises_at_the_first_overflow(arch):
    cfg = _cfg(**{"model.arch": arch})
    model = ComeModel.build(cfg)
    for name in ("attn.wq", "attn.wk"):
        model.params[name] = model.params[name] * 1e200
    dataset = generate(cfg.data.generator(), cfg.data.seed)
    # the attention scores overflow; nothing downstream computes on inf
    for run in (lambda: _forward(model, _batch(cfg)), lambda: evaluate(model, dataset)):
        with pytest.raises(FloatingPointError, match="overflow encountered in matmul") as err:
            run()
        assert err.traceback[-1].name == "attention_forward"


def test_no_dse_disables_both_shared_streams(monkeypatch):
    calls = _counting(monkeypatch, "frozen_forward", arg=1)
    full = ComeModel.build(_cfg())
    _forward(full, _batch(full.cfg))
    assert calls == ["structure", "semantic"]
    calls.clear()
    for name, kinds in (("no_ste", ["semantic"]), ("no_see", ["structure"]), ("no_dse", [])):
        model = ComeModel.build(_preset(name))
        state = _forward(model, _batch(model.cfg))
        assert calls == kinds, name
        assert np.isfinite(_objective(model, state).total)
        calls.clear()


@pytest.mark.parametrize("name", ["full", "no_ste", "no_see", "no_dse"])
def test_routed_body_adds_the_enabled_priors_then_the_routed_output(monkeypatch, name):
    mixed = []
    original = come.model.expert_mixture_forward

    def capture(*args):
        out, cache = original(*args)
        mixed.append(out)
        return out, cache

    monkeypatch.setattr(come.model, "expert_mixture_forward", capture)
    model = ComeModel.build(_preset(name))
    batch = _batch(model.cfg, b=3)
    state = _forward(model, batch)
    # a switched-off prior counts as zeros, bit for bit
    m = model.cfg.model
    zeros = np.zeros(batch.tokens.shape)
    structure, semantic = (
        come.model.frozen_forward(model.frozen, kind, batch.tokens) if on else zeros
        for kind, on in (("structure", m.structure_expert), ("semantic", m.semantic_expert))
    )
    features = (structure + semantic) + mixed[0].reshape(batch.tokens.shape)
    assert state.pooled.tobytes() == features.mean(axis=1).tobytes()


def test_no_clustering_equals_fine2coarse_at_initialization(monkeypatch):
    # the dimension reduction starts as [I | 0], so the cluster branch is
    # inert at step 0 and the two configs produce identical forwards
    calls = _counting(monkeypatch, "fine2coarse")
    base = ComeModel.build(apply_overrides(_cfg(), ["clustering.strategy=fine2coarse"]))
    ablated = ComeModel.build(_preset("no_clustering"))
    batch = _batch(base.cfg, b=3)
    s_base = _forward(base, batch, seed=5)
    assert len(calls) == 1
    s_abl = _forward(ablated, batch, seed=5)
    assert len(calls) == 1
    np.testing.assert_array_equal(s_base.gates, s_abl.gates)
    np.testing.assert_array_equal(s_base.pooled, s_abl.pooled)
    assert _objective(base, s_base).total == _objective(ablated, s_abl).total
    assert np.all(s_abl.body.concat[:, base.cfg.data.width :] == 0)


def test_no_tb_zeroes_the_traceability_weight_but_reports_value():
    cfg = _preset("no_tb")
    model = ComeModel.build(cfg)
    rep = _objective(model, _forward(model, _batch(cfg)))
    assert model.cfg.losses.tb_weight == 0.0
    assert rep.l_tb >= 0.0
    expected = rep.task_ce + 0.1 * (rep.l_ip + rep.l_load)
    assert abs(rep.total - expected) < 1e-12


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
    before = checkpoint_digest(model.frozen)
    opt = AdamWState(lr=1e-2)
    for step in range(5):
        batch = _batch(cfg, seed=20 + step)
        _, grads = model.loss_and_grads(batch, cluster_rng=np.random.default_rng(step))
        adamw_step(model.params, grads, opt)
    assert checkpoint_digest(model.frozen) == before


def test_training_steps_reduce_loss():
    cfg = _cfg()
    model = ComeModel.build(cfg)
    batch = _batch(cfg, seed=30, b=8)
    opt = AdamWState(lr=5e-3)
    first = _objective(model, _forward(model, batch, seed=7)).total
    for step in range(60):
        _, grads = model.loss_and_grads(batch, cluster_rng=np.random.default_rng(7))
        adamw_step(model.params, grads, opt)
    last = _objective(model, _forward(model, batch, seed=7)).total
    assert last < first


def test_build_and_from_checkpoint_validate_the_config_once(tmp_path, monkeypatch):
    cfg = _cfg()
    path = ComeModel.build(cfg).save(tmp_path / "m.come")
    calls = []
    validate = RunConfig.validate
    monkeypatch.setattr(RunConfig, "validate", lambda self: calls.append(1) or validate(self))
    ComeModel.build(cfg)
    assert len(calls) == 1
    ComeModel.from_checkpoint(cfg, path)
    assert len(calls) == 2


def test_checkpoint_roundtrip_and_validation(tmp_path):
    cfg = _cfg()
    model = ComeModel.build(cfg)
    path = model.save(tmp_path / "m.come")
    loaded = ComeModel.from_checkpoint(cfg, path)
    assert loaded.parameter_digest() == model.parameter_digest()
    assert checkpoint_digest(loaded.frozen) == checkpoint_digest(model.frozen)
    bad_cfg = _cfg(**{"model.n_experts": 3, "router.top_k": 2})
    with pytest.raises(ValueError, match="do not match"):
        ComeModel.from_checkpoint(bad_cfg, path)


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_loaded_checkpoint_is_the_trained_model_bit_for_bit(tmp_path, arch):
    cfg = _cfg(**{"model.arch": arch})
    model = ComeModel.build(cfg)
    opt = AdamWState(lr=1e-2)
    for step in range(3):
        _, grads = model.loss_and_grads(_batch(cfg, seed=50 + step),
                                        cluster_rng=np.random.default_rng(step))
        adamw_step(model.params, grads, opt)
    loaded = ComeModel.from_checkpoint(cfg, model.save(tmp_path / "m.come"))
    assert set(loaded.params) == set(model.params)
    assert set(loaded.frozen) == set(model.frozen) == (
        {f"frozen.{k}.{p}" for k in ("structure", "semantic") for p in "wb"}
        if arch == "come" else set())
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name]), name
    for name, arr in model.frozen.items():
        assert np.array_equal(loaded.frozen[name], arr), name
        assert not loaded.frozen[name].flags.writeable
    batch = _batch(cfg, seed=60, b=4)
    assert (_objective(loaded, _forward(loaded, batch))
            == _objective(model, _forward(model, batch)))


def test_dense_architecture_forward_backward():
    cfg = _cfg(**{"model.arch": "dense"})
    model = ComeModel.build(cfg)
    batch = _batch(cfg, seed=40, b=3)
    rep = _objective(model, model.forward(batch))
    assert rep.l_tb == 0.0 and rep.total == rep.task_ce
    for component in ("attention", "dense", "classifier"):
        res = component_grad_check(model, batch, component, h=1e-5)
        assert res.max_rel_error < 1e-4, f"{component}: {res.max_rel_error}"


def test_matched_dense_hidden_accounting():
    cfg = _cfg(**{"router.top_k": 2})
    d = cfg.data.width
    hidden = matched_dense_hidden(cfg)
    dense_params = 2 * d * hidden + hidden + d
    dh = EXPERT_HIDDEN_RATIO * d
    active = (
        2 * (d * dh + dh + dh * d + d)  # top_k experts
        + (2 * d * d + d)  # dimension reduction
        + (cfg.model.n_experts * d + cfg.model.n_experts)  # router
        + 2 * (d * d + d)  # frozen shared maps
    )
    assert abs(dense_params - active) <= 2 * d + 1  # off by at most one hidden unit


# ---------------------------------------------------------------------------
# backward consumes the forward state
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_backward_consumes_the_caches_and_keeps_the_results(arch):
    cfg = _cfg(**{"model.arch": arch})
    model = ComeModel.build(cfg)
    batch = _batch(cfg, b=3)
    state, _ = model.loss_and_grads(batch, cluster_rng=np.random.default_rng(1))
    assert state.body is None and state.att_cache is None
    assert np.isfinite(state.report.total)
    assert state.logits.shape == (3, 3)
    assert (state.plan is None) == (arch == "dense")
    if arch == "come":
        assert state.plan.selection.shape[0] == 9
    with pytest.raises(ValueError, match="consumed by an earlier backward"):
        model.backward(state, *_objective_and_grads(model, state)[1:])
    if arch == "come":  # the dense body ignores a pinned state
        with pytest.raises(ValueError, match="pinned ForwardState was consumed"):
            model.forward(batch, pinned=state)


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_backward_frees_more_than_its_gradients_take(arch):
    """At B=64, D=64, top-2 the forward's caches hold megabytes; once backward
    returns, all that stays allocated besides the gradients is the state's
    results, under half of what the forward left."""
    cfg = apply_overrides(RunConfig(), ["training.batch_size=64", "data.width=64",
                                        "router.top_k=2", f"model.arch={arch}"])
    model = ComeModel.build(cfg)
    batch = _batch(cfg, b=64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        state = _forward(model, batch)
        state.report, d_logits, d_gates = _objective_and_grads(model, state)
        started = tracemalloc.get_traced_memory()[0]
        grads = model.backward(state, d_logits, d_gates)
        returned = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    grad_bytes = sum(g.nbytes for g in grads.values())
    assert started - before > 4e6
    assert returned - grad_bytes - before < (started - before) / 2


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_evaluate_holds_one_forward_state_at_a_time(arch):
    """Each batch's forward state is freed before the next forward, so a
    3-batch evaluate peaks within a quarter of a 1-batch one at B=64, D=64,
    top-2."""
    cfg = apply_overrides(RunConfig(), ["training.batch_size=64", "data.width=64",
                                        "router.top_k=2", "data.n_samples=1000",
                                        f"model.arch={arch}"])
    model = ComeModel.build(cfg)
    dataset = generate(cfg.data.generator(), cfg.data.seed)
    peaks = []
    for n_batches in (1, 3):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = evaluate(model, dataset, "train", max_batches=n_batches)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert result.n_samples == 64 * n_batches
    assert peaks[1] <= 1.25 * peaks[0]


LOSSES = ("cross_entropy", "traceability_loss", "importance_loss", "load_loss")


def _bits(report):
    """Every field of a LossReport as bytes, so equal means equal bit for bit."""
    return [np.asarray(getattr(report, f.name)).tobytes() for f in dataclasses.fields(report)]


def _eval_states(model, dataset, batch_size, n_batches):
    """The forwards ``evaluate`` runs on the first ``n_batches`` train batches."""
    streams = RandomStreams(model.cfg.seed)
    states = []
    for b_i in range(n_batches):
        rng = streams.stream("noise", EVAL_STREAM_OFFSET + b_i) if model.clusters else None
        batch = dataset.take(dataset.train_idx[b_i * batch_size:(b_i + 1) * batch_size])
        states.append(model.forward(batch, cluster_rng=rng))
    return states


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_forward_calls_no_loss(monkeypatch, arch):
    model = ComeModel.build(_cfg(**{"model.arch": arch}))
    calls = {name: _counting(monkeypatch, name) for name in LOSSES}
    state = _forward(model, _batch(model.cfg))
    assert state.report is None
    assert {name: len(c) for name, c in calls.items()} == dict.fromkeys(calls, 0)


def test_evaluate_forms_loss_values_and_calls_no_loss_backward(monkeypatch):
    calls = {name: _counting(monkeypatch, name) for name in LOSSES}
    for arch in ("come", "dense"):
        cfg = _cfg(**{"model.arch": arch})
        model = ComeModel.build(cfg)
        dataset = generate(cfg.data.generator(), cfg.data.seed)
        for n_batches in (1, 2, 5):  # one objective, however many batches
            for c in calls.values():
                c.clear()
            result = evaluate(model, dataset, "train", batch_size=4, max_batches=n_batches)
            assert result.n_samples == 4 * n_batches
            once = LOSSES if arch == "come" else ("cross_entropy",)
            assert {name: len(c) for name, c in calls.items()} == {
                name: int(name in once) for name in calls}, (arch, n_batches)
        # a training step forms each loss, and its gradient, once more
        model.loss_and_grads(_batch(cfg), cluster_rng=np.random.default_rng(1))
        assert {name: len(c) for name, c in calls.items()} == {
            name: 2 * int(name in once) for name in calls}, arch


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_evaluate_loss_is_the_objective_of_the_concatenated_batches(arch):
    cfg = _cfg(**{"model.arch": arch})
    model = ComeModel.build(cfg)
    dataset = generate(cfg.data.generator(), cfg.data.seed)
    result = evaluate(model, dataset, "train", batch_size=4, max_batches=5)
    states = _eval_states(model, dataset, 4, 5)
    columns = zip(*[(s.logits, s.batch.labels, *_routing(s)) for s in states])
    expected, *_ = model.objective(*(np.concatenate(column) for column in columns))
    assert _bits(result.loss) == _bits(expected)
    if arch == "come":  # the CV^2 terms are over every evaluated token at once
        assert sum(result.loss.importance) == pytest.approx(20 * cfg.data.tokens_per_sample)


@pytest.mark.parametrize("arch", ["come", "dense"])
def test_one_batch_evaluate_reports_what_training_forms_for_that_batch(arch):
    cfg = _cfg(**{"model.arch": arch})
    model = ComeModel.build(cfg)
    dataset = generate(cfg.data.generator(), cfg.data.seed)
    result = evaluate(model, dataset, "train", batch_size=4, max_batches=1)
    batch = _eval_states(model, dataset, 4, 1)[0].batch
    rng = RandomStreams(cfg.seed).stream("noise", EVAL_STREAM_OFFSET) if model.clusters else None
    state, _ = model.loss_and_grads(batch, cluster_rng=rng)
    assert _bits(result.loss) == _bits(state.report)
    assert result.loss == state.report


def test_objective_rejects_routing_arrays_that_do_not_fit_the_body():
    routed, dense = ComeModel.build(_cfg()), ComeModel.build(_cfg(**{"model.arch": "dense"}))
    state = _forward(routed, _batch(routed.cfg, b=2))
    logits, labels, sources = state.logits, state.batch.labels, state.batch.token_sources
    with pytest.raises(ValueError, match="the come body takes gates and token sources"):
        routed.objective(logits, labels)
    with pytest.raises(ValueError, match="the come body takes gates and token sources"):
        routed.objective(logits, labels, state.gates)
    with pytest.raises(ValueError, match="the dense body takes no gates or token sources"):
        dense.objective(logits, labels, state.gates, sources)
    with pytest.raises(ValueError, match=r"token sources shape \(5,\) does not match 6 samples"):
        routed.objective(logits, labels, state.gates, sources[:5])
    with pytest.raises(ValueError, match=r"sample 2 of 6 has token source 2, not an integer in "
                                         r"\[0, n_sources = 2\)"):
        routed.objective(logits, labels, state.gates, np.array([0, 2, 0, 0, 1, 1]))


def test_dense_backward_rejects_gate_gradients_before_consuming_the_state():
    dense = ComeModel.build(_cfg(**{"model.arch": "dense"}))
    state = _forward(dense, _batch(dense.cfg, b=2))
    _, d_logits, _ = _objective_and_grads(dense, state)
    d_gates = (np.zeros((6, dense.cfg.model.n_experts)),)
    with pytest.raises(ValueError, match="backward: the dense body takes no gates or token "
                                         "sources, so no gate gradients"):
        dense.backward(state, d_logits, d_gates)
    assert state.att_cache is not None
    assert dense.backward(state, d_logits).keys() == dense.params.keys()
