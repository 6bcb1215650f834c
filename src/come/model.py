"""The full network: attention, then an expert block, then one classifier head.

Both architectures share one spine; only the body between attention and
pooling forks on ``model.arch``. Per batch (B samples of T tokens, width D):

    tokens -> attention -> body -> features                (B, T, D)
    mean over tokens -> linear classifier -> task cross-entropy

The routed body (``come``):

    tokens --frozen structure expert--> f_structure
    tokens --frozen semantic expert---> f_semantic
    attended -> [clustering -> cluster feature] -> dim reduction
             -> gates -> top-K capacity dispatch -> expert mixture = f_routed
    features = f_structure + f_semantic + f_routed
    gates also feed the traceability / importance / load losses.

A frozen prior switched off (``model.structure_expert`` or
``model.semantic_expert`` false) contributes zeros. The ``dense`` body is
one tanh FFN whose hidden width matches the active parameter count of the
routed model.

Backward mirrors the spine: head, body, attention. Every trainable piece
ships an explicit backward; clustering, Top-K selection and capacity
admission are constants of the backward pass. For finite-difference
checking, a ``RoutingContext`` captured from a reference forward pins the
cluster features and the dispatch plan so the perturbed evaluations
differentiate the same masked function the backward assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionCache, attention_backward, attention_forward, init_attention
from .clustering import cluster_features, fine2coarse
from .config import RunConfig
from .container import checkpoint_digest, load_checkpoint, save_checkpoint
from .datagen import TokenBatch
from .experts import (
    DimReductionCache,
    MixtureCache,
    aggregate_features,
    dr_backward,
    dr_forward,
    expert_group_map,
    expert_mixture_backward,
    expert_mixture_forward,
    ffn_backward,
    ffn_forward,
    frozen_digest,
    frozen_forward,
    init_dim_reduction,
    init_expert_bank,
    init_ffn,
    make_frozen_expert,
)
from .losses import LossReport, cross_entropy, importance_loss, load_loss, traceability_loss
from .numerics import RandomStreams
from .router import (
    DispatchPlan,
    GateCache,
    build_dispatch,
    gate_backward,
    gate_forward,
    topk_select,
)

Array = np.ndarray

COMPONENT_PREFIXES = {
    "attention": "attn.",
    "dim_reduction": "dr.",
    "router": "router.",
    "experts": "expert.",
    "classifier": "head.",
    "dense": "dense.",
}


@dataclass
class RoutingContext:
    """Cluster features and dispatch structure pinned for gradient checks."""

    cluster_feats: Array
    plan: DispatchPlan


@dataclass
class RoutedCache:
    """What the routed body's backward reads from its forward."""

    dr: DimReductionCache
    gate: GateCache
    mix: MixtureCache  # mix.gates holds the combination weights
    renorm_sums: Array | None  # per-token selected gate mass when renormalizing
    d_gates_aux: list  # weighted routing-loss gradients w.r.t. the gates


@dataclass
class ForwardState:
    batch: TokenBatch
    report: LossReport
    predictions: Array
    plan: DispatchPlan | None
    pooled: Array
    d_task_logits: Array
    att_cache: AttentionCache
    body: object  # RoutedCache, or (flat inputs, hidden) for the dense FFN


def matched_dense_hidden(cfg: RunConfig) -> int:
    """Hidden width for the dense baseline that matches the routed model's
    active per-token parameter count (K experts + dimension reduction +
    router + the two frozen shared maps; attention and classifier are
    common to both architectures)."""
    d = cfg.data.width
    dh = cfg.model.expert_hidden_ratio * d
    k = cfg.router.top_k
    experts_active = k * (d * dh + dh + dh * d + d)
    dim_reduction = 2 * d * d + d
    router = cfg.model.n_experts * d + cfg.model.n_experts
    frozen = 2 * (d * d + d)
    target = experts_active + dim_reduction + router + frozen
    return max(1, round((target - d) / (2 * d + 1)))


class ComeModel:
    def __init__(self, cfg: RunConfig, params: dict, structure_seed: int, semantic_seed: int):
        cfg.validate()
        self.cfg = cfg
        self.params = params
        self.width = cfg.data.width
        self.structure_seed = structure_seed
        self.semantic_seed = semantic_seed
        self.frozen_structure = make_frozen_expert(
            "structure", self.width, structure_seed, scale=cfg.model.frozen_scale
        )
        self.frozen_semantic = make_frozen_expert(
            "semantic", self.width, semantic_seed, scale=cfg.model.frozen_scale
        )
        self.groups = expert_group_map(cfg.model.n_experts, cfg.data.n_sources)  # (M, E) mask

    # ------------------------------------------------------------------
    # construction / persistence
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, cfg: RunConfig) -> "ComeModel":
        cfg.validate()
        streams = RandomStreams(cfg.seed)
        d = cfg.data.width
        c = cfg.data.n_classes
        params = {}
        params.update(init_attention(d, cfg.model.heads, streams.stream("init", 0)))
        if cfg.model.arch == "come":
            params.update(init_expert_bank(
                cfg.model.n_experts, d, cfg.model.expert_hidden_ratio * d,
                streams.stream("init", 1),
            ))
            params.update(init_dim_reduction(d))
            params["router.w"] = np.zeros((cfg.model.n_experts, d))
            params["router.b"] = np.zeros(cfg.model.n_experts)
        else:
            params.update(init_ffn("dense", d, matched_dense_hidden(cfg), streams.stream("init", 3)))
        head_rng = streams.stream("init", 2)
        params["head.w"] = head_rng.normal(scale=1.0 / np.sqrt(d), size=(d, c))
        params["head.b"] = np.zeros(c)
        structure_seed = int(streams.stream("init", 10).integers(2**62))
        semantic_seed = int(streams.stream("init", 11).integers(2**62))
        return cls(cfg, params, structure_seed, semantic_seed)

    def save(self, path):
        return save_checkpoint(path, self.params, self.structure_seed, self.semantic_seed)

    @classmethod
    def from_checkpoint(cls, cfg: RunConfig, path) -> "ComeModel":
        params, st_seed, se_seed = load_checkpoint(path)
        reference = cls.build(cfg)
        if set(params) != set(reference.params):
            raise ValueError(
                f"checkpoint parameters {sorted(set(params) ^ set(reference.params))} "
                f"do not match the configured architecture"
            )
        for name, arr in params.items():
            if arr.shape != reference.params[name].shape:
                raise ValueError(
                    f"checkpoint blob {name!r} has shape {arr.shape}, "
                    f"expected {reference.params[name].shape}"
                )
        return cls(cfg, params, st_seed, se_seed)

    # ------------------------------------------------------------------
    # digests
    # ------------------------------------------------------------------

    def parameter_digest(self) -> str:
        return checkpoint_digest(self.params, self.structure_seed, self.semantic_seed)

    def frozen_digests(self) -> dict:
        return {
            "structure": frozen_digest(self.frozen_structure),
            "semantic": frozen_digest(self.frozen_semantic),
        }

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    def _cluster(self, flat: Array, rng) -> Array:
        cfg = self.cfg.clustering
        if cfg.strategy == "none":
            return np.zeros_like(flat)
        model = fine2coarse(
            flat, m=cfg.fine_clusters, k=cfg.coarse_clusters, rng=rng,
            max_iters=cfg.max_iters,
        )
        return cluster_features(model)

    def forward(self, batch: TokenBatch, cluster_rng=None,
                frozen_ctx: RoutingContext | None = None) -> ForwardState:
        b, t, d = batch.tokens.shape
        if b == 0 or t == 0:
            raise ValueError(f"forward: empty batch of shape {batch.tokens.shape} (B, T, D)")
        att_out, att_cache = attention_forward(batch.tokens, self.params, self.cfg.model.heads)
        attended = batch.tokens + att_out if self.cfg.model.attention_residual else att_out
        flat = attended.reshape(b * t, d)
        if self.cfg.model.arch == "dense":
            out, hidden = ffn_forward(self.params, "dense", flat)
            features, plan, body, aux = out.reshape(b, t, d), None, (flat, hidden), {}
        else:
            features, plan, body, aux = self._routed_forward(batch, flat, cluster_rng, frozen_ctx)
        pooled = features.mean(axis=1)
        class_logits = pooled @ self.params["head.w"] + self.params["head.b"]
        task, d_task = cross_entropy(class_logits, batch.labels)
        return ForwardState(
            batch=batch,
            report=LossReport(task_ce=task, **aux),
            predictions=np.argmax(class_logits, axis=1),
            plan=plan,
            pooled=pooled,
            d_task_logits=d_task,
            att_cache=att_cache,
            body=body,
        )

    def _routed_forward(self, batch: TokenBatch, flat: Array, cluster_rng,
                        frozen_ctx: RoutingContext | None):
        """Frozen priors plus the routed expert mixture over the attended
        tokens ``flat``, and the routing losses on its gates.

        Returns (features (B, T, D), dispatch plan, RoutedCache, the
        routing-loss fields of the LossReport).
        """
        cfg = self.cfg
        zeros = np.zeros(batch.tokens.shape)
        f_structure = (
            frozen_forward(self.frozen_structure, batch.tokens)
            if cfg.model.structure_expert else zeros
        )
        f_semantic = (
            frozen_forward(self.frozen_semantic, batch.tokens)
            if cfg.model.semantic_expert else zeros
        )

        if frozen_ctx is not None:
            feats = frozen_ctx.cluster_feats
        else:
            if cluster_rng is None:
                cluster_rng = np.random.default_rng(0)
            feats = self._cluster(flat, cluster_rng)
        routed_in, dr_cache = dr_forward(flat, feats, self.params)
        gates, gate_cache = gate_forward(routed_in, self.params, cfg.router.temperature)

        if frozen_ctx is not None:
            plan = frozen_ctx.plan
        else:
            plan = build_dispatch(topk_select(gates, cfg.router.top_k), cfg.model.n_experts,
                                  cfg.router.capacity_factor)

        renorm_sums = None
        combine = gates
        if cfg.router.renormalize_topk:
            picked = np.take_along_axis(gates, plan.selection, axis=1)
            renorm_sums = picked.sum(axis=1, keepdims=True)
            combine = np.zeros_like(gates)
            np.put_along_axis(combine, plan.selection, picked / renorm_sums, axis=1)
        mix_out, mix_cache = expert_mixture_forward(
            self.params, cfg.model.n_experts, plan, routed_in, combine
        )
        features = aggregate_features(f_structure, f_semantic, mix_out.reshape(zeros.shape))

        losses = cfg.losses
        l_tb, d_tb, clamped = traceability_loss(gates, batch.token_sources, self.groups)
        l_ip, d_ip, importance = importance_loss(gates)
        l_load, d_load, load = load_loss(gates)
        d_gates_aux = [losses.tb_weight * d_tb, losses.balance_weight * d_ip,
                       losses.balance_weight * d_load]

        cache = RoutedCache(dr=dr_cache, gate=gate_cache, mix=mix_cache,
                            renorm_sums=renorm_sums, d_gates_aux=d_gates_aux)
        aux = dict(l_tb=l_tb, l_ip=l_ip, l_load=l_load, importance=importance, load=load,
                   tb_weight=losses.tb_weight, balance_weight=losses.balance_weight,
                   tb_clamped=clamped)
        return features, plan, cache, aux

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward(self, state: ForwardState) -> dict:
        """Gradient of the total loss w.r.t. every trainable parameter."""
        b, t, d = state.batch.tokens.shape
        grads = {name: np.zeros_like(p) for name, p in self.params.items()}
        d_logits = state.d_task_logits
        grads["head.w"] = state.pooled.T @ d_logits
        grads["head.b"] = d_logits.sum(axis=0)
        d_pooled = d_logits @ self.params["head.w"].T
        d_out = (np.repeat(d_pooled[:, None, :], t, axis=1) / t).reshape(b * t, d)
        if self.cfg.model.arch == "dense":
            d_flat, dense_grads = ffn_backward(self.params, "dense", *state.body, d_out)
            grads.update(dense_grads)
        else:
            d_flat = self._routed_backward(d_out, state, grads)
        _, attn_grads = attention_backward(
            d_flat.reshape(b, t, d), state.att_cache, self.params, self.cfg.model.heads
        )
        grads.update(attn_grads)
        return grads

    def _routed_backward(self, d_out: Array, state: ForwardState, grads: dict) -> Array:
        """Backward of ``_routed_forward``; fills ``grads`` and returns the
        gradient w.r.t. the attended tokens."""
        cache = state.body
        d_in_mix, d_gates, expert_grads = expert_mixture_backward(d_out, cache.mix, self.params)
        grads.update(expert_grads)
        if cache.renorm_sums is not None:
            # combine = gates[sel] / sum(gates[sel]); push back to raw gates
            sel = state.plan.selection
            picked_d = np.take_along_axis(d_gates, sel, axis=1)
            picked_w = np.take_along_axis(cache.mix.gates, sel, axis=1)
            inner = np.sum(picked_d * picked_w, axis=1, keepdims=True)
            d_gates = np.zeros_like(d_gates)
            np.put_along_axis(d_gates, sel, (picked_d - inner) / cache.renorm_sums, axis=1)
        for term in cache.d_gates_aux:
            d_gates = d_gates + term
        d_in_router, router_grads = gate_backward(
            d_gates, cache.gate, self.params, self.cfg.router.temperature
        )
        grads.update(router_grads)
        d_flat, dr_grads = dr_backward(d_in_mix + d_in_router, cache.dr, self.params)
        grads.update(dr_grads)
        return d_flat

    def loss_and_grads(self, batch: TokenBatch, cluster_rng=None,
                       frozen_ctx: RoutingContext | None = None):
        state = self.forward(batch, cluster_rng=cluster_rng, frozen_ctx=frozen_ctx)
        return state, self.backward(state)

    # ------------------------------------------------------------------
    # gradient checking support
    # ------------------------------------------------------------------

    def routing_context(self, state: ForwardState) -> RoutingContext:
        if self.cfg.model.arch == "dense":
            raise ValueError("dense architecture has no routing context")
        feats = state.body.dr.concat[:, self.width :].copy()
        return RoutingContext(cluster_feats=feats, plan=state.plan)


def component_grad_check(model: ComeModel, batch: TokenBatch, component: str,
                         h: float = 1e-5, cluster_rng=None):
    """Central-difference check of one component's parameters against the
    total loss, with the routing structure pinned from a reference forward."""
    from .numerics import grad_check

    prefix = COMPONENT_PREFIXES[component]
    names = sorted(n for n in model.params if n.startswith(prefix))
    if not names:
        raise ValueError(f"model has no {component!r} parameters")
    ctx = None
    if model.cfg.model.arch == "come":
        ref = model.forward(batch, cluster_rng=cluster_rng)
        ctx = model.routing_context(ref)
    shapes = [model.params[n].shape for n in names]
    sizes = [model.params[n].size for n in names]
    original = {n: model.params[n] for n in names}

    def fn(theta):
        offset = 0
        for n, shape, size in zip(names, shapes, sizes):
            model.params[n] = theta[offset : offset + size].reshape(shape)
            offset += size
        state, grads = model.loss_and_grads(batch, frozen_ctx=ctx)
        flat = np.concatenate([grads[n].ravel() for n in names])
        return state.report.total, flat

    theta0 = np.concatenate([original[n].ravel() for n in names])
    try:
        return grad_check(fn, theta0, h=h)
    finally:
        model.params.update(original)
