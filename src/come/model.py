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
    features = (f_structure + f_semantic) + f_routed
    gates also feed the traceability / importance / load losses.

Forward forms no loss: it returns the class logits, the gates, the
dispatch plan and the backward's caches. ``objective`` is the one
place that knows the losses and their weights: from class logits, labels,
gates and token sources, for any number of samples, it forms the
``LossReport`` and the weighted gradients of the total w.r.t. the logits
and the gates. ``backward`` starts from those output gradients. A training
step runs forward -> objective -> backward (``loss_and_grads``); an
evaluation runs forwards only and one objective over every sample it
evaluated.

A frozen prior switched off (``model.structure_expert`` or
``model.semantic_expert`` false) is left out of the sum. The ``dense`` body
is one tanh FFN whose hidden width matches the active parameter count of
the routed model.

Backward mirrors the spine: head, body, attention. Every trainable piece
ships an explicit backward; clustering, Top-K selection and capacity
admission are constants of the backward pass. Backward consumes the
forward's state: it frees each saved activation once it has read it (each
expert's entry, then the body's cache, then attention's), so a step never
holds a spent cache, and a second backward of the same state is refused.
For finite-difference checking, ``forward`` takes a ``pinned`` reference
forward of the same batch and reuses its cluster features and dispatch
plan, so the perturbed evaluations differentiate the same masked function
the backward assumes.

Finiteness is checked once, where values enter: attention rejects a batch
with NaN or Inf tokens, and ``load_checkpoint`` a non-finite blob. Ids are
too, by ``numerics.require_ids``: the routed body checks a batch's source
ids, ``objective`` the token sources before traceability indexes expert
groups with them, and ``cross_entropy`` the labels. The layers do not
re-check the arrays the model builds from them. Instead ``forward`` and
``objective`` run under ``np.errstate(over="raise", invalid="raise")``, so
the first overflowing or invalid operation raises ``FloatingPointError``.
No division by zero is reachable: softmax sums are >= 1, a renormalised
Top-K mass is >= 1/E, group masses and CE probabilities are clamped, and
empty k-means clusters are masked. Run bounds are checked once too, by
``RunConfig.validate``; the layers do not re-check them.
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
    EXPERT_HIDDEN_RATIO,
    dr_backward,
    dr_forward,
    expert_mixture_backward,
    expert_mixture_forward,
    ffn_backward,
    ffn_forward,
    frozen_forward,
    init_dim_reduction,
    init_expert_bank,
    init_ffn,
    init_frozen,
)
from .losses import LossReport, cross_entropy, importance_loss, load_loss, traceability_loss
from .numerics import RandomStreams, require_ids
from .router import (
    DispatchPlan,
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
class RoutedCache:
    """The arrays the routed body's backward reads from its forward, each held once."""

    concat: Array  # (N, 2D) [attended | cluster feature]
    routed_in: Array  # (N, D) dimension-reduced tokens: gate and expert input
    combine: Array  # (N, n_experts) mixture weights; the gates themselves unless renormalizing
    saved: list  # expert_mixture_forward's per-expert entries
    renorm_sums: Array | None  # per-token selected gate mass when renormalizing


@dataclass
class ForwardState:
    """One forward's outputs and the caches its backward reads.

    The forward forms no loss: ``report`` stays None until
    ``loss_and_grads`` stores the objective of ``logits``, the batch's
    labels and, on the routed body, ``gates`` and the token sources in it.
    ``ComeModel.backward`` consumes the state: it sets ``body`` and
    ``att_cache`` to None and frees each once its backward has read it. The
    other fields stay, for the callers that read the losses, logits and
    plan after the step.
    """

    batch: TokenBatch
    logits: Array  # (B, C) class logits
    gates: Array | None  # (N, n_experts) gate softmax; None for the dense body
    plan: DispatchPlan | None
    pooled: Array
    att_cache: AttentionCache
    body: object  # RoutedCache, or (flat inputs, hidden) for the dense FFN
    report: LossReport | None = None


def matched_dense_hidden(cfg: RunConfig) -> int:
    """Hidden width for the dense baseline that matches the routed model's
    active per-token parameter count (K experts + dimension reduction +
    router + the two frozen shared maps; attention and classifier are
    common to both architectures)."""
    d = cfg.data.width
    dh = EXPERT_HIDDEN_RATIO * d
    k = cfg.router.top_k
    experts_active = k * (d * dh + dh + dh * d + d)
    dim_reduction = 2 * d * d + d
    router = cfg.model.n_experts * d + cfg.model.n_experts
    frozen = 2 * (d * d + d)
    target = experts_active + dim_reduction + router + frozen
    return max(1, round((target - d) / (2 * d + 1)))


class ComeModel:
    """Trainable ``params`` plus the ``frozen`` shared experts, which only
    the routed architecture has. ``group_size`` g = n_experts // n_sources
    is the ownership rule: source m owns the bank experts [m g, (m + 1) g),
    and no source owns the remainder experts past the last block."""

    def __init__(self, cfg: RunConfig, params: dict, frozen: dict):
        self.cfg = cfg
        self.params = params
        self.frozen = frozen
        self.group_size = cfg.model.n_experts // cfg.data.n_sources

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
        frozen = {}
        params.update(init_attention(d, cfg.model.heads, streams.stream("init", 0)))
        if cfg.model.arch == "come":
            for kind, index in (("structure", 10), ("semantic", 11)):
                seed = int(streams.stream("init", index).integers(2**62))
                frozen.update(init_frozen(kind, d, np.random.default_rng(seed)))
            params.update(init_expert_bank(
                cfg.model.n_experts, d, EXPERT_HIDDEN_RATIO * d,
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
        return cls(cfg, params, frozen)

    def save(self, path):
        return save_checkpoint(path, {**self.params, **self.frozen})

    @classmethod
    def from_checkpoint(cls, cfg: RunConfig, path) -> "ComeModel":
        arrays = load_checkpoint(path)
        reference = cls.build(cfg)
        expected = {**reference.params, **reference.frozen}
        if set(arrays) != set(expected):
            raise ValueError(
                f"checkpoint blobs {sorted(set(arrays) ^ set(expected))} "
                f"do not match the configured architecture"
            )
        for name, arr in arrays.items():
            if arr.shape != expected[name].shape:
                raise ValueError(
                    f"checkpoint blob {name!r} has shape {arr.shape}, "
                    f"expected {expected[name].shape}"
                )
        frozen = {name: arrays.pop(name) for name in reference.frozen}
        for arr in frozen.values():
            arr.setflags(write=False)
        return cls(cfg, arrays, frozen)

    def parameter_digest(self) -> str:
        """Digest of the checkpoint: trainable and frozen arrays."""
        return checkpoint_digest({**self.params, **self.frozen})

    # ------------------------------------------------------------------
    # forward
    # ------------------------------------------------------------------

    @property
    def clusters(self) -> bool:
        """Whether ``forward`` draws from its ``cluster_rng``: only the routed
        body clusters, and only when ``clustering.strategy`` is not none."""
        return self.cfg.model.arch == "come" and self.cfg.clustering.strategy != "none"

    def _cluster(self, flat: Array, rng) -> Array:
        if not self.clusters:
            return np.zeros_like(flat)
        cfg = self.cfg.clustering
        if rng is None:
            rng = np.random.default_rng(0)
        model = fine2coarse(flat, m=cfg.fine_clusters, k=cfg.coarse_clusters, rng=rng)
        return cluster_features(model)

    @np.errstate(over="raise", invalid="raise")
    def forward(self, batch: TokenBatch, cluster_rng=None,
                pinned: ForwardState | None = None) -> ForwardState:
        """Class logits, gates, dispatch plan and the backward's caches for
        one batch; no loss (see ``objective``).

        ``cluster_rng`` seeds k-means and is read only when ``clusters``;
        None then stands for ``np.random.default_rng(0)``.

        Raises ValueError for an empty batch and, on the routed body, for
        source ids that are not B integers in [0, n_sources), naming the
        first bad sample, or a ``pinned`` state that backward consumed;
        NonFiniteError for NaN or Inf tokens; and FloatingPointError at the
        first operation that overflows or is invalid.
        """
        b, t, d = batch.tokens.shape
        if b == 0 or t == 0:
            raise ValueError(f"forward: empty batch of shape {batch.tokens.shape} (B, T, D)")
        att_out, att_cache = attention_forward(batch.tokens, self.params, self.cfg.model.heads)
        attended = batch.tokens + att_out if self.cfg.model.attention_residual else att_out
        flat = attended.reshape(b * t, d)
        if self.cfg.model.arch == "dense":
            out, hidden = ffn_forward(self.params, "dense", flat)
            features, gates, plan, body = out.reshape(b, t, d), None, None, (flat, hidden)
        else:
            features, gates, plan, body = self._routed_forward(batch, flat, cluster_rng, pinned)
        pooled = features.mean(axis=1)
        logits = pooled @ self.params["head.w"] + self.params["head.b"]
        return ForwardState(
            batch=batch,
            logits=logits,
            gates=gates,
            plan=plan,
            pooled=pooled,
            att_cache=att_cache,
            body=body,
        )

    def _routed_forward(self, batch: TokenBatch, flat: Array, cluster_rng,
                        pinned: ForwardState | None):
        """Enabled frozen priors plus the routed expert mixture over the
        attended tokens ``flat``. With ``pinned``, its cluster features and
        dispatch plan are reused.

        Returns (features (B, T, D), gates (N, n_experts), dispatch plan,
        RoutedCache).
        """
        cfg = self.cfg
        require_ids("forward", "source ids", batch.sources, batch.tokens.shape[0], "n_sources",
                    cfg.data.n_sources)
        priors = [frozen_forward(self.frozen, kind, batch.tokens)
                  for kind, on in (("structure", cfg.model.structure_expert),
                                   ("semantic", cfg.model.semantic_expert)) if on]

        if pinned is not None:
            if pinned.body is None:
                raise ValueError("forward: the pinned ForwardState was consumed by backward; "
                                 "pin a state that no backward has read")
            feats = pinned.body.concat[:, flat.shape[1]:]
        else:
            feats = self._cluster(flat, cluster_rng)
        routed_in, concat = dr_forward(flat, feats, self.params)
        gates = gate_forward(routed_in, self.params)

        if pinned is not None:
            plan = pinned.plan
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
        mix_out, saved = expert_mixture_forward(self.params, plan, routed_in, combine)
        features = mix_out.reshape(batch.tokens.shape)
        if priors:  # (structure + semantic) + routed, summed into the first prior
            for prior in priors[1:]:
                priors[0] += prior
            priors[0] += features
            features = priors[0]

        cache = RoutedCache(concat=concat, routed_in=routed_in, combine=combine, saved=saved,
                            renorm_sums=renorm_sums)
        return features, gates, plan, cache

    # ------------------------------------------------------------------
    # objective
    # ------------------------------------------------------------------

    @np.errstate(over="raise", invalid="raise")
    def objective(self, logits: Array, labels: Array, gates: Array | None = None,
                  token_sources: Array | None = None) -> tuple:
        """The weighted training objective over any number of samples.

        ``logits`` are (B, C) class logits and ``labels`` their B classes.
        The routed body also takes the (N, n_experts) ``gates`` of the
        samples' N tokens and the tokens' source ids; the dense body takes
        neither. Importance and load are CV^2 over all N tokens, so over
        several batches' gates they are one figure for the whole set, not a
        mean of per-batch figures.

        Returns (LossReport, d_logits, d_gates), with the loss weights
        applied here only: ``d_logits`` is the (B, C) gradient of ``total``
        w.r.t. the logits, and ``d_gates`` the tuple of its weighted
        traceability, importance and load terms w.r.t. the gates, each
        (N, n_experts), on the routed body and () on the dense body.
        Raises ValueError for labels that are not B integers in
        [0, n_classes), for routing arrays given to the dense body or
        missing on the routed one, and for token sources that are not N
        integers in [0, n_sources); FloatingPointError at the first
        operation that overflows or is invalid.
        """
        routed = self.cfg.model.arch == "come"
        if (gates is not None, token_sources is not None) != (routed, routed):
            takes = "gates and token sources" if routed else "no gates or token sources"
            raise ValueError(f"objective: the {self.cfg.model.arch} body takes {takes}")
        task, d_logits = cross_entropy(logits, labels)
        if not routed:
            return LossReport(task_ce=task, total=task), d_logits, ()
        token_sources = require_ids("objective", "token sources", token_sources, gates.shape[0],
                                    "n_sources", self.cfg.data.n_sources)
        # load first: its CDF temporaries, the objective's peak, then meet no other gradient
        l_load, d_load, load = load_loss(gates)
        l_ip, d_ip, importance = importance_loss(gates)
        l_tb, d_tb, clamped = traceability_loss(gates, token_sources, self.group_size)
        w = self.cfg.losses
        total = task + w.tb_weight * l_tb + w.balance_weight * (l_ip + l_load)
        report = LossReport(task_ce=task, total=total, l_tb=l_tb, l_ip=l_ip, l_load=l_load,
                            importance=tuple(importance), load=tuple(load), tb_clamped=clamped)
        d_gates = (w.tb_weight * d_tb, w.balance_weight * d_ip, w.balance_weight * d_load)
        return report, d_logits, d_gates

    # ------------------------------------------------------------------
    # backward
    # ------------------------------------------------------------------

    def backward(self, state: ForwardState, d_logits: Array, d_gates: tuple = ()) -> dict:
        """Gradient w.r.t. every trainable parameter, from the gradients of
        the forward's outputs: ``d_logits`` (B, C) w.r.t. the class logits
        and ``d_gates``, a sequence of (N, n_experts) terms w.r.t. the gates
        (routed body only), as ``objective`` returns them.

        Consumes the state's caches (see ``ForwardState``); raises
        ValueError for gate gradients given to the dense body and for a
        state that an earlier backward consumed.
        """
        if self.cfg.model.arch == "dense" and len(d_gates):
            raise ValueError("backward: the dense body takes no gates or token sources, "
                             "so no gate gradients")
        body, att_cache = state.body, state.att_cache
        if att_cache is None:
            raise ValueError("backward: this ForwardState was consumed by an earlier "
                             "backward; run forward again")
        state.body = state.att_cache = None  # consumed even if a step below raises
        b, t, d = state.batch.tokens.shape
        grads = {}
        grads["head.w"] = state.pooled.T @ d_logits
        grads["head.b"] = d_logits.sum(axis=0)
        d_pooled = d_logits @ self.params["head.w"].T
        d_out = (np.repeat(d_pooled[:, None, :], t, axis=1) / t).reshape(b * t, d)
        if self.cfg.model.arch == "dense":
            d_flat, dense_grads = ffn_backward(self.params, "dense", *body, d_out)
            grads.update(dense_grads)
        else:
            d_flat = self._routed_backward(d_out, d_gates, body, state, grads)
        del body  # each cache is freed as soon as its backward has read it
        grads.update(attention_backward(
            d_flat.reshape(b, t, d), att_cache, self.params, self.cfg.model.heads
        ))
        del att_cache
        for name, p in self.params.items():
            if name not in grads:  # an expert no token reached
                grads[name] = np.zeros_like(p)
        return grads

    def _routed_backward(self, d_out: Array, d_loss_gates: tuple, cache: RoutedCache,
                         state: ForwardState, grads: dict) -> Array:
        """Backward of ``_routed_forward``: the mixture's gate gradient plus
        each ``d_loss_gates`` term, in order (float addition does not
        reassociate). Fills ``grads`` and returns the gradient w.r.t. the
        attended tokens."""
        d_in_mix, d_gates, expert_grads = expert_mixture_backward(
            d_out, cache.saved, cache.combine, self.params)
        grads.update(expert_grads)
        if cache.renorm_sums is not None:
            # combine = gates[sel] / sum(gates[sel]); push back to raw gates
            sel = state.plan.selection
            picked_d = np.take_along_axis(d_gates, sel, axis=1)
            picked_w = np.take_along_axis(cache.combine, sel, axis=1)
            inner = np.sum(picked_d * picked_w, axis=1, keepdims=True)
            d_gates = np.zeros_like(d_gates)
            np.put_along_axis(d_gates, sel, (picked_d - inner) / cache.renorm_sums, axis=1)
        for term in d_loss_gates:
            d_gates += term
        d_in_router, router_grads = gate_backward(d_gates, cache.routed_in, state.gates,
                                                  self.params)
        grads.update(router_grads)
        d_in_mix += d_in_router
        d_flat, dr_grads = dr_backward(d_in_mix, cache.concat, self.params)
        grads.update(dr_grads)
        return d_flat

    def loss_and_grads(self, batch: TokenBatch, cluster_rng=None,
                       pinned: ForwardState | None = None):
        """One training step's forward, objective and backward: (state, grads)."""
        state = self.forward(batch, cluster_rng=cluster_rng, pinned=pinned)
        routing = (state.gates, batch.token_sources) if state.gates is not None else ()
        state.report, d_logits, d_gates = self.objective(state.logits, batch.labels, *routing)
        return state, self.backward(state, d_logits, d_gates)


def component_grad_check(model: ComeModel, batch: TokenBatch, component: str,
                         h: float = 1e-5, cluster_rng=None):
    """Central-difference check of one component's parameters against the
    total loss, with the routing structure pinned from a reference forward
    (the dense body has none, and ignores it)."""
    from .numerics import grad_check

    prefix = COMPONENT_PREFIXES[component]
    names = sorted(n for n in model.params if n.startswith(prefix))
    if not names:
        raise ValueError(f"model has no {component!r} parameters")
    pinned = model.forward(batch, cluster_rng=cluster_rng)
    shapes = [model.params[n].shape for n in names]
    sizes = [model.params[n].size for n in names]
    original = {n: model.params[n] for n in names}

    def fn(theta):
        offset = 0
        for n, shape, size in zip(names, shapes, sizes):
            model.params[n] = theta[offset : offset + size].reshape(shape)
            offset += size
        state, grads = model.loss_and_grads(batch, pinned=pinned)
        flat = np.concatenate([grads[n].ravel() for n in names])
        return state.report.total, flat

    theta0 = np.concatenate([original[n].ravel() for n in names])
    try:
        return grad_check(fn, theta0, h=h)
    finally:
        model.params.update(original)
