"""Deterministic synthetic multi-source token generator.

Each source owns a mean vector and an orthonormal latent subspace; every
sample draws a shared latent z and a source latent u, emits T noisy copies
of mean + W_shared z + B_source u, and takes its class label from
argmax(V z + V_source u) so that both the shared and the source-specific
latent carry label signal. Source frequencies (``source_weights``) are
deliberately imbalanced, and all sources share one noise scale.

``GeneratorConfig`` is the one schema of the generator's parameters: the
run config's ``data`` section extends it with the dataset seed and path.

With ``source_basis_mode="shared"`` (the default) every source embeds u in
the same subspace while keeping its own label map V_source: the token-to-
label rule then genuinely conflicts across sources, which is the
interference a source-routed expert bank is meant to absorb. "private"
gives each source its own subspace instead. Everything is a pure function
of the seed.

The "data" stream is drawn in a fixed order, which the pinned digests in
the tests guard: the source frames, the shared basis and the two label
maps; then, per sample, one uniform that picks the source (the one draw
``Generator.choice(p=weights)`` makes, mapped through the same CDF), the
``shared_rank + source_rank`` latent normals, and the T*D noise normals;
last, the train/test permutation. Tokens and labels are computed from the
drawn values in blocks of samples, one matrix-vector product per sample,
as a per-sample loop computes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import RandomStreams, finite_number, require_ids

Array = np.ndarray

BLOCK = 256  # samples whose tokens and labels are computed together


@dataclass
class GeneratorConfig:
    n_sources: int = 4
    width: int = 32
    tokens_per_sample: int = 16
    n_classes: int = 3
    shared_rank: int = 4
    source_rank: int = 2
    n_samples: int = 4000
    source_weights: list = field(default_factory=lambda: [4.0, 2.0, 1.0, 1.0])
    mean_scale: float = 2.0
    shared_scale: float = 1.0
    source_scale: float = 1.0
    noise_scale: float = 0.5
    label_shared_scale: float = 1.5
    label_source_scale: float = 1.0
    source_basis_mode: str = "shared"  # shared | private
    train_fraction: float = 0.8

    @property
    def n_train(self) -> int:
        """Samples in the training split; the rest are the test split."""
        return int(round(self.train_fraction * self.n_samples))

    def validate(self):
        if self.source_basis_mode not in ("shared", "private"):
            raise ValueError("source_basis_mode must be shared|private")
        if self.n_sources < 1 or self.n_classes < 2:
            raise ValueError("need at least one source and two classes")
        if len(self.source_weights) != self.n_sources:
            raise ValueError(
                f"{len(self.source_weights)} weights for {self.n_sources} sources"
            )
        defaults = GeneratorConfig()
        for f in fields(GeneratorConfig):
            if isinstance(getattr(defaults, f.name), (float, list)):
                value = getattr(self, f.name)
                numbers = value if isinstance(value, list) else [value]
                if not all(map(finite_number, numbers)):
                    raise ValueError(f"{f.name} must be finite, got {value!r}")
        if any(w <= 0 for w in self.source_weights):
            raise ValueError("source_weights must be positive")
        if math.isinf(sum(map(float, self.source_weights))):
            raise ValueError(f"source_weights sum past the largest float: {self.source_weights!r}")
        if min(self.width, self.tokens_per_sample, self.n_samples) < 1:
            raise ValueError("degenerate dimensions")
        if not 1 <= self.shared_rank <= self.width:
            raise ValueError(f"shared_rank={self.shared_rank} outside [1, width={self.width}]")
        if not 0 <= self.source_rank <= self.width:
            raise ValueError(f"source_rank={self.source_rank} outside [0, width={self.width}]")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


def check_dataset(where, bundle: DatasetBundle, generator: GeneratorConfig):
    """Raise a ValueError starting with ``where`` unless the bundle's tokens
    are (N, tokens_per_sample, width), its sources and labels are N integers
    (an integer dtype) in [0, n_sources) and [0, n_classes), and its splits
    pass ``check_splits``."""
    tokens = bundle.tokens
    shape = (generator.tokens_per_sample, generator.width)
    if tokens.shape[1:] != shape:
        raise ValueError(f"{where}: tokens have shape {tokens.shape}, but the "
                         f"generator's (tokens_per_sample, width) is {shape}")
    for name, bound in (("sources", "n_sources"), ("labels", "n_classes")):
        require_ids(where, name, getattr(bundle, name), len(tokens), bound,
                    getattr(generator, bound))
    check_splits(where, len(tokens), train_idx=bundle.train_idx, test_idx=bundle.test_idx)


def check_splits(where, n: int, **splits):
    """The split rule: raise a ValueError starting with ``where`` and naming
    the split unless each of the two named splits is an array of integer
    sample indices in [0, n), no index repeats within a split, and no index
    is in both. The error names the first bad entry. On success this is a
    min, a max and one count per sample."""
    arrays = {}
    for name, idx in splits.items():
        if not isinstance(idx, np.ndarray):
            raise ValueError(f"{where}: {name} must be a NumPy array, got {type(idx).__name__}")
        rule = f"{where}: {name} must be a list of ints in [0, {n})"
        if idx.size == 0:  # an empty JSON list converts to float64
            idx = idx.astype(np.int64)
        if idx.dtype.kind not in "iu" or idx.ndim != 1:
            raise ValueError(f"{rule}, got dtype {idx.dtype} and shape {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            j = int(np.flatnonzero((idx < 0) | (idx >= n))[0])
            raise ValueError(f"{rule}, but entry {j + 1} of {idx.size} is {idx[j]}")
        arrays[name] = idx.astype(np.intp, copy=False)
    counts = np.bincount(np.concatenate(list(arrays.values())), minlength=n)
    if counts.max(initial=0) <= 1:
        return
    for name, idx in arrays.items():
        repeated = np.bincount(idx, minlength=n)[idx] > 1
        if repeated.any():
            i, j = np.flatnonzero(idx == idx[repeated.argmax()])[:2]
            raise ValueError(f"{where}: {name} repeats a sample index: entries {i + 1} and "
                             f"{j + 1} of {idx.size} are {idx[i]}")
    shared = np.flatnonzero(counts > 1)
    first, second = arrays
    raise ValueError(f"{where}: {shared.size} sample indices are in both {first} and {second}, "
                     f"the lowest {shared[0]}")


@dataclass
class TokenBatch:
    """The unit flowing through attention, clustering, routing and experts."""

    tokens: Array  # (B, T, D)
    sources: Array  # (B,)
    labels: Array  # (B,)

    @property
    def token_sources(self) -> Array:
        """Per-token source ids, flattened to (B*T,)."""
        t = self.tokens.shape[1]
        return np.repeat(self.sources, t)


@dataclass
class DatasetBundle:
    tokens: Array  # (N, T, D)
    sources: Array  # (N,)
    labels: Array  # (N,)
    train_idx: Array
    test_idx: Array
    config: GeneratorConfig
    seed: int
    label_shared_map: Array | None = None  # (C, shared_rank)
    label_source_maps: Array | None = None  # (M, C, source_rank)
    latents_shared: Array | None = None  # (N, shared_rank)
    latents_source: Array | None = None  # (N, source_rank)

    @property
    def n_samples(self) -> int:
        return self.tokens.shape[0]

    def take(self, indices) -> TokenBatch:
        idx = np.asarray(indices)
        if idx.size == 0:
            idx = idx.astype(np.int64)  # an empty list converts to float64
        return TokenBatch(
            tokens=self.tokens[idx], sources=self.sources[idx], labels=self.labels[idx]
        )


def _orthonormal(rng: np.random.Generator, width: int, rank: int) -> Array:
    if rank == 0:
        return np.zeros((width, 0))
    q, _ = np.linalg.qr(rng.standard_normal((width, rank)))
    return q[:, :rank]


def _source_frames(cfg: GeneratorConfig, rng: np.random.Generator):
    """Per-source latent bases (M, D, r) and means (M, D), drawing each
    source's basis (once for all sources in "shared" mode) before its mean."""
    common = None
    if cfg.source_basis_mode == "shared":
        common = _orthonormal(rng, cfg.width, cfg.source_rank)
    bases, means = [], []
    for _ in range(cfg.n_sources):
        basis = common if common is not None else _orthonormal(rng, cfg.width, cfg.source_rank)
        bases.append(cfg.source_scale * basis)
        means.append(cfg.mean_scale * rng.standard_normal(cfg.width))
    return np.stack(bases), np.stack(means)


def generate(cfg: GeneratorConfig, seed: int) -> DatasetBundle:
    """Build the full dataset plus a seeded-shuffle train/test split."""
    cfg.validate()
    streams = RandomStreams(seed)
    rng = streams.stream("data")

    bases, means = _source_frames(cfg, rng)
    shared_basis = cfg.shared_scale * _orthonormal(rng, cfg.width, cfg.shared_rank)
    label_shared = cfg.label_shared_scale * rng.standard_normal((cfg.n_classes, cfg.shared_rank))
    label_source = cfg.label_source_scale * rng.standard_normal(
        (cfg.n_sources, cfg.n_classes, cfg.source_rank)
    )

    weights = np.array(cfg.source_weights, dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]

    n, t, d = cfg.n_samples, cfg.tokens_per_sample, cfg.width
    tokens = np.empty((n, t, d))
    uniforms = np.empty(n)
    latents = np.empty((n, cfg.shared_rank + cfg.source_rank))
    for i in range(n):
        uniforms[i] = rng.random()
        rng.standard_normal(out=latents[i])
        rng.standard_normal(out=tokens[i])
    sources = cdf.searchsorted(uniforms, side="right")
    zs, us = latents[:, : cfg.shared_rank], latents[:, cfg.shared_rank :]

    labels = np.empty(n, dtype=np.int64)
    for lo in range(0, n, BLOCK):
        blk = slice(lo, lo + BLOCK)
        src, z, u = sources[blk], zs[blk, :, None], us[blk, :, None]
        # a stacked product against a trailing vector axis is one GEMV per
        # sample, so every sum is formed in the per-sample order
        base = means[src] + (shared_basis @ z)[..., 0] + (bases[src] @ u)[..., 0]
        tokens[blk] *= cfg.noise_scale
        tokens[blk] += base[:, None, :]
        scores = (label_shared @ z)[..., 0] + (label_source[src] @ u)[..., 0]
        labels[blk] = scores.argmax(axis=1)

    perm = rng.permutation(n)
    train_idx = np.sort(perm[: cfg.n_train])
    test_idx = np.sort(perm[cfg.n_train :])

    return DatasetBundle(
        tokens=tokens,
        sources=sources,
        labels=labels,
        train_idx=train_idx,
        test_idx=test_idx,
        config=cfg,
        seed=int(seed),
        label_shared_map=label_shared,
        label_source_maps=label_source,
        latents_shared=zs,
        latents_source=us,
    )


def leave_source_out(bundle: DatasetBundle, holdout: int):
    """Split a dataset into (all other sources, the held-out source).

    The kept part inherits the original train/test membership of its
    samples; the held-out part is evaluation-only (all samples in its test
    split). Together the two parts are exactly the original samples.
    """
    if holdout not in set(np.unique(bundle.sources).tolist()):
        raise ValueError(f"holdout source {holdout} not present")
    keep_mask = bundle.sources != holdout
    keep_pos = np.flatnonzero(keep_mask)
    held_pos = np.flatnonzero(~keep_mask)

    remap = -np.ones(bundle.n_samples, dtype=np.int64)
    remap[keep_pos] = np.arange(keep_pos.size)
    train_mask = np.zeros(bundle.n_samples, dtype=bool)
    train_mask[bundle.train_idx] = True

    def part(pos, train_idx, test_idx):
        return DatasetBundle(
            tokens=bundle.tokens[pos], sources=bundle.sources[pos], labels=bundle.labels[pos],
            train_idx=train_idx, test_idx=test_idx, config=bundle.config, seed=bundle.seed,
        )

    kept = part(keep_pos, remap[np.flatnonzero(keep_mask & train_mask)],
                remap[np.flatnonzero(keep_mask & ~train_mask)])
    held = part(held_pos, np.array([], dtype=np.int64), np.arange(held_pos.size))
    return kept, held

