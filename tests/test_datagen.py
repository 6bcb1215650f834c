import dataclasses
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from come.container import generator_sidecar
from come.datagen import (
    GeneratorConfig,
    _orthonormal,
    _source_frames,
    generate,
    leave_source_out,
)
from come.numerics import RandomStreams


def _small_cfg(**kw):
    base = dict(
        n_sources=4,
        width=8,
        tokens_per_sample=4,
        n_classes=3,
        shared_rank=3,
        source_rank=2,
        n_samples=200,
        source_weights=[3.0, 1.0, 1.0, 1.0],
    )
    base.update(kw)
    return GeneratorConfig(**base)


def test_same_seed_gives_bit_identical_dataset():
    cfg = _small_cfg()
    a = generate(cfg, seed=5)
    b = generate(_small_cfg(), seed=5)
    np.testing.assert_array_equal(a.tokens, b.tokens)
    np.testing.assert_array_equal(a.sources, b.sources)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.train_idx, b.train_idx)
    c = generate(_small_cfg(), seed=6)
    assert not np.array_equal(a.tokens, c.tokens)


def test_source_counts_concentrate_binomially():
    cfg = _small_cfg(source_weights=[3.0, 1.0, 1.0, 1.0], n_samples=6000)
    ds = generate(cfg, seed=1)
    counts = np.bincount(ds.sources, minlength=4)
    p = 0.5  # 3 / (3+1+1+1)
    sigma = np.sqrt(6000 * p * (1 - p))
    assert abs(counts[0] - 3000) <= 3 * sigma


def test_labels_deterministic_in_shared_latent_when_source_signal_off():
    cfg = _small_cfg(
        noise_scale=0.0,
        tokens_per_sample=1,
        source_scale=0.0,
        label_source_scale=0.0,
        n_samples=100,
    )
    ds = generate(cfg, seed=2)
    truth = _per_sample_reference(cfg, 2)
    # with B_m = 0 and V_m = 0 the label is a function of z alone
    recomputed = np.argmax(truth["latents_shared"] @ truth["label_shared_map"].T, axis=1)
    np.testing.assert_array_equal(ds.labels, recomputed)
    # equal z implies equal label: recomputing through the same map twice
    again = np.argmax(truth["latents_shared"] @ truth["label_shared_map"].T, axis=1)
    np.testing.assert_array_equal(recomputed, again)


def test_labels_depend_on_both_latents():
    cfg = _small_cfg(n_samples=500)
    ds = generate(cfg, seed=3)
    truth = _per_sample_reference(cfg, 3)
    v, v_source = truth["label_shared_map"], truth["label_source_maps"]
    z, u = truth["latents_shared"], truth["latents_source"]
    shared_only = np.argmax(z @ v.T, axis=1)
    # source latents must flip some labels, otherwise they carry no signal
    assert np.any(shared_only != ds.labels)
    full = np.array([np.argmax(v @ z[i] + v_source[ds.sources[i]] @ u[i])
                     for i in range(ds.n_samples)])
    np.testing.assert_array_equal(full, ds.labels)


def test_split_disjoint_and_exhaustive():
    ds = generate(_small_cfg(), seed=4)
    train = set(ds.train_idx.tolist())
    test = set(ds.test_idx.tolist())
    assert not train & test
    assert train | test == set(range(ds.n_samples))
    assert len(train) == round(0.8 * ds.n_samples)


def test_zero_noise_separated_sources_cluster_purely():
    cfg = _small_cfg(noise_scale=0.0, mean_scale=50.0, n_samples=40)
    ds = generate(cfg, seed=7)
    flat = ds.tokens.reshape(-1, cfg.width)
    per_token_sources = np.repeat(ds.sources, cfg.tokens_per_sample)
    from come.clustering import fine2coarse

    model = fine2coarse(flat, m=16, k=8, rng=np.random.default_rng(8))
    token_coarse = model.coarse.assignments[model.fine.assignments]
    for c in np.unique(token_coarse):
        members = per_token_sources[token_coarse == c]
        assert len(np.unique(members)) == 1  # purity 1.0


def test_take_produces_token_batches():
    ds = generate(_small_cfg(), seed=9)
    batch = ds.take(ds.train_idx[:6])
    assert batch.tokens.shape == (6, 4, 8)
    assert batch.sources.shape == (6,)
    assert batch.token_sources.shape == (24,)
    np.testing.assert_array_equal(batch.token_sources[:4], batch.sources[0])


def test_leave_source_out_partition():
    ds = generate(_small_cfg(), seed=10)
    kept, held = leave_source_out(ds, holdout=2)
    assert np.all(kept.sources != 2)
    assert np.all(held.sources == 2)
    assert kept.n_samples + held.n_samples == ds.n_samples
    # per-source counts match the generator's
    orig = np.bincount(ds.sources, minlength=4)
    assert held.n_samples == orig[2]
    np.testing.assert_array_equal(
        np.bincount(kept.sources, minlength=4),
        [orig[0], orig[1], 0, orig[3]],
    )
    # multiset equality of the sample payloads
    np.testing.assert_allclose(
        np.sort(np.concatenate([kept.tokens, held.tokens], axis=0).ravel()),
        np.sort(ds.tokens.ravel()),
    )
    # kept split is inherited and consistent
    assert set(kept.train_idx) | set(kept.test_idx) == set(range(kept.n_samples))
    assert held.train_idx.size == 0
    assert held.test_idx.size == held.n_samples


def test_leave_source_out_two_sources():
    cfg = _small_cfg(n_sources=2, source_weights=[1.0, 1.0])
    ds = generate(cfg, seed=11)
    kept, _ = leave_source_out(ds, holdout=1)
    assert set(np.unique(kept.sources)) == {0}


def test_leave_source_out_missing_holdout_rejected():
    ds = generate(_small_cfg(), seed=12)
    with pytest.raises(ValueError, match="not present"):
        leave_source_out(ds, holdout=9)


def test_config_validation():
    with pytest.raises(ValueError, match="weights"):
        generate(_small_cfg(source_weights=[1.0]), seed=0)
    with pytest.raises(ValueError, match="positive"):
        generate(_small_cfg(source_weights=[1.0, 1.0, 1.0, 0.0]), seed=0)
    with pytest.raises(ValueError, match="degenerate"):
        generate(_small_cfg(width=0), seed=0)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(source_weights=[np.inf, 1.0, 1.0, 1.0]),
         "source_weights must be finite, got [inf, 1.0, 1.0, 1.0]"),
        (dict(source_weights=[np.nan, 1.0, 1.0, 1.0]),
         "source_weights must be finite, got [nan, 1.0, 1.0, 1.0]"),
        (dict(source_weights=[1e308, 1e308, 1.0, 1.0]),
         "source_weights sum past the largest float: [1e+308, 1e+308, 1.0, 1.0]"),
        (dict(noise_scale=np.nan), "noise_scale must be finite, got nan"),
        (dict(mean_scale=-np.inf), "mean_scale must be finite, got -inf"),
        (dict(label_source_scale=10**400), "label_source_scale must be finite"),
    ],
    ids=["inf-weight", "nan-weight", "weight-sum-overflows", "nan-scale", "inf-scale", "huge-int"],
)
def test_non_finite_weights_and_scales_are_rejected_by_name(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        _small_cfg(**kw).validate()


NUMBER_FIELDS = [f.name for f in dataclasses.fields(GeneratorConfig)
                 if isinstance(getattr(GeneratorConfig(), f.name), (float, list))]


@pytest.mark.parametrize("name", NUMBER_FIELDS)
def test_every_float_and_list_field_must_be_finite(name):
    value = getattr(_small_cfg(), name)
    nan = [*value[:-1], math.nan] if isinstance(value, list) else math.nan
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite, got {nan!r}")):
        _small_cfg(**{name: nan}).validate()


def test_sidecar_roundtrip_fields():
    ds = generate(_small_cfg(), seed=13)
    side = generator_sidecar(ds)
    assert side["seed"] == 13
    assert side["generator"]["n_sources"] == 4
    assert sum(side["source_counts"]) == ds.n_samples
    assert len(side["train_indices"]) == len(ds.train_idx)


def _per_sample_reference(cfg: GeneratorConfig, seed: int) -> dict:
    """The dataset and its ground truth from the per-sample loop that
    ``generate`` replaced: Generator.choice picks each source, and all
    arithmetic is done one sample at a time. Returns the tokens, sources and
    labels, the label maps, and each sample's shared and source latents."""
    rng = RandomStreams(seed).stream("data")
    bases, means = _source_frames(cfg, rng)
    shared_basis = cfg.shared_scale * _orthonormal(rng, cfg.width, cfg.shared_rank)
    label_shared = cfg.label_shared_scale * rng.standard_normal((cfg.n_classes, cfg.shared_rank))
    label_source = cfg.label_source_scale * rng.standard_normal(
        (cfg.n_sources, cfg.n_classes, cfg.source_rank)
    )
    weights = np.array(cfg.source_weights, dtype=np.float64)
    weights = weights / weights.sum()
    tokens, sources, labels, zs, us = [], [], [], [], []
    for _ in range(cfg.n_samples):
        m = int(rng.choice(cfg.n_sources, p=weights))
        z = rng.standard_normal(cfg.shared_rank)
        u = rng.standard_normal(cfg.source_rank)
        base = means[m] + shared_basis @ z + bases[m] @ u
        noise = rng.standard_normal((cfg.tokens_per_sample, cfg.width))
        tokens.append(base + cfg.noise_scale * noise)
        sources.append(m)
        labels.append(np.argmax(label_shared @ z + label_source[m] @ u))
        zs.append(z)
        us.append(u)
    return {"tokens": np.array(tokens), "sources": np.array(sources),
            "labels": np.array(labels), "label_shared_map": label_shared,
            "label_source_maps": label_source, "latents_shared": np.array(zs),
            "latents_source": np.array(us)}


@settings(max_examples=25, deadline=None)
@given(
    n_sources=st.integers(1, 4),
    width=st.sampled_from([4, 8, 33]),
    ranks=st.tuples(st.integers(1, 4), st.integers(0, 4)),
    n_samples=st.integers(1, 300),
    mode=st.sampled_from(["shared", "private"]),
    weights=st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_generate_matches_the_per_sample_loop(
    n_sources, width, ranks, n_samples, mode, weights, seed
):
    cfg = _small_cfg(n_sources=n_sources, width=width, shared_rank=ranks[0],
                     source_rank=ranks[1], n_samples=n_samples, source_basis_mode=mode,
                     source_weights=weights[:n_sources])
    ds = generate(cfg, seed)
    reference = _per_sample_reference(cfg, seed)
    for name in ("tokens", "sources", "labels"):
        np.testing.assert_array_equal(getattr(ds, name), reference[name])


BUNDLE_ARRAYS = ("tokens", "sources", "labels", "train_idx", "test_idx")
TRUTH_ARRAYS = ("label_shared_map", "label_source_maps", "latents_shared", "latents_source")

# name -> (config, seed); "default" is the benchmark's dataset, and "wide"
# crosses a 256-sample boundary at a width with larger BLAS kernels.
PINNED_CASES = {
    "shared": (_small_cfg(source_basis_mode="shared"), 21),
    "private": (_small_cfg(source_basis_mode="private"), 21),
    "no_source_latent": (_small_cfg(source_rank=0), 21),
    "one_source": (_small_cfg(n_sources=1, source_weights=[1.0]), 21),
    "wide": (_small_cfg(width=128, shared_rank=8, source_rank=4, n_samples=257), 21),
    "default": (GeneratorConfig(), 0),
}


def bundle_digest(name: str) -> str:
    """SHA-256 over the dtype, shape and bytes of the five bundle arrays,
    then of the four ground-truth arrays, which the per-sample reference
    replays from the same (config, seed)."""
    ds = generate(*PINNED_CASES[name])
    truth = _per_sample_reference(*PINNED_CASES[name])
    arrays = {**{f: getattr(ds, f) for f in BUNDLE_ARRAYS}, **{f: truth[f] for f in TRUTH_ARRAYS}}
    h = hashlib.sha256()
    for field, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        h.update(f"{field}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# Recorded from the per-sample generator loop, which drew each sample's
# source with Generator.choice. Tolerance: none.
BUNDLE_DIGESTS = {
    "shared": "fba268592ea3dd09b04abb19014d0e6c2023e69edb58313186844c40646a0e00",
    "private": "7a1404e76dfc8fc2d1632b9e90c6e3f774b0bc1af92bc5379eb990c684ce1532",
    "no_source_latent": "4a5d52d44120c8d04cd3f1d03db3647270e2bc3d37fa3b160b95f5b2e6170697",
    "one_source": "bfd0b214d97334dd8b806a9a8d0bbdbcb9da669a79824521f57615e0f38bd2cf",
    "wide": "6f34a4e0a51f1b82253823e957cc2792a130708a7a77bd1ceabf1170c761d839",
    "default": "eb90c72a5bfeabe0b2188d46a318424876f691e348633939aedd9ae59d1f362c",
}


@pytest.mark.parametrize("name", list(PINNED_CASES))
def test_every_bundle_array_is_pinned(name):
    assert bundle_digest(name) == BUNDLE_DIGESTS[name]


if __name__ == "__main__":
    # An intentional generator change re-records the table from this output.
    print(json.dumps({"BUNDLE_DIGESTS": {name: bundle_digest(name) for name in PINNED_CASES}},
                     indent=4))
