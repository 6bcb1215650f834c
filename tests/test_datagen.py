import hashlib

import numpy as np
import pytest

from come.datagen import (
    GeneratorConfig,
    generate,
    generator_sidecar,
    leave_source_out,
)


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
    # with B_m = 0 and V_m = 0 the label is a function of z alone
    recomputed = np.argmax(ds.latents_shared @ ds.label_shared_map.T, axis=1)
    np.testing.assert_array_equal(ds.labels, recomputed)
    # equal z implies equal label: recomputing through the same map twice
    again = np.argmax(ds.latents_shared @ ds.label_shared_map.T, axis=1)
    np.testing.assert_array_equal(recomputed, again)


def test_labels_depend_on_both_latents():
    ds = generate(_small_cfg(n_samples=500), seed=3)
    shared_only = np.argmax(ds.latents_shared @ ds.label_shared_map.T, axis=1)
    # source latents must flip some labels, otherwise they carry no signal
    assert np.any(shared_only != ds.labels)
    full = np.array(
        [
            np.argmax(
                ds.label_shared_map @ ds.latents_shared[i]
                + ds.label_source_maps[ds.sources[i]] @ ds.latents_source[i]
            )
            for i in range(ds.n_samples)
        ]
    )
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
    for c in np.unique(model.coarse_assignments):
        members = per_token_sources[model.coarse_assignments == c]
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


def test_sidecar_roundtrip_fields():
    ds = generate(_small_cfg(), seed=13)
    side = generator_sidecar(ds)
    assert side["seed"] == 13
    assert side["generator"]["n_sources"] == 4
    assert sum(side["source_counts"]) == ds.n_samples
    assert len(side["train_indices"]) == len(ds.train_idx)


# SHA-256 over tokens, sources, labels and the split indices of seed 21,
# recorded before the generator's internals were reorganised.
GENERATOR_DIGESTS = {
    "shared": "7f9bb7fbf3e77ad7cf8a428a346faf8b77638f2693d871d0ffeb26593376e55f",
    "private": "fccfad6175e6dbe8fc84a6705dd83446f56893dbba2204597c492ad6b000da53",
}


@pytest.mark.parametrize("mode", sorted(GENERATOR_DIGESTS))
def test_generator_output_is_pinned(mode):
    ds = generate(_small_cfg(source_basis_mode=mode), seed=21)
    h = hashlib.sha256()
    for arr in (ds.tokens, ds.sources, ds.labels, ds.train_idx, ds.test_idx):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == GENERATOR_DIGESTS[mode]
