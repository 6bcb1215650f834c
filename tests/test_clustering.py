import itertools

import numpy as np
import pytest

from come.clustering import cluster_features, fine2coarse, kmeans, multistep


def _rng(seed=0):
    return np.random.default_rng(seed)


def _assignment_cost(points, labels, k):
    total = 0.0
    for j in range(k):
        members = points[labels == j]
        if len(members):
            total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------


def test_kmeans_separated_points_zero_inertia():
    pts = np.array([[0.0, 0.0], [5.0, 5.0], [-7.0, 3.0]])
    run = kmeans(pts, 3, rng=_rng())
    assert run.inertia == 0.0
    assert sorted(map(tuple, run.centroids)) == sorted(map(tuple, pts))


def test_kmeans_four_point_fixture_matches_brute_force():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    # oracle: exhaustive minimum over all 2-partitions
    best = min(
        _assignment_cost(pts, np.array(labels), 2)
        for labels in itertools.product([0, 1], repeat=4)
        if len(set(labels)) == 2
    )
    run = kmeans(pts, 2, rng=_rng(1))
    assert abs(best - 1.0) < 1e-12
    assert abs(run.inertia - best) < 1e-12
    np.testing.assert_allclose(
        sorted(map(tuple, run.centroids)), [(0.0, 0.5), (10.0, 0.5)], atol=1e-12
    )


def test_kmeans_beats_random_assignments():
    rng = _rng(2)
    pts = rng.normal(size=(200, 8))
    run = kmeans(pts, 4, rng=_rng(3))
    random_costs = [
        _assignment_cost(pts, rng.integers(0, 4, size=200), 4) for _ in range(50)
    ]
    assert run.inertia <= min(random_costs)


def test_kmeans_inertia_monotone_on_random_instances():
    rng = _rng(4)
    for i in range(100):
        n = int(rng.integers(10, 60))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, min(6, n)))
        pts = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        run = kmeans(pts, k, rng=_rng(1000 + i))
        hist = np.array(run.inertia_history)
        assert np.all(np.diff(hist) <= 1e-9)
        assert run.converged or run.n_iters == 100


def test_kmeans_rejects_k_above_distinct_points():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="distinct"):
        kmeans(pts, 3, rng=_rng())


def test_kmeans_repairs_empty_clusters_keeping_k():
    # adversarial warm start: two centroids on top of each other far away
    pts = np.concatenate([_rng(5).normal(size=(30, 2)), [[50.0, 50.0]]])
    init = np.array([[100.0, 100.0], [100.0, 100.0], [0.0, 0.0]])
    run = kmeans(pts, 3, init=init)
    assert run.centroids.shape == (3, 2)
    assert len(np.unique(run.assignments)) == 3


def test_kmeans_deterministic_given_seed():
    pts = _rng(6).normal(size=(80, 5))
    a = kmeans(pts, 4, rng=_rng(7))
    b = kmeans(pts, 4, rng=_rng(7))
    np.testing.assert_array_equal(a.centroids, b.centroids)
    np.testing.assert_array_equal(a.assignments, b.assignments)


# ---------------------------------------------------------------------------
# fine2coarse
# ---------------------------------------------------------------------------


def test_fine2coarse_on_sixteen_distinct_positions():
    rng = _rng(8)
    positions = rng.normal(size=(16, 4)) * 10
    tokens = np.repeat(positions, 3, axis=0)
    model = fine2coarse(tokens, m=16, k=8, rng=_rng(9))
    # the mean of identical copies reproduces the position only to an ulp,
    # so "inertia 0" holds up to accumulated rounding
    assert model.fine_inertia < 1e-9
    np.testing.assert_allclose(
        sorted(map(tuple, model.fine_centroids)), sorted(map(tuple, positions)), atol=1e-12
    )
    # phase 2 is k-means over those positions: its inertia is the cost of
    # the coarse centroids on the fine-centroid set
    d2 = ((model.fine_centroids[:, None, :] - model.coarse_centroids[None, :, :]) ** 2).sum(-1)
    assert abs(d2.min(axis=1).sum() - model.coarse_inertia) < 1e-9


def test_fine2coarse_separated_sources_have_pure_coarse_clusters():
    rng = _rng(10)
    tokens, sources = [], []
    for s in range(4):
        mean = np.zeros(8)
        mean[s] = 100.0
        tokens.append(mean + 0.1 * rng.normal(size=(40, 8)))
        sources.append(np.full(40, s))
    tokens = np.concatenate(tokens)
    sources = np.concatenate(sources)
    model = fine2coarse(tokens, m=16, k=8, rng=_rng(11))
    # purity by exhaustive count: each coarse cluster must hold one source
    for c in np.unique(model.coarse_assignments):
        members = sources[model.coarse_assignments == c]
        assert len(np.unique(members)) == 1


def test_fine2coarse_lineage_is_partition():
    tokens = _rng(12).normal(size=(60, 6))
    model = fine2coarse(tokens, m=16, k=8, rng=_rng(13))
    assert model.lineage.shape == (16,)
    assert np.all((model.lineage >= 0) & (model.lineage < 8))
    counts = np.bincount(model.lineage, minlength=8)
    assert counts.sum() == 16
    np.testing.assert_array_equal(
        model.coarse_assignments, model.lineage[model.fine_assignments]
    )


def test_fine2coarse_falls_back_when_batch_smaller_than_m():
    tokens = _rng(14).normal(size=(10, 4))
    model = fine2coarse(tokens, m=16, k=8, rng=_rng(15))
    assert model.fine_centroids.shape[0] == 10
    assert any("m'" in w for w in model.warnings)


def test_fine2coarse_rejects_bad_m_k():
    with pytest.raises(ValueError, match="m > k"):
        fine2coarse(np.zeros((20, 3)), m=4, k=4, rng=_rng())


# ---------------------------------------------------------------------------
# multistep
# ---------------------------------------------------------------------------


def test_multistep_single_step_no_suppression_equals_kmeans():
    pts = _rng(16).normal(size=(50, 4))
    model, state = multistep(pts, k=4, steps=1, min_cluster_fraction=0.0, rng=_rng(17))
    plain = kmeans(pts, 4, rng=_rng(17))
    np.testing.assert_allclose(model.coarse_centroids, plain.centroids, atol=1e-12, rtol=0)
    np.testing.assert_array_equal(model.coarse_assignments, plain.assignments)
    assert not state.suppressed


def test_multistep_inertia_non_increasing_across_steps():
    rng = _rng(18)
    pts = np.concatenate([rng.normal(loc=c, size=(25, 3)) for c in (-4, 0, 4, 8)])
    model, state = multistep(pts, k=4, steps=5, min_cluster_fraction=0.01, rng=_rng(19))
    assert not state.suppressed
    inertias = np.array(state.inertias)
    assert np.all(np.diff(inertias) <= 1e-9)
    assert model.coarse_centroids.shape[0] <= 4


def test_multistep_suppresses_planted_outlier():
    rng = _rng(20)
    pts = np.concatenate(
        [rng.normal(loc=c, scale=0.3, size=(33, 2)) for c in (-10, 0, 10)]
        + [[[200.0, 200.0]]]
    )
    assert pts.shape[0] == 100
    model, state = multistep(pts, k=4, steps=3, min_cluster_fraction=0.05, rng=_rng(21))
    assert any(size == 1 for _, _, size in state.suppressed)
    # the outlier is reassigned to a surviving centroid
    assert model.coarse_assignments[-1] < model.coarse_centroids.shape[0]
    sizes = np.bincount(model.coarse_assignments)
    assert np.all(sizes >= 0.05 * 100)


def test_multistep_rejects_when_everything_suppressed():
    pts = _rng(22).normal(size=(20, 2))
    with pytest.raises(ValueError, match="min_cluster_fraction"):
        multistep(pts, k=4, steps=2, min_cluster_fraction=0.9, rng=_rng(23))


def test_multistep_deterministic():
    pts = _rng(24).normal(size=(60, 5))
    m1, _ = multistep(pts, k=4, steps=3, rng=_rng(25))
    m2, _ = multistep(pts, k=4, steps=3, rng=_rng(25))
    np.testing.assert_array_equal(m1.coarse_centroids, m2.coarse_centroids)
    np.testing.assert_array_equal(m1.coarse_assignments, m2.coarse_assignments)


# ---------------------------------------------------------------------------
# cluster features
# ---------------------------------------------------------------------------


def test_feature_lookup_single_coarse_cluster_is_constant():
    tokens = _rng(26).normal(size=(30, 4)) * 0.01
    model = fine2coarse(tokens, m=4, k=1, rng=_rng(27))
    feats = cluster_features(model)
    assert np.all(feats == feats[0])


def test_cluster_features_follow_fine_lineage():
    tokens = _rng(28).normal(size=(40, 4))
    model = fine2coarse(tokens, m=8, k=3, rng=_rng(29))
    feats = cluster_features(model)
    assert feats.shape == (40, 4)
    for i in (0, 17, 39):
        expected = model.coarse_centroids[model.lineage[model.fine_assignments[i]]]
        np.testing.assert_array_equal(feats[i], expected)


def test_feature_lookup_matches_member_mean_when_converged():
    tokens = _rng(30).normal(size=(64, 4))
    model = fine2coarse(tokens, m=12, k=4, rng=_rng(31))
    assert model.coarse_run.converged
    # converged phase 2: each coarse centroid is the mean of its member
    # fine centroids, so the lookup equals that recomputed mean
    for c in range(model.coarse_centroids.shape[0]):
        members = model.fine_centroids[model.lineage == c]
        if len(members):
            np.testing.assert_allclose(
                model.coarse_centroids[c], members.mean(axis=0), atol=1e-12
            )
