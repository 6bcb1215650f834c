import itertools

import numpy as np
import pytest

from come.clustering import cluster_features, fine2coarse, kmeans
from come.numerics import NonFiniteError


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


# The Python-loop k-means that the vectorised one replaced: every KMeansRun
# field of the library version must match it byte for byte.


def _loop_squared_distances(points, centroids):
    pp = np.sum(points * points, axis=1)[:, None]
    cc = np.sum(centroids * centroids, axis=1)[None, :]
    d2 = pp + cc - 2.0 * points @ centroids.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _loop_farthest_first_seed(points, k, rng):
    n = points.shape[0]
    first = int(rng.integers(n))
    chosen = [first]
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[chosen].copy()


def _loop_kmeans(points, k, rng=None, init=None, max_iters=100):
    pts = np.asarray(points, dtype=np.float64)
    n_distinct = np.unique(pts, axis=0).shape[0]
    if init is not None:
        centroids = np.asarray(init, dtype=np.float64).copy()
        k = centroids.shape[0]
    if k < 1 or k > n_distinct:
        raise ValueError(f"kmeans: k={k} exceeds {n_distinct} distinct points")
    if init is None:
        centroids = _loop_farthest_first_seed(
            pts, k, rng if rng is not None else np.random.default_rng(0)
        )
    assignments = np.full(pts.shape[0], -1, dtype=np.int64)
    history = []
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        d2 = _loop_squared_distances(pts, centroids)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(pts.shape[0]), new_assign].sum()))
        if np.array_equal(new_assign, assignments):
            converged = True
            break
        assignments = new_assign
        for j in range(k):
            members = assignments == j
            if members.any():
                centroids[j] = pts[members].mean(axis=0)
        sizes = np.bincount(assignments, minlength=k)
        if np.any(sizes == 0):
            point_d2 = np.sum((pts - centroids[assignments]) ** 2, axis=1)
            for j in np.flatnonzero(sizes == 0):
                far = int(np.argmax(point_d2))
                centroids[j] = pts[far]
                point_d2[far] = -1.0
    return centroids, assignments, history, it, converged


def _assert_matches_loop(pts, k, seed=None, init=None, max_iters=100):
    def call(fn):
        rng = None if seed is None else _rng(seed)
        return fn(pts, k, rng=rng, init=init, max_iters=max_iters)

    try:
        want = call(_loop_kmeans)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            call(kmeans)
        assert str(got.value) == str(err)
        return None
    run = call(kmeans)
    centroids, assignments, history, n_iters, converged = want
    assert run.centroids.dtype == centroids.dtype and run.centroids.shape == centroids.shape
    assert run.centroids.tobytes() == centroids.tobytes()
    assert run.assignments.dtype == assignments.dtype
    assert run.assignments.tobytes() == assignments.tobytes()
    assert np.array(run.inertia_history).tobytes() == np.array(history).tobytes()
    assert np.float64(run.inertia).tobytes() == np.float64(history[-1]).tobytes()
    assert (run.n_iters, run.converged) == (n_iters, converged)
    return run


def test_kmeans_matches_loop_reference():
    rng = _rng(40)
    # random instances, D = 1 (pairwise column sums) included
    for i in range(150):
        n = int(rng.integers(2, 300))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(20, n) + 1))
        pts = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
        _assert_matches_loop(pts, k, seed=500 + i, max_iters=int(rng.integers(1, 12)))
    # the default shape (128 tokens x 32 -> 16 -> 8) and a wide one (1024 x 64)
    for n, d in ((128, 32), (1024, 64)):
        for seed in range(3):
            pts = np.tanh(_rng(seed).normal(size=(n, d)))
            fine = _assert_matches_loop(pts, 16, seed=seed)
            _assert_matches_loop(fine.centroids, 8, seed=seed)
    # duplicate rows, with and without enough distinct points
    base = rng.normal(size=(12, 4))
    dup = base[rng.integers(0, 12, size=128)]
    for k in (1, 5, len(np.unique(dup, axis=0)), 16):
        _assert_matches_loop(dup, k, seed=k)
    _assert_matches_loop(np.repeat(base[:3, :1], 9, axis=0), 3, seed=1)
    # the init= warm start whose empty clusters get repaired
    pts = np.concatenate([_rng(5).normal(size=(30, 2)), [[50.0, 50.0]]])
    init = np.array([[100.0, 100.0], [100.0, 100.0], [0.0, 0.0]])
    assert _assert_matches_loop(pts, 3, init=init).n_iters > 1
    _assert_matches_loop(pts, 3, init=init[:2], max_iters=1)
    # a cluster whose members all have -0.0 in one coordinate
    neg = np.concatenate([rng.normal(size=(20, 3)) + 10.0, rng.normal(size=(20, 3))])
    neg[:20, 1] = -0.0
    neg[20:, 1] += 10.0
    for cols in (slice(0, 3), slice(1, 2)):
        run = _assert_matches_loop(neg[:, cols], 2, seed=3)
        assert np.array_equal(np.bincount(run.assignments), [20, 20])
    _assert_matches_loop(np.array([[-0.0, 1.0], [-0.0, 1.0], [5.0, -0.0]]), 2, seed=0)
    # k above the distinct count, through seeding, init=, k < 1 and k > N
    for k, init in ((3, None), (0, None), (4, None), (3, np.zeros((3, 2)))):
        assert _assert_matches_loop(
            np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]), k, seed=0, init=init
        ) is None
    assert _assert_matches_loop(np.zeros((0, 2)), 2, seed=0) is None


def test_kmeans_repairs_empty_clusters_keeping_k():
    # adversarial warm start: two centroids on top of each other far away
    pts = np.concatenate([_rng(5).normal(size=(30, 2)), [[50.0, 50.0]]])
    init = np.array([[100.0, 100.0], [100.0, 100.0], [0.0, 0.0]])
    run = kmeans(pts, 3, init=init)
    assert run.centroids.shape == (3, 2)
    assert len(np.unique(run.assignments)) == 3


def test_kmeans_overflow_raises_non_finite_error_naming_kmeans():
    # finite points whose squared norms overflow float64
    pts = np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1e200]])
    with pytest.raises(NonFiniteError, match="^kmeans: overflow encountered in multiply$"):
        kmeans(pts, 2, rng=_rng())
    with pytest.raises(NonFiniteError, match="^kmeans: "):
        fine2coarse(np.concatenate([pts, _rng(1).normal(size=(20, 2))]), m=4, k=2, rng=_rng())


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


def test_fine2coarse_falls_back_when_batch_has_fewer_distinct_tokens_than_m():
    rows = _rng(32).normal(size=(12, 4))
    tokens = rows[np.arange(128) % 12]
    model = fine2coarse(tokens, m=16, k=8, rng=_rng(33))
    assert model.warnings == ["12 distinct tokens < 16; using m'=12"]
    assert model.fine_centroids.shape == (12, 4)
    assert model.coarse_centroids.shape == (8, 4)
    np.testing.assert_allclose(
        sorted(map(tuple, model.fine_centroids)), sorted(map(tuple, rows)), atol=1e-12
    )
    np.testing.assert_array_equal(
        model.coarse_assignments, model.lineage[model.fine_assignments]
    )
    # fewer distinct tokens than k as well: k is clamped below m'
    model = fine2coarse(rows[np.arange(128) % 3, :1], m=16, k=8, rng=_rng(34))
    assert model.warnings == ["3 distinct tokens < 16; using m'=3",
                              "coarse k clamped to 2 to keep m > k"]
    assert model.coarse_centroids.shape == (2, 1)


def test_fine2coarse_rejects_bad_m_k():
    with pytest.raises(ValueError, match="m > k"):
        fine2coarse(np.zeros((20, 3)), m=4, k=4, rng=_rng())


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
