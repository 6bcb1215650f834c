"""Lloyd's K-means and the two routing-side clustering strategies.

``fine2coarse`` clusters tokens into many fine centers and re-clusters those
centers into few coarse ones; tokens inherit the coarse id of their fine
center. ``multistep`` repeats K-means, warm-starting each step from the
previous step's centroids and suppressing clusters smaller than a fraction
of the token count.

Distances are squared Euclidean. Seeding is farthest-first from a caller
supplied generator, so identical seeds give identical models. The recorded
per-iteration inertia is sum_i min_j ||x_i - c_j||^2 evaluated at the end of
each Lloyd iteration, which is non-increasing even across empty-cluster
repairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import require_finite

Array = np.ndarray


@dataclass
class KMeansRun:
    centroids: Array  # (k, D)
    assignments: Array  # (N,) int
    inertia: float
    inertia_history: list
    n_iters: int
    converged: bool


@dataclass
class ClusterModel:
    fine_centroids: Array  # (m, D)
    coarse_centroids: Array  # (k, D)
    lineage: Array  # (m,) fine index -> coarse index
    fine_assignments: Array  # (N,)
    coarse_assignments: Array  # (N,)
    fine_inertia: float
    coarse_inertia: float
    warnings: list = field(default_factory=list)
    fine_run: KMeansRun | None = None
    coarse_run: KMeansRun | None = None


@dataclass
class MultiStepState:
    """Per-step trace: centroids and assignments after suppression."""

    centroids: list = field(default_factory=list)
    assignments: list = field(default_factory=list)
    inertias: list = field(default_factory=list)
    suppressed: list = field(default_factory=list)  # (step, cluster index, size)


def _squared_distances(points: Array, centroids: Array) -> Array:
    # (N, k) pairwise squared Euclidean distances
    pp = np.sum(points * points, axis=1)[:, None]
    cc = np.sum(centroids * centroids, axis=1)[None, :]
    d2 = pp + cc - 2.0 * points @ centroids.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _farthest_first_seed(points: Array, k: int, rng: np.random.Generator) -> Array:
    n = points.shape[0]
    first = int(rng.integers(n))
    chosen = [first]
    d2 = np.sum((points - points[first]) ** 2, axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))  # ties resolve to the lowest index
        chosen.append(nxt)
        d2 = np.minimum(d2, np.sum((points - points[nxt]) ** 2, axis=1))
    return points[chosen].copy()


def kmeans(points: Array, k: int, rng: np.random.Generator | None = None,
           init: Array | None = None, max_iters: int = 100) -> KMeansRun:
    """Lloyd iterations until the assignment fixpoint or ``max_iters``.

    ``init`` warm-starts from given centroids; otherwise seeding is
    farthest-first using ``rng``. Rejects k above the number of distinct
    points. Empty clusters are re-seeded from the point farthest from its
    centroid, keeping k fixed.
    """
    pts = require_finite("kmeans points", points)
    if pts.ndim != 2:
        raise ValueError("kmeans: points must be (N, D)")
    if max_iters < 1:
        raise ValueError("kmeans: max_iters must be >= 1")
    n_distinct = np.unique(pts, axis=0).shape[0]
    if init is not None:
        centroids = np.asarray(init, dtype=np.float64).copy()
        k = centroids.shape[0]
    if k < 1 or k > n_distinct:
        raise ValueError(f"kmeans: k={k} exceeds {n_distinct} distinct points")
    if init is None:
        centroids = _farthest_first_seed(pts, k, rng if rng is not None else np.random.default_rng(0))

    assignments = np.full(pts.shape[0], -1, dtype=np.int64)
    history: list = []
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        d2 = _squared_distances(pts, centroids)
        new_assign = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(pts.shape[0]), new_assign].sum()))
        if np.array_equal(new_assign, assignments):
            converged = True
            break
        assignments = new_assign
        # mean update
        for j in range(k):
            members = assignments == j
            if members.any():
                centroids[j] = pts[members].mean(axis=0)
        # re-seed empty clusters from the farthest points
        sizes = np.bincount(assignments, minlength=k)
        if np.any(sizes == 0):
            point_d2 = np.sum((pts - centroids[assignments]) ** 2, axis=1)
            for j in np.flatnonzero(sizes == 0):
                far = int(np.argmax(point_d2))
                centroids[j] = pts[far]
                point_d2[far] = -1.0
    return KMeansRun(
        centroids=centroids,
        assignments=assignments,
        inertia=history[-1],
        inertia_history=history,
        n_iters=it,
        converged=converged,
    )


def fine2coarse(points: Array, m: int = 16, k: int = 8,
                rng: np.random.Generator | None = None, max_iters: int = 100) -> ClusterModel:
    """Two-phase hierarchical clustering: tokens -> m fine -> k coarse.

    Falls back to m' = token count (and k' = min(k, m')) with a warning
    record when the batch is smaller than m.
    """
    pts = require_finite("fine2coarse points", points)
    if not (m > k >= 1):
        raise ValueError(f"fine2coarse: need m > k >= 1, got m={m} k={k}")
    warnings = []
    n = pts.shape[0]
    m_eff, k_eff = m, k
    if n < m:
        m_eff = n
        warnings.append(f"token count {n} < m={m}; using m'={m_eff}")
        if k >= m_eff:
            k_eff = max(1, m_eff - 1) if m_eff > 1 else 1
            warnings.append(f"coarse k clamped to {k_eff} to keep m > k")
    fine = kmeans(pts, m_eff, rng=rng, max_iters=max_iters)
    coarse = kmeans(fine.centroids, k_eff, rng=rng, max_iters=max_iters)
    lineage = coarse.assignments
    return ClusterModel(
        fine_centroids=fine.centroids,
        coarse_centroids=coarse.centroids,
        lineage=lineage,
        fine_assignments=fine.assignments,
        coarse_assignments=lineage[fine.assignments],
        fine_inertia=fine.inertia,
        coarse_inertia=coarse.inertia,
        warnings=warnings,
        fine_run=fine,
        coarse_run=coarse,
    )


def multistep(points: Array, k: int = 4, steps: int = 5, min_cluster_fraction: float = 0.01,
              rng: np.random.Generator | None = None, max_iters: int = 100):
    """Repeated K-means with prior carryover and small-cluster suppression.

    Step 1 seeds from the data; step t > 1 warm-starts from the surviving
    centroids of step t-1. After each step, clusters with fewer than
    ``min_cluster_fraction * N`` members are dropped and their members
    reassigned to the nearest survivor. Returns (single-level ClusterModel,
    MultiStepState trace). Raises if every cluster would be suppressed.
    """
    pts = require_finite("multistep points", points)
    if steps < 1:
        raise ValueError("multistep: steps must be >= 1")
    n = pts.shape[0]
    threshold = min_cluster_fraction * n
    state = MultiStepState()
    centroids = None
    assignments = None
    inertia = 0.0
    for step in range(1, steps + 1):
        if centroids is None:
            run = kmeans(pts, k, rng=rng, max_iters=max_iters)
        else:
            run = kmeans(pts, k, init=centroids, max_iters=max_iters)
        centroids = run.centroids
        assignments = run.assignments
        inertia = run.inertia
        sizes = np.bincount(assignments, minlength=centroids.shape[0])
        small = np.flatnonzero(sizes < threshold)
        if small.size == centroids.shape[0]:
            raise ValueError(
                f"multistep: all {centroids.shape[0]} clusters below "
                f"min_cluster_fraction={min_cluster_fraction}; threshold too large"
            )
        if small.size:
            for j in small:
                state.suppressed.append((step, int(j), int(sizes[j])))
            keep = np.flatnonzero(sizes >= threshold)
            centroids = centroids[keep]
            d2 = _squared_distances(pts, centroids)
            assignments = np.argmin(d2, axis=1)
            inertia = float(d2[np.arange(n), assignments].sum())
        state.centroids.append(centroids.copy())
        state.assignments.append(assignments.copy())
        state.inertias.append(inertia)
    model = ClusterModel(
        fine_centroids=centroids,
        coarse_centroids=centroids,
        lineage=np.arange(centroids.shape[0], dtype=np.int64),
        fine_assignments=assignments,
        coarse_assignments=assignments,
        fine_inertia=inertia,
        coarse_inertia=inertia,
    )
    return model, state


def cluster_features(model: ClusterModel) -> Array:
    """Coarse-cluster feature rows for every token, shape (N, D)."""
    return model.coarse_centroids[model.coarse_assignments]
