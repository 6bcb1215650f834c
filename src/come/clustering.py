"""Lloyd's K-means and the routing-side fine-to-coarse clustering.

``fine2coarse`` clusters tokens into many fine centers and re-clusters those
centers into few coarse ones; tokens inherit the coarse id of their fine
center. Its result is the two k-means runs plus the fallback warnings: the
fine run's assignments map tokens to fine centers, and the coarse run's
assignments map fine centers to coarse ones.

Distances are squared Euclidean. Seeding is farthest-first from a caller
supplied generator, so identical seeds give identical models. The recorded
per-iteration inertia is sum_i min_j ||x_i - c_j||^2 evaluated at the end of
each Lloyd iteration, which is non-increasing even across empty-cluster
repairs.

The arithmetic is fixed down to the bit, so results do not depend on how
the loops are written:

- Farthest-first seeding picks the lowest-index point with the largest
  exact distance ``sum((x - c)**2)`` to its nearest pick, summed by NumPy
  along each row. It finds that point through a screen: one GEMV per pick
  gives ``||x||^2 + ||c||^2 - (2x) @ c``, which is within a proven bound of
  the exact distance, (8D + 14)·2^-53·max ||x||^2 used with a 2x margin.
  When the screen's running minima leave exactly one point within twice
  the bound of their top, and the top exceeds the bound, that point is the
  exact argmax; otherwise the exact distances of the points the screen
  admits are computed against the picks so far. Every point that could be
  the exact argmax is admitted, so the picks are those of the exact
  distances, bit for bit.
- Lloyd distances are ``(||x||^2 + ||c||^2) - (2x) @ c.T``, clipped at 0,
  with both point terms computed once per call and shared with seeding.
- A centroid is the sum of its members over their count. The sum starts
  from +0.0 and adds member rows in row order: one ``np.bincount`` scatter
  over (cluster, column) bins for all clusters at once, which is how
  ``pts[members].mean(axis=0)`` adds them. With D = 1 NumPy sums the single
  column pairwise instead, so that case sums each cluster separately.
- ``k`` above the number of distinct points raises TooFewDistinctPoints.
  The distinct count (an ``np.unique`` over rows) is only computed when it
  can matter: for k < 1 or k > N, and when a farthest-first pick lands at
  distance 0. A pick at positive distance differs from every earlier pick,
  so k such picks prove k distinct points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Array = np.ndarray

# Lloyd iterations a k-means run may take before it stops unconverged.
MAX_ITERS = 50


@dataclass
class KMeansRun:
    centroids: Array  # (k, D)
    assignments: Array  # (N,) int
    inertia_history: list  # one entry per Lloyd iteration
    converged: bool

    @property
    def n_iters(self) -> int:
        return len(self.inertia_history)


@dataclass
class ClusterModel:
    fine: KMeansRun  # tokens -> m fine centers
    coarse: KMeansRun  # fine centers -> k coarse centers
    warnings: list


class TooFewDistinctPoints(ValueError):
    """k-means was asked for more clusters than there are distinct points."""

    def __init__(self, k: int, n_distinct: int):
        super().__init__(f"kmeans: k={k} exceeds {n_distinct} distinct points")
        self.n_distinct = n_distinct


def _require_distinct(points: Array, k: int) -> None:
    n_distinct = np.unique(points, axis=0).shape[0]
    if k < 1 or k > n_distinct:
        raise TooFewDistinctPoints(k, n_distinct)


def _point_terms(points: Array) -> tuple:
    # the centroid-independent parts of _squared_distances
    return np.sum(points * points, axis=1)[:, None], 2.0 * points


def _squared_distances(pp: Array, twice_points: Array, centroids: Array) -> Array:
    # (N, k) pairwise squared Euclidean distances from _point_terms(points)
    d2 = pp + np.add.reduce(centroids * centroids, axis=1)
    d2 -= twice_points @ centroids.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _exact_farthest(points: Array, admitted: Array, chosen: list) -> tuple:
    """The first of the ``admitted`` points (ascending indices) with the
    largest exact distance ``min over chosen c of sum((x - c)**2)``, and
    that distance."""
    diff = points[admitted, None, :] - points[chosen]
    exact = np.add.reduce(diff * diff, axis=2).min(axis=1)
    best = int(exact.argmax())  # ties resolve to the lowest index
    return int(admitted[best]), exact[best]


def _farthest_first_seed(points: Array, k: int, rng: np.random.Generator,
                         pp: Array, twice_points: Array) -> Array:
    """k farthest-first picks, given ``_point_terms(points)``; raises
    TooFewDistinctPoints if k exceeds the distinct point count.

    The next pick is the lowest-index argmax of the exact distance
    e_i = min over picks c of ``sum((x_i - c)**2)``. Each pick instead costs
    one GEMV: the screened distance s_i = ||x_i||^2 + ||c||^2 - (2x_i).c,
    kept as a running minimum m_i over the picks.

    *Bound.* Let u = 2^-53 and R = max ||x||^2. Both squared norms are off
    by at most D·u·R and the dot product by at most D·u·2R (Cauchy-Schwarz,
    in any summation order), the sum and the difference after them round by
    at most u·2R and u·4R, and the computed exact distance is itself off by
    at most (D + 2)·u·4R from the true one. So, to first order,

        |s_i - e_i| <= (8D + 14)·u·R + 4D·2^-1075,

    the last term for products that underflow. ``slack`` is twice that, and
    |m_i - e_i| <= slack too, since a minimum moves no more than its terms.

    *Pick.* With top = max m, every exact argmax j has
    m_j >= e_j - slack >= top - 2·slack. If that floor admits one point and
    top > slack, that point is the unique exact argmax, at positive exact
    distance. Otherwise ``_exact_farthest`` computes the exact distances of
    the admitted points against the picks so far and takes the first
    largest, which is the point an argmax over every exact distance finds.
    A NaN bound or distance admits its point, so non-finite input takes the
    exact path. A pick at positive distance differs from every earlier
    pick, so the distinct count is computed only when a pick lands at exact
    distance 0.
    """
    n, d = points.shape
    pp = pp[:, 0]
    slack = 2.0 * ((8 * d + 14) * 2.0**-53 * float(pp.max()) + 2 * d * 2.0**-1074)
    chosen = [int(rng.integers(n))]
    screened = np.empty(n)
    mins = np.full(n, np.inf)
    checked = False
    while len(chosen) < k:
        c = chosen[-1]
        np.add(pp, pp[c], out=screened)
        screened -= twice_points @ points[c]
        np.minimum(mins, screened, out=mins)
        nxt = int(mins.argmax())
        top = mins[nxt]
        floor = top - 2.0 * slack
        if not (top > slack and np.count_nonzero(mins >= floor) == 1):
            nxt, dist = _exact_farthest(points, np.flatnonzero(~(mins < floor)), chosen)
            if dist == 0.0 and not checked:
                # every point repeats a pick, unless a squared difference underflowed
                _require_distinct(points, k)
                checked = True
        chosen.append(nxt)
    return points[chosen]


def kmeans(points: Array, k: int, rng: np.random.Generator | None = None,
           max_iters: int = MAX_ITERS) -> KMeansRun:
    """Lloyd iterations until the assignment fixpoint or ``max_iters``.

    Seeding is farthest-first using ``rng``. Raises TooFewDistinctPoints
    (a ValueError) for k above the number of distinct points. Empty clusters
    are re-seeded from the point farthest from its centroid, keeping k
    fixed. The points are not checked for NaN or Inf; inside
    ``ComeModel.forward`` an overflowing distance or mean raises
    FloatingPointError.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("kmeans: points must be (N, D)")
    if max_iters < 1:
        raise ValueError("kmeans: max_iters must be >= 1")
    if k < 1 or k > pts.shape[0]:
        _require_distinct(pts, k)  # raises, naming the distinct count
    terms = _point_terms(pts)
    centroids = _farthest_first_seed(pts, k, rng if rng is not None else np.random.default_rng(0),
                                     *terms)

    n, d = pts.shape
    rows = np.arange(n)
    cols = np.arange(d)
    assignments = np.full(n, -1, dtype=np.int64)
    history: list = []
    converged = False
    for _ in range(max_iters):
        d2 = _squared_distances(*terms, centroids)
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[rows, new_assign].sum()))
        if (new_assign == assignments).all():
            converged = True
            break
        assignments = new_assign
        # mean update: member sums over member counts. bincount adds each
        # cluster's rows in row order starting from +0.0, exactly as
        # pts[members].mean(axis=0) does when D > 1
        sizes = np.bincount(assignments, minlength=k)
        if d == 1:  # NumPy sums a single column pairwise, not row by row
            sums = np.array([pts[assignments == j].sum(axis=0) for j in range(k)])
        else:
            sums = np.bincount((assignments[:, None] * d + cols).ravel(),
                               weights=pts.ravel(), minlength=k * d).reshape(k, d)
        if sizes.all():
            centroids = sums / sizes[:, None]
        else:
            filled = sizes > 0
            centroids[filled] = sums[filled] / sizes[filled, None]
            # re-seed empty clusters from the farthest points
            point_d2 = np.sum((pts - centroids[assignments]) ** 2, axis=1)
            for j in np.flatnonzero(~filled):
                far = int(np.argmax(point_d2))
                centroids[j] = pts[far]
                point_d2[far] = -1.0
    return KMeansRun(centroids=centroids, assignments=assignments,
                     inertia_history=history, converged=converged)


def fine2coarse(points: Array, m: int, k: int, rng: np.random.Generator) -> ClusterModel:
    """Two-phase hierarchical clustering: tokens -> m fine -> k coarse.

    Falls back, with a warning record, to m' = token count when the batch
    is smaller than m, to m' = distinct token count when it holds fewer
    distinct tokens than m, and to k' = m' - 1 (at least 1) when k >= m'.
    m > k >= 1: ``RunConfig.validate`` bounds ``clustering.*_clusters``."""
    n = points.shape[0]
    warnings = []

    def clustered(points, count, what, name):
        try:
            return kmeans(points, count, rng=rng)
        except TooFewDistinctPoints as err:
            warnings.append(f"{err.n_distinct} distinct {what} < {count}; "
                            f"using {name}'={err.n_distinct}")
            return kmeans(points, err.n_distinct, rng=rng)

    m_eff = min(m, n)
    if m_eff < m:
        warnings.append(f"token count {n} < m={m}; using m'={m_eff}")
    fine = clustered(points, m_eff, "tokens", "m")
    m_eff, k_eff = fine.centroids.shape[0], k
    if k >= m_eff:
        k_eff = max(1, m_eff - 1)
        warnings.append(f"coarse k clamped to {k_eff} to keep m > k")
    coarse = clustered(fine.centroids, k_eff, "fine centres", "k")
    return ClusterModel(fine=fine, coarse=coarse, warnings=warnings)


def cluster_features(model: ClusterModel) -> Array:
    """Coarse-cluster feature rows for every token, shape (N, D): the coarse
    centroid of the token's fine center."""
    coarse = model.coarse
    return coarse.centroids[coarse.assignments[model.fine.assignments]]
