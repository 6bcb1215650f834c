import math

import mpmath
import numpy as np
import pytest

from come.numerics import (
    AdamWState,
    GradCheckResult,
    RandomStreams,
    NonFiniteError,
    adamw_step,
    cv_squared,
    cv_squared_grad,
    grad_check,
    normal_cdf,
    normal_pdf,
    require_finite,
    softmax,
    softmax_backward,
)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform_on_equal_logits():
    np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-15)


def test_softmax_analytic_two_class():
    out = softmax(np.array([0.0, math.log(3.0)]))
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-14)


def test_softmax_matches_high_precision_reference():
    # oracle: 40-digit mpmath summation of exp(x_i) / sum exp(x_j)
    rng = np.random.default_rng(7)
    x = rng.normal(scale=3.0, size=8)
    with mpmath.workdps(40):
        exps = [mpmath.exp(mpmath.mpf(float(v))) for v in x]
        total = mpmath.fsum(exps)
        expected = np.array([float(e / total) for e in exps])
    np.testing.assert_allclose(softmax(x), expected, atol=1e-12, rtol=0)


def test_softmax_shift_invariance_and_row_sums_at_extreme_magnitude():
    rng = np.random.default_rng(0)
    for _ in range(50):
        row = rng.uniform(-500.0, 500.0, size=rng.integers(2, 12))
        p = softmax(row)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        shifted = softmax(row + rng.uniform(-100, 100))
        np.testing.assert_allclose(p, shifted, atol=1e-12, rtol=0)
    # strict positivity whenever exp cannot underflow (logit gap < 700)
    for _ in range(20):
        row = rng.uniform(-300.0, 300.0, size=6)
        assert np.all(softmax(row) > 0.0)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        softmax(np.array([0.0, np.nan]))
    with pytest.raises(ValueError):
        softmax(np.array([np.inf, 1.0]))


def test_softmax_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=6)
    w = rng.normal(size=6)  # fixed projection so the output is scalar

    def fn(x):
        p = softmax(x)
        val = float(p @ w)
        grad = softmax_backward(p, w)
        return val, grad

    res = grad_check(fn, logits, h=1e-5)
    assert res.max_rel_error < 1e-9


# ---------------------------------------------------------------------------
# normal cdf
# ---------------------------------------------------------------------------


def _cdf_quadrature(x: float, panels: int = 20000) -> float:
    # Simpson integration of the Gaussian density over [-12, x]; independent
    # of the erfc-based implementation.
    lo = -12.0
    xs = np.linspace(lo, x, 2 * panels + 1)
    ys = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    h = (x - lo) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


def test_normal_cdf_at_zero():
    assert abs(normal_cdf(0.0) - 0.5) < 1e-15


def test_normal_cdf_against_quadrature():
    for x in (-2.5, -1.0, 0.3, 1.0, 2.0):
        assert abs(normal_cdf(x) - _cdf_quadrature(x)) < 1e-6
    assert abs(normal_cdf(1.0) - 0.841345) < 1e-6


def test_normal_cdf_reflection_identity():
    for x in np.linspace(-6, 6, 25):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-12


def test_normal_cdf_monotone_on_grid():
    # In the far tails the true increment per grid step (~8e-18 at |x|=8)
    # drops below one ulp of 1.0, so monotonicity is weak there and strict
    # over the bulk.
    grid = np.linspace(-8.0, 8.0, 10001)
    vals = normal_cdf(grid)
    assert np.all(np.diff(vals) >= 0)
    assert np.all((vals > 0) & (vals < 1))
    bulk = np.abs(grid) <= 6.0
    assert np.all(np.diff(vals[bulk]) > 0)


def test_normal_pdf_is_cdf_derivative():
    for x in (-1.5, 0.0, 0.7):
        h = 1e-6
        num = (normal_cdf(x + h) - normal_cdf(x - h)) / (2 * h)
        assert abs(num - normal_pdf(x)) < 1e-9


# ---------------------------------------------------------------------------
# cv squared
# ---------------------------------------------------------------------------


def test_cv_squared_uniform_vector_is_zero():
    assert cv_squared(np.array([2.0, 2.0, 2.0, 2.0])) == 0.0


def test_cv_squared_direct_value():
    # mean 2, population variance 1 -> 0.25
    assert abs(cv_squared(np.array([1.0, 3.0])) - 0.25) < 1e-15


def test_cv_squared_scale_invariance():
    assert abs(cv_squared(np.array([5.0, 15.0])) - 0.25) < 1e-15
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.uniform(0.0, 5.0, size=rng.integers(2, 9))
        c = rng.uniform(0.1, 100.0)
        assert abs(cv_squared(v) - cv_squared(c * v)) < 1e-12


def test_cv_squared_permutation_invariance():
    rng = np.random.default_rng(5)
    v = rng.uniform(0, 3, size=7)
    assert abs(cv_squared(v) - cv_squared(v[::-1])) < 1e-15
    assert abs(cv_squared(v) - cv_squared(rng.permutation(v))) < 1e-15


def test_cv_squared_zero_mean_convention():
    assert cv_squared(np.zeros(5)) == 0.0
    assert np.all(cv_squared_grad(np.zeros(5)) == 0.0)


def test_cv_squared_grad_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(10):
        v = rng.uniform(0.2, 4.0, size=6)

        def fn(x):
            return cv_squared(x), cv_squared_grad(x)

        assert grad_check(fn, v, h=1e-6).max_rel_error < 1e-8


# ---------------------------------------------------------------------------
# adamw
# ---------------------------------------------------------------------------


def test_adamw_zero_grad_zero_decay_is_identity():
    params = {"w": np.array([1.5, -2.0])}
    state = AdamWState(lr=0.1, weight_decay=0.0)
    adamw_step(params, {"w": np.zeros(2)}, state)
    np.testing.assert_array_equal(params["w"], [1.5, -2.0])
    assert state.step == 1


def test_adamw_single_scalar_matches_hand_formula():
    lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.04
    p0, g = 0.7, 0.3
    params = {"w": np.array([p0])}
    state = AdamWState(lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    adamw_step(params, {"w": np.array([g])}, state)
    # hand evaluation of one decoupled update at t=1
    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = p0 - lr * (m_hat / (math.sqrt(v_hat) + eps) + wd * p0)
    assert abs(params["w"][0] - expected) < 1e-12


def test_adamw_two_steps_differ_from_fused_double_step():
    grads = {"w": np.array([0.5])}
    p_two = {"w": np.array([1.0])}
    s_two = AdamWState(lr=0.05, weight_decay=0.0)
    adamw_step(p_two, grads, s_two)
    adamw_step(p_two, grads, s_two)

    p_one = {"w": np.array([1.0])}
    s_one = AdamWState(lr=0.10, weight_decay=0.0)  # fused: one step, doubled lr
    adamw_step(p_one, grads, s_one)
    assert p_two["w"][0] != p_one["w"][0]
    assert s_two.step == 2


def test_adamw_rejects_shape_mismatch():
    params = {"w": np.zeros((2, 2))}
    with pytest.raises(ValueError, match="shape mismatch"):
        adamw_step(params, {"w": np.zeros(3)}, AdamWState())


# ---------------------------------------------------------------------------
# grad check harness
# ---------------------------------------------------------------------------


def test_grad_check_quadratic():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=8)

    def fn(x):
        return float(x @ x), 2.0 * x

    assert grad_check(fn, x0, h=1e-5).max_rel_error < 1e-9


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=5)
    target = 2

    def fn(x):
        p = softmax(x)
        val = -math.log(p[target])
        grad = p.copy()
        grad[target] -= 1.0
        return val, grad

    assert grad_check(fn, logits, h=1e-5).max_rel_error < 1e-6


def test_grad_check_reports_non_finite_coordinates():
    def fn(x):
        val = float(np.log(x[0]))  # nan for x[0] <= 0 under perturbation
        return val, np.array([1.0 / x[0], 0.0])

    with np.errstate(invalid="ignore"):
        res = grad_check(fn, np.array([1e-6, 1.0]), h=1e-5)
    assert isinstance(res, GradCheckResult)
    assert 0 in res.bad_coords


def test_grad_check_rejects_bad_step():
    with pytest.raises(ValueError):
        grad_check(lambda x: (0.0, x), np.zeros(2), h=0.0)


# ---------------------------------------------------------------------------
# random streams / digests
# ---------------------------------------------------------------------------


def test_streams_reproducible_and_independent():
    a = RandomStreams(42)
    b = RandomStreams(42)
    np.testing.assert_array_equal(
        a.stream("data").standard_normal(8), b.stream("data").standard_normal(8)
    )
    data = a.stream("data").standard_normal(8)
    init = a.stream("init").standard_normal(8)
    noise = a.stream("noise").standard_normal(8)
    assert not np.allclose(data, init)
    assert not np.allclose(init, noise)
    # sub-indexing splits a purpose into fresh streams
    assert not np.allclose(
        a.stream("data", 0).standard_normal(4), a.stream("data", 1).standard_normal(4)
    )


def test_streams_unknown_purpose_rejected():
    with pytest.raises(ValueError):
        RandomStreams(0).stream("weights")


def test_require_finite_raises_nonfinite_error():
    with pytest.raises(NonFiniteError, match=r"x: 2 non-finite entries \(shape \(3,\)\)"):
        require_finite("x", np.array([1.0, np.inf, np.nan]))
    assert issubclass(NonFiniteError, ValueError)
    np.testing.assert_array_equal(require_finite("x", [1, 2]), [1.0, 2.0])
