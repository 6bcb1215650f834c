import hashlib
import math
import re
import tracemalloc

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
    grad_check,
    normal_cdf,
    normal_pdf,
    require_finite,
    require_ids,
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
    # of the rational erf of the implementation.
    lo = -12.0
    xs = np.linspace(lo, x, 2 * panels + 1)
    ys = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    h = (x - lo) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum()))


# The largest x normal_cdf accepts: z = x / sqrt(2) rounds below 1 here, but
# not at the next double up, the last one below sqrt(2).
X_MAX = np.nextafter(np.nextafter(math.sqrt(2.0), 0.0), 0.0)


def test_normal_cdf_at_zero():
    assert abs(normal_cdf(0.0) - 0.5) < 1e-15


def test_normal_cdf_against_quadrature():
    for x in (-1.4, -1.0, 0.3, 1.0, 1.4):
        assert abs(normal_cdf(x) - _cdf_quadrature(x)) < 1e-6
    assert abs(normal_cdf(1.0) - 0.841345) < 1e-6


def test_normal_cdf_reflection_identity():
    for x in np.linspace(-1.4, 1.4, 25):
        assert abs(normal_cdf(x) + normal_cdf(-x) - 1.0) < 1e-12


def test_normal_cdf_monotone_on_grid():
    grid = np.linspace(-X_MAX, X_MAX, 10001)
    vals = normal_cdf(grid)
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals > 0) & (vals < 1))


# SHA-256 of normal_cdf's float64 output over 200005 points in [0, 1], the
# range the load loss feeds it: a uniform grid, seeded uniforms and the edges.
NORMAL_CDF_DIGEST = "eb70e88b60907d83a856e841ec0daed76fc2e4f0385db06a4fbbc44414821135"


def test_normal_cdf_digest_pinned():
    x = np.concatenate([
        np.linspace(0.0, 1.0, 100001),
        np.random.default_rng(0).random(10**5),
        [0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324],
    ])
    out = normal_cdf(x)
    assert out.dtype == np.float64 and out.shape == x.shape
    assert hashlib.sha256(out.tobytes()).hexdigest() == NORMAL_CDF_DIGEST


def _ncdf_mpmath(xs) -> np.ndarray:
    with mpmath.workdps(40):
        return np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in xs])


def test_normal_cdf_matches_mpmath_below_sqrt_2():
    # Relative error bound 4 eps max(1, x^2): the CDF amplifies the rounding
    # of x / sqrt(2) by about x^2, so a formula in the rounded z = x / sqrt(2)
    # cannot do much better. The grid ends at the largest accepted |x|.
    x = np.concatenate([np.linspace(-1.414, 1.414, 4001), [-X_MAX, X_MAX]])
    ref = _ncdf_mpmath(x)
    rel = np.abs(normal_cdf(x) - ref) / ref
    assert np.all(rel <= 4 * np.finfo(float).eps * np.maximum(1.0, x * x))
    assert rel.max() <= 2e-15


def test_normal_cdf_edge_values_raise_no_floating_point_error():
    # every entry past X_MAX, NaN included, is refused with a ValueError naming it
    root2 = math.sqrt(2.0)
    bad = [np.inf, -np.inf, np.nan, 1e300, -1e300, root2, -root2, np.nextafter(X_MAX, 2.0)]
    for value in bad:
        with np.errstate(all="raise"), pytest.raises(ValueError, match="sqrt") as err:
            normal_cdf(np.array([0.5, value, -0.0]))
        assert str(err.value).endswith(f"got {float(value)}")
    with np.errstate(all="raise"):
        out = normal_cdf(np.array([X_MAX, -X_MAX, 0.5, -0.0]))
    assert out[2] == normal_cdf(np.array([0.5]))[0] and out[3] == 0.5
    assert normal_cdf(np.zeros((0, 3))).shape == (0, 3)
    assert normal_cdf(np.full((2, 3), 0.25)).shape == (2, 3)


def test_normal_cdf_holds_three_input_sized_buffers_at_its_peak():
    # z, z^2 (in the |z| buffer) and the result; q is built in z's buffer
    gates = softmax(np.random.default_rng(0).normal(size=(12800, 8)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = normal_cdf(gates)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.shape == gates.shape
    assert peak <= 3.1 * gates.nbytes, peak / gates.nbytes


def test_normal_pdf_is_cdf_derivative():
    for x in (-1.4, 0.0, 0.7):
        h = 1e-6
        num = (normal_cdf(x + h) - normal_cdf(x - h)) / (2 * h)
        assert abs(num - normal_pdf(x)) < 1e-9


# ---------------------------------------------------------------------------
# cv squared
# ---------------------------------------------------------------------------


def test_cv_squared_uniform_vector_is_zero():
    assert cv_squared(np.array([2.0, 2.0, 2.0, 2.0]))[0] == 0.0


def test_cv_squared_direct_value():
    # mean 2, population variance 1 -> 0.25
    assert abs(cv_squared(np.array([1.0, 3.0]))[0] - 0.25) < 1e-15


def test_cv_squared_scale_invariance():
    assert abs(cv_squared(np.array([5.0, 15.0]))[0] - 0.25) < 1e-15
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.uniform(0.0, 5.0, size=rng.integers(2, 9))
        c = rng.uniform(0.1, 100.0)
        assert abs(cv_squared(v)[0] - cv_squared(c * v)[0]) < 1e-12


def test_cv_squared_permutation_invariance():
    rng = np.random.default_rng(5)
    v = rng.uniform(0, 3, size=7)
    assert abs(cv_squared(v)[0] - cv_squared(v[::-1])[0]) < 1e-15
    assert abs(cv_squared(v)[0] - cv_squared(rng.permutation(v))[0]) < 1e-15


def test_cv_squared_zero_mean_convention():
    value, grad = cv_squared(np.zeros(5))
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_cv_squared_grad_matches_finite_differences():
    rng = np.random.default_rng(23)
    for _ in range(10):
        v = rng.uniform(0.2, 4.0, size=6)

        assert grad_check(cv_squared, v, h=1e-6).max_rel_error < 1e-8


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


def _adamw_per_parameter(params, grads, state, moments):
    """The update applied to one parameter at a time: the packed step's oracle."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        m, v = moments.setdefault(name, (np.zeros_like(p), np.zeros_like(p)))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p -= state.lr * (update + state.weight_decay * p)


@pytest.mark.parametrize("overrides", [
    [],
    ["training.batch_size=64", "data.width=64", "router.top_k=2"],
    ["model.arch=dense"],
], ids=["routed-small", "routed-wide", "dense"])
def test_adamw_packed_runs_match_per_parameter_loop_bit_for_bit(overrides):
    from come.config import RunConfig, apply_overrides
    from come.model import ComeModel

    params = ComeModel.build(apply_overrides(RunConfig(), overrides)).params
    oracle = {name: p.copy() for name, p in params.items()}
    zero_name = list(params)[len(params) // 2]
    hp = dict(lr=1e-2, weight_decay=0.05)
    state, oracle_state, moments = AdamWState(**hp), AdamWState(**hp), {}
    rng = np.random.default_rng(3)
    for _ in range(50):
        grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
        grads[zero_name] = np.zeros(params[zero_name].shape)
        adamw_step(params, grads, state)
        _adamw_per_parameter(oracle, grads, oracle_state, moments)
    assert len(state.runs) > 1
    for name, p in oracle.items():
        assert np.array_equal(params[name], p), name
        assert np.array_equal(state.views[name], p), name


def test_adamw_packs_parameters_into_views_of_one_buffer():
    params = {"a": np.ones((3, 2)), "b": np.full(4, 2.0)}
    state = AdamWState(lr=0.1)
    adamw_step(params, {"a": np.ones((3, 2)), "b": np.ones(4)}, state)
    assert params["a"].base is state.flat and params["b"].base is state.flat
    np.testing.assert_array_equal(state.flat, np.concatenate([params["a"].ravel(), params["b"]]))
    assert state.m.shape == state.v.shape == state.flat.shape


def test_adamw_adopts_a_replaced_parameter_array():
    params = {"a": np.ones((3, 2)), "b": np.full(4, 2.0)}
    grads = {"a": np.full((3, 2), 0.5), "b": np.full(4, -0.25)}
    state = AdamWState(lr=0.1, weight_decay=0.01)
    oracle = {name: p.copy() for name, p in params.items()}
    oracle_state, moments = AdamWState(lr=0.1, weight_decay=0.01), {}
    adamw_step(params, grads, state)
    _adamw_per_parameter(oracle, grads, oracle_state, moments)
    view = params["a"]
    params["a"] = np.arange(6.0).reshape(3, 2)
    oracle["a"] = np.arange(6.0).reshape(3, 2)
    adamw_step(params, grads, state)
    _adamw_per_parameter(oracle, grads, oracle_state, moments)
    assert params["a"] is view
    assert np.array_equal(params["a"], oracle["a"])
    assert np.array_equal(params["b"], oracle["b"])


def test_adamw_rejects_a_changed_set_of_parameter_names():
    params = {"a": np.ones(2), "b": np.ones(3)}
    state = AdamWState()
    adamw_step(params, {"a": np.ones(2), "b": np.ones(3)}, state)
    with pytest.raises(ValueError, match="names changed"):
        adamw_step({"a": params["a"]}, {"a": np.ones(2)}, state)
    with pytest.raises(ValueError, match="names changed"):
        adamw_step({**params, "c": np.ones(1)}, {"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)},
                   state)
    assert state.step == 1


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


@pytest.mark.parametrize("ids, message", [
    (np.array([0.0, 1.0, np.nan]), "labels have dtype float64, expected integers"),
    (np.array([True, False, True]), "labels have dtype bool, expected integers"),
    (np.array([[0, 1, 2]]), "labels shape (1, 3) does not match 3 samples"),
    (np.array([0, 3, -1]), "sample 2 of 3 has label 3, not an integer in [0, n_classes = 3)"),
], ids=["nan", "bool-with-floats", "2-D", "past-the-end"])
def test_require_ids_names_where_and_the_first_bad_sample(ids, message):
    with pytest.raises(ValueError, match=re.escape(f"here: {message}")):
        require_ids("here", "labels", ids, 3, "n_classes", 3)


def test_require_ids_passes_integral_ids_and_no_samples():
    ids = np.array([2, 0, 1], np.uint8)
    assert require_ids("here", "labels", ids, 3, "n_classes", 3) is ids
    empty = np.array([], np.int64)
    assert require_ids("here", "labels", empty, 0, "n_classes", 3) is empty
