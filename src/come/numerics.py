"""Dense float64 numerics shared by every other module.

Stable softmax, standard-normal CDF, squared coefficient of variation,
decoupled-weight-decay Adam, seeded random sub-streams, and a central
difference gradient checker. All public operations work in 64-bit reals
and reject non-finite inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

Array = np.ndarray

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class NonFiniteError(ValueError):
    """An array that must be finite holds NaN or Inf entries."""


def require_finite(name: str, arr: Array) -> Array:
    """Return ``arr`` as float64, raising NonFiniteError if any entry is NaN/Inf."""
    out = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        bad = int(np.count_nonzero(~np.isfinite(out)))
        raise NonFiniteError(f"{name}: {bad} non-finite entries (shape {out.shape})")
    return out


# ---------------------------------------------------------------------------
# elementary ops
# ---------------------------------------------------------------------------


def softmax(logits: Array, axis: int = -1) -> Array:
    """Shift-invariant softmax along ``axis``; rows sum to 1 within 1e-12."""
    x = require_finite("softmax logits", logits)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def softmax_backward(probs: Array, grad_out: Array, axis: int = -1) -> Array:
    """Gradient of softmax output w.r.t. its logits.

    ``probs`` must be the forward output; ``grad_out`` is the upstream
    gradient with the same shape.
    """
    inner = np.sum(grad_out * probs, axis=axis, keepdims=True)
    return probs * (grad_out - inner)


def normal_cdf(x):
    """Standard-normal CDF, evaluated via the complementary error function.

    Backed by scipy.special.ndtr (double-precision erfc), absolute error
    well below 1e-10. Accepts scalars or arrays.
    """
    arr = require_finite("normal_cdf input", np.asarray(x, dtype=np.float64))
    out = ndtr(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def normal_pdf(x):
    """Standard-normal density (the derivative of :func:`normal_cdf`)."""
    arr = np.asarray(x, dtype=np.float64)
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def cv_squared(v: Array) -> float:
    """Squared coefficient of variation (population variance / mean^2).

    Defined as 0 for an all-zero vector so balance terms vanish at step 0.
    Scale-invariant: cv_squared(c*v) == cv_squared(v) for c > 0.
    """
    arr = require_finite("cv_squared input", v).ravel()
    if arr.size < 1:
        raise ValueError("cv_squared: need at least one entry")
    if np.any(arr < -1e-12):
        raise ValueError("cv_squared: negative entries")
    mean = float(arr.mean())
    if mean == 0.0:
        return 0.0
    var = float(np.mean((arr - mean) ** 2))
    return var / (mean * mean)


def cv_squared_grad(v: Array) -> Array:
    """Gradient of :func:`cv_squared` w.r.t. its input vector."""
    arr = np.asarray(v, dtype=np.float64).ravel()
    mean = float(arr.mean())
    if mean == 0.0:
        return np.zeros_like(arr)
    n = arr.size
    var = float(np.mean((arr - mean) ** 2))
    return (2.0 / n) * ((arr - mean) / mean**2 - var / mean**3)


# ---------------------------------------------------------------------------
# seeded random sub-streams
# ---------------------------------------------------------------------------

_STREAM_PURPOSES = {"data": 0, "init": 1, "noise": 2}


class RandomStreams:
    """Named, independently re-seedable PCG64 sub-streams.

    Streams are derived from (seed, purpose, index) through
    ``numpy.random.SeedSequence`` spawn keys, so the same seed always
    reproduces the same stream and the (data, init, noise) families never
    overlap. ``index`` splits a purpose further (per epoch, per component).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, purpose: str, index: int = 0) -> np.random.Generator:
        if purpose not in _STREAM_PURPOSES:
            raise ValueError(f"unknown stream purpose {purpose!r}")
        seq = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(_STREAM_PURPOSES[purpose], int(index))
        )
        return np.random.Generator(np.random.PCG64(seq))


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    """Optimizer state: per-parameter moments plus a strictly increasing step."""

    lr: float = 1.4e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adamw_step(params: dict, grads: dict, state: AdamWState) -> None:
    """One decoupled-weight-decay Adam update, applied to ``params`` in place.

    With zero gradients and zero weight decay the parameters are unchanged.
    Raises on any parameter/gradient shape mismatch.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"adamw_step: shape mismatch for {name!r}: {p.shape} vs {g.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        p -= state.lr * (update + state.weight_decay * p)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckResult:
    rel_errors: Array
    analytic: Array
    numeric: Array
    bad_coords: list

    @property
    def max_rel_error(self) -> float:
        if self.rel_errors.size == 0:
            return 0.0
        return float(np.max(self.rel_errors))


def grad_check(fn, point: Array, h: float = 1e-5) -> GradCheckResult:
    """Compare ``fn``'s analytic gradient against central differences.

    ``fn(x)`` must return ``(value, gradient)`` for a 1-D float64 point.
    The per-coordinate relative error is |a - n| / max(1, |a|, |n|);
    coordinates with non-finite evaluations are listed in ``bad_coords``.
    """
    if h <= 0:
        raise ValueError("grad_check: h must be positive")
    x = np.asarray(point, dtype=np.float64).ravel().copy()
    _, analytic = fn(x)
    analytic = np.asarray(analytic, dtype=np.float64).ravel().copy()
    numeric = np.zeros_like(x)
    bad = []
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        f_plus, _ = fn(x)
        x[i] = orig - h
        f_minus, _ = fn(x)
        x[i] = orig
        d = (f_plus - f_minus) / (2.0 * h)
        if not np.isfinite(d):
            bad.append(i)
        numeric[i] = d
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    return GradCheckResult(rel_errors=rel, analytic=analytic, numeric=numeric, bad_coords=bad)

