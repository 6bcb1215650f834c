"""Dense float64 numerics shared by every other module.

Stable softmax, standard-normal CDF, squared coefficient of variation,
decoupled-weight-decay Adam, seeded random sub-streams, and a central
difference gradient checker. All operations work in 64-bit reals. They do
not check their inputs: values from outside the program are checked where
they enter, arrays by ``require_finite`` and source ids and labels by
``require_ids``, and the model's forward and the training step raise on
the first overflowing or invalid operation.

The normal CDF needs only NumPy and takes only the gate range: every entry
must have |x| < sqrt(2), bar the last double below it, or it raises
ValueError, NaN included. There it is the Cephes rational erf in Cephes
``ndtr``'s operation order, so it matches SciPy's ``ndtr`` bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

Array = np.ndarray

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_SQRT1_2 = 0.70710678118654752440

# Cephes erf on |z| < 1: erf(z) = z * T(z^2) / U(z^2), T of degree 4 and U
# monic of degree 5, coefficients from the highest power down.
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


class NonFiniteError(ValueError):
    """An array that must be finite holds NaN or Inf entries."""


def require_finite(name: str, arr: Array) -> Array:
    """Return ``arr`` as float64, raising NonFiniteError if any entry is NaN/Inf."""
    out = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(out)):
        bad = int(np.count_nonzero(~np.isfinite(out)))
        raise NonFiniteError(f"{name}: {bad} non-finite entries (shape {out.shape})")
    return out


def require_ids(where: str, name: str, ids, n: int, bound: str, limit: int) -> Array:
    """``ids`` as an array if it holds ``n`` integers in [0, ``limit``), else a
    ValueError that starts with ``where`` and names ``bound`` and the first
    bad sample's id, a ``name`` (plural: ``labels``). The dtype must be an
    integer one; the range is checked by one min and max."""
    arr = np.asarray(ids)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"{where}: {name} have dtype {arr.dtype}, expected integers")
    if arr.shape != (n,):
        raise ValueError(f"{where}: {name} shape {arr.shape} does not match {n} samples")
    if n == 0 or (arr.min() >= 0 and arr.max() < limit):
        return arr
    i = int(np.flatnonzero((arr < 0) | (arr >= limit))[0])
    raise ValueError(f"{where}: sample {i + 1} of {n} has {name[:-1]} {arr[i].item()!r}, "
                     f"not an integer in [0, {bound} = {limit})")


def finite_number(value) -> bool:
    """Whether a Python number is finite, also as a float: an int can be too
    large for one."""
    return abs(value) <= sys.float_info.max


# ---------------------------------------------------------------------------
# elementary ops
# ---------------------------------------------------------------------------


def softmax(logits: Array, out: Array | None = None) -> Array:
    """Shift-invariant softmax along the last axis, written to ``out`` if
    given (it may be ``logits``); rows sum to 1 within 1e-12.

    Every caller normalises the last axis: attention scores, gates and
    class logits. The shift is each row's max, reduced column-wise over a
    contiguous transposed copy, which is far cheaper than ``np.max`` on
    many short rows. It is bit-identical to the row-wise max: a max is
    exact in any order, and the one order-dependent bit, the sign of a zero
    max, cannot reach the output, because x - 0.0 and x - (-0.0) differ
    only in the sign of a zero, and exp maps both zeros to 1.
    """
    x = np.asarray(logits, dtype=np.float64)
    columns = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)
    shift = np.maximum.reduce(columns, axis=0).reshape(*x.shape[:-1], 1)
    out = np.subtract(x, shift, out=out)
    np.exp(out, out=out)
    out /= np.sum(out, axis=-1, keepdims=True)
    return out


def softmax_backward(probs: Array, grad_out: Array, out: Array | None = None) -> Array:
    """Gradient of the last-axis softmax w.r.t. its logits, written to
    ``out`` if given (it may be ``grad_out``). ``probs`` must be the
    forward output; ``grad_out`` is the upstream gradient with the same
    shape."""
    inner = np.sum(grad_out * probs, axis=-1, keepdims=True)
    out = np.subtract(grad_out, inner, out=out)
    out *= probs
    return out


def normal_cdf(x: Array) -> Array:
    """Standard-normal CDF Phi(x) = (1 + erf(x / sqrt(2))) / 2 on the gate range.

    With z = x / sqrt(2) as rounded, every entry must have |z| < 1 (every
    |x| < sqrt(2) but the last double below it), or ValueError is raised,
    NaN included. Phi is then 0.5 + 0.5 erf(z), with erf the Cephes rational
    z T(z^2) / U(z^2) in Cephes ``ndtr``'s operation order: Horner from the
    leading coefficient for T (``polevl``), from z^2 + U[0] for U
    (``p1evl``). So it equals SciPy's ``ndtr`` bit for bit.
    """
    arr = np.asarray(x, dtype=np.float64)
    z = arr.ravel() * _SQRT1_2
    size = np.abs(z)
    if not size.max(initial=0.0) < 1.0:  # NaN fails this too
        bad = float(arr.ravel()[~(size < 1.0)][0])
        raise ValueError(f"normal_cdf: every entry must have |x| < sqrt(2), got {bad}")
    zz = np.multiply(z, z, out=size)  # three input-sized buffers: z, zz and p
    p = zz * _ERF_T[0]
    p += _ERF_T[1]
    for c in _ERF_T[2:]:
        p *= zz
        p += c
    p *= z
    q = np.add(zz, _ERF_U[0], out=z)  # z is dead once p holds z T(z^2)
    for c in _ERF_U[1:]:
        q *= zz
        q += c
    p /= q
    p *= 0.5
    p += 0.5
    return p.reshape(arr.shape)


def normal_pdf(x: Array) -> Array:
    """Standard-normal density (the derivative of :func:`normal_cdf`)."""
    arr = np.asarray(x, dtype=np.float64)
    return _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)


def cv_squared(v: Array):
    """Squared coefficient of variation (population variance / mean^2) and
    its gradient w.r.t. ``v``; returns (value, gradient).

    Defined as 0, with a zero gradient, for an all-zero vector so balance
    terms vanish at step 0. Scale-invariant: the value of c*v equals that of
    v for c > 0.
    """
    arr = np.asarray(v, dtype=np.float64).ravel()
    mean = float(np.add.reduce(arr) / arr.size)
    if mean == 0.0:
        return 0.0, np.zeros_like(arr)
    dev = arr - mean
    var = float(np.add.reduce(dev**2) / arr.size)
    grad = (2.0 / arr.size) * (dev / mean**2 - var / mean**3)
    return var / (mean * mean), grad


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


# Consecutive parameters are updated together in runs of at least this many
# entries, so a step makes a few NumPy calls per run instead of per parameter
# while its scratch stays run-sized.
ADAMW_RUN_SIZE = 16384


@dataclass
class AdamWConfig:
    """AdamW hyperparameters; the run config's ``optimizer`` section."""

    lr: float = 1.4e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


@dataclass
class AdamWState(AdamWConfig):
    """Optimizer state: moments, a strictly increasing step, and the packing.

    The first :func:`adamw_step` packs the parameters, in ``params`` order,
    into the one float64 buffer ``flat`` and rebinds each ``params`` entry to
    its view of it (``views``); the moments ``m`` and ``v`` use the same
    layout. An entry the caller later replaces is copied into the buffer and
    rebound to its view on the next step.
    """

    step: int = 0
    flat: Array | None = field(default=None, repr=False)
    m: Array | None = field(default=None, repr=False)
    v: Array | None = field(default=None, repr=False)
    views: dict = field(default_factory=dict, repr=False)
    runs: list = field(default_factory=list, repr=False)  # (lo, hi, names)
    scratch: Array | None = field(default=None, repr=False)  # (2, longest run)


def _pack(params: dict, state: AdamWState) -> None:
    total = sum(p.size for p in params.values())
    state.flat = np.empty(total)
    state.m = np.zeros(total)
    state.v = np.zeros(total)
    lo = start = 0
    names = []
    for name, p in params.items():
        view = state.flat[lo : lo + p.size].reshape(p.shape)
        view[...] = p
        params[name] = state.views[name] = view
        lo += view.size
        names.append(name)
        if lo - start >= ADAMW_RUN_SIZE:
            state.runs.append((start, lo, names))
            start, names = lo, []
    if names:
        state.runs.append((start, lo, names))
    longest = max((hi - lo for lo, hi, _ in state.runs), default=0)
    state.scratch = np.empty((2, longest))


def adamw_step(params: dict, grads: dict, state: AdamWState) -> None:
    """One decoupled-weight-decay Adam update, applied to ``params`` in place.

    With zero gradients and zero weight decay the parameters are unchanged.
    Raises on any parameter/gradient shape mismatch, and when the parameter
    names differ from those of the first step. Every entry matches, bit for
    bit, the same update applied to each parameter on its own.
    """
    if state.flat is None:
        _pack(params, state)
    elif params.keys() != state.views.keys():
        raise ValueError(
            f"adamw_step: parameter names changed: added {sorted(params.keys() - state.views)}, "
            f"removed {sorted(state.views.keys() - params.keys())}"
        )
    run_grads = []
    for _, _, names in state.runs:
        gs = []
        for name in names:
            p, g, view = params[name], grads[name], state.views[name]
            if p is not view:
                if p.shape != view.shape:
                    raise ValueError(f"adamw_step: shape mismatch for {name!r}: "
                                     f"{view.shape} packed vs {p.shape} replacement")
                view[...] = p
                params[name] = view
            if g.shape != view.shape:
                raise ValueError(f"adamw_step: shape mismatch for {name!r}: "
                                 f"{view.shape} vs {g.shape}")
            gs.append(g)
        run_grads.append(gs)

    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    # Per run: m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p), one operation at a
    # time in the order written, so each entry rounds as it would parameter by
    # parameter (x * y and y * x round alike, as do x + y and y + x).
    for (lo, hi, _), gs in zip(state.runs, run_grads):
        p, m, v = state.flat[lo:hi], state.m[lo:hi], state.v[lo:hi]
        g, tmp = state.scratch[0, : hi - lo], state.scratch[1, : hi - lo]
        np.concatenate(gs, axis=None, out=g)
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=tmp)
        m += tmp
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=tmp)
        tmp *= g
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += state.eps
        np.divide(m, bc1, out=g)
        g /= tmp
        np.multiply(p, state.weight_decay, out=tmp)
        tmp += g
        tmp *= state.lr
        p -= tmp


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckResult:
    rel_errors: Array
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
    return GradCheckResult(rel_errors=rel, bad_coords=bad)

