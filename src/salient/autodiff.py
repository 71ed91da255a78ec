"""Reverse-mode automatic differentiation over dense numpy tensors.

A Tape records every produced value in creation order, which is already a
topological order, so the backward sweep is one reversed pass. Gradients
from fan-out are accumulated in fixed tape order: the same graph on the
same inputs yields bit-identical gradients.

Training runs in float32; construct a Tape with dtype=np.float64 for
verification work (finite-difference checks need the headroom). Non-finite
values raise immediately. A Tensor is a value that gets a gradient and a plain
array is a constant: ops take constants as arrays, so the only leaves are the
values differentiated against, and constants never enter the tape.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import (
    DetachedGraph,
    DimMismatch,
    InvalidStep,
    NonFiniteValue,
    NotScalar,
    ShapeMismatch,
    TooFewSamples,
)


class Tensor:
    """Immutable handle to one tape entry, a value that gets a gradient (a
    constant is a plain array, never a Tensor). Do not mutate .data."""

    __slots__ = ("tape", "idx", "data")

    def __init__(self, tape: "Tape", idx: int, data: np.ndarray):
        self.tape = tape
        self.idx = idx
        self.data = data

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    # -- unary ops --------------------------------------------------------
    def tanh(self) -> "Tensor":
        t, idx = np.tanh(self.data), self.idx

        def bwd(g, acc):
            _acc(acc, idx, g * (1.0 - t * t))

        return self.tape._record(t, "tanh", bwd)

    def sqnorm(self) -> "Tensor":
        """Sum of squared entries, as a scalar."""
        x, idx = self.data, self.idx

        def bwd(g, acc):
            _acc(acc, idx, (2.0 * g) * x)

        return self.tape._record(np.sum(x * x), "sqnorm", bwd)


class Tape:
    """Single-threaded op recorder. One tape per forward/backward pass."""

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._ops: list[Callable | None] = []  # an op's backward, or None for a leaf

    def __len__(self) -> int:
        return len(self._ops)

    def leaf(self, data) -> Tensor:
        """Register a value to differentiate against. No copy is made when
        dtype already matches, so parameter arrays are shared, not forked."""
        arr = np.asarray(data, dtype=self.dtype)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue("non-finite leaf value")
        self._ops.append(None)
        return Tensor(self, len(self._ops) - 1, arr)

    def _record(self, data, name, bwd) -> Tensor:
        data = np.asarray(data, dtype=self.dtype)
        if not np.all(np.isfinite(data)):
            raise NonFiniteValue(f"non-finite value produced by op '{name}'")
        self._ops.append(bwd)
        return Tensor(self, len(self._ops) - 1, data)


class Gradients:
    """Result of a backward pass; query with .wrt(tensor)."""

    __slots__ = ("_tape", "_grads")

    def __init__(self, tape: Tape, grads: list):
        self._tape = tape
        self._grads = grads

    def wrt(self, t: Tensor):
        """Gradient array for the leaf `t`, or None if no path reached it.
        Only leaves keep theirs: an op's output always answers None."""
        if t.tape is not self._tape:
            raise DetachedGraph("tensor does not belong to the differentiated tape")
        return self._grads[t.idx]


def _acc(acc: list, idx: int, val: np.ndarray) -> None:
    g = acc[idx]
    acc[idx] = val if g is None else g + val


def _check_tape(*ts: Tensor) -> Tape:
    tape = ts[0].tape
    if any(t.tape is not tape for t in ts[1:]):
        raise DetachedGraph("operands recorded on different tapes")
    return tape


def _operand(tape: Tape, v) -> tuple:
    """(index, data) of a Tensor on `tape`, or (None, v in the tape dtype) for an array, a constant."""
    if not isinstance(v, Tensor):
        return None, np.asarray(v, dtype=tape.dtype)
    if v.tape is not tape:
        raise DetachedGraph("operands recorded on different tapes")
    return v.idx, v.data


def backward(loss: Tensor) -> Gradients:
    """Reverse sweep from a scalar; returns its leaves' exact gradients."""
    tape = loss.tape
    if loss.data.shape != ():
        raise NotScalar(f"backward needs a scalar, got shape {loss.data.shape}")
    grads: list = [None] * len(tape._ops)
    grads[loss.idx] = np.ones((), dtype=tape.dtype)
    for idx in range(loss.idx, -1, -1):
        bwd = tape._ops[idx]
        if bwd is not None and grads[idx] is not None:
            bwd(grads[idx], grads)
            grads[idx] = None  # an op's gradient is spent once its backward ran; a leaf's stays
    return Gradients(tape, grads)


# ---------------------------------------------------------------------------
# binary / structural ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _check_tape(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")
    ia, ib = a.idx, b.idx

    def bwd(g, acc):
        _acc(acc, ia, g)
        _acc(acc, ib, g)

    return tape._record(a.data + b.data, "add", bwd)


def sub(a: Tensor, b) -> Tensor:
    """a - b, where b's axis-1 length may divide a's: b is then subtracted
    from each of the Q = a.shape[1] // b.shape[1] consecutive (clone-major)
    blocks of a's axis 1; equal shapes are the case Q = 1. The backward sums
    the blocks' gradients into b when b is a Tensor; an array b is a constant."""
    ib, db = _operand(a.tape, b)
    sa, sb = a.shape, db.shape
    q = sa[1] // sb[1] if len(sa) == len(sb) >= 2 and sb[1] else 1
    if sa != (sb if q == 1 else sb[:1] + (q * sb[1],) + sb[2:]):
        raise ShapeMismatch(f"sub: {sa} vs {sb}")
    ia, blocks = a.idx, sb[:1] + (q,) + sb[1:]

    def bwd(g, acc):
        _acc(acc, ia, g)
        if ib is not None:
            _acc(acc, ib, -g if q == 1 else -g.reshape(blocks).sum(axis=1))

    out = a.data - db if q == 1 else (a.data.reshape(blocks) - db[:, None]).reshape(sa)
    return a.tape._record(out, "sub", bwd)


def dense(x, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for x (M, K), or a time-major (T, M, K) that numpy runs as
    one product per slice, so each slice equals its own 2-D product; w is
    (K, N) and b (N,). An array x is a constant, so it gets no gradient."""
    tape = _check_tape(w, b)
    ix, dx = _operand(tape, x)
    if dx.ndim not in (2, 3) or w.data.ndim != 2 or dx.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeMismatch(f"dense: {dx.shape} @ {w.shape} + {b.shape}")
    iw, ib, dw = w.idx, b.idx, w.data
    lead = tuple(range(dx.ndim - 1))

    def bwd(g, acc):
        _acc(acc, ib, g.sum(axis=lead))
        if ix is not None:
            _acc(acc, ix, g @ dw.T)
        _acc(acc, iw, dx.reshape(-1, dw.shape[0]).T @ g.reshape(-1, dw.shape[1]))

    return tape._record(dx @ dw + b.data, "dense", bwd)


def lstm_forward(xw: np.ndarray, wh: np.ndarray) -> tuple:
    """One LSTM layer's recurrence from a zero state over the projected input
    xw = x @ wx + b (T, B, 4H) of a time-major x, gates [input, forget,
    candidate, output] along xw's last axis and wh (H, 4H). Step t adds only
    h_t @ wh to xw[t]. Returns the states hs, cs (T + 1, B, H), the gates
    stored gate-major (T, 4, B, H) and tanh(cs[1:]) (T, B, H).

    All four gates take one tanh(pre * s) * s + (1 - s), with s = 1/2 for
    the three sigmoid gates, since sigmoid(x) = tanh(x/2)/2 + 1/2, and s = 1
    for the candidate's tanh. In float32 this is within 1.2e-7 of
    1 / (1 + exp(-x)) and costs a fraction of an exp-based sigmoid."""
    steps, rows, _ = xw.shape
    h = wh.shape[0]
    scale = np.array([0.5, 0.5, 1.0, 0.5], dtype=xw.dtype)[:, None, None]
    shift = 1.0 - scale
    hs = np.zeros((steps + 1, rows, h), dtype=xw.dtype)
    cs = np.zeros_like(hs)
    tanh_c = np.empty_like(hs[1:])
    gates = np.empty((steps, 4, rows, h), dtype=xw.dtype)
    for t in range(steps):
        pre = hs[t] @ wh
        pre += xw[t]
        act = gates[t]
        np.multiply(pre.reshape(rows, 4, h).swapaxes(0, 1), scale, out=act)
        np.tanh(act, out=act)
        act *= scale
        act += shift
        i_gate, f_gate, g_cand, o_gate = act
        c = cs[t + 1]
        np.multiply(f_gate, cs[t], out=c)
        c += i_gate * g_cand
        np.multiply(o_gate, np.tanh(c, out=tanh_c[t]), out=hs[t + 1])
    return hs, cs, gates, tanh_c


def lstm(xw: Tensor, wh: Tensor) -> Tensor:
    """`lstm_forward` as a tape op with a backpropagation-through-time backward;
    xw's gradient is the gate pre-activations', which `dense` takes to x, wx, b.
    The backward takes each gate's local derivative for all steps at once, so
    its loop runs only the recurrence in dh and dc."""
    tape = _check_tape(xw, wh)
    h = wh.shape[0]
    if xw.data.ndim != 3 or xw.shape[2] != 4 * h or wh.shape != (h, 4 * h):
        raise ShapeMismatch(f"lstm: xw {xw.shape}, wh {wh.shape}")
    steps, rows, _ = xw.shape
    ixw, iwh, dwh = xw.idx, wh.idx, wh.data
    hs, cs, gates, tanh_c = lstm_forward(xw.data, dwh)

    def bwd(g, acc):
        # each gate's factor for all steps: d_pre[t] is dc times the first
        # three and dh times the last, and dc picks up dh times dc_dh
        i_gate, f_gate, g_cand, o_gate = gates.swapaxes(0, 1)
        factors = np.subtract(1.0, gates)
        factors *= gates  # sigmoid'(x) = s(1 - s), right for all but the candidate
        f_i, f_f, f_g, f_o = factors.swapaxes(0, 1)
        np.multiply(g_cand, g_cand, out=f_g)
        np.subtract(1.0, f_g, out=f_g)  # tanh'(x) = 1 - g^2
        f_i *= g_cand
        f_f *= cs[:-1]
        f_g *= i_gate
        f_o *= tanh_c
        dc_dh = np.subtract(1.0, tanh_c * tanh_c)
        dc_dh *= o_gate
        d_pre = np.empty((steps, rows, 4 * h), dtype=gates.dtype)
        dh, dc = np.zeros_like(hs[0]), np.zeros_like(cs[0])
        for t in range(steps - 1, -1, -1):
            dh = g[t] + dh
            dc = dh * dc_dh[t] + dc
            by_gate = d_pre[t].reshape(rows, 4, h).swapaxes(0, 1)
            np.multiply(factors[t, :3], dc, out=by_gate[:3])
            np.multiply(factors[t, 3], dh, out=by_gate[3])
            dh, dc = d_pre[t] @ dwh.T, dc * f_gate[t]
        _acc(acc, ixw, d_pre)
        _acc(acc, iwh, hs[:-1].reshape(steps * rows, h).T @ d_pre.reshape(steps * rows, 4 * h))

    return tape._record(hs[1:], "lstm", bwd)


def _imq_block(a: np.ndarray, b: np.ndarray, c: float) -> np.ndarray:
    # k(a_i, b_j) = c / (c + d2), with d2 = |a_i|^2 + |b_j|^2 - 2 a_i.b_j
    d2 = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]) - 2.0 * (a @ b.T)
    return c / (c + d2)


def imq_mmd(z: Tensor, y: np.ndarray, c: float) -> Tensor:
    """Squared MMD between the rows of z (n, dim) and the constant draws y
    (n, dim) under the kernel c / (c + |a-b|^2): the off-diagonal means of
    the z-z and y-y blocks minus twice the full mean of the z-y block.
    Kernels use the expanded form of the squared distance in the tape dtype.
    The kernel's derivative in d2 is -k^2/c, so the gradient for row i is
    sum_j w_ij (z_i - z_j) + sum_j v_ij (z_i - y_j), with
    w = -4 k_zz^2 / (c n(n-1)) off the diagonal and v = 4 k_zy^2 / (c n^2)."""
    tape = z.tape
    y = np.asarray(y, dtype=tape.dtype)
    if z.data.ndim != 2 or y.shape != z.shape:
        raise DimMismatch(f"imq_mmd: sample blocks must both be (n, dim), got {z.shape} and {y.shape}")
    n = z.shape[0]
    if n < 2:
        raise TooFewSamples(f"imq_mmd: need at least 2 samples, got {n}")
    dz, iz = z.data, z.idx
    kzz, kyy, kzy = _imq_block(dz, dz, c), _imq_block(y, y, c), _imq_block(dz, y, c)
    np.fill_diagonal(kzz, 0.0)
    np.fill_diagonal(kyy, 0.0)
    out = (np.sum(kzz) + np.sum(kyy)) / (n * (n - 1)) - 2.0 * np.sum(kzy) / (n * n)

    def bwd(g, acc):
        w = (-4.0 / (c * n * (n - 1))) * (kzz * kzz)
        v = (4.0 / (c * n * n)) * (kzy * kzy)
        _acc(acc, iz, g * ((w.sum(axis=1) + v.sum(axis=1))[:, None] * dz - w @ dz - v @ y))

    return tape._record(out, "imq_mmd", bwd)


def slice_(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    if not (0 <= axis < x.data.ndim):
        raise ShapeMismatch(f"slice: axis {axis} out of range for {x.shape}")
    if not (0 <= start < stop <= x.shape[axis]):
        raise ShapeMismatch(f"slice: [{start}:{stop}] out of range on axis {axis} of {x.shape}")
    ix, shp = x.idx, x.shape
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)

    def bwd(g, acc):
        full = np.zeros(shp, dtype=g.dtype)
        full[sl] = g
        _acc(acc, ix, full)

    return x.tape._record(np.ascontiguousarray(x.data[sl]), "slice", bwd)


def scale(x: Tensor, c: float) -> Tensor:
    ix, c = x.idx, float(c)

    def bwd(g, acc):
        _acc(acc, ix, c * g)

    return x.tape._record(c * x.data, "scale", bwd)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    if int(np.prod(shape)) != x.size:
        raise ShapeMismatch(f"reshape: {x.shape} -> {shape}")
    ix, old = x.idx, x.shape

    def bwd(g, acc):
        _acc(acc, ix, g.reshape(old))

    return x.tape._record(x.data.reshape(shape), "reshape", bwd)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def _ad_gradient(f, point, h: float) -> tuple:
    """The common half of both finite-difference checks: the point as a
    float64 array, the reverse-mode gradient of f there, and an evaluator of
    f at any point."""
    if not (h > 0):
        raise InvalidStep(f"step size must be positive, got {h}")
    base = np.array(point, dtype=np.float64)
    tape = Tape(dtype=np.float64)
    x = tape.leaf(base.copy())
    out = f(tape, x)
    if out.data.shape != ():
        raise NotScalar("grad_check target must be scalar-valued")
    g = backward(out).wrt(x)

    def eval_at(vec):
        t = Tape(dtype=np.float64)
        return float(f(t, t.leaf(vec)).data)

    return base, np.zeros_like(base) if g is None else np.asarray(g), eval_at


def grad_check(f, point, h: float, coords=None) -> float:
    """Compare reverse-mode gradients of f against central differences.

    `f(tape, x)` must return a scalar Tensor built from the leaf `x`.
    Runs in float64. Returns the max over checked coordinates of
    |g_ad - g_fd| / max(1e-12, |g_ad| + |g_fd|). `coords` restricts the
    check to a subset of flat indices (full scan by default).
    """
    base, g_ad, eval_at = _ad_gradient(f, point, h)
    flat = base.ravel()
    ad = g_ad.ravel()
    if coords is None:
        coords = range(flat.size)
    worst = 0.0
    for i in coords:
        orig = flat[i]
        flat[i] = orig + h
        fp = eval_at(base)
        flat[i] = orig - h
        fm = eval_at(base)
        flat[i] = orig
        g_fd = (fp - fm) / (2.0 * h)
        err = abs(ad[i] - g_fd) / max(1e-12, abs(ad[i]) + abs(g_fd))
        worst = max(worst, err)
    return worst


def directional_grad_check(f, point, h: float, n_dirs: int = 16, rng=None) -> float:
    """Compare AD directional derivatives g.d against central differences of
    f along random unit directions d.

    One direction exercises every coordinate of the gradient at once, and the
    directional derivative has the magnitude of the full gradient, so the
    comparison stays far above the finite-difference noise floor even where
    individual coordinates are tiny. Returns the max relative error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    base, g_ad, eval_at = _ad_gradient(f, point, h)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(base.shape)
        d /= np.linalg.norm(d)
        fp = eval_at(base + h * d)
        fm = eval_at(base - h * d)
        g_fd = (fp - fm) / (2.0 * h)
        g_dir = float(np.sum(g_ad * d))
        err = abs(g_dir - g_fd) / max(1e-12, abs(g_dir) + abs(g_fd))
        worst = max(worst, err)
    return worst
