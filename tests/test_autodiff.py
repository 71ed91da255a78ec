"""Engine-level checks: analytic values, finite-difference oracles,
determinism, and the error contracts."""

import zlib

import numpy as np
import pytest

from salient import autodiff as ad
from salient.errors import (
    DetachedGraph,
    DimMismatch,
    InvalidStep,
    NonFiniteValue,
    NotScalar,
    ShapeMismatch,
    TooFewSamples,
)


def t64():
    return ad.Tape(dtype=np.float64)


_W_3D = np.random.default_rng(7).standard_normal((4, 3))


def _packed_lstm(v, steps, rows, inputs, hidden):
    """ad.lstm with x (T, B, D), wx, wh and b all sliced from one flat
    vector, so one check covers every operand."""
    shapes = [(steps, rows, inputs), (inputs, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,)]
    parts, lo = [], 0
    for shape in shapes:
        hi = lo + int(np.prod(shape))
        parts.append(ad.reshape(ad.slice_(v, 0, lo, hi), shape))
        lo = hi
    return ad.lstm(*parts)


def _packed_imq_mmd(v, rows, dim):
    """ad.imq_mmd with z the first half of v and the constant draws y its
    second half: y carries no gradient, so only z's coordinates are compared."""
    z = ad.reshape(ad.slice_(v, 0, 0, rows * dim), (rows, dim))
    return ad.imq_mmd(z, v.data[rows * dim :].reshape(rows, dim), 2.0 * dim)


def _packed_bias_add(v):
    """ad.bias_add over a time-major (T, B, H) block, both operands from v."""
    x = ad.reshape(ad.slice_(v, 0, 0, 24), (2, 3, 4))
    return ad.bias_add(x, ad.slice_(v, 0, 24, 28)).tanh().sqnorm()


class TestForwardValues:
    def test_tanh_at_zero(self):
        tape = t64()
        x = tape.leaf(np.zeros(3))
        assert np.allclose(x.tanh().data, 0.0)

    def test_matmul_identity(self):
        tape = t64()
        a = tape.leaf(np.arange(12.0).reshape(3, 4))
        eye = tape.constant(np.eye(3))
        out = ad.matmul(eye, a)
        assert np.array_equal(out.data, a.data)

    def test_sqnorm_three_four_five(self):
        tape = t64()
        v = tape.leaf(np.array([3.0, 4.0]))
        assert float(v.sqnorm().data) == 25.0

    def test_concat_slice_roundtrip(self):
        tape = t64()
        a = tape.leaf(np.array([[1.0, 2.0]]))
        b = tape.leaf(np.array([[3.0, 4.0]]))
        cat = ad.concat([a, b], axis=1)
        assert np.array_equal(ad.slice_(cat, 1, 2, 4).data, b.data)


    def test_lstm_matches_cell_equations(self):
        # the fused op against the textbook cell, step by step from a zero
        # state: same products in the same order, so equal bit for bit
        from scipy.special import expit

        rng = np.random.default_rng(8)
        steps, rows, d, h = 4, 3, 5, 2
        x, wx = rng.standard_normal((steps, rows, d)), rng.standard_normal((d, 4 * h))
        wh, b = rng.standard_normal((h, 4 * h)), rng.standard_normal(4 * h)
        tape = t64()
        got = ad.lstm(tape.leaf(x), tape.leaf(wx), tape.leaf(wh), tape.leaf(b)).data
        hid, cell = np.zeros((rows, h)), np.zeros((rows, h))
        for t in range(steps):
            pre = x[t] @ wx + b + hid @ wh
            i, f, o = expit(pre[:, :h]), expit(pre[:, h : 2 * h]), expit(pre[:, 3 * h :])
            cell = f * cell + i * np.tanh(pre[:, 2 * h : 3 * h])
            hid = o * np.tanh(cell)
            assert np.array_equal(got[t], hid)


class TestBackwardValues:
    def test_sqnorm_gradient(self):
        tape = t64()
        v = tape.leaf(np.array([1.0, -2.0]))
        grads = ad.backward(v.sqnorm())
        assert np.array_equal(grads.wrt(v), np.array([2.0, -4.0]))

    def test_fanout_accumulates(self):
        tape = t64()
        x = tape.leaf(np.array([2.0]))
        y = ad.add(x.sqnorm(), ad.reshape(x, ()))  # x^2 + x -> 2x + 1 = 5
        grads = ad.backward(y)
        assert np.array_equal(grads.wrt(x), np.array([5.0]))

    def test_backward_linearity_exact(self):
        # power-of-two coefficients make the scaling lossless, so combined
        # and separate sweeps must agree bit for bit
        rng = np.random.default_rng(0)
        point = rng.standard_normal((4, 3))

        tape = t64()
        x = tape.leaf(point)
        f = x.tanh().sqnorm()
        g = ad.matmul(x, ad.reshape(x, (3, 4))).sqnorm()
        combined = ad.backward(ad.add(ad.scale(f, 2.0), ad.scale(g, -0.5))).wrt(x)

        tape2 = t64()
        x2 = tape2.leaf(point)
        gf = ad.backward(x2.tanh().sqnorm()).wrt(x2)
        tape3 = t64()
        x3 = tape3.leaf(point)
        gg = ad.backward(ad.matmul(x3, ad.reshape(x3, (3, 4))).sqnorm()).wrt(x3)
        assert np.array_equal(combined, 2.0 * gf + (-0.5) * gg)

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(1)
        point = rng.standard_normal((5, 5))

        def run():
            tape = ad.Tape(dtype=np.float32)
            x = tape.leaf(point)
            y = ad.matmul(ad.matmul(x, x).tanh(), x).tanh().sqnorm()
            return ad.backward(y).wrt(x).copy()

        assert np.array_equal(run(), run())


class TestFiniteDifferenceOracles:
    def test_sqnorm_is_fd_exact(self):
        rng = np.random.default_rng(2)
        err = ad.grad_check(lambda tape, x: x.sqnorm(), rng.standard_normal(7), h=1e-5)
        assert err <= 1e-9

    def test_sum_tanh(self):
        rng = np.random.default_rng(3)
        ones = np.ones((9, 1))

        def f(tape, x):
            row = ad.reshape(x.tanh(), (1, 9))
            return ad.reshape(ad.matmul(row, tape.constant(ones)), ())

        err = ad.grad_check(f, rng.standard_normal(9), h=1e-5)
        assert err <= 1e-6

    def test_five_layer_composite(self):
        rng = np.random.default_rng(4)
        w1 = rng.standard_normal((6, 5))
        w2 = rng.standard_normal((5, 4))
        b2 = rng.standard_normal(4)

        def f(tape, x):
            h1 = ad.matmul(x, tape.constant(w1)).tanh()
            h2 = ad.bias_add(ad.matmul(h1, tape.constant(w2)), tape.constant(b2)).tanh()
            h3 = ad.concat([h2, ad.slice_(h1, 1, 0, 2)], axis=1)
            return ad.add(h3.sqnorm(), ad.scale(h1.sqnorm(), 1.0 / h1.size))

        err = ad.grad_check(f, rng.standard_normal((3, 6)), h=1e-5)
        assert err <= 1e-6

    # a case's id ends in its list position (shapeN): add new cases at the
    # end or in a freed slot, so the other ids stay put
    @pytest.mark.parametrize(
        "name,f,shape",
        [
            ("add", lambda tape, x: ad.add(x, x).sqnorm(), (3, 2)),
            ("sub", lambda tape, x: ad.sub(x.tanh(), x).sqnorm(), (3, 2)),
            ("imq_mmd", lambda tape, x: _packed_imq_mmd(x, rows=6, dim=3), (36,)),
            ("matmul", lambda tape, x: ad.matmul(x, ad.reshape(x, (4, 3))).sqnorm(), (3, 4)),
            ("concat3d", lambda tape, x: ad.concat([x, x.tanh()], axis=1).sqnorm(), (2, 3, 2)),
            ("bias_add3d", lambda tape, x: _packed_bias_add(x), (28,)),
            ("concat", lambda tape, x: ad.concat([x, x.tanh()], axis=0).sqnorm(), (2, 3)),
            ("slice", lambda tape, x: ad.slice_(x, 1, 1, 3).sqnorm(), (2, 4)),
            ("scale", lambda tape, x: ad.scale(x, 2.5).sqnorm(), (5,)),
            ("imq_mmd_pair", lambda tape, x: _packed_imq_mmd(x, rows=2, dim=4), (16,)),
            ("reshape", lambda tape, x: ad.reshape(x, (3, 2)).tanh().sqnorm(), (6,)),
            ("slice3d", lambda tape, x: ad.slice_(x, 1, 1, 3).tanh().sqnorm(), (2, 4, 3)),
            ("lstm", lambda tape, x: _packed_lstm(x, steps=3, rows=2, inputs=3, hidden=2).sqnorm(), (66,)),
            ("matmul3d", lambda tape, x: ad.matmul(x, tape.constant(_W_3D)).tanh().sqnorm(), (3, 2, 4)),
        ],
    )
    def test_every_op_backward(self, name, f, shape):
        # crc32, not hash(): str hashes are salted per process, so the input
        # would change from run to run
        h, tol = 1e-5, 1e-6
        point = np.random.default_rng(zlib.crc32(name.encode())).standard_normal(shape)
        # same resolvability floor as the composite gradient gate: one f
        # evaluation quantizes to ~eps*|f|, so a coordinate with
        # |g| < eps*|f|*safety/(2*h*tol) measures only rounding noise (near
        # x = 0 the sub case's gradient ~(2/3)x^5 falls below it)
        tape = t64()
        x = tape.leaf(point.copy())
        out = f(tape, x)
        g_ad = ad.backward(out).wrt(x).ravel()
        floor = np.finfo(np.float64).eps * abs(float(out.data)) * 4.0 / (2.0 * h * tol)
        coords = [int(i) for i in np.flatnonzero(np.abs(g_ad) >= floor)]
        assert len(coords) >= point.size // 2, f"op {name}: only {len(coords)} FD-resolvable coordinates"
        err = ad.grad_check(f, point, h=h, coords=coords)
        assert err <= tol, f"op {name}: {err}"

    def test_bias_add_backward(self):
        # matrix and bias packed into one flat vector so both get checked
        def f(tape, v):
            x = ad.reshape(ad.slice_(v, 0, 0, 8), (2, 4))
            b = ad.slice_(v, 0, 8, 12)
            return ad.bias_add(x, b).tanh().sqnorm()

        rng = np.random.default_rng(6)
        assert ad.grad_check(f, rng.standard_normal(12), h=1e-5) <= 1e-6

    def test_directional_check_matches(self):
        rng = np.random.default_rng(5)
        err = ad.directional_grad_check(
            lambda tape, x: x.tanh().sqnorm(), rng.standard_normal(20), h=1e-5, rng=rng
        )
        assert err <= 1e-7

    def test_zero_step_rejected(self):
        with pytest.raises(InvalidStep):
            ad.grad_check(lambda tape, x: x.sqnorm(), np.ones(2), h=0.0)


class TestContracts:
    def test_shape_mismatch(self):
        tape = t64()
        a = tape.leaf(np.ones((2, 3)))
        b = tape.leaf(np.ones((3, 3)))
        with pytest.raises(ShapeMismatch):
            ad.add(a, b)
        with pytest.raises(ShapeMismatch):
            ad.matmul(a, a)
        seq = tape.leaf(np.ones((4, 2, 3)))
        with pytest.raises(ShapeMismatch):
            ad.matmul(seq, a)
        with pytest.raises(ShapeMismatch):
            ad.lstm(seq, b, tape.leaf(np.ones((3, 12))), tape.leaf(np.ones(12)))
        with pytest.raises(DimMismatch):
            ad.imq_mmd(seq, np.ones((4, 2, 3)), 6.0)
        with pytest.raises(DimMismatch):
            ad.imq_mmd(a, np.ones((3, 3)), 6.0)
        with pytest.raises(TooFewSamples):
            ad.imq_mmd(tape.leaf(np.ones((1, 3))), np.ones((1, 3)), 6.0)

    def test_backward_requires_scalar(self):
        tape = t64()
        x = tape.leaf(np.ones(3))
        with pytest.raises(NotScalar):
            ad.backward(x)

    def test_mixed_tapes_detached(self):
        a = t64().leaf(np.ones(2))
        b = t64().leaf(np.ones(2))
        with pytest.raises(DetachedGraph):
            ad.add(a, b)

    def test_gradients_wrt_other_tape_detached(self):
        tape = t64()
        x = tape.leaf(np.ones(2))
        grads = ad.backward(x.sqnorm())
        other = t64().leaf(np.ones(2))
        with pytest.raises(DetachedGraph):
            grads.wrt(other)

    def test_nonfinite_raises(self):
        tape = t64()
        with pytest.raises(NonFiniteValue):
            tape.leaf(np.array([np.inf]))
        x = tape.leaf(np.full((1, 1), 1e200))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            ad.matmul(x, x)

    def test_leaf_shares_memory_on_matching_dtype(self):
        arr = np.ones((3, 3), dtype=np.float32)
        tape = ad.Tape(dtype=np.float32)
        leaf = tape.leaf(arr)
        assert leaf.data is arr
