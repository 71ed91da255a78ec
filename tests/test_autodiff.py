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
_B_3D = np.random.default_rng(8).standard_normal(3)
_REF_3D = np.random.default_rng(9).standard_normal((2, 3, 2))


def _unpack(v, *shapes):
    """Consecutive slices of the flat vector v, one per shape, so one check
    covers every operand of an op."""
    parts, lo = [], 0
    for shape in shapes:
        hi = lo + int(np.prod(shape))
        parts.append(ad.reshape(ad.slice_(v, 0, lo, hi), shape))
        lo = hi
    return parts


def _packed_lstm(v, steps, rows, inputs, hidden):
    """An LSTM layer, ad.lstm over ad.dense, with x (T, B, D), wx, wh and b
    all sliced from one vector."""
    x, wx, wh, b = _unpack(v, (steps, rows, inputs), (inputs, 4 * hidden), (hidden, 4 * hidden), (4 * hidden,))
    return ad.lstm(ad.dense(x, wx, b), wh)


def _packed_imq_mmd(v, rows, dim):
    """ad.imq_mmd with z the first half of v and the constant draws y its
    second half: y carries no gradient, so only z's coordinates are compared."""
    z = ad.reshape(ad.slice_(v, 0, 0, rows * dim), (rows, dim))
    return ad.imq_mmd(z, v.data[rows * dim :].reshape(rows, dim), 2.0 * dim)


def _packed_dense(v, lead, inputs, outputs):
    """ad.dense with x (*lead, K), w (K, N) and b (N,) all sliced from v."""
    return ad.dense(*_unpack(v, lead + (inputs,), (inputs, outputs), (outputs,))).tanh().sqnorm()


class TestForwardValues:
    def test_tanh_at_zero(self):
        tape = t64()
        x = tape.leaf(np.zeros(3))
        assert np.allclose(x.tanh().data, 0.0)

    @pytest.mark.parametrize("lead", [(5,), (3, 5)])
    def test_dense_matches_numpy_bitwise(self, lead):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(lead + (4,)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        tape = ad.Tape(np.float32)
        out = ad.dense(tape.leaf(x), tape.leaf(w), tape.leaf(b))
        assert np.array_equal(out.data, x @ w + b)

    def test_sqnorm_three_four_five(self):
        tape = t64()
        v = tape.leaf(np.array([3.0, 4.0]))
        assert float(v.sqnorm().data) == 25.0

    def test_shared_sub_subtracts_from_every_block(self):
        rng = np.random.default_rng(11)
        a, b = rng.standard_normal((2, 6, 2)), rng.standard_normal((2, 2, 2))
        tape = t64()
        out = ad.sub(tape.leaf(a), tape.leaf(b)).data
        for q in range(3):
            assert np.array_equal(out[:, 2 * q : 2 * q + 2], a[:, 2 * q : 2 * q + 2] - b)

    def test_lstm_matches_cell_equations(self):
        # the projected sequence and the recurrence against the textbook
        # cell, step by step from a zero state, with the sigmoid written in
        # its tanh form: same products in the same order (numpy runs the 3-D
        # projection one time step at a time), so equal bit for bit
        def sigmoid(v):
            return np.tanh(v * 0.5) * 0.5 + 0.5

        rng = np.random.default_rng(8)
        steps, rows, d, h = 4, 3, 5, 2
        x, wx = rng.standard_normal((steps, rows, d)), rng.standard_normal((d, 4 * h))
        wh, b = rng.standard_normal((h, 4 * h)), rng.standard_normal(4 * h)
        tape = t64()
        got = ad.lstm(ad.dense(tape.leaf(x), tape.leaf(wx), tape.leaf(b)), tape.leaf(wh)).data
        hid, cell = np.zeros((rows, h)), np.zeros((rows, h))
        for t in range(steps):
            pre = x[t] @ wx + b + hid @ wh
            i, f, o = sigmoid(pre[:, :h]), sigmoid(pre[:, h : 2 * h]), sigmoid(pre[:, 3 * h :])
            cell = f * cell + i * np.tanh(pre[:, 2 * h : 3 * h])
            hid = o * np.tanh(cell)
            assert np.array_equal(got[t], hid)

    def test_float32_gates_match_the_exp_sigmoid(self):
        # one step from a zero state with H = 1: each row's gates are those
        # of its own pre-activation, the same value in all four gates
        from scipy.special import expit

        x = np.append(np.linspace(-40.0, 40.0, 80001, dtype=np.float32), np.float32(0.0))
        xw = np.repeat(x[None, :, None], 4, axis=2)
        _, _, gates, _ = ad.lstm_forward(xw, np.zeros((1, 4), dtype=np.float32))
        assert gates.dtype == np.float32 and gates.shape == (1, 4, x.size, 1)
        for k in (0, 1, 3):
            assert np.max(np.abs(gates[0, k, :, 0] - expit(x))) <= 1.2e-7
            assert gates[0, k, -1, 0] == 0.5
        assert np.array_equal(gates[0, 2, :, 0], np.tanh(x))


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
        g = ad.dense(x, ad.reshape(x, (3, 4)), tape.leaf(np.ones(4))).sqnorm()
        combined = ad.backward(ad.add(ad.scale(f, 2.0), ad.scale(g, -0.5))).wrt(x)

        tape2 = t64()
        x2 = tape2.leaf(point)
        gf = ad.backward(x2.tanh().sqnorm()).wrt(x2)
        tape3 = t64()
        x3 = tape3.leaf(point)
        gg = ad.backward(ad.dense(x3, ad.reshape(x3, (3, 4)), tape3.leaf(np.ones(4))).sqnorm()).wrt(x3)
        assert np.array_equal(combined, 2.0 * gf + (-0.5) * gg)

    def test_deterministic_gradients(self):
        rng = np.random.default_rng(1)
        point = rng.standard_normal((5, 5))

        def run():
            tape = ad.Tape(dtype=np.float32)
            x = tape.leaf(point)
            b = ad.reshape(ad.slice_(x, 0, 0, 1), (5,))
            y = ad.dense(ad.dense(x, x, b).tanh(), x, b).tanh().sqnorm()
            return ad.backward(y).wrt(x).copy()

        assert np.array_equal(run(), run())

    def test_shared_sub_sums_blocks_into_the_reference(self):
        rng = np.random.default_rng(12)
        tape = t64()
        a = tape.leaf(rng.standard_normal((2, 6, 2)))
        b = tape.leaf(rng.standard_normal((2, 2, 2)))
        const = rng.standard_normal((2, 3, 2))
        grads = ad.backward(ad.add(ad.sub(a, b).sqnorm(), ad.sub(a, const).sqnorm()))
        blocks = 2.0 * (a.data.reshape(2, 3, 2, 2) - b.data[:, None])
        assert np.allclose(grads.wrt(b), -blocks.sum(axis=1), rtol=1e-12, atol=0)
        const_blocks = 2.0 * (a.data.reshape(2, 2, 3, 2) - const[:, None])
        assert np.allclose(grads.wrt(a), blocks.reshape(2, 6, 2) + const_blocks.reshape(2, 6, 2), rtol=1e-12, atol=0)
        assert len(tape) == 7  # two leaves and five ops: the array const adds no entry

    def test_dense_records_no_gradient_for_a_constant_input(self):
        rng = np.random.default_rng(13)
        tape = t64()
        x = rng.standard_normal((3, 2, 4))
        w, b = tape.leaf(rng.standard_normal((4, 5))), tape.leaf(rng.standard_normal(5))
        grads = ad.backward(ad.dense(x, w, b).sqnorm())
        assert len(tape) == 4  # w, b, the dense op and sqnorm: the array x adds no entry
        g = 2.0 * (x @ w.data + b.data)
        assert np.allclose(grads.wrt(w), x.reshape(6, 4).T @ g.reshape(6, 5), rtol=1e-12, atol=0)
        assert np.allclose(grads.wrt(b), g.sum(axis=(0, 1)), rtol=1e-12, atol=0)

    def test_backward_keeps_only_leaf_gradients(self):
        rng = np.random.default_rng(14)
        tape = t64()
        x, w, b = (tape.leaf(rng.standard_normal(shape)) for shape in ((3, 2, 4), (4, 5), (5,)))
        y = ad.dense(x, w, b)
        h = y.tanh()
        loss = h.sqnorm()
        grads = ad.backward(loss)
        for inner in (y, h, loss):
            assert grads.wrt(inner) is None
        for leaf in (x, w, b):
            assert grads.wrt(leaf).shape == leaf.shape


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
            return ad.reshape(ad.dense(row, tape.leaf(ones), tape.leaf(np.zeros(1))), ())

        err = ad.grad_check(f, rng.standard_normal(9), h=1e-5)
        assert err <= 1e-6

    def test_five_layer_composite(self):
        rng = np.random.default_rng(4)
        w1 = rng.standard_normal((6, 5))
        w2 = rng.standard_normal((5, 4))
        b2 = rng.standard_normal(4)

        def f(tape, x):
            h1 = ad.dense(x, tape.leaf(w1), tape.leaf(np.zeros(5))).tanh()
            h2 = ad.dense(h1, tape.leaf(w2), tape.leaf(b2)).tanh()
            h3 = ad.sub(h2, ad.slice_(h1, 1, 0, 2))
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
            ("matmul", lambda tape, x: ad.dense(x, ad.reshape(x, (4, 3)), tape.leaf(np.zeros(3))).sqnorm(), (3, 4)),
            ("sub_shared", lambda tape, x: ad.sub(*_unpack(x, (2, 6, 2), (2, 2, 2))).tanh().sqnorm(), (32,)),
            ("dense3d", lambda tape, x: _packed_dense(x, (2, 3), inputs=4, outputs=2), (34,)),
            ("sub_shared_const", lambda tape, x: ad.sub(x.tanh(), _REF_3D).sqnorm(), (2, 6, 2)),
            ("slice", lambda tape, x: ad.slice_(x, 1, 1, 3).sqnorm(), (2, 4)),
            ("scale", lambda tape, x: ad.scale(x, 2.5).sqnorm(), (5,)),
            ("imq_mmd_pair", lambda tape, x: _packed_imq_mmd(x, rows=2, dim=4), (16,)),
            ("reshape", lambda tape, x: ad.reshape(x, (3, 2)).tanh().sqnorm(), (6,)),
            ("slice3d", lambda tape, x: ad.slice_(x, 1, 1, 3).tanh().sqnorm(), (2, 4, 3)),
            ("lstm", lambda tape, x: _packed_lstm(x, steps=3, rows=2, inputs=3, hidden=2).sqnorm(), (66,)),
            ("dense3d_const", lambda tape, x: ad.dense(x, tape.leaf(_W_3D), tape.leaf(_B_3D)).tanh().sqnorm(), (3, 2, 4)),
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
        # x, w and b packed into one flat vector so all three get checked
        rng = np.random.default_rng(6)
        assert ad.grad_check(lambda tape, v: _packed_dense(v, (3,), inputs=4, outputs=2), rng.standard_normal(22), h=1e-5) <= 1e-6

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
        bias = tape.leaf(np.ones(3))
        with pytest.raises(ShapeMismatch):
            ad.dense(a, a, bias)
        seq = tape.leaf(np.ones((4, 2, 3)))
        with pytest.raises(ShapeMismatch):
            ad.dense(seq, a, bias)
        with pytest.raises(ShapeMismatch):
            ad.dense(a, b, tape.leaf(np.ones(2)))
        with pytest.raises(ShapeMismatch):
            ad.lstm(seq, tape.leaf(np.ones((3, 12))))
        with pytest.raises(DimMismatch):
            ad.imq_mmd(seq, np.ones((4, 2, 3)), 6.0)
        with pytest.raises(DimMismatch):
            ad.imq_mmd(a, np.ones((3, 3)), 6.0)
        with pytest.raises(TooFewSamples):
            ad.imq_mmd(tape.leaf(np.ones((1, 3))), np.ones((1, 3)), 6.0)

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((2, 5, 2), (2, 2, 2)),  # 2 rows do not divide 5
        ((2, 2, 2), (2, 4, 2)),
        ((2, 4, 3), (2, 2, 2)),
        ((3, 4, 2), (2, 2, 2)),
        ((4,), (2,)),
    ])
    def test_sub_reference_rows_must_divide(self, a_shape, b_shape):
        tape = t64()
        with pytest.raises(ShapeMismatch):
            ad.sub(tape.leaf(np.ones(a_shape)), tape.leaf(np.ones(b_shape)))

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
        with pytest.raises(DetachedGraph):
            ad.sub(a, b)
        w = t64().leaf(np.ones((2, 2)))
        with pytest.raises(DetachedGraph):
            ad.dense(ad.reshape(a, (1, 2)), w, w.tape.leaf(np.ones(2)))

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
            ad.dense(x, x, tape.leaf(np.zeros(1)))

    def test_leaf_shares_memory_on_matching_dtype(self):
        arr = np.ones((3, 3), dtype=np.float32)
        tape = ad.Tape(dtype=np.float32)
        leaf = tape.leaf(arr)
        assert leaf.data is arr
