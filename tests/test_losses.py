"""Hand-computed loss oracles, sampler moments, estimator symmetries, and
agreement between the numpy and tape implementations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from salient import autodiff as ad
from salient import losses
from salient.errors import DimMismatch, QTooSmall, ShapeMismatch, TooFewSamples
from salient.losses import LossWeights
from salient.seeding import named_stream


class TestEquivalenceLoss:
    def test_identical_clones_zero(self):
        rng = named_stream(0, "e")
        z = rng.standard_normal((3, 1, 2, 4))
        features = np.repeat(z, 5, axis=1)
        assert losses.equivalence_loss(features) == 0.0

    def test_hand_value(self):
        # one item, one frame, three clones in 2-D: 0 + 2
        features = np.array([[[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]]])
        assert features.shape == (1, 3, 1, 2)
        assert losses.equivalence_loss(features) == 2.0

    def test_permuting_nonreference_clones_invariant(self):
        rng = named_stream(1, "e")
        features = rng.standard_normal((2, 5, 3, 4))
        base = losses.equivalence_loss(features)
        perm = features[:, [0, 3, 1, 4, 2]]
        assert losses.equivalence_loss(perm) == pytest.approx(base, rel=1e-12)

    def test_batch_permutation_invariant(self):
        rng = named_stream(2, "e")
        features = rng.standard_normal((4, 3, 2, 5))
        assert losses.equivalence_loss(features[[2, 0, 3, 1]]) == pytest.approx(
            losses.equivalence_loss(features), rel=1e-12
        )

    def test_q_too_small(self):
        with pytest.raises(QTooSmall):
            losses.equivalence_loss(np.zeros((2, 1, 3, 4)))


class TestImqKernel:
    def test_self_kernel_is_one(self):
        rng = named_stream(3, "k")
        a = rng.standard_normal(12)
        assert losses.imq_kernel(a, a, scale=1.0, dim=12) == 1.0

    def test_half_value_at_c(self):
        # L=12, s=1 -> C=24; squared distance 24 halves the kernel
        a = np.zeros(12)
        b = np.zeros(12)
        b[0] = np.sqrt(24.0)
        assert losses.imq_kernel(a, b, scale=1.0, dim=12) == pytest.approx(0.5, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_symmetric_bounded_decreasing(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, 6))
        k = losses.imq_kernel(a, b, scale=1.0)
        assert 0.0 < k <= 1.0
        assert k == losses.imq_kernel(b, a, scale=1.0)  # bit-exact symmetry
        further = b + 2.0 * (b - a) if np.any(b != a) else b + 1.0
        assert losses.imq_kernel(a, further, scale=1.0) < k or np.array_equal(a, b)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            losses.imq_kernel(np.zeros(3), np.zeros(4))


class TestLaplacePrior:
    def test_unit_variance_scale(self):
        b = 1.0 / np.sqrt(2.0)
        assert 2.0 * b * b == pytest.approx(1.0, abs=1e-15)

    def test_moments(self):
        rng = named_stream(4, "lap")
        x = losses.laplace_prior_sample(100_000, 12, rng)
        var = x.var(axis=0)
        assert np.all(var > 0.97) and np.all(var < 1.03)
        kurt = np.mean((x - x.mean(axis=0)) ** 4, axis=0) / var**2 - 3.0
        assert np.all(kurt > 2.7) and np.all(kurt < 3.3)

    def test_deterministic(self):
        a = losses.laplace_prior_sample(64, 3, named_stream(5, "lap"))
        b = losses.laplace_prior_sample(64, 3, named_stream(5, "lap"))
        assert np.array_equal(a, b)


class TestMmdSq:
    def test_oracle_identical_zero(self):
        assert losses.mmd_sq(np.zeros((2, 1)), np.zeros((2, 1))) == pytest.approx(0.0, abs=1e-12)

    def test_oracle_two_thirds(self):
        got = losses.mmd_sq(np.array([[1.0], [2.0]]), np.zeros((2, 1)))
        assert got == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_swap_symmetry(self):
        rng = named_stream(6, "mmd")
        z = rng.standard_normal((10, 4))
        y = rng.standard_normal((10, 4))
        assert losses.mmd_sq(z, y) == pytest.approx(losses.mmd_sq(y, z), abs=1e-12)

    def test_errors(self):
        with pytest.raises(TooFewSamples):
            losses.mmd_sq(np.zeros((1, 3)), np.zeros((1, 3)))
        with pytest.raises(TooFewSamples):
            losses.mmd_sq(np.zeros((3, 2)), np.zeros((4, 2)))
        with pytest.raises(DimMismatch):
            losses.mmd_sq(np.zeros((3, 2)), np.zeros((3, 5)))


class TestDecoderLoss:
    def test_exact_reconstruction_zero(self):
        rng = named_stream(7, "d")
        targets = rng.standard_normal((2, 3, 240))
        decoded = np.repeat(targets[:, None], 4, axis=1)
        assert losses.decoder_loss(decoded, targets) == 0.0

    def test_unit_residual_gives_dim(self):
        decoded = np.ones((1, 1, 1, 240))
        targets = np.zeros((1, 1, 240))
        assert losses.decoder_loss(decoded, targets) == 240.0

    def test_duplicating_clones_doubles(self):
        rng = named_stream(8, "d")
        decoded = rng.standard_normal((2, 3, 4, 10))
        targets = rng.standard_normal((2, 4, 10))
        once = losses.decoder_loss(decoded, targets)
        twice = losses.decoder_loss(np.concatenate([decoded, decoded], axis=1), targets)
        assert twice == pytest.approx(2.0 * once, rel=1e-12)

    def test_batch_permutation_invariant(self):
        rng = named_stream(9, "d")
        decoded = rng.standard_normal((4, 2, 3, 8))
        targets = rng.standard_normal((4, 3, 8))
        perm = [3, 1, 0, 2]
        assert losses.decoder_loss(decoded[perm], targets[perm]) == pytest.approx(
            losses.decoder_loss(decoded, targets), rel=1e-12
        )

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            losses.decoder_loss(np.zeros((2, 3, 4, 10)), np.zeros((2, 4, 11)))


class TestGlobalLoss:
    def test_weighted_sum(self):
        bd = losses.global_loss(2.0, 0.5, 1.0, LossWeights(lambda_mmd=1.0, lambda_d=18.0))
        assert bd.d_global == 20.5

    def test_zero_weights(self):
        bd = losses.global_loss(3.25, 100.0, 100.0, LossWeights(lambda_mmd=0.0, lambda_d=0.0))
        assert bd.d_global == 3.25

    def test_all_zero(self):
        assert losses.global_loss(0.0, 0.0, 0.0).d_global == 0.0

    def test_accounting_identity_exact(self):
        rng = named_stream(10, "g")
        for _ in range(20):
            d_e, d_mmd, d_d = rng.standard_normal(3) ** 2
            w = LossWeights(lambda_mmd=float(rng.random()), lambda_d=float(10 * rng.random()))
            bd = losses.global_loss(d_e, d_mmd, d_d, w)
            assert bd.d_global == bd.d_e + w.lambda_mmd * bd.d_mmd + w.lambda_d * bd.d_d


class TestGraphBuildersMatchNumpy:
    def test_equivalence_graph(self):
        rng = named_stream(11, "gg")
        m, q, t, l = 3, 4, 2, 5
        features = rng.standard_normal((m, q, t, l))
        tape = ad.Tape(np.float64)
        z = tape.leaf(features.transpose(2, 1, 0, 3).reshape(t, q * m, l))
        got = float(losses.equivalence_loss_graph(z, m).data)
        assert got == pytest.approx(losses.equivalence_loss(features), rel=1e-12)

    def test_decoder_graph(self):
        rng = named_stream(12, "gg")
        m, q, t, n = 2, 3, 4, 7
        decoded = rng.standard_normal((m, q, t, n))
        targets = rng.standard_normal((m, t, n))
        tape = ad.Tape(np.float64)
        dec = tape.leaf(decoded.transpose(2, 1, 0, 3).reshape(t, q * m, n))
        got = float(losses.decoder_loss_graph(dec, targets.transpose(1, 0, 2)).data)
        assert got == pytest.approx(losses.decoder_loss(decoded, targets), rel=1e-12)

    def test_mmd_graph(self):
        rng = named_stream(13, "gg")
        z = rng.standard_normal((24, 6))
        y = rng.standard_normal((24, 6))
        tape = ad.Tape(np.float64)
        got = float(losses.mmd_sq_graph(tape.leaf(z), y, LossWeights()).data)
        assert got == pytest.approx(losses.mmd_sq(z, y), rel=1e-10)

    def test_mmd_graph_gradient(self):
        rng = named_stream(14, "gg")
        y = rng.standard_normal((8, 3))

        def f(tape, z):
            return losses.mmd_sq_graph(ad.reshape(z, (8, 3)), y, LossWeights())

        err = ad.grad_check(f, rng.standard_normal(24), h=1e-5)
        assert err <= 1e-6

    def test_mmd_graph_records_one_entry(self):
        rng = named_stream(16, "gg")
        tape = ad.Tape(np.float32)
        z = tape.leaf(rng.standard_normal((12, 4)))
        losses.mmd_sq_graph(z, rng.standard_normal((12, 4)), LossWeights())
        assert len(tape) == 2  # the leaf and the fused op

    @pytest.mark.parametrize("z_shape,y_shape,error", [
        ((2, 4, 3), (2, 4, 3), DimMismatch),
        ((6,), (6,), DimMismatch),
        ((), (), DimMismatch),
        ((4, 3), (4, 2), DimMismatch),
        ((4, 3), (5, 3), DimMismatch),
        ((1, 3), (1, 3), TooFewSamples),
    ])
    def test_mmd_graph_shape_errors(self, z_shape, y_shape, error):
        tape = ad.Tape(np.float64)
        with pytest.raises(error):
            losses.mmd_sq_graph(tape.leaf(np.ones(z_shape)), np.ones(y_shape), LossWeights())

    def test_equivalence_graph_gradient(self):
        def f(tape, z):
            return losses.equivalence_loss_graph(ad.reshape(z, (1, 6, 2)), items=2)

        rng = named_stream(15, "gg")
        assert ad.grad_check(f, rng.standard_normal(12), h=1e-5) <= 1e-7
