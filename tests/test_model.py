"""Encoder/decoder behavior: zero-propagation, causality, weight sharing,
initialization law, linear head, gradients and checkpoint round trips."""

import numpy as np
import pytest

from salient import autodiff as ad
from salient import model
from salient.errors import BadMagic, CorruptFile, ShapeMismatch, TruncatedFile, VersionMismatch
from salient.losses import LossWeights, laplace_prior_sample
from salient.seeding import named_stream
from salient.selfcheck import flat_composite_loss, flatten_params


def zero_params(cfg):
    p = model.init_params(cfg, seed=0)
    for k in p.tensors:
        p.tensors[k] = np.zeros_like(p.tensors[k])
    return p


class TestForward:
    def test_zero_params_give_zero_features(self, tiny_model_config):
        p = zero_params(tiny_model_config)
        rng = named_stream(0, "m")
        frames = rng.standard_normal((5, tiny_model_config.input_dim))
        z = model.encode_sequence(p, frames)
        assert z.shape == (5, tiny_model_config.feature_dim)
        assert np.array_equal(z, np.zeros_like(z))

    def test_zero_params_decoder_zero(self, tiny_model_config):
        p = zero_params(tiny_model_config)
        rng = named_stream(1, "m")
        out = model.decode_sequence(p, rng.standard_normal((4, tiny_model_config.feature_dim)))
        assert out.shape == (4, tiny_model_config.input_dim)
        assert np.array_equal(out, np.zeros_like(out))

    def test_causal_prefix_property(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=3)
        rng = named_stream(2, "m")
        frames = rng.standard_normal((6, tiny_model_config.input_dim)).astype(np.float32)
        full = model.encode_sequence(p, frames)
        head = model.encode_sequence(p, frames[:1])
        assert np.array_equal(full[:1], head)
        prefix = model.encode_sequence(p, frames[:4])
        assert np.array_equal(full[:4], prefix)

    def test_decoder_shape_contract(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=4)
        rng = named_stream(3, "m")
        out = model.decode_sequence(p, rng.standard_normal((7, tiny_model_config.feature_dim)))
        assert out.shape == (7, tiny_model_config.input_dim)

    def test_determinism_bitwise(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=5)
        rng = named_stream(4, "m")
        frames = rng.standard_normal((6, tiny_model_config.input_dim))
        assert np.array_equal(model.encode_sequence(p, frames), model.encode_sequence(p, frames))

    def test_weight_sharing_identical_inputs_identical_features(self, tiny_model_config):
        # the batched clone evaluation uses one parameter set: same rows in,
        # same rows out, bit for bit
        p = model.init_params(tiny_model_config, seed=6)
        rng = named_stream(5, "m")
        frame = rng.standard_normal((1, tiny_model_config.input_dim)).astype(np.float32)
        tape = ad.Tape(np.float32)
        leaves = model.param_leaves(tape, p, requires_grad=False)
        x = tape.constant(np.repeat(frame, 5, axis=0)[None])
        z = model.encoder_graph(leaves, tiny_model_config, x).data[0]
        assert all(np.array_equal(z[0], z[i]) for i in range(1, 5))

    def test_param_leaves_share_memory(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=7)
        tape = ad.Tape(np.float32)
        leaves = model.param_leaves(tape, p)
        assert all(leaves[k].data is p.tensors[k] for k in p.tensors)

    def test_linear_head_scales_exactly(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=8)
        rng = named_stream(6, "m")
        frames = rng.standard_normal((3, tiny_model_config.input_dim)).astype(np.float32)
        z1 = model.encode_sequence(p, frames)
        p.tensors["enc.head.w"] = 2.0 * p.tensors["enc.head.w"]
        p.tensors["enc.head.b"] = 2.0 * p.tensors["enc.head.b"]
        z2 = model.encode_sequence(p, frames)
        assert np.array_equal(z2, 2.0 * z1)  # power-of-two scaling is lossless

    def test_shape_mismatch(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=9)
        with pytest.raises(ShapeMismatch):
            model.encode_sequence(p, np.zeros((4, tiny_model_config.input_dim + 1)))
        with pytest.raises(ShapeMismatch):
            model.decode_sequence(p, np.zeros((0, tiny_model_config.feature_dim)))


class TestInit:
    def test_same_seed_identical(self, tiny_model_config):
        a = model.init_params(tiny_model_config, seed=11)
        b = model.init_params(tiny_model_config, seed=11)
        assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)

    def test_forget_gate_bias_one(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=12)
        h = tiny_model_config.hidden
        for name, arr in p.tensors.items():
            if ".lstm" in name and name.endswith(".b"):
                assert np.all(arr[h : 2 * h] == 1.0)
                assert np.all(arr[:h] == 0.0)
                assert np.all(arr[2 * h :] == 0.0)

    def test_variance_matches_uniform_law_800(self):
        # 800x800 fully connected weight from the paper-scale preset
        p = model.init_params(model.PRESETS["small"], seed=13)
        w = p.tensors["enc.fc0.w"]
        assert w.shape == (800, 800)
        expected = 2.0 / (800 + 800)
        assert abs(float(w.var()) - expected) / expected < 0.10

    def test_presets(self):
        assert model.PRESETS["small"] == model.EncoderConfig(2, 1, 800, 12, 240)
        assert model.PRESETS["large"] == model.EncoderConfig(3, 2, 800, 12, 240)
        assert model.PRESETS["desk"] == model.EncoderConfig(2, 1, 64, 12, 240)


class TestGradients:
    def test_composite_encoder_decoder_grad(self, tiny_model_config):
        # full encoder -> losses -> decoder against directional finite
        # differences (noise-immune form; per-op coordinate checks live in
        # the autodiff suite)
        cfg = tiny_model_config
        params = model.init_params(cfg, seed=14)
        rng = named_stream(7, "g")
        m, q, t = 2, 3, 4
        inputs = rng.standard_normal((m, q, t, cfg.input_dim))
        targets = 0.3 * rng.standard_normal((m, t, cfg.input_dim))
        prior = laplace_prior_sample(m * t, cfg.feature_dim, rng)
        f = flat_composite_loss(cfg, inputs, targets, prior, LossWeights())
        err = ad.directional_grad_check(f, flatten_params(params), h=1e-5, n_dirs=12, rng=rng)
        assert err <= 1e-5


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny_model_config, tmp_path):
        p = model.init_params(tiny_model_config, seed=15)
        p.mean = named_stream(8, "s").standard_normal(tiny_model_config.input_dim).astype(np.float32)
        p.std = (0.5 + named_stream(9, "s").random(tiny_model_config.input_dim)).astype(np.float32)
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(p, path)
        back = model.load_checkpoint(path)
        assert back.config == p.config
        assert np.array_equal(back.mean, p.mean) and np.array_equal(back.std, p.std)
        assert set(back.tensors) == set(p.tensors)
        assert all(np.array_equal(back.tensors[k], p.tensors[k]) for k in p.tensors)

    def test_digest_stable_and_sensitive(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=16)
        d1 = model.params_digest(p)
        assert d1 == model.params_digest(p)
        p.tensors["enc.head.b"] = p.tensors["enc.head.b"] + 1.0
        assert model.params_digest(p) != d1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagic):
            model.load_checkpoint(path)

    def test_version_mismatch(self, tiny_model_config, tmp_path):
        p = model.init_params(tiny_model_config, seed=17)
        path = tmp_path / "v.ckpt"
        model.save_checkpoint(p, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatch):
            model.load_checkpoint(path)

    def test_truncated_file(self, tiny_model_config, tmp_path):
        p = model.init_params(tiny_model_config, seed=18)
        path = tmp_path / "t.ckpt"
        model.save_checkpoint(p, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(TruncatedFile):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("name", ["enc.head.b", "norm.mean", "norm.std"])
    def test_duplicated_tensor_rejected(self, tiny_model_config, tmp_path, name):
        p = model.init_params(tiny_model_config, seed=19)
        path = tmp_path / "d.ckpt"
        model.save_checkpoint(p, path)
        raw = path.read_bytes()
        # a tensor record is u32 name length, name, u32 rank, u32 dims, data
        key = len(name).to_bytes(4, "little") + name.encode()
        start = raw.index(key)
        rank = int.from_bytes(raw[start + len(key) : start + len(key) + 4], "little")
        dims = np.frombuffer(raw, dtype="<u4", count=rank, offset=start + len(key) + 4)
        end = start + len(key) + 4 + 4 * rank + 4 * int(np.prod(dims))
        path.write_bytes(raw + raw[start:end])
        with pytest.raises(CorruptFile):
            model.load_checkpoint(path)

    def test_non_integer_config_value_rejected(self, tiny_model_config, tmp_path):
        path = tmp_path / "c.ckpt"
        model.save_checkpoint(model.init_params(tiny_model_config, seed=20), path)
        raw = path.read_bytes()
        # same length, so the config block's length field stays valid
        key = f"hidden={tiny_model_config.hidden}\n".encode()
        assert len(key) == len(b"hidden=6x\n")
        path.write_bytes(raw.replace(key, b"hidden=6x\n", 1))
        with pytest.raises(CorruptFile):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("text", [b"hidden=", b"enc.head.b"])
    def test_non_utf8_text_rejected(self, tiny_model_config, tmp_path, text):
        path = tmp_path / "u.ckpt"
        model.save_checkpoint(model.init_params(tiny_model_config, seed=21), path)
        raw = bytearray(path.read_bytes())
        at = raw.index(text)
        raw[at] = 0xFF  # never valid in UTF-8
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptFile):
            model.load_checkpoint(path)
