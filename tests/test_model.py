"""Encoder/decoder behavior: zero-propagation, causality, weight sharing,
initialization law, linear head, gradients and checkpoint round trips."""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from salient import autodiff as ad
from salient import model
from salient.errors import BadMagic, CorruptFile, NonFiniteValue, ShapeMismatch, TruncatedFile, VersionMismatch
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
        leaves = model.param_leaves(tape, p)
        x = np.repeat(frame, 5, axis=0)[None]
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


class TestTapeFree:
    """encode_sequence/decode_sequence run the graph builders' layers on
    plain arrays: the same products as the float32 tape, one LSTM forward."""

    def _params(self, cfg, seed):
        p = model.init_params(cfg, seed=seed)
        rng = named_stream(seed, "biases")
        for k in p.tensors:
            if k.endswith(".b"):
                p.tensors[k] = p.tensors[k] + rng.uniform(-0.5, 0.5, p.tensors[k].shape).astype(np.float32)
        return p

    def _on_tape(self, p, builder, rows):
        """The builder on a float32 tape for (B, T, D) rows, batch-major out."""
        tape = ad.Tape(np.float32)
        leaves = model.param_leaves(tape, p)
        x = np.ascontiguousarray(rows.swapaxes(0, 1))
        return builder(leaves, p.config, x).data.swapaxes(0, 1)

    @pytest.mark.parametrize("rows", [1, 5])
    def test_bitwise_equal_to_the_tape_graph(self, tiny_model_config, rows):
        p = self._params(tiny_model_config, seed=31)
        frames = named_stream(31, "tf").standard_normal((rows, 9, tiny_model_config.input_dim)).astype(np.float32)
        z = model.encode_sequence(p, frames)
        assert z.shape == (rows, 9, tiny_model_config.feature_dim)
        assert np.array_equal(z, self._on_tape(p, model.encoder_graph, frames))
        out = model.decode_sequence(p, z)
        assert out.shape == (rows, 9, tiny_model_config.input_dim)
        assert np.array_equal(out, self._on_tape(p, model.decoder_graph, z))

    def test_one_track_bitwise_equal_to_the_tape_graph(self):
        # a (T, D) track in the column-major layout audio.frame_matrix
        # returns, at desk size, where BLAS sums a strided row in another order
        p = self._params(model.PRESETS["desk"], seed=32)
        frames = np.asfortranarray(named_stream(32, "tf").standard_normal((30, 240)), np.float32)
        tape = ad.Tape(np.float32)
        leaves = model.param_leaves(tape, p)
        want = model.encoder_graph(leaves, p.config, frames[:, None, :]).data[:, 0, :]
        assert np.array_equal(model.encode_sequence(p, frames), want)

    def test_batch_matches_one_track_calls(self, tiny_model_config):
        p = self._params(tiny_model_config, seed=33)
        frames = named_stream(33, "tf").standard_normal((5, 11, tiny_model_config.input_dim)).astype(np.float32)
        z = model.encode_sequence(p, frames)
        out = model.decode_sequence(p, z)
        for i in range(5):
            np.testing.assert_allclose(z[i], model.encode_sequence(p, frames[i]), rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(out[i], model.decode_sequence(p, z[i]), rtol=1e-6, atol=1e-6)

    def test_batch_shape_mismatch(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=34)
        n, l = tiny_model_config.input_dim, tiny_model_config.feature_dim
        for call, shape in [
            (model.encode_sequence, (3, 0, n)),
            (model.encode_sequence, (3, 4, n + 1)),
            (model.decode_sequence, (3, 0, l)),
            (model.decode_sequence, (3, 4, l - 1)),
            (model.encode_sequence, (2, 3, 4, n)),
        ]:
            with pytest.raises(ShapeMismatch):
                call(p, np.zeros(shape, dtype=np.float32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_raise(self, tiny_model_config, bad):
        p = model.init_params(tiny_model_config, seed=35)
        frames = np.zeros((4, tiny_model_config.input_dim), dtype=np.float32)
        frames[2, 3] = bad
        with pytest.raises(NonFiniteValue):
            model.encode_sequence(p, frames)

    @pytest.mark.parametrize("name", ["enc.head.w", "enc.lstm0.wx", "dec.head.w"])
    def test_non_finite_parameter_raises(self, tiny_model_config, name):
        # an inf input weight saturates its gate, and encoding never reads
        # the decoder: only a check of every parameter catches both
        p = model.init_params(tiny_model_config, seed=36)
        p.tensors[name][0, 0] = np.inf
        frames = named_stream(36, "tf").standard_normal((4, tiny_model_config.input_dim)).astype(np.float32)
        with pytest.raises(NonFiniteValue):
            model.encode_sequence(p, frames)


    def test_overflowing_output_raises(self, tiny_model_config):
        # saturated gates hold every hidden unit near tanh(1); a head of
        # finite float32 maxima then sums past the largest float32
        p = model.init_params(tiny_model_config, seed=37)
        p.tensors["dec.lstm1.b"][:] = 20.0
        p.tensors["dec.head.w"][:] = np.finfo(np.float32).max
        features = named_stream(37, "tf").standard_normal((4, tiny_model_config.feature_dim)).astype(np.float32)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue):
            model.decode_sequence(p, features)


class TestNormalize:
    def test_float32_frame_space(self, tiny_model_config):
        p = model.init_params(tiny_model_config, seed=3)
        rng = named_stream(3, "norm")
        n = tiny_model_config.input_dim
        p.mean = rng.standard_normal(n).astype(np.float32)
        p.std = rng.uniform(0.5, 2.0, n).astype(np.float32)
        frames = rng.standard_normal((2, 7, n)).astype(np.float32)
        got = model.normalize(p, frames)
        assert got.dtype == np.float32
        assert got.tobytes() == ((frames - p.mean) / p.std).tobytes()
        back = model.denormalize(p, got)
        assert back.dtype == np.float32
        assert np.allclose(back, frames, rtol=0.0, atol=1e-5)


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

    def test_save_renames_a_complete_file_over_the_old_one(self, tiny_model_config, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(model.init_params(tiny_model_config, seed=1), path)
        old = path.read_bytes()
        new = model.init_params(tiny_model_config, seed=2)
        replace, seen = os.replace, []

        def spy(src, dst):
            # at the rename, the target still holds the old checkpoint and
            # the source, in the same directory, the whole new one
            seen.append((Path(src).parent == Path(dst).parent, Path(dst).read_bytes() == old,
                         model.load_checkpoint(src).tensors.keys() == new.tensors.keys()))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        model.save_checkpoint(new, path)
        assert seen == [(True, True, True)]
        assert sorted(tmp_path.iterdir()) == [path]
        assert model.params_digest(model.load_checkpoint(path)) == model.params_digest(new)

    def test_failed_serialization_leaves_no_temp_file(self, tiny_model_config, tmp_path, monkeypatch):
        path = tmp_path / "m.ckpt"
        model.save_checkpoint(model.init_params(tiny_model_config, seed=1), path)
        old = path.read_bytes()

        def fail(params):
            raise RuntimeError("injected")

        monkeypatch.setattr(model, "_serialize", fail)
        with pytest.raises(RuntimeError):
            model.save_checkpoint(model.init_params(tiny_model_config, seed=2), path)
        assert sorted(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == old

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

    @pytest.mark.parametrize("field", ["config", "name", "rank", "dim", "dims_product"])
    def test_oversized_length_field_raises_truncated(self, tiny_model_config, tmp_path, field):
        # each claimed byte count is compared with the bytes left before
        # anything is read, so none of these allocates what it claims
        path = tmp_path / "h.ckpt"
        model.save_checkpoint(model.init_params(tiny_model_config, seed=22), path)
        raw = bytearray(path.read_bytes())
        name = raw.index(b"norm.mean")  # the first tensor record's name
        if field == "dims_product":
            # rank 1 -> rank 4 of 65536 each: 2^64 values, 0 in int64
            raw[name + 9 : name + 17] = struct.pack("<5I", 4, *[65536] * 4)
        else:
            at = {"config": 8, "name": name - 4, "rank": name + 9, "dim": name + 13}[field]
            raw[at : at + 4] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
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

    @pytest.mark.parametrize("key,why", [("hidden", "repeated"), ("bogus", "unknown")])
    def test_repeated_or_unknown_config_key_rejected(self, tiny_model_config, tmp_path, key, why):
        path = tmp_path / "k.ckpt"
        model.save_checkpoint(model.init_params(tiny_model_config, seed=23), path)
        raw = path.read_bytes()
        # append one line to the config block: its u32 length sits at offset 8
        (n,) = struct.unpack("<I", raw[8:12])
        line = f"{key}=8\n".encode()
        path.write_bytes(raw[:8] + struct.pack("<I", n + len(line)) + raw[12 : 12 + n] + line + raw[12 + n :])
        with pytest.raises(CorruptFile, match=f"'{key}' is {why}"):
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
