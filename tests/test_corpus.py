"""Mixing accuracy, batch assembly invariants, synthetic corpus properties
and manifest round trips."""

import json
import math

import numpy as np
import pytest

from salient import audio, corpus
from salient.audio import AudioBuffer
from salient.errors import (
    CorruptFile,
    InvalidRange,
    ManifestEmpty,
    MissingFile,
    NoiseTooShort,
    ParseError,
    ShapeMismatch,
    SilentSignal,
    UtteranceTooShort,
)
from salient.seeding import child_seeds, named_stream


def const_rms_signal(rms_value: float, n: int) -> np.ndarray:
    # alternating +-a has RMS exactly a
    x = np.full(n, rms_value, dtype=np.float32)
    x[1::2] *= -1.0
    return x


def noise_entry(tmp_path, noise: np.ndarray, snr_db: float = 5.0) -> corpus.CloneSpec:
    # one WAV-backed noise source; mix_clones never reads the clean path
    p = tmp_path / "noise.wav"
    audio.save_wav(AudioBuffer(noise), p)
    return corpus.CloneSpec("u", tmp_path / "clean.wav", (p,), snr_db)


class TestMixAtSnr:
    def test_gain_closed_form(self):
        clean = const_rms_signal(0.1, 4000)
        noise = const_rms_signal(0.2, 4000)
        mix = corpus.mix_at_snr(clean, noise, 10.0)
        residual = mix.astype(np.float64) - clean
        alpha = corpus.rms(residual) / corpus.rms(noise)
        assert alpha == pytest.approx(0.5 * 10 ** (-0.5), abs=1e-6)
        assert alpha == pytest.approx(0.158114, abs=1e-6)

    def test_zero_db_equal_rms_is_plain_sum(self):
        clean = const_rms_signal(0.25, 2000)
        noise = -clean
        mix = corpus.mix_at_snr(clean, noise, 0.0)
        expected = clean.astype(np.float64) + noise
        assert np.allclose(mix, expected, atol=1e-7)

    def test_silent_inputs_rejected(self):
        clean = const_rms_signal(0.1, 1000)
        silent = np.zeros(1000, dtype=np.float32)
        with pytest.raises(SilentSignal):
            corpus.mix_at_snr(clean, silent, 5.0)
        with pytest.raises(SilentSignal):
            corpus.mix_at_snr(silent, clean, 5.0)

    def test_inputs_are_left_unchanged(self):
        rng = named_stream(8, "t")
        clean, noise = rng.uniform(-0.5, 0.5, (2, 1000))
        before = noise.copy()
        corpus.mix_at_snr(clean, noise, 5.0)
        assert np.array_equal(noise, before)

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 7.3, 15.0, 30.0])
    def test_measured_snr_accuracy(self, tmp_path, snr_db):
        # noise cut from a file three times the clean length
        rng = named_stream(int(abs(snr_db) * 10), "snr")
        clean = rng.uniform(-0.7, 0.7, 8000).astype(np.float32)
        entry = noise_entry(tmp_path, rng.uniform(-0.7, 0.7, 24000).astype(np.float32))
        for mix in corpus.mix_clones(clean, entry, 3, rng, snr_db=snr_db):
            assert corpus.measured_snr_db(mix, clean) == pytest.approx(snr_db, abs=1e-6)

    def test_short_noise_wraps_and_stays_accurate(self, tmp_path):
        rng = named_stream(3, "t")
        clean = rng.uniform(-0.5, 0.5, 16000).astype(np.float32)
        entry = noise_entry(tmp_path, rng.uniform(-0.5, 0.5, 9000).astype(np.float32))
        mix = corpus.mix_clones(clean, entry, 1, rng)[0]
        assert corpus.measured_snr_db(mix, clean) == pytest.approx(5.0, abs=1e-6)
        residual = mix.astype(np.float64) - clean  # repeats with the file's period
        assert np.allclose(residual[:7000], residual[9000:], atol=1e-6)

    def test_sub_half_second_noise_rejected(self, tmp_path):
        rng = named_stream(4, "t")
        clean = rng.uniform(-0.5, 0.5, 16000).astype(np.float32)
        entry = noise_entry(tmp_path, rng.uniform(-0.5, 0.5, 4000).astype(np.float32))
        with pytest.raises(NoiseTooShort):
            corpus.mix_clones(clean, entry, 1, rng)

    def test_rows_mix_as_they_do_one_at_a_time(self):
        rng = named_stream(5, "t")
        clean = rng.uniform(-0.5, 0.5, 4000).astype(np.float32)
        noise = rng.uniform(-0.5, 0.5, (3, 4000)).astype(np.float32)
        snrs = [0.0, 7.3, 15.0]
        rows = corpus.mix_at_snr(clean, noise, snrs)
        assert rows.shape == (3, 4000) and rows.dtype == np.float32
        for r in range(3):
            one = corpus.mix_at_snr(clean, noise[r], snrs[r])
            assert one.shape == (4000,) and np.array_equal(rows[r], one)
            assert corpus.measured_snr_db(one, clean) == pytest.approx(snrs[r], abs=1e-6)

    def test_a_silent_or_non_finite_row_is_rejected(self):
        rng = named_stream(7, "t")
        clean = rng.uniform(-0.5, 0.5, 2000).astype(np.float32)
        noise = rng.uniform(-0.5, 0.5, (3, 2000)).astype(np.float32)
        silent, bad = noise.copy(), noise.copy()
        silent[1] = 0.0
        bad[2, 7] = np.nan
        with pytest.raises(SilentSignal):
            corpus.mix_at_snr(clean, silent, np.zeros(3))
        with pytest.raises(CorruptFile):
            corpus.mix_at_snr(clean, bad, np.zeros(3))

    def test_a_scalar_snr_applies_to_every_row(self):
        rng = named_stream(9, "t")
        clean = rng.uniform(-0.5, 0.5, 1000).astype(np.float32)
        noise = rng.uniform(-0.5, 0.5, (3, 1000)).astype(np.float32)
        rows = corpus.mix_at_snr(clean, noise, 5.0)
        assert np.array_equal(rows, corpus.mix_at_snr(clean, noise, [5.0] * 3))
        for row in rows:
            assert corpus.measured_snr_db(row, clean) == pytest.approx(5.0, abs=1e-6)

    @pytest.mark.parametrize("noise_shape,snr_db,named", [
        ((3, 1000), [0.0, 5.0], ("(2,)", "(3, 1000)")),
        ((3, 1000), [0.0] * 4, ("(4,)", "(3, 1000)")),
        ((3, 999), [0.0] * 3, ("(3, 999)", "(1000,)")),
        ((999,), 5.0, ("(999,)", "(1000,)")),
    ])
    def test_shape_mismatch_names_both_shapes(self, noise_shape, snr_db, named):
        rng = named_stream(10, "t")
        clean = rng.uniform(-0.5, 0.5, 1000).astype(np.float32)
        noise = rng.uniform(-0.5, 0.5, noise_shape).astype(np.float32)
        with pytest.raises(ShapeMismatch) as err:
            corpus.mix_at_snr(clean, noise, snr_db)
        assert all(shape in str(err.value) for shape in named)


class TestMeasuredSnr:
    def test_a_mixture_equal_to_its_clean_signal_is_infinite(self):
        clean = const_rms_signal(0.1, 1000)
        assert corpus.measured_snr_db(clean.copy(), clean) == math.inf

    def test_a_silent_clean_signal_is_rejected(self):
        silent = np.zeros(1000, dtype=np.float32)
        with pytest.raises(SilentSignal):
            corpus.measured_snr_db(const_rms_signal(0.1, 1000), silent)
        with pytest.raises(SilentSignal):
            corpus.measured_snr_db(silent, silent)


class TestCloneBatch:
    def test_shapes_and_q_one_boundary(self, tiny_corpus):
        rng = named_stream(5, "b")
        batch = corpus.build_clone_batch(tiny_corpus, 3, 1, rng)
        assert batch.clone_inputs.shape == (3, 1, 6, 240)
        assert batch.clean_targets.shape == (3, 6, 240)
        assert batch.clone_inputs.dtype == batch.clean_targets.dtype == np.float32
        assert len(batch.meta) == 3

    def test_same_seed_bit_identical(self, tiny_corpus):
        b1 = corpus.build_clone_batch(tiny_corpus, 4, 3, named_stream(6, "b"))
        b2 = corpus.build_clone_batch(tiny_corpus, 4, 3, named_stream(6, "b"))
        assert np.array_equal(b1.clone_inputs, b2.clone_inputs)
        assert np.array_equal(b1.clean_targets, b2.clean_targets)
        assert b1.meta == b2.meta

    def test_targets_are_clean_segment_frames(self, tiny_corpus):
        batch = corpus.build_clone_batch(tiny_corpus, 2, 2, named_stream(7, "b"))
        by_id = {e.utterance_id: e for e in tiny_corpus.entries}
        for i, (uid, start) in enumerate(batch.meta):
            seg = audio.load_wav(by_id[uid].clean_path).samples[start : start + corpus.SEGMENT_SAMPLES]
            expected = audio.frame_matrix(AudioBuffer(seg))
            assert np.array_equal(batch.clean_targets[i], expected)

    @staticmethod
    def _requiet(manifest, snr_db):
        return corpus.Manifest(
            entries=tuple(
                corpus.CloneSpec(e.utterance_id, e.clean_path, e.noise_paths, snr_db=snr_db)
                for e in manifest.entries
            ),
            seed=manifest.seed,
        )

    def test_high_snr_clones_match_clean(self, tiny_corpus):
        # at +100 dB the noise gain is ~1e-5, but the clean-noise cross term in
        # the power spectrum scales linearly with the gain, so near-floor bins
        # can still move by up to ~2*alpha*sqrt(E_noise/floor) ~ 2e-2
        batch = corpus.build_clone_batch(self._requiet(tiny_corpus, 100.0), 2, 3, named_stream(8, "b"))
        diff = np.abs(batch.clone_inputs - batch.clean_targets[:, None])
        assert np.max(diff) <= 2e-2

    def test_extreme_snr_clones_numerically_clean(self, tiny_corpus):
        # +160 dB pushes the cross term below 1e-3 on every bin
        batch = corpus.build_clone_batch(self._requiet(tiny_corpus, 160.0), 2, 3, named_stream(8, "b"))
        diff = np.abs(batch.clone_inputs - batch.clean_targets[:, None])
        assert np.max(diff) <= 1e-3

    def test_residual_noise_draws_uncorrelated(self, tmp_path):
        # white-noise entries: per item, the Q mixtures minus the shared clean
        # segment are independent noise draws
        rng = named_stream(9, "gen")
        clean_p = tmp_path / "clean.wav"
        noise_p = tmp_path / "noise.wav"
        audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 16000).astype(np.float32)), clean_p)
        audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 160000).astype(np.float32)), noise_p)
        entry = corpus.CloneSpec("u", clean_p, (noise_p,), 5.0)

        item_rng = named_stream(10, "mix")
        seg = audio.load_wav(clean_p).samples[: corpus.SEGMENT_SAMPLES].astype(np.float64)
        residuals = []
        for _ in range(4):
            mix = corpus.mix_clones(seg, entry, 1, item_rng)[0]
            residuals.append(mix.astype(np.float64) - seg)
        for a in range(4):
            for b in range(a + 1, 4):
                ra, rb = residuals[a], residuals[b]
                ncc = np.dot(ra, rb) / (np.linalg.norm(ra) * np.linalg.norm(rb))
                assert abs(ncc) < 0.2

    @pytest.mark.parametrize("clones", [1, 3, 8])
    @pytest.mark.parametrize("batch_size", [1, 3, 5, 17])
    def test_batch_equals_per_clone_one_row_mixing(self, tiny_corpus, batch_size, clones):
        # even entries mix two noise sources, odd ones one; the reference
        # draws and mixes one clone at a time in the old order: its SNR
        # jitter, its noise segments (a one-clone mix_clones), then the old
        # second cut of the summed noise. Batch sizes that are no multiple of
        # the framing chunk check its last, shorter chunk.
        noises = sorted({p for e in tiny_corpus.entries for p in e.noise_paths})
        manifest = corpus.Manifest(
            tuple(
                corpus.CloneSpec(e.utterance_id, e.clean_path,
                                 e.noise_paths + ((noises[i % len(noises)],) if i % 2 == 0 else ()), e.snr_db)
                for i, e in enumerate(tiny_corpus.entries)
            ),
            tiny_corpus.seed,
        )
        batch = corpus.build_clone_batch(manifest, batch_size, clones, named_stream(13, "b"))
        assert batch.clone_inputs.shape == (batch_size, clones, corpus.CLONE_FRAMES, audio.FRAME_BINS)
        sources = set()
        for i, seed in enumerate(child_seeds(named_stream(13, "b"), batch_size)):
            item_rng = np.random.default_rng(int(seed))
            entry = manifest.entries[int(item_rng.integers(0, len(manifest.entries)))]
            clean = audio.load_wav(entry.clean_path).samples
            n_starts = (len(clean) - corpus.SEGMENT_SAMPLES) // audio.HOP_SAMPLES + 1
            start = audio.HOP_SAMPLES * int(item_rng.integers(0, n_starts))
            seg = clean[start : start + corpus.SEGMENT_SAMPLES]
            mixes = []
            for _ in range(clones):
                snr = entry.snr_db + float(item_rng.uniform(0.0, corpus.DEFAULT_SNR_JITTER_DB))
                mixes.append(corpus.mix_clones(seg, entry, 1, item_rng, snr_db=snr)[0])
                assert item_rng.integers(0, 1) == 0
            assert batch.meta[i] == (entry.utterance_id, start)
            assert np.array_equal(batch.clean_targets[i], audio.frame_matrix(seg))
            assert np.array_equal(batch.clone_inputs[i], audio.frame_matrix(np.stack(mixes)))
            sources.add(len(entry.noise_paths))
        assert sources == {1, 2} or batch_size < 17

    def test_a_noise_file_too_short_for_a_segment_is_rejected(self, tmp_path):
        rng = named_stream(14, "gen")
        clean_p, noise_p = tmp_path / "clean.wav", tmp_path / "noise.wav"
        audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 16000).astype(np.float32)), clean_p)
        audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 2000).astype(np.float32)), noise_p)
        manifest = corpus.Manifest((corpus.CloneSpec("u", clean_p, (noise_p,), 5.0),), 0)
        with pytest.raises(NoiseTooShort):
            corpus.build_clone_batch(manifest, 2, 3, named_stream(15, "b"))

    @pytest.mark.parametrize(
        "named, value",
        [("clones", 0), ("clones", -1), ("batch_size", -1),
         ("snr_jitter_db", -1.0), ("snr_jitter_db", math.nan), ("snr_jitter_db", math.inf)],
    )
    def test_bad_sizes_are_rejected_by_name(self, tiny_corpus, named, value):
        args = {"batch_size": 2, "clones": 3, "snr_jitter_db": 15.0, named: value}
        with pytest.raises(InvalidRange, match=named):
            corpus.build_clone_batch(tiny_corpus, args["batch_size"], args["clones"], named_stream(16, "b"),
                                     args["snr_jitter_db"])
        if named != "batch_size":
            entry = tiny_corpus.entries[0]
            seg = audio.load_wav(entry.clean_path).samples[: corpus.SEGMENT_SAMPLES]
            with pytest.raises(InvalidRange, match=named):
                corpus.mix_clones(seg, entry, args["clones"], named_stream(16, "m"), snr_jitter_db=args["snr_jitter_db"])

    def test_empty_manifest(self):
        with pytest.raises(ManifestEmpty):
            corpus.build_clone_batch(corpus.Manifest((), 0), 2, 2, named_stream(0, "b"))

    def test_too_short_utterance(self, tmp_path):
        p = tmp_path / "short.wav"
        n = tmp_path / "noise.wav"
        rng = named_stream(11, "gen")
        audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 1000).astype(np.float32)), p)
        audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 16000).astype(np.float32)), n)
        manifest = corpus.Manifest((corpus.CloneSpec("u", p, (n,), 5.0),), 0)
        with pytest.raises(UtteranceTooShort):
            corpus.build_clone_batch(manifest, 1, 2, named_stream(12, "b"))


class TestSynthCorpus:
    def test_empty_corpus(self, tmp_path):
        manifest = corpus.synth_corpus(tmp_path / "c0", 0, seed=1)
        assert len(manifest) == 0
        assert not (tmp_path / "c0" / "wav").exists()
        back = corpus.load_manifest(tmp_path / "c0" / "manifest.jsonl")
        assert len(back) == 0 and back.seed == 1

    @pytest.mark.parametrize("n,seed", [(2, -1), (-3, 1)])
    def test_negative_seed_or_count_rejected(self, tmp_path, n, seed):
        with pytest.raises(InvalidRange):
            corpus.synth_corpus(tmp_path / "neg", n, seed=seed)
        assert not (tmp_path / "neg").exists()
        with pytest.raises(InvalidRange):
            corpus.synth_corpus(tmp_path / "neg", abs(n), seed=abs(seed), snr_choices=())
        assert not (tmp_path / "neg").exists()

    @pytest.mark.parametrize("snr", [float("nan"), float("inf")])
    def test_non_finite_snr_choice_rejected_before_writing(self, tmp_path, snr):
        with pytest.raises(InvalidRange, match="finite"):
            corpus.synth_corpus(tmp_path / "c", 2, seed=1, snr_choices=[5.0, snr])
        assert not (tmp_path / "c").exists()

    def test_regeneration_bit_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        corpus.synth_corpus(a, 4, seed=99)
        corpus.synth_corpus(b, 4, seed=99)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_utterance_lengths_and_amplitudes(self, tiny_corpus):
        for e in tiny_corpus.entries:
            buf = audio.load_wav(e.clean_path)
            assert 1.0 * 16000 <= len(buf) <= 3.0 * 16000
            assert np.max(np.abs(buf.samples)) <= 1.0
            assert corpus.rms(buf.samples) > 0

    def test_snr_choices_respected(self, tiny_corpus):
        assert {e.snr_db for e in tiny_corpus.entries} <= {0.0, 5.0, 10.0, 15.0}

    def test_pink_noise_octave_slope(self, tmp_path):
        corpus.synth_corpus(tmp_path / "p", 1, seed=5)
        pink = audio.load_wav(tmp_path / "p" / "noise" / "pink.wav").samples.astype(np.float64)
        spec = np.abs(np.fft.rfft(pink)) ** 2
        freqs = np.fft.rfftfreq(len(pink), d=1.0 / 16000)
        low = spec[(freqs >= 200) & (freqs < 400)].mean()
        high = spec[(freqs >= 400) & (freqs < 800)].mean()
        ratio_db = 10.0 * np.log10(low / high)
        assert ratio_db == pytest.approx(3.0, abs=1.0)


class TestManifestIO:
    def test_save_load_identity(self, tmp_path):
        rng = named_stream(13, "gen")
        paths = []
        for name in ("a.wav", "b.wav", "n1.wav", "n2.wav"):
            p = tmp_path / name
            audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 16000).astype(np.float32)), p)
            paths.append(p)
        manifest = corpus.Manifest(
            entries=(
                corpus.CloneSpec("u1", paths[0], (paths[2],), 5.0),
                corpus.CloneSpec("u2", paths[1], (paths[2], paths[3]), 7.25),
                corpus.CloneSpec("u3", paths[0], (paths[3],), -3.0),
            ),
            seed=42,
        )
        mp = tmp_path / "m.jsonl"
        corpus.save_manifest(manifest, mp)
        back = corpus.load_manifest(mp)
        assert back.seed == 42
        assert len(back) == 3
        for orig, got in zip(manifest.entries, back.entries):
            assert got.utterance_id == orig.utterance_id
            assert got.clean_path == orig.clean_path.resolve()
            assert got.noise_paths == tuple(p.resolve() for p in orig.noise_paths)
            assert got.snr_db == orig.snr_db

    def test_seed_header_after_blank_lines(self, tmp_path):
        mp = tmp_path / "m.jsonl"
        mp.write_text('\n  \n{"seed": 7}\n')
        assert corpus.load_manifest(mp).seed == 7

    def test_malformed_line_names_lineno(self, tmp_path):
        mp = tmp_path / "bad.jsonl"
        mp.write_text('{"seed": 1}\n{not json}\n')
        with pytest.raises(ParseError, match="line 2"):
            corpus.load_manifest(mp)

    @pytest.mark.parametrize("line", ['{"seed": "abc"}', '{"seed": null}', '{"seed": 1.5}', '{"seed": -1}', '{"seed": true}', "3"])
    def test_bad_header_or_non_object_names_lineno(self, tmp_path, line):
        mp = tmp_path / "bad.jsonl"
        mp.write_text(line + "\n")
        with pytest.raises(ParseError, match="line 1"):
            corpus.load_manifest(mp)

    @pytest.mark.parametrize("snr", ["NaN", "Infinity", "-Infinity", '"nan"'])
    def test_non_finite_snr_rejected(self, tmp_path, snr):
        mp = tmp_path / "m.jsonl"
        mp.write_text(f'{{"seed": 1}}\n{{"id": "u", "clean": "a.wav", "noises": ["a.wav"], "snr_db": {snr}}}\n')
        with pytest.raises(ParseError, match="line 2.*finite"):
            corpus.load_manifest(mp)

    @pytest.mark.parametrize("key,value", [
        ("id", None), ("id", 7), ("clean", 3), ("clean", None), ("noises", "a.wav"),
        ("noises", []), ("noises", ["a.wav", 1]), ("snr_db", True), ("snr_db", "7"), ("snr_db", None), ("snr_db", 10**400),
    ])
    def test_mistyped_entry_field_names_lineno(self, tmp_path, key, value):
        rng = named_stream(15, "gen")
        audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 16000).astype(np.float32)), tmp_path / "a.wav")
        entry = {"id": "u", "clean": "a.wav", "noises": ["a.wav"], "snr_db": 5.0, key: value}
        mp = tmp_path / "m.jsonl"
        mp.write_text(f'{{"seed": 1}}\n{json.dumps(entry)}\n')
        with pytest.raises(ParseError, match=f"line 2: {key}"):
            corpus.load_manifest(mp)

    def test_missing_wav(self, tmp_path):
        mp = tmp_path / "m.jsonl"
        mp.write_text('{"seed": 1}\n{"id": "u", "clean": "gone.wav", "noises": ["x.wav"], "snr_db": 5.0}\n')
        with pytest.raises(MissingFile):
            corpus.load_manifest(mp)

    def test_duplicate_id(self, tmp_path):
        rng = named_stream(14, "gen")
        p = tmp_path / "a.wav"
        audio.save_wav(AudioBuffer(rng.uniform(-0.5, 0.5, 16000).astype(np.float32)), p)
        mp = tmp_path / "m.jsonl"
        entry = '{"id": "u", "clean": "a.wav", "noises": ["a.wav"], "snr_db": 5.0}'
        mp.write_text(f'{{"seed": 1}}\n{entry}\n{entry}\n')
        with pytest.raises(ParseError, match="duplicate"):
            corpus.load_manifest(mp)
