"""Feature extraction, mel reconstruction, Griffin-Lim behavior, evaluation
determinism and feature-file round trips."""

import struct

import numpy as np
import pytest
import scipy.fft

from salient import audio, corpus, inference, model
from salient.audio import AudioBuffer
from salient.errors import (
    BadMagic,
    ConfigMismatch,
    CorruptFile,
    InvalidIterations,
    InvalidRange,
    ManifestEmpty,
    NonFiniteValue,
    ShapeMismatch,
    TooShort,
    TruncatedFile,
)
from salient.seeding import named_stream

from conftest import make_sine


@pytest.fixture(scope="module")
def desk_params():
    p = model.init_params(model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=12, feature_dim=5, input_dim=240), seed=21)
    rng = named_stream(21, "stats")
    p.mean = rng.standard_normal(240).astype(np.float32)
    p.std = (1.0 + rng.random(240)).astype(np.float32)
    return p


class TestExtract:
    def test_length_matches_frame_count(self, desk_params):
        buf = make_sine(440.0, seconds=1.0)
        track = inference.extract_features(desk_params, buf)
        assert track.features.shape == (49, 5)

    def test_prefix_property(self, desk_params):
        buf = make_sine(350.0, seconds=0.5)
        full = inference.extract_features(desk_params, buf).features
        k_samples = audio.FRAME_SAMPLES + 4 * audio.HOP_SAMPLES  # first 5 frames
        head = inference.extract_features(desk_params, AudioBuffer(buf.samples[:k_samples])).features
        assert np.array_equal(full[:5], head)

    def test_too_short(self, desk_params):
        with pytest.raises(TooShort):
            inference.extract_features(desk_params, AudioBuffer(np.zeros(639, dtype=np.float32)))

    def test_deterministic(self, desk_params):
        buf = make_sine(500.0, seconds=0.3)
        a = inference.extract_features(desk_params, buf).features
        b = inference.extract_features(desk_params, buf).features
        assert np.array_equal(a, b)

    def test_one_signal_only(self, desk_params):
        buf = make_sine(500.0, seconds=0.3)
        assert np.array_equal(
            inference.extract_features(desk_params, buf.samples).features,
            inference.extract_features(desk_params, buf).features,
        )
        for shape in [(2, 16000), (1, 16000), (1, 2, 4800), ()]:
            with pytest.raises(ShapeMismatch):
                inference.extract_features(desk_params, np.zeros(shape, dtype=np.float32))


class TestReconstructMel:
    def test_shape_and_determinism(self, desk_params):
        buf = make_sine(600.0, seconds=0.4)
        track = inference.extract_features(desk_params, buf)
        mel = inference.reconstruct_mel(desk_params, track)
        assert mel.shape == (track.features.shape[0], 240)
        assert np.array_equal(mel, inference.reconstruct_mel(desk_params, track))

    def test_config_mismatch(self, desk_params):
        bad = inference.FeatureTrack(features=np.zeros((10, 7), dtype=np.float32))
        with pytest.raises(ConfigMismatch):
            inference.reconstruct_mel(desk_params, bad)

    def test_non_finite_track_raises(self, desk_params):
        features = np.zeros((10, 5), dtype=np.float32)
        features[4, 1] = np.nan
        with pytest.raises(NonFiniteValue):
            inference.reconstruct_mel(desk_params, inference.FeatureTrack(features=features))


class TestGriffinLim:
    def test_silent_track_is_silent(self):
        mel = np.full((20, 80), np.log(audio.LOG_FLOOR))
        out = inference.griffin_lim(mel, iterations=5)
        assert corpus.rms(out.samples) < 1e-3

    def test_sine_peak_recovered_within_one_filter(self, fb):
        buf = make_sine(1000.0, seconds=0.5, amplitude=0.8)
        mel = audio.frame_matrix(buf)[:, :80]
        out = inference.griffin_lim(mel, iterations=30)
        mel_back = audio.frame_matrix(out)[:, :80]
        want = int(np.argmin(np.abs(fb.center_hz - 1000.0)))
        got = int(np.argmax(mel_back.mean(axis=0)))
        assert abs(got - want) <= 1

    def test_more_iterations_reduce_residual(self):
        buf = make_sine(750.0, seconds=0.3, amplitude=0.7)
        mel = audio.frame_matrix(buf)[:, :80]
        mag = np.sqrt(inference.mel_to_linear_power(mel))

        def residual(iters):
            out = inference.griffin_lim(mel, iterations=iters)
            x = out.samples.astype(np.float64)
            x = x * (np.linalg.norm(mag) / max(np.linalg.norm(np.abs(audio.stft(x))), 1e-12))
            return inference.spectral_residual(x, mag)

        assert residual(60) < residual(1)

    def test_istft_inverts_stft_away_from_the_edges(self):
        x = named_stream(23, "stft").uniform(-0.9, 0.9, 16000)
        spec = audio.stft(x)
        y = audio.istft(spec)
        assert y.shape == x.shape
        hop = audio.HOP_SAMPLES
        assert np.max(np.abs(y[hop:-hop] - x[hop:-hop])) <= 1e-12

    def test_istft_matches_frame_by_frame_overlap_add(self):
        spec = np.fft.rfft(named_stream(24, "istft").standard_normal((7, audio.FRAME_SAMPLES)), n=audio.N_FFT)
        win, hop, width = audio._WIN_FULL, audio.HOP_SAMPLES, audio.FRAME_SAMPLES
        y = np.fft.irfft(spec, n=audio.N_FFT, axis=1)[:, :width]
        out = np.zeros(6 * hop + width)
        wsum = np.zeros(6 * hop + width)
        for t in range(7):
            out[t * hop : t * hop + width] += y[t] * win
            wsum[t * hop : t * hop + width] += win * win
        assert audio.istft(spec).tobytes() == (out / np.maximum(wsum, 0.25)).tobytes()

    def test_stft_matches_frame_by_frame_rfft(self):
        x = named_stream(25, "stft").uniform(-0.9, 0.9, 5000)
        hop, width = audio.HOP_SAMPLES, audio.FRAME_SAMPLES
        frames = [x[t * hop : t * hop + width] * audio._WIN_FULL for t in range(audio.frame_count(len(x)))]
        want = np.array([scipy.fft.rfft(f, n=audio.N_FFT) for f in frames])
        assert audio.stft(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", range(1, 6))
    def test_stacked_stft_rows_match_each_signal_alone_bitwise(self, k, dtype):
        x = named_stream(26, "stft").uniform(-0.9, 0.9, (k, 2500)).astype(dtype)
        spec = audio.stft(x)
        assert spec.shape == (k, audio.frame_count(2500), audio.N_FFT // 2 + 1)
        for row, signal in zip(spec, x):
            assert row.tobytes() == audio.stft(signal).tobytes()

    def test_float32_pair_stays_float32_and_inverts_away_from_the_edges(self):
        x = named_stream(23, "stft").uniform(-0.9, 0.9, 16000).astype(np.float32)
        spec = audio.stft(x)
        y = audio.istft(spec)
        assert spec.dtype == np.complex64 and y.dtype == np.float32
        hop = audio.HOP_SAMPLES
        assert np.max(np.abs(y[hop:-hop] - x[hop:-hop])) <= 1e-6

    def test_float32_istft_matches_frame_by_frame_overlap_add(self):
        frames = named_stream(24, "istft").standard_normal((7, audio.FRAME_SAMPLES)).astype(np.float32)
        spec = scipy.fft.rfft(frames, n=audio.N_FFT)
        win, hop, width = audio._WIN_FULL32, audio.HOP_SAMPLES, audio.FRAME_SAMPLES
        y = scipy.fft.irfft(spec, n=audio.N_FFT, axis=1)[:, :width]
        out = np.zeros(6 * hop + width, dtype=np.float32)
        wsum = np.zeros(6 * hop + width, dtype=np.float32)
        for t in range(7):
            out[t * hop : t * hop + width] += y[t] * win
            wsum[t * hop : t * hop + width] += win * win
        assert spec.dtype == np.complex64
        assert audio.istft(spec).tobytes() == (out / np.maximum(wsum, np.float32(0.25))).tobytes()

    def test_invalid_iterations(self):
        with pytest.raises(InvalidIterations):
            inference.griffin_lim(np.zeros((5, 80)), iterations=0)

    def test_pinv_consistency(self, fb):
        pinv = audio.mel_pinv()
        err = np.max(np.abs(fb.weights @ pinv @ fb.weights - fb.weights))
        assert err <= 1e-6

    def test_output_peak_normalized(self):
        buf = make_sine(300.0, seconds=0.3, amplitude=0.9)
        mel = audio.frame_matrix(buf)[:, :80]
        out = inference.griffin_lim(mel, iterations=10)
        assert np.max(np.abs(out.samples)) == pytest.approx(0.9, abs=1e-4)


def _griffin_lim_float64(mel_track, iterations):
    """Reference: the same phase recovery iterated in float64."""
    mag = np.sqrt(inference.mel_to_linear_power(mel_track))
    x = audio.istft(mag * np.exp(2j * np.pi * np.random.default_rng(0).random(mag.shape)))
    for _ in range(iterations - 1):
        spec = audio.stft(x)
        x = audio.istft(mag * (spec / np.maximum(np.abs(spec), 1e-12)))
    peak = np.max(np.abs(x))
    return 0.9 * x / peak if peak > 1e-6 else x


class TestGriffinLimFloat32:
    @pytest.mark.parametrize("source", ["sine", 0, 1])
    def test_matches_float64_iteration(self, tiny_corpus, source):
        if source == "sine":
            buf = make_sine(440.0, seconds=0.5, amplitude=0.8)
        else:
            buf = audio.load_wav(tiny_corpus.entries[source].clean_path)
        mel = audio.frame_matrix(buf)[:, : audio.N_MELS]
        got = inference.griffin_lim(mel, iterations=60).samples
        want = _griffin_lim_float64(mel, 60)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-3

        def correlation(x):
            return np.corrcoef(mel.ravel(), audio.frame_matrix(x)[:, : audio.N_MELS].ravel())[0, 1]

        assert abs(correlation(got) - correlation(want)) <= 1e-3


class TestEvaluate:
    def test_identical_tracks_zero_rmse(self):
        rng = named_stream(22, "ev")
        t = rng.standard_normal((30, 12))
        assert inference.track_rmse(t, t) == 0.0

    def test_report_deterministic(self, desk_params, tiny_corpus):
        a = inference.evaluate(desk_params, tiny_corpus, [5.0, 10.0])
        b = inference.evaluate(desk_params, tiny_corpus, [5.0, 10.0])
        assert a == b

    def test_report_fields_and_roundtrip(self, desk_params, tiny_corpus, tmp_path):
        report = inference.evaluate(desk_params, tiny_corpus, [0.0, 10.0])
        assert len(report.per_utterance) == 2 * len(tiny_corpus)
        assert set(report.mean_cross_clone_rmse_by_snr) == {"0", "10"}
        assert len(report.feature_variance) == 5
        assert all(v >= 0 for v in report.feature_variance)
        assert all(np.isfinite(v) for v in report.feature_excess_kurtosis)
        p = tmp_path / "r.json"
        inference.save_report(report, p)
        assert inference.load_report(p) == report

    @pytest.mark.parametrize("snrs", [[5.0000001, 5.0000002], [-0.0, 0.0]])
    def test_snrs_sharing_a_report_key_rejected(self, desk_params, tiny_corpus, snrs):
        with pytest.raises(InvalidRange, match="only once"):
            inference.evaluate(desk_params, tiny_corpus, snrs)

    def test_empty_manifest(self, desk_params):
        with pytest.raises(ManifestEmpty):
            inference.evaluate(desk_params, corpus.Manifest((), 0), [5.0])

    def test_batched_rows_match_one_track_recomputation(self, desk_params, tiny_corpus):
        # evaluate runs an utterance's clean and noisy tracks as one batch;
        # each row must match the same metrics computed one track at a time
        snrs = [0.0, 5.0, 10.0, 15.0]
        report = inference.evaluate(desk_params, tiny_corpus, snrs)
        rows = iter(report.per_utterance)
        for entry in sorted(tiny_corpus.entries, key=lambda e: e.utterance_id):
            clean = audio.load_wav(entry.clean_path)
            clean_frames = audio.frame_matrix(clean)
            clean_features = inference.extract_features(desk_params, clean).features
            for snr_db in snrs:
                rng = named_stream(tiny_corpus.seed, f"eval/{entry.utterance_id}/{snr_db}")
                noisy = corpus.mix_clones(clean.samples, entry, 1, rng, snr_db=snr_db)[0]
                track = inference.extract_features(desk_params, noisy)
                recon = inference.reconstruct_mel(desk_params, track)
                row = next(rows)
                assert (row["id"], row["snr_db"]) == (entry.utterance_id, snr_db)
                rmse = inference.track_rmse(track.features, clean_features)
                mse = float(np.mean(np.square(recon - clean_frames, dtype=np.float64)))
                assert row["cross_clone_rmse"] == pytest.approx(rmse, rel=1e-6)
                assert row["mel_recon_mse"] == pytest.approx(mse, rel=1e-6)
        assert next(rows, None) is None


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = named_stream(23, "ff")
        track = inference.FeatureTrack(features=rng.standard_normal((40, 12)).astype(np.float32))
        p = tmp_path / "t.feat"
        inference.export_features(track, p)
        back = inference.import_features(p)
        assert np.array_equal(back.features, track.features)
        assert struct.unpack("<IIII", p.read_bytes()[4:20]) == (inference.FEATURE_VERSION, 12, 40, 20)

    def test_csv_shape_and_header(self, tmp_path):
        rng = named_stream(24, "ff")
        track = inference.FeatureTrack(features=rng.standard_normal((7, 3)).astype(np.float32))
        p = tmp_path / "t.csv"
        inference.export_features_csv(track, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "# L=3,T=7,hop_ms=20"
        assert len(lines) == 8
        assert all(len(line.split(",")) == 3 for line in lines[1:])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.feat"
        p.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(BadMagic):
            inference.import_features(p)

    def test_truncated(self, tmp_path):
        rng = named_stream(25, "ff")
        track = inference.FeatureTrack(features=rng.standard_normal((9, 4)).astype(np.float32))
        p = tmp_path / "t.feat"
        inference.export_features(track, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-5])
        with pytest.raises(TruncatedFile):
            inference.import_features(p)

    def test_header_claiming_more_than_the_file_holds(self, tmp_path):
        p = tmp_path / "t.feat"
        header = struct.pack("<IIII", inference.FEATURE_VERSION, 65535, 65535, inference.HOP_MS)
        p.write_bytes(inference.FEATURE_MAGIC + header + np.zeros(16, dtype="<f4").tobytes())
        with pytest.raises(TruncatedFile, match="65535x65535"):
            inference.import_features(p)

    def test_trailing_bytes(self, tmp_path):
        p = tmp_path / "t.feat"
        inference.export_features(inference.FeatureTrack(features=np.zeros((9, 4), dtype=np.float32)), p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(CorruptFile, match="trailing"):
            inference.import_features(p)

    def test_hop_other_than_20_ms(self, tmp_path):
        p = tmp_path / "t.feat"
        header = inference.FEATURE_MAGIC + struct.pack("<IIII", inference.FEATURE_VERSION, 4, 9, 10)
        p.write_bytes(header + np.zeros((9, 4), dtype="<f4").tobytes())
        with pytest.raises(ConfigMismatch, match="10 ms"):
            inference.import_features(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, tmp_path, bad):
        features = np.zeros((9, 4), dtype=np.float32)
        features[3, 2] = bad
        p = tmp_path / "t.feat"
        inference.export_features(inference.FeatureTrack(features=features), p)
        with pytest.raises(CorruptFile, match="t.feat"):
            inference.import_features(p)
