"""Feature extraction, mel reconstruction, Griffin-Lim behavior, evaluation
determinism and feature-file round trips."""

import numpy as np
import pytest

from salient import audio, corpus, inference, model
from salient.audio import AudioBuffer
from salient.errors import (
    BadMagic,
    ConfigMismatch,
    InvalidIterations,
    ManifestEmpty,
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
        assert track.hop_ms == 20
        assert track.checkpoint_id == model.params_digest(desk_params)

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


class TestGriffinLim:
    def test_silent_track_is_silent(self, fb):
        mel = np.full((20, 80), np.log(audio.LOG_FLOOR))
        out = inference.griffin_lim(mel, fb, iterations=5)
        assert corpus.rms(out.samples) < 1e-3

    def test_sine_peak_recovered_within_one_filter(self, fb):
        buf = make_sine(1000.0, seconds=0.5, amplitude=0.8)
        mel = audio.frame_matrix(buf, fb)[:, :80]
        out = inference.griffin_lim(mel, fb, iterations=30)
        mel_back = audio.frame_matrix(out, fb)[:, :80]
        want = int(np.argmin(np.abs(fb.center_hz - 1000.0)))
        got = int(np.argmax(mel_back.mean(axis=0)))
        assert abs(got - want) <= 1

    def test_more_iterations_reduce_residual(self, fb):
        buf = make_sine(750.0, seconds=0.3, amplitude=0.7)
        mel = audio.frame_matrix(buf, fb)[:, :80]
        mag = np.sqrt(inference.mel_to_linear_power(mel, fb))

        def residual(iters):
            out = inference.griffin_lim(mel, fb, iterations=iters)
            x = out.samples.astype(np.float64)
            x = x * (np.linalg.norm(mag) / max(np.linalg.norm(np.abs(inference._stft_mag_phase(x, mag.shape[0], fb.n_fft))), 1e-12))
            return inference.spectral_residual(x, mag)

        assert residual(60) < residual(1)

    def test_istft_inverts_stft_away_from_the_edges(self, fb):
        x = named_stream(23, "stft").uniform(-0.9, 0.9, 16000)
        spec = inference._stft_mag_phase(x, audio.frame_count(len(x)), fb.n_fft)
        y = inference._istft(spec, fb.n_fft)
        assert y.shape == x.shape
        hop = audio.HOP_SAMPLES
        assert np.max(np.abs(y[hop:-hop] - x[hop:-hop])) <= 1e-12

    def test_istft_matches_frame_by_frame_overlap_add(self, fb):
        spec = np.fft.rfft(named_stream(24, "istft").standard_normal((7, audio.FRAME_SAMPLES)), n=fb.n_fft)
        win, hop, width = audio._WIN_FULL, audio.HOP_SAMPLES, audio.FRAME_SAMPLES
        y = np.fft.irfft(spec, n=fb.n_fft, axis=1)[:, :width]
        out = np.zeros(6 * hop + width)
        wsum = np.zeros(6 * hop + width)
        for t in range(7):
            out[t * hop : t * hop + width] += y[t] * win
            wsum[t * hop : t * hop + width] += win * win
        assert inference._istft(spec, fb.n_fft).tobytes() == (out / np.maximum(wsum, 0.25)).tobytes()

    def test_invalid_iterations(self, fb):
        with pytest.raises(InvalidIterations):
            inference.griffin_lim(np.zeros((5, 80)), fb, iterations=0)

    def test_pinv_consistency(self, fb):
        pinv = np.linalg.pinv(fb.weights)
        err = np.max(np.abs(fb.weights @ pinv @ fb.weights - fb.weights))
        assert err <= 1e-6

    def test_output_peak_normalized(self, fb):
        buf = make_sine(300.0, seconds=0.3, amplitude=0.9)
        mel = audio.frame_matrix(buf, fb)[:, :80]
        out = inference.griffin_lim(mel, fb, iterations=10)
        assert np.max(np.abs(out.samples)) == pytest.approx(0.9, abs=1e-4)


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

    def test_empty_manifest(self, desk_params):
        with pytest.raises(ManifestEmpty):
            inference.evaluate(desk_params, corpus.Manifest((), 0), [5.0])


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = named_stream(23, "ff")
        track = inference.FeatureTrack(features=rng.standard_normal((40, 12)).astype(np.float32))
        p = tmp_path / "t.feat"
        inference.export_features(track, p)
        back = inference.import_features(p)
        assert np.array_equal(back.features, track.features)
        assert back.hop_ms == track.hop_ms

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
