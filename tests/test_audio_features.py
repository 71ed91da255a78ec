"""WAV I/O and dual-window mel front end: quantization, filterbank shape,
framing counts, and the spectral sanity properties."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from salient import audio
from salient.errors import (
    InvalidRange,
    OutOfBounds,
    TooShort,
    UnsupportedFormat,
)

from conftest import make_sine


class TestWavIO:
    def test_pcm16_scaling(self, tmp_path):
        p = tmp_path / "pcm.wav"
        wavfile.write(p, 16000, np.array([0, 16384, -32768], dtype=np.int16))
        buf = audio.load_wav(p)
        assert np.array_equal(buf.samples, np.array([0.0, 0.5, -1.0], dtype=np.float32))

    def test_wrong_rate_rejected(self, tmp_path):
        p = tmp_path / "8k.wav"
        wavfile.write(p, 8000, np.zeros(100, dtype=np.int16))
        with pytest.raises(UnsupportedFormat, match="8000"):
            audio.load_wav(p)

    def test_stereo_rejected(self, tmp_path):
        p = tmp_path / "st.wav"
        wavfile.write(p, 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(UnsupportedFormat):
            audio.load_wav(p)

    def test_float64_encoding_rejected(self, tmp_path):
        p = tmp_path / "f64.wav"
        wavfile.write(p, 16000, np.zeros(100, dtype=np.float64))
        with pytest.raises(UnsupportedFormat):
            audio.load_wav(p)

    def test_float32_accepted(self, tmp_path):
        p = tmp_path / "f32.wav"
        wavfile.write(p, 16000, np.linspace(-1, 1, 64, dtype=np.float32))
        buf = audio.load_wav(p)
        assert len(buf) == 64

    def test_clamp_on_save(self, tmp_path):
        p = tmp_path / "clip.wav"
        audio.save_wav(audio.AudioBuffer(np.array([1.5, -1.5], dtype=np.float32)), p)
        _, data = wavfile.read(p)
        assert data[0] == 32767 and data[1] == -32768

    def test_empty_roundtrip(self, tmp_path):
        p = tmp_path / "empty.wav"
        audio.save_wav(audio.AudioBuffer(np.zeros(0, dtype=np.float32)), p)
        assert len(audio.load_wav(p)) == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_roundtrip_within_quantization_bound(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, size=257).astype(np.float32)
        p = Path(tempfile.gettempdir()) / f"salient_rt_{seed}.wav"
        try:
            audio.save_wav(audio.AudioBuffer(x), p)
            back = audio.load_wav(p)
        finally:
            p.unlink(missing_ok=True)
        assert np.max(np.abs(back.samples.astype(np.float64) - x)) <= 1.0 / 32768.0


class TestMelFilterbank:
    def test_mel_of_700_hz(self):
        assert audio.hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0), abs=1e-9)
        assert float(audio.hz_to_mel(700.0)) == pytest.approx(781.17, abs=0.01)

    def test_single_filter_spans_range(self):
        fb = audio.build_mel_filterbank(n_fft=1024, n_mels=1, fmin_hz=100.0, fmax_hz=4000.0)
        mid_mel = (audio.hz_to_mel(100.0) + audio.hz_to_mel(4000.0)) / 2.0
        assert fb.center_hz[0] == pytest.approx(float(audio.mel_to_hz(mid_mel)))
        freqs = np.arange(513) * (16000 / 1024)
        support = freqs[fb.weights[0] > 0]
        assert support.min() > 100.0 and support.max() < 4000.0

    def test_full_coverage_between_centers(self, fb):
        # every FFT bin between the first and last center has positive weight
        freqs = np.arange(fb.weights.shape[1]) * (fb.sample_rate_hz / fb.n_fft)
        inside = (freqs >= fb.center_hz[0]) & (freqs <= fb.center_hz[-1])
        column_sums = fb.weights.sum(axis=0)
        assert np.all(column_sums[inside] > 0.0)

    def test_rows_nonneg_single_peak(self, fb):
        assert np.all(fb.weights >= 0.0)
        for row in fb.weights:
            support = np.flatnonzero(row > 0)
            assert support.size >= 1
            # single local maximum: rises then falls
            d = np.diff(row[support[0] : support[-1] + 1])
            sign_changes = np.sum(np.diff(np.sign(d[d != 0])) != 0)
            assert sign_changes <= 1

    def test_invalid_ranges(self):
        with pytest.raises(InvalidRange):
            audio.build_mel_filterbank(fmin_hz=5000.0, fmax_hz=1000.0)
        with pytest.raises(InvalidRange):
            audio.build_mel_filterbank(fmax_hz=9000.0)
        with pytest.raises(InvalidRange):
            audio.build_mel_filterbank(n_fft=1000)
        with pytest.raises(InvalidRange):
            audio.build_mel_filterbank(n_mels=0)
        with pytest.raises(InvalidRange):
            # too many filters for the FFT resolution: empty rows
            audio.build_mel_filterbank(n_fft=256, n_mels=200)


class TestDualWindowFrame:
    def test_all_zero_audio_hits_floor(self, fb):
        buf = audio.AudioBuffer(np.zeros(640, dtype=np.float32))
        frame = audio.dual_window_frame(buf, 0, fb, floor=1e-5)
        assert frame.shape == (240,)
        assert np.allclose(frame, np.log(1e-5))

    def test_floor_is_lower_bound(self, fb):
        buf = make_sine(440.0, seconds=0.2)
        mat = audio.frame_matrix(buf, fb)
        assert np.all(mat >= np.log(audio.LOG_FLOOR) - 1e-12)

    def test_sine_argmax_at_nearest_center(self, fb):
        buf = make_sine(1000.0)
        frame = audio.dual_window_frame(buf, 0, fb)
        nearest = int(np.argmin(np.abs(fb.center_hz - 1000.0)))
        for block in range(3):
            bins = frame[80 * block : 80 * (block + 1)]
            assert int(np.argmax(bins)) == nearest

    def test_doubling_amplitude_adds_log4(self, fb):
        quiet = make_sine(1000.0, amplitude=0.25)
        loud = audio.AudioBuffer(2.0 * quiet.samples)
        f_quiet = audio.dual_window_frame(quiet, 0, fb)
        f_loud = audio.dual_window_frame(loud, 0, fb)
        strong = f_quiet > np.log(audio.LOG_FLOOR) + 8.0  # energy >> floor
        assert strong.any()
        diff = f_loud[strong] - f_quiet[strong]
        assert np.allclose(diff, np.log(4.0), atol=1e-3)

    def test_out_of_bounds(self, fb):
        buf = audio.AudioBuffer(np.zeros(640, dtype=np.float32))
        with pytest.raises(OutOfBounds):
            audio.dual_window_frame(buf, 1, fb)
        with pytest.raises(OutOfBounds):
            audio.dual_window_frame(buf, -1, fb)


class TestFraming:
    @pytest.mark.parametrize("n,expected", [(640, 1), (960, 2), (16000, 49)])
    def test_frame_counts(self, n, expected, fb):
        buf = audio.AudioBuffer(np.zeros(n, dtype=np.float32))
        assert audio.frame_matrix(buf, fb).shape[0] == expected

    def test_too_short(self, fb):
        with pytest.raises(TooShort):
            audio.frame_matrix(audio.AudioBuffer(np.zeros(639, dtype=np.float32)), fb)

    def test_matches_single_frame_op_bitwise(self, fb):
        rng = np.random.default_rng(7)
        buf = audio.AudioBuffer(rng.uniform(-0.9, 0.9, 2240).astype(np.float32))
        mat = audio.frame_matrix(buf, fb)
        for i in range(mat.shape[0]):
            single = audio.dual_window_frame(buf, i * audio.HOP_SAMPLES, fb)
            assert np.array_equal(mat[i], single)

    @pytest.mark.parametrize("k,n", [(1, 2240), (3, 2240), (9, 2240), (4, 640)])
    def test_stacked_rows_match_framing_alone_bitwise(self, fb, k, n):
        rng = np.random.default_rng(10)
        signals = rng.uniform(-0.9, 0.9, (k, n)).astype(np.float32)
        stacked = audio.frame_matrix(signals, fb)
        assert stacked.shape == (k, audio.frame_count(n), audio.FRAME_BINS)
        for row, x in zip(stacked, signals):
            assert np.array_equal(row, audio.frame_matrix(audio.AudioBuffer(x), fb))
            if n == audio.FRAME_SAMPLES:
                assert np.array_equal(row[0], audio.dual_window_frame(audio.AudioBuffer(x), 0, fb))

    def test_shift_covariance_bitwise(self, fb):
        rng = np.random.default_rng(8)
        buf = audio.AudioBuffer(rng.uniform(-0.9, 0.9, 4800).astype(np.float32))
        shifted = audio.AudioBuffer(buf.samples[audio.HOP_SAMPLES :])
        assert np.array_equal(audio.frame_matrix(shifted, fb), audio.frame_matrix(buf, fb)[1:])

    def test_determinism_bitwise(self, fb):
        buf = make_sine(523.0, seconds=0.3)
        assert np.array_equal(audio.frame_matrix(buf, fb), audio.frame_matrix(buf, fb))


class TestParseval:
    def test_windowed_power_matches_spectrum(self):
        # padded rfft: sum of |X_k|^2 over the full FFT equals n_fft * sum(x^2)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(640) * audio._WIN_FULL
        spec = np.fft.rfft(x, n=audio.N_FFT)
        power = np.abs(spec) ** 2
        full_sum = power[0] + power[-1] + 2.0 * power[1:-1].sum()
        time_power = audio.N_FFT * np.sum(x * x)
        assert abs(full_sum - time_power) / time_power <= 1e-6
