"""Audio I/O and the dual-window log-mel front end.

Every 40 ms analysis frame (640 samples at 16 kHz, 20 ms hop) yields 240
log-mel bins: 80 from the full 40 ms window plus 80 from each of two 20 ms
sub-windows placed at 5-25 ms and 15-35 ms inside the frame. All three
windows are Hann-weighted, zero-padded to a single 1024-point FFT so one
80-band filterbank serves them all; framing runs in float32. The front end
is fixed: its constants below are what every checkpoint's normalization
statistics were taken with.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse
from scipy.io import wavfile

from .errors import CorruptFile, OutOfBounds, TooShort, UnsupportedFormat

SAMPLE_RATE = 16000
FRAME_SAMPLES = 640  # 40 ms
HOP_SAMPLES = 320    # 20 ms, 50% overlap
SUB_SAMPLES = 320    # 20 ms sub-windows
SUB_OFFSETS = (80, 240)  # sample offsets of the 5 ms and 15 ms sub-windows

N_FFT = 1024
N_MELS = 80
FMIN_HZ = 125.0
FMAX_HZ = 7600.0
LOG_FLOOR = 1e-5

FRAME_BINS = 240


def _hann(n: int) -> np.ndarray:
    # periodic form: 50% overlap-adds to a constant, which Griffin-Lim relies on
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


_WIN_FULL = _hann(FRAME_SAMPLES)
_WIN_FULL32 = _WIN_FULL.astype(np.float32)
_WIN_SUB32 = _hann(SUB_SAMPLES).astype(np.float32)


@dataclass(frozen=True)
class AudioBuffer:
    """Mono 16 kHz waveform; amplitudes nominally in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float32))
        if self.samples.ndim != 1:
            raise UnsupportedFormat(f"expected mono audio, got shape {self.samples.shape}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise CorruptFile("non-finite sample values")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filters with centers equally spaced on the mel scale."""

    weights: np.ndarray          # (n_mels, n_fft//2 + 1), non-negative
    center_hz: np.ndarray        # (n_mels,) peak frequency of each filter


# ---------------------------------------------------------------------------
# WAV I/O (RIFF/WAVE, mono, 16 kHz; PCM16 or float32 in, PCM16 out)
# ---------------------------------------------------------------------------

def load_wav(path) -> AudioBuffer:
    """Load a mono 16 kHz WAV as float samples in [-1, 1]."""
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except (ValueError, EOFError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    if rate != SAMPLE_RATE:
        raise UnsupportedFormat(f"{path}: sample rate is {rate} Hz, need {SAMPLE_RATE} Hz")
    if data.ndim != 1:
        raise UnsupportedFormat(f"{path}: {data.shape[1]} channels, need mono")
    if data.dtype == np.int16:
        samples = data.astype(np.float32) / 32768.0
    elif data.dtype == np.float32:
        samples = np.clip(data, -1.0, 1.0)
    else:
        raise UnsupportedFormat(f"{path}: unsupported sample encoding {data.dtype}")
    return AudioBuffer(samples)


def save_wav(buffer: AudioBuffer, path) -> None:
    """Write 16-bit PCM, clamping to [-1, 1] before quantization."""
    x = np.clip(buffer.samples.astype(np.float64), -1.0, 1.0)
    q = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
    wavfile.write(path, SAMPLE_RATE, q)


# ---------------------------------------------------------------------------
# mel filterbank
# ---------------------------------------------------------------------------

def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def build_mel_filterbank() -> MelFilterbank:
    """Triangular mel filterbank over the rfft bins of the N_FFT transform.

    Filter i peaks at mel center i+1 of N_MELS+2 equally spaced mel points
    between FMIN_HZ and FMAX_HZ, and falls to zero at its two neighboring
    centers.
    """
    mel_pts = np.linspace(hz_to_mel(FMIN_HZ), hz_to_mel(FMAX_HZ), N_MELS + 2)
    left, center, right = (mel_pts[k : k + N_MELS, None] for k in range(3))
    bin_mel = hz_to_mel(np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT))
    rising = (bin_mel - left) / (center - left)
    falling = (right - bin_mel) / (right - center)
    return MelFilterbank(
        weights=np.maximum(0.0, np.minimum(rising, falling)),
        center_hz=mel_to_hz(mel_pts[1:-1]),
    )


@functools.cache
def default_filterbank() -> MelFilterbank:
    return build_mel_filterbank()


@functools.cache
def mel_pinv() -> np.ndarray:
    """(513, 80) pseudo-inverse of the default filterbank weights, computed
    on first use: only Griffin-Lim needs it."""
    return np.linalg.pinv(default_filterbank().weights)


@functools.cache
def _mel_csr() -> scipy.sparse.csr_array:
    """The default weights as a float32 CSR matrix, built on first use: only
    framing needs it."""
    return scipy.sparse.csr_array(default_filterbank().weights.astype(np.float32))


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def _log_mel(spectrum: np.ndarray) -> np.ndarray:
    """(..., 80) float32 log-mel rows for (..., 513) complex64 spectra.

    The sparse projection runs once for all rows and is bit-identical to
    one call per row: the CSR kernel sums each band's nonzeros in one fixed
    order for every row. So a row's bits do not depend on how many rows are
    framed together (a dense GEMM would block the rows and break that).
    """
    power = spectrum.real**2 + spectrum.imag**2
    mel = (_mel_csr() @ power.reshape(-1, power.shape[-1]).T).T
    return np.log(mel.reshape(power.shape[:-1] + (N_MELS,)) + np.float32(LOG_FLOOR))


def frame_count(n_samples: int) -> int:
    return (n_samples - FRAME_SAMPLES) // HOP_SAMPLES + 1


def frame_matrix(signal) -> np.ndarray:
    """All 50%-overlapped dual-window frames (start samples 0, 320, ...):
    the 40 ms window, then its two 20 ms sub-windows.

    `signal` is an AudioBuffer or a float array whose last axis is samples;
    the result is (..., T, 240), and each signal's rows are bitwise the ones
    it gets when framed alone: the FFTs transform each row alone, and so
    does `_log_mel`'s projection.
    """
    x = signal.samples if isinstance(signal, AudioBuffer) else np.asarray(signal)
    if x.shape[-1] < FRAME_SAMPLES:
        raise TooShort(f"need at least {FRAME_SAMPLES} samples, got {x.shape[-1]}")
    x = x.astype(np.float32, copy=False)
    lead, n = x.shape[:-1], frame_count(x.shape[-1])
    mels = [_log_mel(stft(x))]
    for k in SUB_OFFSETS:
        # frame t's sub-window is the 320-sample block starting at k + 320t,
        # so the sub-windows of all frames tile x[k : k + 320n]
        sub = x[..., k : k + n * SUB_SAMPLES].reshape(lead + (n, SUB_SAMPLES))
        mels.append(_log_mel(scipy.fft.rfft(sub * _WIN_SUB32, n=N_FFT, axis=-1)))
    return np.concatenate(mels, axis=-1)


def dual_window_frame(audio: AudioBuffer, frame_start_sample: int) -> np.ndarray:
    """(240,) log-mel frame for the 40 ms window starting at the given sample."""
    t = int(frame_start_sample)
    if t < 0 or t + FRAME_SAMPLES > len(audio):
        raise OutOfBounds(f"frame [{t}, {t + FRAME_SAMPLES}) outside audio of length {len(audio)}")
    return frame_matrix(audio.samples[t : t + FRAME_SAMPLES])[0]


# ---------------------------------------------------------------------------
# the 40 ms STFT pair Griffin-Lim iterates
# ---------------------------------------------------------------------------

def stft(x: np.ndarray) -> np.ndarray:
    """(..., T, 513) spectra, in `x`'s precision, of the 40 ms Hann frames at
    hop 320 along `x`'s last axis: the transform `frame_matrix`'s full
    window takes its power from."""
    win = _WIN_FULL32 if x.dtype == np.float32 else _WIN_FULL
    lead, n = x.shape[:-1], frame_count(x.shape[-1])
    # frame t is half-hop blocks t and t+1, padded here, not by rfft(n=N_FFT)
    halves = x[..., : (n + 1) * HOP_SAMPLES].reshape(lead + (n + 1, HOP_SAMPLES))
    frames = np.zeros(lead + (n, N_FFT), dtype=win.dtype)
    np.multiply(halves[..., :-1, :], win[:HOP_SAMPLES], out=frames[..., :HOP_SAMPLES])
    np.multiply(halves[..., 1:, :], win[HOP_SAMPLES:], out=frames[..., HOP_SAMPLES:FRAME_SAMPLES])
    return scipy.fft.rfft(frames, axis=-1)


def istft(spec: np.ndarray) -> np.ndarray:
    """(T+1)*320 samples, in `spec`'s precision, from (T, 513) spectra, so
    `stft` of the result has T frames again."""
    # least-squares overlap-add, sum(w * y_t) / sum(w^2), block t summing
    # zero, frame t-1's second half and frame t's first in that order. The
    # divisor is clamped away from zero: where the edge half windows vanish,
    # dividing inverse-FFT content by ~0 would spike the signal edge.
    y = scipy.fft.irfft(spec, n=N_FFT, axis=-1)[:, :FRAME_SAMPLES]
    win = _WIN_FULL32 if y.dtype == np.float32 else _WIN_FULL
    y *= win
    out = np.zeros((len(y) + 1, HOP_SAMPLES), dtype=y.dtype)
    out[1:] += y[:, HOP_SAMPLES:]
    out[:-1] += y[:, :HOP_SAMPLES]
    wsum = np.tile(win[HOP_SAMPLES:] ** 2 + win[:HOP_SAMPLES] ** 2, (len(out), 1))
    wsum[0], wsum[-1] = win[:HOP_SAMPLES] ** 2, win[HOP_SAMPLES:] ** 2
    return np.divide(out, np.maximum(wsum, 0.25), out=out).reshape(-1)
