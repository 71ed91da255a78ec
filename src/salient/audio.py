"""Audio I/O and the dual-window log-mel front end.

Every 40 ms analysis frame (640 samples at 16 kHz, 20 ms hop) yields 240
log-mel bins: 80 from the full 40 ms window plus 80 from each of two 20 ms
sub-windows placed at 5-25 ms and 15-35 ms inside the frame. All three
windows are Hann-weighted, zero-padded to a single 1024-point FFT so one
80-band filterbank serves them all.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import (
    CorruptFile,
    InvalidRange,
    OutOfBounds,
    TooShort,
    UnsupportedFormat,
)

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
_WIN_SUB = _hann(SUB_SAMPLES)


@dataclass(frozen=True)
class AudioBuffer:
    """Mono 16 kHz waveform; amplitudes nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate_hz: int = SAMPLE_RATE

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float32))
        if self.samples.ndim != 1:
            raise UnsupportedFormat(f"expected mono audio, got shape {self.samples.shape}")
        if self.sample_rate_hz != SAMPLE_RATE:
            raise UnsupportedFormat(
                f"sample rate must be {SAMPLE_RATE} Hz, got {self.sample_rate_hz} Hz"
            )
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise CorruptFile("non-finite sample values")

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filters with centers equally spaced on the mel scale."""

    weights: np.ndarray          # (n_mels, n_fft//2 + 1), non-negative
    fmin_hz: float
    fmax_hz: float
    n_fft: int
    sample_rate_hz: int
    center_hz: np.ndarray        # (n_mels,) peak frequency of each filter

    @property
    def n_mels(self) -> int:
        return self.weights.shape[0]


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


def build_mel_filterbank(
    n_fft: int = N_FFT,
    n_mels: int = N_MELS,
    fmin_hz: float = FMIN_HZ,
    fmax_hz: float = FMAX_HZ,
    sample_rate_hz: int = SAMPLE_RATE,
) -> MelFilterbank:
    """Triangular mel filterbank over the rfft bins of an n_fft transform.

    Filter i peaks at mel center i+1 of n_mels+2 equally spaced mel points
    between fmin and fmax, and falls to zero at its two neighboring centers.
    """
    if not (0 <= fmin_hz < fmax_hz <= sample_rate_hz / 2):
        raise InvalidRange(f"need 0 <= fmin < fmax <= {sample_rate_hz / 2}, got ({fmin_hz}, {fmax_hz})")
    if n_mels < 1:
        raise InvalidRange(f"n_mels must be >= 1, got {n_mels}")
    if n_fft < 2 or (n_fft & (n_fft - 1)) != 0:
        raise InvalidRange(f"n_fft must be a power of two, got {n_fft}")

    mel_pts = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
    bin_mel = hz_to_mel(np.arange(n_fft // 2 + 1) * (sample_rate_hz / n_fft))

    weights = np.zeros((n_mels, n_fft // 2 + 1), dtype=np.float64)
    for i in range(n_mels):
        left, center, right = mel_pts[i], mel_pts[i + 1], mel_pts[i + 2]
        rising = (bin_mel - left) / (center - left)
        falling = (right - bin_mel) / (right - center)
        weights[i] = np.maximum(0.0, np.minimum(rising, falling))
        if not np.any(weights[i] > 0.0):
            raise InvalidRange(
                f"mel filter {i} has no FFT-bin support; lower n_mels or raise n_fft"
            )
    return MelFilterbank(
        weights=weights,
        fmin_hz=float(fmin_hz),
        fmax_hz=float(fmax_hz),
        n_fft=int(n_fft),
        sample_rate_hz=int(sample_rate_hz),
        center_hz=mel_to_hz(mel_pts[1:-1]),
    )


@functools.lru_cache(maxsize=4)
def default_filterbank() -> MelFilterbank:
    return build_mel_filterbank()


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def _logmel_rows(segments: np.ndarray, window: np.ndarray, fb: MelFilterbank, floor: float) -> np.ndarray:
    """(..., 80) log-mel rows for (..., win) signal segments.

    The FFT runs batched (bit-identical to one call per row); the mel
    projection stays per-row so that a row's bits do not depend on how many
    rows are framed together.
    """
    spectrum = np.fft.rfft(segments * window, n=fb.n_fft, axis=-1)
    power = spectrum.real**2 + spectrum.imag**2
    mel = np.stack([fb.weights @ p for p in power.reshape(-1, power.shape[-1])])
    return np.log(mel.reshape(power.shape[:-1] + (fb.n_mels,)) + floor)


def _frame_grid(n_frames: int) -> np.ndarray:
    """(n_frames, 640) sample indices of the 40 ms frames at starts 0, 320, ..."""
    return np.arange(n_frames)[:, None] * HOP_SAMPLES + np.arange(FRAME_SAMPLES)


def frame_count(n_samples: int) -> int:
    return (n_samples - FRAME_SAMPLES) // HOP_SAMPLES + 1


def frame_matrix(signal, fb: MelFilterbank = None, floor: float = LOG_FLOOR) -> np.ndarray:
    """All 50%-overlapped dual-window frames (start samples 0, 320, ...):
    the 40 ms window, then its two 20 ms sub-windows.

    `signal` is an AudioBuffer or a float array whose last axis is samples;
    the result is (..., T, 240), and each signal's rows are bitwise the ones
    it gets when framed alone.
    """
    fb = fb or default_filterbank()
    x = signal.samples if isinstance(signal, AudioBuffer) else np.asarray(signal)
    if x.shape[-1] < FRAME_SAMPLES:
        raise TooShort(f"need at least {FRAME_SAMPLES} samples, got {x.shape[-1]}")
    full = x.astype(np.float64)[..., _frame_grid(frame_count(x.shape[-1]))]
    sub1, sub2 = (full[..., k : k + SUB_SAMPLES] for k in SUB_OFFSETS)
    return np.concatenate(
        [
            _logmel_rows(full, _WIN_FULL, fb, floor),
            _logmel_rows(sub1, _WIN_SUB, fb, floor),
            _logmel_rows(sub2, _WIN_SUB, fb, floor),
        ],
        axis=-1,
    )


def dual_window_frame(
    audio: AudioBuffer,
    frame_start_sample: int,
    fb: MelFilterbank = None,
    floor: float = LOG_FLOOR,
) -> np.ndarray:
    """(240,) log-mel frame for the 40 ms window starting at the given sample."""
    t = int(frame_start_sample)
    if t < 0 or t + FRAME_SAMPLES > len(audio):
        raise OutOfBounds(f"frame [{t}, {t + FRAME_SAMPLES}) outside audio of length {len(audio)}")
    return frame_matrix(audio.samples[t : t + FRAME_SAMPLES], fb, floor)[0]
