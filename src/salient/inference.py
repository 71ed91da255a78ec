"""Full-utterance feature extraction, decoder-based mel reconstruction,
Griffin-Lim resynthesis, and the proxy evaluation metrics.

The exported feature track is the conditioning interface a neural vocoder
would consume; resynthesis here instead inverts the decoded 40 ms log-mel
block with a filterbank pseudo-inverse and iterative phase recovery, which
keeps the whole pipeline audible at desk scale.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import audio
from . import corpus as corpus_mod
from .audio import AudioBuffer, MelFilterbank
from .corpus import Manifest
from .errors import (
    BadMagic,
    ConfigMismatch,
    InvalidIterations,
    ManifestEmpty,
    ShapeMismatch,
    TruncatedFile,
    VersionMismatch,
)
from .model import ModelParams, decode_sequence, denormalize, encode_sequence, normalize, params_digest
from .seeding import named_stream

FEATURE_MAGIC = b"SFEA"
FEATURE_VERSION = 1
DEFAULT_GL_ITERS = 60


@dataclass(frozen=True)
class FeatureTrack:
    features: np.ndarray  # (T, L) float32
    hop_ms: int = 20
    source_id: str = ""
    checkpoint_id: str = ""


@dataclass
class EvalReport:
    per_utterance: list          # dicts: id, snr_db, cross_clone_rmse, mel_recon_mse
    mean_cross_clone_rmse_by_snr: dict
    mean_mel_recon_mse_by_snr: dict
    feature_variance: list       # per feature dimension, clean inputs
    feature_excess_kurtosis: list
    snr_list: list
    checkpoint_id: str


# ---------------------------------------------------------------------------
# extraction / reconstruction
# ---------------------------------------------------------------------------

def extract_features(params: ModelParams, buf: AudioBuffer) -> FeatureTrack:
    """Frame the utterance, normalize, and encode the whole track in one
    causal pass from a zero initial state."""
    frames = normalize(params, audio.frame_matrix(buf))
    feats = encode_sequence(params, frames)
    return FeatureTrack(features=feats, checkpoint_id=params_digest(params))


def reconstruct_mel(params: ModelParams, track: FeatureTrack) -> np.ndarray:
    """Decode a feature track to denormalized log-mel frames (T, 240)."""
    if track.features.ndim != 2 or track.features.shape[1] != params.config.feature_dim:
        raise ConfigMismatch(
            f"track has {track.features.shape[-1]} feature dims, "
            f"checkpoint expects {params.config.feature_dim}"
        )
    return denormalize(params, decode_sequence(params, track.features))


# ---------------------------------------------------------------------------
# Griffin-Lim resynthesis from the 40 ms log-mel block
# ---------------------------------------------------------------------------

def _stft_mag_phase(x: np.ndarray, n_frames: int, n_fft: int):
    return np.fft.rfft(x[audio._frame_grid(n_frames)] * audio._WIN_FULL, n=n_fft, axis=1)


def _overlap_add(frames: np.ndarray) -> np.ndarray:
    """Sum (T, 640) frames at hop 320: output block t (320 samples) gets
    the second half of frame t-1 and the first half of frame t."""
    halves = frames.reshape(frames.shape[:-1] + (2, audio.HOP_SAMPLES))
    out = np.zeros((halves.shape[0] + 1, audio.HOP_SAMPLES), dtype=np.float64)
    out[1:] += halves[:, 1]
    out[:-1] += halves[:, 0]
    return out.reshape(-1)


def _istft(spec: np.ndarray, n_fft: int) -> np.ndarray:
    # least-squares overlap-add: sum(w * y_t) / sum(w^2). The divisor is
    # clamped well away from zero: in the first/last half window the window
    # support vanishes, and dividing unconstrained inverse-FFT content there
    # by ~0 would blast a spike into the signal edge.
    win = audio._WIN_FULL
    y = np.fft.irfft(spec, n=n_fft, axis=1)[:, : audio.FRAME_SAMPLES]
    wsum = _overlap_add(np.broadcast_to(win * win, y.shape))
    return _overlap_add(y * win) / np.maximum(wsum, 0.25)


def spectral_residual(x: np.ndarray, target_mag: np.ndarray, n_fft: int = audio.N_FFT) -> float:
    """Relative distance between |STFT(x)| and a target magnitude; the
    phase-recovery iteration drives this down."""
    spec = _stft_mag_phase(x, target_mag.shape[0], n_fft)
    num = float(np.linalg.norm(np.abs(spec) - target_mag))
    return num / max(float(np.linalg.norm(target_mag)), 1e-12)


def mel_to_linear_power(mel_track: np.ndarray, fb: MelFilterbank, floor: float = audio.LOG_FLOOR) -> np.ndarray:
    """Least-squares linear power spectrum (T, n_fft//2+1) from log-mel rows,
    via the filterbank pseudo-inverse with a non-negativity clamp."""
    mel_track = np.asarray(mel_track, dtype=np.float64)
    if mel_track.ndim != 2 or mel_track.shape[1] != fb.n_mels:
        raise ShapeMismatch(f"expected (T, {fb.n_mels}) log-mel, got {mel_track.shape}")
    energy = np.maximum(np.exp(mel_track) - floor, 0.0)
    pinv = np.linalg.pinv(fb.weights)
    return np.maximum(energy @ pinv.T, 0.0)


def griffin_lim(
    mel_track: np.ndarray,
    fb: MelFilterbank = None,
    iterations: int = DEFAULT_GL_ITERS,
    floor: float = audio.LOG_FLOOR,
) -> AudioBuffer:
    """Resynthesize audio from a (T, 80) log-mel track of 40 ms blocks.

    Iterative phase recovery with 640-sample Hann analysis, 320 hop and a
    1024-point FFT, starting from a fixed-seed random phase draw (so the
    output stays deterministic). Peak-normalized to 0.9 unless essentially
    silent.
    """
    if iterations < 1:
        raise InvalidIterations(f"iterations must be >= 1, got {iterations}")
    fb = fb or audio.default_filterbank()
    mag = np.sqrt(mel_to_linear_power(mel_track, fb, floor))
    rng = np.random.default_rng(0)
    x = _istft(mag * np.exp(2j * np.pi * rng.random(mag.shape)), fb.n_fft)
    for _ in range(iterations - 1):
        spec = _stft_mag_phase(x, mag.shape[0], fb.n_fft)
        denom = np.maximum(np.abs(spec), 1e-12)
        x = _istft(mag * (spec / denom), fb.n_fft)
    peak = float(np.max(np.abs(x))) if x.size else 0.0
    if peak > 1e-6:
        x = 0.9 * x / peak
    return AudioBuffer(x.astype(np.float32))


# ---------------------------------------------------------------------------
# evaluation (proxy metrics)
# ---------------------------------------------------------------------------

def track_rmse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"tracks differ: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _eval_one(params, entry, snr_list, seed, fb):
    clean = audio.load_wav(entry.clean_path)
    clean_frames = audio.frame_matrix(clean, fb)
    clean_track = extract_features(params, clean)
    rows = []
    for snr_db in snr_list:
        rng = named_stream(seed, f"eval/{entry.utterance_id}/{snr_db}")
        noisy = corpus_mod._mix_entry_segment(
            clean.samples.astype(np.float64), entry, rng, snr_db=snr_db
        )
        noisy_track = extract_features(params, noisy)
        recon = reconstruct_mel(params, noisy_track)
        rows.append(
            {
                "id": entry.utterance_id,
                "snr_db": float(snr_db),
                "cross_clone_rmse": track_rmse(noisy_track.features, clean_track.features),
                "mel_recon_mse": float(np.mean((recon - clean_frames) ** 2)),
            }
        )
    return rows, clean_track.features


def evaluate(params: ModelParams, manifest: Manifest, snr_list) -> EvalReport:
    """Per utterance and SNR: build one noisy version, compare noisy-input
    features against clean-input features (cross-clone RMSE), and compare the
    decoded mel of the noisy input against the clean frames. Clean-input
    features are pooled for the prior-shape statistics. Deterministic given
    the manifest seed; utterances are processed in id order."""
    if not manifest.entries:
        raise ManifestEmpty("cannot evaluate an empty manifest")
    fb = audio.default_filterbank()
    entries = sorted(manifest.entries, key=lambda e: e.utterance_id)
    snr_list = [float(s) for s in snr_list]

    results = [_eval_one(params, e, snr_list, manifest.seed, fb) for e in entries]

    per_utterance = [row for rows, _ in results for row in rows]
    pooled = np.concatenate([feats for _, feats in results], axis=0).astype(np.float64)
    mu = pooled.mean(axis=0)
    var = pooled.var(axis=0)
    kurt = np.mean((pooled - mu) ** 4, axis=0) / np.maximum(var * var, 1e-24) - 3.0

    by_snr_rmse = {}
    by_snr_mse = {}
    for snr_db in snr_list:
        rows = [r for r in per_utterance if r["snr_db"] == snr_db]
        by_snr_rmse[f"{snr_db:g}"] = float(np.mean([r["cross_clone_rmse"] for r in rows]))
        by_snr_mse[f"{snr_db:g}"] = float(np.mean([r["mel_recon_mse"] for r in rows]))

    return EvalReport(
        per_utterance=per_utterance,
        mean_cross_clone_rmse_by_snr=by_snr_rmse,
        mean_mel_recon_mse_by_snr=by_snr_mse,
        feature_variance=[float(v) for v in var],
        feature_excess_kurtosis=[float(k) for k in kurt],
        snr_list=snr_list,
        checkpoint_id=params_digest(params),
    )


def save_report(report: EvalReport, path) -> None:
    Path(path).write_text(json.dumps(asdict(report), indent=2, sort_keys=True) + "\n")


def load_report(path) -> EvalReport:
    return EvalReport(**json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# feature track files
# ---------------------------------------------------------------------------

def export_features(track: FeatureTrack, path) -> None:
    feats = np.ascontiguousarray(track.features, dtype="<f4")
    t, l = feats.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<IIII", FEATURE_VERSION, l, t, track.hop_ms))
        fh.write(feats.tobytes())


def import_features(path) -> FeatureTrack:
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FEATURE_MAGIC:
            raise BadMagic(f"{path}: not a feature file")
        head = fh.read(16)
        if len(head) != 16:
            raise TruncatedFile(f"{path}: truncated header")
        version, l, t, hop_ms = struct.unpack("<IIII", head)
        if version != FEATURE_VERSION:
            raise VersionMismatch(f"{path}: feature file version {version}")
        raw = fh.read(4 * t * l)
        if len(raw) != 4 * t * l:
            raise TruncatedFile(f"{path}: expected {t}x{l} values")
    feats = np.frombuffer(raw, dtype="<f4").reshape(t, l).copy()
    return FeatureTrack(features=feats, hop_ms=hop_ms, source_id=path.stem)


def export_features_csv(track: FeatureTrack, path) -> None:
    t, l = track.features.shape
    lines = [f"# L={l},T={t},hop_ms={track.hop_ms}"]
    for row in track.features:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
