"""Full-utterance feature extraction, decoder-based mel reconstruction,
Griffin-Lim resynthesis, and the proxy evaluation metrics.

The exported feature track is the conditioning interface a neural vocoder
would consume; resynthesis here instead inverts the decoded 40 ms log-mel
block with a filterbank pseudo-inverse and iterative phase recovery, which
keeps the whole pipeline audible at desk scale.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import audio
from . import corpus as corpus_mod
from .audio import AudioBuffer
from .corpus import Manifest
from .errors import (
    BadMagic,
    ConfigMismatch,
    CorruptFile,
    InvalidIterations,
    InvalidRange,
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
HOP_MS = 1000 * audio.HOP_SAMPLES // audio.SAMPLE_RATE


@dataclass(frozen=True)
class FeatureTrack:
    features: np.ndarray  # (T, L) float32, one row per HOP_MS


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

def extract_features(params: ModelParams, buf: AudioBuffer | np.ndarray) -> FeatureTrack:
    """Frame the utterance, normalize, and encode the whole track in one
    causal pass from a zero initial state."""
    x = buf.samples if isinstance(buf, AudioBuffer) else np.asarray(buf)
    if x.ndim != 1:
        raise ShapeMismatch(f"expected one signal (a 1-D array), got shape {x.shape}")
    frames = normalize(params, audio.frame_matrix(x))
    return FeatureTrack(features=encode_sequence(params, frames))


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

def spectral_residual(x: np.ndarray, target_mag: np.ndarray) -> float:
    """Relative distance between |STFT(x)| and a target magnitude; the
    phase-recovery iteration drives this down."""
    num = float(np.linalg.norm(np.abs(audio.stft(x)) - target_mag))
    return num / max(float(np.linalg.norm(target_mag)), 1e-12)


def mel_to_linear_power(mel_track: np.ndarray) -> np.ndarray:
    """Least-squares linear power spectrum (T, 513) from log-mel rows, via
    the filterbank pseudo-inverse with a non-negativity clamp."""
    mel_track = np.asarray(mel_track, dtype=np.float64)
    if mel_track.ndim != 2 or mel_track.shape[1] != audio.N_MELS:
        raise ShapeMismatch(f"expected (T, {audio.N_MELS}) log-mel, got {mel_track.shape}")
    energy = np.maximum(np.exp(mel_track) - audio.LOG_FLOOR, 0.0)
    return np.maximum(energy @ audio.mel_pinv().T, 0.0)


def griffin_lim(mel_track: np.ndarray, iterations: int = DEFAULT_GL_ITERS) -> AudioBuffer:
    """Resynthesize audio from a (T, 80) log-mel track of 40 ms blocks.

    Iterative phase recovery with 640-sample Hann analysis, 320 hop and a
    1024-point FFT, starting from a fixed-seed random phase draw (so the
    output stays deterministic), iterated in float32. Peak-normalized to 0.9
    unless essentially silent.
    """
    if iterations < 1:
        raise InvalidIterations(f"iterations must be >= 1, got {iterations}")
    mag = np.sqrt(mel_to_linear_power(mel_track)).astype(np.float32)
    x = audio.istft(mag * np.exp(2j * np.pi * np.random.default_rng(0).random(mag.shape)).astype(np.complex64))
    for _ in range(iterations - 1):
        spec = audio.stft(x)
        x = audio.istft(spec * (1 / np.maximum(np.abs(spec), 1e-12)) * mag)
    peak = np.max(np.abs(x))
    return AudioBuffer(0.9 * x / peak if peak > 1e-6 else x)


# ---------------------------------------------------------------------------
# evaluation (proxy metrics)
# ---------------------------------------------------------------------------

def track_rmse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"tracks differ: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _eval_one(params, entry, snr_list, seed):
    clean = audio.load_wav(entry.clean_path)
    frames = [audio.frame_matrix(clean)]
    for snr_db in snr_list:
        rng = named_stream(seed, f"eval/{entry.utterance_id}/{snr_db}")
        frames.append(audio.frame_matrix(corpus_mod.mix_clones(clean.samples, entry, 1, rng, snr_db=snr_db)[0]))
    frames = np.stack(frames)
    features = encode_sequence(params, normalize(params, frames))
    recon = denormalize(params, decode_sequence(params, features[1:]))
    rows = [
        {"id": entry.utterance_id, "snr_db": float(snr_db), "cross_clone_rmse": track_rmse(features[k + 1], features[0]),
         "mel_recon_mse": float(np.mean(np.square(recon[k] - frames[0], dtype=np.float64)))}
        for k, snr_db in enumerate(snr_list)
    ]
    return rows, features[0]


def snr_keys(snrs: list) -> list:
    """Each float SNR's key in the report's per-SNR means, `f"{snr:g}"`. Raises
    InvalidRange if two SNRs share a key (5.0000001 and 5.0000002 both read
    "5") or a value (-0 and 0)."""
    keys = [f"{s:g}" for s in snrs]
    if len(set(keys)) < len(keys) or len(set(snrs)) < len(snrs):
        raise InvalidRange(f"each SNR may appear only once, to 6 significant digits: {', '.join(keys)}")
    return keys


def evaluate(params: ModelParams, manifest: Manifest, snr_list) -> EvalReport:
    """Per utterance, mix one noisy version per SNR, encode the clean and
    noisy tracks as one batch and decode the noisy features as another.
    Each noisy track's features are compared with the clean track's
    (cross-clone RMSE) and its decoded mel with the clean frames. Clean-input
    features are pooled for the prior-shape statistics. Deterministic given
    the manifest seed; utterances are processed in id order."""
    if not manifest.entries:
        raise ManifestEmpty("cannot evaluate an empty manifest")
    entries = sorted(manifest.entries, key=lambda e: e.utterance_id)
    snr_list = [float(s) for s in snr_list]
    keys = snr_keys(snr_list)

    results = [_eval_one(params, e, snr_list, manifest.seed) for e in entries]

    per_utterance = [row for rows, _ in results for row in rows]
    pooled = np.concatenate([feats for _, feats in results], axis=0).astype(np.float64)
    mu, var = pooled.mean(axis=0), pooled.var(axis=0)
    kurt = np.mean((pooled - mu) ** 4, axis=0) / np.maximum(var * var, 1e-24) - 3.0

    by_snr_rmse, by_snr_mse = {}, {}
    for snr_db, key in zip(snr_list, keys):
        rows = [r for r in per_utterance if r["snr_db"] == snr_db]
        by_snr_rmse[key] = float(np.mean([r["cross_clone_rmse"] for r in rows]))
        by_snr_mse[key] = float(np.mean([r["mel_recon_mse"] for r in rows]))

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
        fh.write(struct.pack("<IIII", FEATURE_VERSION, l, t, HOP_MS))
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
        if hop_ms != HOP_MS:
            raise ConfigMismatch(f"{path}: hop of {hop_ms} ms, the front end decodes {HOP_MS} ms hops")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if 4 * t * l > left:
            raise TruncatedFile(f"{path}: expected {t}x{l} values, {left} bytes left")
        if 4 * t * l < left:
            raise CorruptFile(f"{path}: trailing bytes after the {t}x{l} values")
        feats = np.frombuffer(fh.read(4 * t * l), dtype="<f4").reshape(t, l)
    if not np.isfinite(feats).all():
        raise CorruptFile(f"{path}: feature values include NaN or infinity")
    return FeatureTrack(features=feats.copy())


def export_features_csv(track: FeatureTrack, path) -> None:
    t, l = track.features.shape
    lines = [f"# L={l},T={t},hop_ms={HOP_MS}"]
    for row in track.features:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
