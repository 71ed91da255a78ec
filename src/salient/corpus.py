"""Clone training data: SNR-controlled noisy copies of clean utterances.

A manifest lists clean utterances with their candidate noise sources and a
per-utterance SNR. Batches pair each sampled clean segment with Q noisy
versions of itself (the "clones" input); the versions share the clean
segment exactly and differ only in the noise draw. A synthetic pseudo-speech
corpus generator stands in for a real dataset at desk scale; any external
16 kHz WAV corpus can be ingested through the same manifest format.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import audio
from .audio import AudioBuffer, MelFilterbank
from .errors import (
    ManifestEmpty,
    MissingFile,
    NoiseTooShort,
    ParseError,
    SilentSignal,
    UtteranceTooShort,
)
from .seeding import child_seeds, named_stream

CLONE_FRAMES = 6
SEGMENT_SAMPLES = (CLONE_FRAMES - 1) * audio.HOP_SAMPLES + audio.FRAME_SAMPLES  # 2240
MIN_NOISE_SAMPLES = 8000  # 0.5 s; shorter files are rejected, not wrapped

DEFAULT_SNR_CHOICES = (0.0, 5.0, 10.0, 15.0)


@dataclass(frozen=True)
class CloneSpec:
    utterance_id: str
    clean_path: Path
    noise_paths: tuple
    snr_db: float


@dataclass(frozen=True)
class Manifest:
    entries: tuple
    seed: int

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class CloneBatch:
    """m items x Q noisy versions of 6-frame segments, plus clean targets."""

    clone_inputs: np.ndarray   # (m, Q, 6, 240) log-mel
    clean_targets: np.ndarray  # (m, 6, 240) log-mel of the shared clean segment
    meta: tuple                # (utterance_id, segment_start_sample) per item


def rms(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    return math.sqrt(float(np.mean(x * x))) if x.size else 0.0


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def _noise_segment(noise: np.ndarray, length: int, rng: np.random.Generator) -> np.ndarray:
    """Random contiguous segment; wraps around for files shorter than `length`."""
    n = len(noise)
    if n < MIN_NOISE_SAMPLES and n < length:
        raise NoiseTooShort(f"noise has {n} samples, need at least {MIN_NOISE_SAMPLES}")
    if n >= length:
        off = int(rng.integers(0, n - length + 1))
        return noise[off : off + length]
    off = int(rng.integers(0, n))
    reps = int(np.ceil((off + length) / n))
    return np.tile(noise, reps)[off : off + length]


def mix_at_snr(
    clean: AudioBuffer,
    noise: AudioBuffer,
    snr_db: float,
    rng: np.random.Generator,
) -> AudioBuffer:
    """clean + alpha * noise_segment, with alpha set so the mixture hits snr_db.

    alpha = (RMS(clean) / RMS(segment)) * 10^(-snr_db / 20), which makes the
    measured 10*log10(sum(x^2) / sum((alpha*n)^2)) equal the request exactly
    up to float rounding.
    """
    x = clean.samples.astype(np.float64)
    seg = _noise_segment(noise.samples.astype(np.float64), len(x), rng)
    rx, rn = rms(x), rms(seg)
    if rx == 0.0:
        raise SilentSignal("clean signal has zero RMS")
    if rn == 0.0:
        raise SilentSignal("noise segment has zero RMS")
    alpha = (rx / rn) * 10.0 ** (-float(snr_db) / 20.0)
    return AudioBuffer((x + alpha * seg).astype(np.float32))


def measured_snr_db(mixture: AudioBuffer, clean: AudioBuffer) -> float:
    x = clean.samples.astype(np.float64)
    r = mixture.samples.astype(np.float64) - x
    return 10.0 * math.log10(float(np.sum(x * x)) / float(np.sum(r * r)))


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

_wav_cache: dict = {}


def _cached_wav(path: Path) -> np.ndarray:
    # corpus files are immutable for the lifetime of a run
    key = str(path)
    hit = _wav_cache.get(key)
    if hit is None:
        hit = audio.load_wav(path).samples
        if len(_wav_cache) > 4096:
            _wav_cache.clear()
        _wav_cache[key] = hit
    return hit


def _mix_entry_segment(
    seg: np.ndarray, entry: CloneSpec, rng: np.random.Generator, snr_db: float = None
) -> AudioBuffer:
    """One noisy version of a clean segment, drawing a fresh segment from each
    of the entry's noise sources; the summed noise is scaled to the target SNR."""
    total = np.zeros(len(seg), dtype=np.float64)
    for p in entry.noise_paths:
        total += _noise_segment(_cached_wav(p).astype(np.float64), len(seg), rng)
    return mix_at_snr(
        AudioBuffer(seg.astype(np.float32)),
        AudioBuffer(total.astype(np.float32)),
        entry.snr_db if snr_db is None else snr_db,
        rng,
    )


DEFAULT_SNR_JITTER_DB = 15.0


def build_clone_batch(
    manifest: Manifest,
    batch_size: int,
    clones: int,
    fb: MelFilterbank = None,
    rng: np.random.Generator = None,
    snr_jitter_db: float = DEFAULT_SNR_JITTER_DB,
) -> CloneBatch:
    """Sample a training batch: per item, one clean 6-frame segment and Q
    noisy versions of it. Each item runs on its own child stream, so serial
    and per-item-parallel assembly produce identical batches.

    Each clone's mixture SNR is drawn independently from
    [entry SNR, entry SNR + snr_jitter_db]: the entry SNR stays the noisiest
    (hardest) member, and the spread puts clones of one item at different
    noise levels so the equivalence term ties the SNR levels together rather
    than learning one code per level.

    The SNR is measured against the RMS of the 6-frame segment being mixed,
    not of its whole utterance; `inference.evaluate` and
    `training.compute_norm_stats` mix whole utterances, so a quiet segment
    there sits locally further below the noise than any training clone.
    """
    fb = fb or audio.default_filterbank()
    if rng is None:
        rng = named_stream(manifest.seed, "batch")
    if not manifest.entries:
        raise ManifestEmpty("manifest has no entries")

    seeds = child_seeds(rng, batch_size)
    inputs = np.empty((batch_size, clones, CLONE_FRAMES, audio.FRAME_BINS), dtype=np.float64)
    targets = np.empty((batch_size, CLONE_FRAMES, audio.FRAME_BINS), dtype=np.float64)
    meta = []
    for i in range(batch_size):
        item_rng = np.random.default_rng(int(seeds[i]))
        entry = manifest.entries[int(item_rng.integers(0, len(manifest.entries)))]
        clean = _cached_wav(entry.clean_path)
        if len(clean) < SEGMENT_SAMPLES:
            raise UtteranceTooShort(
                f"{entry.utterance_id}: {len(clean)} samples, need {SEGMENT_SAMPLES}"
            )
        n_starts = (len(clean) - SEGMENT_SAMPLES) // audio.HOP_SAMPLES + 1
        start = audio.HOP_SAMPLES * int(item_rng.integers(0, n_starts))
        seg = clean[start : start + SEGMENT_SAMPLES]

        # row 0 is the clean segment, rows 1..Q its mixtures: one framing call
        signals = np.empty((clones + 1, SEGMENT_SAMPLES), dtype=np.float32)
        signals[0] = seg
        for q in range(clones):
            snr_q = entry.snr_db + float(item_rng.uniform(0.0, snr_jitter_db))
            signals[q + 1] = _mix_entry_segment(seg, entry, item_rng, snr_db=snr_q).samples
        framed = audio.frame_matrix(signals, fb)
        targets[i] = framed[0]
        inputs[i] = framed[1:]
        meta.append((entry.utterance_id, start))
    return CloneBatch(clone_inputs=inputs, clean_targets=targets, meta=tuple(meta))


# ---------------------------------------------------------------------------
# synthetic desk-scale corpus
# ---------------------------------------------------------------------------

def _synth_utterance(rng: np.random.Generator) -> np.ndarray:
    """Pseudo-speech: a harmonic source with a few resonant peaks, pulsed by
    a syllable-rate envelope, over a low recording-noise floor (real "clean"
    recordings are never digitally silent; a floor keeps clean inputs inside
    the distribution the noisy training mixtures live in)."""
    sr = audio.SAMPLE_RATE
    dur = float(rng.uniform(1.0, 3.0))
    n = int(round(dur * sr))
    t = np.arange(n) / sr

    f0 = float(rng.uniform(90.0, 250.0))
    n_peaks = int(rng.integers(2, 5))
    peak_hz = rng.uniform(300.0, 3500.0, size=n_peaks)
    peak_bw = rng.uniform(80.0, 300.0, size=n_peaks)
    peak_gain = rng.uniform(0.5, 1.0, size=n_peaks)

    x = np.zeros(n, dtype=np.float64)
    k_max = int(7600.0 // f0)
    for k in range(1, k_max + 1):
        fk = k * f0
        amp = 0.02 / k + float(
            np.sum(peak_gain * np.exp(-0.5 * ((fk - peak_hz) / peak_bw) ** 2))
        )
        x += amp * np.sin(2.0 * np.pi * fk * t + float(rng.uniform(0.0, 2.0 * np.pi)))

    syl_hz = float(rng.uniform(2.0, 6.0))
    phase = float(rng.uniform(0.0, 2.0 * np.pi))
    env = 0.08 + 0.92 * (0.5 * (1.0 - np.cos(2.0 * np.pi * syl_hz * t + phase))) ** 1.5
    x *= env

    floor_db = float(rng.uniform(35.0, 45.0))  # recording-noise floor below speech RMS
    floor = _synth_pink(rng, n)
    x += floor * (rms(x) / rms(floor)) * 10.0 ** (-floor_db / 20.0)

    fade = int(0.010 * sr)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(fade) / fade))
    x[:fade] *= ramp
    x[-fade:] *= ramp[::-1]
    return 0.5 * x / np.max(np.abs(x))


def _synth_white(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return 0.35 * x / np.max(np.abs(x))


def _synth_pink(rng: np.random.Generator, n: int) -> np.ndarray:
    # shape a white spectrum by 1/sqrt(f): power density falls as 1/f
    spectrum = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, d=1.0 / audio.SAMPLE_RATE)
    spectrum[0] = 0.0
    spectrum[1:] /= np.sqrt(f[1:])
    x = np.fft.irfft(spectrum, n=n)
    return 0.35 * x / np.max(np.abs(x))


def _synth_babble(rng: np.random.Generator, n: int) -> np.ndarray:
    # multi-tone proxy: many amplitude-modulated sinusoids across the speech band
    t = np.arange(n) / audio.SAMPLE_RATE
    x = np.zeros(n, dtype=np.float64)
    for _ in range(24):
        fc = float(np.exp(rng.uniform(np.log(100.0), np.log(4000.0))))
        fm = float(rng.uniform(2.0, 8.0))
        ph_c = float(rng.uniform(0.0, 2.0 * np.pi))
        ph_m = float(rng.uniform(0.0, 2.0 * np.pi))
        x += (0.5 * (1.0 + np.sin(2.0 * np.pi * fm * t + ph_m))) * np.sin(
            2.0 * np.pi * fc * t + ph_c
        )
    return 0.35 * x / np.max(np.abs(x))


def synth_corpus(
    out_dir,
    n_utterances: int,
    seed: int,
    snr_choices=DEFAULT_SNR_CHOICES,
) -> Manifest:
    """Generate a synthetic corpus under out_dir and write its manifest.

    Produces n pseudo-speech WAVs (1-3 s), three 8 s noise WAVs (white, pink,
    multi-tone babble proxy) and a JSON-lines manifest whose per-entry SNR is
    drawn uniformly from snr_choices.
    """
    out_dir = Path(out_dir)
    rng = named_stream(seed, "corpus")
    noise_dur = 8 * audio.SAMPLE_RATE

    entries = []
    if n_utterances > 0:
        (out_dir / "wav").mkdir(parents=True, exist_ok=True)
        (out_dir / "noise").mkdir(parents=True, exist_ok=True)
        noise_paths = []
        for name, gen in (("white", _synth_white), ("pink", _synth_pink), ("babble", _synth_babble)):
            p = out_dir / "noise" / f"{name}.wav"
            audio.save_wav(AudioBuffer(gen(rng, noise_dur).astype(np.float32)), p)
            noise_paths.append(p)
        for i in range(n_utterances):
            uid = f"u{i:04d}"
            p = out_dir / "wav" / f"{uid}.wav"
            audio.save_wav(AudioBuffer(_synth_utterance(rng).astype(np.float32)), p)
            entries.append(
                CloneSpec(
                    utterance_id=uid,
                    clean_path=p,
                    noise_paths=(noise_paths[int(rng.integers(0, len(noise_paths)))],),
                    snr_db=float(snr_choices[int(rng.integers(0, len(snr_choices)))]),
                )
            )
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(entries=tuple(entries), seed=int(seed))
    save_manifest(manifest, out_dir / "manifest.jsonl")
    return manifest


# ---------------------------------------------------------------------------
# manifest I/O (JSON lines; one header object carrying the seed, then entries)
# ---------------------------------------------------------------------------

def save_manifest(manifest: Manifest, path) -> None:
    path = Path(path)
    base = path.parent

    def rel(p: Path) -> str:
        return os.path.relpath(p, base)

    lines = [json.dumps({"seed": manifest.seed})]
    for e in manifest.entries:
        lines.append(
            json.dumps(
                {
                    "id": e.utterance_id,
                    "clean": rel(e.clean_path),
                    "noises": [rel(p) for p in e.noise_paths],
                    "snr_db": e.snr_db,
                },
                sort_keys=True,
            )
        )
    path.write_text("\n".join(lines) + "\n")


def load_manifest(path) -> Manifest:
    path = Path(path)
    base = path.parent
    seed = 0
    entries = []
    seen = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if "id" not in obj:
            if "seed" in obj and lineno == 1:
                seed = int(obj["seed"])
                continue
            raise ParseError(f"{path}: line {lineno}: entry missing 'id'")
        try:
            entry = CloneSpec(
                utterance_id=str(obj["id"]),
                clean_path=(base / obj["clean"]).resolve(),
                noise_paths=tuple((base / p).resolve() for p in obj["noises"]),
                snr_db=float(obj["snr_db"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if entry.utterance_id in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate id {entry.utterance_id!r}")
        if not entry.noise_paths:
            raise ParseError(f"{path}: line {lineno}: empty noise list")
        seen.add(entry.utterance_id)
        for p in (entry.clean_path, *entry.noise_paths):
            if not p.exists():
                raise MissingFile(f"{path}: line {lineno}: missing file {p}")
        entries.append(entry)
    return Manifest(entries=tuple(entries), seed=seed)
