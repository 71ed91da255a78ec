"""Clone training data: SNR-controlled noisy copies of clean utterances.

A manifest lists clean utterances with their candidate noise sources and a
per-utterance SNR. Batches pair each sampled clean segment with Q noisy
versions of itself (the "clones" input); the versions share the clean
segment exactly and differ only in the noise draw. A synthetic pseudo-speech
corpus generator stands in for a real dataset at desk scale; any external
16 kHz WAV corpus can be ingested through the same manifest format.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import audio
from .audio import AudioBuffer
from .errors import (
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

    clone_inputs: np.ndarray   # (m, Q, 6, 240) float32 log-mel
    clean_targets: np.ndarray  # (m, 6, 240) float32 log-mel of the shared clean segment
    meta: tuple                # (utterance_id, segment_start_sample) per item


def rms(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    return math.sqrt(float(np.mean(x * x))) if x.size else 0.0


# ---------------------------------------------------------------------------
# mixing
# ---------------------------------------------------------------------------

def _cut_offset(n: int, length: int, rng: np.random.Generator) -> int:
    """Start of a random `length`-sample cut of an `n`-sample noise file; the
    cut wraps around a file shorter than `length`."""
    if n < MIN_NOISE_SAMPLES and n < length:
        raise NoiseTooShort(f"noise has {n} samples, need at least {MIN_NOISE_SAMPLES}")
    return int(rng.integers(0, n - length + 1 if n >= length else n))


def mix_at_snr(clean: np.ndarray, noise: np.ndarray, snr_db: float | list[float]) -> np.ndarray:
    """clean + alpha * noise, with alpha set so the mixture hits snr_db.

    alpha = (RMS(clean) / RMS(noise)) * 10^(-snr_db / 20), which makes the
    measured 10*log10(sum(x^2) / sum((alpha*n)^2)) equal the request exactly
    up to float rounding. `noise` is already cut to the clean length; each of
    its rows (broadcast against `clean`) mixes at its own snr_db, or all at a
    scalar one. Float32 out.
    """
    x = np.asarray(clean, dtype=np.float64)
    seg = np.array(noise, dtype=np.float64)
    rx = np.sqrt(np.mean(x * x, axis=-1, keepdims=True))
    rn = np.sqrt(np.mean(seg * seg, axis=-1, keepdims=True))
    # Python's pow, not np.power, whose vector kernels may round differently
    gains = [10.0 ** (-float(s) / 20.0) for s in np.ravel(snr_db)]
    if seg.shape[-1:] != x.shape[-1:] or len(gains) not in (1, rn.size):
        raise ShapeMismatch(f"mix_at_snr: noise {seg.shape} for clean {x.shape} at SNRs {np.shape(snr_db)}")
    if not np.all(rx):
        raise SilentSignal("clean signal has zero RMS")
    if not np.all(rn):
        raise SilentSignal("noise segment has zero RMS")
    seg *= (rx / rn) * np.reshape(gains * (rn.size // len(gains)), rn.shape)
    seg += x
    out = seg.astype(np.float32)
    if not np.all(np.isfinite(out)):
        raise CorruptFile("non-finite sample values")
    return out


def measured_snr_db(mixture: np.ndarray, clean: np.ndarray) -> float:
    x = np.asarray(clean, dtype=np.float64)
    r = np.asarray(mixture, dtype=np.float64) - x
    signal, residual = float(np.sum(x * x)), float(np.sum(r * r))
    if not signal:
        raise SilentSignal("clean signal has zero RMS")
    return 10.0 * math.log10(signal / residual) if residual else math.inf  # inf: mixture == clean


# ---------------------------------------------------------------------------
# batch assembly
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def _cached_wav(path: Path) -> np.ndarray:
    # corpus files are immutable for the lifetime of a run
    return audio.load_wav(path).samples


def _check_clone_args(clones: int, snr_jitter_db: float | None) -> None:
    if clones < 1:
        raise InvalidRange(f"clones must be >= 1, got {clones!r}")
    if snr_jitter_db is not None and not 0.0 <= snr_jitter_db < math.inf:
        raise InvalidRange(f"snr_jitter_db must be finite and >= 0, got {snr_jitter_db!r}")


def _draw_clones(entry: CloneSpec, clones: int, length: int, rng: np.random.Generator,
                 snr_db: float | None, snr_jitter_db: float | None) -> tuple:
    """(snrs, offsets) for `clones` mixtures of a `length`-sample signal, drawn
    clone by clone: its SNR (snr_db or the entry's, plus a uniform [0,
    snr_jitter_db) jitter when one is given), then a cut offset into each of
    the entry's noise sources in turn. offsets[s][q] is clone q's in source s."""
    base = entry.snr_db if snr_db is None else snr_db
    sizes = [len(_cached_wav(p)) for p in entry.noise_paths]
    snrs, offsets = [], [[] for _ in sizes]
    for _ in range(clones):
        snrs.append(base if snr_jitter_db is None else base + float(rng.uniform(0.0, snr_jitter_db)))
        for offs, n in zip(offsets, sizes):
            offs.append(_cut_offset(n, length, rng))
    return snrs, offsets


def mix_clones(seg: np.ndarray, entry: CloneSpec, clones: int, rng: np.random.Generator,
               snr_db: float | None = None, snr_jitter_db: float | None = None) -> np.ndarray:
    """`clones` noisy versions of a float32 clean segment, (clones, samples),
    drawn by `_draw_clones`. Each clone's cuts are summed in float64 in source
    order; one mix_at_snr call scales all summed noise."""
    _check_clone_args(clones, snr_jitter_db)
    n = len(seg)
    snrs, offsets = _draw_clones(entry, clones, n, rng, snr_db, snr_jitter_db)
    noise = np.zeros((clones, n))
    for p, offs in zip(entry.noise_paths, offsets):
        src = _cached_wav(p)
        for row, off in zip(noise, offs):
            row += src[off : off + n] if off + n <= len(src) else src.take(range(off, off + n), mode="wrap")
    return mix_at_snr(seg, noise.astype(np.float32), snrs)


DEFAULT_SNR_JITTER_DB = 15.0

# items mixed and framed per call. For the desk batch (16 items, Q = 8) on a
# 2-core VM, chunks of 1, 2 and 4 items gave a perfbench train peak RSS of
# 89-91 MB; the whole batch in one call gave 99 MB and built a batch in 25 ms
# against 14-16 ms.
FRAME_CHUNK_ITEMS = 2


def build_clone_batch(
    manifest: Manifest,
    batch_size: int,
    clones: int,
    rng: np.random.Generator,
    snr_jitter_db: float = DEFAULT_SNR_JITTER_DB,
) -> CloneBatch:
    """Sample a training batch: per item, one clean 6-frame segment and Q
    noisy versions of it, each item drawn from its own child stream of `rng`.

    Each clone's mixture SNR is drawn independently from
    [entry SNR, entry SNR + snr_jitter_db]: the entry SNR stays the noisiest
    (hardest) member, and the spread puts clones of one item at different
    noise levels so the equivalence term ties the SNR levels together rather
    than learning one code per level.

    The SNR is measured against the RMS of the 6-frame segment being mixed,
    not of its whole utterance; `inference.evaluate` and
    `training.compute_norm_stats` mix whole utterances, so a quiet segment
    there sits locally further below the noise than any training clone.

    Every item's draws come first (its entry, its start, then `_draw_clones`),
    then the numeric work runs on whole arrays: a segment cut never wraps
    (MIN_NOISE_SAMPLES > SEGMENT_SAMPLES), so each noise file gives all its
    cuts of a source slot in one gather, and each FRAME_CHUNK_ITEMS items mix
    in one `mix_at_snr` call and frame in one `frame_matrix` call. Mixing and
    framing work row by row, so the batch is bitwise the one built item by
    item with `mix_clones`.
    """
    if not manifest.entries:
        raise ManifestEmpty("manifest has no entries")
    if batch_size < 0:
        raise InvalidRange(f"batch_size must be >= 0, got {batch_size!r}")
    _check_clone_args(clones, snr_jitter_db)

    segs = np.empty((batch_size, 1, SEGMENT_SAMPLES), dtype=np.float32)
    snrs, meta = [], []
    cuts: dict = {}  # (source slot, noise path) -> ([flat clone row], [offset])
    for i, seed in enumerate(child_seeds(rng, batch_size)):
        item_rng = np.random.default_rng(int(seed))
        entry = manifest.entries[int(item_rng.integers(0, len(manifest.entries)))]
        clean = _cached_wav(entry.clean_path)
        if len(clean) < SEGMENT_SAMPLES:
            raise UtteranceTooShort(
                f"{entry.utterance_id}: {len(clean)} samples, need {SEGMENT_SAMPLES}"
            )
        n_starts = (len(clean) - SEGMENT_SAMPLES) // audio.HOP_SAMPLES + 1
        start = audio.HOP_SAMPLES * int(item_rng.integers(0, n_starts))
        segs[i, 0] = clean[start : start + SEGMENT_SAMPLES]
        item_snrs, offsets = _draw_clones(entry, clones, SEGMENT_SAMPLES, item_rng, None, snr_jitter_db)
        snrs += item_snrs
        for slot, (p, offs) in enumerate(zip(entry.noise_paths, offsets)):
            rows, starts = cuts.setdefault((slot, p), ([], []))
            rows += range(i * clones, (i + 1) * clones)
            starts += offs
        meta.append((entry.utterance_id, start))

    # sum each clone's sources in float64 in source order, from zeros
    noise = np.zeros((batch_size * clones, SEGMENT_SAMPLES))
    for (_, p), (rows, starts) in sorted(cuts.items(), key=lambda kv: kv[0][0]):
        noise[rows] += np.lib.stride_tricks.sliding_window_view(_cached_wav(p), SEGMENT_SAMPLES)[starts]
    noise = noise.astype(np.float32).reshape(batch_size, clones, SEGMENT_SAMPLES)

    inputs = np.empty((batch_size, clones, CLONE_FRAMES, audio.FRAME_BINS), dtype=np.float32)
    targets = np.empty((batch_size, CLONE_FRAMES, audio.FRAME_BINS), dtype=np.float32)
    for lo in range(0, batch_size, FRAME_CHUNK_ITEMS):
        hi = min(lo + FRAME_CHUNK_ITEMS, batch_size)
        # per item, row 0 is the clean segment and rows 1..Q its mixtures
        mixed = mix_at_snr(segs[lo:hi], noise[lo:hi], snrs[lo * clones : hi * clones])
        framed = audio.frame_matrix(np.concatenate([segs[lo:hi], mixed], axis=1))
        targets[lo:hi] = framed[:, 0]
        inputs[lo:hi] = framed[:, 1:]
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
    for name, value in (("seed", seed), ("n_utterances", n_utterances)):
        if value < 0:
            raise InvalidRange(f"{name} must be >= 0, got {value}")
    if len(snr_choices) == 0 or not all(math.isfinite(s) for s in snr_choices):
        raise InvalidRange(f"snr_choices must be a non-empty list of finite numbers, got {list(snr_choices)!r}")
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
    lines = path.read_text().splitlines()
    header = next((n for n, line in enumerate(lines, start=1) if line.strip()), 0)  # the seed's line
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ParseError(f"{path}: line {lineno}: expected a JSON object, got {line.strip()!r}")
        if "id" not in obj:
            if "seed" in obj and lineno == header:
                seed = obj["seed"]
                if type(seed) is not int or seed < 0:
                    raise ParseError(f"{path}: line {lineno}: seed must be a non-negative integer, got {seed!r}")
                continue
            raise ParseError(f"{path}: line {lineno}: entry missing 'id'")
        uid, clean, noises, snr = (obj.get(k) for k in ("id", "clean", "noises", "snr_db"))
        for key, ok, want in (
            ("id", isinstance(uid, str), "a string"),
            ("clean", isinstance(clean, str), "a string"),
            ("noises", isinstance(noises, list) and noises and all(isinstance(n, str) for n in noises),
             "a non-empty array of strings"),
            ("snr_db", type(snr) in (int, float) and abs(snr) <= sys.float_info.max, "a finite number"),
        ):
            if not ok:
                raise ParseError(f"{path}: line {lineno}: {key} must be {want}, got {obj.get(key)!r}")
        if uid in seen:
            raise ParseError(f"{path}: line {lineno}: duplicate id {uid!r}")
        seen.add(uid)
        entry = CloneSpec(
            utterance_id=uid,
            clean_path=(base / clean).resolve(),
            noise_paths=tuple((base / n).resolve() for n in noises),
            snr_db=float(snr),
        )
        for p in (entry.clean_path, *entry.noise_paths):
            if not p.exists():
                raise MissingFile(f"{path}: line {lineno}: missing file {p}")
        entries.append(entry)
    return Manifest(entries=tuple(entries), seed=seed)
