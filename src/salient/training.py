"""Clone training loop: Q weight-shared encoder passes per batch item, a
mirrored decoder pass for every clone, the three-term objective, and
gradient updates with best-checkpoint selection by smoothed loss.

Only clone 1 serves as the equivalence reference, and only clone 1's
features (pooled over batch items and frames) enter the distribution term,
compared against fresh Laplacian draws each step. The decoder term uses all
clones against the shared clean-frame targets.

Training is a pure function of (manifest, seed, configs): batches, prior
draws and initialization all flow through named RNG streams, so two runs
with one seed produce byte-identical checkpoints and loss traces.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import audio
from . import autodiff as ad
from . import corpus as corpus_mod
from . import losses as losses_mod
from .autodiff import Tape
from .corpus import CloneBatch, Manifest, build_clone_batch
from .errors import InvalidRange, ManifestEmpty, NonFiniteLoss, NonFiniteValue
from .losses import LossBreakdown, LossWeights
from .model import (
    EncoderConfig,
    ModelParams,
    decoder_graph,
    encoder_graph,
    init_params,
    load_checkpoint,
    normalize,
    param_leaves,
    save_checkpoint,
)
from .seeding import named_stream

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int = 64
    clones: int = 32
    learning_rate: float = 1e-3
    weights: LossWeights = LossWeights()
    seed: int = 0
    eval_every: int = 50
    checkpoint_dir: str = "checkpoints"
    snr_jitter_db: float = corpus_mod.DEFAULT_SNR_JITTER_DB

    def __post_init__(self):
        for name, ok, want in (
            ("steps", self.steps >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 2, ">= 2"),
            ("clones", self.clones >= 2, ">= 2"),
            ("learning_rate", 0.0 < self.learning_rate < np.inf, "finite and > 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("eval_every", self.eval_every >= 1, ">= 1"),
            ("snr_jitter_db", 0.0 <= self.snr_jitter_db < np.inf, "finite and >= 0"),
        ):
            if not ok:
                raise InvalidRange(f"{name} must be {want}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class TrainLogRecord:
    step: int
    d_e: float
    d_mmd: float
    d_d: float
    d_global: float
    wall_ms: float
    batch_wait_ms: float  # of wall_ms, the wait for this step's batches


@dataclass
class TrainResult:
    best_params: ModelParams
    best_step: int
    best_smoothed: float
    records: list
    init_path: Path
    best_path: Path
    final_path: Path
    log_path: Path
    nonfinite_skips: int = 0


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    def __init__(self, tensors: dict, lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, tensors: dict, grads: dict) -> None:
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for name in sorted(tensors):
            g = grads.get(name)
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            tensors[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# one training step
# ---------------------------------------------------------------------------

def step_objective(leaves: dict, config: EncoderConfig, inputs: np.ndarray, targets: np.ndarray, prior: np.ndarray, weights: LossWeights) -> tuple:
    """The training objective on the tape of the parameter leaves `leaves`.

    inputs: normalized clone frames (m, Q, T, N); targets: normalized clean
    frames (m, T, N); prior: Laplacian draws (m*T, L). Returns the tensors
    (d_e, d_mmd, d_d, d_global). d_e and d_d are per-element means: the
    equivalence sum over m*(Q-1)*T*L feature residuals and the decoder sum
    over m*Q*T*N frame residuals, each divided by its element count, so the
    weights balance the terms whatever the batch, clone and frame sizes.
    d_global = d_e + lambda_mmd * d_mmd + lambda_d * d_d.

    Sequences are time-major, (T, rows, ·), with rows laid out clone-major:
    clone q of all m items occupies rows [q*m, (q+1)*m)."""
    m, q_clones, t_frames, n_bins = inputs.shape
    x = inputs.transpose(2, 1, 0, 3).reshape(t_frames, q_clones * m, n_bins)

    z = encoder_graph(leaves, config, x)
    d_e_sum = losses_mod.equivalence_loss_graph(z, m)
    d_e = ad.scale(d_e_sum, 1.0 / (m * (q_clones - 1) * t_frames * config.feature_dim))

    pooled = ad.reshape(ad.slice_(z, 1, 0, m), (t_frames * m, config.feature_dim))
    d_mmd = losses_mod.mmd_sq_graph(pooled, prior, weights)

    d_d_sum = losses_mod.decoder_loss_graph(decoder_graph(leaves, config, z), targets.transpose(1, 0, 2))
    d_d = ad.scale(d_d_sum, 1.0 / (m * q_clones * t_frames * n_bins))

    d_global = ad.add(
        ad.add(d_e, ad.scale(d_mmd, weights.lambda_mmd)),
        ad.scale(d_d, weights.lambda_d),
    )
    return d_e, d_mmd, d_d, d_global


def build_step_graph(tape: Tape, params: ModelParams, batch: CloneBatch, prior: np.ndarray, weights: LossWeights):
    """Assemble the full step graph on `tape`: normalize the batch with the
    stored statistics and build `step_objective` over the parameter leaves.
    Returns (leaves, (d_e, d_mmd, d_d, d_global))."""
    leaves = param_leaves(tape, params)
    terms = step_objective(leaves, params.config, normalize(params, batch.clone_inputs),
                           normalize(params, batch.clean_targets), prior, weights)
    return leaves, terms


def _apply_step(params: ModelParams, batch: CloneBatch, prior: np.ndarray, weights: LossWeights, optimizer: Adam) -> LossBreakdown:
    """Forward, backward and one optimizer update. Raises NonFiniteLoss with
    parameters untouched if anything non-finite shows up."""
    tape = Tape(np.float32)
    try:
        leaves, (d_e, d_mmd, d_d, d_global) = build_step_graph(tape, params, batch, prior, weights)
        grads_map = ad.backward(d_global)
    except NonFiniteValue as exc:
        raise NonFiniteLoss(str(exc)) from exc

    grads = {}
    for name, leaf in leaves.items():
        g = grads_map.wrt(leaf)
        if g is not None:
            if not np.all(np.isfinite(g)):
                raise NonFiniteLoss(f"non-finite gradient for {name}")
            grads[name] = g

    optimizer.step(params.tensors, grads)
    return losses_mod.global_loss(float(d_e.data), float(d_mmd.data), float(d_d.data), weights)


# ---------------------------------------------------------------------------
# normalization statistics
# ---------------------------------------------------------------------------

def compute_norm_stats(manifest: Manifest, seed: int) -> tuple:
    """Global per-bin mean/std over training frames, clean and one noisy
    version of each utterance pooled."""
    if not manifest.entries:
        raise ManifestEmpty("cannot compute normalization stats from an empty manifest")
    rng = named_stream(seed, "norm")
    count = 0
    acc = np.zeros(audio.FRAME_BINS, dtype=np.float64)
    acc_sq = np.zeros(audio.FRAME_BINS, dtype=np.float64)
    for entry in manifest.entries:
        clean = audio.load_wav(entry.clean_path)
        for x in (clean.samples, corpus_mod.mix_clones(clean.samples, entry, 1, rng)[0]):
            frames = audio.frame_matrix(x)
            count += frames.shape[0]
            acc += frames.sum(axis=0, dtype=np.float64)
            acc_sq += np.square(frames, dtype=np.float64).sum(axis=0)
    mean = acc / count
    var = np.maximum(acc_sq / count - mean * mean, 0.0)
    std = np.maximum(np.sqrt(var), 1e-6)
    return mean.astype(np.float32), std.astype(np.float32)


# ---------------------------------------------------------------------------
# full loop
# ---------------------------------------------------------------------------

# A model this small gains less from a second BLAS thread than the batch worker
# does: on a 2-core VM a desk step (0.2M) took 60 ms with one and 85 with two,
# while hidden 192 (1.3M) and the small preset (19.6M) stepped faster with two.
ONE_BLAS_THREAD_MAX_PARAMS = 1_000_000


def openblas_thread_functions():
    """Yield the (get, set) thread-count functions of each OpenBLAS loaded into this process."""
    with contextlib.suppress(OSError), open("/proc/self/maps") as fh:
        for path in sorted({line.split()[-1] for line in fh if "blas" in line.rsplit("/", 1)[-1].lower()}):
            with contextlib.suppress(OSError):  # a library that fails to load skips only itself
                lib = ctypes.CDLL(path)
                for prefix, suffix in ((p, s) for p in ("openblas", "scipy_openblas") for s in ("", "64_")):
                    get, put = (getattr(lib, f"{prefix}_{op}_num_threads{suffix}", None) for op in ("get", "set"))
                    if get and put:
                        get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
                        yield get, put
                        break


def train(manifest: Manifest, model_config: EncoderConfig, config: TrainConfig) -> TrainResult:
    """Run the loop, scoring the parameters every eval_every steps (and at
    the final step) by the moving-average d_global, and return best.ckpt read
    back: the scored parameters with the smallest average, earliest on a tie.
    Writes init/final checkpoints under config.checkpoint_dir, best.ckpt each
    time the best changes, and a CSV loss log with one flushed row per step.
    A worker thread builds step k+1's batch while step k runs, with one BLAS
    thread for a model under ONE_BLAS_THREAD_MAX_PARAMS."""
    ckpt_dir = Path(config.checkpoint_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)

    params = init_params(model_config, config.seed)
    params.mean, params.std = compute_norm_stats(manifest, config.seed)
    init_path = ckpt_dir / "init.ckpt"
    save_checkpoint(params, init_path)

    def draw(step: int, attempt: int) -> tuple:
        # a pure function of (seed, step, attempt), so any thread may run it
        batch = build_clone_batch(manifest, config.batch_size, config.clones,
                                  named_stream(config.seed, f"batch/{step}/{attempt}"), config.snr_jitter_db)
        prior = losses_mod.laplace_prior_sample(config.batch_size * corpus_mod.CLONE_FRAMES, model_config.feature_dim,
                                                named_stream(config.seed, f"prior/{step}/{attempt}"))
        return batch, prior

    optimizer = Adam(params.tensors, config.learning_rate)
    records: list = []
    best_step, best_smoothed, skips = 0, np.inf, 0
    best_path = ckpt_dir / "best.ckpt"
    log_path = ckpt_dir / "train_log.csv"
    few_params = sum(t.size for t in params.tensors.values()) < ONE_BLAS_THREAD_MAX_PARAMS
    with contextlib.ExitStack() as restore, ThreadPoolExecutor(max_workers=1) as worker, \
            open(log_path, "w") as log_file:
        for get, put in openblas_thread_functions() if few_params else ():
            restore.callback(put, get())  # after the worker is joined, last set first
            put(1)
        log_file.write(",".join(f.name for f in fields(TrainLogRecord)) + "\n")
        log_file.flush()
        next_batch = None  # the worker's (step, attempt 0) draw
        for step in range(1, config.steps + 1):
            t0 = time.perf_counter()
            wait = 0.0
            for attempt in range(3):
                t_wait = time.perf_counter()
                batch, prior = next_batch.result() if next_batch and not attempt else draw(step, attempt)
                wait += time.perf_counter() - t_wait
                if not attempt:
                    next_batch = worker.submit(draw, step + 1, 0) if step < config.steps else None
                try:
                    breakdown = _apply_step(params, batch, prior, config.weights, optimizer)
                    break
                except NonFiniteLoss as exc:
                    skips += 1
                    log.warning("step %d attempt %d: %s (batch skipped, params unchanged)", step, attempt, exc)
            else:
                raise NonFiniteLoss(f"3 consecutive non-finite batches at step {step}")

            r = TrainLogRecord(
                step=step,
                d_e=breakdown.d_e,
                d_mmd=breakdown.d_mmd,
                d_d=breakdown.d_d,
                d_global=breakdown.d_global,
                wall_ms=(time.perf_counter() - t0) * 1e3,
                batch_wait_ms=wait * 1e3,
            )
            records.append(r)
            log_file.write(",".join(map(repr, astuple(r))) + "\n")
            log_file.flush()
            if step % config.eval_every == 0 or step == config.steps:
                window = records[-min(config.eval_every, len(records)):]
                smoothed = float(np.mean([w.d_global for w in window]))
                if smoothed < best_smoothed:
                    best_step, best_smoothed = step, smoothed
                    save_checkpoint(params, best_path)

    final_path = ckpt_dir / "final.ckpt"
    save_checkpoint(params, final_path)
    return TrainResult(
        best_params=load_checkpoint(best_path),
        best_step=best_step,
        best_smoothed=best_smoothed,
        records=records,
        init_path=init_path,
        best_path=best_path,
        final_path=final_path,
        log_path=log_path,
        nonfinite_skips=skips,
    )
