"""The three workloads. Each is one process and a closed loop: the next unit
of work starts only after the previous one has finished.

A workload generates its inputs from the seed through the public
`synth_corpus` before anything is timed, measures its set-up, runs warm-up
units whose numbers are discarded, and then runs measured units. A unit is
one `train()` call (train), one utterance through extraction and
resynthesis (extract) or one `salient eval` command (eval). Every unit's
output is checked, warm-up units included.

Samples are kept in three buckets: None for warm-up, False for untraced
and True for traced units.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from salient import audio, cli, corpus, inference, model, training

from . import stats
from .metrics import PER_CALL_LAYERS, PER_LAYER
from .spans import TAPE_OPS, Patch, Tracer, layer_totals, without_descendants

DESK = model.PRESETS["desk"]
SETUP_REPEATS = 25
GL_ITERS = 60
EVAL_SNRS = "0,5,10,15"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _desk_checkpoint(manifest, seed: int, path: Path) -> None:
    """An untrained desk model with the corpus's normalization stats. The
    work of extraction and evaluation does not depend on the weights."""
    params = model.init_params(DESK, seed)
    params.mean, params.std = training.compute_norm_stats(manifest, seed)
    model.save_checkpoint(params, path)


def _timed_checkpoint_setup(path: Path) -> tuple:
    """Set-up of extract and eval: checkpoint load and filterbank, repeated;
    returns (params, seconds of each repeat)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        params = model.load_checkpoint(path)
        audio.build_mel_filterbank()
        samples.append(time.perf_counter() - t0)
    return params, samples


def layer_metrics(tracer: Tracer, ms_per: float, ops: float, extra=None) -> dict:
    """Every PER_LAYER metric from the tracer. `ms_per` is the work the
    traced units did and `ops` their operations; `extra` supplies metrics
    that are not span totals. Calls made inside a per-call layer belong to
    set-up, not to the operations, and are left out."""
    totals = layer_totals(without_descendants(tracer.spans, PER_CALL_LAYERS))
    given = {
        TAPE_OPS: tracer.counts.get(TAPE_OPS, 0) / ops if ops else 0.0,
        "training.step_other_ms": 0.0,
        **(extra or {}),
    }
    out = {}
    for name in PER_LAYER:
        if name in given:
            out[name] = given[name]
            continue
        layer, what = name.rsplit(".", 1)
        calls, total_ns, self_ns = totals.get(layer, (0, 0, 0))
        if what == "calls":
            out[name] = calls / ops if ops else 0.0
        elif layer in PER_CALL_LAYERS:
            out[name] = total_ns / 1e6 / calls if calls else 0.0
        else:
            busy = self_ns if what == "self_ms" else total_ns
            out[name] = busy / 1e6 / ms_per if ms_per else 0.0
    return out


class Workload:
    """Shared bookkeeping. Subclasses set `cycle` (units before the inputs
    repeat) and `min_samples`, and implement `warm_up`, `_unit`, `per_layer`
    and `headline_metrics`."""

    name = ""
    cycle = 1
    min_samples = 1

    def __init__(self):
        self.setup_s: list = []
        self.latency_ms = defaultdict(list)  # ms per unit of work
        self.work = defaultdict(float)  # units of work
        self.wall_s = defaultdict(float)  # wall seconds spent on that work
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def traced(self, index: int) -> bool:
        """Alternate traced and untraced units. When the input cycle has even
        length, flip the phase every cycle so each input runs both ways."""
        phase = index // self.cycle if self.cycle % 2 == 0 else 0
        return (index + phase) % 2 == 1

    def samples(self) -> int:
        return len(self.latency_ms[False]) + len(self.latency_ms[True])

    def unit(self, index: int, tracer=None, warm: bool = False) -> None:
        bucket = None if warm else tracer is not None
        try:
            if tracer is None:
                self._unit(index, None, bucket)
            else:
                tracer.run = f"{self.name}-{index}"
                tracer.call(f"unit.{self.name}", self._unit, index, tracer, bucket)
        except Exception:  # a failing unit is counted and the run goes on
            self.fail(f"unit {index} raised:\n{traceback.format_exc()}")

    def timing(self, bucket) -> dict:
        """Timing metrics of one bucket, with the percentile the tail took
        (None for both when the bucket has too few samples for any); set-up
        and memory are added by the caller."""
        samples = self.latency_ms[bucket]
        pct = stats.tail_percentile(len(samples))
        return {
            "throughput_per_s": self.work[bucket] / self.wall_s[bucket],
            "latency_ms_p50": stats.percentile(samples, 50),
            "latency_ms_tail": stats.percentile(samples, pct) if pct else None,
            "tail_percentile": pct,
        }


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

STEP_PARTS = (
    "corpus.build_clone_batch",
    "training.build_step_graph",
    "autodiff.backward",
    "training.adam",
)


class Train(Workload):
    """`training.train()` on the desk preset with the acceptance fixture's
    shapes: m=16 items, Q=8 clones, six-frame segments, 128 rows a step.
    The only workload that runs the losses, backward and the optimizer. A
    step's wall time runs from its batch to the next batch."""

    name = "train"
    corpus_utterances = 40
    steps = 20
    min_samples = 110  # keeps the step tail at the 90th percentile or above

    def __init__(self, work: Path, seed: int):
        super().__init__()
        corpus.synth_corpus(work / "corpus", self.corpus_utterances, seed)
        self.manifest_path = work / "corpus" / "manifest.jsonl"
        self.config = training.TrainConfig(
            steps=self.steps, batch_size=16, clones=8, eval_every=50, seed=seed,
            checkpoint_dir=str(work / "ckpt"),
        )
        self.digest = None
        self.final_d_global = None
        self.traced_steps = 0
        self.step_other_ns: list = []

    def warm_up(self) -> None:
        # one whole unit: it loads every WAV the measured units read, so
        # they all find the batch-assembly cache warm
        self.unit(-1, warm=True)

    def _unit(self, index: int, tracer, bucket) -> None:
        ticks = []

        def step_clock(original):
            def build_clone_batch(*args, **kwargs):
                ticks.append(time.perf_counter_ns())
                self.attempted += 1
                return original(*args, **kwargs)

            return build_clone_batch

        with Patch() as patch:
            if tracer is not None:
                tracer.install(patch)
            # installed last, so each step starts before its batch span
            patch.set("salient.training", "build_clone_batch", step_clock)
            t0 = time.perf_counter_ns()
            manifest = corpus.load_manifest(self.manifest_path)
            result = training.train(manifest, DESK, self.config)

        for _ in range(result.nonfinite_skips):
            self.fail("non-finite batch skipped")
        self._check(result)
        # the last step has no next batch and is left out
        steps_ns = [b - a for a, b in zip(ticks, ticks[1:])]
        if bucket is not None:
            self.setup_s.append((ticks[0] - t0) / 1e9)
        self.latency_ms[bucket].extend(ns / 1e6 for ns in steps_ns)
        self.work[bucket] += len(steps_ns)
        self.wall_s[bucket] += sum(steps_ns) / 1e9
        if tracer is not None:
            self.traced_steps += len(ticks)
            self._step_other(tracer, ticks)

    def _step_other(self, tracer: Tracer, ticks: list) -> None:
        parts = [
            (s.start_ns, s.end_ns - s.start_ns)
            for s in tracer.spans
            if s.run == tracer.run and s.name in STEP_PARTS
        ]
        for lo, hi in zip(ticks, ticks[1:]):
            inner = sum(d for start, d in parts if lo <= start < hi)
            self.step_other_ns.append(hi - lo - inner)

    def _check(self, result) -> None:
        for r in result.records:
            if not all(np.isfinite((r.d_e, r.d_mmd, r.d_d, r.d_global))):
                self.fail(f"non-finite loss logged at step {r.step}")
        digest = _sha256(Path(result.final_path).read_bytes())
        d_global = result.records[-1].d_global
        if self.digest is None:
            self.digest, self.final_d_global = digest, d_global
        elif (digest, d_global) != (self.digest, self.final_d_global):
            self.fail(f"final checkpoint {digest[:16]} differs from the first unit's {self.digest[:16]}")

    def per_layer(self, tracer: Tracer) -> dict:
        other = self.step_other_ns
        extra = {"training.step_other_ms": sum(other) / 1e6 / len(other) if other else 0.0}
        return layer_metrics(tracer, self.traced_steps, self.traced_steps, extra)

    def headline_metrics(self) -> dict:
        t = self.timing(False)
        return {
            "steps_per_s": (t["throughput_per_s"], "steps/s"),
            "step_ms_p50": (t["latency_ms_p50"], "ms"),
            "step_ms_tail": (t["latency_ms_tail"], "ms"),
            "step_ms_tail_percentile": (t["tail_percentile"], "%"),
            "steps_timed": (len(self.latency_ms[False]), "count"),
            "final_ckpt_sha256": (self.digest, ""),
            "final_d_global": (self.final_d_global, ""),
        }


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

class Extract(Workload):
    """Per utterance: `extract_features`, then `reconstruct_mel` and a
    60-iteration `griffin_lim`. The LSTM runs forward only, on one-row
    sequences. The corpus's 1-3 s utterances are mixed with two long inputs
    of at least 20 s, made by joining utterances; they separate the cost of
    a frame from the cost of a call."""

    name = "extract"
    corpus_utterances = 30
    long_inputs = 2
    long_seconds = 20.0
    min_samples = 45  # keeps the extraction tail at the 75th percentile or above

    def __init__(self, work: Path, seed: int):
        super().__init__()
        manifest = corpus.synth_corpus(work / "corpus", self.corpus_utterances, seed)
        ckpt = work / "model.ckpt"
        _desk_checkpoint(manifest, seed, ckpt)
        rng = np.random.default_rng(seed)
        clips = [audio.load_wav(e.clean_path).samples for e in manifest.entries]
        inputs = list(clips)
        for _ in range(self.long_inputs):
            joined = []
            for k in rng.permutation(len(clips)):
                joined.append(clips[k])
                if sum(map(len, joined)) >= self.long_seconds * audio.SAMPLE_RATE:
                    break
            inputs.append(np.concatenate(joined))
        self.inputs = [audio.AudioBuffer(inputs[k]) for k in rng.permutation(len(inputs))]
        self.cycle = len(self.inputs)
        self.params, self.setup_s = _timed_checkpoint_setup(ckpt)
        self.track_digests: dict = {}
        self.resynth_rtf = defaultdict(list)
        self.utterances = defaultdict(int)

    def warm_up(self) -> None:
        shortest = min(range(len(self.inputs)), key=lambda k: len(self.inputs[k]))
        self.unit(shortest, warm=True)

    def _unit(self, index: int, tracer, bucket) -> None:
        k = index % len(self.inputs)
        buf = self.inputs[k]
        self.attempted += 1
        with Patch() as patch:
            if tracer is not None:
                tracer.install(patch)
            t0 = time.perf_counter()
            track = inference.extract_features(self.params, buf)
            t1 = time.perf_counter()
            mel = inference.reconstruct_mel(self.params, track)
            wave = inference.griffin_lim(mel[:, : audio.N_MELS], iterations=GL_ITERS)
            t2 = time.perf_counter()
        self._check(buf, k, track, wave)
        dur = len(buf) / audio.SAMPLE_RATE
        self.latency_ms[bucket].append((t1 - t0) * 1e3 / dur)
        self.resynth_rtf[bucket].append((t2 - t1) / dur)
        self.work[bucket] += dur
        self.wall_s[bucket] += t2 - t0
        self.utterances[bucket] += 1

    def _check(self, buf, k: int, track, wave) -> None:
        frames = audio.frame_count(len(buf))
        feats = track.features
        if feats.shape != (frames, DESK.feature_dim) or not np.all(np.isfinite(feats)):
            self.fail(f"input {k}: track of shape {feats.shape}, want ({frames}, {DESK.feature_dim}) and finite")
            return
        want = (frames - 1) * audio.HOP_SAMPLES + audio.FRAME_SAMPLES
        if len(wave) != want:
            self.fail(f"input {k}: resynthesized {len(wave)} samples, want {want}")
        digest = _sha256(np.ascontiguousarray(feats).tobytes())
        if self.track_digests.setdefault(k, digest) != digest:
            self.fail(f"input {k}: feature track differs from an earlier pass")

    def per_layer(self, tracer: Tracer) -> dict:
        return layer_metrics(tracer, self.work[True], self.utterances[True])

    def headline_metrics(self) -> dict:
        t = self.timing(False)
        return {
            "extract_rtf_p50": (t["latency_ms_p50"] / 1e3, "s/s"),
            "extract_rtf_tail": (t["latency_ms_tail"] / 1e3, "s/s"),
            "extract_rtf_tail_percentile": (t["tail_percentile"], "%"),
            "resynth_rtf_p50": (stats.median(self.resynth_rtf[False]), "s/s"),
            "utterances_timed": (len(self.latency_ms[False]), "count"),
        }


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class Eval(Workload):
    """`salient eval` through `cli.main` at SNRs 0,5,10,15 with the CLI's
    default thread count, on held-out manifests of three utterances. The
    runs cycle through four such manifests: a run is short enough to repeat,
    and a seed's figures average twelve utterances. It mixes whole
    utterances, then extracts and decodes each pair under the CLI's thread
    pool, which is where BLAS and pool threads contend."""

    name = "eval"
    train_utterances = 12
    parts = 4
    part_utterances = 3
    cycle = parts
    min_samples = 20  # enough for the tail rule's lowest percentile, the median
    held_seed_offset = 1 << 32

    def __init__(self, work: Path, seed: int):
        super().__init__()
        train_manifest = corpus.synth_corpus(work / "train", self.train_utterances, seed)
        self.ckpt = work / "model.ckpt"
        _desk_checkpoint(train_manifest, seed, self.ckpt)
        held = corpus.synth_corpus(work / "held", self.parts * self.part_utterances, seed + self.held_seed_offset)
        n_snrs = len(EVAL_SNRS.split(","))
        self.manifests = []
        self.pair_audio_s = []
        for k in range(self.parts):
            entries = held.entries[k * self.part_utterances : (k + 1) * self.part_utterances]
            path = work / "held" / f"part{k}.jsonl"
            corpus.save_manifest(corpus.Manifest(entries=entries, seed=held.seed), path)
            self.manifests.append(path)
            seconds = sum(len(audio.load_wav(e.clean_path)) for e in entries) / audio.SAMPLE_RATE
            self.pair_audio_s.append(n_snrs * seconds)
        self.pairs_per_run = n_snrs * self.part_utterances
        self.report = work / "report.json"
        _, self.setup_s = _timed_checkpoint_setup(self.ckpt)
        self.report_digests: dict = {}
        self.pairs = defaultdict(int)

    def warm_up(self) -> None:
        # one run per manifest loads every noise file into the mixing cache
        for k in range(self.parts):
            self.unit(k, warm=True)

    def _unit(self, index: int, tracer, bucket) -> None:
        k = index % self.parts
        argv = [
            "eval", "--checkpoint", str(self.ckpt), "--manifest", str(self.manifests[k]),
            "--snr-list", EVAL_SNRS, "--report", str(self.report),
        ]
        self.attempted += 1
        with Patch() as patch, contextlib.redirect_stdout(io.StringIO()):
            if tracer is not None:
                tracer.install(patch)
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        if code != 0:
            self.fail(f"salient eval on manifest {k} exited with {code}")
            return
        digest = _sha256(self.report.read_bytes())
        if self.report_digests.setdefault(k, digest) != digest:
            self.fail(f"eval report for manifest {k} differs from an earlier run")
        self.latency_ms[bucket].append(wall * 1e3 / self.pair_audio_s[k])
        self.work[bucket] += self.pair_audio_s[k]
        self.wall_s[bucket] += wall
        self.pairs[bucket] += self.pairs_per_run

    def per_layer(self, tracer: Tracer) -> dict:
        return layer_metrics(tracer, self.work[True], self.pairs[True])

    def headline_metrics(self) -> dict:
        return {
            "pairs_per_s": (self.pairs[False] / self.wall_s[False], "pairs/s"),
            "eval_runs_timed": (len(self.latency_ms[False]), "count"),
            "report_sha256": ([self.report_digests[k] for k in sorted(self.report_digests)], ""),
        }


WORKLOADS = {w.name: w for w in (Train, Extract, Eval)}
