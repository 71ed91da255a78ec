"""Names and units of the metrics the benchmark reports. BENCHMARK.json at
the repository root lists the same names; a test keeps the two in step.

Every end-to-end metric is reported on every workload, each in that
workload's unit of work: a training step (train), one second of input
audio (extract) or one second of noisy audio evaluated (eval).
"""

# name -> (unit, better)
END_TO_END = {
    # set-up before the first timed operation, median of the repeats in a run
    "setup_s": ("s", "lower"),
    # ru_maxrss of the benchmark process
    "peak_rss_mb": ("MB", "lower"),
    # units of work per second of the measured units' wall time; on extract
    # the wall time covers extraction and resynthesis
    "throughput_per_s": ("1/s", "higher"),
    # median ms per unit of work: a step's wall time (train), extraction
    # time per audio second (extract), `salient eval` wall time per audio
    # second of its pairs (eval)
    "latency_ms_p50": ("ms", "lower"),
    # the same samples at the highest percentile with 10 samples beyond it
    "latency_ms_tail": ("ms", "lower"),
}

# name -> unit. `.ms` and `.self_ms` are busy time per unit of work (per
# call for save_checkpoint and compute_norm_stats, which run per train()
# call); `.calls` and the tape count are per operation: per step (train),
# per utterance (extract) or per utterance x SNR pair (eval). A layer that a
# workload does not run reads 0 there.
PER_LAYER = {
    "audio.frame_matrix.calls": "count",
    "audio.frame_matrix.ms": "ms",
    "audio.load_wav.calls": "count",
    "corpus.build_clone_batch.ms": "ms",
    "corpus.build_clone_batch.self_ms": "ms",
    "corpus.mix_at_snr.calls": "count",
    "corpus.mix_at_snr.ms": "ms",
    "losses.laplace_prior_sample.ms": "ms",
    "losses.equivalence_loss_graph.ms": "ms",
    "losses.mmd_sq_graph.ms": "ms",
    "losses.decoder_loss_graph.ms": "ms",
    "model.encoder_graph.ms": "ms",
    "model.decoder_graph.ms": "ms",
    "model.encode_sequence.ms": "ms",
    "model.decode_sequence.ms": "ms",
    "autodiff.tape_ops": "count",
    "autodiff.backward.ms": "ms",
    "training.build_step_graph.ms": "ms",
    "training.adam.ms": "ms",
    "training.save_checkpoint.ms": "ms",
    "training.compute_norm_stats.ms": "ms",
    "training.step_other_ms": "ms",
    "inference.extract_features.ms": "ms",
    "inference.reconstruct_mel.ms": "ms",
    "inference.griffin_lim.ms": "ms",
    "inference.evaluate.ms": "ms",
}

PER_CALL_LAYERS = ("training.save_checkpoint", "training.compute_norm_stats")
