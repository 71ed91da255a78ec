"""Noise-robust salient speech features from weight-shared clone encoders."""

from .audio import (
    AudioBuffer,
    MelFilterbank,
    build_mel_filterbank,
    dual_window_frame,
    frame_matrix,
    load_wav,
    save_wav,
)
from .corpus import (
    CloneBatch,
    CloneSpec,
    Manifest,
    build_clone_batch,
    load_manifest,
    mix_at_snr,
    save_manifest,
    synth_corpus,
)
from .inference import (
    EvalReport,
    FeatureTrack,
    evaluate,
    export_features,
    extract_features,
    griffin_lim,
    import_features,
    reconstruct_mel,
)
from .losses import (
    LossBreakdown,
    LossWeights,
    decoder_loss,
    equivalence_loss,
    global_loss,
    imq_kernel,
    laplace_prior_sample,
    mmd_sq,
)
from .model import (
    EncoderConfig,
    ModelParams,
    decode_sequence,
    encode_sequence,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .training import TrainConfig, TrainResult, train, train_step

__version__ = "0.1.0"
