"""Command-line entry point: corpus synthesis, training, feature extraction,
resynthesis, evaluation and self-checks behind one `salient` binary.

Exit codes: 0 success, 1 runtime/data error, 2 usage error. Every subcommand
prints its fully resolved configuration before doing anything, so a run can
be reproduced from its own output plus the input files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import audio, corpus, inference, model, training
from .errors import ConfigMismatch, SalientError
from .losses import LossWeights
from .selfcheck import run_selfcheck


def _print_config(name: str, resolved: dict) -> None:
    print(f"[{name}] resolved configuration:")
    for key in sorted(resolved):
        print(f"  {key} = {resolved[key]}")


def _parse_snr_list(text: str) -> list:
    try:
        return [float(s) for s in text.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise SalientError(f"bad --snr-list {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_corpus(args) -> int:
    snr_list = _parse_snr_list(args.snr_list)
    _print_config("corpus", {
        "out": args.out, "utterances": args.utterances, "seed": args.seed,
        "snr_list": ",".join(f"{s:g}" for s in snr_list),
    })
    manifest = corpus.synth_corpus(args.out, args.utterances, args.seed, snr_list)
    print(f"[corpus] wrote {len(manifest)} utterances and manifest to {args.out}")
    return 0


_TRAIN_KEYS = (
    "steps", "batch_size", "clones", "optimizer", "learning_rate", "eval_every",
    "seed", "lambda_mmd", "lambda_d", "kernel_scale", "grad_clip", "snr_jitter_db",
)

# trainer-side defaults per model preset: desk runs small batches, the
# paper-scale presets keep the full clone count
_PRESET_TRAINER = {
    "desk": {"clones": 8, "batch_size": 16},
    "small": {"clones": 32, "batch_size": 64},
    "large": {"clones": 32, "batch_size": 64},
}


def _read_config_file(path: Path, defaults: dict) -> dict:
    """key=value lines, each value converted to the type of its default."""
    values = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise SalientError(f"{path}: line {lineno}: expected key=value")
        key, _, val = body.partition("=")
        key = key.strip()
        if key not in _TRAIN_KEYS:
            raise SalientError(f"{path}: line {lineno}: unknown key {key!r}")
        val = val.strip()
        kind = type(defaults[key])
        try:
            values[key] = val if kind is str else kind(float(val)) if kind is int else kind(val)
        except (ValueError, OverflowError) as exc:
            raise SalientError(f"{path}: line {lineno}: {key} = {val!r} is not a number") from exc
    return values


def resolve_train_settings(args) -> tuple:
    """Merge defaults (TrainConfig and LossWeights, with a 2000-step budget),
    preset, config file and CLI flags (flags win).
    Returns (EncoderConfig, TrainConfig-kwargs dict)."""
    model_cfg = model.PRESETS[args.preset]
    defaults = training.TrainConfig(steps=2000)
    fields = {**asdict(defaults.weights), **asdict(defaults)}
    resolved = {key: fields[key] for key in _TRAIN_KEYS}
    resolved.update(_PRESET_TRAINER[args.preset])
    if args.config:
        resolved.update(_read_config_file(Path(args.config), resolved))
    for key in _TRAIN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return model_cfg, resolved


def cmd_train(args) -> int:
    model_cfg, resolved = resolve_train_settings(args)
    echo = dict(resolved)
    echo.update({
        "preset": args.preset, "manifest": args.manifest, "out": args.out,
        "lstm_layers": model_cfg.lstm_layers, "fc_layers": model_cfg.fc_layers,
        "hidden": model_cfg.hidden, "feature_dim": model_cfg.feature_dim,
    })
    _print_config("train", echo)

    manifest = corpus.load_manifest(args.manifest)
    train_cfg = training.TrainConfig(
        steps=int(resolved["steps"]),
        batch_size=int(resolved["batch_size"]),
        clones=int(resolved["clones"]),
        optimizer=str(resolved["optimizer"]),
        learning_rate=float(resolved["learning_rate"]),
        weights=LossWeights(
            lambda_mmd=float(resolved["lambda_mmd"]),
            lambda_d=float(resolved["lambda_d"]),
            kernel_scale=float(resolved["kernel_scale"]),
        ),
        seed=int(resolved["seed"]),
        eval_every=int(resolved["eval_every"]),
        checkpoint_dir=args.out,
        grad_clip=float(resolved["grad_clip"]),
        snr_jitter_db=float(resolved["snr_jitter_db"]),
    )
    result = training.train(manifest, model_cfg, train_cfg)
    print(f"[train] best step {result.best_step} (smoothed loss {result.best_smoothed:.6g})")
    print(f"[train] checkpoints: {result.init_path}, {result.best_path}, {result.final_path}")
    print(f"[train] log: {result.log_path}")
    return 0


def cmd_extract(args) -> int:
    _print_config("extract", {
        "checkpoint": args.checkpoint, "wav": args.wav, "out": args.out, "csv": args.csv,
    })
    params = model.load_checkpoint(args.checkpoint)
    buf = audio.load_wav(args.wav)
    track = inference.extract_features(params, buf)
    inference.export_features(track, args.out)
    print(f"[extract] {track.features.shape[0]} frames x {track.features.shape[1]} features -> {args.out}")
    if args.csv:
        csv_path = str(args.out) + ".csv"
        inference.export_features_csv(track, csv_path)
        print(f"[extract] csv copy -> {csv_path}")
    return 0


def cmd_reconstruct(args) -> int:
    _print_config("reconstruct", {
        "checkpoint": args.checkpoint, "features": args.features,
        "out": args.out, "gl_iters": args.gl_iters,
    })
    if args.gl_iters < 10:
        print(f"[reconstruct] warning: {args.gl_iters} phase-recovery iterations "
              "will sound rough; 60 is the usual setting")
    params = model.load_checkpoint(args.checkpoint)
    track = inference.import_features(args.features)
    if track.features.shape[1] != params.config.feature_dim:
        raise ConfigMismatch(
            f"feature file has {track.features.shape[1]} dims, "
            f"checkpoint expects {params.config.feature_dim}"
        )
    mel = inference.reconstruct_mel(params, track)
    wave = inference.griffin_lim(mel[:, : audio.N_MELS], iterations=args.gl_iters)
    audio.save_wav(wave, args.out)
    print(f"[reconstruct] {len(wave)} samples -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    snr_list = _parse_snr_list(args.snr_list)
    _print_config("eval", {
        "checkpoint": args.checkpoint, "manifest": args.manifest,
        "snr_list": ",".join(f"{s:g}" for s in snr_list),
        "report": args.report,
    })
    params = model.load_checkpoint(args.checkpoint)
    manifest = corpus.load_manifest(args.manifest)
    report = inference.evaluate(params, manifest, snr_list)
    inference.save_report(report, args.report)
    for snr in sorted(report.mean_cross_clone_rmse_by_snr, key=float):
        print(f"[eval] snr {snr:>4} dB: feature rmse {report.mean_cross_clone_rmse_by_snr[snr]:.4f}, "
              f"mel mse {report.mean_mel_recon_mse_by_snr[snr]:.4f}")
    print(f"[eval] report -> {args.report}")
    return 0


def cmd_selfcheck(args) -> int:
    _print_config("selfcheck", {})
    results = run_selfcheck()
    failed = 0
    for r in results:
        mark = "ok" if r.passed else "FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"[selfcheck] {len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salient",
        description="Noise-robust salient speech features: corpus, training, extraction, resynthesis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate a synthetic training corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--utterances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--snr-list", default="0,5,10,15", help="per-utterance SNR choices in dB")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("train", help="train the clone encoder/decoder")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--preset", choices=sorted(model.PRESETS), default="desk")
    p.add_argument("--config", help="key=value config file; CLI flags override it")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--clones", type=int)
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--eval-every", dest="eval_every", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda-mmd", dest="lambda_mmd", type=float)
    p.add_argument("--lambda-d", dest="lambda_d", type=float)
    p.add_argument("--kernel-scale", dest="kernel_scale", type=float)
    p.add_argument("--grad-clip", dest="grad_clip", type=float)
    p.add_argument("--snr-jitter-db", dest="snr_jitter_db", type=float,
                   help="per-clone SNR spread above the entry SNR")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="extract a feature track from a WAV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", action="store_true", help="also write a CSV copy")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("reconstruct", help="resynthesize audio from a feature track")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gl-iters", dest="gl_iters", type=int, default=inference.DEFAULT_GL_ITERS)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("eval", help="proxy metrics over a held-out manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--snr-list", default="0,5,10,15")
    p.add_argument("--report", required=True, help="output JSON path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selfcheck", help="run the built-in verification oracles")
    p.set_defaults(func=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors, 0 for --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SalientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
