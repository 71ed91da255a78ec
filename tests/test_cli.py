"""Exit codes, flag precedence, config echo and artifact wiring of every
subcommand, driven through main(argv)."""

import json
import struct
import time
from dataclasses import fields

import numpy as np
import pytest

from salient import audio, cli, corpus, inference, model, training
from salient.errors import SalientError
from salient.losses import LossWeights
from salient.seeding import named_stream


def run(args):
    return cli.main(args)


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    assert run(["corpus", "--out", str(root / "c"), "--utterances", "6", "--seed", "7"]) == 0
    return root / "c"


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli_corpus):
    out = tmp_path_factory.mktemp("cli_run")
    code = run([
        "train", "--manifest", str(cli_corpus / "manifest.jsonl"), "--out", str(out),
        "--preset", "desk", "--steps", "4", "--batch-size", "2", "--clones", "2",
        "--eval-every", "2", "--seed", "3",
    ])
    assert code == 0
    return out


class TestCorpusCmd:
    def test_zero_utterances_ok(self, tmp_path):
        assert run(["corpus", "--out", str(tmp_path / "z"), "--utterances", "0"]) == 0
        m = corpus.load_manifest(tmp_path / "z" / "manifest.jsonl")
        assert len(m) == 0

    def test_same_seed_identical_trees(self, tmp_path):
        for d in ("a", "b"):
            assert run(["corpus", "--out", str(tmp_path / d), "--utterances", "3", "--seed", "55"]) == 0
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--utterances", "-3")])
    def test_negative_seed_or_count_exits_one(self, tmp_path, capsys, flag, value):
        assert run(["corpus", "--out", str(tmp_path / "n"), flag, value]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and ">= 0" in err
        assert not (tmp_path / "n").exists()

    def test_missing_out_is_usage_error(self):
        assert run(["corpus", "--utterances", "2"]) == 2

    def test_unknown_flag_rejected(self, tmp_path):
        assert run(["corpus", "--out", str(tmp_path / "x"), "--wat", "1"]) == 2


class TestTrainCmd:
    def test_artifacts_exist(self, cli_run):
        for name in ("init.ckpt", "best.ckpt", "final.ckpt", "train_log.csv"):
            assert (cli_run / name).exists()
        assert len((cli_run / "train_log.csv").read_text().splitlines()) == 5

    def test_preset_resolution(self):
        parser = cli.build_parser()
        for preset, want in (
            ("small", model.EncoderConfig(2, 1, 800, 12, 240)),
            ("large", model.EncoderConfig(3, 2, 800, 12, 240)),
            ("desk", model.EncoderConfig(2, 1, 64, 12, 240)),
        ):
            args = parser.parse_args(["train", "--manifest", "m", "--out", "o", "--preset", preset])
            model_cfg, resolved = cli.resolve_train_settings(args)
            assert model_cfg == want
        assert resolved["clones"] == 8 and resolved["batch_size"] == 16  # desk trainer defaults

    def test_desk_defaults_match_train_config(self):
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--manifest", "m", "--out", "o", "--preset", "desk"])
        _, resolved = cli.resolve_train_settings(args)
        want = training.TrainConfig(steps=resolved["steps"], batch_size=16, clones=8)
        for key in ("learning_rate", "eval_every", "seed", "snr_jitter_db"):
            assert resolved[key] == getattr(want, key), key
        for key in ("lambda_mmd", "lambda_d", "kernel_scale"):
            assert resolved[key] == getattr(want.weights, key), key

    def test_paper_scale_trainer_defaults(self):
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--manifest", "m", "--out", "o", "--preset", "small"])
        _, resolved = cli.resolve_train_settings(args)
        assert resolved["clones"] == 32 and resolved["batch_size"] == 64

    def test_cli_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("steps = 11  # comment\nlearning_rate = 0.5\n")
        parser = cli.build_parser()
        args = parser.parse_args([
            "train", "--manifest", "m", "--out", "o", "--config", str(cfg), "--steps", "7",
        ])
        _, resolved = cli.resolve_train_settings(args)
        assert resolved["steps"] == 7          # flag wins
        assert resolved["learning_rate"] == 0.5  # file beats default

    def test_unknown_config_key_fails(self, tmp_path, cli_corpus):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("warp_factor = 9\n")
        code = run([
            "train", "--manifest", str(cli_corpus / "manifest.jsonl"),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        ])
        assert code == 1

    def test_non_numeric_config_value_fails(self, tmp_path, cli_corpus, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("seed = 1\nsteps=abc\n")
        code = run([
            "train", "--manifest", str(cli_corpus / "manifest.jsonl"),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "line 2" in err and "steps" in err

    def test_non_integer_config_value_fails(self, tmp_path, cli_corpus, capsys):
        cfg = tmp_path / "frac.cfg"
        cfg.write_text("steps = 1.5\n")
        code = run([
            "train", "--manifest", str(cli_corpus / "manifest.jsonl"),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "line 1" in err and "steps" in err and "integer" in err
        assert not (tmp_path / "o").exists()

    def test_config_key_given_twice_fails(self, tmp_path, cli_corpus, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("steps=10\nseed = 2\nsteps=20\n")
        code = run([
            "train", "--manifest", str(cli_corpus / "manifest.jsonl"),
            "--out", str(tmp_path / "o"), "--config", str(cfg),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert str(cfg) in err and "line 3" in err and "steps" in err and "twice" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_integral_config_value_accepted(self, tmp_path):
        cfg = tmp_path / "int.cfg"
        cfg.write_text("steps = 1e3\nseed = 4.0\n")
        args = cli.build_parser().parse_args(["train", "--manifest", "m", "--out", "o", "--config", str(cfg)])
        _, resolved = cli.resolve_train_settings(args)
        assert (resolved["steps"], resolved["seed"]) == (1000, 4)
        assert type(resolved["steps"]) is int

    @pytest.mark.parametrize("flag,value", [("--eval-every", "0"), ("--learning-rate", "nan"), ("--seed", "-1")])
    def test_out_of_range_flag_exits_one_without_traceback(self, tmp_path, cli_corpus, capsys, flag, value):
        code = run([
            "train", "--manifest", str(cli_corpus / "manifest.jsonl"),
            "--out", str(tmp_path / "o"), "--steps", "2", flag, value,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and flag[2:].replace("-", "_") in err
        assert not (tmp_path / "o").exists()

    def test_flags_and_config_keys_are_the_train_config_fields(self, tmp_path):
        # every TrainConfig/LossWeights value but weights and checkpoint_dir
        # is settable by flag and by config file, and nothing else is
        want = {f.name for f in fields(training.TrainConfig)} - {"weights", "checkpoint_dir"}
        want |= {f.name for f in fields(LossWeights)}
        parser = cli.build_parser()
        args = parser.parse_args(["train", "--manifest", "m", "--out", "o"])
        assert set(vars(args)) - {"command", "func", "manifest", "out", "preset", "config"} == want
        cfg = tmp_path / "all.cfg"
        _, resolved = cli.resolve_train_settings(args)
        cfg.write_text("".join(f"{key} = {resolved[key]}\n" for key in sorted(want)))
        args = parser.parse_args(["train", "--manifest", "m", "--out", "o", "--config", str(cfg)])
        assert cli.resolve_train_settings(args)[1] == resolved
        assert set(resolved) == want
        for removed in ("optimizer = adam", "grad_clip = 0"):
            cfg.write_text(removed + "\n")
            with pytest.raises(SalientError, match="unknown key"):
                cli.resolve_train_settings(args)

    def test_resolved_config_echoed(self, tmp_path, cli_corpus, capsys):
        run([
            "train", "--manifest", str(cli_corpus / "manifest.jsonl"), "--out", str(tmp_path / "e"),
            "--steps", "2", "--batch-size", "2", "--clones", "2", "--eval-every", "2",
        ])
        out = capsys.readouterr().out
        assert "steps = 2" in out and "clones = 2" in out and "hidden = 64" in out


class TestExtractCmd:
    def test_one_second_gives_49_frames(self, cli_run, tmp_path, capsys):
        wav = tmp_path / "one.wav"
        rng = named_stream(1, "c")
        audio.save_wav(audio.AudioBuffer(rng.uniform(-0.5, 0.5, 16000).astype(np.float32)), wav)
        out = tmp_path / "one.feat"
        assert run(["extract", "--checkpoint", str(cli_run / "best.ckpt"), "--wav", str(wav), "--out", str(out)]) == 0
        track = inference.import_features(out)
        assert track.features.shape == (49, 12)
        assert "49 frames" in capsys.readouterr().out

    def test_csv_flag_emits_both(self, cli_run, tmp_path):
        wav = tmp_path / "x.wav"
        rng = named_stream(2, "c")
        audio.save_wav(audio.AudioBuffer(rng.uniform(-0.5, 0.5, 8000).astype(np.float32)), wav)
        out = tmp_path / "x.feat"
        assert run(["extract", "--checkpoint", str(cli_run / "best.ckpt"), "--wav", str(wav),
                    "--out", str(out), "--csv"]) == 0
        assert out.exists() and (tmp_path / "x.feat.csv").exists()

    def test_wrong_rate_names_rate(self, cli_run, tmp_path, capsys):
        from scipy.io import wavfile
        wav = tmp_path / "22k.wav"
        wavfile.write(wav, 22050, np.zeros(1000, dtype=np.int16))
        code = run(["extract", "--checkpoint", str(cli_run / "best.ckpt"), "--wav", str(wav), "--out", str(tmp_path / "y.feat")])
        assert code == 1
        assert "22050" in capsys.readouterr().err


class TestReconstructCmd:
    def test_roundtrip_and_gl_warning(self, cli_run, cli_corpus, tmp_path, capsys):
        entry = corpus.load_manifest(cli_corpus / "manifest.jsonl").entries[0]
        feat = tmp_path / "u.feat"
        assert run(["extract", "--checkpoint", str(cli_run / "best.ckpt"), "--wav", str(entry.clean_path), "--out", str(feat)]) == 0
        out_wav = tmp_path / "u_re.wav"
        assert run(["reconstruct", "--checkpoint", str(cli_run / "best.ckpt"), "--features", str(feat),
                    "--out", str(out_wav), "--gl-iters", "1"]) == 0
        assert "warning" in capsys.readouterr().out
        assert audio.load_wav(out_wav).samples.size > 0

    def test_same_track_gives_identical_wavs(self, cli_run, cli_corpus, tmp_path):
        entry = corpus.load_manifest(cli_corpus / "manifest.jsonl").entries[1]
        feat = tmp_path / "u.feat"
        assert run(["extract", "--checkpoint", str(cli_run / "best.ckpt"), "--wav", str(entry.clean_path), "--out", str(feat)]) == 0
        wavs = [tmp_path / "a.wav", tmp_path / "b.wav"]
        for wav in wavs:
            assert run(["reconstruct", "--checkpoint", str(cli_run / "best.ckpt"), "--features", str(feat),
                        "--out", str(wav)]) == 0
        assert wavs[0].read_bytes() == wavs[1].read_bytes()

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_fewer_than_one_iteration_exits_one_before_loading(self, tmp_path, capsys, iters):
        out_wav = tmp_path / "no.wav"
        code = run(["reconstruct", "--checkpoint", str(tmp_path / "missing.ckpt"),
                    "--features", str(tmp_path / "missing.feat"), "--out", str(out_wav), "--gl-iters", iters])
        captured = capsys.readouterr()
        assert code == 1 and not out_wav.exists()
        assert "warning" not in captured.out
        assert captured.err.strip().splitlines() == [f"error: --gl-iters must be at least 1, got {iters}"]

    def test_dimension_mismatch_exits_one(self, cli_run, tmp_path):
        bad = inference.FeatureTrack(features=np.zeros((10, 5), dtype=np.float32))
        p = tmp_path / "bad.feat"
        inference.export_features(bad, p)
        code = run(["reconstruct", "--checkpoint", str(cli_run / "best.ckpt"), "--features", str(p),
                    "--out", str(tmp_path / "no.wav")])
        assert code == 1

    def test_non_finite_features_exit_one_without_a_wav(self, cli_run, tmp_path, capsys):
        features = np.zeros((10, 12), dtype=np.float32)
        features[5, 0] = np.nan
        p = tmp_path / "nan.feat"
        inference.export_features(inference.FeatureTrack(features=features), p)
        out_wav = tmp_path / "no.wav"
        code = run(["reconstruct", "--checkpoint", str(cli_run / "best.ckpt"), "--features", str(p),
                    "--out", str(out_wav)])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1 and not out_wav.exists()
        assert len(err) == 1 and str(p) in err[0]


class TestCorruptHeaders:
    def test_reconstruct_oversized_feature_header_exits_one(self, cli_run, tmp_path, capsys):
        p = tmp_path / "huge.feat"
        header = struct.pack("<IIII", inference.FEATURE_VERSION, 65535, 65535, inference.HOP_MS)
        p.write_bytes(inference.FEATURE_MAGIC + header)
        code = run(["reconstruct", "--checkpoint", str(cli_run / "best.ckpt"), "--features", str(p),
                    "--out", str(tmp_path / "no.wav")])
        assert code == 1
        assert "65535x65535" in capsys.readouterr().err

    def test_extract_oversized_tensor_rank_exits_one(self, cli_run, tmp_path, capsys):
        raw = bytearray((cli_run / "best.ckpt").read_bytes())
        rank_at = raw.index(b"norm.mean") + len(b"norm.mean")
        raw[rank_at : rank_at + 4] = struct.pack("<I", 0xFFFFFFFF)
        ckpt = tmp_path / "rank.ckpt"
        ckpt.write_bytes(bytes(raw))
        wav = tmp_path / "w.wav"
        audio.save_wav(audio.AudioBuffer(np.zeros(8000, dtype=np.float32)), wav)
        code = run(["extract", "--checkpoint", str(ckpt), "--wav", str(wav), "--out", str(tmp_path / "w.feat")])
        assert code == 1
        assert "norm.mean dims" in capsys.readouterr().err


class TestEvalCmd:
    def test_report_written(self, cli_run, cli_corpus, tmp_path):
        report = tmp_path / "r.json"
        assert run(["eval", "--checkpoint", str(cli_run / "best.ckpt"),
                    "--manifest", str(cli_corpus / "manifest.jsonl"),
                    "--snr-list", "5,15", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert set(data["mean_cross_clone_rmse_by_snr"]) == {"5", "15"}
        assert len(data["feature_variance"]) == 12

    def test_eval_deterministic(self, cli_run, cli_corpus, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for r in (r1, r2):
            assert run(["eval", "--checkpoint", str(cli_run / "best.ckpt"),
                        "--manifest", str(cli_corpus / "manifest.jsonl"),
                        "--snr-list", "5", "--report", str(r)]) == 0
        assert r1.read_bytes() == r2.read_bytes()

    def test_missing_manifest_exits_one(self, cli_run, tmp_path):
        code = run(["eval", "--checkpoint", str(cli_run / "best.ckpt"),
                    "--manifest", str(tmp_path / "nope.jsonl"), "--report", str(tmp_path / "r.json")])
        assert code == 1

    def test_empty_manifest_exits_one(self, cli_run, tmp_path):
        mp = tmp_path / "empty.jsonl"
        mp.write_text('{"seed": 0}\n')
        code = run(["eval", "--checkpoint", str(cli_run / "best.ckpt"),
                    "--manifest", str(mp), "--report", str(tmp_path / "r.json")])
        assert code == 1


    @pytest.mark.parametrize("line", ['{"seed": "abc"}', '{"seed": null}', '{"seed": 1.5}', "3",
                                      '{"id": "u", "clean": "a.wav", "noises": "a.wav", "snr_db": 5}',
                                      '{"id": "u", "clean": "a.wav", "noises": ["a.wav"], "snr_db": true}'])
    def test_bad_manifest_line_exits_one(self, cli_run, tmp_path, capsys, line):
        mp = tmp_path / "bad.jsonl"
        mp.write_text(line + "\n")
        assert run(["eval", "--checkpoint", str(cli_run / "best.ckpt"),
                    "--manifest", str(mp), "--report", str(tmp_path / "r.json")]) == 1
        assert run(["train", "--manifest", str(mp), "--out", str(tmp_path / "o"), "--steps", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("line 1") == 2 and "Traceback" not in err

    def test_non_finite_snr_exits_one(self, cli_run, cli_corpus, tmp_path, capsys):
        with pytest.raises(SalientError, match="finite"):
            cli._parse_snr_list("0,nan")
        # the last pair both read "5" at the report's 6 significant digits
        for snrs, why in (("0,inf", "finite"), ("", "at least one"), ("5,5.0", "only once"),
                          ("5.0000001,5.0000002", "only once")):
            assert run(["eval", "--checkpoint", str(cli_run / "best.ckpt"),
                        "--manifest", str(cli_corpus / "manifest.jsonl"),
                        "--snr-list", snrs, "--report", str(tmp_path / "r.json")]) == 1
            assert run(["corpus", "--out", str(tmp_path / "c"), "--utterances", "2", "--snr-list", snrs]) == 1
            err = capsys.readouterr().err
            assert err.count(why) == 2 and "Traceback" not in err
            assert not (tmp_path / "r.json").exists() and not (tmp_path / "c").exists()


class TestSelfcheckCmd:
    def test_fresh_build_passes_within_budget(self, capsys):
        t0 = time.time()
        assert run(["selfcheck"]) == 0
        assert time.time() - t0 < 300  # soft runtime budget
        out = capsys.readouterr().out
        assert "[ok]" in out and "[FAIL]" not in out

    def test_corrupted_kernel_constant_fails_with_values(self, monkeypatch):
        from salient import losses
        from salient.selfcheck import run_selfcheck
        imq_constant = losses.imq_constant
        monkeypatch.setattr(losses, "imq_constant", lambda dim, scale: imq_constant(dim, 1.05 * scale))
        results = run_selfcheck()
        failed = [r for r in results if not r.passed]
        assert [r.name for r in failed] == ["mmd oracle (shifted samples)"]
        assert "expected" in failed[0].detail and "actual" in failed[0].detail
