"""Training-step contracts: weight sharing, exact zero gradients, Adam
oracles, determinism, logging, best-checkpoint selection, the batch worker
and the BLAS thread budget."""

import contextlib
import csv
import gc
import math
import threading
import weakref

import numpy as np
import pytest

from salient import autodiff as ad
from salient import losses, model, training
from salient.autodiff import Tape
from salient.corpus import CLONE_FRAMES, CloneBatch, Manifest, build_clone_batch
from salient.errors import InvalidRange, ManifestEmpty, NonFiniteLoss, UtteranceTooShort
from salient.losses import LossBreakdown, LossWeights
from salient.seeding import named_stream


def synthetic_batch(cfg, m=2, q=3, t=6, seed=0) -> CloneBatch:
    rng = named_stream(seed, "batch")
    inputs = rng.standard_normal((m, q, t, cfg.input_dim))
    targets = rng.standard_normal((m, t, cfg.input_dim))
    return CloneBatch(clone_inputs=inputs, clean_targets=targets, meta=(("x", 0),) * m)


def identical_clone_batch(cfg, m=2, q=4, t=6, seed=1) -> CloneBatch:
    rng = named_stream(seed, "batch")
    clean = rng.standard_normal((m, t, cfg.input_dim))
    inputs = np.repeat(clean[:, None], q, axis=1)
    return CloneBatch(clone_inputs=inputs, clean_targets=clean, meta=(("x", 0),) * m)


def apply_step(params, batch, weights=LossWeights(), lr=1e-3, seed=0):
    """One `_apply_step` with a fresh Adam and a Laplacian prior draw."""
    m, _, t_frames, _ = batch.clone_inputs.shape
    prior = losses.laplace_prior_sample(m * t_frames, params.config.feature_dim, named_stream(seed, "prior"))
    return training._apply_step(params, batch, prior, weights, training.Adam(params.tensors, lr))


class TestTrainStep:
    def test_identical_inputs_zero_equivalence(self, tiny_model_config):
        params = model.init_params(tiny_model_config, seed=1)
        breakdown = apply_step(params, identical_clone_batch(tiny_model_config), seed=1)
        assert abs(breakdown.d_e) < 1e-10

    def test_zero_weights_identical_inputs_params_unchanged(self, tiny_model_config):
        # with both extra terms off and all clones equal, the equivalence
        # gradient is exactly zero, a fixed point of Adam, so every weight
        # stays untouched
        params = model.init_params(tiny_model_config, seed=2)
        before = {k: v.copy() for k, v in params.tensors.items()}
        batch = identical_clone_batch(tiny_model_config)
        breakdown = apply_step(params, batch, LossWeights(lambda_mmd=0.0, lambda_d=0.0), lr=0.5, seed=2)
        assert breakdown.d_e == 0.0
        assert all(np.array_equal(params.tensors[k], before[k]) for k in before)

    def test_params_updated_in_place_single_materialization(self, tiny_model_config):
        params = model.init_params(tiny_model_config, seed=3)
        before = {k: v.copy() for k, v in params.tensors.items()}
        arrays_before = {k: id(v) for k, v in params.tensors.items()}
        apply_step(params, synthetic_batch(tiny_model_config), seed=3)
        assert {k: id(v) for k, v in params.tensors.items()} == arrays_before
        assert any(not np.array_equal(params.tensors[k], before[k]) for k in before)

    def test_step_graph_leaves_share_param_memory(self, tiny_model_config):
        params = model.init_params(tiny_model_config, seed=4)
        batch = synthetic_batch(tiny_model_config)
        tape = Tape(np.float32)
        prior = np.zeros((12, tiny_model_config.feature_dim))
        leaves, _ = training.build_step_graph(tape, params, batch, prior, LossWeights())
        assert set(leaves) == set(params.tensors)
        assert all(leaves[k].data is params.tensors[k] for k in leaves)

    def test_step_tape_length_independent_of_frames_and_clones(self, tiny_model_config):
        # the LSTM recurrence and the losses are whole-sequence ops, so the
        # graph does not grow with the segment length or the clone count
        def tape_len(q, t):
            params = model.init_params(tiny_model_config, seed=4)
            tape = Tape(np.float32)
            prior = np.zeros((2 * t, tiny_model_config.feature_dim))
            training.build_step_graph(tape, params, synthetic_batch(tiny_model_config, q=q, t=t), prior, LossWeights())
            return len(tape)

        assert tape_len(3, 2) == tape_len(3, 6)
        assert tape_len(2, 6) == tape_len(4, 6)

    def test_step_tape_freed_without_cycle_collector(self, tiny_model_config):
        # backward closures hold indices and arrays, never a Tensor (which
        # points back to its tape), so dropping the references frees the
        # tape by reference counting alone
        params = model.init_params(tiny_model_config, seed=4)
        prior = np.zeros((12, tiny_model_config.feature_dim))
        gc.disable()
        try:
            tape = Tape(np.float32)
            leaves, terms = training.build_step_graph(tape, params, synthetic_batch(tiny_model_config), prior, LossWeights())
            grads = ad.backward(terms[-1])
            ref = weakref.ref(tape)
            del tape, leaves, terms, grads
            assert ref() is None
        finally:
            gc.enable()

    def test_step_tape_holds_one_leaf_per_parameter(self):
        # the clone inputs, clean targets and prior draws enter as arrays:
        # the leaves are the parameters, and every other entry has a backward
        cfg = model.PRESETS["desk"]
        params = model.init_params(cfg, seed=4)
        tape = Tape(np.float32)
        prior = np.zeros((2 * CLONE_FRAMES, cfg.feature_dim))
        batch = synthetic_batch(cfg, m=2, q=3, t=CLONE_FRAMES)
        leaves, _ = training.build_step_graph(tape, params, batch, prior, LossWeights())
        assert sorted(i for i, bwd in enumerate(tape._ops) if bwd is None) == sorted(t.idx for t in leaves.values())
        assert len(leaves) == len(params.tensors) == 20
        assert len(tape) == 49

    def test_accounting_identity(self, tiny_model_config):
        params = model.init_params(tiny_model_config, seed=5)
        w = LossWeights()
        bd = apply_step(params, synthetic_batch(tiny_model_config, seed=5), w, seed=5)
        assert bd.d_global == bd.d_e + w.lambda_mmd * bd.d_mmd + w.lambda_d * bd.d_d

    @pytest.mark.parametrize("key,value", [
        ("steps", 0), ("batch_size", 1), ("clones", 1),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", 0.0), ("learning_rate", -1.0), ("seed", -1), ("eval_every", 0),
        ("snr_jitter_db", -1.0), ("snr_jitter_db", float("nan")), ("snr_jitter_db", float("inf")),
        ("lambda_mmd", -1.0), ("lambda_d", float("nan")), ("lambda_d", float("inf")),
        ("kernel_scale", 0.0), ("kernel_scale", float("nan")),
    ])
    def test_config_validation(self, key, value):
        with pytest.raises(InvalidRange):
            if key in ("lambda_mmd", "lambda_d", "kernel_scale"):
                training.TrainConfig(steps=1, weights=LossWeights(**{key: value}))
            else:
                training.TrainConfig(**{"steps": 1, key: value})


class TestOptimizers:
    def test_adam_matches_hand_formula(self):
        # one step on f(p) = p^2 from p = 3: g = 6
        p = {"w": np.array([3.0], dtype=np.float64)}
        opt = training.Adam(p, lr=0.1)
        opt.step(p, {"w": np.array([6.0], dtype=np.float64)})
        m = 0.1 * 6.0
        v = 0.001 * 36.0
        m_hat = m / (1 - 0.9)
        v_hat = v / (1 - 0.999)
        expected = 3.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert abs(float(p["w"][0]) - expected) <= 1e-12

    def test_adam_two_steps_hand_formula(self):
        p = {"w": np.array([1.0], dtype=np.float64)}
        opt = training.Adam(p, lr=0.5)
        m = v = 0.0
        w = 1.0
        for t, g in enumerate([2.0, -1.0], start=1):
            opt.step(p, {"w": np.array([g], dtype=np.float64)})
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w -= 0.5 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert abs(float(p["w"][0]) - w) <= 1e-12

    def test_zero_gradient_is_fixed_point(self):
        p = {"w": np.array([1.5])}
        opt = training.Adam(p, lr=0.1)
        opt.step(p, {"w": np.zeros(1)})
        assert float(p["w"][0]) == 1.5


class TestTrainLoop:
    @pytest.fixture()
    def quick_cfg(self, tmp_path):
        def make(**kw):
            base = dict(steps=6, batch_size=2, clones=2, eval_every=3, seed=9,
                        checkpoint_dir=tmp_path / "ckpt")
            base.update(kw)
            return training.TrainConfig(**base)
        return make

    def test_empty_manifest(self, quick_cfg):
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        with pytest.raises(ManifestEmpty):
            training.train(Manifest((), 0), cfg, quick_cfg())

    def test_log_rows_equal_steps_and_monotone(self, tiny_corpus, quick_cfg):
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        result = training.train(tiny_corpus, cfg, quick_cfg())
        assert len(result.records) == 6
        assert [r.step for r in result.records] == list(range(1, 7))
        text = result.log_path.read_text().splitlines()
        assert text[0] == "step,d_e,d_mmd,d_d,d_global,wall_ms,batch_wait_ms"
        assert len(text) == 7

    def test_batch_wait_is_a_finite_part_of_the_step(self, tiny_corpus, quick_cfg):
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        result = training.train(tiny_corpus, cfg, quick_cfg())
        rows = list(csv.DictReader(result.log_path.read_text().splitlines()))
        assert len(rows) == len(result.records) == 6
        for row, r in zip(rows, result.records):
            assert float(row["batch_wait_ms"]) == r.batch_wait_ms
            assert 0.0 <= r.batch_wait_ms <= r.wall_ms < math.inf

    def test_log_streams_rows_until_a_crash(self, tiny_corpus, quick_cfg, monkeypatch):
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        apply_step = training._apply_step
        calls = []

        def fail_from_step_3(*args, **kwargs):
            calls.append(None)
            if len(calls) >= 3:
                raise NonFiniteLoss("injected")
            return apply_step(*args, **kwargs)

        monkeypatch.setattr(training, "_apply_step", fail_from_step_3)
        tc = quick_cfg()
        with pytest.raises(NonFiniteLoss):
            training.train(tiny_corpus, cfg, tc)
        lines = (tc.checkpoint_dir / "train_log.csv").read_text().splitlines()
        assert lines[0] == "step,d_e,d_mmd,d_d,d_global,wall_ms,batch_wait_ms"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    def test_crash_after_a_scored_step_keeps_its_best_checkpoint(self, tiny_corpus, quick_cfg, monkeypatch):
        # eval_every=3 scores step 3; every attempt from step 5 on fails
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        apply_step = training._apply_step
        calls = []

        def fail_from_step_5(*args, **kwargs):
            calls.append(None)
            if len(calls) >= 5:
                raise NonFiniteLoss("injected")
            return apply_step(*args, **kwargs)

        monkeypatch.setattr(training, "_apply_step", fail_from_step_5)
        tc = quick_cfg()
        with pytest.raises(NonFiniteLoss):
            training.train(tiny_corpus, cfg, tc)
        monkeypatch.undo()
        three = training.train(tiny_corpus, cfg, quick_cfg(steps=3, checkpoint_dir=tc.checkpoint_dir / "three"))
        best = tc.checkpoint_dir / "best.ckpt"
        assert best.read_bytes() == three.final_path.read_bytes()
        assert model.load_checkpoint(best).config == cfg
        assert not list(tc.checkpoint_dir.glob("*.tmp"))

    def test_best_is_smallest_smoothed_earliest_on_tie(self, tiny_corpus, quick_cfg, monkeypatch):
        # scripted losses tie the two windows (steps 1-3 and 4-6) at 2.0
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        apply_step = training._apply_step
        scripted = iter([3.0, 1.0, 2.0, 2.0, 2.0, 2.0])

        def scripted_step(*args, **kwargs):
            apply_step(*args, **kwargs)
            return LossBreakdown(d_e=0.0, d_mmd=0.0, d_d=0.0, d_global=next(scripted))

        monkeypatch.setattr(training, "_apply_step", scripted_step)
        result = training.train(tiny_corpus, cfg, quick_cfg())
        assert (result.best_step, result.best_smoothed) == (3, 2.0)
        monkeypatch.undo()
        three = training.train(tiny_corpus, cfg, quick_cfg(steps=3, checkpoint_dir=result.log_path.parent / "three"))
        assert result.best_path.read_bytes() == three.final_path.read_bytes()

    def test_accounting_identity_in_log(self, tiny_corpus, quick_cfg):
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        w = LossWeights()
        result = training.train(tiny_corpus, cfg, quick_cfg(weights=w))
        for r in result.records:
            assert r.d_global == r.d_e + w.lambda_mmd * r.d_mmd + w.lambda_d * r.d_d

    def test_single_step_returns_post_step_snapshot(self, tiny_corpus, tmp_path):
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        tc = training.TrainConfig(steps=1, batch_size=2, clones=2, eval_every=50, seed=10,
                                  checkpoint_dir=tmp_path / "one")
        result = training.train(tiny_corpus, cfg, tc)
        assert result.best_step == 1
        final = model.load_checkpoint(result.final_path)
        best = model.load_checkpoint(result.best_path)
        assert all(np.array_equal(final.tensors[k], best.tensors[k]) for k in final.tensors)
        init = model.load_checkpoint(result.init_path)
        assert any(not np.array_equal(init.tensors[k], best.tensors[k]) for k in init.tensors)

    def test_identical_seed_identical_traces_and_checkpoints(self, tiny_corpus, tmp_path):
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)

        def run(d):
            tc = training.TrainConfig(steps=5, batch_size=2, clones=3, eval_every=5, seed=11,
                                      checkpoint_dir=tmp_path / d)
            return training.train(tiny_corpus, cfg, tc)

        a, b = run("a"), run("b")
        for ra, rb in zip(a.records, b.records):
            assert (ra.d_e, ra.d_mmd, ra.d_d, ra.d_global) == (rb.d_e, rb.d_mmd, rb.d_d, rb.d_global)
        assert a.best_path.read_bytes() == b.best_path.read_bytes()
        assert a.final_path.read_bytes() == b.final_path.read_bytes()

    def test_norm_stats_stored(self, tiny_corpus, quick_cfg):
        cfg = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)
        result = training.train(tiny_corpus, cfg, quick_cfg())
        loaded = model.load_checkpoint(result.best_path)
        assert np.all(loaded.std > 0)
        assert not np.allclose(loaded.mean, 0.0)  # real data stats, not defaults

    def test_smoothed_best_selection(self):
        records = [
            training.TrainLogRecord(step=s, d_e=0.0, d_mmd=0.0, d_d=0.0, d_global=g, wall_ms=1.0, batch_wait_ms=0.0)
            for s, g in enumerate([10.0, 9.0, 2.0, 1.0, 8.0, 9.0], start=1)
        ]
        window = records[-3:]
        assert float(np.mean([r.d_global for r in window])) == 6.0


class TestPrefetchedTraining:
    """train() builds step k+1's first batch on a worker thread while step k
    runs; these tests replay and probe it from the outside."""

    DESK = dict(batch_size=16, clones=8, eval_every=50, seed=4)
    TINY = model.EncoderConfig(lstm_layers=1, fc_layers=1, hidden=8, feature_dim=3, input_dim=240)

    @staticmethod
    def record_streams(monkeypatch) -> list:
        names = []
        named = training.named_stream

        def recording(seed, name):
            names.append(name)
            return named(seed, name)

        monkeypatch.setattr(training, "named_stream", recording)
        return names

    def test_serial_replay_is_bitwise_equal(self, tiny_corpus, tmp_path, monkeypatch):
        names = self.record_streams(monkeypatch)
        cfg = model.PRESETS["desk"]
        tc = training.TrainConfig(steps=5, checkpoint_dir=tmp_path / "run", **self.DESK)
        result = training.train(tiny_corpus, cfg, tc)
        assert [n for n in names if n.startswith("batch/")] == [f"batch/{s}/0" for s in range(1, 6)]
        monkeypatch.undo()

        params = model.init_params(cfg, tc.seed)
        params.mean, params.std = training.compute_norm_stats(tiny_corpus, tc.seed)
        optimizer = training.Adam(params.tensors, tc.learning_rate)
        for step in range(1, 6):
            batch = build_clone_batch(tiny_corpus, tc.batch_size, tc.clones,
                                      named_stream(tc.seed, f"batch/{step}/0"), tc.snr_jitter_db)
            prior = losses.laplace_prior_sample(tc.batch_size * CLONE_FRAMES, cfg.feature_dim,
                                                named_stream(tc.seed, f"prior/{step}/0"))
            training._apply_step(params, batch, prior, tc.weights, optimizer)
        final = model.load_checkpoint(result.final_path)
        assert sorted(final.tensors) == sorted(params.tensors)
        for k, v in params.tensors.items():
            assert final.tensors[k].tobytes() == v.tobytes(), k

    def test_a_retry_is_drawn_in_order_and_the_next_step_keeps_its_batch(self, tiny_corpus, tmp_path, monkeypatch):
        names = self.record_streams(monkeypatch)
        apply_step = training._apply_step
        inputs = []

        def fail_second_call(params, batch, *rest):
            inputs.append(batch.clone_inputs.copy())
            if len(inputs) == 2:
                raise NonFiniteLoss("injected")
            return apply_step(params, batch, *rest)

        monkeypatch.setattr(training, "_apply_step", fail_second_call)
        tc = training.TrainConfig(steps=5, batch_size=2, clones=2, seed=5, checkpoint_dir=tmp_path / "run")
        result = training.train(tiny_corpus, self.TINY, tc)
        assert result.nonfinite_skips == 1
        batches = [n for n in names if n.startswith("batch/")]
        assert sorted(batches) == ["batch/1/0", "batch/2/0", "batch/2/1", "batch/3/0", "batch/4/0", "batch/5/0"]
        assert batches.index("batch/2/1") > batches.index("batch/2/0")
        monkeypatch.undo()
        # calls: step 1, step 2 (fails), step 2's retry, step 3
        for call, name in ((2, "batch/2/1"), (3, "batch/3/0")):
            expected = build_clone_batch(tiny_corpus, 2, 2, named_stream(tc.seed, name), tc.snr_jitter_db)
            assert np.array_equal(inputs[call], expected.clone_inputs), name

    def test_a_worker_error_surfaces_and_leaves_no_thread(self, tiny_corpus, tmp_path, monkeypatch):
        build = training.build_clone_batch
        on_main = []

        def third_call_fails(*args, **kwargs):
            on_main.append(threading.current_thread() is threading.main_thread())
            if len(on_main) == 3:
                raise UtteranceTooShort("injected")
            return build(*args, **kwargs)

        monkeypatch.setattr(training, "build_clone_batch", third_call_fails)
        tc = training.TrainConfig(steps=5, batch_size=2, clones=2, seed=6, checkpoint_dir=tmp_path / "run")
        before = threading.active_count()
        with pytest.raises(UtteranceTooShort):
            training.train(tiny_corpus, self.TINY, tc)
        assert threading.active_count() == before
        assert on_main == [True, False, False]  # step 1 on the caller, steps 2 and 3 on the worker

    def test_one_blas_thread_during_training_and_the_old_count_after(self, tiny_corpus, tmp_path, monkeypatch):
        functions = list(training.openblas_thread_functions())
        if not functions:
            pytest.skip("no OpenBLAS thread-count symbol in this process")
        getters = [get for get, _ in functions]
        old = [get() for get in getters]
        apply_step = training._apply_step
        inside = []

        def probe(*args, **kwargs):
            inside.append([get() for get in getters])
            if len(inside) == 3 and raising:
                raise RuntimeError("injected")
            return apply_step(*args, **kwargs)

        monkeypatch.setattr(training, "_apply_step", probe)
        size = sum(t.size for t in model.init_params(self.TINY, 0).tensors.values())
        try:
            for _, put in functions:
                put(2)
            if [get() for get in getters] != [2] * len(getters):
                pytest.skip("OpenBLAS here runs one thread at most")
            # a model under the limit trains with one thread, one at it with the count it found
            for limit, threads in ((size + 1, 1), (size, 2)):
                monkeypatch.setattr(training, "ONE_BLAS_THREAD_MAX_PARAMS", limit)
                for raising in (False, True):
                    inside.clear()
                    tc = training.TrainConfig(steps=3, batch_size=2, clones=2, seed=7,
                                              checkpoint_dir=tmp_path / f"{limit}-{raising}")
                    with pytest.raises(RuntimeError) if raising else contextlib.nullcontext():
                        training.train(tiny_corpus, self.TINY, tc)
                    assert inside == [[threads] * len(getters)] * 3
                    assert [get() for get in getters] == [2] * len(getters)
        finally:
            for (_, put), threads in zip(functions, old):
                put(threads)

    def test_a_library_that_fails_to_load_skips_only_itself(self, monkeypatch):
        found = list(training.openblas_thread_functions())
        if len(found) < 2:
            pytest.skip("fewer than two OpenBLAS thread-count symbols in this process")
        load, paths = training.ctypes.CDLL, []

        def first_fails(path):
            paths.append(path)
            if len(paths) == 1:
                raise OSError("injected")
            return load(path)

        monkeypatch.setattr(training.ctypes, "CDLL", first_fails)
        assert len(list(training.openblas_thread_functions())) >= len(found) - 1
        assert len(paths) > 1

    def test_desk_trains_with_one_blas_thread_and_small_with_more(self):
        def size(preset):
            return sum(t.size for t in model.init_params(model.PRESETS[preset], 0).tensors.values())

        assert size("desk") < training.ONE_BLAS_THREAD_MAX_PARAMS <= size("small")
