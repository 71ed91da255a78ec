"""Tests of the benchmark's own arithmetic and of its claim not to perturb
the program it measures."""

import hashlib
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import Span, Tracer, layer_totals, self_times, without_descendants
from perfbench.workloads import WORKLOADS, Train

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# tail percentile rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "n, want",
    [(1, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (999, 90), (1000, 99), (5000, 99)],
)
def test_tail_percentile_is_highest_ladder_step_with_ten_beyond(n, want):
    assert stats.tail_percentile(n) == want


def test_tail_value_leaves_at_least_ten_samples_beyond_it():
    for n in range(20, 1200):
        values = list(range(n))
        pct = stats.tail_percentile(n)
        value = stats.percentile(values, pct)
        assert sum(v > value for v in values) >= stats.MIN_BEYOND
        higher = [p for p in stats.TAIL_LADDER if p > pct]
        if higher:
            assert sum(v > stats.percentile(values, higher[0]) for v in values) < stats.MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert stats.percentile(values, 50) == 3
    assert stats.percentile(values, 90) == 5
    assert stats.percentile(list(range(1, 101)), 90) == 90


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

def _span(sid, name, start, end, parent=0):
    return Span(sid, name, start, end, parent, "r")


def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        _span(1, "root", 0, 100),
        _span(2, "a", 10, 40, parent=1),
        _span(3, "b", 30, 60, parent=1),  # overlaps a, as on another thread
        _span(4, "c", 15, 20, parent=2),
        _span(5, "d", 90, 130, parent=1),  # runs past its parent's end
    ]
    got = self_times(spans)
    assert got == {1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 5, 5: 40}
    totals = layer_totals(spans)
    assert totals["root"] == (1, 100, 40)
    assert totals["a"] == (1, 30, 25)


def test_without_descendants_keeps_the_named_span_itself():
    spans = [
        _span(1, "setup", 0, 10),
        _span(2, "frame", 1, 2, parent=1),
        _span(3, "inner", 1, 2, parent=2),
        _span(4, "frame", 20, 30),
    ]
    assert [s.span for s in without_descendants(spans, ("setup",))] == [1, 4]


def test_tracer_parents_follow_nesting_and_worker_threads():
    tracer = Tracer()
    seen = {}

    def worker():
        tracer.call("worker", lambda: None)

    def outer():
        tracer.call("inner", lambda: None)
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        seen["alive"] = t.is_alive()

    tracer.call("outer", outer)
    assert seen["alive"] is False
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent == 0
    assert by_name["inner"].parent == by_name["outer"].span
    assert by_name["worker"].parent == by_name["outer"].span
    assert self_times(tracer.spans)[by_name["outer"].span] >= 0


# ---------------------------------------------------------------------------
# traced train units: exact counts, and the program is not perturbed
# ---------------------------------------------------------------------------

COUNTS = ("audio.frame_matrix.calls", "corpus.mix_at_snr.calls", "audio.load_wav.calls", "autodiff.tape_ops")


@pytest.fixture()
def short_train_units(monkeypatch):
    monkeypatch.setattr(Train, "steps", 3)


def _traced_train(work: Path, seed: int) -> tuple:
    workload = Train(work, seed)
    workload.warm_up()
    tracer = Tracer()
    workload.unit(0, tracer)
    assert workload.problems == []
    return workload, workload.per_layer(tracer)


def test_counts_repeat_exactly_across_traced_runs(tmp_path, short_train_units):
    _, first = _traced_train(tmp_path / "a", seed=5)
    _, second = _traced_train(tmp_path / "b", seed=5)
    for name in COUNTS:
        assert first[name] == second[name], name
    assert first["audio.frame_matrix.calls"] > 0
    assert first["autodiff.tape_ops"] > 0
    assert first["audio.load_wav.calls"] == 0  # every WAV is cached after warm-up


def test_traced_checkpoint_equals_direct_train_call(tmp_path, short_train_units):
    from salient import corpus, model, training

    workload, _ = _traced_train(tmp_path / "bench", seed=7)
    config = training.TrainConfig(
        steps=workload.config.steps, batch_size=16, clones=8, eval_every=50, seed=7,
        checkpoint_dir=str(tmp_path / "direct"),
    )
    manifest = corpus.load_manifest(workload.manifest_path)
    result = training.train(manifest, model.PRESETS["desk"], config)
    direct = hashlib.sha256(Path(result.final_path).read_bytes()).hexdigest()
    assert workload.digest == direct


# ---------------------------------------------------------------------------
# the benchmark's definition and its refusal to run without the program
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exits_nonzero_without_result_when_sources_are_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
