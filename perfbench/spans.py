"""Tracing from outside the program: spans around the public functions at
salient's module boundaries.

Each wrapper replaces the attribute the caller actually looks up at call
time (for example `salient.training.build_clone_batch`, which training
imported by name), so no program file changes. Spans stay in memory and are
written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

# (layer metric prefix, module, attribute the caller looks up). A dotted
# attribute names a class member.
LAYERS = (
    ("audio.frame_matrix", "salient.audio", "frame_matrix"),
    ("audio.load_wav", "salient.audio", "load_wav"),
    ("corpus.build_clone_batch", "salient.training", "build_clone_batch"),
    ("corpus.mix_at_snr", "salient.corpus", "mix_at_snr"),
    ("losses.laplace_prior_sample", "salient.losses", "laplace_prior_sample"),
    ("losses.equivalence_loss_graph", "salient.losses", "equivalence_loss_graph"),
    ("losses.mmd_sq_graph", "salient.losses", "mmd_sq_graph"),
    ("losses.decoder_loss_graph", "salient.losses", "decoder_loss_graph"),
    ("model.encoder_graph", "salient.training", "encoder_graph"),
    ("model.decoder_graph", "salient.training", "decoder_graph"),
    ("model.encode_sequence", "salient.inference", "encode_sequence"),
    ("model.decode_sequence", "salient.inference", "decode_sequence"),
    ("autodiff.backward", "salient.autodiff", "backward"),
    ("training.build_step_graph", "salient.training", "build_step_graph"),
    ("training.adam", "salient.training", "Adam.step"),
    ("training.save_checkpoint", "salient.training", "save_checkpoint"),
    ("training.compute_norm_stats", "salient.training", "compute_norm_stats"),
    ("inference.extract_features", "salient.inference", "extract_features"),
    ("inference.reconstruct_mel", "salient.inference", "reconstruct_mel"),
    ("inference.griffin_lim", "salient.inference", "griffin_lim"),
    ("inference.evaluate", "salient.inference", "evaluate"),
)

TAPE_OPS = "autodiff.tape_ops"


def _owner(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patch:
    """Replaces attributes and puts the originals back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, module: str, attr: str, make):
        """Replace module.attr with make(original)."""
        owner, name = _owner(module, attr)
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False


@dataclass(frozen=True)
class Span:
    span: int
    name: str
    start_ns: int
    end_ns: int
    parent: int  # 0: no parent
    run: str


class Tracer:
    """Collects spans and counts. A span's parent is the innermost span open
    on its thread; a span opened on a worker thread with nothing open there
    (eval's thread pool) takes the innermost span open on the thread that
    created the tracer."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.run = ""
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._stacks: dict = {}

    def _parent_and_stack(self):
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack[-1], stack
        main = self._stacks.get(self._main)
        return (main[-1] if main else 0), stack

    def call(self, name: str, fn, *args, **kwargs):
        sid = next(self._ids)
        parent, stack = self._parent_and_stack()
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.run))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, patch: Patch) -> None:
        """Wrap every layer in LAYERS; the step graph wrapper also counts the
        entries its tape holds when it returns."""
        for name, module, attr in LAYERS:
            patch.set(module, attr, functools.partial(self.wrap, name))

        def count_tape(traced):
            def build_step_graph(tape, *args, **kwargs):
                result = traced(tape, *args, **kwargs)
                self.counts[TAPE_OPS] += len(tape)
                return result

            return build_step_graph

        patch.set("salient.training", "build_step_graph", count_tape)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans) -> dict:
    """span id -> its duration minus the part of it that its children cover.
    Children may overlap each other (worker threads), so their intervals are
    merged before they are subtracted."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered = 0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(s.span, ())):
            lo, hi = max(lo, s.start_ns), min(hi, s.end_ns)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[s.span] = (s.end_ns - s.start_ns) - covered
    return out


def without_descendants(spans, names) -> list:
    """The spans that have no ancestor named in `names`."""
    by_id = {s.span: s for s in spans}
    under = {}

    def is_under(sid: int) -> bool:
        if sid not in under:
            parent = by_id.get(by_id[sid].parent)
            under[sid] = parent is not None and (parent.name in names or is_under(parent.span))
        return under[sid]

    return [s for s in spans if not is_under(s.span)]


def layer_totals(spans) -> dict:
    """name -> (calls, total ns, self ns)."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: [0, 0, 0])
    for s in spans:
        t = totals[s.name]
        t[0] += 1
        t[1] += s.end_ns - s.start_ns
        t[2] += selfs[s.span]
    return {k: tuple(v) for k, v in totals.items()}
